"""Spans and counters around the public entry points of the mipsvm layers.

Nothing inside ``src/`` is instrumented: :class:`Tracer` replaces module
attributes and class methods with timing wrappers while it is installed and
puts the originals back afterwards.  Every wrapped call becomes a span (name,
start, end, parent span, training step, benchmark phase, thread).  Calls that
happen far more than 10^5 times per run (the sparse inner products) only
bump a per-thread counter, so the trace stays small and cheap.

Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps

import mipsvm.dataio
import mipsvm.margin
import mipsvm.metrics
import mipsvm.mips
import mipsvm.mips.audit
import mipsvm.mips.simplelsh
import mipsvm.mips.swgraph
import mipsvm.train
from mipsvm.dataio import Dataset
from mipsvm.mips import ExactIndex, SimpleLshIndex, SwGraphIndex
from mipsvm.sparse import WeightMatrix

LAYERS = ("train", "sparse", "margin", "mips", "metrics", "dataio")


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    step: int | None
    phase: str
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.step: int | None = None
        self.phase = "setup"
        self.active_fracs: list[tuple[int, int]] = []
        self.training_indexes: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._counter_tables: list[dict] = []
        self._table_lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # a pool thread: its spans hang under the span the main thread
            # is blocked in (the rival phase)
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def _counters(self) -> dict:
        table = getattr(self._local, "counters", None)
        if table is None:
            table = self._local.counters = defaultdict(int)
            with self._table_lock:
                self._counter_tables.append(table)
        return table

    def count(self, name: str, n: int = 1) -> None:
        self._counters()[(name, self.phase)] += n

    def counter_total(self, name: str, phase: str) -> int:
        return sum(v for table in self._counter_tables
                   for key, v in list(table.items()) if key == (name, phase))

    def spanned(self, name: str, fn, after=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.step,
                                       self.phase, threading.get_ident()))
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counted(self, name: str, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        span = self.spanned
        t, m = mipsvm.train, mipsvm.margin

        # train: the loop's phases are module-level calls of train.py
        for attr in ("train_l2", "train_l1"):
            self._patch(t, attr, lambda f, a=attr: span(f"train.{a}", f))
        self._patch(t, "sample_batch", lambda f: span("train.sample_batch", f))
        self._patch(t, "_query_phase", lambda f: span("train.rival", f,
                                                       after=self._note_margins))
        self._patch(t, "_build_training_index",
                    lambda f: span("train.index_build", f,
                                   after=self._note_training_index))
        for attr in ("objective_l2", "objective_l1"):
            self._patch(t, attr, lambda f, a=attr: span(f"train.{a}", f))
        self._patch(t, "evaluate", lambda f: span("train.heldout", f))
        self._patch(t, "empirical_risk", lambda f: span("margin.empirical_risk", f))
        self._patch(t, "inexact_margin", lambda f: span("margin.inexact_margin", f))

        # sparse
        for attr in ("add_to_row", "global_scale", "project_to_ball",
                     "truncate_row", "to_csr"):
            self._patch(WeightMatrix, attr, lambda f, a=attr: span(f"sparse.{a}", f))
        self._patch(WeightMatrix, "row_dot", lambda f: self.counted("sparse.row_dot", f))
        for module in (mipsvm.mips.simplelsh, mipsvm.mips.swgraph):
            self._patch(module, "dot", lambda f: self.counted("sparse.dot", f))

        # margin
        self._patch(m, "exact_margins_batch",
                    lambda f: span("margin.exact_margins_batch", f))
        self._patch(mipsvm.mips.audit, "exact_margin",
                    lambda f: span("margin.exact_margin", f))
        self._patch(mipsvm.mips.audit, "inexact_margin",
                    lambda f: span("margin.inexact_margin", f))

        # mips
        for cls in (ExactIndex, SimpleLshIndex, SwGraphIndex):
            self._patch(cls, "query",
                        lambda f, c=cls: span("mips.query", self._rows_scored(c, f)))
            self._patch(cls, "update_row", lambda f: span("mips.update", f))
        self._patch(mipsvm.mips, "index_from_matrix", lambda f: span("mips.build", f))
        self._patch(mipsvm.mips, "audit_inexactness", lambda f: span("mips.audit", f))
        self._patch(mipsvm.mips, "recall_at_1", lambda f: span("mips.recall_at_1", f))

        # metrics
        for attr in ("evaluate", "predict_batch", "macro_f1"):
            self._patch(mipsvm.metrics, attr, lambda f, a=attr: span(f"metrics.{a}", f))

        # dataio
        for attr in ("parse_dataset", "save_model", "load_model"):
            self._patch(mipsvm.dataio, attr, lambda f, a=attr: span(f"dataio.{a}", f))
        self._patch(Dataset, "to_csr", lambda f: span("dataio.to_csr", f))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _rows_scored(self, cls, fn):
        """ExactIndex scores every row in one sparse product: count them."""
        if cls is not ExactIndex:
            return fn

        @wraps(fn)
        def wrapper(index, *args, **kwargs):
            self.count("mips.exact_rows_scored", len(index))
            return fn(index, *args, **kwargs)
        return wrapper

    def _note_margins(self, args, margins) -> None:
        active = sum(1 for mr in margins if 1.0 - mr.margin > 0.0)
        self.active_fracs.append((active, len(margins)))

    def _note_training_index(self, args, index) -> None:
        self.training_indexes.append(index)
        self.step = 1

    def next_step(self, finished: int) -> None:
        """epoch_callback hook: spans after step t belong to step t + 1."""
        self.step = finished + 1

    # -- reading -------------------------------------------------------------

    def select(self, name: str, phase: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.phase == phase]

    def total(self, name: str, phase: str) -> float:
        return sum(s.seconds for s in self.select(name, phase))

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Span time minus the union of its child spans, summed per layer."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.name.split(".", 1)[0]] += s.seconds - covered
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "step": s.step,
                                     "phase": s.phase, "thread": s.thread}) + "\n")
