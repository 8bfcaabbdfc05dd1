"""One workload in a fresh process: set up, train, serve, check, measure.

run.py starts this file once per workload, so ``peak_rss_mb`` is the peak of
a process that did nothing else:

    python3 perfbench/cycle.py --workload NAME --data DIR --seed N \\
        --seconds S --trace 0|1 --out RESULT.json [--smoke]

Set-up parses the input files SETUP_REPEATS times.  A cycle then trains the
workload's model from scratch TRAIN_REPEATS times (the same model each time),
saves it, reloads it and checks it, and alternates timed samples of (reload +
evaluate on the test split) and (audit of the workload's MIPS backend against
the exact oracle on a seeded sample of test queries) for ``--seconds``;
medians are reported.  A traced run parses once, does one untraced cycle (for
the tracing overhead) and one traced cycle, each training once, and reports
the per-layer metrics of the traced one.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import mipsvm.dataio as dataio  # noqa: E402
import mipsvm.metrics as metrics  # noqa: E402
import mipsvm.mips as mips  # noqa: E402
import mipsvm.train as train  # noqa: E402
from mipsvm.mips import NoCandidateError  # noqa: E402
from mipsvm.train import TrainConfig  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import SMOKE_WORKLOADS, WORKLOADS, Workload  # noqa: E402

SETUP_REPEATS = 3
TRAIN_REPEATS = 2
# Serve and audit samples alternate, at least MIN_SAMPLES of each and, in
# untraced runs, until --seconds have passed: a shared machine's speed
# drifts over a few seconds, so one short sample is a poor estimate.
MIN_SAMPLES = 3
GAP_TOLERANCE = 1e-12


def commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(os.path.dirname(HERE), ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def header(seed: int) -> dict:
    import scipy

    return {"commit": commit(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "seed": seed}


@dataclass
class Outcome:
    """Operations attempted and failed, and every failed output check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


@dataclass
class Cycle:
    train_examples_per_s: float
    final_objective: float
    test_accuracy: float
    test_macro_f1: float
    predict_examples_per_s: float
    audit_queries_per_s: float
    serve_samples: int
    audit_samples: int
    W: object = None
    log: object = None
    audit: object = None
    recall: float = math.nan


def load_splits(folder: str, w: Workload):
    shape = w.shape
    tr = dataio.parse_dataset(os.path.join(folder, "train.txt"), dim=shape.dim,
                              num_classes=shape.classes)
    he = dataio.parse_dataset(os.path.join(folder, "heldout.txt"), dim=shape.dim,
                              num_classes=shape.classes, label_map=tr.label_map)
    te = dataio.parse_dataset(os.path.join(folder, "test.txt"), dim=shape.dim,
                              num_classes=shape.classes, label_map=tr.label_map)
    return tr, he, te


def lowest_gap(report) -> float:
    """Smallest audited gap, recovered from the report's histogram.

    np.histogram widens a zero-width range to [g - 0.5, g + 0.5] when every
    gap equals g; then the smallest gap is the largest one.
    """
    lo, hi = float(report.hist_edges[0]), float(report.hist_edges[-1])
    if math.isclose(report.max_gap - lo, 0.5) and math.isclose(hi - report.max_gap, 0.5):
        return report.max_gap
    return lo


def run_cycle(w: Workload, data, sample, workdir: str, outcome: Outcome,
              tracer: Tracer | None, train_repeats: int,
              window_s: float) -> Cycle | None:
    tr, he, te = data

    def phase(name):
        if tracer is not None:
            tracer.phase = name

    # -- train -----------------------------------------------------------
    cfg = TrainConfig(lam=w.lam, eta0=w.eta0, eta_step=w.eta_step,
                      epochs=w.steps, batch_size=w.batch, backend=w.backend,
                      seed=w.train_seed, truncation=w.truncation,
                      threads=w.threads)
    ball = 1.0 / math.sqrt(w.lam) + 1e-9 if w.lam > 0 else math.inf

    def on_step(t, W):
        if w.algo == "l2":
            outcome.check(W.frob_norm() <= ball,
                          f"step {t}: ||W||_F = {W.frob_norm()!r} > 1/sqrt(lam)")
        if tracer is not None:
            tracer.next_step(t)

    fit = train.train_l2 if w.algo == "l2" else train.train_l1
    queries = w.batch * w.steps
    train_s, objectives = [], []
    for _ in range(train_repeats):
        outcome.attempted += queries
        phase("train")
        if tracer is not None:
            tracer.step = 0
        gc.collect()
        t0 = time.perf_counter()
        try:
            W, log = fit(tr, cfg, heldout=he, epoch_callback=on_step)
        except NoCandidateError as exc:
            outcome.failed += queries
            outcome.problems.append(f"training query failed: {exc}")
            return None
        train_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.step = None
        outcome.check(all(math.isfinite(v) for v in log.objective),
                      f"non-finite objective {log.objective!r}")
        objectives.append(log.objective)
    outcome.check(all(o == objectives[0] for o in objectives),
                  f"repeated training is not deterministic: {objectives!r}")

    # -- serve: save, reload, check, then alternate timed samples of
    #    (reload + evaluate) and (audit against the exact oracle) -----------
    model_path = os.path.join(workdir, f"{w.name}.model")
    phase("serve")
    dataio.save_model(model_path, W, lam=w.lam, algorithm=w.algo)
    phase("check")
    W2, _ = dataio.load_model(model_path)
    outcome.check(np.array_equal(metrics.predict_batch(W, te),
                                 metrics.predict_batch(W2, te)),
                  "reloaded model predicts differently from the trained one")
    phase("build")
    index = mips.index_from_matrix(W2, w.backend)
    phase("oracle")
    oracle = mips.index_from_matrix(W2, "exact")
    phase("recall")
    outcome.attempted += len(sample)
    try:
        recall = mips.recall_at_1(index, oracle,
                                  [(x, y) for y, x in sample.examples])
    except NoCandidateError as exc:
        outcome.failed += len(sample)
        outcome.problems.append(f"recall query failed: {exc}")
        return None

    serve_s, audit_s = [], []
    window_end = time.perf_counter() + window_s
    while (min(len(serve_s), len(audit_s)) < MIN_SAMPLES
           or time.perf_counter() < window_end):
        # give both kinds of sample about the same share of the window
        if len(serve_s) < MIN_SAMPLES <= len(audit_s):
            serve_next = True
        elif len(audit_s) < MIN_SAMPLES <= len(serve_s):
            serve_next = False
        else:
            serve_next = sum(serve_s) <= sum(audit_s)
        if serve_next:
            phase("serve")
            outcome.attempted += len(te)
            t0 = time.perf_counter()
            W2, _ = dataio.load_model(model_path)
            report = metrics.evaluate(W2, te)
            serve_s.append(time.perf_counter() - t0)
            continue
        phase("audit")
        outcome.attempted += len(sample)
        t0 = time.perf_counter()
        try:
            audit = mips.audit_inexactness(index, W2, sample, w.audit_epsilon)
        except NoCandidateError as exc:
            outcome.failed += len(sample)
            outcome.problems.append(f"audit query failed: {exc}")
            return None
        audit_s.append(time.perf_counter() - t0)
    phase("done")
    outcome.check(lowest_gap(audit) >= -GAP_TOLERANCE,
                  f"approximate margin below exact by {-lowest_gap(audit)!r}")
    if w.backend == "exact":
        outcome.check(audit.delta_hat == 0.0,
                      f"exact backend delta_hat = {audit.delta_hat!r}")
        outcome.check(recall == 1.0, f"exact backend recall@1 = {recall!r}")

    return Cycle(train_examples_per_s=queries / statistics.median(train_s),
                 final_objective=log.objective[-1],
                 test_accuracy=report.accuracy,
                 test_macro_f1=report.macro_f1,
                 predict_examples_per_s=len(te) / statistics.median(serve_s),
                 audit_queries_per_s=len(sample) / statistics.median(audit_s),
                 serve_samples=len(serve_s), audit_samples=len(audit_s), W=W, log=log, audit=audit,
                 recall=recall)


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def per_layer(w: Workload, tracer: Tracer, c: Cycle, model_path: str,
              n_audit: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced cycle, as name -> (value, unit)."""
    T = tracer
    us = 1e6
    q_train = [s.seconds * us for s in T.select("mips.query", "train")]
    q_audit = [s.seconds * us for s in T.select("mips.query", "audit")]
    updates = [s for s in T.select("mips.update", "train") if s.step and s.step >= 1]
    upd_us = [s.seconds * us for s in updates]
    exact_margin_us = [s.seconds * us for s in T.select("margin.exact_margin", "audit")]
    active = sum(a for a, _ in T.active_fracs)
    seen = sum(n for _, n in T.active_fracs)
    reps = c.serve_samples
    index = T.training_indexes[-1]
    out = {
        "train.step_s.p50": (statistics.median(c.log.seconds), "s"),
        "train.step_s.max": (max(c.log.seconds), "s"),
        "train.sample_s": (T.total("train.sample_batch", "train"), "s"),
        "train.rival_s": (T.total("train.rival", "train"), "s"),
        "train.objective_s": (T.total(f"train.objective_{w.algo}", "train"), "s"),
        "train.heldout_s": (T.total("train.heldout", "train"), "s"),
        "train.refresh_s": (sum(s.seconds for s in updates), "s"),
        "train.index_build_s": (T.total("train.index_build", "train"), "s"),
        "train.hinge_active_frac": (active / seen if seen else 0.0, "1"),
        "train.rows_refreshed": (sum(c.log.index_refreshes), "count"),
        "sparse.add_to_row_s": (T.total("sparse.add_to_row", "train"), "s"),
        "sparse.add_to_row_calls": (len(T.select("sparse.add_to_row", "train")), "count"),
        "sparse.regularize_s": (sum(T.total(f"sparse.{n}", "train") for n in
                                    ("global_scale", "project_to_ball",
                                     "truncate_row")), "s"),
        "sparse.fold_count": (c.W.fold_count, "count"),
        "sparse.nnz": (c.W.nnz(), "count"),
        "sparse.to_csr_s": (T.total("sparse.to_csr", "train"), "s"),
        "sparse.dot_calls": (T.counter_total("sparse.dot", "train")
                             + T.counter_total("sparse.row_dot", "train"), "count"),
        "mips.query_us.p50": (_pct(q_train, 50), "us"),
        "mips.query_us.p99": (_pct(q_train, 99), "us"),
        "mips.frozen_query_us.p50": (_pct(q_audit, 50), "us"),
        "mips.frozen_query_us.p99": (_pct(q_audit, 99), "us"),
        "mips.update_us.p50": (_pct(upd_us, 50), "us"),
        "mips.update_us.p99": (_pct(upd_us, 99), "us"),
        "mips.build_s": (T.total("mips.build", "build"), "s"),
        "mips.recall_at_1": (c.recall, "1"),
        "mips.delta_hat": (c.audit.delta_hat, "1"),
        "mips.mean_gap": (c.audit.mean_gap, "1"),
        "mips.max_gap": (c.audit.max_gap, "1"),
        "mips.dots_per_query": ((T.counter_total("sparse.dot", "audit")
                                 + T.counter_total("mips.exact_rows_scored", "audit"))
                                / (n_audit * c.audit_samples), "count"),
        "mips.simplelsh.rebuilds": (getattr(index, "rebuild_count", 0), "count"),
        "margin.exact_batch_s": (T.total("margin.exact_margins_batch", "train"), "s"),
        "margin.exact_margin_us.p50": (_pct(exact_margin_us, 50), "us"),
        "metrics.predict_batch_s": (T.total("metrics.predict_batch", "serve") / reps, "s"),
        "metrics.macro_f1_s": (T.total("metrics.macro_f1", "serve") / reps, "s"),
        "dataio.parse_s": (T.total("dataio.parse_dataset", "setup"), "s"),
        "dataio.save_model_s": (T.total("dataio.save_model", "serve"), "s"),
        "dataio.load_model_s": (T.total("dataio.load_model", "serve") / reps, "s"),
        "dataio.model_bytes": (os.path.getsize(model_path), "bytes"),
        "trace.spans": (len(T.spans), "count"),
    }
    for layer, seconds in T.self_seconds_by_layer().items():
        out[f"self_s.{layer}"] = (seconds, "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--data", required=True, help="folder with the split files")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="result JSON to write")
    ap.add_argument("--spans", default=None, help="span JSONL to write (--trace 1)")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    w = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    workdir = os.path.dirname(os.path.abspath(args.out))
    outcome = Outcome()
    tracer = Tracer() if args.trace else None

    # -- setup: parsing only; the files were generated beforehand ----------
    setup_s = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        if tracer is not None:
            tracer.install()
        data = None
        gc.collect()
        t0 = time.perf_counter()
        data = load_splits(args.data, w)
        setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
    test = data[2]
    picks = np.random.default_rng([args.seed, 0xA0D17]).choice(
        len(test), size=min(w.audit_queries, len(test)), replace=False)
    sample = test.subset(sorted(picks.tolist()))

    result = {"header": header(args.seed), "workload": w.name,
              "backend": w.backend}
    quick = tracer is not None or args.smoke
    last = run_cycle(w, data, sample, workdir, outcome, None,
                     1 if quick else TRAIN_REPEATS,
                     0.0 if quick else args.seconds)
    if last is not None:
        result["metrics"] = {
            "setup_s": (statistics.median(setup_s), "s"),
            "train_examples_per_s": (last.train_examples_per_s, "1/s"),
            "final_objective": (last.final_objective, "1"),
            "test_accuracy": (last.test_accuracy, "1"),
            "test_macro_f1": (last.test_macro_f1, "1"),
            "predict_examples_per_s": (last.predict_examples_per_s, "1/s"),
            "audit_queries_per_s": (last.audit_queries_per_s, "1/s"),
        }
        result["samples"] = {"setup": len(setup_s), "serve": last.serve_samples,
                             "audit": last.audit_samples}
        if tracer is not None:
            tracer.install()
            try:
                traced = run_cycle(w, data, sample, workdir, outcome, tracer,
                                   1, 0.0)
            finally:
                tracer.uninstall()
            if traced is not None:
                layers = per_layer(w, tracer, traced,
                                   os.path.join(workdir, f"{w.name}.model"),
                                   len(sample))
                layers["trace.overhead_examples_per_s"] = (
                    traced.train_examples_per_s - last.train_examples_per_s, "1/s")
                result["per_layer"] = layers
            if args.spans:
                tracer.write(args.spans)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if "metrics" in result:
        result["metrics"]["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    result.update(attempted=outcome.attempted, failed=outcome.failed,
                  problems=outcome.problems)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
