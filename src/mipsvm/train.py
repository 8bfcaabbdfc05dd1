"""Stochastic subgradient trainers for l2- and l1-regularized multi-class SVMs.

Both trainers share one loop shape.  Per step: draw a batch uniformly with
replacement as one row take of the data's CSR block, ask the MIPS index (a
frozen snapshot) for every example's rival class with one ``query_batch``
call on the batch's block, re-score the true and rival classes
exactly, then apply the hinge updates as one sparse product,
eta * (Y - R)^T X over the hinge-active rows of the block (Y and R one-hot
in the true and rival classes).  The l2 variant scales the matrix by
(1 - lambda * eta_t) before the queries and projects it onto the Frobenius
ball of radius 1/sqrt(lambda) afterwards; the l1 variant skips both and
instead soft-thresholds every row touched by the batch, which is where the
whole l1 penalty lives.

The index is kept in the matrix's stored (unscaled) units: global scaling
multiplies every logical row by the same positive factor and cannot change
any argmax, so only rows whose stored values changed need re-indexing.  A
scale fold rewrites every stored row and triggers a full refresh.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy import sparse as sp

from .dataio import Dataset
# inexact_margin is unused here; perfbench/tracing.py patches it by this
# name on this module.
from .margin import empirical_risk, inexact_margin, inexact_margins_batch  # noqa: F401
from .metrics import evaluate
from .mips import BACKEND_DEFAULTS, BACKENDS, MipsIndex, build_index
from .sparse import WeightMatrix


def learning_rate(t: int, eta0: float, eta_step: float) -> float:
    """Step size eta0 / (1 + eta_step * t) for step index t >= 1."""
    return eta0 / (1.0 + eta_step * t)


def sample_batch(data: Dataset, size: int, rng: np.random.Generator) -> Dataset:
    """Uniform sample with replacement, as a row take of ``data``;
    deterministic under a seeded rng."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    if size < 1:
        raise ValueError("batch size must be positive")
    picks = rng.integers(len(data), size=size)
    return data.subset(picks)


def default_batch_size(num_classes: int) -> int:
    return max(1, int(round(100.0 * math.sqrt(num_classes))))


@dataclass
class TrainConfig:
    """Everything a training run needs besides the data.

    The update guard inside both trainers is the literal
    ``1 + x.(w_rival - w_true) > 0`` test.  ``batch_size=None`` resolves to
    round(100 * sqrt(C)) at train time.  ``threads`` is range-checked and
    read by nothing: the rival phase runs on the calling thread, and the
    kernel pool of :mod:`mipsvm.sparse` already uses every core.
    """

    lam: float = 1.0
    eta0: float = 0.1
    eta_step: float = 0.02
    epochs: int = 10
    batch_size: Optional[int] = None
    backend: str = "exact"
    seed: int = 0
    truncation: bool = True
    lsh_bits: int = BACKEND_DEFAULTS["lsh_bits"]
    lsh_tables: int = BACKEND_DEFAULTS["lsh_tables"]
    swg_max_neighbors: int = BACKEND_DEFAULTS["swg_max_neighbors"]
    swg_ef_construction: int = BACKEND_DEFAULTS["swg_ef_construction"]
    swg_ef_search: int = BACKEND_DEFAULTS["swg_ef_search"]
    threads: int = 1
    early_stop: bool = False

    def validate(self) -> None:
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be nonnegative and finite, not {self.lam}")
        if not 0 < self.eta0 < math.inf:
            raise ValueError(f"eta0 must be positive and finite, not {self.eta0}")
        if not 0 <= self.eta_step < math.inf:
            raise ValueError(f"eta_step must be nonnegative and finite, not {self.eta_step}")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.lsh_bits < 1 or self.lsh_tables < 1:
            raise ValueError("LSH parameters must be positive")
        if min(self.swg_max_neighbors, self.swg_ef_construction,
               self.swg_ef_search) < 1:
            raise ValueError("graph parameters must be positive")
        if self.threads < 1:
            raise ValueError("threads must be positive")
        # the scale factor 1 - lam*eta_t must stay positive at every step;
        # eta_t is maximal at t=1
        if self.lam * learning_rate(1, self.eta0, self.eta_step) >= 1.0:
            raise ValueError("lam * eta_1 must be below 1")


@dataclass
class TrainLog:
    """One record per epoch of a training run."""

    objective: list[float] = field(default_factory=list)
    heldout_accuracy: list[float] = field(default_factory=list)
    heldout_macro_f1: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    nnz: list[int] = field(default_factory=list)
    index_refreshes: list[int] = field(default_factory=list)
    # the training index's work counts once training ends (MipsIndex.counters)
    index_counters: dict[str, int] = field(default_factory=dict)

    def append(self, objective, heldout_accuracy, heldout_macro_f1, seconds,
               nnz, index_refreshes):
        self.objective.append(objective)
        self.heldout_accuracy.append(heldout_accuracy)
        self.heldout_macro_f1.append(heldout_macro_f1)
        self.seconds.append(seconds)
        self.nnz.append(nnz)
        self.index_refreshes.append(index_refreshes)

    def __len__(self):
        return len(self.objective)

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch\tobjective\theldout_acc\theldout_maf1\tnnz\tseconds\n")
            for t in range(len(self)):
                fh.write(f"{t + 1}\t{self.objective[t]!r}\t"
                         f"{self.heldout_accuracy[t]!r}\t"
                         f"{self.heldout_macro_f1[t]!r}\t{self.nnz[t]}\t"
                         f"{self.seconds[t]:.6f}\n")


def objective_l2(W: WeightMatrix, data: Dataset, lam: float) -> float:
    """(lam/2) ||W||_F^2 + mean exact hinge loss at rho = 1."""
    risk = empirical_risk(W, data, rho=1.0)
    return 0.5 * lam * W.frob_norm() ** 2 + risk.empirical_hinge


def objective_l1(W: WeightMatrix, data: Dataset, lam: float) -> float:
    """(lam/2) ||W||_1 + mean exact hinge loss at rho = 1."""
    risk = empirical_risk(W, data, rho=1.0)
    return 0.5 * lam * W.l1_norm() + risk.empirical_hinge


def _build_training_index(W: WeightMatrix, cfg: TrainConfig) -> MipsIndex:
    index = build_index([], cfg.backend, dim=W.dim, seed=cfg.seed,
                        **{k: getattr(cfg, k) for k in BACKEND_DEFAULTS})
    index.update_rows(range(W.num_classes), W.stored_rows(range(W.num_classes)))
    return index


def _query_phase(index, W, batch: Dataset):
    """Margin and rival of every example of ``batch`` against the frozen
    index, as one record array with ``margin`` and ``rival`` fields, from
    one :func:`inexact_margins_batch` call on the batch's own block."""
    margins, rivals = inexact_margins_batch(index, W, batch)
    return np.rec.fromarrays([margins, rivals], names="margin,rival")


def _train(data: Dataset, cfg: TrainConfig, mode: str,
           heldout: Optional[Dataset],
           epoch_callback: Optional[Callable[[int, WeightMatrix], None]],
           initial: Optional[WeightMatrix]) -> tuple[WeightMatrix, TrainLog]:
    cfg.validate()
    if data.num_classes < 2:
        raise ValueError("need at least two classes to train")
    if len(data) == 0:
        raise ValueError("empty dataset")
    objective = objective_l2 if mode == "l2" else objective_l1

    if heldout is not None and heldout.dim != data.dim:
        raise ValueError(f"heldout dimension {heldout.dim} does not match the "
                         f"training dimension {data.dim}")
    if initial is not None:
        if (initial.num_classes, initial.dim) != (data.num_classes, data.dim):
            raise ValueError("initial weights do not match the dataset shape")
        W = initial
    else:
        W = WeightMatrix(data.num_classes, data.dim)
    batch_size = cfg.batch_size or default_batch_size(data.num_classes)
    rng = np.random.default_rng(cfg.seed)
    index = _build_training_index(W, cfg)
    log = TrainLog()
    best_maf1 = -np.inf
    stale_epochs = 0

    for t in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        eta = learning_rate(t, cfg.eta0, cfg.eta_step)
        batch = sample_batch(data, batch_size, rng)
        fold_before = W.fold_count

        if mode == "l2":
            W.global_scale(1.0 - cfg.lam * eta)

        # phase 1: rivals and margins against the frozen snapshot
        found = _query_phase(index, W, batch)

        # phase 2: the hinge updates, one product over the hinge-active examples
        labels, rivals = batch.labels_array(), found.rival
        active = np.flatnonzero(1.0 - found.margin > 0.0)
        if active.size:
            signs = sp.csr_matrix(
                (np.repeat([eta, -eta], active.size),
                 (np.concatenate([labels[active], rivals[active]]),
                  np.tile(np.arange(active.size), 2))),
                shape=(W.num_classes, active.size))
            try:
                W.add(signs @ batch.to_csr()[active])
            except ValueError as exc:  # an overflowed update, which W does not take
                raise ValueError(f"training diverged at step {t}: {exc}") from exc
        if mode == "l2":
            touched = np.union1d(labels[active], rivals[active])
            W.project_to_ball(cfg.lam)
        else:
            touched = np.union1d(labels, rivals)
            if cfg.truncation:
                tau = (data.num_classes / touched.size) * cfg.lam * eta
                W.truncate_rows(touched, tau)

        held = evaluate(W, heldout) if heldout is not None else None
        obj = objective(W, data, cfg.lam)
        if not math.isfinite(obj):  # before the index refresh rejects a non-finite W
            raise ValueError(f"training diverged at step {t}: objective is {obj}")

        # refresh the index with one row take of W's store (all of it after a
        # fold), in descending norm order, ties by id: swgraph inserts the
        # rows one by one in that order, and simplelsh, which hashes them in
        # one pass, ends with the U and codes that order gives.
        refresh = np.arange(W.num_classes) if W.fold_count != fold_before else touched
        refresh = refresh[np.argsort(-W.row_sq_norms[refresh], kind="stable")]
        index.update_rows(refresh, W.stored_rows(refresh))
        log.append(objective=obj,
                   heldout_accuracy=held.accuracy if held else math.nan,
                   heldout_macro_f1=held.macro_f1 if held else math.nan,
                   seconds=time.perf_counter() - t0,
                   nnz=W.nnz(),
                   index_refreshes=len(refresh))
        if epoch_callback is not None:
            epoch_callback(t, W)
        if cfg.early_stop and held is not None:
            if held.macro_f1 > best_maf1 + 1e-4:
                best_maf1 = held.macro_f1
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= 5:
                    break
    log.index_counters = index.counters()
    return W, log


def train_l2(data: Dataset, cfg: TrainConfig, *, heldout: Optional[Dataset] = None,
             epoch_callback: Optional[Callable[[int, WeightMatrix], None]] = None,
             initial: Optional[WeightMatrix] = None) -> tuple[WeightMatrix, TrainLog]:
    """Pegasos-style l2 trainer: scale, hinge updates, ball projection."""
    return _train(data, cfg, "l2", heldout, epoch_callback, initial)


def train_l1(data: Dataset, cfg: TrainConfig, *, heldout: Optional[Dataset] = None,
             epoch_callback: Optional[Callable[[int, WeightMatrix], None]] = None,
             initial: Optional[WeightMatrix] = None) -> tuple[WeightMatrix, TrainLog]:
    """Subgradient l1 trainer: hinge updates plus per-batch truncation."""
    return _train(data, cfg, "l1", heldout, epoch_callback, initial)


def config_for_algo(algo: str, **overrides) -> TrainConfig:
    """TrainConfig with the customary regularization default per algorithm:
    TrainConfig's own λ for l2, 1e-6 for l1."""
    if algo not in ("l2", "l1"):
        raise ValueError(f"unknown algorithm {algo!r}")
    cfg = TrainConfig() if algo == "l2" else TrainConfig(lam=1e-6)
    return replace(cfg, **overrides)
