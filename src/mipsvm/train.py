"""Stochastic subgradient trainers for l2- and l1-regularized multi-class SVMs.

Both trainers share one loop shape.  Per step: draw a batch uniformly with
replacement, find an approximate rival class for every example through the
MIPS index (a frozen snapshot, so the whole query phase is read-only and can
run on several threads), then apply the hinge updates sequentially.  The l2
variant scales the matrix by (1 - lambda * eta_t) before the queries and
projects it onto the Frobenius ball of radius 1/sqrt(lambda) afterwards; the
l1 variant skips both and instead soft-thresholds every row touched by the
batch, which is where the whole l1 penalty lives.

The index is kept in the matrix's stored (unscaled) units: global scaling
multiplies every logical row by the same positive factor and cannot change
any argmax, so only rows whose stored values changed need re-indexing.  A
scale fold rewrites every stored row and triggers a full refresh.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .dataio import Dataset
from .margin import empirical_risk, inexact_margin
from .metrics import evaluate
from .mips import BACKEND_DEFAULTS, BACKENDS, MipsIndex, build_index
from .sparse import SparseVector, WeightMatrix


def learning_rate(t: int, eta0: float, eta_step: float) -> float:
    """Step size eta0 / (1 + eta_step * t) for step index t >= 1."""
    return eta0 / (1.0 + eta_step * t)


def sample_batch(data: Dataset, size: int, rng: np.random.Generator):
    """Uniform sample with replacement; deterministic under a seeded rng."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    if size < 1:
        raise ValueError("batch size must be positive")
    picks = rng.integers(len(data), size=size)
    return [data.examples[i] for i in picks]


def truncate(w: SparseVector, xi: int, lam: float, eta: float,
             num_classes: int) -> SparseVector:
    """Soft-threshold w at tau = (num_classes / xi) * lam * eta; drops zeros."""
    if xi < 1:
        raise ValueError("xi must be a positive integer")
    tau = (num_classes / xi) * lam * eta
    if tau == 0.0:
        return w
    shrunk = np.sign(w.values) * np.maximum(np.abs(w.values) - tau, 0.0)
    keep = shrunk != 0.0
    return SparseVector(w.indices[keep], shrunk[keep], w.dim, check=False)


def default_batch_size(num_classes: int) -> int:
    return max(1, int(round(100.0 * math.sqrt(num_classes))))


@dataclass
class TrainConfig:
    """Everything a training run needs besides the data.

    ``rho`` only affects reported risks; the update guard inside both
    trainers is the literal ``1 + x.(w_rival - w_true) > 0`` test.
    ``batch_size=None`` resolves to round(100 * sqrt(C)) at train time.
    """

    lam: float = 1.0
    rho: float = 1.0
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
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if self.eta_step < 0:
            raise ValueError("eta_step must be nonnegative")
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
    risk = empirical_risk(W, data, rho=1.0, use_exact=True)
    return 0.5 * lam * W.frob_norm() ** 2 + risk.empirical_hinge


def objective_l1(W: WeightMatrix, data: Dataset, lam: float) -> float:
    """(lam/2) ||W||_1 + mean exact hinge loss at rho = 1."""
    risk = empirical_risk(W, data, rho=1.0, use_exact=True)
    l1 = sum(float(np.abs(W.materialize_row(c).values).sum())
             for c in range(W.num_classes))
    return 0.5 * lam * l1 + risk.empirical_hinge


def _build_training_index(W: WeightMatrix, cfg: TrainConfig) -> MipsIndex:
    rows = [(c, W.stored_row(c)) for c in range(W.num_classes)]
    return build_index(rows, cfg.backend, dim=W.dim, seed=cfg.seed,
                       **{k: getattr(cfg, k) for k in BACKEND_DEFAULTS})


def _query_phase(index, W, batch, threads):
    if threads > 1 and len(batch) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda ex: inexact_margin(index, W, ex[1], ex[0]),
                                 batch))
    return [inexact_margin(index, W, x, y) for y, x in batch]


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
        margins = _query_phase(index, W, batch, cfg.threads)

        # phase 2: sequential hinge updates
        touched: set[int] = set()
        for (y, x), m in zip(batch, margins):
            if mode == "l1":
                touched.update((y, m.rival))
            if 1.0 - m.margin > 0.0:
                W.add_to_row(m.rival, -eta, x)
                W.add_to_row(y, eta, x)
                if mode == "l2":
                    touched.update((y, m.rival))

        if mode == "l2":
            W.project_to_ball(cfg.lam)
        elif cfg.truncation and touched:
            tau = (data.num_classes / len(touched)) * cfg.lam * eta
            for c in sorted(touched):
                W.truncate_row(c, tau)

        # refresh the index; a fold rewrote every stored row
        if W.fold_count != fold_before:
            refresh = list(range(W.num_classes))
        else:
            refresh = sorted(touched)
        # descending norm order caps LSH re-augmentation at one rebuild per batch
        row_sq = W.row_sq_norms
        refresh.sort(key=lambda c: -row_sq[c])
        for c in refresh:
            index.update_row(c, W.stored_row(c))

        held = evaluate(W, heldout) if heldout is not None else None
        obj = objective(W, data, cfg.lam)
        if not math.isfinite(obj):
            raise ValueError(f"training diverged at step {t}: objective is {obj}")
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
    """TrainConfig with the customary regularization default per algorithm."""
    if algo not in ("l2", "l1"):
        raise ValueError(f"unknown algorithm {algo!r}")
    cfg = TrainConfig(lam=1.0 if algo == "l2" else 1e-6)
    return replace(cfg, **overrides)
