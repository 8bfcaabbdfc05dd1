"""The benchmark's workloads: data shape, trainer settings and backend.

Trainer hyperparameters (lambda, eta0, eta_step, batch size, steps and the
trainer seed) are pinned here rather than taken from library defaults, so a
change of a default cannot silently change a workload.  Backend parameters
(LSH bits and tables, graph degree and candidate lists) are left at the
library defaults on purpose: picking them is the backend's job, and the
quality metrics guard that trade-off.  Why each workload exists is written
down in NOTES.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

SPLITS = ("train", "heldout", "test")
# part of every cache key: bump it when datagen.py changes what it writes
GENERATOR_VERSION = 1


@dataclass(frozen=True)
class DenseShape:
    """Shape of a ``mipsvm.synth.make_synthetic`` problem and its splits.

    The corpus is ``make_synthetic`` at ``corpus_seed`` with ``pool`` times
    as many examples as the splits need.
    """

    classes: int
    dim: int
    train: int
    heldout: int
    test: int
    noise: float = 0.4
    pool: int = 3
    corpus_seed: int = 0x5EED

    def key(self) -> str:
        return (f"dense-C{self.classes}-d{self.dim}-n{self.train}-{self.heldout}"
                f"-{self.test}-z{self.noise:g}-p{self.pool}-c{self.corpus_seed}")


@dataclass(frozen=True)
class SparseShape:
    """Shape of an LSHTC-like sparse text problem and its splits.

    Class sizes follow a power law with exponent ``class_alpha`` (every
    class keeps at least ``min_per_class`` training examples).  An example
    draws about ``tokens`` tokens (some repeat; the defaults give about 40
    distinct features per example): a ``topic_share`` of them from its
    class's own vocabulary of ``vocab`` features, the rest from a Zipf
    background over all ``dim`` features with exponent ``background_alpha``.
    Values are 1 + log(term count), and each example is scaled to unit norm.
    Priors, vocabularies and the background order come from ``corpus_seed``.
    """

    classes: int
    dim: int
    train: int
    heldout: int
    test: int
    tokens: int = 58
    vocab: int = 60
    topic_share: float = 0.85
    class_alpha: float = 0.8
    background_alpha: float = 1.1
    min_per_class: int = 2
    corpus_seed: int = 0x1C7C

    def key(self) -> str:
        return (f"sparse-C{self.classes}-d{self.dim}-n{self.train}-{self.heldout}"
                f"-{self.test}-k{self.tokens}-v{self.vocab}-t{self.topic_share:g}"
                f"-a{self.class_alpha:g}-b{self.background_alpha:g}"
                f"-m{self.min_per_class}-c{self.corpus_seed}")


# make_synthetic problem at the shape of the project's baseline measurements
DENSE = DenseShape(classes=500, dim=300, train=5_000, heldout=1_000, test=1_000)
# LSHTC-like sparse text problem
SPARSE = SparseShape(classes=1_000, dim=20_000, train=20_000, heldout=2_000,
                     test=4_000)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: DenseShape | SparseShape
    algo: str
    backend: str
    batch: int
    steps: int
    lam: float
    eta0: float = 0.1
    eta_step: float = 0.02
    train_seed: int = 0
    truncation: bool = True
    threads: int = 1
    audit_queries: int = 100
    audit_epsilon: float = 0.1


WORKLOADS = {
    w.name: w for w in (
        Workload("dense-exact-l2", DENSE, "l2", "exact", batch=2236, steps=2,
                 lam=1.0),
        Workload("sparse-lsh-l1", SPARSE, "l1", "simplelsh", batch=500, steps=2,
                 lam=1e-6),
        Workload("dense-swgraph-l2", DENSE, "l2", "swgraph", batch=500, steps=2,
                 lam=1.0, threads=2),
    )
}

# toy sizes for --smoke: every code path, a few seconds in all
_SMOKE_SHAPES = {
    "dense": DenseShape(classes=12, dim=16, train=300, heldout=60, test=80),
    "sparse": SparseShape(classes=15, dim=400, train=300, heldout=60, test=80,
                          tokens=12, vocab=10),
}
SMOKE_WORKLOADS = {
    name: replace(w, batch=40, audit_queries=20,
                  shape=_SMOKE_SHAPES["dense" if isinstance(w.shape, DenseShape)
                                      else "sparse"])
    for name, w in WORKLOADS.items()
}


def split_files(cache_dir: str, shape, seed: int) -> dict[str, str]:
    """Where the train/heldout/test files of (shape, seed) are cached."""
    folder = os.path.join(cache_dir, f"{shape.key()}-g{GENERATOR_VERSION}-s{seed}")
    return {split: os.path.join(folder, f"{split}.txt") for split in SPLITS}
