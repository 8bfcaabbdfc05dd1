"""Seeded input generators for the benchmark workloads, with an on-disk cache.

The program under test only ever sees the LIBSVM-style files written here.
Each workload has one fixed corpus and one fixed training split, so every
run trains the same model on the same work; the workload seed draws the
heldout and test splits (and through them the audit sample).  Drawing the
training split per seed made a 2-step model's accuracy and macro-F1 move by
10-25 % between seeds, which is the sample, not the program.

Files are cached under a key made of the generator name, its shape and the
seed, so a run that finds its inputs on disk pays only for parsing them.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from workloads import (SMOKE_WORKLOADS, SPLITS, WORKLOADS, DenseShape,
                       SparseShape, split_files)


def _write_split(path: str, labels: np.ndarray, indptr: np.ndarray,
                 indices: np.ndarray, values: np.ndarray) -> None:
    """LIBSVM lines with 1-based feature indices, written atomically."""
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        for i, y in enumerate(labels.tolist()):
            lo, hi = indptr[i], indptr[i + 1]
            feats = " ".join(f"{j + 1}:{v!r}" for j, v in
                             zip(indices[lo:hi].tolist(), values[lo:hi].tolist()))
            fh.write(f"{y} {feats}\n")
    os.replace(tmp, path)


def _as_arrays(part):
    labels = np.array([y for y, _ in part], dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum([x.nnz for _, x in part])])
    indices = np.concatenate([x.indices for _, x in part])
    values = np.concatenate([x.values for _, x in part])
    return labels, indptr, indices, values


def _dense_splits(shape: DenseShape, seed: int):
    """Splits of one fixed ``make_synthetic`` corpus.

    The training split is fixed too; the seed picks heldout and test from
    the rest of the corpus.
    """
    from mipsvm.synth import make_synthetic

    served = shape.heldout + shape.test
    corpus = make_synthetic(shape.classes, shape.dim,
                            shape.pool * (shape.train + served),
                            noise=shape.noise, seed=shape.corpus_seed)
    order = np.random.default_rng(shape.corpus_seed).permutation(len(corpus))
    picks = np.random.default_rng([seed, 0xDE45]).choice(
        order[shape.train:], size=served, replace=False)
    for ids in (order[:shape.train], picks[:shape.heldout],
                picks[shape.heldout:]):
        yield _as_arrays([corpus.examples[i] for i in ids])


def _sparse_labels(shape: SparseShape, rng: np.random.Generator, n: int,
                   prior: np.ndarray, floor: int) -> np.ndarray:
    """``floor`` examples of every class, the rest drawn from ``prior``."""
    fixed = np.repeat(np.arange(shape.classes), floor)
    rest = rng.choice(shape.classes, size=n - fixed.size, p=prior)
    return rng.permutation(np.concatenate([fixed, rest]))


def _sparse_examples(shape: SparseShape, rng: np.random.Generator,
                     labels: np.ndarray, vocab: np.ndarray,
                     background: np.ndarray, bg_pmf: np.ndarray):
    n = labels.size
    lengths = np.maximum(rng.poisson(shape.tokens, size=n), 5)
    owner = np.repeat(np.arange(n), lengths)
    topical = rng.random(owner.size) < shape.topic_share
    feats = np.empty(owner.size, dtype=np.int64)
    k = int(topical.sum())
    # topical tokens prefer the head of the class vocabulary
    ranks = np.minimum(rng.geometric(4.0 / shape.vocab, size=k) - 1,
                       shape.vocab - 1)
    feats[topical] = vocab[labels[owner[topical]], ranks]
    feats[~topical] = background[rng.choice(shape.dim, size=owner.size - k,
                                            p=bg_pmf)]
    keys, counts = np.unique(owner * shape.dim + feats, return_counts=True)
    rows, cols = np.divmod(keys, shape.dim)
    vals = 1.0 + np.log(counts)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    norms = np.sqrt(np.add.reduceat(vals * vals, indptr[:-1]))
    vals = vals / norms[rows]
    return labels, indptr, cols, vals


def _sparse_splits(shape: SparseShape, seed: int):
    """Splits of one fixed corpus: class priors, vocabularies, background
    order and the training split come from ``corpus_seed``; the seed draws
    heldout and test."""
    corpus = np.random.default_rng(shape.corpus_seed)
    prior = (np.arange(1, shape.classes + 1) ** -shape.class_alpha)
    prior = corpus.permutation(prior / prior.sum())
    vocab = np.stack([corpus.choice(shape.dim, size=shape.vocab, replace=False)
                      for _ in range(shape.classes)])
    background = corpus.permutation(shape.dim)
    bg_pmf = np.arange(1, shape.dim + 1) ** -shape.background_alpha
    bg_pmf /= bg_pmf.sum()
    served = np.random.default_rng([seed, 0x5A11])
    for split in SPLITS:
        rng = corpus if split == "train" else served
        floor = shape.min_per_class if split == "train" else 0
        labels = _sparse_labels(shape, rng, getattr(shape, split), prior, floor)
        yield _sparse_examples(shape, rng, labels, vocab, background, bg_pmf)


def dataset_files(cache_dir: str, shape, seed: int) -> dict[str, str]:
    """Paths of the train/heldout/test files for (shape, seed), generating once."""
    paths = split_files(cache_dir, shape, seed)
    if all(os.path.exists(p) for p in paths.values()):
        return paths
    os.makedirs(os.path.dirname(paths["train"]), exist_ok=True)
    splits = (_dense_splits(shape, seed) if isinstance(shape, DenseShape)
              else _sparse_splits(shape, seed))
    for split, arrays in zip(SPLITS, splits):
        _write_split(paths[split], *arrays)
    return paths


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="write a workload's input files")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cache", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    w = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    dataset_files(args.cache, w.shape, args.seed)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    sys.exit(main())
