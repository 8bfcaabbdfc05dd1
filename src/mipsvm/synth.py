"""Synthetic datasets for tests, demos and the bench command."""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from .dataio import Dataset


def make_toy_dataset(points_per_class: int = 20, seed: int = 7) -> Dataset:
    """Three linearly separable classes on the plane.

    Points sit on arcs around three unit centers 120 degrees apart, with
    radius in [0.7, 1.3] and at most 0.15 rad of angular spread, which keeps
    the multi-class margin under the stacked-centers reference weights
    above 0.5 for every point.
    """
    rng = np.random.default_rng(seed)
    angles = np.array([np.pi / 2, np.pi / 2 + 2 * np.pi / 3,
                       np.pi / 2 + 4 * np.pi / 3])
    points = []
    for base in angles:
        theta = base + rng.uniform(-0.15, 0.15, size=points_per_class)
        radius = rng.uniform(0.7, 1.3, size=points_per_class)
        points.append(np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1))
    order = rng.permutation(3 * points_per_class)
    labels = np.repeat(np.arange(3), points_per_class)[order]
    return Dataset.from_csr(labels, sp.csr_matrix(np.concatenate(points)[order]), 3,
                            {str(c): c for c in range(3)})


def toy_reference_margins(data: Dataset) -> np.ndarray:
    """Margins of the toy set under the stacked-centers reference classifier."""
    angles = np.array([np.pi / 2, np.pi / 2 + 2 * np.pi / 3,
                       np.pi / 2 + 4 * np.pi / 3])
    centers = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    margins = []
    for y, x in data.examples:
        scores = centers @ x.to_dense()
        rival = max(s for c, s in enumerate(scores) if c != y)
        margins.append(scores[y] - rival)
    return np.array(margins)


def make_synthetic(num_classes: int = 50, dim: int = 100, n: int = 5000, *,
                   noise: float = 0.4, seed: int = 0) -> Dataset:
    """Unit-norm class centers plus Gaussian noise, renormalized.

    A learnable but not trivially separable multi-class problem: with the
    default noise a linear model lands in the high-80s of accuracy.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = rng.integers(num_classes, size=n)
    noise_dirs = rng.standard_normal((n, dim)) / np.sqrt(dim)
    points = centers[labels] + noise * noise_dirs
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    label_map = {str(c): c for c in range(num_classes)}
    return Dataset.from_csr(labels, sp.csr_matrix(points), num_classes, label_map)


def train_test_split(data: Dataset, test_fraction: float = 0.2,
                     seed: int = 0) -> tuple[Dataset, Dataset]:
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(data))
    n_test = int(round(len(data) * test_fraction))
    if n_test < 1 or n_test >= len(data):
        raise ValueError("test fraction leaves an empty split")
    return data.subset(order[n_test:]), data.subset(order[:n_test])
