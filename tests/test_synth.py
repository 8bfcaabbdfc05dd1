"""Synthetic dataset generators."""

from pathlib import Path

import numpy as np
import pytest

from mipsvm.dataio import write_dataset
from mipsvm.synth import (make_synthetic, make_toy_dataset, toy_reference_margins,
                          train_test_split)


class TestToy:
    def test_shape_and_margin(self):
        toy = make_toy_dataset()
        assert len(toy) == 60
        assert toy.dim == 2 and toy.num_classes == 3
        assert toy_reference_margins(toy).min() >= 0.5

    def test_deterministic(self):
        a, b = make_toy_dataset(seed=7), make_toy_dataset(seed=7)
        for (y1, x1), (y2, x2) in zip(a.examples, b.examples):
            assert y1 == y2 and x1 == x2

    def test_regenerates_the_committed_toy_file(self, tmp_path):
        path = tmp_path / "toy.txt"
        write_dataset(path, make_toy_dataset())
        committed = Path(__file__).resolve().parents[1] / "data" / "toy.txt"
        assert path.read_bytes() == committed.read_bytes()


class TestSynthetic:
    def test_shapes_and_unit_norms(self):
        data = make_synthetic(10, 30, 200, seed=0)
        assert len(data) == 200
        assert data.num_classes == 10 and data.dim == 30
        norms = [x.norm() for _, x in data.examples]
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)

    def test_all_classes_present(self):
        data = make_synthetic(10, 30, 500, seed=1)
        assert set(data.labels_array().tolist()) == set(range(10))

    def test_block_equals_the_per_row_reference(self):
        """The block holds each point's nonzeros as np.flatnonzero finds
        them, drawn as make_synthetic draws them."""
        num_classes, dim, n, noise, seed = 7, 12, 90, 0.4, 3
        rng = np.random.default_rng(seed)
        centers = rng.standard_normal((num_classes, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        labels = rng.integers(num_classes, size=n)
        noise_dirs = rng.standard_normal((n, dim)) / np.sqrt(dim)
        points = centers[labels] + noise * noise_dirs
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        nonzero = [np.flatnonzero(p) for p in points]
        data = make_synthetic(num_classes, dim, n, noise=noise, seed=seed)
        X = data.to_csr()
        assert data.labels_array().tolist() == labels.tolist()
        assert X.indptr.tolist() == np.cumsum([0] + [i.size for i in nonzero]).tolist()
        assert X.indices.tolist() == np.concatenate(nonzero).tolist()
        assert X.data.tolist() == np.concatenate(
            [p[i] for p, i in zip(points, nonzero)]).tolist()


class TestSplit:
    def test_partition(self):
        data = make_synthetic(5, 10, 100, seed=2)
        train, test = train_test_split(data, 0.25, seed=3)
        assert len(train) == 75 and len(test) == 25
        assert train.num_classes == test.num_classes == 5

    def test_bad_fraction(self):
        data = make_synthetic(5, 10, 100, seed=2)
        with pytest.raises(ValueError):
            train_test_split(data, 0.0)
