"""Exact/approximate margins, hinge loss and empirical risk."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipsvm.dataio import Dataset
from mipsvm.margin import (MarginResult, empirical_risk, exact_margin, exact_margins_batch,
                           hinge_loss, inexact_margin, inexact_margins_batch)
from mipsvm.mips import BACKENDS, build_index, index_from_matrix
from mipsvm.sparse import SparseVector, WeightMatrix

# small graph and LSH settings, so that neither backend is an exact scan
BACKEND_PARAMS = {"exact": {}, "simplelsh": {"lsh_bits": 5, "lsh_tables": 4},
                  "swgraph": {"swg_max_neighbors": 3, "swg_ef_construction": 4,
                              "swg_ef_search": 2}}


def sv(pairs, dim):
    return SparseVector.from_pairs(pairs, dim)


def matrix_from_dense(rows):
    rows = np.asarray(rows, dtype=float)
    W = WeightMatrix(rows.shape[0], rows.shape[1])
    for c, row in enumerate(rows):
        W.add_to_row(c, 1.0, sv(dict(enumerate(row)), rows.shape[1]))
    return W


def dataset_from_dense(labels, points):
    points = np.asarray(points, dtype=float)
    examples = [(int(y), sv(dict(enumerate(p)), points.shape[1]))
                for y, p in zip(labels, points)]
    return Dataset(examples, dim=points.shape[1],
                   num_classes=int(max(labels)) + 1)


def loop_exact_margin(W, x, y):
    """Reference exact margin: one row_dot per class, best rival by a
    strict > scan, so ties go to the smallest class id."""
    best_c = -1
    best_s = -np.inf
    for c in range(W.num_classes):
        if c == y:
            continue
        s = W.row_dot(c, x)
        if s > best_s:
            best_s = s
            best_c = c
    s_true = W.row_dot(y, x)
    return MarginResult(s_true - best_s, best_c, s_true, best_s)


def loop_inexact_margin(index, W, x, y):
    """Reference inexact margin: the index's rival, then one row_dot each
    for the true and the rival class."""
    rival, _ = index.query(x, exclude=y)
    s_true = W.row_dot(y, x)
    s_rival = W.row_dot(rival, x)
    return MarginResult(s_true - s_rival, rival, s_true, s_rival)


@pytest.fixture
def three_class_matrix():
    return matrix_from_dense([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])


class TestExactMargin:
    def test_hand_example_true_class_wins(self, three_class_matrix):
        # scores for x=(1,0): 1.0, 0.0, 0.5
        r = exact_margin(three_class_matrix, sv({0: 1.0}, 2), 0)
        assert r.margin == pytest.approx(0.5)
        assert r.rival == 2
        assert (r.score_true, r.score_rival) == (1.0, 0.5)

    def test_hand_example_misclassified(self, three_class_matrix):
        r = exact_margin(three_class_matrix, sv({0: 1.0}, 2), 1)
        assert r.margin == pytest.approx(-1.0)
        assert r.rival == 0

    def test_zero_matrix_tie_break(self):
        W = WeightMatrix(4, 3)
        r = exact_margin(W, sv({0: 1.0}, 3), 0)
        assert r.margin == 0.0 and r.rival == 1
        r = exact_margin(W, sv({0: 1.0}, 3), 2)
        assert r.rival == 0

    def test_margin_identity(self, three_class_matrix):
        r = exact_margin(three_class_matrix, sv({0: 0.3, 1: 0.7}, 2), 2)
        assert r.margin == r.score_true - r.score_rival
        assert r.rival != 2

    def test_needs_two_classes(self):
        W = WeightMatrix(1, 2)
        with pytest.raises(ValueError):
            exact_margin(W, sv({0: 1.0}, 2), 0)

    def test_bad_label(self, three_class_matrix):
        with pytest.raises(IndexError):
            exact_margin(three_class_matrix, sv({0: 1.0}, 2), 3)


class TestInexactMargin:
    def test_exact_backend_is_bit_for_bit_equal(self):
        rng = np.random.default_rng(5)
        W = matrix_from_dense(rng.standard_normal((8, 6)))
        index = build_index([(c, W.materialize_row(c)) for c in range(8)],
                            "exact", dim=6)
        for _ in range(200):
            x = sv(dict(enumerate(rng.standard_normal(6))), 6)
            y = int(rng.integers(8))
            a = exact_margin(W, x, y)
            b = inexact_margin(index, W, x, y)
            assert a == b

    def test_exact_backend_equivalence_under_ties(self):
        # zero rows and duplicated rows force genuine score ties
        rng = np.random.default_rng(7)
        dense = rng.standard_normal((6, 4))
        dense[2] = dense[0]
        dense[4] = 0.0
        dense[5] = 0.0
        W = matrix_from_dense(dense)
        index = build_index([(c, W.materialize_row(c)) for c in range(6)],
                            "exact", dim=4)
        for _ in range(100):
            x = sv(dict(enumerate(rng.standard_normal(4))), 4)
            y = int(rng.integers(6))
            assert inexact_margin(index, W, x, y) == exact_margin(W, x, y)
        zero = matrix_from_dense(np.zeros((5, 3)))
        zindex = build_index([(c, zero.materialize_row(c)) for c in range(5)],
                             "exact", dim=3)
        for y in range(5):
            x = sv({0: 1.0}, 3)
            assert inexact_margin(zindex, zero, x, y) == exact_margin(zero, x, y)

    def test_dominance_over_random_backends(self):
        rng = np.random.default_rng(6)
        W = matrix_from_dense(rng.standard_normal((20, 10)))
        rows = [(c, W.materialize_row(c)) for c in range(20)]
        for kind, kwargs in [("simplelsh", {"lsh_bits": 4, "lsh_tables": 2}),
                             ("swgraph", {"swg_ef_search": 2,
                                          "swg_max_neighbors": 3})]:
            index = build_index(rows, kind, dim=10, seed=3, **kwargs)
            for _ in range(500):
                x = sv(dict(enumerate(rng.standard_normal(10))), 10)
                y = int(rng.integers(20))
                exact = exact_margin(W, x, y)
                approx = inexact_margin(index, W, x, y)
                assert approx.margin >= exact.margin - 1e-12
                assert approx.rival != y


class TestHingeLoss:
    def test_formula(self):
        assert hinge_loss(0.4, 1.0) == pytest.approx(0.6)
        assert hinge_loss(2.0, 1.0) == 0.0
        assert hinge_loss(-1.0, 2.0) == pytest.approx(1.5)

    def test_rho_validation(self):
        data = Dataset([(0, sv({0: 1.0}, 4)), (2, sv({1: -1.0}, 4))], 4, 3)
        for rho in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="rho must be positive and finite"):
                hinge_loss(0.5, rho)
            with pytest.raises(ValueError, match="rho must be positive and finite"):
                empirical_risk(WeightMatrix(3, 4), data, rho)

    def test_a_nan_margin_fails_closed(self):
        # max(0.0, nan) is 0.0: a NaN margin used to count as no loss
        with pytest.raises(ValueError, match="margin must be a number, not nan"):
            hinge_loss(math.nan, 1.0)
        assert hinge_loss(math.inf, 1.0) == 0.0
        assert hinge_loss(-math.inf, 1.0) == math.inf

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False),
           st.floats(0.01, 10, allow_nan=False), st.floats(0.01, 10, allow_nan=False))
    def test_monotonicity(self, m1, m2, r1, r2):
        lo_m, hi_m = sorted((m1, m2))
        assert hinge_loss(lo_m, r1) >= hinge_loss(hi_m, r1)
        # widening rho flattens the loss toward 1: it grows for positive
        # margins and shrinks for negative ones
        lo_r, hi_r = sorted((r1, r2))
        if lo_m > 0:
            assert hinge_loss(lo_m, lo_r) <= hinge_loss(lo_m, hi_r) + 1e-12
        if hi_m < 0:
            assert hinge_loss(hi_m, lo_r) >= hinge_loss(hi_m, hi_r) - 1e-12


class TestEmpiricalRisk:
    def test_zero_model(self):
        data = dataset_from_dense([0, 1, 2, 0], np.eye(4)[:, :3][:4].reshape(4, 3))
        W = WeightMatrix(3, 3)
        rep = empirical_risk(W, data, rho=1.0)
        assert rep.empirical_hinge == 1.0
        assert rep.zero_one == 1.0  # margin 0 counts as misclassified

    def test_separated_data(self):
        W = matrix_from_dense(2.0 * np.eye(3))
        data = dataset_from_dense([0, 1, 2], np.eye(3))
        rep = empirical_risk(W, data, rho=1.0)
        assert rep.empirical_hinge == 0.0
        assert rep.zero_one == 0.0

    def test_hand_mean(self, three_class_matrix):
        # margins for the four hand cases
        data = dataset_from_dense([0, 1, 2, 1],
                                  [[1, 0], [1, 0], [1, 0], [0, 1]])
        margins = [0.5, -1.0, -0.5, 0.5]
        expected = np.mean([max(0.0, 1 - m) for m in margins])
        rep = empirical_risk(three_class_matrix, data, rho=1.0)
        assert rep.empirical_hinge == pytest.approx(expected, rel=1e-12)
        assert rep.zero_one == 0.5

    def test_vectorized_matches_per_example(self, kernel_cases):
        rng = np.random.default_rng(9)
        W = matrix_from_dense(rng.standard_normal((6, 5)))
        data = dataset_from_dense(rng.integers(6, size=40),
                                  rng.standard_normal((40, 5)))
        for W, data in [(W, data)] + kernel_cases:
            batch = exact_margins_batch(W, data)
            loop = np.array([loop_exact_margin(W, x, y).margin for y, x in data.examples])
            np.testing.assert_allclose(batch, loop, rtol=1e-12, atol=1e-14)
            rows = [(c, W.materialize_row(c)) for c in range(W.num_classes)]
            for kind in BACKENDS:
                index = build_index(rows, kind, dim=W.dim, seed=1, lsh_bits=3,
                                    lsh_tables=2, swg_ef_search=2,
                                    swg_max_neighbors=3)
                margins, rivals = inexact_margins_batch(index, W, data)
                loop = [loop_inexact_margin(index, W, x, y) for y, x in data.examples]
                assert rivals.tolist() == [m.rival for m in loop]
                np.testing.assert_allclose(margins, [m.margin for m in loop],
                                           rtol=1e-12, atol=1e-14)

    def test_inexact_path_dominates(self):
        rng = np.random.default_rng(10)
        W = matrix_from_dense(rng.standard_normal((6, 5)))
        data = dataset_from_dense(rng.integers(6, size=30),
                                  rng.standard_normal((30, 5)))
        index = build_index([(c, W.materialize_row(c)) for c in range(6)],
                            "simplelsh", dim=5, lsh_bits=3, lsh_tables=2, seed=1)
        exact = empirical_risk(W, data, rho=1.0)
        approx = empirical_risk(W, data, rho=1.0, index=index)
        assert approx.empirical_hinge <= exact.empirical_hinge + 1e-12

    def test_empty_dataset(self):
        W = WeightMatrix(2, 2)
        with pytest.raises(ValueError, match="empty"):
            empirical_risk(W, Dataset([], 2, 2), rho=1.0)


@pytest.mark.parametrize("model", ["dense_l2", "sparse_l1"])
class TestOneExactScore:
    """Every margin is the kernel's stored-order sum: the exact backend's
    approximate margins are the exact ones, and each per-example function
    is its batch function of one example, bit for bit.  ``dense_l2`` is
    scored through the BLAS screen, ``sparse_l1`` through the CSR product."""

    def test_exact_backend_margins_are_the_exact_margins(self, model, trained_models,
                                                         assert_same_floats):
        W, data = trained_models[model]
        margins, _ = inexact_margins_batch(index_from_matrix(W, "exact"), W, data)
        assert_same_floats([margins], [exact_margins_batch(W, data)])

    def test_per_example_margins_are_batches_of_one(self, model, trained_models,
                                                    assert_same_floats):
        W, data = trained_models[model]
        data = data.subset(np.arange(200))
        exact = [exact_margin(W, x, y) for y, x in data.examples]
        assert_same_floats([np.array([m.margin for m in exact])],
                           [exact_margins_batch(W, data)])
        for kind in BACKENDS:
            index = index_from_matrix(W, kind, seed=1, **BACKEND_PARAMS[kind])
            margins, rivals = inexact_margins_batch(index, W, data)
            one = [inexact_margin(index, W, x, y) for y, x in data.examples]
            assert [m.rival for m in one] == rivals.tolist()
            assert_same_floats([np.array([m.margin for m in one])], [margins])


class TestLabelsOutOfRange:
    """A label outside [0, C) fails closed, naming the first one."""

    @pytest.fixture
    def four_classes(self):
        W = matrix_from_dense(np.arange(12.0).reshape(4, 3))
        data = dataset_from_dense([0, 5, 2, 7], np.ones((4, 3)))
        return W, data, build_index([(c, W.materialize_row(c)) for c in range(4)],
                                    "exact", dim=3)

    def test_exact_margins_batch(self, four_classes):
        W, data, _ = four_classes
        with pytest.raises(IndexError, match=r"label 5 out of range \[0, 4\)"):
            exact_margins_batch(W, data)

    def test_inexact_margins_batch(self, four_classes):
        W, data, index = four_classes
        with pytest.raises(IndexError, match=r"label 5 out of range \[0, 4\)"):
            inexact_margins_batch(index, W, data)

    def test_empirical_risk(self, four_classes):
        W, data, index = four_classes
        for by in (None, index):
            with pytest.raises(IndexError, match=r"label 5 out of range \[0, 4\)"):
                empirical_risk(W, data, rho=1.0, index=by)
