"""Sparse vector arithmetic and lazy-scaled weight matrix.

The randomized checks compare against a dense numpy mirror that applies the
same logical operations literally, with no scale trick.
"""

import re
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import sparse as sp
from hypothesis import strategies as st

from mipsvm import sparse
from mipsvm.dataio import Dataset
from mipsvm.margin import exact_margins_batch
from mipsvm.metrics import evaluate, predict_batch
from mipsvm.sparse import (ScoringState, SparseVector, WeightMatrix, dot, score_block,
                           score_pairs)


def sv(pairs, dim):
    return SparseVector.from_pairs(pairs, dim)


def random_sparse(rng, dim, max_nnz=6):
    nnz = rng.integers(0, max_nnz + 1)
    idx = np.sort(rng.choice(dim, size=nnz, replace=False))
    val = rng.standard_normal(nnz)
    return SparseVector(idx, val, dim)


class DenseMirror:
    """Plain dense reference for WeightMatrix: no lazy scale, no caches."""

    def __init__(self, num_classes, dim):
        self.M = np.zeros((num_classes, dim))

    def add_to_row(self, c, coeff, x):
        self.M[c] += coeff * x.to_dense()

    def global_scale(self, alpha):
        self.M *= alpha

    def project_to_ball(self, lam):
        fro = np.linalg.norm(self.M)
        if lam == 0.0 or fro == 0.0:
            return 1.0
        phi = min(1.0, 1.0 / (np.sqrt(lam) * fro))
        self.M *= phi
        return phi

    def truncate_row(self, c, tau):
        row = self.M[c]
        self.M[c] = np.sign(row) * np.maximum(np.abs(row) - tau, 0.0)


def assert_matches_mirror(W, mirror, rtol=1e-9):
    for c in range(W.num_classes):
        got = W.materialize_row(c).to_dense()
        np.testing.assert_allclose(got, mirror.M[c], rtol=rtol, atol=1e-12)


class TestSparseVector:
    def test_from_pairs_sorts_and_drops_zeros(self):
        v = sv({3: 1.0, 0: 2.0, 5: 0.0}, 6)
        assert v.indices.tolist() == [0, 3]
        assert v.values.tolist() == [2.0, 1.0]
        assert v.nnz == 2

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseVector.from_pairs([(1, 2.0), (1, 3.0)], 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseVector([2, 1], [1.0, 1.0], 4)  # not increasing
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseVector([1, -2**63], [1.0, 1.0], 4)  # their difference wraps to > 0
        with pytest.raises(ValueError):
            SparseVector([0, 4], [1.0, 1.0], 4)  # out of range
        with pytest.raises(ValueError):
            SparseVector([-1], [1.0], 4)
        with pytest.raises(ValueError):
            SparseVector([0], [1.0, 2.0], 4)  # length mismatch

    def test_indices_must_be_whole_numbers(self):
        # a fractional index used to be truncated: [0.5, 2.7] stored [0, 2]
        with pytest.raises(ValueError, match=r"^feature index 0\.5 is not a whole number$"):
            SparseVector([0.5, 2.7], [1.0, 2.0], 4)
        assert SparseVector([0.0, 2.0], [1.0, 2.0], 4).indices.tolist() == [0, 2]

    def test_dense_roundtrip(self):
        v = sv({0: 1.5, 7: -2.0}, 9)
        dense = v.to_dense()
        assert dense[0] == 1.5 and dense[7] == -2.0 and dense.sum() == -0.5


class TestIds:
    @pytest.mark.parametrize("ids, first", [([1.7], "1.7"), ([2.0, 0.5], "0.5"),
                                            ([np.nan], "nan"), ([1.0, -np.inf], "-inf"),
                                            (np.array([True, False]), "True")])
    def test_an_id_that_is_not_a_whole_number_fails_closed(self, ids, first):
        """A fractional or non-finite id, or a boolean mask, used to be
        truncated to int64 ids: [1.7] named class 1, a mask rows 1 and 0.
        The value is printed as a plain number."""
        with pytest.raises(ValueError, match=rf"^class id {first} is not a whole number$"):
            sparse.check_ids(ids, 5, "class id")

    def test_a_position_that_is_not_a_whole_number_fails_closed(self):
        # [0.4, 1.6] used to be the new rows 0 and 1 of an empty store
        with pytest.raises(ValueError, match=r"^class id 0\.4 is not a whole number$"):
            sparse.check_positions([0.4, 1.6], 0)
        assert sparse.check_positions([0.0, 1.0], 0).tolist() == [0, 1]

    def test_whole_floats_are_ids(self):
        ids = sparse.check_ids(np.array([1.0, 4.0]), 5, "class id")
        assert ids.dtype == np.int64 and ids.tolist() == [1, 4]
        assert sparse.check_ids([], 5, "class id").dtype == np.int64

    @pytest.mark.parametrize("value, named", [(1e20, "1e+20"), (-1e20, "-1e+20"),
                                              (2.0 ** 63, "9.223372036854776e+18")])
    def test_a_float_beyond_int64_is_named_as_given(self, value, named):
        """Such an id used to be cast to -2^63, with numpy's RuntimeWarning,
        and named as class id -9223372036854775808."""
        with pytest.raises(ValueError, match=rf"^class id {re.escape(named)} is outside "
                                             r"int64's range$"):
            sparse.check_ids([0.0, value], 5, "class id")
        assert sparse.whole_ids([-2.0 ** 63], "class id").tolist() == [-2 ** 63]


class TestDot:
    def test_disjoint_supports(self):
        assert dot(sv({0: 1.0}, 2), sv({1: 1.0}, 2)) == 0.0

    def test_hand_sum(self):
        # 2*0.5 + 1*4
        a = sv({0: 2.0, 3: 1.0}, 4)
        b = sv({0: 0.5, 3: 4.0}, 4)
        assert dot(a, b) == 5.0

    def test_empty(self):
        assert dot(sv({}, 1), sv({0: 7.0}, 1)) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            dot(sv({0: 1.0}, 2), sv({0: 1.0}, 3))

    def test_matches_dense_and_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = random_sparse(rng, 20)
            b = random_sparse(rng, 20)
            expected = float(a.to_dense() @ b.to_dense())
            assert dot(a, b) == pytest.approx(expected, rel=1e-12, abs=1e-15)
            assert dot(a, b) == dot(b, a)


class TestWeightMatrixBasics:
    def test_zero_coeff_is_noop(self):
        W = WeightMatrix(2, 3)
        W.add_to_row(0, 1.0, sv({0: 1.0}, 3))
        before = W.materialize_row(0)
        W.add_to_row(0, 0.0, sv({1: 5.0}, 3))
        assert W.materialize_row(0) == before

    def test_lazy_scale_identity(self):
        # scale 0.5, stored {0:2.0} is logical {0:1.0};
        # adding x={0:1.0} must store {0:4.0} (logical {0:2.0})
        W = WeightMatrix(1, 1)
        W.add_to_row(0, 2.0, sv({0: 1.0}, 1))
        W.global_scale(0.5)
        W.add_to_row(0, 1.0, sv({0: 1.0}, 1))
        assert W.stored_rows([0]).data[0] == 4.0
        assert W.materialize_row(0) == sv({0: 2.0}, 1)

    def test_nnz_counts_only_nonzeros(self):
        W = WeightMatrix(2, 3)
        x = sv({0: 1.0, 2: -2.0}, 3)
        W.add_to_row(0, 1.0, x)
        W.add_to_row(0, -1.0, x)
        assert W.nnz() == 0
        assert W.materialize_row(0) == sv({}, 3)

    def test_batched_write_checks(self):
        W = WeightMatrix(2, 3)
        with pytest.raises(ValueError, match="shape"):
            W.add(sp.csr_matrix((2, 4)))
        with pytest.raises(IndexError, match=r"class id 2 out of range \[0, 2\)"):
            W.truncate_rows([0, 2], 0.1)
        with pytest.raises(IndexError, match="class id -1 out of range"):
            W.truncate_rows([1, -1, 5], 0.1)  # the first bad id is named
        with pytest.raises(ValueError):
            W.truncate_rows([0], -0.1)
        with pytest.raises(IndexError, match="class id 3 out of range"):
            W.stored_rows([1, 3])

    @pytest.mark.parametrize("column", [7, -1])
    def test_a_block_with_a_feature_index_outside_the_width_fails_closed(self, column):
        """scipy's CSR constructor does not bounds-check indices, and its
        kernels read and write through them: each entry point names the row
        before any kernel sees it, and W stays as it was."""
        W = WeightMatrix.from_csr(sp.csr_matrix(np.arange(6.0).reshape(2, 3)))
        before = W.to_csr().toarray()
        bad = sp.csr_matrix(([1.0, 2.0], [0, column], [0, 1, 2]), shape=(2, 3))
        message = rf"row 1 holds the feature index {column}, outside \[0, 3\)"
        with pytest.raises(ValueError, match=message):
            WeightMatrix.from_csr(bad)
        with pytest.raises(ValueError, match=message):
            W.add(bad)
        with pytest.raises(ValueError, match=message):
            W.score(bad)
        with pytest.raises(ValueError, match=message):
            W.score_pairs(bad, [0, 1])
        np.testing.assert_array_equal(W.to_csr().toarray(), before)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_value_is_never_stored(self, value):
        W = WeightMatrix.from_csr(sp.csr_matrix(np.arange(6.0).reshape(2, 3)))
        bad = sp.csr_matrix(([1.0, value], [0, 2], [0, 1, 2]), shape=(2, 3))
        message = rf"row 1 holds the non-finite feature value {value!r}"
        with pytest.raises(ValueError, match=message):
            WeightMatrix.from_csr(bad)
        with pytest.raises(ValueError, match=message):
            W.add(bad)
        assert W.frob_norm() == np.sqrt(55.0)

    def test_a_sum_that_overflows_is_never_stored(self):
        """Two finite deltas whose sum overflows: the one writer refuses the
        second, names the class it would have made infinite, and W keeps
        the first (whose squared norm already overflows)."""
        W = WeightMatrix(3, 2)
        delta = sp.csr_matrix(([1.5e308, 1.0], [1, 0], [0, 0, 1, 2]), shape=(3, 2))
        with np.errstate(over="ignore"):
            W.add(delta)
            before, norms = W.to_csr().toarray(), W.row_sq_norms
            with pytest.raises(ValueError,
                               match="row 1 holds the non-finite feature value inf"):
                W.add(delta)
        np.testing.assert_array_equal(W.to_csr().toarray(), before)
        np.testing.assert_array_equal(W.row_sq_norms, norms)
        assert np.isfinite(W.to_csr().data).all()

    def test_class_out_of_range(self):
        W = WeightMatrix(2, 3)
        with pytest.raises(IndexError):
            W.add_to_row(2, 1.0, sv({0: 1.0}, 3))
        with pytest.raises(IndexError):
            W.materialize_row(-1)

    def test_dim_mismatch(self):
        W = WeightMatrix(2, 3)
        with pytest.raises(ValueError):
            W.add_to_row(0, 1.0, sv({0: 1.0}, 4))

    def test_global_scale_identity_and_powers(self):
        W = WeightMatrix(1, 2)
        W.add_to_row(0, 1.0, sv({1: 3.0}, 2))
        stored = W.stored_rows([0]).data
        W.global_scale(1.0)
        assert W.scale == 1.0
        for _ in range(3):
            W.global_scale(0.9)
        assert W.scale == pytest.approx(0.729, rel=1e-15)
        np.testing.assert_array_equal(W.stored_rows([0]).data, stored)

    def test_global_scale_rejects_nonpositive(self):
        W = WeightMatrix(1, 1)
        with pytest.raises(ValueError):
            W.global_scale(0.0)
        with pytest.raises(ValueError):
            W.global_scale(-0.5)

    def test_scale_fold_preserves_logical_values(self):
        W = WeightMatrix(1, 2)
        W.add_to_row(0, 1.0, sv({0: 2.0, 1: -1.0}, 2))
        for _ in range(2000):
            W.global_scale(0.99)
        expected = 0.99 ** 2000
        assert W.fold_count >= 1
        got = W.materialize_row(0)
        np.testing.assert_allclose(got.values, [2.0 * expected, -1.0 * expected],
                                   rtol=1e-9)

    def test_materialize_row(self):
        W = WeightMatrix(1, 3)
        W.add_to_row(0, 3.0, sv({1: 1.0}, 3))
        W.global_scale(2.0)
        assert W.materialize_row(0) == sv({1: 6.0}, 3)
        W2 = WeightMatrix(1, 3)
        assert W2.materialize_row(0) == sv({}, 3)

    def test_materialize_consistent_with_row_dot(self):
        rng = np.random.default_rng(1)
        W = WeightMatrix(4, 10)
        for _ in range(30):
            W.add_to_row(rng.integers(4), rng.standard_normal(),
                         random_sparse(rng, 10))
            if rng.random() < 0.3:
                W.global_scale(rng.uniform(0.5, 1.5))
        for _ in range(50):
            c = int(rng.integers(4))
            x = random_sparse(rng, 10)
            assert dot(W.materialize_row(c), x) == pytest.approx(
                W.row_dot(c, x), rel=1e-12, abs=1e-300)


class TestProjection:
    def test_formula(self):
        W = WeightMatrix(1, 1)
        W.add_to_row(0, 3.0, sv({0: 1.0}, 1))  # frobenius norm 3
        phi = W.project_to_ball(1.0)
        assert phi == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert W.frob_norm() == pytest.approx(1.0, rel=1e-12)

    def test_no_shrink_inside_ball(self):
        W = WeightMatrix(1, 1)
        W.add_to_row(0, 3.0, sv({0: 1.0}, 1))
        assert W.project_to_ball(0.01) == 1.0  # 1/(0.1*3) > 1
        assert W.frob_norm() == pytest.approx(3.0)

    def test_zero_matrix(self):
        W = WeightMatrix(3, 4)
        assert W.project_to_ball(1.0) == 1.0
        assert W.nnz() == 0


class TestTruncateRow:
    def test_soft_threshold_values(self):
        W = WeightMatrix(1, 4)
        W.add_to_row(0, 1.0, sv({0: 0.5, 1: -0.05, 2: 0.08, 3: -0.3}, 4))
        W.truncate_row(0, 0.1)
        got = W.materialize_row(0)
        assert got.indices.tolist() == [0, 3]
        np.testing.assert_allclose(got.values, [0.4, -0.2], rtol=1e-15)

    def test_zero_threshold_is_identity(self):
        W = WeightMatrix(1, 3)
        W.add_to_row(0, 1.0, sv({0: 1.0, 2: -2.0}, 3))
        before = W.materialize_row(0)
        W.truncate_row(0, 0.0)
        assert W.materialize_row(0) == before

    def test_respects_scale(self):
        W = WeightMatrix(1, 2)
        W.add_to_row(0, 1.0, sv({0: 1.0, 1: 0.05}, 2))
        W.global_scale(2.0)  # logical row (2.0, 0.1)
        W.truncate_row(0, 0.5)
        got = W.materialize_row(0)
        np.testing.assert_allclose(got.to_dense(), [1.5, 0.0], rtol=1e-12)


def random_op_sequence(seed, num_classes=5, dim=12, n_ops=1000):
    rng = np.random.default_rng(seed)
    W = WeightMatrix(num_classes, dim)
    mirror = DenseMirror(num_classes, dim)
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.55:
            c = int(rng.integers(num_classes))
            coeff = float(rng.standard_normal())
            x = random_sparse(rng, dim)
            W.add_to_row(c, coeff, x)
            mirror.add_to_row(c, coeff, x)
        elif r < 0.8:
            alpha = float(rng.uniform(0.2, 1.8))
            W.global_scale(alpha)
            mirror.global_scale(alpha)
        elif r < 0.95:
            lam = float(rng.uniform(0.1, 4.0))
            assert W.project_to_ball(lam) == pytest.approx(
                mirror.project_to_ball(lam), rel=1e-9)
        else:
            c = int(rng.integers(num_classes))
            tau = float(rng.uniform(0.0, 0.3))
            W.truncate_row(c, tau)
            mirror.truncate_row(c, tau)
    return W, mirror


class TestLazyScaleTransparency:
    def test_dense_mirror_1000_ops(self):
        W, mirror = random_op_sequence(seed=42)
        assert_matches_mirror(W, mirror)

    def test_cache_coherence(self):
        W, _ = random_op_sequence(seed=7, n_ops=400)
        recomputed = np.array([float(np.dot(v, v)) for v in
                               (W.stored_rows([c]).data for c in range(W.num_classes))])
        np.testing.assert_allclose(W.row_sq_norms, recomputed,
                                   rtol=1e-9, atol=1e-15)
        assert W.frob_sq == pytest.approx(float(recomputed.sum()),
                                          rel=1e-9, abs=1e-15)

    def test_nnz_bounded_by_touched_pairs(self):
        rng = np.random.default_rng(3)
        W = WeightMatrix(4, 20)
        touched = set()
        for _ in range(200):
            c = int(rng.integers(4))
            x = random_sparse(rng, 20)
            W.add_to_row(c, float(rng.standard_normal()), x)
            touched.update((c, int(i)) for i in x.indices)
        assert W.nnz() <= len(touched)


def random_batched_sequence(seed, num_classes=6, dim=10, n_ops=300, after_op=None):
    """Multi-row deltas and truncations mixed with scaling, folds and
    projection; ``after_op(W, mirror)``, if given, is called after each op."""
    rng = np.random.default_rng(seed)
    W = WeightMatrix(num_classes, dim)
    mirror = DenseMirror(num_classes, dim)
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.4:
            # duplicate coordinates are summed; a delta may cancel a row
            n = int(rng.integers(0, 12))
            delta = sp.coo_matrix((rng.standard_normal(n),
                                   (rng.integers(num_classes, size=n),
                                    rng.integers(dim, size=n))),
                                  shape=(num_classes, dim))
            if rng.random() < 0.2:
                delta = -W.to_csr()
            W.add(delta)
            mirror.M += delta.toarray()
        elif r < 0.6:
            alpha = float(rng.uniform(0.2, 1.8))
            W.global_scale(alpha)
            mirror.global_scale(alpha)
        elif r < 0.7:
            # far enough from 1 that the scale leaves the fold range
            alpha = float(10.0 ** rng.choice([-5.0, 5.0]))
            W.global_scale(alpha)
            mirror.global_scale(alpha)
        elif r < 0.85:
            lam = float(rng.uniform(0.1, 4.0))
            assert W.project_to_ball(lam) == pytest.approx(
                mirror.project_to_ball(lam), rel=1e-9)
        else:
            rows = rng.choice(num_classes, size=int(rng.integers(0, num_classes + 1)),
                              replace=False)
            tau = float(rng.uniform(0.0, 0.3))
            W.truncate_rows(np.sort(rows), tau)
            for c in rows:
                mirror.truncate_row(c, tau)
        if after_op is not None:
            after_op(W, mirror)
    return W, mirror


class TestBatchedWrites:
    def test_matches_dense_mirror(self):
        W, mirror = random_batched_sequence(seed=2024)
        assert W.fold_count >= 1
        assert_matches_mirror(W, mirror)

    def test_truncation_drops_zeroed_entries(self):
        W = WeightMatrix(3, 4)
        W.add(sp.csr_matrix([[0.5, -0.05, 0.0, 0.0],
                             [0.08, 0.0, 0.0, -0.3],
                             [0.05, 0.0, 0.0, 0.0]]))
        W.truncate_rows([0, 1], 0.1)
        assert W.nnz() == 3
        np.testing.assert_allclose(W.to_csr().toarray(),
                                   [[0.4, 0.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0, -0.2],
                                    [0.05, 0.0, 0.0, 0.0]], rtol=1e-15)

    def test_cached_scoring_state_follows_every_op(self, assert_same_floats):
        """W.score keeps one scoring state, and every write and scale change
        drops it: after each op of the seeded sequence, and after an
        add_to_row following every third op, scores through it are a fresh
        state's, bit for bit, for a screened dense block and a sparse one
        scored by the CSR product."""
        rng = np.random.default_rng(77)
        C, d, n = 6, 10, 40
        blocks = [sp.csr_matrix(rng.standard_normal((n, d))),
                  sp.random(n, d, density=0.2, format="csr", random_state=rng)]
        exclude, at = rng.integers(-1, C, size=n), rng.integers(C, size=n)
        screened, ops = [], [0]

        def check(W):
            for X in blocks:
                want = score_block(X, ScoringState(W.to_csr()), exclude=exclude, at=at)
                assert_same_floats(W.score(X, exclude=exclude, at=at), want)
            screened.append(vars(W)["_scoring_state"].dense)

        def after_op(W, mirror):
            check(W)
            ops[0] += 1
            if ops[0] % 3 == 0:
                x, c, coeff = random_sparse(rng, d), int(rng.integers(C)), rng.uniform(-1, 1)
                W.add_to_row(c, coeff, x)
                mirror.add_to_row(c, coeff, x)
                check(W)

        W, mirror = random_batched_sequence(seed=2024, after_op=after_op)
        assert W.fold_count >= 1 and any(screened) and not all(screened)
        assert_matches_mirror(W, mirror)

    def test_store_stays_canonical_and_caches_exact(self):
        W, _ = random_batched_sequence(seed=5)
        M = W.to_csr()
        assert M.has_canonical_format and not (M.data == 0.0).any()
        assert W.nnz() == M.nnz
        recomputed = np.array([float(np.dot(v, v)) for v in
                               (W.stored_rows([c]).data for c in range(W.num_classes))])
        np.testing.assert_allclose(W.row_sq_norms, recomputed, rtol=1e-12, atol=0)
        assert W.frob_sq == pytest.approx(float(recomputed.sum()), rel=1e-12)


class WholeStoreWriter:
    """A whole-store writer, the byte oracle of WeightMatrix's row splice:
    every write sums the scaled delta into the whole store, then
    re-canonicalises it and recomputes every row's squared norm and their
    sum."""

    def __init__(self, num_classes, dim):
        self.scale = 1.0
        self.write(sp.csr_matrix((num_classes, dim)))

    def write(self, stored):
        stored.sum_duplicates()
        stored.eliminate_zeros()
        self.store = stored
        self.row_sq = sparse.row_sums(stored.data ** 2, stored.indptr)
        self.frob_sq = float(self.row_sq.sum())

    def add(self, delta):
        if delta.nnz:
            self.write(self.store + delta * (1.0 / self.scale))

    def global_scale(self, alpha):
        self.scale *= alpha
        if not sparse.SCALE_FOLD_LOW <= self.scale <= sparse.SCALE_FOLD_HIGH:
            self.write(self.store * self.scale)
            self.scale = 1.0

    def truncate_rows(self, rows, tau):
        if tau == 0.0 or len(rows) == 0:
            return
        chosen = np.zeros(self.store.shape[0], dtype=bool)
        chosen[rows] = True
        at = np.repeat(chosen, np.diff(self.store.indptr))
        stored = self.store.copy()
        logical = self.scale * stored.data[at]
        shrunk = np.sign(logical) * np.maximum(np.abs(logical) - tau, 0.0)
        stored.data[at] = shrunk / self.scale
        self.write(stored)


def unsorted_csr(data, rows, cols, shape):
    """The COO entries as a CSR that keeps their duplicates and their order
    within a row: not canonical, so scipy's sum takes its general path."""
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
    return sp.csr_matrix((data[order], cols[order], indptr), shape=shape)


def assert_same_store(W, ref):
    """Byte equality of the stores' arrays (indices compared as int64: their
    dtype is scipy's choice), the cached row norms and their sum."""
    S, R = W._store, ref.store
    assert W.scale == ref.scale
    for got, want in ((S.indptr, R.indptr), (S.indices, R.indices)):
        assert got.astype(np.int64).tobytes() == want.astype(np.int64).tobytes()
    assert S.data.tobytes() == R.data.tobytes()
    assert W.row_sq_norms.tobytes() == ref.row_sq.tobytes()
    assert np.float64(W.frob_sq).tobytes() == np.float64(ref.frob_sq).tobytes()


class TestRowSplice:
    """WeightMatrix._write replaces only the rows it names: the store, the
    cached norms and their sum stay byte-equal to a whole-store rewrite."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_byte_equal_to_the_whole_store_writer(self, seed):
        rng = np.random.default_rng(seed)
        C, d = 9, 14
        W, ref = WeightMatrix(C, d), WholeStoreWriter(C, d)
        kinds = dict.fromkeys(("coo", "csr", "cancel", "fold", "truncate", "project"), 0)
        for _ in range(400):
            r = rng.random()
            if r < 0.4:
                # few coordinates, so duplicates are common
                n = int(rng.integers(1, 16))
                rows, cols = rng.integers(C, size=n), rng.integers(4, size=n) * 3
                data = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, size=n)
                kind = "coo" if rng.random() < 0.7 else "csr"
                if kind == "coo":
                    delta = sp.coo_matrix((data, (rows, cols)), shape=(C, d))
                else:
                    delta = unsorted_csr(data, rows, cols, (C, d))
                kinds[kind] += (n > np.unique(rows * d + cols).size)
                W.add(delta)
                ref.add(delta)
            elif r < 0.5:
                # empty a row, then add a delta and its negation: the row cancels
                c = int(rng.integers(C))
                for M in (W, ref):
                    M.truncate_rows([c], 1e300)
                assert_same_store(W, ref)
                delta = sp.coo_matrix((rng.standard_normal(3), ([c] * 3, [1, 1, 5])),
                                      shape=(C, d))
                for step in (delta, -delta):
                    W.add(step)
                    ref.add(step)
                    assert_same_store(W, ref)
                assert W.stored_rows([c]).nnz == 0
                kinds["cancel"] += 1
            elif r < 0.7:
                alpha = float(rng.uniform(0.2, 1.8) if rng.random() < 0.7
                              else 10.0 ** rng.choice([-5.0, 5.0]))
                folds = W.fold_count
                W.global_scale(alpha)
                ref.global_scale(alpha)
                kinds["fold"] += W.fold_count - folds
            elif r < 0.85:
                # unsorted ids with repeats
                rows = rng.integers(C, size=int(rng.integers(0, 2 * C)))
                tau = float(rng.uniform(0.0, 0.5))
                W.truncate_rows(rows, tau)
                ref.truncate_rows(rows, tau)
                kinds["truncate"] += rows.size > np.unique(rows).size
            else:
                phi = W.project_to_ball(float(rng.uniform(0.01, 4.0)))
                if phi < 1.0:
                    ref.global_scale(phi)
                    kinds["project"] += 1
            assert_same_store(W, ref)
        assert all(kinds.values()), kinds

    def test_a_one_row_write_norms_only_that_row(self, monkeypatch):
        """A one-row add and a one-row truncation hand row_sums that row's
        entries alone, and leave every other row's cached norm as it was."""
        rng = np.random.default_rng(7)
        C, d = 40, 30
        W = WeightMatrix(C, d)
        W.add(sp.random(C, d, density=0.3, random_state=3, format="csr"))
        calls, row_sums = [], sparse.row_sums

        def recorded(values, indptr):
            calls.append((values.size, indptr.size))
            return row_sums(values, indptr)

        monkeypatch.setattr(sparse, "row_sums", recorded)
        for c in (5, 17):
            before = W.row_sq_norms
            W.add_to_row(c, 0.5, random_sparse(rng, d, max_nnz=12))
            assert calls.pop() == (W.stored_rows([c]).nnz, 2)
            W.truncate_row(c, 0.05)
            assert calls.pop() == (W.stored_rows([c]).nnz, 2)
            assert not calls
            others = np.arange(C) != c
            assert W.row_sq_norms[others].tobytes() == before[others].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_splice_rows_replaces_and_inserts(self, seed):
        """splice_rows puts row i of the new rows at store position
        positions[i]: a stored row is replaced, in any order, and a new one
        appended, the new ones in order.  The other rows keep their bytes,
        and no array is shared with the inputs, except that a write of every
        row in order is the new block itself.  A negative, repeated or
        gapped position raises ValueError naming it, and the block is left
        as it was."""
        rng = np.random.default_rng(seed)
        d = 8
        n = int(rng.integers(0, 12))
        block = sp.random(n, d, density=0.4, random_state=rng, format="csr")
        replaced = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        added = n + np.arange(int(rng.integers(0, 4)))
        positions = np.empty(replaced.size + added.size, dtype=np.int64)
        slots = np.zeros(positions.size, dtype=bool)
        slots[rng.choice(positions.size, size=added.size, replace=False)] = True
        positions[slots], positions[~slots] = added, replaced
        if rng.random() < 0.3:  # every row, in order
            positions = np.arange(n + added.size)
        rows = sp.random(positions.size, d, density=0.4, random_state=rng, format="csr")
        want = [block[i] for i in range(n)] + [None] * added.size
        for i, p in enumerate(positions.tolist()):
            want[p] = rows[i]
        got = sparse.splice_rows(block, positions, rows)
        assert got.shape == (len(want), d)
        for p, row in enumerate(want):
            assert got[p].indices.tolist() == row.indices.tolist()
            assert got[p].data.tobytes() == row.data.tobytes()
        if positions.tolist() == list(range(len(want))):
            assert got is rows
        else:
            for a in (got.data, got.indices, got.indptr):
                for b in (block.data, rows.data, block.indices, rows.indices):
                    assert not np.shares_memory(a, b)
        before = [block.data.tobytes(), block.indices.tobytes(), block.indptr.tobytes()]
        more = sp.random(positions.size + 1, d, density=0.4, random_state=rng, format="csr")
        bad = [(-1, "negative class id -1"), (n + added.size + 1, rf"class id "
               rf"{n + added.size + 1} is not the next new id {n + added.size}")]
        if positions.size:
            bad.append((positions[-1], f"duplicate class id {positions[-1]}"))
        for position, message in bad:
            with pytest.raises(ValueError, match=message):
                sparse.splice_rows(block, np.append(positions, position), more)
        assert [block.data.tobytes(), block.indices.tobytes(),
                block.indptr.tobytes()] == before


def float_bytes(state):
    """Bytes of the float arrays that ``state`` holds, directly or in a
    tuple of its derived pieces."""
    held = [v for value in vars(state).values()
            for v in (value if isinstance(value, tuple) else (value,))]
    return sum(a.nbytes for a in held
               if isinstance(a, np.ndarray) and a.dtype.kind == "f")


class TestScoringState:
    """sparse.ScoringState: one copy of the class matrix's weights, and
    every derived piece made once, on first use."""

    def test_dense_state_keeps_one_copy_of_the_weights(self, state_of,
                                                       assert_same_floats):
        """After scoring a screened block, a dense state's float arrays are
        its C x d class-major rows: 8 C d bytes (the screen's set-up adds a
        C-byte mask and one float), against 16 C d with a second, transposed
        copy."""
        rng = np.random.default_rng(70)
        C, d, n = 50, 40, 64
        classes = sp.csr_matrix(rng.standard_normal((C, d)))
        X = sp.csr_matrix(rng.standard_normal((n, d)))
        exclude, at = rng.integers(C, size=n), rng.integers(C, size=n)
        state = ScoringState(classes)
        assert state.dense and state.rows.flags.c_contiguous
        assert state.rows.tobytes() == classes.toarray().tobytes()
        got = score_block(X, state, exclude=exclude, at=at)
        assert_same_floats(got, score_block(X, state_of(classes, False),
                                            exclude=exclude, at=at))
        assert "screen_setup" in vars(state) and "operand" not in vars(state)
        assert float_bytes(state) == 8 * C * d
        assert vars(state)["screen_setup"][1].nbytes == C

    def test_dense_operand_is_made_by_the_first_csr_product_chunk(self, kernel_cases):
        """A dense state makes the C-ordered d x C operand of the CSR
        product, the old ``classes.T.toarray(order="C")`` bit for bit, only
        when a chunk is not screened, and keeps it for the next one."""
        W, data = kernel_cases[1]
        state = ScoringState(W.to_csr())
        assert state.dense and "operand" not in vars(state)
        X = data.to_csr()
        score_block(X, state)
        operand = vars(state)["operand"]
        assert operand.flags.c_contiguous
        assert operand.tobytes() == W.to_csr().T.toarray(order="C").tobytes()
        score_block(X, state)
        assert vars(state)["operand"] is operand

    def test_dense_operand_is_made_once_on_the_calling_thread(
            self, monkeypatch, kernel_workers, state_of, assert_same_floats):
        """A fresh dense state scoring a sparse block through the pooled CSR
        product makes its operand once, on the calling thread, before any
        piece runs on the pool, and scores the CSR state's floats."""
        kernel_workers(2)
        monkeypatch.setattr(sparse, "MIN_PIECE_ENTRIES", 1)
        rng = np.random.default_rng(74)
        C, d, n = 40, 60, 50
        classes = sp.csr_matrix(rng.standard_normal((C, d)))
        X = sp.random(n, d, density=0.05, format="csr", random_state=rng)
        made = []

        class Transposes(np.ndarray):
            """Records the thread of every ``.T`` read: only the operand reads it."""
            @property
            def T(self):
                made.append(threading.current_thread())
                return np.asarray(self).T

        state = ScoringState(classes)
        assert state.dense and sparse.piece_bounds(n, n * C).size > 2
        state.rows = state.rows.view(Transposes)
        want = score_block(X, state_of(classes, False))
        for _ in range(2):
            assert_same_floats(score_block(X, state), want)
        assert made == [threading.current_thread()]

    def test_sparse_operand_has_no_screen(self, kernel_cases):
        state = ScoringState(kernel_cases[0][0].to_csr())
        assert not state.dense and state.rows is None
        operand = vars(state)["operand"]  # made by the constructor
        assert sp.issparse(operand) and state.operand is operand


@pytest.mark.parametrize("entry", [predict_batch, exact_margins_batch, evaluate])
def test_a_dataset_of_another_width_fails_closed(entry, kernel_cases):
    """predict_batch, exact_margins_batch and evaluate against a dataset
    one column wider than W name both widths."""
    for W, data in kernel_cases:
        wider = sp.csr_matrix((data.to_csr().data, data.to_csr().indices,
                               data.to_csr().indptr), shape=(len(data), W.dim + 1))
        other = Dataset.from_csr(data.labels_array(), wider, W.num_classes)
        with pytest.raises(ValueError, match=f"block width {W.dim + 1} does not match "
                                             f"the state's {W.dim}"):
            entry(W, other)


class TestCsrView:
    def test_matches_materialized_rows(self):
        W, _ = random_op_sequence(seed=11, n_ops=200)
        M = W.to_csr().toarray()
        for c in range(W.num_classes):
            np.testing.assert_allclose(M[c], W.materialize_row(c).to_dense(),
                                       rtol=1e-12, atol=0)

    def test_zero_matrix(self):
        W = WeightMatrix(3, 5)
        assert W.to_csr().nnz == 0


def kernel_calls(W, data, rng):
    """(X, state, keyword sets) for score_block over one kernel case: no
    options, exclude with at, and exclude with a random ``among`` pattern
    that leaves some rows empty."""
    X, state = data.to_csr(), ScoringState(W.to_csr())
    labels = data.labels_array()
    exclude = np.where(rng.random(len(data)) < 0.5, labels, -1)
    among = sp.csr_matrix(rng.random((len(data), W.num_classes)) < 0.3)
    return X, state, [{}, {"exclude": exclude, "at": labels},
                        {"exclude": exclude, "among": among}]


class TestKernelPool:
    """score_block's row pieces on the kernel pool: the floats of one
    single-threaded block whatever WORKERS is, and no thread where a
    block is small or there is one worker."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pieces_give_the_single_block_floats(self, monkeypatch, kernel_cases,
                                                 kernel_workers, assert_same_floats,
                                                 workers):
        rng = np.random.default_rng(41)
        for W, data in kernel_cases:
            X, state, calls = kernel_calls(W, data, rng)
            C = W.num_classes
            monkeypatch.setattr(sparse, "SCORE_BLOCK_ENTRIES", 1 << 22)
            kernel_workers(1)
            want = [score_block(X, state, **kw) for kw in calls]
            # at most 4 rows a piece: 41 rows make eleven pieces of 3-4 rows
            monkeypatch.setattr(sparse, "SCORE_BLOCK_ENTRIES", 4 * C * workers + 1)
            monkeypatch.setattr(sparse, "MIN_PIECE_ENTRIES", 1)
            kernel_workers(workers)
            for kw, expected in zip(calls, want):
                assert_same_floats(score_block(X, state, **kw), expected)
            assert (sparse._pool is None) == (workers == 1)

    def test_among_matches_scoring_each_row_against_its_own_pool(self, kernel_cases):
        rng = np.random.default_rng(42)
        for W, data in kernel_cases:
            X, state, calls = kernel_calls(W, data, rng)
            exclude, among = calls[2]["exclude"], calls[2]["among"]
            best, scores, _ = score_block(X, state, exclude=exclude, among=among)
            classes = W.to_csr()
            for i in range(X.shape[0]):
                pool = among.indices[among.indptr[i]:among.indptr[i + 1]]
                pool = np.sort(pool[pool != exclude[i]])
                if pool.size == 0:  # nothing allowed: position 0 at -inf
                    assert (best[i], scores[i]) == (0, -np.inf)
                    continue
                top, score, _ = score_block(X[i], ScoringState(classes[pool]))
                assert (best[i], scores[i]) == (pool[top[0]], score[0])

    def test_piece_bounds(self, monkeypatch, kernel_workers):
        monkeypatch.setattr(sparse, "MIN_PIECE_ENTRIES", 10)
        kernel_workers(3)
        assert sparse.piece_bounds(41, 29).tolist() == [0, 41]  # below 3 x 10
        assert sparse.piece_bounds(41, 30).tolist() == [0, 13, 27, 41]
        capped = sparse.piece_bounds(41, 30, longest=4)
        assert capped.size == 12 and np.diff(capped).max() == 4
        assert sparse.piece_bounds(2, 30).tolist() == [0, 1, 2]
        assert sparse.piece_bounds(0, 30).tolist() == [0, 0]

    def test_one_worker_or_a_small_block_starts_no_thread(self, monkeypatch,
                                                          kernel_cases, kernel_workers):
        W, data = kernel_cases[1]
        X, state = data.to_csr(), ScoringState(W.to_csr())
        entries = X.shape[0] * W.num_classes
        before = threading.active_count()
        for workers, least in ((1, 1), (2, entries // 2 + 1)):
            monkeypatch.setattr(sparse, "MIN_PIECE_ENTRIES", least)
            kernel_workers(workers)
            score_block(X, state)
            assert sparse._pool is None
            assert threading.active_count() == before
        monkeypatch.setattr(sparse, "MIN_PIECE_ENTRIES", entries // 2)
        score_block(X, state)  # at the threshold: two pieces on the pool
        assert sparse._pool is not None

    def test_a_piece_failure_is_raised(self, monkeypatch, kernel_cases, kernel_workers):
        W, data = kernel_cases[0]
        monkeypatch.setattr(sparse, "MIN_PIECE_ENTRIES", 1)
        kernel_workers(2)
        at = np.zeros(len(data), dtype=np.int64)
        at[-1] = W.num_classes  # out of range in the last piece only
        with pytest.raises(IndexError):
            score_block(data.to_csr(), ScoringState(W.to_csr()), at=at)

    def test_the_first_failing_piece_is_raised_after_every_piece_ran(self,
                                                                     kernel_workers):
        kernel_workers(2)
        ran = []

        def piece(k):
            ran.append(k)
            if k in (3, 7):
                raise ValueError(f"piece {k}")

        with pytest.raises(ValueError, match="piece 3"):
            sparse.run_pieces([partial(piece, k) for k in range(10)])
        assert sorted(ran) == list(range(10))

    def test_pool_bookkeeping_does_not_grow_with_the_pieces(self, kernel_workers,
                                                            peak_traced_bytes):
        """At most WORKERS pool tasks run the pieces, so 100 trivial pieces
        peak within a few KiB of 4, where a future and a work item per
        piece would keep about 190 KB alive."""
        kernel_workers(2)
        sparse.run_pieces([int] * 2)  # makes the pool and its threads

        def peak(count):
            pieces = [int] * count
            return min(peak_traced_bytes(lambda: sparse.run_pieces(pieces))[1]
                       for _ in range(3))

        assert peak(100) <= peak(4) + 4096

    @pytest.mark.parametrize("workers", [1, 2])
    def test_csr_operand_stays_within_the_block_budget(self, monkeypatch, kernel_workers,
                                                       peak_traced_bytes, assert_same_floats,
                                                       workers):
        """About 85 % of the product is nonzero, so each chunk's CSR output
        (12 to 16 bytes a score) outweighs the dense scores it becomes, and
        among's mask touches 40 % of them: both count against the budget."""
        rng = np.random.default_rng(57)
        n, d, C = 600, 200, 120
        X = sp.random(n, d, density=0.12, format="csr", random_state=rng)
        operand = sp.random(d, C, density=0.08, format="csr", random_state=rng)
        assert (X @ operand).nnz > 0.8 * n * C
        state = ScoringState(sp.csr_matrix(operand.T))
        assert not state.dense
        kernel_workers(1)
        calls = kernel_options(rng, n, C)[1:]  # exclude with at, exclude with among
        want = [score_block(X, state, **kw) for kw in calls]
        monkeypatch.setattr(sparse, "SCORE_BLOCK_ENTRIES", 1 << 14)
        kernel_workers(workers)
        for kw, expected in zip(calls, want):
            score_block(X, state, **kw)  # makes the pool outside the trace
            got, peak = peak_traced_bytes(lambda: score_block(X, state, **kw))
            assert_same_floats(got, expected)
            # the block's budget, the three result arrays and 64 KiB for
            # numpy's buffers and Python objects
            assert peak <= 8 * sparse.SCORE_BLOCK_ENTRIES + 24 * n + (64 << 10)

    def test_row_view_shares_the_block(self, kernel_cases):
        X = kernel_cases[0][1].to_csr()
        for lo, hi in ((0, X.shape[0]), (3, 17), (40, 41), (5, 5)):
            view = sparse.row_view(X, lo, hi)
            assert (view != X[lo:hi]).nnz == 0 and view.shape == (hi - lo, X.shape[1])
            if view.nnz:
                assert np.shares_memory(view.data, X.data)
                assert np.shares_memory(view.indices, X.indices)


def kernel_options(rng, n, C):
    """The three keyword sets of the kernel oracles for an n-row block
    against C classes, with some rows excluding nothing and some allowed
    no class at all."""
    exclude = np.where(rng.random(n) < 0.5, rng.integers(C, size=n), -1)
    among = sp.csr_matrix(rng.random((n, C)) < 0.4)
    return [{}, {"exclude": exclude, "at": rng.integers(C, size=n)},
            {"exclude": exclude, "among": among}]


def screened(X, state, **kw):
    """score_block with every block, whatever its density and size, offered
    to a dense state's screen; its chunks still fall back where it
    declines."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "DENSE_SCREEN_MIN_DENSITY", 0.0)
        mp.setattr(sparse, "DENSE_SCREEN_MIN_ROWS", 0)
        return score_block(X, state, **kw)


def screen_results(monkeypatch):
    """The result of every ScoringState.screen call from now on: None where
    the screen declined a chunk and the CSR product scored it."""
    results = []
    original = sparse.ScoringState.screen

    def screen(self, *args):
        results.append(original(self, *args))
        return results[-1]

    monkeypatch.setattr(sparse.ScoringState, "screen", screen)
    return results


def adversarial_block(rng, n=30, d=12, C=9):
    """(X, W as d x C) with the cases a screen could get wrong: classes 1
    and 2 a copy of class 0, one of them one ulp apart in one weight, class
    3 all zero, 0.1-grid values (ties only after rounding), -0.0, a
    subnormal, and examples that are empty, all explicit zeros or copies."""
    W = np.round(rng.standard_normal((d, C)) * 3) / 10
    W[:, 1] = W[:, 2] = W[:, 0]
    W[0, 2] = np.nextafter(W[0, 2], np.inf)
    W[:, 3] = 0.0
    W[1, 4], W[2, 4] = -0.0, 5e-324
    Xd = np.round(rng.standard_normal((n, d)) * 3) / 10
    Xd[rng.random((n, d)) < 0.2] = 0.0
    Xd[0] = 0.0
    Xd[1] = Xd[2]
    Xd[3, :4] = [-0.0, 5e-324, 1e-170, 2.2e-308]
    X = sp.csr_matrix(Xd)
    X.data[X.indptr[4]:X.indptr[5]] = 0.0  # stored, but all zero
    return X, W


class TestDenseScreen:
    """score_block's BLAS screen returns the CSR product's floats: the same
    block against the same class matrix held as CSR is the oracle."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_adversarial_block_gives_the_csr_operand_floats(self, monkeypatch,
                                                           kernel_workers, state_of,
                                                           assert_same_floats, workers):
        rng = np.random.default_rng(51)
        kernel_workers(workers)
        monkeypatch.setattr(sparse, "MIN_PIECE_ENTRIES", 1)
        X, W = adversarial_block(rng)
        dense, product = state_of(W.T, True), state_of(W.T, False)
        for budget in (1 << 22, 5 * W.shape[1]):  # one chunk; one row a chunk
            monkeypatch.setattr(sparse, "SCORE_BLOCK_ENTRIES", budget)
            for kw in kernel_options(rng, X.shape[0], W.shape[1]):
                assert_same_floats(screened(X, dense, **kw), score_block(X, product, **kw))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(6, 14), st.integers(4, 10),
           st.integers(1, 8), st.sampled_from([1.0, 1e-160, 1e150]),
           st.booleans(), st.sampled_from([7, 1 << 22]))
    def test_fuzz_gives_the_csr_operand_floats(self, assert_same_floats, state_of, seed,
                                               n, d, C, magnitude, shuffle, budget):
        # magnitude 1e150 puts ||x|| max ||w|| past the overflow guard, so
        # those chunks fall back; a block whose rows are shuffled out of
        # order is not canonical, and either state refuses it
        rng = np.random.default_rng(seed)
        X, W = adversarial_block(rng, n, d, max(C, 5))
        W = W[:, :C] * magnitude
        X = X * magnitude
        if shuffle:
            for i in range(n):
                lo, hi = X.indptr[i], X.indptr[i + 1]
                order = lo + rng.permutation(hi - lo)
                X.indices[lo:hi], X.data[lo:hi] = X.indices[order], X.data[order]
            X = sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse, "SCORE_BLOCK_ENTRIES", budget)
            for kw in kernel_options(rng, n, C):
                if not X.has_canonical_format:
                    for dense in (True, False):
                        with pytest.raises(ValueError, match="block is not canonical CSR"):
                            screened(X, state_of(W.T, dense), **kw)
                    continue
                assert_same_floats(screened(X, state_of(W.T, True), **kw),
                                   score_block(X, state_of(W.T, False), **kw))

    def test_near_overflow_falls_back_to_the_csr_product(self, monkeypatch, state_of,
                                                         assert_same_floats):
        rng = np.random.default_rng(52)
        n = sparse.DENSE_SCREEN_MIN_ROWS
        X = sp.csr_matrix(rng.standard_normal((n, 5)) * 1e150)
        W = rng.standard_normal((5, 4)) * 1e150  # scores near 1e300, some overflow
        calls = screen_results(monkeypatch)
        for kw in kernel_options(rng, n, 4):
            assert_same_floats(score_block(X, state_of(W.T, True), **kw),
                               score_block(X, state_of(W.T, False), **kw))
        assert calls and all(result is None for result in calls)

    def test_the_path_each_block_takes(self, monkeypatch, kernel_cases, state_of):
        """A dense block against a dense state is screened: no CSR product.
        Sparse rows, few rows or a CSR state go through the CSR product."""
        screens, products = screen_results(monkeypatch), []
        original_product = sp.csr_matrix.__matmul__

        def product(self, other):
            products.append(other)
            return original_product(self, other)

        monkeypatch.setattr(sp.csr_matrix, "__matmul__", product)
        rng = np.random.default_rng(53)
        dense_rows = sp.csr_matrix(rng.standard_normal((40, 30)))
        W = rng.standard_normal((20, 30))

        def path(X, state):
            screens.clear()
            products.clear()
            score_block(X, state, exclude=np.zeros(X.shape[0], dtype=np.int64),
                        at=np.ones(X.shape[0], dtype=np.int64))
            return bool(screens), all(r is not None for r in screens), bool(products)

        dense = ScoringState(sp.csr_matrix(W))
        assert path(dense_rows, dense) == (True, True, False)
        assert path(dense_rows[:sparse.DENSE_SCREEN_MIN_ROWS - 1], dense) == (False, True, True)
        assert path(dense_rows, state_of(W, False)) == (False, True, True)
        sparse_rows = sp.random(40, 30, density=sparse.DENSE_SCREEN_MIN_DENSITY / 2,
                                format="csr", random_state=54)
        assert path(sparse_rows, dense) == (False, True, True)
        Wk, data = kernel_cases[1]  # a dense state, rows about 0.12 full
        assert path(data.to_csr(), ScoringState(Wk.to_csr())) == (False, True, True)

    def test_ties_of_zeros_rescore_one_pair(self, monkeypatch, state_of,
                                            assert_same_floats):
        """An empty example, or a row of all-zero classes, scores +0.0 on
        each: only its first allowed one is re-scored, not all C."""
        rng = np.random.default_rng(55)
        n, d, C = 40, 16, 30
        Xd = rng.standard_normal((n, d))
        Xd[::2] = 0.0
        W = rng.standard_normal((d, C))
        W[:, 5:] = 0.0
        X = sp.csr_matrix(Xd)
        pairs = []
        original = sparse.score_pairs

        def rescore(X, classes, *args):
            pairs.append(len(classes))
            return original(X, classes, *args)

        monkeypatch.setattr(sparse, "score_pairs", rescore)
        for kw in kernel_options(rng, n, C):
            pairs.clear()
            assert_same_floats(screened(X, state_of(W.T, True), **kw),
                               score_block(X, state_of(W.T, False), **kw))
            # at most the best nonzero class and the first zero class of
            # each nonempty row, one class of each empty row, and the at pairs
            assert sum(pairs) <= 2 * (n // 2) + n // 2 + ("at" in kw) * n

    def test_all_equal_classes_stay_within_the_block_budget(self, monkeypatch, state_of,
                                                            peak_traced_bytes,
                                                            assert_same_floats):
        """Every class ties on every row, so every class is a candidate:
        n x C x d re-score products unless the passes are capped."""
        rng = np.random.default_rng(56)
        n, d, C = 300, 32, 96
        X = sp.csr_matrix(rng.standard_normal((n, d)))
        W = np.repeat(rng.standard_normal((d, 1)), C, axis=1)
        labels = rng.integers(C, size=n)
        monkeypatch.setattr(sparse, "SCORE_BLOCK_ENTRIES", 1 << 14)
        state = state_of(W.T, True)
        got, peak = peak_traced_bytes(lambda: score_block(X, state, exclude=labels,
                                                          at=labels))
        assert_same_floats(got, score_block(X, state_of(W.T, False), exclude=labels,
                                            at=labels))
        assert (got[0] == np.where(labels == 0, 1, 0)).all()
        # the block's budget, the three result arrays and 64 KiB for numpy's
        # buffers and Python objects, with no copy of the class matrix;
        # uncapped, the products alone would take n * C * d * 8 = 7.4 MB
        assert peak <= 8 * sparse.SCORE_BLOCK_ENTRIES + 24 * n + (64 << 10)


@pytest.mark.parametrize("bad, value, error, message", [
    ("data", np.nan, ValueError, "row 2 holds the non-finite feature value nan"),
    ("indices", 30, ValueError, "row 2 holds the feature index 30, outside [0, 30)"),
    ("at", -1, IndexError, "class position -1 out of range [0, 6)"),
    ("at", 7, IndexError, "class position 7 out of range [0, 6)"),
    ("at", 1.5, ValueError, "class position 1.5 is not a whole number"),
    ("exclude", 2.5, ValueError, "excluded class 2.5 is not a whole number"),
    ("exclude", 7, IndexError, "excluded class 7 out of range: 6 classes")])
def test_every_scoring_path_refuses_bad_input_alike(bad, value, error, message):
    """W.score on a dense block that is screened, a dense block small enough
    for the CSR product and a sparse state: each bad value, in row 2,
    raises the same exception.  at = -1 used to return the last class's
    score on the CSR product, while the screen refused it."""
    rng = np.random.default_rng(57)
    n, d, C = sparse.DENSE_SCREEN_MIN_ROWS + 8, 30, 6
    dense_W = WeightMatrix.from_csr(sp.csr_matrix(rng.standard_normal((C, d))))
    sparse_W = WeightMatrix.from_csr(sp.random(C, d, density=0.05, format="csr",
                                               random_state=58))
    assert dense_W._scoring_state.dense and not sparse_W._scoring_state.dense
    block = sp.csr_matrix(rng.standard_normal((n, d)))
    for W, X in [(dense_W, block), (dense_W, block[:4]), (sparse_W, block)]:
        X = X.copy()
        options = {"exclude": np.zeros(X.shape[0]), "at": np.ones(X.shape[0])}
        if bad in options:
            options[bad][2] = value
        else:
            getattr(X, bad)[X.indptr[2]] = value
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            W.score(X, **options)


def elementwise_pairs(X, rows):
    """The pair scores that score_pairs made before it ran one csr_matvec
    over gathered positions: row i of ``X`` (sorted rows) times row i of
    the CSR block ``rows``, elementwise, summed from +0.0 in X's order."""
    return X.multiply(rows) @ np.ones(X.shape[1])


def pair_case(rng, n, d, C, magnitude=1.0):
    """(X, W): an n x d block and a WeightMatrix of C classes at a scale
    other than 1, with mixed signs, -0.0 and subnormals stored in X, an
    empty row, a row of explicit zeros and an all-zero class."""
    Xd = rng.standard_normal((n, d)) * magnitude
    Xd[rng.random((n, d)) < 0.4] = 0.0
    Xd[0] = 0.0
    X = sp.csr_matrix(Xd)
    X.data[rng.random(X.nnz) < 0.1] = -0.0
    X.data[rng.random(X.nnz) < 0.1] = 5e-324
    if n > 1:
        X.data[X.indptr[1]:X.indptr[2]] = 0.0  # stored, but all zero
    Wd = rng.standard_normal((C, d)) * magnitude
    Wd[rng.random((C, d)) < rng.uniform(0.0, 0.95)] = 0.0
    Wd[0, :2] = [2.2e-308, -4e-320]
    Wd[-1] = 0.0
    W = WeightMatrix.from_rows([(c, SparseVector.from_pairs(
        {j: v for j, v in enumerate(row) if v != 0.0}, d)) for c, row in enumerate(Wd)], d)
    W.global_scale(rng.choice([0.37, 1e-5, 3.0]))
    return X, W


def both_forms(classes):
    """The two class-major forms score_pairs reads: the C x dim array and
    the canonical CSR ``classes``."""
    return classes.toarray(), classes


def at_scores(X, state, pairs_rows, classes):
    """score_block's ``at`` floats of every (row, class) pair, one class
    position at a time over the whole block (the CSR product's, for a CSR
    ``state``)."""
    table = np.stack([score_block(X, state, at=np.full(X.shape[0], c))[2]
                      for c in range(state.num_classes)], axis=1)
    return table[pairs_rows, classes]


class TestScorePairs:
    """score_pairs gives, pair by pair, the CSR product's floats: those of
    the old elementwise product and of score_block's ``at``."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(2, 12),
           st.integers(2, 9), st.sampled_from([1.0, 1e-160, 1e150]),
           st.sampled_from([3, 1 << 22]))
    def test_equals_the_elementwise_product(self, assert_same_floats, state_of, seed, n,
                                            d, C, magnitude, budget):
        rng = np.random.default_rng(seed)
        X, W = pair_case(rng, n, d, C, magnitude)
        classes = rng.integers(C, size=n)
        want = elementwise_pairs(X, W.to_csr()[classes])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse, "SCORE_BLOCK_ENTRIES", budget)
            assert_same_floats([W.score_pairs(X, classes)], [want])
            for matrix in both_forms(W.to_csr()):
                assert_same_floats([score_pairs(X, classes, matrix)], [want])

    def test_csr_product_pairs(self, state_of, assert_same_floats):
        """Scale 0.37, 1e-5 or 3, mixed signs, -0.0, subnormals, empty rows
        and an all-zero class, in a dense state's rows and in the CSR, and
        rows paired with several classes each: the CSR product's ``at``
        floats, which score_block gives through either state too."""
        rng = np.random.default_rng(60)
        for _ in range(6):
            X, W = pair_case(rng, 45, 14, 7)
            product = state_of(W.to_csr(), False)
            for dense in (True, False):
                state = state_of(W.to_csr(), dense)
                matrix = state.rows if dense else W.to_csr()
                at = rng.integers(W.num_classes, size=X.shape[0])
                want = score_block(X, product, at=at)[2]
                assert_same_floats([score_block(X, state, at=at)[2]], [want])
                assert_same_floats([score_pairs(X, at, matrix)], [want])
                rows = np.sort(rng.integers(X.shape[0], size=3 * X.shape[0]))
                picked = rng.integers(W.num_classes, size=rows.size)
                assert_same_floats([score_pairs(X, picked, matrix, rows)],
                                   [at_scores(X, product, rows, picked)])

    def test_screened_pairs(self, monkeypatch, state_of, assert_same_floats):
        rng = np.random.default_rng(59)
        X, W = adversarial_block(rng, n=sparse.DENSE_SCREEN_MIN_ROWS + 8)
        at = rng.integers(W.shape[1], size=X.shape[0])
        calls = screen_results(monkeypatch)
        want = score_block(X, state_of(W.T, False), at=at)[2]
        dense = state_of(W.T, True)
        assert_same_floats([score_block(X, dense, at=at)[2]], [want])
        assert calls and all(result is not None for result in calls)
        assert_same_floats([score_pairs(X, at, dense.rows)], [want])
        assert_same_floats([score_pairs(X, at, sp.csr_matrix(W.T))], [want])

    def test_unsorted_rows_give_the_csr_product_floats(self, assert_same_floats):
        """Rows whose stored entries are shuffled: the pairs sum in their
        stored order, as scipy's own CSR product does (score_block refuses
        such a block)."""
        rng = np.random.default_rng(61)
        X, W = pair_case(rng, 40, 16, 6)
        for i in range(X.shape[0]):
            lo, hi = X.indptr[i], X.indptr[i + 1]
            order = lo + rng.permutation(hi - lo)
            X.indices[lo:hi], X.data[lo:hi] = X.indices[order], X.data[order]
        X.has_sorted_indices = False
        at = rng.integers(W.num_classes, size=X.shape[0])
        want = (X @ W.to_csr().T).toarray()[np.arange(X.shape[0]), at]
        for matrix in both_forms(W.to_csr()):
            assert_same_floats([score_pairs(X, at, matrix)], [want])

    def test_bad_pairs_fail_closed(self, kernel_cases):
        W, data = kernel_cases[1]
        X = data.to_csr()
        for bad in (W.num_classes, -1):
            with pytest.raises(IndexError, match="out of range"):
                W.score_pairs(X, np.full(X.shape[0], bad))
        with pytest.raises(ValueError, match="width"):
            W.score_pairs(sp.csr_matrix((3, W.dim + 1)), [0, 1, 2])
        unsorted = W.to_csr()
        unsorted.indices[:2] = unsorted.indices[1::-1]
        with pytest.raises(ValueError, match="not canonical"):
            score_pairs(X, data.labels_array(), unsorted)

    def test_sparse_matrix_pairs_build_no_state(self, kernel_cases, assert_same_floats):
        """W.score_pairs on a matrix below DENSE_SCORING_MIN_DENSITY looks
        the weights up in W's logical CSR: no scoring state is built, and
        the floats are score_block's ``at`` floats."""
        W, data = kernel_cases[0]
        X, labels = data.to_csr(), data.labels_array()
        for classes in (labels, labels[::-1].copy()):
            got = W.score_pairs(X, classes)
            assert "_scoring_state" not in vars(W)
            assert_same_floats([got], [score_block(X, ScoringState(W.to_csr()),
                                                   at=classes)[2]])

    @pytest.mark.parametrize("case", ["all zero", "underflowed weights", "unstored weights",
                                      "unsorted rows"])
    def test_csr_lookup_is_the_at_floats(self, case, state_of, assert_same_floats):
        """score_pairs against a class-major CSR gives score_block's ``at``
        floats bit for bit, signed zeros included: against an all-zero
        matrix, weights that a tiny scale turns into stored zeros (-0.0
        among them), pairs whose weight is not stored, and query rows
        whose entries are out of order, which score_block refuses, so
        scipy's own CSR product is their reference."""
        rng = np.random.default_rng(62)
        n, d, C = 50, 20, 8
        Xd = rng.standard_normal((n, d))
        Xd[rng.random((n, d)) < 0.3] = 0.0
        Xd[1] = -0.0
        X = sp.csr_matrix(Xd)
        X.data[::7] = -0.0
        Wd = rng.standard_normal((C, d))
        if case == "all zero":
            Wd[:] = 0.0
        elif case == "underflowed weights":
            Wd[:, ::3] = rng.choice([4e-320, -4e-320, 1e-310, -1e-310], size=(C, 7))
        else:
            Wd[rng.random((C, d)) < 0.7] = 0.0
        W = WeightMatrix.from_rows([(c, SparseVector.from_pairs(
            {j: v for j, v in enumerate(row) if v != 0.0}, d)) for c, row in enumerate(Wd)],
            d)
        W.global_scale(1e-5)
        classes = W.to_csr()
        if case == "underflowed weights":
            zeros = classes.data[classes.data == 0.0]
            assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        if case == "unstored weights":
            assert classes.nnz < 0.5 * C * d
        if case == "unsorted rows":
            for i in range(n):
                lo, hi = X.indptr[i], X.indptr[i + 1]
                order = lo + rng.permutation(hi - lo)
                X.indices[lo:hi], X.data[lo:hi] = X.indices[order], X.data[order]
            X.has_sorted_indices = False
        product = state_of(classes, False)
        if case == "unsorted rows":
            table = (X @ classes.T).toarray()
        else:
            table = np.stack([score_block(X, product, at=np.full(n, c))[2]
                              for c in range(C)], axis=1)
        at = rng.integers(C, size=n)
        assert_same_floats([score_pairs(X, at, classes)], [table[np.arange(n), at]])
        rows = rng.integers(n, size=2 * n)
        picked = rng.integers(C, size=rows.size)
        assert_same_floats([score_pairs(X, picked, classes, rows)], [table[rows, picked]])


def bincount_row_sums(values, indptr):
    """row_sums as it was before it ran one csr_matvec: one bincount over a
    row id per stored value."""
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    return np.bincount(rows, weights=values, minlength=indptr.size - 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 60))
def test_row_sums_match_bincount(seed, n):
    rng = np.random.default_rng(seed)
    indptr = np.concatenate([[0], np.cumsum(rng.integers(0, 12, size=n))])
    values = rng.standard_normal(indptr[-1]) * 10.0 ** rng.integers(-320, 300, indptr[-1])
    values[rng.random(values.size) < 0.2] = -0.0
    for index_dtype in (np.int32, np.int64):
        got = sparse.row_sums(values, indptr.astype(index_dtype))
        assert got.tobytes() == bincount_row_sums(values, indptr).tobytes()


def test_l1_norm_is_the_logical_matrix_sum():
    W, _ = random_batched_sequence(seed=5)
    W.global_scale(0.37)
    assert W.l1_norm() == float(np.abs(W.to_csr().data).sum())


@pytest.mark.parametrize("model", ["dense_l2", "sparse_l1"])
def test_row_dot_and_dot_give_the_kernel_floats(trained_models, model):
    """W.row_dot(c, x), and dot of x with the materialized row c, is the
    float W.score_pairs gives for x against class c, bit for bit: the
    scale goes into each weight before the products are summed, in the
    kernel's order."""
    W, data = trained_models[model]
    n = 40
    X, examples = data.to_csr()[:n], data.examples[:n]
    for c in range(W.num_classes):
        want = W.score_pairs(X, np.full(n, c)).tobytes()
        assert np.array([W.row_dot(c, x) for _, x in examples]).tobytes() == want
        row = W.materialize_row(c)
        assert np.array([dot(x, row) for _, x in examples]).tobytes() == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 14),
                          st.floats(-5, 5, allow_nan=False)), max_size=8),
       st.lists(st.tuples(st.integers(0, 14),
                          st.floats(-5, 5, allow_nan=False)), max_size=8))
def test_dot_bilinear_against_dense(pa, pb):
    a = SparseVector.from_pairs(dict(pa), 15)
    b = SparseVector.from_pairs(dict(pb), 15)
    expected = float(a.to_dense() @ b.to_dense())
    assert dot(a, b) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def merge_dot_reference(ai, av, bi, bv) -> float:
    """The kernel's float for two sorted sparse vectors, written out: the
    products over the shared indices added one by one to +0.0, in index
    order, as ``csr_matvec`` adds a row's stored products."""
    total = 0.0
    for i in np.intersect1d(ai, bi):
        total += float(av[ai.searchsorted(i)]) * float(bv[bi.searchsorted(i)])
    return total


sparse_pairs = st.dictionaries(
    st.integers(0, 199),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), max_size=60)


@settings(max_examples=300, deadline=None)
@given(sparse_pairs, sparse_pairs)
def test_dot_gives_the_floats_of_the_merge_reference(pa, pb):
    # bit-identical, signed zeros included; explicit zeros are kept
    a = SparseVector(sorted(pa), [pa[i] for i in sorted(pa)], 200)
    b = SparseVector(sorted(pb), [pb[i] for i in sorted(pb)], 200)
    want = merge_dot_reference(a.indices, a.values, b.indices, b.values)
    for got in (dot(a, b), dot(b, a)):
        assert got.hex() == want.hex()
