"""Prediction, accuracy and macro-F1."""

import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from mipsvm.dataio import Dataset
from mipsvm.metrics import (PredictionSet, accuracy, evaluate, macro_f1,
                            predict, predict_batch)
from mipsvm.mips import build_index
from mipsvm.sparse import SparseVector, WeightMatrix, score_block


def sv(pairs, dim):
    return SparseVector.from_pairs(pairs, dim)


def matrix_from_dense(rows):
    rows = np.asarray(rows, dtype=float)
    W = WeightMatrix(rows.shape[0], rows.shape[1])
    for c, row in enumerate(rows):
        W.add_to_row(c, 1.0, sv(dict(enumerate(row)), rows.shape[1]))
    return W


def random_dataset(rng, n, C, d):
    examples = []
    for _ in range(n):
        nnz = int(rng.integers(1, d + 1))
        idx = np.sort(rng.choice(d, size=nnz, replace=False))
        examples.append((int(rng.integers(C)),
                         SparseVector(idx, rng.standard_normal(nnz), d)))
    return Dataset(examples, dim=d, num_classes=C)


def loop_predict(W, x):
    """Reference prediction: one row_dot per class, best by a strict > scan,
    so ties go to the smallest class id."""
    best_c = 0
    best_s = -np.inf
    for c in range(W.num_classes):
        s = W.row_dot(c, x)
        if s > best_s:
            best_s = s
            best_c = c
    return best_c


def per_class_fraction_macro_f1(p, mean_per_class):
    """Macro-F1 summed one Fraction per class: the oracle for macro_f1,
    which adds the counts per distinct denominator first."""
    present = np.union1d(p.true_labels, p.predicted)
    hit = p.true_labels[p.true_labels == p.predicted]
    tp, pred_n, true_n = (np.bincount(labels, minlength=p.num_classes)[present].tolist()
                          for labels in (hit, p.predicted, p.true_labels))
    k = len(present)
    if mean_per_class:
        return float(sum((Fraction(2 * t, pn + tn) for t, pn, tn in
                          zip(tp, pred_n, true_n)), Fraction(0)) / k)
    ma_p = sum((Fraction(t, n) for t, n in zip(tp, pred_n) if n), Fraction(0)) / k
    ma_r = sum((Fraction(t, n) for t, n in zip(tp, true_n) if n), Fraction(0)) / k
    if ma_p + ma_r == 0:
        return 0.0
    return float(2 * ma_p * ma_r / (ma_p + ma_r))


class TestPredict:
    def test_hand_example(self):
        W = matrix_from_dense([[1.0, 0.0], [0.0, 1.0]])
        assert predict(W, sv({1: 1.0}, 2)) == 1

    def test_zero_matrix_tie_break(self):
        assert predict(WeightMatrix(5, 3), sv({0: 1.0}, 3)) == 0

    def test_agrees_with_exact_index_without_exclusion(self):
        rng = np.random.default_rng(0)
        W = matrix_from_dense(rng.standard_normal((12, 9)))
        index = build_index([(c, W.materialize_row(c)) for c in range(12)],
                            "exact", dim=9)
        data = random_dataset(rng, 1000, 12, 9)
        for _, x in data.examples:
            assert predict(W, x) == index.query(x)[0]

    def test_batch_matches_single(self, kernel_cases):
        rng = np.random.default_rng(1)
        W = matrix_from_dense(rng.standard_normal((7, 5)))
        data = random_dataset(rng, 200, 7, 5)
        for W, data in [(W, data)] + kernel_cases:
            batch = predict_batch(W, data)
            singles = [loop_predict(W, x) for _, x in data.examples]
            assert batch.tolist() == singles

    def test_concurrent_first_predictions_share_the_scoring_state(self, state_of):
        """Threads racing the first predict_batch on a freshly changed dense
        W each read a whole scoring state: every screened block gets the
        CSR product's classes."""
        rng = np.random.default_rng(36)
        dim, C, n = 16, 30, 40
        W = matrix_from_dense(rng.standard_normal((C, dim)))
        sets = [Dataset.from_csr(rng.integers(C, size=n),
                                 sp.csr_matrix(rng.standard_normal((n, dim))), C)
                for _ in range(4)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for step in range(5):
                W.add_to_row(step, 1.0, SparseVector(np.arange(dim),
                                                     rng.standard_normal(dim), dim))
                results = [None] * 4
                start = threading.Barrier(4)

                def work(i):
                    start.wait(timeout=60)
                    results[i] = predict_batch(W, sets[i])

                threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                for data, got in zip(sets, results):
                    want = score_block(data.to_csr(), state_of(W.to_csr(), False))[0]
                    assert got.tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(old)

    def test_predict_is_a_batch_of_one(self, trained_models):
        """Rounding ties: every class row is a permutation of one vector,
        so x = 2^k (1, ..., 1) scores them all alike, up to the order each
        sum is taken in; predict must sum in the batch's order to agree."""
        rng = np.random.default_rng(3)
        ties = []
        for _ in range(10):
            base = rng.standard_normal(64)
            W = matrix_from_dense([rng.permutation(base) for _ in range(12)])
            ones = [(0, SparseVector(np.arange(64), np.full(64, 2.0 ** k), 64))
                    for k in range(-20, 20)]
            ties.append((W, Dataset(ones, dim=64, num_classes=12)))
        for W, data in ties + list(trained_models.values()):
            singles = [predict(W, x) for _, x in data.examples]
            assert predict_batch(W, data).tolist() == singles

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        W = matrix_from_dense(rng.standard_normal((6, 4)))
        data = random_dataset(rng, 100, 6, 4)
        before = predict_batch(W, data)
        W.global_scale(0.037)
        np.testing.assert_array_equal(predict_batch(W, data), before)
        W.global_scale(1234.5)
        np.testing.assert_array_equal(predict_batch(W, data), before)


class TestAccuracy:
    def test_extremes(self):
        p = PredictionSet([0, 1, 2], [0, 1, 2], 3)
        assert accuracy(p) == 1.0
        p = PredictionSet([0, 1, 2], [1, 2, 0], 3)
        assert accuracy(p) == 0.0

    def test_hand_count(self):
        p = PredictionSet([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert accuracy(p) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(PredictionSet([], [], 2))

    def test_labels_must_be_whole_numbers(self):
        # PredictionSet([1.7], [0.2], 3) used to hold the labels [1] and [0]
        with pytest.raises(ValueError, match=r"^true label 1\.7 is not a whole number$"):
            PredictionSet([1.7], [0.2], 3)
        with pytest.raises(ValueError, match=r"^predicted label 0\.2 is not a whole number$"):
            PredictionSet([1], [0.2], 3)
        p = PredictionSet([1.0, 2.0], [1.0, 0.0], 3)
        assert p.true_labels.dtype == p.predicted.dtype == np.int64
        assert accuracy(p) == 0.5


class TestMacroF1:
    def test_perfect(self):
        p = PredictionSet([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert macro_f1(p) == 1.0

    def test_hand_example_exact_fraction(self):
        # per-class P = (1, 2/3), R = (1/2, 1): MaP=5/6, MaR=3/4, MaF1=15/19
        p = PredictionSet([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert macro_f1(p) == float(Fraction(15, 19))

    def test_single_class_all_correct(self):
        p = PredictionSet([1, 1, 1], [1, 1, 1], 3)
        assert macro_f1(p) == 1.0

    def test_all_wrong_is_zero(self):
        p = PredictionSet([0, 1], [1, 0], 2)
        assert macro_f1(p) == 0.0

    def test_absent_classes_excluded(self):
        # class 2 never appears in truth or predictions: same score as 2-class
        a = PredictionSet([0, 0, 1, 1], [0, 1, 1, 1], 2)
        b = PredictionSet([0, 0, 1, 1], [0, 1, 1, 1], 5)
        assert macro_f1(a) == macro_f1(b)

    def test_mean_per_class_variant(self):
        p = PredictionSet([0, 0, 1, 1], [0, 1, 1, 1], 2)
        # F1 per class: 2*1/ (2+1) ... class0: tp=1, pred=1, true=2 -> 2/3;
        # class1: tp=2, pred=3, true=2 -> 4/5; mean = 11/15
        assert macro_f1(p, mean_per_class=True) == float(Fraction(11, 15))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        t = rng.integers(4, size=60)
        q = rng.integers(4, size=60)
        p1 = PredictionSet(t, q, 4)
        perm = rng.permutation(60)
        p2 = PredictionSet(t[perm], q[perm], 4)
        assert macro_f1(p1) == macro_f1(p2)
        assert accuracy(p1) == accuracy(p2)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        t = rng.integers(5, size=80)
        q = rng.integers(5, size=80)
        relabel = rng.permutation(5)
        p1 = PredictionSet(t, q, 5)
        p2 = PredictionSet(relabel[t], relabel[q], 5)
        assert macro_f1(p1) == macro_f1(p2)
        assert accuracy(p1) == accuracy(p2)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            C = int(rng.integers(2, 6))
            p = PredictionSet(rng.integers(C, size=n), rng.integers(C, size=n), C)
            assert 0.0 <= macro_f1(p) <= 1.0
            assert 0.0 <= accuracy(p) <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda C: st.tuples(
        st.just(C), st.lists(st.tuples(st.integers(0, C - 1), st.integers(0, C - 1)),
                             min_size=1, max_size=80))),
        st.booleans())
    def test_matches_the_per_class_fraction_oracle(self, case, mean_per_class):
        C, pairs = case
        p = PredictionSet([t for t, _ in pairs], [q for _, q in pairs], C)
        assert macro_f1(p, mean_per_class=mean_per_class) == per_class_fraction_macro_f1(
            p, mean_per_class)

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictionSet([0, 1], [0], 2)
        with pytest.raises(ValueError):
            PredictionSet([0, 5], [0, 1], 2)


class TestEvaluate:
    def test_report_fields(self):
        rng = np.random.default_rng(6)
        W = matrix_from_dense(rng.standard_normal((4, 6)))
        data = random_dataset(rng, 50, 4, 6)
        rep = evaluate(W, data)
        assert rep.n == 50
        assert 0.0 <= rep.accuracy <= 1.0
        assert 0.0 <= rep.macro_f1 <= 1.0
        assert rep.predict_seconds >= 0.0
        assert set(rep.to_dict()) == {"n", "accuracy", "macro_f1",
                                      "predict_seconds"}
