"""Audit of the approximate-vs-exact margin gap."""

import math

import numpy as np
import pytest

from mipsvm.dataio import Dataset
from mipsvm.metrics import evaluate
from mipsvm.mips import audit_inexactness, build_index, recall_at_1
from mipsvm.sparse import SparseVector, WeightMatrix


def unit_row(rng, dim):
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return SparseVector(np.arange(dim, dtype=np.int64), v, dim, check=False)


@pytest.fixture
def setup():
    rng = np.random.default_rng(0)
    C, d, n = 25, 12, 150
    W = WeightMatrix(C, d)
    for c in range(C):
        W.add_to_row(c, 1.0, unit_row(rng, d))
    examples = [(int(rng.integers(C)), unit_row(rng, d)) for _ in range(n)]
    queries = Dataset(examples, dim=d, num_classes=C)
    rows = [(c, W.materialize_row(c)) for c in range(C)]
    return W, queries, rows


class TestAudit:
    def test_exact_backend_has_zero_delta(self, setup, kernel_cases):
        for W, queries in [setup[:2]] + kernel_cases:
            rows = [(c, W.materialize_row(c)) for c in range(W.num_classes)]
            index = build_index(rows, "exact", dim=W.dim)
            report = audit_inexactness(index, W, queries, epsilon=0.0)
            assert report.delta_hat == 0.0
            assert report.max_gap == 0.0

    def test_infinite_epsilon(self, setup):
        W, queries, rows = setup
        index = build_index(rows, "simplelsh", dim=W.dim, lsh_bits=2,
                            lsh_tables=1, seed=1)
        report = audit_inexactness(index, W, queries, epsilon=math.inf)
        assert report.delta_hat == 0.0

    def test_gaps_nonnegative_and_histogram_complete(self, setup):
        W, queries, rows = setup
        index = build_index(rows, "simplelsh", dim=W.dim, lsh_bits=3,
                            lsh_tables=2, seed=2)
        report = audit_inexactness(index, W, queries, epsilon=0.05)
        assert report.n == len(queries)
        assert report.hist_counts.sum() == report.n
        assert report.hist_edges[0] >= -1e-12  # dominance: gaps never negative
        assert 0.0 <= report.delta_hat <= 1.0
        assert report.mean_gap >= -1e-12

    def test_delta_decreases_with_epsilon(self, setup):
        W, queries, rows = setup
        index = build_index(rows, "swgraph", dim=W.dim, seed=3,
                            swg_ef_search=2, swg_max_neighbors=3)
        deltas = [audit_inexactness(index, W, queries, eps).delta_hat
                  for eps in (0.0, 0.1, 0.5, math.inf)]
        assert deltas == sorted(deltas, reverse=True)
        assert deltas[-1] == 0.0

    def test_labels_out_of_range_fail_closed(self, setup):
        W, queries, rows = setup
        index = build_index(rows, "exact", dim=W.dim)
        examples = queries.examples[:3]
        bad = Dataset([examples[0], (27, examples[1][1]), (30, examples[2][1])],
                      dim=W.dim, num_classes=31)
        with pytest.raises(IndexError, match=r"label 27 out of range \[0, 25\)"):
            audit_inexactness(index, W, bad, epsilon=0.0)

    def test_evaluations_and_audits_share_one_scoring_state(self, kernel_cases,
                                                            scoring_builds):
        """Three evaluations and three audits against one unchanged W build
        its scoring state once; a scale change makes the next one rebuild it."""
        for W, queries in kernel_cases:
            rows = [(c, W.materialize_row(c)) for c in range(W.num_classes)]
            index = build_index(rows, "exact", dim=W.dim)
            scoring_builds.clear()
            reports = [(evaluate(W, queries).accuracy,
                        audit_inexactness(index, W, queries, epsilon=0.0).delta_hat)
                       for _ in range(3)]
            assert len(scoring_builds) == 1 and len(set(reports)) == 1
            W.global_scale(0.5)
            evaluate(W, queries)
            assert len(scoring_builds) == 2

    def test_epsilon_validation(self, setup):
        W, queries, rows = setup
        index = build_index(rows, "exact", dim=W.dim)
        for epsilon in (-0.1, math.nan):
            # with a NaN epsilon no gap would exceed it: a false delta of 0
            message = f"epsilon must be nonnegative, not {epsilon}"
            with pytest.raises(ValueError, match=message):
                audit_inexactness(index, W, queries, epsilon=epsilon)

    def test_report_serializes(self, setup):
        import json
        W, queries, rows = setup
        index = build_index(rows, "exact", dim=W.dim)
        report = audit_inexactness(index, W, queries, epsilon=0.1)
        blob = json.dumps(report.to_dict())
        assert json.loads(blob)["n"] == len(queries)


class TestRecall:
    def test_exact_vs_itself_is_one(self, setup):
        W, queries, rows = setup
        a = build_index(rows, "exact", dim=W.dim)
        b = build_index(rows, "exact", dim=W.dim)
        pairs = [(x, y) for y, x in queries.examples[:50]]
        assert recall_at_1(a, b, pairs) == 1.0

    def test_empty_queries_rejected(self, setup):
        W, _, rows = setup
        index = build_index(rows, "exact", dim=W.dim)
        with pytest.raises(ValueError):
            recall_at_1(index, index, [])
