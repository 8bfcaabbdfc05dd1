"""Small-world graph backend: structure invariants and search quality."""

import numpy as np
import pytest

from mipsvm.mips import NoCandidateError, SwGraphIndex, build_index, recall_at_1
from mipsvm.sparse import SparseVector, WeightMatrix, stack_csr


def sv(pairs, dim):
    return SparseVector.from_pairs(pairs, dim)


def unit_row(rng, dim, scale=1.0):
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return SparseVector(np.arange(dim, dtype=np.int64), scale * v, dim, check=False)


def check_structure(index):
    for c, nbrs in index._adj.items():
        assert c not in nbrs, "self-link"
        for v in nbrs:
            assert c in index._adj[v], "asymmetric link"
        assert len(nbrs) <= index.max_neighbors
    assert index.connected()


class TestStructure:
    def test_inserts_keep_invariants(self):
        rng = np.random.default_rng(0)
        index = SwGraphIndex(12, max_neighbors=4, ef_construction=20,
                             ef_search=8, seed=1)
        for c in range(60):
            index.update_row(c, unit_row(rng, 12))
            check_structure(index)

    def test_update_churn_keeps_invariants(self):
        rng = np.random.default_rng(1)
        index = SwGraphIndex(10, max_neighbors=4, ef_construction=16,
                             ef_search=8, seed=2)
        for c in range(30):
            index.update_row(c, unit_row(rng, 10))
        for _ in range(300):
            c = int(rng.integers(30))
            index.update_row(c, unit_row(rng, 10))
        check_structure(index)
        assert len(index) == 30

    def test_all_zero_rows_still_connect(self):
        index = SwGraphIndex(4, seed=0)
        for c in range(10):
            index.update_row(c, sv({}, 4))
        check_structure(index)

    def test_determinism(self):
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        a = SwGraphIndex(8, seed=5)
        b = SwGraphIndex(8, seed=5)
        for c in range(40):
            a.update_row(c, unit_row(rng1, 8))
            b.update_row(c, unit_row(rng2, 8))
        assert a._adj == b._adj
        assert a._entries == b._entries
        qrng = np.random.default_rng(4)
        for _ in range(20):
            x = unit_row(qrng, 8)
            assert a.query(x, exclude=1) == b.query(x, exclude=1)


class TestQuery:
    def test_empty_and_exclusion_errors(self):
        index = SwGraphIndex(3)
        with pytest.raises(NoCandidateError):
            index.query(sv({0: 1.0}, 3))
        index.update_row(0, sv({0: 1.0}, 3))
        with pytest.raises(NoCandidateError):
            index.query(sv({0: 1.0}, 3), exclude=0)

    def test_two_classes_forced(self):
        rng = np.random.default_rng(5)
        index = build_index([(0, unit_row(rng, 4)), (1, unit_row(rng, 4))],
                            "swgraph", dim=4, seed=6)
        for _ in range(20):
            x = unit_row(rng, 4)
            assert index.query(x, exclude=0)[0] == 1
            assert index.query(x, exclude=1)[0] == 0

    def test_traversal_left_with_the_excluded_class_scans_the_rest(self, monkeypatch):
        rng = np.random.default_rng(8)
        rows = [(c, unit_row(rng, 6)) for c in range(12)]
        graph = build_index(rows, "swgraph", dim=6, seed=9)
        oracle = build_index(rows, "exact", dim=6)
        search, scan = graph._search, graph._scan
        # the traversal surfaces only its best node
        monkeypatch.setattr(graph, "_search", lambda *args: search(*args)[:1])
        scanned = []

        def counted_scan(X, exclude, pools=None):
            scanned.append((X.shape[0], pools is None))
            return scan(X, exclude, pools)

        monkeypatch.setattr(graph, "_scan", counted_scan)
        queries = [unit_row(rng, 6) for _ in range(20)]
        # every other query excludes its best class, the traversal's best
        # node at this size, so only the scan of the rest can answer it
        exclude = [oracle.query(x)[0] if k % 2 else None for k, x in enumerate(queries)]
        X = stack_csr(queries, 6)
        ids, scores = graph.query_batch(X, exclude)
        # one full scan for every row that fell back, beside the pooled one
        assert [n for n, full in scanned if full] == [10]
        want_ids, want_scores = oracle.query_batch(X, exclude)
        assert ids.tolist() == want_ids.tolist()
        np.testing.assert_allclose(scores, want_scores, rtol=1e-12)
        per_row = [graph.query(x, exclude=e) for x, e in zip(queries, exclude)]
        assert [(c, s) for c, s in zip(ids.tolist(), scores.tolist())] == per_row

    def test_exhaustive_ef_matches_exact_oracle(self):
        # ef_search >= node count on a connected graph visits everything
        rng = np.random.default_rng(6)
        rows = [(c, unit_row(rng, 10)) for c in range(30)]
        graph = build_index(rows, "swgraph", dim=10, seed=7,
                            swg_ef_search=64)
        oracle = build_index(rows, "exact", dim=10)
        queries = [(unit_row(rng, 10), int(rng.integers(30)))
                   for _ in range(100)]
        assert recall_at_1(graph, oracle, queries) == 1.0

    def test_recall_monotone_in_ef_search(self):
        rng = np.random.default_rng(7)
        rows = [(c, unit_row(rng, 16)) for c in range(300)]
        oracle = build_index(rows, "exact", dim=16)
        queries = [(unit_row(rng, 16), int(rng.integers(300)))
                   for _ in range(150)]
        recalls = []
        for ef in (2, 8, 64):
            graph = build_index(rows, "swgraph", dim=16, seed=8,
                                swg_max_neighbors=8, swg_ef_construction=40,
                                swg_ef_search=ef)
            recalls.append(recall_at_1(graph, oracle, queries))
        assert recalls == sorted(recalls)
        assert recalls[-1] >= 0.9

    def test_returned_score_is_exact(self):
        rng = np.random.default_rng(8)
        rows = {c: unit_row(rng, 6) for c in range(20)}
        index = build_index(sorted(rows.items()), "swgraph", dim=6, seed=9)
        from mipsvm.sparse import dot
        for _ in range(50):
            x = unit_row(rng, 6)
            c, s = index.query(x, exclude=3)
            assert c != 3
            assert s == pytest.approx(dot(rows[c], x), rel=1e-12)
        # no traversal fell back, so the scores came from the stored rows
        # without a scan state
        assert "_full_scan_state" not in vars(index)

    def test_self_retrieval_after_update(self):
        rng = np.random.default_rng(9)
        index = build_index([(c, unit_row(rng, 8, 0.3))
                             for c in range(12)], "swgraph", dim=8, seed=10)
        spike = sv({0: 5.0}, 8)
        index.update_row(7, spike)
        got, _ = index.query(sv({0: 1.0}, 8))
        assert got == 7


class TestRefresh:
    def test_refresh_relinks_as_update_row_does(self):
        """refresh(W2, rows) of an index built from W1 leaves the adjacency,
        entry points and answers that one update_row per row of W2 in the
        same order leaves, though the index reads W2's store throughout:
        each relink reads the rows not yet relinked at their W1 values, and
        the new rows join the graph only at their inserts."""
        rng = np.random.default_rng(11)
        dim, n = 8, 40
        W1 = WeightMatrix.from_rows([(c, unit_row(rng, dim)) for c in range(n)], dim)
        changed = [int(c) for c in rng.choice(n, size=16, replace=False)]
        new = {c: unit_row(rng, dim, rng.uniform(0.5, 2.0)) for c in changed + [n, n + 1]}
        W2 = WeightMatrix.from_rows([(c, new[c] if c in new else W1.materialize_row(c))
                                     for c in range(n + 2)], dim)
        order = changed[:6] + [n] + changed[6:12] + [n + 1] + changed[12:]
        graph, twin = (SwGraphIndex(dim, max_neighbors=4, ef_construction=8,
                                    ef_search=4, seed=12) for _ in range(2))
        for index in (graph, twin):
            index.refresh(W1, range(n))
        graph.refresh(W2, order)
        for c in order:
            twin.update_row(c, W2.materialize_row(c))
        assert graph._block is W2._store
        assert graph._adj == twin._adj
        assert graph._entries == twin._entries
        check_structure(graph)
        queries = [unit_row(rng, dim) for _ in range(40)]
        X = stack_csr(queries, dim)
        exclude = [None if k % 3 else int(rng.integers(n + 2)) for k in range(40)]
        for got, want in zip(graph.query_batch(X, exclude), twin.query_batch(X, exclude)):
            assert got.tobytes() == want.tobytes()
