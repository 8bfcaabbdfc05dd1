"""Exact MIPS backend against a naive per-row scan."""

import sys
import threading

import numpy as np
import pytest

from mipsvm.mips import ExactIndex, NoCandidateError, build_index
from mipsvm.sparse import SparseVector, dot


def sv(pairs, dim):
    return SparseVector.from_pairs(pairs, dim)


def random_sparse(rng, dim, max_nnz=8):
    nnz = int(rng.integers(1, min(max_nnz, dim) + 1))
    idx = np.sort(rng.choice(dim, size=nnz, replace=False))
    return SparseVector(idx, rng.standard_normal(nnz), dim)


def naive_query(rows, x, exclude):
    """Reference scan: max exact dot, ties to the smallest class id."""
    best = None
    for c in sorted(rows):
        if c == exclude:
            continue
        s = dot(rows[c], x)
        if best is None or s > best[1]:
            best = (c, s)
    if best is None:
        raise NoCandidateError("empty")
    return best


class TestBuild:
    def test_duplicate_class_id(self):
        rows = [(0, sv({0: 1.0}, 2)), (0, sv({1: 1.0}, 2))]
        with pytest.raises(ValueError, match="duplicate"):
            build_index(rows, "exact", dim=2)

    def test_dim_mismatch(self):
        rows = [(0, sv({0: 1.0}, 2)), (1, sv({1: 1.0}, 3))]
        with pytest.raises(ValueError, match="dim"):
            build_index(rows, "exact", dim=2)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            build_index([], "btree", dim=2)

    def test_empty_index_queries_fail(self):
        index = build_index([], "exact", dim=3)
        with pytest.raises(NoCandidateError):
            index.query(sv({0: 1.0}, 3))

    def test_exclusion_exhausts_single_row(self):
        index = build_index([(4, sv({0: 1.0}, 2))], "exact", dim=2)
        with pytest.raises(NoCandidateError):
            index.query(sv({0: 1.0}, 2), exclude=4)
        # without exclusion the row is returned
        assert index.query(sv({0: 1.0}, 2)) == (4, 1.0)


class TestQuery:
    def test_hand_example(self):
        rows = [(0, sv({0: 1.0}, 2)), (1, sv({1: 1.0}, 2)),
                (2, sv({0: 0.5, 1: 0.5}, 2))]
        index = build_index(rows, "exact", dim=2)
        assert index.query(sv({0: 1.0}, 2), exclude=0) == (2, 0.5)

    def test_two_classes_forced(self):
        rows = [(0, sv({0: 1.0}, 2)), (1, sv({1: 1.0}, 2))]
        index = build_index(rows, "exact", dim=2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = random_sparse(rng, 2)
            c, _ = index.query(x, exclude=0)
            assert c == 1

    def test_ties_break_to_smallest_id(self):
        rows = [(c, sv({}, 3)) for c in range(5)]
        index = build_index(rows, "exact", dim=3)
        assert index.query(sv({0: 1.0}, 3))[0] == 0
        assert index.query(sv({0: 1.0}, 3), exclude=0)[0] == 1

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(12)
        rows = {c: random_sparse(rng, 30) for c in range(100)}
        index = build_index(sorted(rows.items()), "exact", dim=30)
        for _ in range(100):
            x = random_sparse(rng, 30)
            exclude = int(rng.integers(100)) if rng.random() < 0.5 else None
            got = index.query(x, exclude=exclude)
            want = naive_query(rows, x, exclude)
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-14)


class TestUpdateRow:
    def test_self_retrieval_after_update(self):
        rng = np.random.default_rng(2)
        rows = [(c, random_sparse(rng, 10)) for c in range(5)]
        index = build_index(rows, "exact", dim=10)
        strong = sv({0: 10.0}, 10)
        index.update_row(3, strong)
        assert index.query(sv({0: 1.0}, 10))[0] == 3

    def test_idempotent_update(self):
        rng = np.random.default_rng(3)
        rows = [(c, random_sparse(rng, 10)) for c in range(6)]
        index = build_index(rows, "exact", dim=10)
        queries = [random_sparse(rng, 10) for _ in range(20)]
        before = [index.query(x, exclude=2) for x in queries]
        index.update_row(4, rows[4][1])
        after = [index.query(x, exclude=2) for x in queries]
        assert before == after

    def test_interleaved_updates_match_naive(self):
        rng = np.random.default_rng(4)
        rows = {c: random_sparse(rng, 15) for c in range(10)}
        index = build_index(sorted(rows.items()), "exact", dim=15)
        for _ in range(500):
            if rng.random() < 0.4:
                c = int(rng.integers(10))
                row = random_sparse(rng, 15)
                rows[c] = row
                index.update_row(c, row)
            else:
                x = random_sparse(rng, 15)
                exclude = int(rng.integers(10)) if rng.random() < 0.5 else None
                got = index.query(x, exclude=exclude)
                want = naive_query(rows, x, exclude)
                assert got[0] == want[0]

    def test_update_dim_mismatch(self):
        index = ExactIndex(4)
        with pytest.raises(ValueError):
            index.update_row(0, sv({0: 1.0}, 5))

    def test_class_ids(self):
        index = build_index([(3, sv({}, 2)), (1, sv({}, 2))], "exact", dim=2)
        assert index.class_ids() == [1, 3]
        assert len(index) == 2


@pytest.mark.parametrize("kind", ["exact", "simplelsh"])
def test_concurrent_first_queries_after_update(kind):
    """Threads racing to build the scan state all see a whole, current one."""
    rng = np.random.default_rng(31)
    dim, C = 12, 40
    index = build_index([(c, random_sparse(rng, dim)) for c in range(C)], kind, dim=dim)
    queries = [(random_sparse(rng, dim), int(rng.integers(C))) for _ in range(30)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for step in range(5):
            index.update_row(step, random_sparse(rng, dim))  # replaces a row
            index.update_row(C + step, random_sparse(rng, dim))  # adds a class
            results = [None] * 4
            start = threading.Barrier(4)

            def work(i):
                start.wait(timeout=60)
                results[i] = [index.query(x, exclude=e) for x, e in queries]

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            want = [index.query(x, exclude=e) for x, e in queries]
            assert results == [want] * 4
    finally:
        sys.setswitchinterval(old)
