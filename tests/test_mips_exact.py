"""Exact MIPS backend against a naive per-row scan."""

import sys
import threading

import numpy as np
import pytest
from scipy import sparse as sp

from mipsvm import sparse
from mipsvm.dataio import Dataset
from mipsvm.margin import exact_margin, inexact_margin
from mipsvm.metrics import predict, predict_batch
from mipsvm.mips import (ExactIndex, MipsIndex, NoCandidateError, audit_inexactness,
                         build_index, index_from_matrix, recall_at_1)
from mipsvm.sparse import SparseVector, WeightMatrix, dot

# small graph and LSH settings, so that neither backend is an exact scan
BACKEND_PARAMS = {"exact": {}, "simplelsh": {"lsh_bits": 5, "lsh_tables": 4},
                  "swgraph": {"swg_max_neighbors": 3, "swg_ef_construction": 4,
                              "swg_ef_search": 2}}


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

    def test_empty_index_queries_fail(self, as_block):
        index = build_index([], "exact", dim=3)
        with pytest.raises(NoCandidateError):
            index.query(sv({0: 1.0}, 3))
        with pytest.raises(NoCandidateError):
            index.query_batch(as_block([sv({0: 1.0}, 3)], 3), [None])

    def test_exclusion_exhausts_single_row(self, as_block):
        index = build_index([(0, sv({0: 1.0}, 2))], "exact", dim=2)
        with pytest.raises(NoCandidateError):
            index.query(sv({0: 1.0}, 2), exclude=0)
        with pytest.raises(NoCandidateError):
            index.query_batch(as_block([sv({0: 1.0}, 2)] * 2, 2), [None, 0])
        # without exclusion the row is returned
        assert index.query(sv({0: 1.0}, 2)) == (0, 1.0)
        ids, scores = index.query_batch(as_block([sv({0: 1.0}, 2)] * 2, 2), [None, 7])
        assert (ids.tolist(), scores.tolist()) == ([0, 0], [1.0, 1.0])


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


@pytest.mark.parametrize("kind", ["exact", "simplelsh"])
def test_concurrent_first_queries_after_update(kind, monkeypatch, kernel_workers):
    """Threads racing to build the scan state all see a whole, current one,
    with every kernel call's pieces on a 2-worker pool they share."""
    monkeypatch.setattr(sparse, "MIN_PIECE_ENTRIES", 1)
    kernel_workers(2)
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


def test_screen_set_up_is_made_once_per_index_state(state_of):
    """Dense query blocks against a dense index go through score_block's
    BLAS screen.  Its O(d x C) set-up is kept with the scan state: made by
    the first query_batch after an update, reused by the next ones, and
    the answers are the CSR state's, bit for bit."""
    rng = np.random.default_rng(34)
    dim, C, n = 16, 30, 40
    setups = []
    W = rng.standard_normal((C, dim))
    index = build_index([(c, SparseVector(np.arange(dim), W[c], dim)) for c in range(C)],
                        "exact", dim=dim)
    X = sp.csr_matrix(rng.standard_normal((n, dim)))
    exclude = rng.integers(C, size=n)
    for _ in range(2):
        want = sparse.score_block(X, state_of(W, False), exclude=exclude)
        held = []
        for _ in range(3):
            ids, scores = index.query_batch(X, exclude.tolist())
            assert ids.tobytes() == want[0].tobytes()
            assert scores.tobytes() == want[1].tobytes()
            held.append(vars(vars(index)["_full_scan_state"])["screen_setup"])
        assert held[1] is held[0] and held[2] is held[0]
        setups.append(held[0])
        W[3] = rng.standard_normal(dim)
        index.update_row(3, SparseVector(np.arange(dim), W[3], dim))
        assert "_full_scan_state" not in vars(index)
    assert setups[0] is not setups[1]


def race(work, threads=4):
    """Run ``work(i)`` on ``threads`` threads released at once by a barrier
    and return the results in thread order."""
    results = [None] * threads
    start = threading.Barrier(threads)

    def run(i):
        start.wait(timeout=60)
        results[i] = work(i)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in pool)
    return results


def test_concurrent_first_dense_queries_share_the_screen(state_of):
    """Threads racing to make a fresh state, or a fresh state's derived
    pieces, each read a whole one: every dense query_batch, racing on the
    index's scan state or (every other step) only on its screen's set-up,
    gives the CSR state's answers, and every W.score_pairs racing against
    one fresh sparse W, which builds no state, gives the CSR product's
    floats."""
    rng = np.random.default_rng(35)
    dim, C, n = 16, 30, 40
    W = rng.standard_normal((C, dim))
    index = build_index([(c, SparseVector(np.arange(dim), W[c], dim)) for c in range(C)],
                        "exact", dim=dim)
    blocks = [sp.csr_matrix(rng.standard_normal((n, dim))) for _ in range(4)]
    exclude = rng.integers(C, size=n)
    sparse_dim = 400
    Ws = WeightMatrix.from_rows([(c, random_sparse(rng, sparse_dim, max_nnz=30))
                                 for c in range(C)], sparse_dim)
    sparse_blocks = [sp.random(n, sparse_dim, density=0.05, format="csr", random_state=rng)
                     for _ in range(4)]
    pairs = [rng.integers(C, size=n) for _ in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for step in range(5):
            W[step] = rng.standard_normal(dim)
            index.update_row(step, SparseVector(np.arange(dim), W[step], dim))
            if step % 2:
                index._full_scan_state  # the race is then on the screen's set-up
            results = race(lambda i: index.query_batch(blocks[i], exclude.tolist()))
            for X, (ids, scores) in zip(blocks, results):
                want = sparse.score_block(X, state_of(W, False), exclude=exclude)
                assert ids.tobytes() == want[0].tobytes()
                assert scores.tobytes() == want[1].tobytes()

            Ws.add_to_row(step, 1.0, random_sparse(rng, sparse_dim))
            results = race(lambda i: Ws.score_pairs(sparse_blocks[i], pairs[i]))
            assert "_scoring_state" not in vars(Ws)
            product = state_of(Ws.to_csr(), False)
            for X, classes, got in zip(sparse_blocks, pairs, results):
                want = sparse.score_block(X, product, at=classes)[2]
                assert got.tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize("kind", ["exact", "simplelsh", "swgraph"])
def test_query_batch_matches_query(kind, kernel_cases, as_block):
    """One query_batch call gives every row's query answer, bit for bit,
    also from a block whose rows hold their entries out of order.

    The kernel cases bring score ties (a duplicated and an all-zero class
    row, examples with no nonzeros) and chunk boundaries; the excludes mix
    an indexed id, an id the index does not hold, and None.
    """
    params = {"exact": {}, "simplelsh": {"lsh_bits": 3, "lsh_tables": 2},
              "swgraph": {"swg_ef_search": 2, "swg_max_neighbors": 3}}[kind]
    for W, data in kernel_cases:
        index = build_index([(c, W.materialize_row(c)) for c in range(W.num_classes)],
                            kind, dim=W.dim, seed=1, **params)
        xs = [x for _, x in data.examples]
        X = as_block(xs, W.dim)
        mixed = [(y, W.num_classes + 3, None)[i % 3]
                 for i, (y, _) in enumerate(data.examples)]
        # the same block with every row's entries in reverse order
        flipped = np.concatenate([np.arange(hi - 1, lo - 1, -1)
                                  for lo, hi in zip(X.indptr[:-1], X.indptr[1:])])
        unsorted = sp.csr_matrix((X.data[flipped], X.indices[flipped], X.indptr),
                                 shape=X.shape)
        for exclude in ([None] * len(xs), mixed, data.labels_array()):
            want = [index.query(x, exclude=e) for x, e in zip(xs, exclude)]
            for block in (X, unsorted):
                ids, scores = index.query_batch(block, exclude)
                assert ids.tolist() == [c for c, _ in want]
                assert scores.tolist() == [s for _, s in want]
        empty = index.query_batch(as_block([], W.dim), [])
        assert [a.size for a in empty] == [0, 0]


@pytest.mark.parametrize("model", ["dense_l2", "sparse_l1"])
@pytest.mark.parametrize("kind", ["exact", "simplelsh", "swgraph"])
def test_query_batch_scores_are_the_kernel_floats(kind, model, trained_models,
                                                  assert_same_floats):
    """Every backend returns its classes' exact scores: score_block's
    floats for those classes over the index's own stored rows."""
    W, data = trained_models[model]
    index = index_from_matrix(W, kind, seed=1, **BACKEND_PARAMS[kind])
    X = data.to_csr()
    ids, scores = index.query_batch(X, data.labels_array())
    _, _, want = sparse.score_block(X, sparse.ScoringState(W.to_csr()), at=ids)
    assert_same_floats([scores], [want])


@pytest.mark.parametrize("kind", ["exact", "simplelsh", "swgraph"])
def test_query_batch_rejects_a_bad_block(kind, as_block):
    """A block of the wrong width, with a feature index outside it, with a
    non-finite value or with another number of excludes than rows fails
    closed, on every backend."""
    rng = np.random.default_rng(32)
    index = build_index([(c, random_sparse(rng, 6)) for c in range(5)], kind, dim=6)
    xs = [random_sparse(rng, 6) for _ in range(3)]
    with pytest.raises(ValueError, match="width 7 does not match index dim 6"):
        index.query_batch(as_block([sv({0: 1.0}, 7)], 7), [None])
    for column in (7, -1):
        X = as_block(xs, 6)
        X.indices[-1] = column
        with pytest.raises(ValueError, match=rf"row 2 holds the feature index {column}, "
                                             r"outside \[0, 6\)"):
            index.query_batch(X, [None] * 3)
    for bad in (np.nan, np.inf):
        X = as_block(xs, 6)
        X.data[-1] = bad
        with pytest.raises(ValueError, match="row 2 holds the non-finite"):
            index.query_batch(X, [None] * 3)
    with pytest.raises(ValueError, match="2 excludes for 3 queries"):
        index.query_batch(as_block(xs, 6), [None] * 2)


@pytest.mark.parametrize("kind", ["exact", "simplelsh", "swgraph"])
def test_negative_class_ids_are_answered_and_excluded(kind, as_block):
    """A class id is its store position.  A negative, repeated, gapped or
    out-of-order new id is refused with ValueError naming it, and the
    index is left as it was.  An exclude of None or of an id outside
    [0, len), negative ones included, masks nothing, and one inside masks
    its class only.  The excludes give the same answers, to the byte, as a
    list, a tuple or (with no None) an int64 array; a block of no rows gets
    no answers, even from an empty index, and a one-row index whose row is
    excluded has none."""
    rows = [(0, sv({0: 3.0}, 2)), (1, sv({0: 2.0}, 2)), (2, sv({0: 1.0}, 2))]
    index = build_index(rows, kind, dim=2, seed=1, **BACKEND_PARAMS[kind])
    before = backend_state(index)
    for ids, message in (([-1], "negative class id -1"), ([1, 3, 1], "duplicate class id 1"),
                         ([4], "class id 4 is not the next new id 3"),
                         ([0, 4, 3], "class id 4 is not the next new id 3")):
        with pytest.raises(ValueError, match=message):
            index.update_rows(ids, as_block([sv({1: 1.0}, 2)] * len(ids), 2))
    assert backend_state(index) == before
    with pytest.raises(ValueError, match="class id 1 is not the next new id 0"):
        build_index(rows[1:2] + rows[:1], kind, dim=2)
    X = as_block([sv({0: 1.0}, 2)] * 4, 2)
    ids, scores = index.query_batch(X, [None, 0, 1, 7])
    assert ids.tolist() == [0, 1, 0, 0]
    assert scores.tolist() == [3.0, 2.0, 3.0, 3.0]

    def forms(exclude):
        given = [list(exclude), tuple(exclude)]
        return given if None in exclude else given + [np.array(exclude, dtype=np.int64)]

    for exclude, want in (([None, 0, 1, 7], [0, 1, 0, 0]),
                          ([-1, 0, -3, 3], [0, 1, 0, 0]),
                          ([None] * 4, [0] * 4)):
        answers = [tuple(a.tobytes() for a in index.query_batch(X, form))
                   for form in forms(exclude)]
        assert answers == answers[:1] * len(answers)
        assert index.query_batch(X, exclude)[0].tolist() == want
    empty = build_index([], kind, dim=2, seed=1, **BACKEND_PARAMS[kind])
    for held in (index, empty):
        for exclude in forms([]):
            assert [a.size for a in held.query_batch(as_block([], 2), exclude)] == [0, 0]
    single = build_index([(0, sv({0: 1.0}, 2))], kind, dim=2, seed=1,
                         **BACKEND_PARAMS[kind])
    for exclude in forms([0]) + forms([None, 0]):
        with pytest.raises(NoCandidateError):
            single.query_batch(as_block([sv({0: 1.0}, 2)] * len(exclude), 2), exclude)
    for exclude in forms([-1]) + forms([1]) + forms([None]):
        assert single.query_batch(as_block([sv({0: 1.0}, 2)], 2), exclude)[0].tolist() == [0]


class FixedPools(MipsIndex):
    """A backend proposing ``plan[i % len(plan)]`` for row i: a pool of
    store positions, empty for the full scan.  Its classes are 0..C-1, so
    a class's position is its id."""

    kind = "fixed-pools"

    def __init__(self, dim, plan):
        super().__init__(dim)
        self.plan = plan

    def _candidates(self, X, excluded):
        pools = [self.plan[i % len(self.plan)] for i in range(X.shape[0])]
        return (np.cumsum([0] + [len(pool) for pool in pools]),
                np.array([c for pool in pools for c in pool], dtype=np.int64))


def test_query_batch_scores_each_proposal(kernel_cases, as_block):
    """Through the _candidates hook alone, a row with an empty pool gets the exact
    backend's answer and a pooled row score_block's best of that pool, bit
    for bit, and every row is counted.  The pools hold the kernel cases'
    tied classes: rows 1 and 4 are one row, and row 6 is all zero."""
    plan = [[], [2], [0, 3, 5], [], [1, 4], [6], [1, 4, 6]]
    for W, data in kernel_cases:
        rows = [(c, W.materialize_row(c)) for c in range(W.num_classes)]
        index, exact = FixedPools(W.dim, plan), build_index(rows, "exact", dim=W.dim)
        index.update_rows(range(W.num_classes), W.to_csr())
        X = as_block([x for _, x in data.examples], W.dim)
        indptr, members = index._candidates(*index._check_batch(X, [None] * X.shape[0]))
        pools = [members[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]
        # a row's label is excluded wherever its pool leaves it out
        exclude = [y if y not in pool else None
                   for y, pool in zip(data.labels_array().tolist(), pools)]
        ids, scores = index.query_batch(X, exclude)
        state = sparse.ScoringState(W.to_csr())
        for i, (pool, e) in enumerate(zip(pools, exclude)):
            if not pool:
                want = exact.query_batch(X[i], [e])
            else:
                among = sp.csr_matrix(([True] * len(pool), pool, [0, len(pool)]),
                                      shape=(1, W.num_classes))
                want = sparse.score_block(X[i], state, among=among)[:2]
            assert (ids[i], scores[i].tobytes()) == (want[0][0], want[1][0].tobytes())
        assert index.counters() == {"queries": len(pools),
                                    "fallbacks": sum(not pool for pool in pools)}


@pytest.mark.parametrize("kind", ["exact", "simplelsh", "swgraph"])
def test_every_backend_answers_through_the_base_query_batch(kind, monkeypatch, as_block):
    """No backend keeps a query_batch of its own, and every one counts the
    rows it is asked.  Exact leaves every row to one scan of the checked
    block itself."""
    rng = np.random.default_rng(33)
    index = build_index([(c, random_sparse(rng, 6)) for c in range(12)], kind,
                        dim=6, seed=1, **BACKEND_PARAMS[kind])
    assert "query_batch" not in vars(type(index))
    scan, scanned = index._scan, []

    def recorded_scan(X, exclude, pools=None):
        scanned.append((X, pools))
        return scan(X, exclude, pools)

    monkeypatch.setattr(index, "_scan", recorded_scan)
    X = as_block([random_sparse(rng, 6) for _ in range(9)], 6)
    index.query_batch(X, [None, 3] * 4 + [None])
    index.query(random_sparse(rng, 6), exclude=5)
    counts = index.counters()
    assert counts["queries"] == 10
    if kind == "exact":
        assert counts["fallbacks"] == 10
        assert scanned[0][0] is X and scanned[0][1] is None


def backend_state(index):
    """Everything an update writes: the row store and the backend's own
    structures (simplelsh's U, bucket keys and rebuild count, swgraph's
    adjacency and entry points)."""
    B = index._block
    state = [B.indptr.tolist(), B.indices.tolist(), B.data.tolist()]
    if index.kind == "simplelsh":
        state += [index._U, index._keys.tobytes(), index.rebuild_count]
    if index.kind == "swgraph":
        state += [index._adj, index._entries]
    return state


def assert_same_answers(a, b, X, exclude):
    for got, want in zip(a.query_batch(X, exclude), b.query_batch(X, exclude)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grow", [False, True])
@pytest.mark.parametrize("kind", ["exact", "simplelsh", "swgraph"])
def test_update_rows_equals_update_row_per_row(kind, grow, as_block):
    """update_rows(ids, block) leaves an index as one update_row per row in
    the given order does: the same store, structures and answers.  The block
    replaces some classes and appends others, in descending norm order as
    the trainer passes them, the new ids ascending wherever that order puts
    them; with ``grow`` its norms pass simplelsh's U, which costs one
    rebuild.  simplelsh reaches the same state with the replaced rows in
    any order."""
    rng = np.random.default_rng(21)
    dim = 9

    def row(low, high):
        v = rng.standard_normal(dim)
        return SparseVector(np.arange(dim), v * rng.uniform(low, high) / np.linalg.norm(v),
                            dim)

    rows = [(c, row(0.5, 0.9)) for c in range(30)]
    rows[4] = (4, row(1.0, 1.0))  # U = 1
    top = 3.0 if grow else 0.95
    items = [(int(c), row(0.1, top)) for c in rng.choice(30, size=12, replace=False)]
    items += [(None, row(0.1, top)) for _ in range(3)]  # new classes
    items.sort(key=lambda item: -item[1].norm())
    new = iter(range(30, 33))
    items = [(next(new) if c is None else c, r) for c, r in items]
    shuffled = ([items[k] for k in rng.permutation(len(items)) if items[k][0] < 30]
                + [item for item in items if item[0] >= 30])
    batched, serial, unordered = (build_index(rows, kind, dim=dim, seed=3,
                                              **BACKEND_PARAMS[kind]) for _ in range(3))
    rebuilds = getattr(batched, "rebuild_count", 0)
    batched.update_rows([c for c, _ in items], as_block([r for _, r in items], dim))
    for c, r in items:
        serial.update_row(c, r)
    assert backend_state(batched) == backend_state(serial)
    X = as_block([row(0.1, 1.0) for _ in range(40)], dim)
    exclude = [None if k % 3 else int(rng.integers(33)) for k in range(40)]
    assert_same_answers(batched, serial, X, exclude)
    if kind == "simplelsh":
        assert batched.rebuild_count - rebuilds == int(grow)
        unordered.update_rows([c for c, _ in shuffled],
                              as_block([r for _, r in shuffled], dim))
        assert backend_state(unordered) == backend_state(serial)


@pytest.mark.parametrize("kind", ["exact", "simplelsh", "swgraph"])
def test_update_rows_rejects_a_bad_block(kind, as_block):
    """A block of the wrong width, with a feature index outside it, with a
    non-finite value, with a duplicate id or with another number of ids
    than rows changes nothing, on every backend.  The bad part comes last,
    after rows that an update taken row by row would already have written."""
    rng = np.random.default_rng(33)
    index = build_index([(c, random_sparse(rng, 6)) for c in range(5)], kind, dim=6,
                        **BACKEND_PARAMS[kind])
    before = backend_state(index)
    good = as_block([random_sparse(rng, 6) for _ in range(3)], 6)
    for bad in (np.nan, np.inf):
        non_finite = good.copy()
        non_finite.data[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            index.update_rows([5, 6, 7], non_finite)
    for column in (7, -1):
        outside = good.copy()
        outside.indices[-1] = column
        with pytest.raises(ValueError, match=rf"row 2 holds the feature index {column}"):
            index.update_rows([5, 6, 7], outside)
    wide = as_block([random_sparse(rng, 7) for _ in range(3)], 7)
    with pytest.raises(ValueError, match="width 7 does not match index dim 6"):
        index.update_rows([5, 6, 7], wide)
    with pytest.raises(ValueError, match="duplicate class id"):
        index.update_rows([5, 6, np.int64(5)], good)
    with pytest.raises(ValueError, match="2 class ids for 3 rows"):
        index.update_rows([5, 6], good)
    with pytest.raises(ValueError, match="width 5 does not match index dim 6"):
        index.update_row(5, random_sparse(rng, 5))
    assert len(index) == 5
    assert backend_state(index) == before


@pytest.mark.parametrize("kind", ["exact", "simplelsh", "swgraph"])
def test_refresh_rejects_a_class_outside_w(kind):
    """refresh(W, rows) with a row past W's last class or negative, after
    rows that a relink taken row by row would already have redone, raises
    the IndexError naming it and changes nothing, on every backend: the
    index keeps the store it held, its structures and so its answers."""
    rng = np.random.default_rng(35)
    W = WeightMatrix.from_rows([(c, random_sparse(rng, 6)) for c in range(5)], 6)
    index = build_index([], kind, dim=6, **BACKEND_PARAMS[kind])
    index.refresh(W, range(5))
    store, before = index._block, backend_state(index)
    W.add(sp.csr_matrix(np.ones((5, 6))))
    for rows in ([2, 9], [4, -1], [5]):
        with pytest.raises(IndexError, match=rf"class id {rows[-1]} out of range \[0, 5\)"):
            index.refresh(W, rows)
        assert index._block is store
        assert backend_state(index) == before


@pytest.mark.parametrize("kind", ["exact", "simplelsh", "swgraph"])
def test_index_from_matrix_equals_the_materialized_rows(kind, as_block):
    """index_from_matrix(W, kind) holds and answers exactly what build_index
    over W.materialize_row does: the scale folded in, and a stored value that
    the scale underflows to 0 dropped, not kept as an explicit zero."""
    rng = np.random.default_rng(34)
    dim = 10
    rows = [(c, random_sparse(rng, dim)) for c in range(12)]
    rows.append((12, SparseVector([2, 5], [5e-324, 1.0], dim)))
    W = WeightMatrix.from_rows(rows, dim)
    W.global_scale(0.4)
    assert W.scale == 0.4 and W.materialize_row(12).nnz == 1  # 0.4 * 5e-324 is 0
    got = index_from_matrix(W, kind, seed=2, **BACKEND_PARAMS[kind])
    want = build_index([(c, W.materialize_row(c)) for c in range(W.num_classes)],
                       kind, dim=dim, seed=2, **BACKEND_PARAMS[kind])
    assert backend_state(got) == backend_state(want)
    X = as_block([random_sparse(rng, dim) for _ in range(40)], dim)
    exclude = [None if k % 3 else int(rng.integers(13)) for k in range(40)]
    assert_same_answers(got, want, X, exclude)


# every entry point that stacks SparseVectors, with the message naming the
# one of another dim: a list's entry by its position, and a single vector,
# a batch of one, by the width of the block it makes
DIM_ENTRIES = {
    "Dataset": (lambda index, W, good, bad: Dataset([(0, good), (1, bad)], 4, 3),
                "example 1 has dim 5, expected 4"),
    "from_rows": (lambda index, W, good, bad: WeightMatrix.from_rows([(0, good), (2, bad)], 4),
                  "row 1 has dim 5, expected 4"),
    "build_index": (lambda index, W, good, bad: build_index([(0, good), (1, bad)], "exact",
                                                            dim=4),
                    "row 1 has dim 5, expected 4"),
    "recall_at_1": (lambda index, W, good, bad: recall_at_1(index, index,
                                                            [(good, None), (bad, 0)]),
                    "query 1 has dim 5, expected 4"),
    "query": (lambda index, W, good, bad: index.query(bad),
              "block width 5 does not match index dim 4"),
    "update_row": (lambda index, W, good, bad: index.update_row(1, bad),
                   "block width 5 does not match index dim 4"),
    "predict": (lambda index, W, good, bad: predict(W, bad),
                "block width 5 does not match the state's 4"),
    "exact_margin": (lambda index, W, good, bad: exact_margin(W, bad, 0),
                     "block width 5 does not match the state's 4"),
    "inexact_margin": (lambda index, W, good, bad: inexact_margin(index, W, bad, 0),
                       "block width 5 does not match index dim 4"),
}


@pytest.mark.parametrize("entry", DIM_ENTRIES)
def test_a_vector_of_another_dim_is_named_and_changes_nothing(entry):
    """A vector of another dim than the one expected fails closed at every
    entry point, with the message that names it, and leaves W and the index
    as they were."""
    call, message = DIM_ENTRIES[entry]
    rng = np.random.default_rng(34)
    rows = [(c, random_sparse(rng, 4)) for c in range(3)]
    W = WeightMatrix.from_rows(rows, 4)
    index = build_index(rows, "exact", dim=4)
    before = backend_state(index), index.counters(), W.to_csr().toarray()
    good, bad = random_sparse(rng, 4), SparseVector([0, 4], [1.0, 2.0], 5)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(index, W, good, bad)
    after = backend_state(index), index.counters(), W.to_csr().toarray()
    assert after[:2] == before[:2]
    np.testing.assert_array_equal(after[2], before[2])


def test_an_exclude_that_is_not_a_whole_number_fails_closed():
    """A fractional or non-finite exclude used to be truncated to a class
    id, and excluded that class."""
    index = build_index([(c, sv({c: 1.0}, 4)) for c in range(4)], "exact", dim=4)
    X = sp.csr_matrix(np.eye(4)[:3])
    for exclude, first in ((np.array([1.9, 0.2, 3.99]), "1.9"),
                           (np.array([1.0, np.nan, 2.0]), "nan")):
        with pytest.raises(ValueError, match=rf"^excluded class {first} is not a whole number$"):
            index.query_batch(X, exclude)
    ids, _ = index.query_batch(X, np.array([0.0, 1.0, 2.0]))
    assert ids.tolist() == [1, 0, 0]
    assert index.counters()["queries"] == 3


def test_an_unsigned_exclude_beyond_int64_fails_closed():
    """A uint64 exclude of 2^63 or more used to wrap to a negative id, which
    excludes nothing: 2^64 - 1 became -1 and row 0 got back class 0."""
    index = build_index([(c, sv({c: 1.0}, 4)) for c in range(4)], "exact", dim=4)
    X = sp.csr_matrix(np.eye(4)[:3])
    for value in (2 ** 63, 2 ** 64 - 1):
        with pytest.raises(ValueError, match=rf"^excluded class {value} is outside "
                                             r"int64's range$"):
            index.query_batch(X, np.array([value, 1, 2], dtype=np.uint64))
    ids, _ = index.query_batch(X, np.array([0, 1, 2], dtype=np.uint64))
    assert ids.tolist() == [1, 0, 0]


def test_a_non_canonical_dataset_is_scored_as_the_exact_index_scores_it():
    """Rows stored shuffled, with a duplicate column and entries that cancel
    (1e16, -1e16): summed in stored order, class 0 scores 1.0, and in
    increasing index order 0.0, below class 1's 0.5.  W.score used to sum
    in stored order and ExactIndex in index order, so predictions and the
    exact backend disagreed and its audit reported a delta of 1.0.  The
    Dataset holds a canonical copy, so every scorer reads one block."""
    rng = np.random.default_rng(34)
    W = WeightMatrix.from_csr(sp.csr_matrix([[1.0, 1.0, 1.0], [0.5, 0.0, 0.0],
                                             [0.0, 0.0, 0.0]]))
    n = 40
    cols, vals = np.array([1, 2, 0, 0]), np.array([1e16, -1e16, 0.5, 0.5])
    order = np.concatenate([rng.permutation(4) for _ in range(n)])
    order[:4] = np.arange(4)  # row 0 in the order that sums to 1.0
    block = sp.csr_matrix((vals[order], cols[order], np.arange(n + 1) * 4), shape=(n, 3))
    assert not block.has_canonical_format
    assert (block[0] @ np.ones(3)).tolist() == [1.0]
    data = Dataset.from_csr(np.full(n, 2), block, 3)
    index = index_from_matrix(W, "exact")
    ids, scores = index.query_batch(data.to_csr(), [None] * n)
    assert ids.tolist() == [1] * n and scores.tolist() == [0.5] * n
    np.testing.assert_array_equal(predict_batch(W, data), ids)
    best, best_scores, _ = W.score(block)
    np.testing.assert_array_equal(best, ids)
    np.testing.assert_array_equal(best_scores, scores)
    report = audit_inexactness(index, W, data, epsilon=0.0)
    assert report.delta_hat == 0.0 and report.max_gap == 0.0
    assert data.to_csr().has_canonical_format
