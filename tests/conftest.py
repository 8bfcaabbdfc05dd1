"""Fixtures shared by the oracle tests of the exact scoring kernel and the
MIPS indexes, and by the memory bounds."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse as sp

from mipsvm import sparse
from mipsvm.dataio import Dataset
from mipsvm.sparse import SparseVector, WeightMatrix
from mipsvm.synth import make_synthetic
from mipsvm.train import TrainConfig, train_l1, train_l2


def _random_rows(rng, count, dim, nnz):
    rows = []
    for _ in range(count):
        idx = np.sort(rng.choice(dim, size=nnz, replace=False))
        rows.append(SparseVector(idx, rng.standard_normal(nnz), dim))
    return rows


@pytest.fixture
def as_block():
    """Stacks SparseVectors of one dim into the CSR block that
    ``MipsIndex.query_batch`` and the SimpleLSH hashing take:
    ``as_block(xs, dim)``."""
    def stack(xs, dim):
        return sparse.stack_csr(xs, dim)
    return stack


@pytest.fixture
def kernel_cases(monkeypatch):
    """(W, data) pairs covering both products of ``sparse.score_block``.

    One class matrix sits below DENSE_SCORING_MIN_DENSITY and one above it.
    Each has a duplicated row and an all-zero row, and the data hold
    examples with no nonzeros, so scores tie.  The block cap is patched so
    that 41 examples span several chunks and the last one is short.
    """
    C, d, n = 7, 60, 41
    monkeypatch.setattr(sparse, "SCORE_BLOCK_ENTRIES", 3 * C - 1)
    rng = np.random.default_rng(21)
    cases = []
    for row_nnz in (3, d):  # densities 0.05 and 1
        rows = _random_rows(rng, C, d, row_nnz)
        rows[4] = rows[1]
        rows[6] = SparseVector([], [], d)
        W = WeightMatrix.from_rows(enumerate(rows), d)
        W.global_scale(0.37)
        xs = _random_rows(rng, n, d, 8)
        xs[::10] = [SparseVector([], [], d)] * len(xs[::10])
        labels = rng.integers(C, size=n)
        cases.append((W, Dataset(list(zip(labels.tolist(), xs)), d, C)))
    assert cases[0][0].nnz() < sparse.DENSE_SCORING_MIN_DENSITY * C * d
    assert cases[1][0].nnz() > sparse.DENSE_SCORING_MIN_DENSITY * C * d
    return cases


@pytest.fixture
def kernel_workers():
    """``kernel_workers(n)`` sets ``sparse.WORKERS`` to n and gives the test a
    fresh kernel pool, made by the first pooled call.  The previous count and
    pool come back afterwards, and a pool made meanwhile is shut down, so the
    pooled paths run under test even on a one-CPU machine."""
    saved = sparse.WORKERS, sparse._pool

    def drop_fresh_pool():
        if sparse._pool not in (None, saved[1]):
            sparse._pool.shutdown()

    def use(workers):
        drop_fresh_pool()
        sparse.WORKERS, sparse._pool = workers, None

    yield use
    drop_fresh_pool()
    sparse.WORKERS, sparse._pool = saved


@pytest.fixture
def scoring_builds(monkeypatch):
    """The class matrices that ``sparse.ScoringState`` builds a scoring
    state from, in call order, from now on.  ``WeightMatrix.score`` looks
    the class up on the module; the MIPS indexes import it by name, so
    their own scan states are not listed."""
    built = []
    original = sparse.ScoringState

    def spy(classes):
        built.append(classes)
        return original(classes)

    monkeypatch.setattr(sparse, "ScoringState", spy)
    return built


@pytest.fixture(scope="session")
def state_of():
    """``state_of(classes, dense)``: the ``sparse.ScoringState`` of the
    C x dim class matrix ``classes`` (an array or CSR), a dense state when
    ``dense`` is true and a CSR one otherwise, whatever its density.  A CSR
    state, scored by the CSR product, is the oracle of a dense one.  An
    array is stored entry by entry, so its -0.0 weights reach the state."""
    def build(classes, dense):
        if not sp.issparse(classes):
            values = np.asarray(classes, dtype=np.float64)
            classes = sp.csr_matrix(np.ones(values.shape))
            classes.data = values.ravel().copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse, "DENSE_SCORING_MIN_DENSITY", 0.0 if dense else np.inf)
            state = sparse.ScoringState(classes)
        assert state.dense == dense
        return state
    return build


@pytest.fixture
def peak_traced_bytes():
    """``peak_traced_bytes(fn)`` calls ``fn`` and gives ``(fn(), peak)``:
    its result and the peak of the memory that Python and numpy allocated
    while it ran, in every thread, as ``tracemalloc`` traces it."""
    def measure(fn):
        tracemalloc.start()
        try:
            result = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak
    return measure


@pytest.fixture(scope="session")
def assert_same_floats():
    """``assert_same_floats(got, want)`` asserts that two sequences of
    arrays (or Nones) hold the same dtypes and bytes, pair by pair."""
    def check(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return check


@pytest.fixture(scope="session")
def trained_models():
    """Seeded trained models with their training sets, by name, whose exact
    scores take each path of ``sparse.score_block``: ``dense_l2`` (50
    classes, scale not 1) through the BLAS screen, ``sparse_l1`` (30
    classes, d = 5000, 20 nonzeros an example) through the CSR product."""
    dense = make_synthetic(num_classes=50, dim=100, n=600, seed=3)
    W2, _ = train_l2(dense, TrainConfig(lam=1e-3, epochs=4, batch_size=100, seed=1))
    rng = np.random.default_rng(4)
    n, d, C = 600, 5000, 30
    block = sp.random(n, d, density=0.004, format="csr", random_state=rng)
    scattered = Dataset.from_csr(rng.integers(C, size=n), block, C)
    W1, _ = train_l1(scattered, TrainConfig(lam=1e-4, epochs=4, batch_size=100, seed=1))
    assert W2.scale != 1.0
    assert W2.nnz() >= sparse.DENSE_SCORING_MIN_DENSITY * 50 * 100
    assert W1.nnz() < sparse.DENSE_SCORING_MIN_DENSITY * C * d
    assert block.nnz < sparse.DENSE_SCREEN_MIN_DENSITY * n * d
    return {"dense_l2": (W2, dense), "sparse_l1": (W1, scattered)}
