"""Sparse vectors, the lazily-scaled per-class weight matrix and the exact
scoring kernel.

Every trainer, search index and metric in this package works on two
structures: :class:`SparseVector` (sorted index/value pairs with an explicit
dimension) and :class:`WeightMatrix` (one CSR of class rows behind a single
scale multiplier, so that scaling the whole matrix is O(1)).
An exact score is the stored-order sum of the CSR product: row i against
class c sums x_ij w_jc over the row's stored entries, in stored order.
:func:`score_block` finds argmaxes, chunk by chunk, against a
:class:`ScoringState`: one copy of the class matrix, dense (densified
blocks go through a BLAS screen that proposes, within a proven rounding
bound, the classes that can be a row's best, and only those are re-scored)
or, when sparse, CSR; :func:`score_pairs` scores (row, class) pairs.  The CSR
product and SimpleLSH's plane pass cut their work into pieces that
:func:`run_pieces` runs on one shared thread pool; scipy's sparse products
and numpy's ufuncs release the interpreter lock, so the pieces run on
every CPU the process may use.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property, partial

import numpy as np
from scipy import sparse as sp

# The shared multiplier is folded back into the stored rows once it leaves
# this range; keeps double precision comfortable during long runs.
SCALE_FOLD_LOW = 1e-8
SCALE_FOLD_HIGH = 1e8

# The chunks that score_block scores at once keep at most 8 x this many
# bytes (32 MiB) alive: their dense scores, 8 bytes each, and with them the
# CSR product's output and among's mask (see score_block).  Against the
# l1-trained sparse-lsh-l1 model (C = 1000, a CSR operand), on both cores
# of a 2-vCPU Xeon, its 4000 test rows took 17-20 ms in chunks of 699 rows
# (13 MiB traced), as long as in chunks of 2097 rows (33 MiB), but 37 ms
# in chunks of 174 rows (a 2^20 cap); its 20000 training rows took 91-105
# ms from 2^21 to 2^23 and 103-147 ms below.
SCORE_BLOCK_ENTRIES = 1 << 22
# Class matrices at least this full are multiplied as a dense array, sparser
# ones as CSR.  Block scoring crossed over between 0.07 (40-nnz rows at
# d = 20k, C = 1000) and 0.12 (dense rows at d = 300, C = 500).
DENSE_SCORING_MIN_DENSITY = 0.1
# A kernel call runs on the pool only when it holds at least WORKERS times
# this many entries (scores, or plane values per chunk); smaller ones run
# inline, where handing pieces to threads costs more than it saves.
MIN_PIECE_ENTRIES = 1 << 15
# Blocks of examples at least this full, and with at least this many rows,
# are scored against a dense state through score_block's BLAS screen,
# other blocks through the CSR product.  The screen's cost hardly depends
# on the block's density, the CSR product's grows with it: with exclude and
# at, on both cores of a 2-vCPU Xeon, the screen won from about 0.17 (4000
# rows, d = 100, C = 1000), 0.27 (4000 rows, d = 300, C = 500) and 0.45
# (2000 rows, d = 2000, C = 200), and was 3.5x faster on full rows at
# d = 300.  Its fixed cost per call and per chunk (an O(d x C) set-up and
# some twenty numpy calls) made one full row 4x slower than the CSR product;
# it won from about 12 rows at those shapes, and in some runs BLAS's second
# thread stalled for 8 to 16 ms on products of 8 to 32 rows.
DENSE_SCREEN_MIN_DENSITY = 0.3
DENSE_SCREEN_MIN_ROWS = 32

# The kernel pool has one thread per CPU this process may run on (every
# CPU where the platform cannot tell).
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
_pool: ThreadPoolExecutor | None = None  # created by the first pooled call
_pool_lock = threading.Lock()


def piece_bounds(n: int, entries: int, longest: int | None = None) -> np.ndarray:
    """Bounds of near-equal contiguous pieces of ``range(n)`` for
    :func:`run_pieces`.  A call holding fewer than WORKERS *
    MIN_PIECE_ENTRIES ``entries`` is one piece; a larger one gets WORKERS
    pieces (at most n), or more where that keeps each piece within
    ``longest``."""
    count = 1
    if entries >= WORKERS * MIN_PIECE_ENTRIES:
        count = max(WORKERS, -(-n // longest) if longest else 1)
    return np.linspace(0, n, max(1, min(n, count)) + 1).astype(np.int64)


def run_pieces(pieces) -> None:
    """Call every zero-argument callable of the list ``pieces`` on the
    shared kernel pool, from at most WORKERS tasks that drain one iterator
    of them, and return once all have finished; the first failing piece's
    failure is raised.  With one worker or one piece they run inline.

    Pieces are leaves: nothing running on the pool submits to it, so the
    callers that wait on it (several at once, say concurrent queries
    against one frozen index) can never deadlock.
    """
    global _pool
    if WORKERS == 1 or len(pieces) <= 1:
        for piece in pieces:
            piece()
        return
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(WORKERS, thread_name_prefix="mipsvm-kernel")
        pool = _pool
    shared, lock, failures = enumerate(pieces), threading.Lock(), []

    def drain():
        while True:
            with lock:
                k, piece = next(shared, (0, None))
            if piece is None:
                return
            try:
                piece()
            except BaseException as exc:
                failures.append((k, exc))

    for task in [pool.submit(drain) for _ in range(min(WORKERS, len(pieces)))]:
        task.result()
    if failures:
        raise min(failures)[1]  # piece numbers are distinct: no exception is compared


class SparseVector:
    """A sparse vector: strictly increasing indices, parallel values, fixed dim."""

    __slots__ = ("indices", "values", "dim")

    def __init__(self, indices, values, dim, *, check=True):
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if check:
            if indices.ndim != 1 or values.ndim != 1:
                raise ValueError("indices and values must be 1-d")
            if indices.shape != values.shape:
                raise ValueError(
                    f"indices/values length mismatch: {indices.size} vs {values.size}"
                )
            if dim < 0:
                raise ValueError("dim must be nonnegative")
            if indices.size:
                if indices[0] < 0:
                    raise ValueError("negative feature index")
                if indices[-1] >= dim:
                    raise ValueError(
                        f"feature index {int(indices[-1])} out of range for dim {dim}"
                    )
                if np.any(indices[1:] <= indices[:-1]):
                    raise ValueError("indices must be strictly increasing")
                if not np.isfinite(values).all():
                    raise ValueError("non-finite value")
        self.indices = indices
        self.values = values
        self.dim = int(dim)

    @classmethod
    def from_pairs(cls, pairs, dim):
        """Build from a dict or iterable of (index, value); drops explicit zeros."""
        items = sorted(pairs.items() if isinstance(pairs, dict) else pairs)
        if items:
            idx = np.array([i for i, _ in items], dtype=np.int64)
            val = np.array([v for _, v in items], dtype=np.float64)
            if idx.size > 1 and np.any(np.diff(idx) == 0):
                raise ValueError("duplicate feature index")
            keep = val != 0.0
            idx, val = idx[keep], val[keep]
        else:
            idx = np.empty(0, dtype=np.int64)
            val = np.empty(0, dtype=np.float64)
        return cls(idx, val, dim)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseVector):
            return NotImplemented
        return (self.dim == other.dim
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.values, other.values))

    def __repr__(self):
        pairs = ", ".join(f"{int(i)}:{v:g}" for i, v in
                          zip(self.indices[:6], self.values[:6]))
        tail = ", ..." if self.nnz > 6 else ""
        return f"SparseVector({{{pairs}{tail}}}, dim={self.dim})"


def _dot_arrays(ai, av, bi, bv) -> float:
    """Sum of the products over shared indices, in the shorter array's
    order.  A clipped ``take`` finds the matches: a search position past
    the end lands on ``bi``'s last index, which is below the searched one.
    Array methods skip numpy's function dispatch, the bulk of a small call.
    """
    if ai.size > bi.size:
        ai, av, bi, bv = bi, bv, ai, av
    if ai.size == 0:
        return 0.0
    pos = bi.searchsorted(ai)
    hit = bi.take(pos, mode="clip") == ai
    return float(av[hit].dot(bv[pos[hit]]))


def dot(a: SparseVector, b: SparseVector) -> float:
    """Exact sparse inner product: the kernel's float for row ``a`` against
    a class row ``b``, the same for ``b`` against ``a``.  The matches are
    found as :func:`_dot_arrays` finds them (which ranks swgraph's
    traversal in BLAS's order), but their products are added left to right
    by ``add.accumulate``, and + 0.0 turns its one possible difference from
    the kernel's sum, which starts from +0.0, a -0.0 total, into +0.0."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    ai, av, bi, bv = a.indices, a.values, b.indices, b.values
    if ai.size > bi.size:
        ai, av, bi, bv = bi, bv, ai, av
    if ai.size == 0:
        return 0.0
    pos = bi.searchsorted(ai)
    hit = bi.take(pos, mode="clip") == ai
    products = av[hit] * bv[pos[hit]]
    return float(np.add.accumulate(products)[-1]) + 0.0 if products.size else 0.0


def stack_csr(indices, values, dim: int) -> sp.csr_matrix:
    """Stack per-row sorted index arrays and their value arrays into CSR."""
    indptr = np.zeros(len(indices) + 1, dtype=np.int64)
    np.cumsum([idx.size for idx in indices], out=indptr[1:])
    if indptr[-1] == 0:
        return sp.csr_matrix((len(indices), dim))
    return sp.csr_matrix((np.concatenate(values), np.concatenate(indices), indptr),
                         shape=(len(indices), dim))


def check_block(X, dim: int, whose: str = "the matrix's", *, finite: bool = False) -> None:
    """Raise ValueError unless the CSR block ``X`` is ``dim`` wide, every
    column index lies in [0, dim) and, with ``finite`` (a block that
    becomes stored data), every value is finite.  The width error names
    ``whose`` width it must match, the others the first offending row and
    its index or value.

    scipy's CSR constructor does not bounds-check indices
    (``check_format(full_check=False)``), and its kernels read and write
    through them, so a block from outside passes here before any kernel
    sees it.  Viewed as unsigned, a negative index exceeds every dim, so
    one ``max`` pass finds both kinds."""
    if X.shape[1] != dim:
        raise ValueError(f"block width {X.shape[1]} does not match {whose} {dim}")
    cols = X.indices
    if cols.size and cols.view(f"u{cols.itemsize}").max() >= dim:
        k = int(np.flatnonzero((cols < 0) | (cols >= dim))[0])
        raise ValueError(f"row {np.searchsorted(X.indptr, k, 'right') - 1} holds the "
                         f"feature index {cols[k]}, outside [0, {dim})")
    if finite and not np.isfinite(X.data).all():
        k = int(np.isfinite(X.data).argmin())
        raise ValueError(f"row {np.searchsorted(X.indptr, k, 'right') - 1} holds the "
                         f"non-finite feature value {float(X.data[k])!r}")


def splice_rows(ids, block, new_ids, rows) -> tuple[np.ndarray, sp.csr_matrix]:
    """The store ``ids``, ``block`` with CSR row i of ``rows`` as id ``new_ids[i]``
    (distinct), as (sorted ids, CSR): one row take of both blocks stacked."""
    kept = np.flatnonzero(~np.isin(ids, new_ids))
    take = np.argsort(np.concatenate([ids[kept], new_ids]))
    if kept.size:  # else every stored row is replaced: take from the new rows alone
        take = np.concatenate([kept, ids.size + np.arange(new_ids.size)])[take]
        new_ids = np.concatenate([ids, new_ids])
        rows = sp.vstack([block, rows], format="csr")
    return new_ids[take], rows[take]


def row_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Sum of each CSR row's ``values``, in stored order: a row's sum does
    not depend on the other rows of its block.  One ``csr_matvec`` against
    a vector of one 1.0 sums each row from +0.0, left to right, the floats
    ``np.bincount`` gives the same rows."""
    block = sp.csr_array((indptr.size - 1, 1))
    block.data, block.indptr = values, indptr
    block.indices = np.zeros(values.size, dtype=indptr.dtype)
    return block @ np.ones(1)


def scored_densely(classes) -> bool:
    """Whether the scipy sparse class matrix ``classes`` is multiplied as a
    dense array: it is at least DENSE_SCORING_MIN_DENSITY full."""
    return classes.nnz >= DENSE_SCORING_MIN_DENSITY * classes.shape[0] * classes.shape[1]


def score_pairs(X: sp.csr_matrix, classes, matrix, rows=None) -> np.ndarray:
    """Exact score of row ``rows[k]`` of ``X`` (row k when ``rows`` is None)
    against class ``classes[k]`` of the C x dim ``matrix`` (a dense array or
    a canonical CSR), for every k: :func:`score_block`'s ``at`` floats.

    Each pass is one ``csr_matvec`` over the rows' own stored values, with
    column j of a row paired with class c moved to the position of w_jc in
    a flat array of the matrix's values: c * dim + j in a dense array, and
    in a CSR the position of the key c * dim + j among its stored weights'
    keys (made by the call; increasing, since the CSR is canonical), or a
    trailing 0.0 where w_jc is not stored.  ``csr_matvec`` sums each row
    from +0.0 in stored order, and a weight that is not stored adds ±0,
    which changes no sum, so every float is the CSR product's, whether or
    not the rows are sorted.

    A pass gathers the stored entries of as many pairs' rows as hold at
    most SCORE_BLOCK_ENTRIES / 8 entries (one row when a row holds more).
    While it makes their values and positions it holds at most three
    8-byte arrays an entry against a dense array, five against a CSR:
    at most 3 or 5 x SCORE_BLOCK_ENTRIES bytes, never O(n x dim).
    """
    classes = np.asarray(classes, dtype=np.int64)
    C, dim = matrix.shape
    if X.shape[1] != dim:
        raise ValueError(f"block width {X.shape[1]} does not match the matrix's {dim}")
    if rows is None and classes.size != X.shape[0]:
        raise ValueError(f"{classes.size} classes for {X.shape[0]} rows")
    for c in classes[(classes < 0) | (classes >= C)][:1]:
        raise IndexError(f"class position {c} out of range [0, {C})")
    if sp.issparse(matrix):
        # the last key, C * dim, stands for every unstored weight: the 0.0
        keys = np.repeat(np.arange(C + 1, dtype=np.int64) * dim,
                         np.append(np.diff(matrix.indptr), 1))
        keys[:-1] += matrix.indices
        if not (keys[1:] > keys[:-1]).all():
            raise ValueError("class matrix is not canonical CSR")
        values = np.append(matrix.data, 0.0)
    else:
        keys, values = None, np.ravel(matrix)
    starts = X.indptr[:-1] if rows is None else X.indptr[rows]
    lengths = (X.indptr[1:] if rows is None else X.indptr[rows + 1]) - starts
    ends = np.cumsum(lengths, dtype=np.int64)
    budget = max(1, SCORE_BLOCK_ENTRIES // 8)
    scores = np.empty(classes.size)
    lo = 0
    while lo < classes.size:
        first = ends[lo] - lengths[lo]
        hi = max(lo + 1, int(ends.searchsorted(first + budget, side="right")))
        indptr = np.empty(hi - lo + 1, dtype=np.int64)
        indptr[0] = 0
        np.subtract(ends[lo:hi], first, out=indptr[1:])
        count = lengths[lo:hi]
        if rows is None:
            a = X.indptr[lo]
            data, cols = X.data[a:a + indptr[-1]], X.indices[a:a + indptr[-1]]
        else:
            taken = np.repeat(starts[lo:hi] - indptr[:-1], count)
            taken += np.arange(indptr[-1])
            data, cols = X.data.take(taken), X.indices.take(taken)
            del taken
        found = np.repeat(classes[lo:hi] * dim, count)
        found += cols
        if keys is not None:
            wanted, found = found, keys.searchsorted(found)
            found[keys[found] != wanted] = keys.size - 1
        pairs = sp.csr_array((hi - lo, values.size))
        pairs.data, pairs.indptr, pairs.indices = data, indptr, found
        scores[lo:hi] = pairs @ values
        lo = hi
    return scores


def row_view(X: sp.csr_matrix, lo: int, hi: int) -> sp.csr_matrix:
    """Rows ``lo``..``hi`` of the CSR block ``X``, sharing its data and
    indices.  Row slicing, and the constructor given a short view, copy
    them; so the arrays are set on an empty matrix instead."""
    if lo == 0 and hi == X.shape[0]:
        return X
    a, b = X.indptr[lo], X.indptr[hi]
    view = sp.csr_matrix((hi - lo, X.shape[1]), dtype=X.dtype)
    view.data, view.indices = X.data[a:b], X.indices[a:b]
    view.indptr = X.indptr[lo:hi + 1] - a
    return view


def _sorted_rows(X: sp.csr_matrix) -> bool:
    """Whether every row of ``X`` stores strictly increasing column indices
    (no duplicates), computed from the arrays rather than scipy's cached
    flag, which a :func:`row_view` does not carry."""
    starts = X.indptr[1:-1] - X.indptr[0]
    step = np.diff(X.indices[X.indptr[0]:X.indptr[-1]]) > 0
    step[starts[(starts > 0) & (starts <= step.size)] - 1] = True
    return bool(step.all())


class ScoringState:
    """One class matrix as :func:`score_block` multiplies by it, holding
    exactly one copy of its weights.

    ``classes`` holds one class per row.  A matrix that is
    :func:`scored_densely` is kept as its C x dim array ``rows``
    (class-major), a sparser one as its transpose in CSR (dim x C), the
    :attr:`operand`.  Either way a score sums the example's stored entries
    in stored order, so both give the same floats.

    The BLAS screen (:meth:`screen`) of a dense state scores a densified
    chunk with one GEMM, in whatever order BLAS sums.  Any order is within
    gamma_d * sum_j |x_j w_jc| of the exact sum, with gamma_d = d u /
    (1 - d u) and u = 2^-53 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, section 3.1), and that sum is at most ||x|| max_c ||w_c||.
    So the screen and the stored-order sum of the CSR product each lie
    within E = 2 gamma_d ||x|| max_c ||w_c|| + d 2^-1070 of the exact
    score: the factor 2 covers the rounding of the norms and of the
    threshold below, the last term underflow.  Every class whose
    stored-order score is the row's maximum therefore has a screen score
    of at least max_c A_c - 4E.  Only those candidates are re-scored, by
    :func:`score_pairs` from the chunk's own stored entries, so every
    returned float is the CSR product's.  The bound assumes that nothing
    overflows: a chunk whose ||x|| max_c ||w_c|| exceeds OVERFLOW_GUARD,
    or is not finite, is scored by the CSR product instead, as is a chunk
    whose rows are not sorted, since the densified row would lose their
    stored order.
    """

    OVERFLOW_GUARD = 2.0 ** 1000

    def __init__(self, classes: sp.csr_matrix):
        self.num_classes, self.dim = classes.shape
        self.dense = scored_densely(classes)
        self.rows = classes.toarray() if self.dense else None
        if not self.dense:
            self.operand = classes.T.tocsr()

    @cached_property
    def operand(self):
        """The dim x C right-hand side of the CSR product: a sparse state's
        transposed CSR, or for a dense state a C-ordered copy of ``rows.T``."""
        return np.ascontiguousarray(self.rows.T)

    @cached_property
    def screen_setup(self):
        """``(w_norm, zero_classes)``: max_c ||w_c|| (every square of the
        norms is within 2^-1075 of w_j^2, underflow) and the mask of the
        all-zero classes."""
        w_sq = float(np.einsum("ij,ij->i", self.rows, self.rows).max())
        return math.sqrt(w_sq + self.dim * 2.0 ** -1074), ~self.rows.any(axis=1)

    def screen(self, block: sp.csr_matrix, mask, at):
        """``(best, best_scores, at_scores)`` of the chunk ``block``, as
        :func:`score_block` gives them, with ``mask`` applying its exclude
        and among to screen scores in place; None where the CSR product
        must score the chunk instead."""
        if not _sorted_rows(block):
            return None
        w_norm, zero_classes = self.screen_setup
        d = self.dim
        Xd = block.toarray()
        x_norm = np.sqrt(np.einsum("ij,ij->i", Xd, Xd) + d * 2.0 ** -1074)
        if not (x_norm * w_norm <= self.OVERFLOW_GUARD).all():
            return None
        gamma = d * 2.0 ** -53 / (1.0 - d * 2.0 ** -53)
        bound = 4.0 * (2.0 * gamma * w_norm * x_norm + d * 2.0 ** -1070)
        scores = Xd @ self.rows.T
        # an example with no nonzeros scores +0.0 on every class
        empty = ~Xd.any(axis=1)
        del Xd  # stage 2 re-scores from the block's own entries
        mask(scores)
        rows, C = np.arange(scores.shape[0]), scores.shape[1]
        top = scores.argmax(axis=1)
        peak = scores[rows, top]
        candidates = scores >= (peak - bound)[:, None]
        candidates[peak == -np.inf] = False  # nothing allowed: (0, -inf)
        if zero_classes.any():
            # a zero class scores +0.0 on every row: only the first one
            # allowed in a row can be its best, so the others are never
            # re-scored
            zero = candidates[:, zero_classes]
            first = zero.argmax(axis=1)
            keep = np.zeros_like(zero)
            keep[rows, first] = zero[rows, first]
            candidates[:, zero_classes] = keep
        empty &= peak > -np.inf
        candidates[empty] = False
        candidates[empty, top[empty]] = True
        flat = np.flatnonzero(candidates)
        del candidates
        scores.fill(-np.inf)
        values = scores.ravel()
        if flat.size == rows.size and np.array_equal(flat // C, rows):
            # one candidate a row, in row order: no row is gathered
            values[flat] = score_pairs(block, flat - rows * C, self.rows)
        else:
            # a pass of score_pairs gathers at most dim entries a pair and
            # SCORE_BLOCK_ENTRIES / 8 in all: the other half of the budget
            step = max(1, SCORE_BLOCK_ENTRIES // (8 * d))
            for s in range(0, flat.size, step):
                part = flat[s:s + step]
                owners, classes = np.divmod(part, C)
                values[part] = score_pairs(block, classes, self.rows, owners)
        best = scores.argmax(axis=1)
        at_scores = None if at is None else score_pairs(block, at, self.rows)
        return best, scores[rows, best], at_scores


def score_block(X: sp.csr_matrix, state: ScoringState, *, exclude=None, at=None,
                among=None):
    """Best class and its score for every row of ``X`` against the class
    matrix of ``state``.

    ``exclude`` optionally gives one class position per row that cannot be
    the best (a negative position excludes nothing); ``among`` optionally
    gives, as the nonzero pattern of an n x C CSR matrix, the class
    positions each row may pick from (a row with none gets position 0 and
    score -inf); ``at`` optionally gives one class position per row whose
    score is returned too.  Ties go to the smallest position.

    Every score is the CSR product's: row i against class c is the
    sequential sum of x_ij w_jc over the row's stored entries, in stored
    order.  A block of at least DENSE_SCREEN_MIN_ROWS rows and at least
    DENSE_SCREEN_MIN_DENSITY full, against a dense state, is screened
    (:meth:`ScoringState.screen`): one BLAS product per chunk of rows
    proposes each row's candidates, and only those are re-scored by
    :func:`score_pairs`, so the floats are the same as the CSR product's.
    The screen runs inline, with BLAS's own threads, in chunks whose
    densified rows and screen scores, and then the re-score passes'
    gathered entries, stay within the budget below.

    Any other block is multiplied as CSR by :attr:`ScoringState.operand`,
    read before any piece runs, a small one inline, a larger one cut into
    row pieces (:func:`piece_bounds`) that run on the kernel pool, each one
    a view of ``X`` writing its own slice of the results.  Each piece
    scores its rows in chunks, and a chunk's arrays are freed before the
    next one's product starts.  A chunk holds its dense scores, 8 bytes a class a row; with a
    CSR state, also the sparse product's output (up to 16 bytes a score)
    while it is densified, and with ``among``, the gathered allowed scores
    and their positions (16 bytes an allowed class) while the rest are set
    to -inf in place; so a chunk with either gets a third of the rows.
    Either way the chunks alive at once take at most 8 x
    SCORE_BLOCK_ENTRIES bytes (32 MiB), never O(n x C), and since a row's
    score never depends on its path, piece or chunk, the results do not
    depend on WORKERS.  Returns ``(best, best_scores, at_scores)``;
    ``at_scores`` is None when ``at`` is.
    """
    if X.shape[1] != state.dim:
        raise ValueError(f"block width {X.shape[1]} does not match the state's {state.dim}")
    n, C = X.shape[0], max(state.num_classes, 1)
    screened = (state.dense and X.nnz and state.num_classes
                and n >= DENSE_SCREEN_MIN_ROWS
                and X.nnz >= DENSE_SCREEN_MIN_DENSITY * n * X.shape[1])
    if screened:
        # a chunk's densified rows, screen scores, candidate mask and, at
        # worst, C candidate positions a row take half of the budget, in
        # near-equal chunks: a short last one would waste a BLAS call
        most = max(1, SCORE_BLOCK_ENTRIES // (2 * (X.shape[1] + 2 * C + C // 8)))
        bounds, chunk = np.array([0, n]), -(-n // -(-n // most))
    else:
        row_entries = C * (1 if state.dense and among is None else 3)
        bounds = piece_bounds(n, n * C,
                              max(1, SCORE_BLOCK_ENTRIES // (row_entries * WORKERS)))
        chunk = max(1, SCORE_BLOCK_ENTRIES // (row_entries * min(WORKERS, bounds.size - 1)))
    # read on this thread, so that no piece on the pool makes a dense
    # state's operand; a screened block runs inline
    operand = None if screened else state.operand
    best = np.empty(n, dtype=np.int64)
    best_scores = np.empty(n)
    at_scores = None if at is None else np.empty(n)

    def score_chunk(lo, hi):
        rows = np.arange(hi - lo)

        def mask(scores):
            """Set -inf, in place, where exclude or among rule a class out."""
            if exclude is not None:
                masked = exclude[lo:hi] >= 0
                scores[rows[masked], exclude[lo:hi][masked]] = -np.inf
            if among is not None:
                allowed = row_view(among, lo, hi)
                flat = np.repeat(rows * scores.shape[1], np.diff(allowed.indptr))
                flat += allowed.indices
                kept = scores.take(flat)
                scores.fill(-np.inf)
                scores.put(flat, kept)

        block = row_view(X, lo, hi)
        at_rows = None if at is None else at[lo:hi]
        result = state.screen(block, mask, at_rows) if screened else None
        if result is None:
            scores = block @ (state.operand if operand is None else operand)
            if sp.issparse(scores):
                scores = scores.toarray()
            at_part = None if at is None else scores[rows, at_rows]
            mask(scores)
            top = scores.argmax(axis=1)
            result = top, scores[rows, top], at_part
        best[lo:hi], best_scores[lo:hi] = result[:2]
        if at is not None:
            at_scores[lo:hi] = result[2]

    def score_rows(start, stop):
        for lo in range(start, stop, chunk):
            score_chunk(lo, min(stop, lo + chunk))

    run_pieces([partial(score_rows, lo, hi)
                for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())])
    return best, best_scores, at_scores


class WeightMatrix:
    """C sparse class rows sharing one lazy scale multiplier.

    The logical value of row ``c`` is ``scale * stored_row_c``; all public
    operations are defined on logical values.  Multiplying the whole matrix
    by a positive factor only touches ``scale``, which is what makes the
    regularization step of the trainers O(1) instead of O(nnz).

    The stored rows are one canonical CSR (sorted indices, no duplicates,
    no explicit zeros).  Every write goes through :meth:`_write`, which
    replaces only the rows it names (:func:`splice_rows`) and recomputes only
    their cached squared norms, each from its row alone, so none can drift.

    :meth:`score`, and :meth:`score_pairs` when the matrix is scored
    densely, read the logical matrix's :class:`ScoringState`;
    :meth:`_write` and every scale change drop it.  So predictions, exact
    margins, re-scored pairs and audits against an unchanged matrix share
    one state.

    Every block from outside (:meth:`from_csr`, :meth:`add`, :meth:`score`,
    :meth:`score_pairs`) passes :func:`check_block` first, so a feature
    index outside [0, dim), or a non-finite value in a block to be stored,
    raises ValueError naming its row before any scipy kernel reads it.

    Single-writer: concurrent read-only access (scores and dot products
    against a frozen matrix) is safe, concurrent mutation is not.
    """

    def __init__(self, num_classes: int, dim: int):
        if num_classes < 1:
            raise ValueError("need at least one class")
        if dim < 1:
            raise ValueError("need at least one feature dimension")
        self.num_classes = int(num_classes)
        self.dim = int(dim)
        self.scale = 1.0
        self.fold_count = 0
        self._store = sp.csr_matrix((self.num_classes, self.dim))
        self._row_sq = np.zeros(self.num_classes)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows, dim):
        """Build from an iterable of (class_id, SparseVector) logical rows."""
        rows = list(rows)
        if not rows:
            raise ValueError("need at least one row")
        W = cls(max(c for c, _ in rows) + 1, dim)
        given = {}
        for c, r in rows:
            W._check_class(c)
            if c in given:
                raise ValueError(f"duplicate class id {c}")
            if r.dim != dim:
                raise ValueError(f"row {c} has dim {r.dim}, expected {dim}")
            given[c] = r
        W._write(np.array(list(given)), stack_csr([r.indices for r in given.values()],
                                                   [r.values for r in given.values()], dim))
        return W

    @classmethod
    def from_csr(cls, block: sp.csr_matrix):
        """Build from the logical rows of a CSR, taken, once :func:`check_block`
        passes them as stored data; no rows give one zero row."""
        check_block(block, block.shape[1], finite=True)
        W = cls(max(block.shape[0], 1), block.shape[1])
        W._write(np.arange(block.shape[0]), block)
        return W

    # -- internal helpers ---------------------------------------------

    def _check_class(self, c):
        if not 0 <= c < self.num_classes:
            raise IndexError(f"class id {c} out of range [0, {self.num_classes})")

    def _check_classes(self, rows) -> np.ndarray:
        """``rows`` as int64, once :meth:`_check_class` passes the first bad one."""
        rows = np.asarray(rows, dtype=np.int64)
        for c in rows[(rows < 0) | (rows >= self.num_classes)][:1]:
            self._check_class(c)
        return rows

    def _write(self, rows: np.ndarray, block: sp.csr_matrix) -> None:
        """The one writer: the fresh CSR ``block``, made canonical in place, becomes
        classes ``rows`` (distinct) by :func:`splice_rows`; only their norms are redone."""
        block.sum_duplicates()
        block.eliminate_zeros()
        _, self._store = splice_rows(np.arange(self.num_classes), self._store, rows, block)
        self._row_sq[rows] = row_sums(block.data ** 2, block.indptr)
        vars(self).pop("_scoring_state", None)

    def _row(self, c: int):
        """Index and value views of stored row c."""
        self._check_class(c)
        lo, hi = self._store.indptr[c], self._store.indptr[c + 1]
        return self._store.indices[lo:hi], self._store.data[lo:hi]

    def _fold(self):
        self._write(np.arange(self.num_classes), self._store * self.scale)
        self.scale = 1.0
        self.fold_count += 1

    # -- mutating operations ------------------------------------------

    def add(self, delta) -> None:
        """Logical W += delta for a C x dim scipy sparse ``delta``, once
        :func:`check_block` passes it, scaled, as stored data."""
        if delta.shape != (self.num_classes, self.dim):
            raise ValueError(f"delta shape {delta.shape} does not match the matrix")
        if delta.nnz:
            # scaled before duplicates sum; COO's constructor checks its own indices
            delta = delta * (1.0 / self.scale)
            delta = sp.csr_matrix(delta if delta.format == "csr" else delta.tocoo())
            check_block(delta, self.dim, finite=True)
            rows = np.flatnonzero(np.diff(delta.indptr))
            self._write(rows, self._store[rows] + delta[rows])

    def add_to_row(self, c: int, coeff: float, x: SparseVector) -> None:
        """Logical row c += coeff * x."""
        self._check_class(c)
        if x.dim != self.dim:
            raise ValueError(f"vector dim {x.dim} does not match matrix dim {self.dim}")
        if not math.isfinite(coeff):
            raise ValueError(f"coefficient must be finite, not {coeff}")
        if coeff == 0.0 or x.indices.size == 0:
            return
        self.add(sp.csr_matrix((coeff * x.values, (np.full(x.nnz, c), x.indices)),
                               shape=(self.num_classes, self.dim)))

    def global_scale(self, alpha: float) -> None:
        """Logical W *= alpha in O(1); folds into rows on extreme scales."""
        if not 0.0 < alpha < math.inf:
            raise ValueError(f"scale factor must be positive and finite, not {alpha}")
        self.scale *= alpha
        vars(self).pop("_scoring_state", None)
        if not SCALE_FOLD_LOW <= self.scale <= SCALE_FOLD_HIGH:
            self._fold()

    def project_to_ball(self, lam: float) -> float:
        """Scale W into the Frobenius ball of radius 1/sqrt(lam); returns the factor.

        An overflowed (non-finite) norm leaves W as it is and returns 1.0.
        """
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"lam must be nonnegative and finite, not {lam}")
        fro = self.frob_norm()
        if lam == 0.0 or fro == 0.0 or not math.isfinite(fro):
            return 1.0
        phi = min(1.0, 1.0 / (math.sqrt(lam) * fro))
        if phi < 1.0:
            self.global_scale(phi)
        return phi

    def truncate_rows(self, rows, tau: float) -> None:
        """Soft-threshold the logical rows ``rows`` at tau; drops the resulting zeros."""
        rows = self._check_classes(rows)
        if not 0.0 <= tau < math.inf:
            raise ValueError(f"threshold must be nonnegative and finite, not {tau}")
        if tau == 0.0 or rows.size == 0:
            return
        rows = np.unique(rows)
        block = self._store[rows]
        logical = self.scale * block.data
        block.data = np.sign(logical) * np.maximum(np.abs(logical) - tau, 0.0) / self.scale
        self._write(rows, block)

    def truncate_row(self, c: int, tau: float) -> None:
        """Soft-threshold logical row c at tau; drops the resulting zeros."""
        self.truncate_rows([c], tau)

    # -- read-only views ----------------------------------------------

    def materialize_row(self, c: int) -> SparseVector:
        """Logical row c with the scale folded in; explicit zeros dropped."""
        idx, val = self._row(c)
        val = self.scale * val
        keep = val != 0.0
        return SparseVector(idx[keep], val[keep], self.dim, check=False)

    def stored_rows(self, rows) -> sp.csr_matrix:
        """Stored (unscaled) rows ``rows``, in that order, as one CSR block."""
        return self._store[self._check_classes(rows)]

    def row_dot(self, c: int, x: SparseVector) -> float:
        """Logical inner product of row c with x: the float that
        :meth:`score_pairs` gives for x against class c."""
        if x.dim != self.dim:
            raise ValueError(f"vector dim {x.dim} does not match matrix dim {self.dim}")
        idx, val = self._row(c)
        return dot(x, SparseVector(idx, val * self.scale, self.dim, check=False))

    @cached_property
    def _scoring_state(self) -> ScoringState:
        """The logical matrix's :class:`ScoringState`."""
        return ScoringState(self.to_csr())

    def score(self, X: sp.csr_matrix, **options):
        """:func:`score_block` of the CSR block ``X`` against the logical
        matrix, with ``options`` (exclude, at, among) passed on, once
        :func:`check_block` passes ``X``."""
        check_block(X, self.dim, "the state's")
        return score_block(X, self._scoring_state, **options)

    def score_pairs(self, X: sp.csr_matrix, classes) -> np.ndarray:
        """Exact score of row i of the CSR block ``X`` against logical class
        ``classes[i]``, for every i: :func:`score_pairs` against the
        scoring state's rows when the matrix is :func:`scored_densely`, and
        against :meth:`to_csr` otherwise, which builds no state; ``X`` is
        checked by :func:`check_block` first."""
        check_block(X, self.dim)
        if scored_densely(self._store):
            return score_pairs(X, classes, self._scoring_state.rows)
        return score_pairs(X, classes, self.to_csr())

    def frob_norm(self) -> float:
        return self.scale * math.sqrt(self.frob_sq)

    def l1_norm(self) -> float:
        """Sum of |w| over the logical matrix: the scaled stored values, as
        :meth:`to_csr` holds them, summed without building that matrix."""
        return float(np.abs(self._store.data * self.scale).sum())

    @property
    def row_sq_norms(self) -> np.ndarray:
        """Cached squared norms of the stored (unscaled) rows."""
        return self._row_sq.copy()

    @property
    def frob_sq(self) -> float:
        """Squared Frobenius norm of the stored (unscaled) rows: their norms' sum."""
        return float(self._row_sq.sum())

    def nnz(self) -> int:
        return int(self._store.nnz)

    def to_csr(self) -> sp.csr_matrix:
        """Logical matrix as a scipy CSR, for vectorized scoring paths."""
        return self._store * self.scale

    def __repr__(self):
        return (f"WeightMatrix(num_classes={self.num_classes}, dim={self.dim}, "
                f"nnz={self.nnz()}, scale={self.scale:g})")
