"""Common interface for the incremental maximum-inner-product indexes."""

from __future__ import annotations

import threading
from functools import cached_property

import numpy as np
from scipy import sparse as sp

from ..sparse import ScoringState, SparseVector, score_block, splice_rows, stack_csr

# Default backend parameters, keyed like the build_index keywords; the index
# constructors, TrainConfig and the CLI all read them from here.
BACKEND_DEFAULTS = {
    "lsh_bits": 64,
    "lsh_tables": 32,
    "swg_max_neighbors": 16,
    "swg_ef_construction": 100,
    "swg_ef_search": 64,
}


class NoCandidateError(LookupError):
    """Raised when a query has no candidate left after exclusion."""


class MipsIndex:
    """Incremental index over class rows answering argmax inner product.

    Contract shared by all backends:

    * every returned score is the exact score (the stored-order sum of
      :mod:`mipsvm.sparse`) of the returned class's stored row;
    * ``query`` never returns the excluded class, and ``query_batch``
      answers every row of a CSR query block exactly as ``query`` would:
      ``query`` is a batch of one, and ``query_batch`` is the one query
      path.  A backend only overrides ``_candidates``, which proposes
      every row's pool of classes as one ``(indptr, ids)`` pair, an empty
      pool leaving its row to the full scan;
    * after ``update_rows(ids, rows)`` (row i of the CSR block ``rows``
      becomes class ``ids[i]``) or ``update_row(c, row)`` the index reflects
      the new rows before the next query; a bad block changes nothing;
    * queries are read-only and may run concurrently against a frozen index;
      updates are exclusive.  The queries answered and those left to the
      full scan are counted (:meth:`counters`) under one lock.

    The base class keeps the rows in one CSR block, into which :func:`splice_rows`
    writes only an update's rows, and does every exact scan (full, or of a pool).
    """

    kind: str = "abstract"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self._ids = np.empty(0, dtype=np.int64)  # sorted; row i of _block is class _ids[i]
        self._block = sp.csr_matrix((0, self.dim))  # canonical CSR, written by _write
        self.query_count = 0
        self.fallback_count = 0
        self._count_lock = threading.Lock()

    def _canonical(self, X, what: str) -> sp.csr_matrix:
        """The ``what`` block ``X`` as canonical CSR of ``dim`` finite columns."""
        X = X.tocsr()
        if not X.has_canonical_format:  # row views need sorted, distinct indices
            X = X.tocoo().tocsr()
        if X.shape[1] != self.dim:
            raise ValueError(f"{what} block width {X.shape[1]} does not match "
                             f"index dim {self.dim}")
        if not np.isfinite(X.data).all():
            raise ValueError(f"{what} block holds a non-finite value")
        return X

    def _checked(self, ids, rows) -> tuple[np.ndarray, sp.csr_matrix]:
        """``ids`` as int64 and ``rows`` as canonical CSR: one distinct id per row."""
        ids = np.asarray(ids, dtype=np.int64)
        rows = self._canonical(rows, "row")
        if ids.size != rows.shape[0]:
            raise ValueError(f"{ids.size} class ids for {rows.shape[0]} rows")
        if np.unique(ids).size != ids.size:
            raise ValueError("duplicate class id in one batch of updates")
        return ids, rows

    def _write(self, ids, rows) -> tuple[np.ndarray, sp.csr_matrix]:
        """The one writer: splice in :meth:`_checked` row i as class ``ids[i]``."""
        ids, rows = self._checked(ids, rows)
        self._ids, self._block = splice_rows(self._ids, self._block, ids, rows)
        vars(self).pop("_full_scan_state", None)
        return ids, rows

    def _check_batch(self, X, exclude):
        """``X`` as canonical CSR, once it is known to hold ``dim`` columns,
        finite values, one exclude per row and a candidate for each; and
        ``exclude`` as ``(classes, given)``: row i excludes ``classes[i]``
        where ``given[i]`` (a mask, since any int64 is a class id)."""
        X = self._canonical(X, "query")
        if len(exclude) != X.shape[0]:
            raise ValueError(f"{len(exclude)} excludes for {X.shape[0]} queries")
        given = np.array([e is not None for e in exclude], dtype=bool)
        classes = np.array([0 if e is None else e for e in exclude], dtype=np.int64)
        if len(self) <= 1 and (given & np.isin(classes, self._ids) | (not len(self))).any():
            raise NoCandidateError("no candidate class after exclusion")
        return X, (classes, given)

    @cached_property
    def _full_scan_state(self):
        """``(sorted ids, their rows' ScoringState)`` of every stored row."""
        return self._ids, ScoringState(self._block)

    def _scan(self, X: sp.csr_matrix, exclude,
              pools=None) -> tuple[np.ndarray, np.ndarray]:
        """Best (class ids, exact scores) of the rows of the query block
        ``X``, over every row or over each row's pool.

        ``exclude`` is None or :meth:`_check_batch`'s pair; an id outside the
        scan masks nothing.  ``pools`` is :meth:`_candidates`'s pair for
        these rows: the rows of their union are gathered into one CSR slice,
        and each query is held to its own pool.  Either way the scores come
        from one :func:`score_block` call, so re-ranking a batch never costs
        more than a full scan of it, and ties go to the smallest id.
        """
        among = masked = None
        if pools is None:
            ids, state = self._full_scan_state
        else:
            indptr, members = pools
            ids, cols = np.unique(members, return_inverse=True)
            state = ScoringState(self._block[np.searchsorted(self._ids, ids)])
            among = sp.csr_matrix((np.ones(members.size, dtype=bool), cols, indptr),
                                  shape=(X.shape[0], ids.size))
        if exclude is not None:
            classes, given = exclude
            pos = np.minimum(np.searchsorted(ids, classes), ids.size - 1)
            masked = np.where(given & (ids[pos] == classes), pos, -1)
        best, score, _ = score_block(X, state, exclude=masked, among=among)
        return ids[best], score

    def query(self, x: SparseVector, exclude: int | None = None) -> tuple[int, float]:
        """Best (class_id, exact score of that class) with ``exclude`` removed,
        as a :meth:`query_batch` of one row."""
        ids, scores = self.query_batch(stack_csr([x.indices], [x.values], x.dim),
                                       [exclude])
        return int(ids[0]), float(scores[0])

    def _candidates(self, X: sp.csr_matrix, exclude) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, ids)``: row i of the checked query block ``X`` gets the
        pool ``ids[indptr[i]:indptr[i+1]]``, sorted indexed class ids without
        its excluded class (``exclude`` as :meth:`_check_batch` gives it), and
        an empty pool asks for the full scan.  This default asks for the full
        scan everywhere."""
        return np.zeros(X.shape[0] + 1, dtype=np.int64), np.empty(0, dtype=np.int64)

    def query_batch(self, X, exclude) -> tuple[np.ndarray, np.ndarray]:
        """(class ids, exact scores) that :meth:`query` gives for each row of
        the CSR query block ``X`` (n x dim, the block :func:`score_block`
        takes), with ``exclude`` holding one class id or None per row: one
        :meth:`_scan` of the rows :meth:`_candidates` leaves to the full
        scan, and one of the pooled rows, each held to its pool."""
        X, exclude = self._check_batch(X, exclude)
        indptr, members = self._candidates(X, exclude)
        fell = np.diff(indptr) == 0
        with self._count_lock:
            self.query_count += fell.size
            self.fallback_count += int(fell.sum())
        if fell.all():
            return self._scan(X, exclude)
        ids, scores = np.empty(fell.size, dtype=np.int64), np.empty(fell.size)
        rows = np.flatnonzero(fell)
        if rows.size:
            ids[rows], scores[rows] = self._scan(X[rows], tuple(a[rows] for a in exclude))
        # a pool holds no excluded class, so the pooled scan masks none; the
        # empty pools hold no ids, so the pooled rows' ends are their indptr
        rows = np.flatnonzero(~fell)
        ids[rows], scores[rows] = self._scan(X[rows], None,
                                             (np.append(0, indptr[1:][rows]), members))
        return ids, scores

    def update_row(self, c: int, new_row: SparseVector) -> None:
        """Insert or replace the row of class ``c``: an update of one row."""
        self.update_rows([c], stack_csr([new_row.indices], [new_row.values], new_row.dim))

    def update_rows(self, ids, rows) -> None:
        """Make row i of the n x dim CSR block ``rows`` the row of class
        ``ids[i]``, as one :meth:`update_row` per row in the given order
        would; this default stores the block."""
        self._write(ids, rows)

    def counters(self) -> dict[str, int]:
        """The work counts this backend keeps, by name."""
        return {"queries": self.query_count, "fallbacks": self.fallback_count}

    def __len__(self) -> int:
        return int(self._ids.size)
