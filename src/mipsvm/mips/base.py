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
      path.  A backend only overrides ``_candidates``, which proposes a
      pool of classes for each row or leaves the row to the full scan;
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
        finite values, one exclude per row and a candidate for each."""
        X = self._canonical(X, "query")
        if len(exclude) != X.shape[0]:
            raise ValueError(f"{len(exclude)} excludes for {X.shape[0]} queries")
        if len(self) <= 1 and any(not len(self) or self._ids[0] == e for e in exclude):
            raise NoCandidateError("no candidate class after exclusion")
        return X

    def _stack(self, ids) -> sp.csr_matrix:
        """The stored rows of ``ids``, in that order, as one CSR block."""
        return self._block[np.searchsorted(self._ids, ids)]

    @cached_property
    def _full_scan_state(self):
        """``(sorted ids, their rows' ScoringState)`` of every stored row."""
        return self._ids, ScoringState(self._block)

    def _scan(self, X: sp.csr_matrix, exclude,
              pools: list[list[int]] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Best (class ids, exact scores) of the rows of the query block
        ``X``, over every row or, row by row, over that row's ``pools``
        entry.

        ``exclude`` holds one class id or None per row; an id outside the
        scan masks nothing.  ``pools`` holds one sorted list of indexed
        class ids per row; the rows of their union are gathered into one
        CSR slice, and each query is held to its own pool.  Either way the
        scores come from one :func:`score_block` call, so re-ranking a
        batch never costs more than a full scan of it, and ties go to the
        smallest id.
        """
        among = None
        if pools is None:
            ids, state = self._full_scan_state
        else:
            members = np.concatenate([np.asarray(pool, dtype=np.int64) for pool in pools])
            ids = np.unique(members)
            state = ScoringState(self._stack(ids))
            indptr = np.zeros(len(pools) + 1, dtype=np.int64)
            np.cumsum([len(pool) for pool in pools], out=indptr[1:])
            among = sp.csr_matrix((np.ones(members.size, dtype=bool),
                                   np.searchsorted(ids, members), indptr),
                                  shape=(len(pools), ids.size))
        given = np.array([e is not None for e in exclude], dtype=bool)
        wanted = np.array([0 if e is None else e for e in exclude], dtype=np.int64)
        pos = np.minimum(np.searchsorted(ids, wanted), ids.size - 1)
        masked = np.where(given & (ids[pos] == wanted), pos, -1)
        best, score, _ = score_block(X, state, exclude=masked, among=among)
        return ids[best], score

    def query(self, x: SparseVector, exclude: int | None = None) -> tuple[int, float]:
        """Best (class_id, exact score of that class) with ``exclude`` removed,
        as a :meth:`query_batch` of one row."""
        ids, scores = self.query_batch(stack_csr([x.indices], [x.values], x.dim),
                                       [exclude])
        return int(ids[0]), float(scores[0])

    def _candidates(self, X: sp.csr_matrix, exclude) -> list[list[int] | None]:
        """For each row of the checked query block ``X``, a sorted pool of
        indexed class ids without that row's excluded class, or None for
        the full scan; this default asks for the full scan everywhere."""
        return [None] * X.shape[0]

    def query_batch(self, X, exclude) -> tuple[np.ndarray, np.ndarray]:
        """(class ids, exact scores) that :meth:`query` gives for each row of
        the CSR query block ``X`` (n x dim, the block :func:`score_block`
        takes), with ``exclude`` holding one class id or None per row: one
        :meth:`_scan` of the rows :meth:`_candidates` leaves to the full
        scan, and one of the pooled rows, each held to its pool."""
        X = self._check_batch(X, exclude)
        pools = self._candidates(X, exclude)
        fell = [i for i, pool in enumerate(pools) if pool is None]
        with self._count_lock:
            self.query_count += len(pools)
            self.fallback_count += len(fell)
        if len(fell) == len(pools):
            return self._scan(X, exclude)
        ids, scores = np.empty(len(pools), dtype=np.int64), np.empty(len(pools))
        if fell:
            ids[fell], scores[fell] = self._scan(X[fell], [exclude[i] for i in fell])
        pooled = [i for i, pool in enumerate(pools) if pool is not None]
        ids[pooled], scores[pooled] = self._scan(
            X[pooled], [exclude[i] for i in pooled], [pools[i] for i in pooled])
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
