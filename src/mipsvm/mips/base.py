"""Common interface for the incremental maximum-inner-product indexes."""

from __future__ import annotations

import threading
from functools import cached_property

import numpy as np
from scipy import sparse as sp

from ..sparse import (ScoringState, SparseVector, WeightMatrix, canonical_block,
                      check_ids, score_block, splice_rows, stack_csr, whole_ids)

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

    Contract shared by all backends, where a class id is its store position:

    * every returned score is the exact score (the increasing-index sum of
      :mod:`mipsvm.sparse`) of the returned class's stored row;
    * ``query`` never returns the excluded class, and ``query_batch``
      answers every row of a CSR query block exactly as ``query`` would:
      ``query`` is a batch of one, and ``query_batch`` is the one query
      path.  A backend only overrides ``_candidates``, which proposes
      every row's pool of store positions as one ``(indptr, positions)``
      pair, an empty pool leaving its row to the full scan;
    * after ``update_rows(ids, rows)`` (row i of the CSR block ``rows``
      replaces class ``ids[i]`` or appends it as the next one) or
      ``update_row(c, row)`` or ``refresh(W, rows)`` the index reflects the
      new rows before the next query; a bad block or id changes nothing;
    * queries are read-only and may run concurrently against a frozen index;
      updates are exclusive.  The queries answered and those left to the
      full scan are counted (:meth:`counters`) under one lock.

    The base class holds the rows in one CSR block that nothing writes in
    place (an update splices a new one, a refresh adopts W's), and does
    every exact scan (full, or of a pool); :meth:`_changed` redoes what a
    backend derives from the block.
    """

    kind: str = "abstract"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self._block = sp.csr_matrix((0, self.dim))  # canonical CSR; row c is class c
        self.query_count = 0
        self.fallback_count = 0
        self._count_lock = threading.Lock()

    def _changed(self, ids: np.ndarray) -> None:
        """Redo what depends on the stored rows ``ids``: here the full-scan state."""
        vars(self).pop("_full_scan_state", None)

    def _check_batch(self, X, exclude) -> tuple[sp.csr_matrix, np.ndarray]:
        """``(X, excluded)``: ``X`` made :func:`canonical_block`, once it holds
        one exclude per row and a candidate for each, and ``excluded[i]`` row
        i's excluded class, or -1 for None or an id outside [0, len).  An
        integer array is taken as it is, any other must hold
        :func:`whole_ids`; a sequence holding None costs a pass."""
        X = canonical_block(X, self.dim, "index dim")
        if len(exclude) != X.shape[0]:
            raise ValueError(f"{len(exclude)} excludes for {X.shape[0]} queries")
        classes = np.asarray(exclude)
        if classes.dtype == object:  # None masks nothing, as -1 does
            classes = np.where(np.equal(classes, None), -1, classes)
        classes = whole_ids(classes, "excluded class")
        excluded = np.where((classes >= 0) & (classes < len(self)), classes, -1)
        if len(self) <= 1 and ((excluded >= 0) | (not len(self))).any():
            raise NoCandidateError("no candidate class after exclusion")
        return X, excluded

    @cached_property
    def _full_scan_state(self) -> ScoringState:
        """The :class:`ScoringState` of every stored row."""
        return ScoringState(self._block)

    def _scan(self, X, excluded=None, pools=None) -> tuple[np.ndarray, np.ndarray]:
        """Best (store positions, exact scores) of the rows of the query block
        ``X``: over every stored row but its ``excluded`` position (None, or
        :meth:`_check_batch`'s array), or over each row's pool.

        ``pools`` is :meth:`_candidates`'s pair for these rows, which holds
        no excluded position: the rows of their union are gathered into one
        CSR slice, and each query is held to its own pool.  Either way the
        scores come from one :func:`score_block` call, so re-ranking a batch
        never costs more than a full scan of it, and ties go to the smallest id.
        """
        if pools is None:
            return score_block(X, self._full_scan_state, exclude=excluded)[:2]
        indptr, members = pools
        rows, cols = np.unique(members, return_inverse=True)
        among = sp.csr_matrix((np.ones(members.size, dtype=bool), cols, indptr),
                              shape=(X.shape[0], rows.size))
        best, score, _ = score_block(X, ScoringState(self._block[rows]), among=among)
        return rows[best], score

    def query(self, x: SparseVector, exclude: int | None = None) -> tuple[int, float]:
        """Best (class_id, exact score of that class) with ``exclude`` removed,
        as a :meth:`query_batch` of one row."""
        ids, scores = self.query_batch(stack_csr([x], x.dim), [exclude])
        return int(ids[0]), float(scores[0])

    def _candidates(self, X: sp.csr_matrix, excluded) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, positions)``: row i of the checked query block ``X``
        gets the pool ``positions[indptr[i]:indptr[i+1]]``, sorted store
        positions without ``excluded[i]``, and an empty pool asks for the
        full scan.  This default asks for the full scan everywhere."""
        return np.zeros(X.shape[0] + 1, dtype=np.int64), np.empty(0, dtype=np.int64)

    def query_batch(self, X, exclude) -> tuple[np.ndarray, np.ndarray]:
        """(class ids, exact scores) that :meth:`query` gives for each row of
        the CSR query block ``X`` (n x dim, as :func:`score_block` takes it),
        ``exclude`` holding one class id or None per row, or an integer array:
        one :meth:`_scan` of the rows :meth:`_candidates` leaves to the full
        scan, and one of the pooled rows, each held to its pool."""
        X, excluded = self._check_batch(X, exclude)
        indptr, members = self._candidates(X, excluded)
        fell = np.diff(indptr) == 0
        with self._count_lock:
            self.query_count += fell.size
            self.fallback_count += int(fell.sum())
        if fell.all():
            return self._scan(X, excluded)
        ids, scores = np.empty(fell.size, dtype=np.int64), np.empty(fell.size)
        rows = np.flatnonzero(fell)
        if rows.size:
            ids[rows], scores[rows] = self._scan(X[rows], excluded[rows])
        # a pool holds no excluded position, so the pooled scan masks none;
        # the empty pools hold nothing, so the pooled rows' ends are their indptr
        rows = np.flatnonzero(~fell)
        ids[rows], scores[rows] = self._scan(X[rows], None,
                                             (np.append(0, indptr[1:][rows]), members))
        return ids, scores

    def update_row(self, c: int, new_row: SparseVector) -> None:
        """Insert or replace the row of class ``c``: an update of one row."""
        self.update_rows([c], stack_csr([new_row], new_row.dim))

    def update_rows(self, ids, rows) -> None:
        """Make row i of the n x dim CSR block ``rows`` the row of class
        ``ids[i]``, as one :meth:`update_row` per row in the given order would,
        once the block and the ids pass: :func:`splice_rows` writes a new store,
        never the caller's block, and :meth:`_changed` redoes what depends on it."""
        rows = canonical_block(rows, self.dim, "index dim")
        if np.size(ids) != rows.shape[0]:
            raise ValueError(f"{np.size(ids)} class ids for {rows.shape[0]} rows")
        block = splice_rows(self._block, ids, rows)
        self._block = block.copy() if block is rows else block
        self._changed(np.asarray(ids, dtype=np.int64))  # whole: splice_rows checked them

    def refresh(self, W: WeightMatrix, rows) -> None:
        """Hold W's stored rows by adopting W's store itself, with no copy (W
        writes no store in place), once :func:`check_ids` passes ``rows``, and
        redo what depends on ``rows``, those changed since the index last read
        W (all, the first time), in the given order."""
        if W.dim != self.dim:
            raise ValueError(f"matrix dim {W.dim} does not match index dim {self.dim}")
        rows = check_ids(rows, W.num_classes, "class id")
        self._block = W._store
        self._changed(rows)

    def counters(self) -> dict[str, int]:
        """The work counts this backend keeps, by name."""
        return {"queries": self.query_count, "fallbacks": self.fallback_count}

    def __len__(self) -> int:
        return self._block.shape[0]
