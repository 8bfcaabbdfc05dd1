"""Common interface for the incremental maximum-inner-product indexes."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np
from scipy import sparse as sp

from ..sparse import SparseVector, score_block, scoring_operand, stack_csr

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


class MipsIndex(ABC):
    """Incremental index over class rows answering argmax inner product.

    Contract shared by all backends:

    * ``query`` never returns the excluded class, and ``query_batch``
      answers every row of a CSR query block exactly as ``query`` would;
    * after ``update_row(c, row)`` or ``update_rows(items)`` the index
      reflects the new rows before the next query;
    * queries are read-only and may run concurrently against a frozen index;
      updates are exclusive.  The one thing a query writes is the scan state
      (sorted ids and their scoring operand), built on the first full scan
      after an update and kept in a single attribute: two first queries
      racing each other build identical values and each reads a whole pair.
      A backend's work counters (:meth:`counters`) are bumped under a lock.

    The base class keeps the row snapshots and does every exact scan: the
    full scan of a batch and the re-ranking of a candidate pool.
    """

    kind: str = "abstract"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self._rows: dict[int, SparseVector] = {}
        self._scan_state = None  # None until the first full scan after an update

    def _check_row(self, row: SparseVector):
        if row.dim != self.dim:
            raise ValueError(f"row dim {row.dim} does not match index dim {self.dim}")

    def _check_batch(self, X, exclude):
        """``X`` as canonical CSR, once it is known to hold ``dim`` columns,
        finite values, one exclude per row and a candidate for each."""
        X = X.tocsr()
        if not X.has_canonical_format:  # row views need sorted, distinct indices
            X = X.tocoo().tocsr()
        if X.shape[1] != self.dim:
            raise ValueError(f"query block width {X.shape[1]} does not match "
                             f"index dim {self.dim}")
        if not np.isfinite(X.data).all():
            raise ValueError("query block holds a non-finite value")
        if len(exclude) != X.shape[0]:
            raise ValueError(f"{len(exclude)} excludes for {X.shape[0]} queries")
        for e in set(exclude):
            self._require_candidate(e)
        return X

    def _store(self, c: int, row: SparseVector) -> None:
        """Keep ``row`` as the snapshot of class ``c``."""
        self._check_row(row)
        self._rows[c] = row
        self._scan_state = None

    def _require_candidate(self, exclude: int | None) -> None:
        if not self._rows or (len(self._rows) == 1 and exclude in self._rows):
            raise NoCandidateError("no candidate class after exclusion")

    def _stack(self, ids) -> sp.csr_matrix:
        """The rows of ``ids``, in that order, as one CSR block."""
        rows = [self._rows[c] for c in ids]
        return stack_csr([r.indices for r in rows], [r.values for r in rows], self.dim)

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
            state = self._scan_state
            if state is None:
                ids = sorted(self._rows)
                state = self._scan_state = (np.array(ids, dtype=np.int64),
                                            scoring_operand(self._stack(ids)))
            ids, operand = state
        else:
            members = np.concatenate([np.asarray(pool, dtype=np.int64) for pool in pools])
            ids = np.unique(members)
            operand = scoring_operand(self._stack(ids.tolist()))
            indptr = np.zeros(len(pools) + 1, dtype=np.int64)
            np.cumsum([len(pool) for pool in pools], out=indptr[1:])
            among = sp.csr_matrix((np.ones(members.size, dtype=bool),
                                   np.searchsorted(ids, members), indptr),
                                  shape=(len(pools), ids.size))
        given = np.array([e is not None for e in exclude], dtype=bool)
        wanted = np.array([0 if e is None else e for e in exclude], dtype=np.int64)
        pos = np.minimum(np.searchsorted(ids, wanted), ids.size - 1)
        masked = np.where(given & (ids[pos] == wanted), pos, -1)
        best, score, _ = score_block(X, operand, exclude=masked, among=among)
        return ids[best], score

    @abstractmethod
    def query(self, x: SparseVector, exclude: int | None = None) -> tuple[int, float]:
        """Best (class_id, exact score of that class) with ``exclude`` removed."""

    def _query_one(self, x: SparseVector, exclude: int | None) -> tuple[int, float]:
        """:meth:`query` as a :meth:`query_batch` of one row."""
        ids, scores = self.query_batch(stack_csr([x.indices], [x.values], x.dim),
                                       [exclude])
        return int(ids[0]), float(scores[0])

    def query_batch(self, X, exclude) -> tuple[np.ndarray, np.ndarray]:
        """(class ids, exact scores) that :meth:`query` gives for each row of
        the CSR query block ``X`` (n x dim, the operand :func:`score_block`
        takes), with ``exclude`` holding one class id or None per row.

        This default asks :meth:`query` once per row, viewing the row as a
        :class:`SparseVector`; a backend that answers a whole batch at once
        overrides it.
        """
        X = self._check_batch(X, exclude)
        found = [self.query(SparseVector(X.indices[lo:hi], X.data[lo:hi], self.dim,
                                         check=False), exclude=e)
                 for lo, hi, e in zip(X.indptr[:-1], X.indptr[1:], exclude)]
        return (np.array([c for c, _ in found], dtype=np.int64),
                np.array([s for _, s in found], dtype=np.float64))

    @abstractmethod
    def update_row(self, c: int, new_row: SparseVector) -> None:
        """Insert or replace the row of class ``c``."""

    @staticmethod
    def _distinct(items) -> list[tuple[int, SparseVector]]:
        """``items`` as a list of (int class id, row); duplicate ids raise."""
        items = [(int(c), row) for c, row in items]
        if len({c for c, _ in items}) != len(items):
            raise ValueError("duplicate class id in one batch of updates")
        return items

    def update_rows(self, items) -> None:
        """Insert or replace the row of every (class id, row) pair of ``items``.

        This default makes one :meth:`update_row` call per pair, in the given
        order; a backend that refreshes a whole batch at once overrides it.
        """
        for c, row in self._distinct(items):
            self.update_row(c, row)

    def counters(self) -> dict[str, int]:
        """The work counts this backend keeps, by name (none by default)."""
        return {}

    def __len__(self) -> int:
        return len(self._rows)
