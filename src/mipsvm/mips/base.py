"""Common interface for the incremental maximum-inner-product indexes."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

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
      answers every row of a batch exactly as ``query`` would;
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

    def _store(self, c: int, row: SparseVector) -> None:
        """Keep ``row`` as the snapshot of class ``c``."""
        self._check_row(row)
        self._rows[c] = row
        self._scan_state = None

    def _require_candidate(self, exclude: int | None) -> None:
        if not self._rows or (len(self._rows) == 1 and exclude in self._rows):
            raise NoCandidateError("no candidate class after exclusion")

    def _operand(self, ids: list[int]):
        """Scoring operand over the rows of ``ids``, in that order."""
        rows = [self._rows[c] for c in ids]
        return scoring_operand(stack_csr([r.indices for r in rows],
                                         [r.values for r in rows], self.dim))

    def _scan(self, xs: list[SparseVector], exclude: list,
              among: list[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Best (class ids, exact scores) of the rows of ``xs``, over every row
        or over ``among``.

        ``exclude`` holds one class id or None per row; an id outside the
        scan masks nothing.  ``among`` holds sorted indexed class ids; their
        rows are gathered into one CSR slice.  Either way the scores come
        from one :func:`score_block` call, and ties go to the smallest id.
        """
        if among is None:
            state = self._scan_state
            if state is None:
                ids = sorted(self._rows)
                state = self._scan_state = (np.array(ids, dtype=np.int64),
                                            self._operand(ids))
            ids, operand = state
        else:
            ids, operand = np.array(among, dtype=np.int64), self._operand(among)
        given = np.array([e is not None for e in exclude], dtype=bool)
        wanted = np.array([0 if e is None else e for e in exclude], dtype=np.int64)
        pos = np.minimum(np.searchsorted(ids, wanted), ids.size - 1)
        masked = np.where(given & (ids[pos] == wanted), pos, -1)
        best, score, _ = score_block(
            stack_csr([x.indices for x in xs], [x.values for x in xs], self.dim),
            operand, exclude=masked)
        return ids[best], score

    @abstractmethod
    def query(self, x: SparseVector, exclude: int | None = None) -> tuple[int, float]:
        """Best (class_id, exact score of that class) with ``exclude`` removed."""

    def query_batch(self, xs, exclude) -> tuple[np.ndarray, np.ndarray]:
        """(class ids, exact scores) that :meth:`query` gives for each row of
        ``xs``, with ``exclude`` holding one class id or None per row.

        This default asks :meth:`query` once per row; a backend that answers
        a whole batch at once overrides it.
        """
        found = [self.query(x, exclude=e) for x, e in zip(xs, exclude)]
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

    def class_ids(self) -> list[int]:
        """Sorted ids of the currently indexed classes."""
        return sorted(self._rows)

    def __len__(self) -> int:
        return len(self._rows)
