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

    * ``query`` never returns the excluded class;
    * after ``update_row(c, row)`` the index reflects the new row before the
      next query;
    * queries are read-only and may run concurrently against a frozen index;
      updates are exclusive.  The one thing a query writes is the scan state
      (sorted ids and their scoring operand), built on the first full scan
      after an update and kept in a single attribute: two first queries
      racing each other build identical values and each reads a whole pair.

    The base class keeps the row snapshots and does every exact scan: the
    full scan and the re-ranking of a candidate pool.
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

    def _scan(self, x: SparseVector, exclude: int | None,
              among: list[int] | None = None) -> tuple[int, float]:
        """Best (class id, exact score) over every row, or over ``among``.

        ``among`` holds sorted indexed class ids; their rows are gathered
        into one CSR slice.  Either way the scores come from one
        :func:`score_block` call on a one-row block, and ties go to the
        smallest id.
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
        masked = None
        if exclude is not None:
            pos = np.searchsorted(ids, exclude)
            if pos < ids.size and ids[pos] == exclude:
                masked = np.array([pos])
        best, score, _ = score_block(stack_csr([x.indices], [x.values], self.dim),
                                     operand, exclude=masked)
        return int(ids[best[0]]), float(score[0])

    @abstractmethod
    def query(self, x: SparseVector, exclude: int | None = None) -> tuple[int, float]:
        """Best (class_id, exact score of that class) with ``exclude`` removed."""

    @abstractmethod
    def update_row(self, c: int, new_row: SparseVector) -> None:
        """Insert or replace the row of class ``c``."""

    def class_ids(self) -> list[int]:
        """Sorted ids of the currently indexed classes."""
        return sorted(self._rows)

    def __len__(self) -> int:
        return len(self._rows)
