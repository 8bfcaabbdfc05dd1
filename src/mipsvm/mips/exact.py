"""Brute-force MIPS backend: the oracle the approximate backends are audited against."""

from __future__ import annotations

import numpy as np

from ..sparse import SparseVector, score_block, scoring_operand, stack_csr
from .base import MipsIndex, NoCandidateError


class ExactIndex(MipsIndex):
    """Full-scan index.

    Rows are kept as sparse snapshots.  The class matrix :func:`score_block`
    multiplies by is rebuilt lazily after updates, so a query is one kernel
    call on a one-row block.  Ties break toward the smallest class id.
    """

    kind = "exact"

    def __init__(self, dim: int):
        super().__init__(dim)
        self._rows: dict[int, SparseVector] = {}
        self._ids = np.empty(0, dtype=np.int64)
        self._operand = None  # None until the first query after an update

    def update_row(self, c: int, new_row: SparseVector) -> None:
        self._check_row(new_row)
        self._rows[int(c)] = new_row
        self._operand = None

    def class_ids(self) -> list[int]:
        return sorted(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def _rebuild(self):
        self._ids = np.array(sorted(self._rows), dtype=np.int64)
        rows = [self._rows[int(c)] for c in self._ids]
        self._operand = scoring_operand(stack_csr([r.indices for r in rows],
                                                  [r.values for r in rows], self.dim))

    def query(self, x: SparseVector, exclude: int | None = None) -> tuple[int, float]:
        self._check_row(x)
        if self._operand is None:
            self._rebuild()
        n = self._ids.size
        if n == 0 or (n == 1 and exclude is not None and self._ids[0] == exclude):
            raise NoCandidateError("no candidate class after exclusion")
        masked = None
        if exclude is not None:
            pos = np.searchsorted(self._ids, exclude)
            if pos < n and self._ids[pos] == exclude:
                masked = np.array([pos])
        best, score, _ = score_block(stack_csr([x.indices], [x.values], self.dim),
                                     self._operand, exclude=masked)
        return int(self._ids[best[0]]), float(score[0])
