"""Brute-force MIPS backend: the oracle the approximate backends are audited against."""

from __future__ import annotations

from ..sparse import SparseVector
from .base import MipsIndex


class ExactIndex(MipsIndex):
    """Full-scan index: every query is the base class's exact scan.

    Ties break toward the smallest class id.
    """

    kind = "exact"

    def update_row(self, c: int, new_row: SparseVector) -> None:
        self._store(int(c), new_row)

    def query(self, x: SparseVector, exclude: int | None = None) -> tuple[int, float]:
        self._check_row(x)
        self._require_candidate(exclude)
        return self._scan(x, exclude)
