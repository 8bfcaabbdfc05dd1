"""Brute-force MIPS backend: the oracle the approximate backends are audited against."""

from __future__ import annotations

from ..sparse import SparseVector
from .base import MipsIndex


class ExactIndex(MipsIndex):
    """Full-scan index: a batch of queries is one exact scan of the base
    class, and a single query is a batch of one.

    Ties break toward the smallest class id.
    """

    kind = "exact"

    def update_row(self, c: int, new_row: SparseVector) -> None:
        self._store(int(c), new_row)

    def query(self, x: SparseVector, exclude: int | None = None) -> tuple[int, float]:
        return self._query_one(x, exclude)

    def query_batch(self, X, exclude):
        return self._scan(self._check_batch(X, exclude), exclude)
