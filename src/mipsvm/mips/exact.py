"""Brute-force MIPS backend: the oracle the approximate backends are audited against."""

from __future__ import annotations

from .base import MipsIndex


class ExactIndex(MipsIndex):
    """Full-scan index: a batch of queries is one exact scan of the base
    class, and a single query is a batch of one.

    Ties break toward the smallest class id.
    """

    kind = "exact"
    # perfbench/tracing.py wraps these by name on each backend class
    query, update_row = MipsIndex.query, MipsIndex.update_row

    def query_batch(self, X, exclude):
        return self._scan(self._check_batch(X, exclude), exclude)
