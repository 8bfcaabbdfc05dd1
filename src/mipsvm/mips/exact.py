"""Brute-force MIPS backend: the oracle the approximate backends are audited against."""

from __future__ import annotations

from .base import MipsIndex


class ExactIndex(MipsIndex):
    """Full-scan index: the base class's exact scan, unchanged.

    Ties break toward the smallest class id.
    """

    kind = "exact"
    # perfbench/tracing.py wraps these by name on each backend class
    query, update_row = MipsIndex.query, MipsIndex.update_row
