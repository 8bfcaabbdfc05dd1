"""Audit of the gap between approximate and exact margins.

The approximate margin can only exceed the exact one (the exact rival
maximizes the subtracted score, every score the same exact sum), so
the audited quantity is the fraction of queries whose gap exceeds a chosen
epsilon: an empirical delta for the (epsilon, delta) contract of a backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

# exact_margin and inexact_margin are unused here; perfbench/tracing.py
# patches them by these names on this module.
from ..margin import exact_margin, inexact_margin  # noqa: F401
from ..sparse import check_ids, stack_csr
from .base import MipsIndex

if TYPE_CHECKING:
    from ..dataio import Dataset
    from ..sparse import WeightMatrix


@dataclass(frozen=True)
class AuditReport:
    n: int
    epsilon: float
    delta_hat: float
    mean_gap: float
    max_gap: float
    hist_counts: np.ndarray
    hist_edges: np.ndarray

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "epsilon": self.epsilon,
            "delta_hat": self.delta_hat,
            "mean_gap": self.mean_gap,
            "max_gap": self.max_gap,
            "histogram": {
                "counts": self.hist_counts.tolist(),
                "edges": self.hist_edges.tolist(),
            },
        }


def audit_inexactness(index: MipsIndex, W: "WeightMatrix", queries: "Dataset",
                      epsilon: float, bins: int = 20) -> AuditReport:
    """Empirical P(approx_margin - exact_margin > epsilon) plus a gap histogram.

    One ``query_batch`` call on the queries' CSR block proposes every
    rival; one :meth:`WeightMatrix.score` pass over the same block gives the
    exact best rival and the proposed rival's score.  The true-class score
    cancels, so the gap is the exact best score minus the proposed one:
    never negative, and 0 wherever the index found a best rival.
    """
    if not epsilon >= 0.0:  # NaN too: no gap exceeds it, a false delta of 0
        raise ValueError(f"epsilon must be nonnegative, not {epsilon}")
    if len(queries) == 0:
        raise ValueError("empty query set")
    labels = check_ids(queries.labels_array(), W.num_classes, "label")
    X = queries.to_csr()
    rivals, _ = index.query_batch(X, labels)
    _, best, proposed = W.score(X, exclude=labels, at=rivals)
    gaps = best - proposed
    counts, edges = np.histogram(gaps, bins=bins)
    return AuditReport(
        n=len(queries),
        epsilon=float(epsilon),
        delta_hat=float((gaps > epsilon).mean()),
        mean_gap=float(gaps.mean()),
        max_gap=float(gaps.max()),
        hist_counts=counts,
        hist_edges=edges,
    )


def recall_at_1(index: MipsIndex, oracle: MipsIndex, queries) -> float:
    """Fraction of (x, exclude) queries where ``index`` returns the oracle's
    class; both answer one stacked block, whose :func:`stack_csr` names a
    query of another dim than the index's by its position."""
    queries = list(queries)
    if not queries:
        raise ValueError("empty query set")
    xs, exclude = zip(*queries)
    X = stack_csr(xs, index.dim, "query")
    got, _ = index.query_batch(X, exclude)
    want, _ = oracle.query_batch(X, exclude)
    return float((got == want).mean())
