"""Exact and approximate margins, the hinge rho-loss, and empirical risk.

The margin of a labeled example (x, y) under a weight matrix W is the score
of the true class minus the best competing score.  The exact version scans
all classes; the approximate version asks a MIPS index for a competing class
and re-scores that single candidate exactly against W, so the approximation
error lives entirely in the candidate choice.  Because the exact rival
maximizes the subtracted term, the approximate margin is always >= the exact
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .sparse import SparseVector, WeightMatrix, score_block, scoring_operand

if TYPE_CHECKING:
    from .dataio import Dataset
    from .mips.base import MipsIndex


@dataclass(frozen=True)
class MarginResult:
    """Margin of one example: margin == score_true - score_rival."""
    margin: float
    rival: int
    score_true: float
    score_rival: float


@dataclass(frozen=True)
class RiskReport:
    """Mean hinge rho-loss and 0/1 error over a dataset."""
    rho: float
    empirical_hinge: float
    zero_one: float


def exact_margin(W: WeightMatrix, x: SparseVector, y: int) -> MarginResult:
    """Margin with the true best rival, found by scanning every class.

    Ties in the rival argmax break toward the smallest class id.  A margin
    <= 0 means the example is misclassified.
    """
    if W.num_classes < 2:
        raise ValueError("need at least two classes to compute a margin")
    if not 0 <= y < W.num_classes:
        raise IndexError(f"label {y} out of range [0, {W.num_classes})")
    best_c = -1
    best_s = -np.inf
    for c in range(W.num_classes):
        if c == y:
            continue
        s = W.row_dot(c, x)
        if s > best_s:
            best_s = s
            best_c = c
    s_true = W.row_dot(y, x)
    return MarginResult(s_true - best_s, best_c, s_true, best_s)


def inexact_margin(index: "MipsIndex", W: WeightMatrix, x: SparseVector,
                   y: int) -> MarginResult:
    """Margin against the rival proposed by a MIPS index.

    The candidate is re-scored exactly against W (one sparse dot), so the
    returned scores are exact; only the rival selection is approximate.
    """
    if not 0 <= y < W.num_classes:
        raise IndexError(f"label {y} out of range [0, {W.num_classes})")
    rival, _ = index.query(x, exclude=y)
    s_true = W.row_dot(y, x)
    s_rival = W.row_dot(rival, x)
    return MarginResult(s_true - s_rival, rival, s_true, s_rival)


def hinge_loss(margin: float, rho: float) -> float:
    """(1 - margin/rho)_+ for rho > 0."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    return max(0.0, 1.0 - margin / rho)


def exact_margins_batch(W: WeightMatrix, data: "Dataset") -> np.ndarray:
    """Exact margins for a whole dataset, scored by :func:`score_block`."""
    labels = data.labels_array()
    _, s_rival, s_true = score_block(data.to_csr(), scoring_operand(W.to_csr()),
                                     exclude=labels, at=labels)
    return s_true - s_rival


def inexact_margins_batch(index: "MipsIndex", W: WeightMatrix,
                          data: "Dataset") -> tuple[np.ndarray, np.ndarray]:
    """Margins and rivals of a whole dataset, the rivals proposed by ``index``.

    One ``query_batch`` call on the dataset's CSR block proposes every
    rival; the true and the rival class of every example are then re-scored
    exactly against W from the same block, each in one row-wise sparse
    product, so only the rival selection is approximate.
    """
    labels = data.labels_array()
    X, M = data.to_csr(), W.to_csr()
    rivals, _ = index.query_batch(X, labels)
    s_true, s_rival = (np.asarray(X.multiply(M[c]).sum(axis=1)).ravel()
                       for c in (labels, rivals))
    return s_true - s_rival, rivals


def empirical_risk(W: WeightMatrix, data: "Dataset", rho: float,
                   index: Optional["MipsIndex"] = None) -> RiskReport:
    """Mean hinge rho-loss and error rate: exact margins when ``index`` is
    None, else margins against the rivals ``index`` proposes.

    Margin exactly 0 counts as a misclassification.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if W.num_classes < 2:
        raise ValueError("need at least two classes")
    if index is None:
        margins = exact_margins_batch(W, data)
    else:
        margins, _ = inexact_margins_batch(index, W, data)
    hinge = np.maximum(0.0, 1.0 - margins / rho)
    return RiskReport(rho=rho,
                      empirical_hinge=float(hinge.mean()),
                      zero_one=float((margins <= 0.0).mean()))
