"""Exact and approximate margins, the hinge rho-loss, and empirical risk.

The margin of a labeled example (x, y) under a weight matrix W is the score
of the true class minus the best competing score.  The exact version scans
all classes; the approximate version asks a MIPS index for a competing class
and re-scores that single candidate exactly against W, so the approximation
error lives entirely in the candidate choice.  Both take every score as the
exact score of :mod:`mipsvm.sparse`, and the exact rival maximizes the
subtracted term, so the approximate margin is never below the exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .sparse import SparseVector, WeightMatrix, check_ids, stack_csr

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


def _margins(W: WeightMatrix, X, labels, index: Optional["MipsIndex"] = None):
    """``(rivals, true scores, rival scores)`` of the CSR block ``X``: the
    exact rivals from one :meth:`WeightMatrix.score` pass, or those ``index``
    proposes in one ``query_batch`` call, re-scored by
    :meth:`WeightMatrix.score_pairs`."""
    if W.num_classes < 2:
        raise ValueError("need at least two classes to compute a margin")
    labels = check_ids(labels, W.num_classes, "label")
    if index is None:
        rivals, s_rival, s_true = W.score(X, exclude=labels, at=labels)
    else:
        rivals, _ = index.query_batch(X, labels)
        s_true, s_rival = W.score_pairs(X, labels), W.score_pairs(X, rivals)
    return rivals, s_true, s_rival


def _margin_of_one(W: WeightMatrix, x: SparseVector, y: int,
                   index: Optional["MipsIndex"] = None) -> MarginResult:
    """:func:`_margins` of the one example ``(x, y)``."""
    found = _margins(W, stack_csr([x], x.dim), [y], index)
    rival, s_true, s_rival = (a[0].item() for a in found)
    return MarginResult(s_true - s_rival, rival, s_true, s_rival)


def exact_margin(W: WeightMatrix, x: SparseVector, y: int) -> MarginResult:
    """Margin against the best rival, ties toward the smallest class id (a
    margin <= 0 misclassifies): :func:`exact_margins_batch` of one example."""
    return _margin_of_one(W, x, y)


def inexact_margin(index: "MipsIndex", W: WeightMatrix, x: SparseVector,
                   y: int) -> MarginResult:
    """Margin against the rival proposed by a MIPS index, re-scored exactly
    against W: :func:`inexact_margins_batch` of one example."""
    return _margin_of_one(W, x, y, index)


def hinge_loss(margin: float, rho: float) -> float:
    """(1 - margin/rho)_+ for finite rho > 0 and a margin that is not NaN
    (``max`` would drop a NaN loss as 0.0)."""
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, not {rho}")
    if math.isnan(margin):
        raise ValueError(f"margin must be a number, not {margin}")
    return max(0.0, 1.0 - margin / rho)


def exact_margins_batch(W: WeightMatrix, data: "Dataset") -> np.ndarray:
    """Exact margins for a whole dataset, scored by :func:`score_block`."""
    _, s_true, s_rival = _margins(W, data.to_csr(), data.labels_array())
    return s_true - s_rival


def inexact_margins_batch(index: "MipsIndex", W: WeightMatrix,
                          data: "Dataset") -> tuple[np.ndarray, np.ndarray]:
    """Margins and rivals of a whole dataset, the rivals proposed by ``index``.

    One ``query_batch`` call on the dataset's CSR block proposes every
    rival; the true and the rival class of every example are then re-scored
    exactly by :meth:`WeightMatrix.score_pairs`, so only the rival selection
    is approximate.
    """
    rivals, s_true, s_rival = _margins(W, data.to_csr(), data.labels_array(), index)
    return s_true - s_rival, rivals


def empirical_risk(W: WeightMatrix, data: "Dataset", rho: float,
                   index: Optional["MipsIndex"] = None) -> RiskReport:
    """Mean hinge rho-loss and error rate: exact margins when ``index`` is
    None, else margins against the rivals ``index`` proposes.

    Margin exactly 0 counts as a misclassification.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, not {rho}")
    if index is None:
        margins = exact_margins_batch(W, data)
    else:
        margins, _ = inexact_margins_batch(index, W, data)
    hinge = np.maximum(0.0, 1.0 - margins / rho)
    return RiskReport(rho=rho,
                      empirical_hinge=float(hinge.mean()),
                      zero_one=float((margins <= 0.0).mean()))
