"""Prediction and the two evaluation measures: accuracy and macro-F1.

Macro-F1 is the harmonic mean of macro-averaged precision and macro-averaged
recall.  The per-class ratios are reduced with exact rational arithmetic and
converted to float once at the end, so hand-checkable values come out exact.
A flag switches to the other common convention (mean of per-class F1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .sparse import SparseVector, WeightMatrix, stack_csr, whole_ids

if TYPE_CHECKING:
    from .dataio import Dataset


@dataclass
class PredictionSet:
    """Paired true and predicted class ids."""

    true_labels: np.ndarray
    predicted: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.true_labels = whole_ids(self.true_labels, "true label")
        self.predicted = whole_ids(self.predicted, "predicted label")
        if self.true_labels.shape != self.predicted.shape:
            raise ValueError("true/predicted length mismatch")
        if self.true_labels.size:
            hi = int(max(self.true_labels.max(), self.predicted.max()))
            lo = int(min(self.true_labels.min(), self.predicted.min()))
            if lo < 0 or hi >= self.num_classes:
                raise ValueError("label outside [0, num_classes)")

    def __len__(self):
        return int(self.true_labels.size)


def _predict(W: WeightMatrix, X) -> np.ndarray:
    """Best class of every row of the CSR block ``X``, from :meth:`WeightMatrix.score`."""
    return W.score(X)[0]


def predict(W: WeightMatrix, x: SparseVector) -> int:
    """argmax over all class scores, ties toward the smallest class id: a
    :func:`predict_batch` of one example."""
    return int(_predict(W, stack_csr([x], x.dim))[0])


def predict_batch(W: WeightMatrix, data: "Dataset") -> np.ndarray:
    """Vectorized prediction for a whole dataset (same tie-breaking as predict)."""
    return _predict(W, data.to_csr())


def accuracy(p: PredictionSet) -> float:
    if len(p) == 0:
        raise ValueError("empty prediction set")
    return float((p.true_labels == p.predicted).mean())


def _ratio_sum(numerators: np.ndarray, denominators: np.ndarray) -> Fraction:
    """Exact sum of numerators[i] / denominators[i] over the positive
    denominators.  The numerators are added per distinct denominator first,
    so it builds one Fraction per distinct count, not one per class."""
    keep = denominators > 0
    distinct, group = np.unique(denominators[keep], return_inverse=True)
    grouped = np.zeros(distinct.size, dtype=np.int64)
    np.add.at(grouped, group, numerators[keep])
    return sum((Fraction(t, n) for t, n in zip(grouped.tolist(), distinct.tolist())),
               Fraction(0))


def macro_f1(p: PredictionSet, *, mean_per_class: bool = False) -> float:
    """Macro-F1 over the classes present in the truth or the predictions.

    Default: harmonic mean of macro-precision and macro-recall.  A class
    with no predicted (resp. actual) positives contributes precision
    (resp. recall) 0.  ``mean_per_class=True`` averages per-class F1 scores
    instead.
    """
    if len(p) == 0:
        raise ValueError("empty prediction set")
    present = np.union1d(p.true_labels, p.predicted)
    hit = p.true_labels[p.true_labels == p.predicted]
    tp, pred_n, true_n = (np.bincount(labels, minlength=p.num_classes)[present]
                          for labels in (hit, p.predicted, p.true_labels))
    k = len(present)
    if mean_per_class:
        # every present class has a true or a predicted example
        return float(_ratio_sum(2 * tp, pred_n + true_n) / k)
    ma_p = _ratio_sum(tp, pred_n) / k
    ma_r = _ratio_sum(tp, true_n) / k
    if ma_p + ma_r == 0:
        return 0.0
    return float(2 * ma_p * ma_r / (ma_p + ma_r))


@dataclass(frozen=True)
class EvalReport:
    n: int
    accuracy: float
    macro_f1: float
    predict_seconds: float

    def to_dict(self) -> dict:
        return {"n": self.n, "accuracy": self.accuracy,
                "macro_f1": self.macro_f1,
                "predict_seconds": self.predict_seconds}


def evaluate(W: WeightMatrix, data: "Dataset") -> EvalReport:
    """Predict a whole dataset with exact scoring and report both measures."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    t0 = time.perf_counter()
    pred = predict_batch(W, data)
    seconds = time.perf_counter() - t0
    truth = data.labels_array()
    C = max(W.num_classes, int(truth.max()) + 1 if truth.size else 1)
    pset = PredictionSet(truth, pred, C)
    return EvalReport(n=len(data), accuracy=accuracy(pset),
                      macro_f1=macro_f1(pset), predict_seconds=seconds)
