"""Extreme multi-class linear SVMs with approximate-margin training.

The package trains l2- and l1-regularized multi-class SVMs whose per-example
margin is computed approximately by a pluggable maximum-inner-product-search
(MIPS) backend: an exact scan, a sign-random-projection LSH index, or a
navigable small-world graph.  An audit harness measures how often the
approximate margin exceeds the exact one by more than a chosen epsilon.
"""

from .sparse import SparseVector, WeightMatrix, dot
from .margin import (MarginResult, RiskReport, exact_margin, inexact_margin,
                     hinge_loss, empirical_risk)
from .mips import (MipsIndex, NoCandidateError, build_index, ExactIndex,
                   SimpleLshIndex, SwGraphIndex, simplelsh_transform,
                   hash_code, sign_bits, hashing_quality, audit_inexactness,
                   recall_at_1)
from .metrics import (PredictionSet, predict, predict_batch, accuracy, macro_f1,
                      evaluate)
from .train import (TrainConfig, TrainLog, learning_rate, sample_batch,
                    objective_l2, objective_l1, train_l2, train_l1)
from .dataio import Dataset, parse_dataset, write_dataset, save_model, load_model
from .synth import make_toy_dataset, make_synthetic, train_test_split

__version__ = "0.1.0"

__all__ = [
    "SparseVector", "WeightMatrix", "dot",
    "MarginResult", "RiskReport", "exact_margin", "inexact_margin",
    "hinge_loss", "empirical_risk",
    "MipsIndex", "NoCandidateError", "build_index", "ExactIndex",
    "SimpleLshIndex", "SwGraphIndex", "simplelsh_transform", "hash_code",
    "sign_bits", "hashing_quality", "audit_inexactness", "recall_at_1",
    "PredictionSet", "predict", "predict_batch", "accuracy", "macro_f1",
    "evaluate",
    "TrainConfig", "TrainLog", "learning_rate", "sample_batch",
    "objective_l2", "objective_l1", "train_l2", "train_l1",
    "Dataset", "parse_dataset", "write_dataset", "save_model", "load_model",
    "make_toy_dataset", "make_synthetic", "train_test_split",
]
