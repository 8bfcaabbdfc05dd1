"""Maximum-inner-product-search backends behind one incremental interface."""

from __future__ import annotations

from ..sparse import WeightMatrix, stack_csr
from .audit import AuditReport, audit_inexactness, recall_at_1
from .base import BACKEND_DEFAULTS, MipsIndex, NoCandidateError
from .exact import ExactIndex
from .simplelsh import (GaussianPlaneField, SimpleLshIndex, hash_code,
                        hashing_quality, sign_bits, simplelsh_transform)
from .swgraph import SwGraphIndex

BACKENDS = ("exact", "simplelsh", "swgraph")


def build_index(rows, kind: str, dim: int | None = None, *, seed: int = 0,
                lsh_bits: int = BACKEND_DEFAULTS["lsh_bits"],
                lsh_tables: int = BACKEND_DEFAULTS["lsh_tables"],
                swg_max_neighbors: int = BACKEND_DEFAULTS["swg_max_neighbors"],
                swg_ef_construction: int = BACKEND_DEFAULTS["swg_ef_construction"],
                swg_ef_search: int = BACKEND_DEFAULTS["swg_ef_search"]) -> MipsIndex:
    """Build an index of the given kind over (class_id, row) pairs, whose
    ids, being store positions, are 0, 1, ... in order.

    Deterministic for a fixed seed.  A row of another dim is named by its
    position in ``rows`` (:func:`~mipsvm.sparse.stack_csr`).
    """
    rows = list(rows)
    if dim is None:
        if not rows:
            raise ValueError("dim is required when building from no rows")
        dim = rows[0][1].dim
    if kind == "exact":
        index: MipsIndex = ExactIndex(dim)
    elif kind == "simplelsh":
        index = SimpleLshIndex(dim, bits=lsh_bits, tables=lsh_tables, seed=seed)
    elif kind == "swgraph":
        index = SwGraphIndex(dim, max_neighbors=swg_max_neighbors,
                             ef_construction=swg_ef_construction,
                             ef_search=swg_ef_search, seed=seed)
    else:
        raise ValueError(f"unknown backend {kind!r}; expected one of {BACKENDS}")
    index.update_rows([c for c, _ in rows], stack_csr([r for _, r in rows], dim))
    return index


def index_from_matrix(W: WeightMatrix, kind: str, **params) -> MipsIndex:
    """Index over W's logical rows, as ``materialize_row`` gives them: a
    :meth:`~MipsIndex.refresh` from a matrix that stores them."""
    index = build_index([], kind, dim=W.dim, **params)
    index.refresh(WeightMatrix.from_csr(W.to_csr()), range(W.num_classes))
    return index


__all__ = [
    "MipsIndex", "NoCandidateError", "ExactIndex", "SimpleLshIndex",
    "SwGraphIndex", "build_index", "index_from_matrix", "BACKENDS",
    "BACKEND_DEFAULTS",
    "simplelsh_transform", "hash_code", "sign_bits", "hashing_quality",
    "GaussianPlaneField", "AuditReport", "audit_inexactness", "recall_at_1",
]
