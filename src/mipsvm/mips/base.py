"""Common interface for the incremental maximum-inner-product indexes."""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..sparse import SparseVector

# Default backend parameters, keyed like the build_index keywords; the index
# constructors, TrainConfig and the CLI all read them from here.
BACKEND_DEFAULTS = {
    "lsh_bits": 64,
    "lsh_tables": 32,
    "swg_max_neighbors": 16,
    "swg_ef_construction": 100,
    "swg_ef_search": 64,
}


class NoCandidateError(LookupError):
    """Raised when a query has no candidate left after exclusion."""


class MipsIndex(ABC):
    """Incremental index over class rows answering argmax inner product.

    Contract shared by all backends:

    * ``query`` never returns the excluded class;
    * after ``update_row(c, row)`` the index reflects the new row before the
      next query;
    * queries are read-only and may run concurrently against a frozen index;
      updates are exclusive.
    """

    kind: str = "abstract"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = int(dim)

    def _check_row(self, row: SparseVector):
        if row.dim != self.dim:
            raise ValueError(f"row dim {row.dim} does not match index dim {self.dim}")

    @abstractmethod
    def query(self, x: SparseVector, exclude: int | None = None) -> tuple[int, float]:
        """Best (class_id, exact score of that class) with ``exclude`` removed."""

    @abstractmethod
    def update_row(self, c: int, new_row: SparseVector) -> None:
        """Insert or replace the row of class ``c``."""

    @abstractmethod
    def class_ids(self) -> list[int]:
        """Sorted ids of the currently indexed classes."""

    @abstractmethod
    def __len__(self) -> int:
        ...
