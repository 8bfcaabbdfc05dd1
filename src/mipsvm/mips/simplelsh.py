"""Sign-random-projection LSH over an inner-product similarity.

MIPS is reduced to cosine similarity by augmenting each data row with one
extra coordinate that tops its norm up to 1 (relative to the largest row
norm U), while queries are normalized and get a zero in that coordinate.
In the augmented space the inner product of a data row and a query equals
(w . x) / (U ||x||), so the cosine-LSH collision probabilities order
candidates exactly as the original inner products do.

Hash planes are a deterministic Gaussian field keyed by (seed, bit,
coordinate), evaluated only on the support of the hashed vector.  For small
dimensions the whole field is precomputed into a dense matrix; for large
ones it is generated on demand, so memory stays independent of the feature
count.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

# dot is unused here; perfbench/tracing.py patches it by this name on this
# module.
from ..sparse import SparseVector, dot  # noqa: F401
from .base import BACKEND_DEFAULTS, MipsIndex

# Precompute the plane matrix when bits * (dim + 1) stays below this.
DENSE_PLANES_MAX_ENTRIES = 1 << 24


def hashing_quality(c: float, S: float) -> float:
    """Diagnostic quality exponent log(1 - cos(S)/pi) / log(1 - cos(cS)/pi).

    Implemented verbatim (including ``cos`` of the threshold itself); it is
    a printed diagnostic, not part of any search path.  Raises when the
    denominator vanishes (cos(cS) ~ 0) or the arguments leave (0,1) x (0,inf).
    """
    if not (math.isfinite(c) and math.isfinite(S)):
        raise ValueError("c and S must be finite")
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie strictly inside (0, 1)")
    if S <= 0.0:
        raise ValueError("S must be positive")
    cos_cs = math.cos(c * S)
    if abs(cos_cs) < 1e-12:
        raise ValueError("denominator log(1 - cos(cS)/pi) vanishes")
    num = math.log(1.0 - math.cos(S) / math.pi)
    den = math.log(1.0 - cos_cs / math.pi)
    return num / den


def simplelsh_transform(w: SparseVector, U: float, *, query: bool = False) -> SparseVector:
    """Map a vector into the (dim+1)-dimensional augmented hashing space.

    Data rows (``query=False``) require ||w|| <= U and map to
    [w/U ; sqrt(1 - ||w/U||^2)], a unit vector.  Queries map to
    [x/||x|| ; 0]; a zero query cannot be transformed.
    """
    d = w.dim
    if query:
        nrm = w.norm()
        if nrm == 0.0:
            raise ValueError("cannot transform a zero query")
        return SparseVector(w.indices.copy(), w.values / nrm, d + 1, check=False)
    if U <= 0.0:
        raise ValueError("U must be positive")
    scaled = w.values / U
    sq = float(np.dot(scaled, scaled))
    if sq > 1.0 + 1e-9:
        raise ValueError(f"row norm {w.norm():g} exceeds U={U:g}")
    last = math.sqrt(max(0.0, 1.0 - sq))
    idx = np.append(w.indices, d)
    val = np.append(scaled, last)
    return SparseVector(idx, val, d + 1, check=False)


# -- deterministic Gaussian plane field ---------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = x + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


class GaussianPlaneField:
    """Random-access standard-normal plane coordinates keyed by (seed, bit, coord)."""

    def __init__(self, seed: int, n_bits: int):
        self.n_bits = int(n_bits)
        seed64 = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        bit_ids = np.arange(self.n_bits, dtype=np.uint64)
        with np.errstate(over="ignore"):
            self._bit_keys = _splitmix64(bit_ids * _MIX1 + seed64)

    def block(self, coords: np.ndarray) -> np.ndarray:
        """Plane values for every bit at the given coordinates: (n_bits, len(coords))."""
        coords = np.asarray(coords, dtype=np.uint64)
        with np.errstate(over="ignore"):
            ckeys = _splitmix64(coords * _MIX2)
            mixed = _splitmix64(self._bit_keys[:, None] ^ ckeys[None, :])
        u = ((mixed >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        return ndtri(u)


def sign_bits(z, planes: np.ndarray) -> np.ndarray:
    """Boolean array: bit k is (planes[k] . z) >= 0."""
    planes = np.asarray(planes, dtype=np.float64)
    if isinstance(z, SparseVector):
        if z.dim != planes.shape[1]:
            raise ValueError("vector dim does not match plane dim")
        if z.nnz == 0:
            proj = np.zeros(planes.shape[0])
        else:
            proj = planes[:, z.indices] @ z.values
    else:
        proj = planes @ np.asarray(z, dtype=np.float64)
    return proj >= 0.0


def pack_bits(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits.astype(np.uint8)).tobytes(), "big")


def hash_code(z, planes: np.ndarray) -> int:
    """K-bit code with bit k = sign(planes[k] . z) >= 0, packed into an int."""
    return pack_bits(sign_bits(z, planes))


class SimpleLshIndex(MipsIndex):
    """Multi-table sign-projection LSH with exact re-ranking.

    Each row lives in exactly one bucket per table.  A query collects the
    union of its bucket matches over all tables, re-scores them exactly in
    one product and returns the best; when no bucket matches, it falls back
    to a full scan, so a returned candidate is never worse than any
    retrieved one.

    The norm constant U is the largest row norm seen at build time; an
    update that exceeds it triggers a re-augmentation of the whole index
    (rare once training projects the matrix into a fixed ball).
    """

    kind = "simplelsh"

    def __init__(self, dim: int, *, bits: int = BACKEND_DEFAULTS["lsh_bits"],
                 tables: int = BACKEND_DEFAULTS["lsh_tables"], seed: int = 0):
        super().__init__(dim)
        if bits < 1:
            raise ValueError("bits must be positive")
        if tables < 1:
            raise ValueError("tables must be positive")
        self.bits = int(bits)
        self.tables = int(tables)
        self.seed = int(seed)
        self._field = GaussianPlaneField(seed, self.tables * self.bits)
        if self.tables * self.bits * (dim + 1) <= DENSE_PLANES_MAX_ENTRIES:
            self._planes = self._field.block(np.arange(dim + 1, dtype=np.uint64))
        else:
            self._planes = None
        self._norms: dict[int, float] = {}
        self._codes: dict[int, list[int]] = {}
        self._buckets: list[dict[int, set[int]]] = [{} for _ in range(self.tables)]
        self._U = 0.0
        self.rebuild_count = 0

    # -- hashing --------------------------------------------------------

    def _projections(self, z: SparseVector) -> np.ndarray:
        if z.nnz == 0:
            return np.zeros(self.tables * self.bits)
        if self._planes is not None:
            block = self._planes[:, z.indices]
        else:
            block = self._field.block(z.indices.astype(np.uint64))
        return block @ z.values

    def _table_codes(self, z: SparseVector) -> list[int]:
        bits = self._projections(z) >= 0.0
        return [pack_bits(bits[t * self.bits:(t + 1) * self.bits])
                for t in range(self.tables)]

    def _augment_row(self, row: SparseVector) -> SparseVector:
        if self._U == 0.0:
            # all rows are zero; the augmented limit is the unit last-axis vector
            return SparseVector(np.array([self.dim], dtype=np.int64),
                                np.array([1.0]), self.dim + 1, check=False)
        return simplelsh_transform(row, self._U)

    # -- bucket maintenance ----------------------------------------------

    def _add_to_buckets(self, c: int):
        codes = self._table_codes(self._augment_row(self._rows[c]))
        self._codes[c] = codes
        for t, code in enumerate(codes):
            self._buckets[t].setdefault(code, set()).add(c)

    def _remove_from_buckets(self, c: int):
        for t, code in enumerate(self._codes.pop(c)):
            bucket = self._buckets[t].get(code)
            if bucket is not None:
                bucket.discard(c)
                if not bucket:
                    del self._buckets[t][code]

    def _rebuild(self):
        self._U = max(self._norms.values(), default=0.0)
        self._buckets = [{} for _ in range(self.tables)]
        self._codes = {}
        for c in sorted(self._rows):
            self._add_to_buckets(c)
        self.rebuild_count += 1

    # -- MipsIndex interface ----------------------------------------------

    def update_row(self, c: int, new_row: SparseVector) -> None:
        c = int(c)
        self._store(c, new_row)
        if c in self._codes:
            self._remove_from_buckets(c)
        self._norms[c] = new_row.norm()
        if self._norms[c] > self._U:
            self._rebuild()
        else:
            self._add_to_buckets(c)

    def _candidates(self, x: SparseVector, exclude: int | None) -> tuple[list[int], bool]:
        """Bucket-union candidates and whether the exact-scan fallback fired."""
        if x.norm() == 0.0:
            pool = [c for c in self._rows if c != exclude]
            return sorted(pool), True
        zq = simplelsh_transform(x, self._U if self._U > 0 else 1.0, query=True)
        found: set[int] = set()
        for t, code in enumerate(self._table_codes(zq)):
            hit = self._buckets[t].get(code)
            if hit:
                found.update(hit)
        found.discard(exclude)
        if found:
            return sorted(found), False
        pool = [c for c in self._rows if c != exclude]
        return sorted(pool), True

    def query(self, x: SparseVector, exclude: int | None = None) -> tuple[int, float]:
        self._check_row(x)
        self._require_candidate(exclude)
        pool, fell_back = self._candidates(x, exclude)
        return self._scan(x, exclude, None if fell_back else pool)
