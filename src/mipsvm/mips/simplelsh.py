"""Sign-random-projection LSH over an inner-product similarity.

MIPS is reduced to cosine similarity by augmenting each data row with one
extra coordinate that tops its norm up to 1 (relative to the largest row
norm U), while queries are normalized and get a zero in that coordinate.
In the augmented space the inner product of a data row and a query equals
(w . x) / (U ||x||), so the cosine-LSH collision probabilities order
candidates exactly as the original inner products do.

Hash planes are a deterministic Gaussian field keyed by (seed, bit,
coordinate), generated on demand on the support of the hashed vectors, so
memory stays independent of the feature count.

Vectors are hashed a CSR block at a time: a query block, the rows of one
refresh, or every row on a rebuild, normalized or augmented as whole
blocks.  One pass takes the sorted union of the block's supports and sweeps
it in chunks of PLANE_CHUNK_ENTRIES // (planes hashed) coordinates.  Each
chunk's plane columns are generated once, whatever the number of vectors
sharing them, and one CSR x dense product adds the chunk's share to an
n x (planes hashed) projection matrix, whose signs are the bits.  Memory
is O(PLANE_CHUNK_ENTRIES + n * planes hashed), never O(bits * support).

A bucket hit needs a table's whole code, yet a short prefix already rules
out almost every (query, table) pair.  So rows and queries are hashed to
the first p = min(bits, PREFIX_BITS) bits of every table only (p * tables
planes, not bits * tables).  The buckets are one sorted array of the
(table, prefix) keys of every (row, table) pair, in which one
``searchsorted`` pair finds every (query, table) pair's bucket.  Where a
query's prefix bucket in table t is occupied, one pass per such table
hashes the remaining bits - p bits of t for the queries that hit there and
the rows of their buckets; a row is a candidate when those match too.  The
pools are exactly those of whole codes, at about p / bits of the hashing
while prefix buckets stay sparse (C well below 2^p).  Queries cache
nothing, so they stay read-only.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
from scipy import sparse as sp
from scipy.special import ndtri

# dot is unused here; perfbench/tracing.py patches it by this name on this
# module.
from ..sparse import SparseVector, dot, piece_bounds, row_sums, run_pieces  # noqa: F401
from .base import BACKEND_DEFAULTS, MipsIndex

# A hashing pass holds at most this many plane values at once (16 MB of
# float64); with the 64 x 32 default that is 1024 coordinates per chunk.
PLANE_CHUNK_ENTRIES = 1 << 21
# Rows and queries are hashed to the first min(bits, PREFIX_BITS) bits of
# each table; the rest of a table's code is hashed only where a query's
# prefix bucket is occupied.
PREFIX_BITS = 16


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


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 of every element, computed in place: pass a fresh array."""
    with np.errstate(over="ignore"):
        z += _GOLDEN
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


class GaussianPlaneField:
    """Random-access standard-normal plane coordinates keyed by (seed, bit, coord)."""

    def __init__(self, seed: int, n_bits: int):
        self.n_bits = int(n_bits)
        seed64 = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        bit_ids = np.arange(self.n_bits, dtype=np.uint64)
        with np.errstate(over="ignore"):
            self._bit_keys = _splitmix64(bit_ids * _MIX1 + seed64)

    def columns(self, coords: np.ndarray, bit_ids=None) -> np.ndarray:
        """Plane values at the given coordinates, C-ordered with one row per
        coordinate: (len(coords), n_bits), or (len(coords), len(bit_ids))
        holding the bits ``bit_ids`` in that order.  Every value is
        bit-identical to the full field's.

        Every step runs in place on one fresh array, so the peak is about
        two arrays of the output's size.
        """
        keys = (self._bit_keys if bit_ids is None
                else self._bit_keys[np.asarray(bit_ids, dtype=np.int64)])
        coords = np.asarray(coords, dtype=np.uint64)
        with np.errstate(over="ignore"):
            ckeys = _splitmix64(coords * _MIX2)
        mixed = _splitmix64(ckeys[:, None] ^ keys[None, :])
        mixed >>= np.uint64(11)
        u = mixed.astype(np.float64)
        del mixed
        u += 0.5
        u *= 2.0 ** -53
        return ndtri(u, out=u)


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


def _prefix_keys(bits: np.ndarray) -> np.ndarray:
    """One bytes key per (row, table) of the boolean (n, tables, p) ``bits``:
    the table's number, then its bits packed, so that keys are equal exactly
    when prefixes of one table are, at any p (PREFIX_BITS may pass 63)."""
    n, tables, p = bits.shape
    packed = np.empty((n, tables, 4 + -(-p // 8)), dtype=np.uint8)
    packed[..., :4] = np.arange(tables, dtype=">u4").view(np.uint8).reshape(tables, 4)
    packed[..., 4:] = np.packbits(bits, axis=-1)
    return packed.view(f"S{packed.shape[-1]}")[..., 0]


class SimpleLshIndex(MipsIndex):
    """Multi-table sign-projection LSH with exact re-ranking.

    Each row lives in exactly one bucket per table, keyed by the first
    ``min(bits, PREFIX_BITS)`` bits of its code in that table (row i of
    ``_keys``, for class ``_ids[i]``).  A query collects the rows whose
    whole code matches its own in some table, re-scores them exactly and
    returns the best; when no code matches, it falls back to a full scan,
    so a returned candidate is never worse than any retrieved one.
    :meth:`_candidates` proposes the pools, and
    :meth:`MipsIndex.query_batch` scores them.

    The norm constant U is the largest row norm seen so far; a batch of
    updates whose largest norm exceeds it re-augments and re-hashes the
    whole index once (rare once training projects the matrix into a fixed
    ball).  ``rebuild_count`` and ``prefix_hit_count`` count those
    rebuilds and the (query, table) pairs that needed the rest of their
    code hashed, beside the queries and fallbacks every index counts.
    """

    kind = "simplelsh"
    # perfbench/tracing.py wraps these by name on each backend class
    query, update_row = MipsIndex.query, MipsIndex.update_row

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
        self._prefix = min(self.bits, PREFIX_BITS)
        self._field = GaussianPlaneField(seed, self.tables * self.bits)
        self._keys = _prefix_keys(np.zeros((0, self.tables, self._prefix), dtype=bool))
        self._buckets = self._keys.ravel(), np.empty(0, dtype=np.int64)
        self._U = 0.0
        self.rebuild_count = 0
        self.prefix_hit_count = 0

    # -- hashing --------------------------------------------------------

    def _project(self, Z: sp.csr_matrix, bit_ids: np.ndarray) -> np.ndarray:
        """The n x len(bit_ids) projections of the rows of the augmented
        block ``Z`` on the planes ``bit_ids``, in one chunked pass.

        Each coordinate chunk's plane rows are cut into contiguous pieces
        (:func:`~mipsvm.sparse.piece_bounds`) that run on the kernel pool;
        a piece generates its planes' columns and adds its own columns of
        the projection.  Every projection sums the same chunks in the same
        order, so it does not depend on WORKERS, and the pieces of a chunk
        together hold its PLANE_CHUNK_ENTRIES plane values at most.
        """
        n = Z.shape[0]
        coords, cols = np.unique(Z.indices, return_inverse=True)
        Z = sp.csc_matrix(sp.csr_matrix((Z.data, cols, Z.indptr),
                                        shape=(n, coords.size)))
        proj = np.zeros((n, bit_ids.size))
        step = max(1, PLANE_CHUNK_ENTRIES // bit_ids.size)

        def add_planes(chunk, Z_chunk, first, last):
            planes = self._field.columns(chunk, bit_ids[first:last])
            proj[:, first:last] += Z_chunk @ planes

        for start in range(0, coords.size, step):
            chunk, Z_chunk = coords[start:start + step], Z[:, start:start + step]
            cuts = piece_bounds(bit_ids.size, chunk.size * bit_ids.size)
            run_pieces([partial(add_planes, chunk, Z_chunk, first, last)
                        for first, last in zip(cuts[:-1].tolist(), cuts[1:].tolist())])
        return proj

    def _hash(self, Z: sp.csr_matrix, tables=None, lo: int = 0,
              hi: int | None = None) -> np.ndarray:
        """Sign bits ``lo``..``hi`` of each of ``tables`` (by default the whole
        code of every table) for every row of the augmented block ``Z``, as
        a boolean (n, tables, hi - lo) array from one :meth:`_project` pass."""
        tables = range(self.tables) if tables is None else tables
        hi = self.bits if hi is None else hi
        bit_ids = (np.asarray(tables)[:, None] * self.bits
                   + np.arange(lo, hi)).ravel()
        proj = self._project(Z, bit_ids)
        return (proj >= 0.0).reshape(Z.shape[0], len(tables), hi - lo)

    def _augment(self, R: sp.csr_matrix) -> sp.csr_matrix:
        """The rows of ``R`` augmented at the current U, as
        :func:`simplelsh_transform` maps them; while U is 0 every row is zero
        and maps to the unit last-axis vector.  Each row's tail value goes in
        one new last column, inserted before the row's end."""
        scaled = R.data / (self._U or 1.0)
        tail = np.sqrt(np.maximum(0.0, 1.0 - row_sums(scaled * scaled, R.indptr)))
        ends, n = R.indptr[1:], R.shape[0]
        return sp.csr_matrix((np.insert(scaled, ends, tail),
                              np.insert(R.indices, ends, self.dim),
                              R.indptr + np.arange(n + 1)), shape=(n, self.dim + 1))

    # -- MipsIndex interface ----------------------------------------------

    def update_rows(self, ids, rows) -> None:
        """Store the block, then hash it in one pass.

        When the block's largest norm exceeds U, U becomes the largest norm
        of the index and every row is re-hashed (one rebuild); otherwise only
        the given rows are, and their keys spliced in.  Either way U and
        every key come out as one :meth:`update_row` per row in
        descending-norm order leaves them.
        """
        old_ids, old_keys = self._ids, self._keys
        ids, rows = self._write(ids, rows)
        if np.sqrt(row_sums(rows.data * rows.data, rows.indptr)).max(initial=0.0) > self._U:
            ids, rows = self._ids, self._block
            self._U = float(np.sqrt(row_sums(rows.data * rows.data, rows.indptr)).max())
            self.rebuild_count += 1
        keys = _prefix_keys(self._hash(self._augment(rows), hi=self._prefix))
        # the new keys come first, so that each class's first one is its newest
        _, first = np.unique(np.concatenate([ids, old_ids]), return_index=True)
        self._keys = np.concatenate([keys, old_keys])[first]
        order = np.argsort(self._keys, axis=None)  # the sorted keys, and each one's row
        self._buckets = self._keys.ravel()[order], order // self.tables

    def _candidates(self, X: sp.csr_matrix, exclude) -> tuple[np.ndarray, np.ndarray]:
        """Bucket-union pools of the rows of the query block ``X``, empty
        where the exact-scan fallback fires (no bucket match, or a zero
        query).

        The queries are normalized as one block and hashed to their code
        prefixes in one pass.  Each table in which some query's prefix
        bucket is occupied then gets one pass over the rest of its bits, for
        those queries and the rows of their buckets (augmented at the
        current U); a row joins a query's pool when that rest matches too.
        """
        norms = np.sqrt(row_sums(X.data * X.data, X.indptr))
        live = norms != 0.0
        Z = sp.csr_matrix((X.data / np.repeat(np.where(live, norms, 1.0),
                                              np.diff(X.indptr)), X.indices, X.indptr),
                          shape=(X.shape[0], self.dim + 1))
        keys, key_rows = self._buckets
        wanted = _prefix_keys(self._hash(Z, hi=self._prefix))
        lo, hi = np.searchsorted(keys, wanted), np.searchsorted(keys, wanted, "right")
        hit = live[:, None] & (hi > lo)
        # every (query, table, row) of an occupied bucket, query by query
        sizes = (hi - lo)[hit]
        starts = np.repeat(lo[hit] - np.cumsum(sizes) + sizes, sizes)
        queries, tables = (np.repeat(a, sizes) for a in np.nonzero(hit))
        rows = key_rows[starts + np.arange(starts.size)]
        if self._prefix < self.bits:
            with self._count_lock:
                self.prefix_hit_count += int(hit.sum())
            match = np.empty(rows.size, dtype=bool)
            for t in np.unique(tables).tolist():
                at = np.flatnonzero(tables == t)
                qs, q_at = np.unique(queries[at], return_inverse=True)
                rs, r_at = np.unique(rows[at], return_inverse=True)
                block = sp.vstack([Z[qs], self._augment(self._block[rs])], format="csr")
                rest = self._hash(block, tables=[t], lo=self._prefix)[:, 0]
                match[at] = (rest[q_at] == rest[qs.size + r_at]).all(axis=1)
            queries, rows = queries[match], rows[match]
        classes, given = exclude
        kept = ~(given[queries] & (self._ids[rows] == classes[queries]))
        pairs = np.unique(queries[kept] * len(self) + rows[kept])  # sorted, each once
        queries, rows = np.divmod(pairs, len(self))
        # indptr[i] counts the pool entries of the queries before query i
        return np.searchsorted(queries, np.arange(X.shape[0] + 1)), self._ids[rows]

    def counters(self) -> dict[str, int]:
        return {"rebuilds": self.rebuild_count, **super().counters(),
                "prefix_hits": self.prefix_hit_count}
