"""Dataset parsing (LIBSVM-style lines) and model serialization.

Dataset files hold one example per non-empty line: ``label idx:val idx:val``
with 1-based feature indices by default.  External labels are mapped to
dense 0-based class ids in first-seen order; the mapping travels with the
Dataset and can be written next to a model so later predictions report the
original labels.

Model files come in two flavors sharing the magic string ``MEMOIR1``:

* text: ``MEMOIR1 text <version>`` header line, one ``C d lambda algo``
  line, then one ``class_id nnz idx:val ...`` line per class with
  shortest-roundtrip floats (exact on reload);
* binary: ``MEMOIR1\\0bin\\0`` magic, little-endian header
  (u32 version, u64 C, u64 d, f64 lambda, u8 tag length + tag bytes), then
  per class u64 id, u64 nnz, nnz i64 indices, nnz f64 values.  Written
  bytes are a pure function of the logical matrix, so identical models
  serialize identically.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from functools import cached_property

import numpy as np
from scipy import sparse as sp

from .sparse import SparseVector, WeightMatrix, stack_csr

TEXT_MAGIC = "MEMOIR1 text"
BINARY_MAGIC = b"MEMOIR1\x00bin\x00"
FORMAT_VERSION = 1
# a binary row's class id and feature count
_ROW_HEADER = struct.Struct("<QQ")


class DatasetFormatError(ValueError):
    """Malformed dataset line; message carries the 1-based line number."""


class ModelFormatError(ValueError):
    """Corrupt, truncated or wrong-version model file."""


class Dataset:
    """Labeled sparse examples: one label array (every class id in
    [0, num_classes), one per row) and one canonical CSR block (sorted,
    distinct indices below ``dim``, no explicit zeros), with a fixed
    dimension and class count.

    ``Dataset(examples, dim, num_classes, label_map)`` stacks a list of
    ``(class id, SparseVector)`` pairs once; :meth:`from_csr` takes the
    arrays as they are.  :attr:`examples` is a view of the block, built on
    first use at one SparseVector per row.
    """

    def __init__(self, examples, dim: int, num_classes: int,
                 label_map: dict[str, int] | None = None):
        examples = list(examples)
        for k, (_, x) in enumerate(examples):
            if x.dim != dim:
                raise ValueError(f"example {k} has dim {x.dim}, expected {dim}")
        labels = np.fromiter((y for y, _ in examples), np.int64, len(examples))
        block = stack_csr([x.indices for _, x in examples],
                          [x.values for _, x in examples], dim)
        self._init(labels, block, num_classes, label_map)
        self.examples = examples

    @classmethod
    def from_csr(cls, labels: np.ndarray, block: sp.csr_matrix, num_classes: int,
                 label_map: dict[str, int] | None = None) -> "Dataset":
        """The examples whose class ids are ``labels`` and whose rows are
        ``block``, both taken as they are (neither may be changed after)."""
        data = cls.__new__(cls)
        data._init(labels, block, num_classes, label_map)
        return data

    def _init(self, labels, block, num_classes, label_map) -> None:
        if labels.size != block.shape[0]:
            raise ValueError(f"{labels.size} labels for {block.shape[0]} rows")
        bad = np.flatnonzero((labels < 0) | (labels >= num_classes))
        if bad.size:
            raise ValueError(f"label {labels[bad[0]]} of row {bad[0]} is outside "
                             f"[0, {num_classes})")
        finite = np.isfinite(block.data)
        if not finite.all():
            k = int(finite.argmin())
            raise ValueError(f"row {np.searchsorted(block.indptr, k, 'right') - 1} holds "
                             f"the non-finite feature value {float(block.data[k])!r}")
        self._labels = labels
        # labels_array() hands this array out
        labels.flags.writeable = False
        self._block = block
        self.dim = int(block.shape[1])
        self.num_classes = num_classes
        self.label_map = dict(label_map) if label_map else {}

    def __len__(self):
        return self._labels.size

    @cached_property
    def examples(self) -> list[tuple[int, SparseVector]]:
        """``(class id, SparseVector)`` per row, viewing the block's arrays."""
        X = self._block
        bounds = X.indptr.tolist()
        indices = X.indices.astype(np.int64, copy=False)
        return [(y, SparseVector(indices[lo:hi], X.data[lo:hi], self.dim, check=False))
                for y, lo, hi in zip(self._labels.tolist(), bounds[:-1], bounds[1:])]

    def labels_array(self) -> np.ndarray:
        """The class id of every row (a read-only array)."""
        return self._labels

    def label_names(self) -> list[str]:
        """External labels ordered by dense id (dense ids without a name stringify)."""
        inverse = {v: k for k, v in self.label_map.items()}
        return [inverse.get(c, str(c)) for c in range(self.num_classes)]

    def to_csr(self) -> sp.csr_matrix:
        """The examples' CSR block (do not modify it)."""
        return self._block

    def subset(self, idx) -> "Dataset":
        """The rows ``idx``, in that order (repeats allowed), as one row take;
        the IndexError names the first index outside [0, len)."""
        rows = np.asarray(idx, dtype=np.int64)
        for i in rows[(rows < 0) | (rows >= len(self))][:1]:
            raise IndexError(f"row index {i} out of range [0, {len(self)})")
        return Dataset.from_csr(self._labels[rows], self._block[rows],
                                self.num_classes, self.label_map)


# Feature tokens are converted about this many characters of the file at a
# time, so the parse's temporaries stay bounded by the chunk.
PARSE_CHUNK_CHARS = 1 << 18
# One ``index:value`` token as numpy's text reader converts it
_FEATURE = np.dtype([("index", np.int64), ("value", np.float64)])
# A feature index must leave the dimension it implies (index + 1) in int64
_INDEX_END = np.iinfo(np.int64).max


def _parse_feature(token: str, lineno: int, zero_based: bool) -> tuple[int, float]:
    head, sep, tail = token.partition(":")
    if not sep:
        raise DatasetFormatError(f"line {lineno}: malformed token {token!r}")
    try:
        raw = int(head)
        value = float(tail)
    except ValueError:
        raise DatasetFormatError(f"line {lineno}: malformed token {token!r}") from None
    if not math.isfinite(value):
        raise DatasetFormatError(f"line {lineno}: non-finite value in {token!r}")
    index = raw if zero_based else raw - 1
    if not 0 <= index < _INDEX_END:
        raise DatasetFormatError(f"line {lineno}: feature index {raw} out of range")
    return index, value


def _features_per_token(tokens, counts, linenos, zero_based):
    """Index and value of every feature, each row sorted, one token at a
    time: raises the exact error of the first bad line, and accepts what
    Python's ``int`` and ``float`` accept."""
    indices, values = [], []
    pos = 0
    for count, lineno in zip(counts, linenos):
        feats = sorted(_parse_feature(t, lineno, zero_based)
                       for t in tokens[pos:pos + count])
        pos += count
        for (i, _), (j, _) in zip(feats, feats[1:]):
            if i == j:
                raise DatasetFormatError(
                    f"line {lineno}: duplicate feature index {i if zero_based else i + 1}")
        indices.extend(i for i, _ in feats)
        values.extend(v for _, v in feats)
    return (np.array(indices, dtype=np.int64), np.array(values, dtype=np.float64))


def _features_at_once(tokens, rows, zero_based):
    """What :func:`_features_per_token` returns, from one numpy text-reader
    call and vectorized checks; None where either rejects the chunk."""
    try:
        pairs = np.loadtxt(tokens, delimiter=":", dtype=_FEATURE, comments=None,
                           ndmin=1)
    except ValueError:
        return None
    raw, values = pairs["index"], pairs["value"]
    lowest = 0 if zero_based else 1
    if (raw.size != len(tokens) or not np.isfinite(values).all()
            or raw.min() < lowest):
        return None
    indices = raw - lowest
    if indices.max() >= _INDEX_END:
        return None
    same_row = rows[1:] == rows[:-1]
    if (same_row & (indices[1:] <= indices[:-1])).any():
        order = np.lexsort((indices, rows))
        indices, values = indices[order], values[order]
        if (same_row & (indices[1:] == indices[:-1])).any():
            return None
    return indices, values


def _chunk_rows(tokens, counts, linenos, zero_based, dim):
    """The CSR pieces of one chunk's rows: ``(row lengths, indices, values,
    max index, features dropped at dim)``.  The max index counts explicit
    zeros, which the pieces then drop."""
    rows = np.repeat(np.arange(len(counts)), counts)
    found = _features_at_once(tokens, rows, zero_based) if tokens else None
    if found is None:
        found = _features_per_token(tokens, counts, linenos, zero_based)
    indices, values = found
    dropped = 0
    if dim is not None:
        kept = indices < dim
        dropped = indices.size - int(np.count_nonzero(kept))
        if dropped:
            rows, indices, values = rows[kept], indices[kept], values[kept]
    max_index = int(indices.max()) if indices.size else -1
    nonzero = values != 0.0
    lengths = np.bincount(rows[nonzero], minlength=len(counts))
    if max_index < np.iinfo(np.int32).max:  # pieces that all fit join as int32
        indices = indices.astype(np.int32)
    return lengths, indices[nonzero], values[nonzero], max_index, dropped


def _undecodable(line: str) -> bool:
    """Whether ``line``, read with ``surrogateescape``, held bytes that are
    not UTF-8 (each became a lone surrogate, which cannot be encoded)."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def parse_dataset(path, *, zero_based: bool = False, dim: int | None = None,
                  num_classes: int | None = None,
                  label_map: dict[str, int] | None = None) -> Dataset:
    """Parse a LIBSVM-style file into a Dataset.

    ``dim`` forces the feature dimension (features beyond it are dropped
    with one counted warning).  ``num_classes`` forces the class count and
    rejects labels beyond it.  ``label_map`` seeds the external-label
    mapping (as persisted from a training run); unseen labels extend it.

    Lines are read about PARSE_CHUNK_CHARS characters at a time.  A line's
    label is mapped as it is read; the feature tokens of the chunk are
    converted together into CSR pieces, joined into one block at the end.
    An error names the first bad line in file order.
    """
    label_map = dict(label_map) if label_map else {}
    labels: list[int] = []
    pieces = []  # one (row lengths, indices, values) per chunk
    max_index = -1
    dropped = 0
    lineno = 0
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while lines := fh.readlines(PARSE_CHUNK_CHARS):
            tokens, counts, linenos = [], [], []
            error = None
            for line in lines:
                lineno += 1
                if not line.isascii() and _undecodable(line):
                    error = DatasetFormatError(f"line {lineno}: not UTF-8 text")
                    break
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                split = line.split()
                label = split[0]
                if ":" in label:
                    error = DatasetFormatError(f"line {lineno}: missing label")
                    break
                if label not in label_map:
                    label_map[label] = len(label_map)
                labels.append(label_map[label])
                tokens += split[1:]
                counts.append(len(split) - 1)
                linenos.append(lineno)
            # the rows read before a bad line go first: an error among
            # them comes earlier in the file
            lengths, indices, values, top, cut = _chunk_rows(
                tokens, counts, linenos, zero_based, dim)
            if error is not None:
                raise error
            pieces.append((lengths, indices, values))
            max_index = max(max_index, top)
            dropped += cut
    if not labels:
        raise DatasetFormatError("empty dataset")
    if dropped:
        warnings.warn(f"dropped {dropped} feature(s) at or beyond forced dim {dim}")
    final_dim = dim if dim is not None else max_index + 1
    final_dim = max(final_dim, 1)
    observed_classes = len(label_map)
    if num_classes is not None:
        if observed_classes > num_classes:
            raise DatasetFormatError(
                f"found {observed_classes} classes but num_classes={num_classes}")
        final_classes = num_classes
    else:
        final_classes = observed_classes
    lengths, indices, values = (np.concatenate(part) for part in zip(*pieces))
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    # every index is checked, sorted, distinct and below final_dim, and
    # every value finite and nonzero
    block = sp.csr_matrix((values, indices, indptr), shape=(len(labels), final_dim))
    return Dataset.from_csr(np.array(labels, dtype=np.int64), block, final_classes,
                            label_map)


def write_dataset(path, data: Dataset, *, zero_based: bool = False) -> None:
    """Write a Dataset back out in the same line format it is parsed from."""
    names = data.label_names()
    offset = 0 if zero_based else 1
    X = data.to_csr()
    bounds, indices, values = X.indptr.tolist(), X.indices.tolist(), X.data.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for y, lo, hi in zip(data.labels_array().tolist(), bounds[:-1], bounds[1:]):
            feats = " ".join(f"{i + offset}:{v!r}"
                             for i, v in zip(indices[lo:hi], values[lo:hi]))
            fh.write(f"{names[y]} {feats}".rstrip() + "\n")


# -- model files -----------------------------------------------------------


def save_model(path, W: WeightMatrix, *, lam: float, algorithm: str,
               fmt: str = "binary", label_names: list[str] | None = None) -> None:
    """Serialize the logical weight matrix (scale folded in, explicit zeros
    dropped) from one CSR block.

    ``label_names`` optionally writes a ``<path>.labels`` sidecar with one
    external label per line, ordered by dense class id.  An algorithm tag
    the loaders cannot read back, or a λ that is not finite and >= 0, raises
    ``ValueError`` before ``path`` opens.
    """
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lambda must be finite and >= 0, got {lam!r}")
    tag = algorithm.encode("utf-8")
    if not tag:
        raise ValueError("algorithm tag is empty")
    if any(ch.isspace() for ch in algorithm):
        raise ValueError(f"algorithm tag {algorithm!r} contains whitespace")
    if len(tag) > 255:
        raise ValueError(f"algorithm tag takes {len(tag)} UTF-8 bytes; at most 255 fit")
    if fmt not in ("text", "binary"):
        raise ValueError(f"unknown model format {fmt!r}")
    logical = W.to_csr()
    logical.eliminate_zeros()
    rows = list(enumerate(zip(logical.indptr[:-1].tolist(), logical.indptr[1:].tolist())))
    if fmt == "text":
        indices, values = logical.indices.tolist(), logical.data.tolist()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{TEXT_MAGIC} {FORMAT_VERSION}\n")
            fh.write(f"{W.num_classes} {W.dim} {float(lam)!r} {algorithm}\n")
            for c, (lo, hi) in rows:
                feats = " ".join(f"{i}:{v!r}"
                                 for i, v in zip(indices[lo:hi], values[lo:hi]))
                fh.write(f"{c} {hi - lo} {feats}".rstrip() + "\n")
    else:
        indices, values = logical.indices.astype("<i8"), logical.data.astype("<f8")
        with open(path, "wb") as fh:
            fh.write(BINARY_MAGIC)
            fh.write(struct.pack("<IQQd", FORMAT_VERSION, W.num_classes, W.dim, lam))
            fh.write(struct.pack("<B", len(tag)))
            fh.write(tag)
            for c, (lo, hi) in rows:
                fh.write(_ROW_HEADER.pack(c, hi - lo))
                fh.write(indices[lo:hi].tobytes())
                fh.write(values[lo:hi].tobytes())
    if label_names is not None:
        with open(str(path) + ".labels", "w", encoding="utf-8") as fh:
            fh.writelines(name + "\n" for name in label_names)


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _check_dim(dim: int) -> None:
    # feature indices are int64, and so is the weight matrix's CSR shape
    if not 1 <= dim <= np.iinfo(np.int64).max:
        raise ModelFormatError(f"header claims dimension {dim}")


def _check_lambda(lam: float) -> None:
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ModelFormatError(f"header claims lambda {lam!r}; it must be finite and >= 0")


def _check_class_claim(fh, num_classes: int, min_row_bytes: int) -> None:
    """Reject a header claiming a negative class count, or more rows than
    the rest of the file can hold.

    Runs before the matrix is allocated, so a short file cannot make the
    loader allocate in proportion to a forged class count.
    """
    if num_classes < 0:
        raise ModelFormatError(f"header claims {num_classes} classes")
    left = _bytes_left(fh)
    if num_classes * min_row_bytes > left:
        raise ModelFormatError(
            f"header claims {num_classes} classes but only {left} bytes follow "
            f"(each row takes at least {min_row_bytes})")


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ModelFormatError(f"truncated model file while reading {what}")
    return buf


def _load_binary(fh) -> tuple[WeightMatrix, dict]:
    version, num_classes, dim, lam = struct.unpack(
        "<IQQd", _read_exact(fh, struct.calcsize("<IQQd"), "header"))
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model version {version}")
    (tag_len,) = struct.unpack("<B", _read_exact(fh, 1, "header"))
    try:
        algorithm = _read_exact(fh, tag_len, "header").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"algorithm tag is not UTF-8: {exc}") from exc
    _check_dim(dim)
    _check_lambda(lam)
    _check_class_claim(fh, num_classes, 16)
    body = fh.read()
    # walk the row headers: row k's nnz indices start at word starts[k]
    starts = np.empty(num_classes, dtype=np.int64)
    counts = np.empty(num_classes, dtype=np.int64)
    pos, rows, failure = 0, num_classes, None
    for k in range(num_classes):
        left = len(body) - pos - 16
        if left < 0:
            failure = ModelFormatError(f"truncated model file while reading row {k} header")
        else:
            c, nnz = _ROW_HEADER.unpack_from(body, pos)
            if c != k:
                failure = ModelFormatError(f"row {k} carries class id {c}")
            elif 16 * nnz > left:  # before the count sizes anything
                failure = ModelFormatError(f"row {k} is corrupt: claims {nnz} features "
                                           f"but only {left} bytes follow")
        if failure is not None:
            rows = k
            break
        starts[k], counts[k] = pos // 8 + 2, nnz
        pos += 16 + 16 * nnz
    # every row before a bad header is read and checked first: a corrupt
    # one among them comes earlier in the file
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(counts[:rows], out=indptr[1:])
    words = np.frombuffer(body, dtype="<i8", count=pos // 8)
    at = np.repeat(starts[:rows] - indptr[:-1], counts[:rows]) + np.arange(indptr[-1])
    indices = words[at].astype(np.int64, copy=False)
    values = words.view("<f8")[at + np.repeat(counts[:rows], counts[:rows])]
    values = values.astype(np.float64, copy=False)
    row_of = np.repeat(np.arange(rows), counts[:rows])
    bad = (indices < 0) | (indices >= dim) | ~np.isfinite(values)
    bad[1:] |= (row_of[1:] == row_of[:-1]) & (indices[1:] <= indices[:-1])
    if bad.any():
        k = int(row_of[bad.argmax()])
        lo, hi = indptr[k], indptr[k + 1]
        try:
            SparseVector(indices[lo:hi], values[lo:hi], dim)
        except ValueError as exc:
            raise ModelFormatError(f"row {k} is corrupt: {exc}") from exc
    if failure is not None:
        raise failure
    if pos != len(body):
        raise ModelFormatError("trailing bytes after last row")
    header = {"format_version": version, "num_classes": int(num_classes),
              "dim": int(dim), "lambda": lam, "algorithm": algorithm}
    block = sp.csr_matrix((values, indices, indptr), shape=(num_classes, dim))
    return WeightMatrix.from_csr(block), header


def _number(kind, token: str, what: str):
    try:
        return kind(token)
    except ValueError:
        raise ModelFormatError(f"bad {what}: {token!r}") from None


def _load_text(fh) -> tuple[WeightMatrix, dict]:
    first = fh.readline().split()
    if first[:2] != TEXT_MAGIC.split() or len(first) != 3:
        raise ModelFormatError("bad text model header")
    version = _number(int, first[2], "model version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model version {version}")
    head = fh.readline().split()
    if len(head) != 4:
        raise ModelFormatError("bad text model header line")
    num_classes = _number(int, head[0], "class count")
    dim = _number(int, head[1], "dimension")
    lam = _number(float, head[2], "lambda")
    algorithm = head[3]
    _check_dim(dim)
    _check_lambda(lam)
    _check_class_claim(fh, num_classes, len("0 0\n"))
    rows = []
    for k in range(num_classes):
        line = fh.readline()
        parts = line.split()
        # every row line ends in a newline, so a cut inside the last row shows
        if len(parts) < 2 or not line.endswith("\n"):
            raise ModelFormatError(f"truncated model file at row {k}")
        c = _number(int, parts[0], f"class id in row {k}")
        nnz = _number(int, parts[1], f"feature count in row {k}")
        if c != k:
            raise ModelFormatError(f"row {k} carries class id {c}")
        if len(parts) != 2 + nnz:
            raise ModelFormatError(f"row {k} expected {nnz} features, "
                                   f"found {len(parts) - 2}")
        try:
            pairs = []
            for tok in parts[2:]:
                i, _, v = tok.partition(":")
                pairs.append((int(i), float(v)))
            rows.append(SparseVector.from_pairs(pairs, dim))
        except (ValueError, OverflowError) as exc:
            raise ModelFormatError(f"row {k} is corrupt: {exc}") from exc
    if fh.readline().strip():
        raise ModelFormatError("trailing content after last row")
    header = {"format_version": version, "num_classes": num_classes,
              "dim": dim, "lambda": lam, "algorithm": algorithm}
    block = stack_csr([r.indices for r in rows], [r.values for r in rows], dim)
    return WeightMatrix.from_csr(block), header


def load_model(path) -> tuple[WeightMatrix, dict]:
    """Load a model saved by :func:`save_model`; fails closed on corruption."""
    with open(path, "rb") as fh:
        prefix = fh.read(len(BINARY_MAGIC))
        if prefix == BINARY_MAGIC:
            return _load_binary(fh)
    with open(path, "r", encoding="utf-8") as text:
        try:
            if text.read(len(TEXT_MAGIC)) != TEXT_MAGIC:
                raise ModelFormatError("not a model file (bad magic)")
            text.seek(0)
            return _load_text(text)
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"unreadable model file: {exc}") from exc


def load_label_names(model_path) -> list[str] | None:
    """Labels from the ``<model>.labels`` sidecar, if present."""
    try:
        with open(str(model_path) + ".labels", "r", encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh]
    except FileNotFoundError:
        return None
