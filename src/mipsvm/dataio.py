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
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse as sp

from .sparse import SparseVector, WeightMatrix, stack_csr

TEXT_MAGIC = "MEMOIR1 text"
BINARY_MAGIC = b"MEMOIR1\x00bin\x00"
FORMAT_VERSION = 1


class DatasetFormatError(ValueError):
    """Malformed dataset line; message carries the 1-based line number."""


class ModelFormatError(ValueError):
    """Corrupt, truncated or wrong-version model file."""


@dataclass
class Dataset:
    """Labeled sparse examples with a fixed dimension and class count."""

    examples: list[tuple[int, SparseVector]]
    dim: int
    num_classes: int
    label_map: dict[str, int] = field(default_factory=dict)
    # the examples' CSR block, set only on the copies that stacked() makes
    _block: sp.csr_matrix | None = field(default=None, init=False, repr=False,
                                         compare=False)

    def __len__(self):
        return len(self.examples)

    def labels_array(self) -> np.ndarray:
        return np.array([y for y, _ in self.examples], dtype=np.int64)

    def label_names(self) -> list[str]:
        """External labels ordered by dense id (dense ids without a name stringify)."""
        inverse = {v: k for k, v in self.label_map.items()}
        return [inverse.get(c, str(c)) for c in range(self.num_classes)]

    def to_csr(self) -> sp.csr_matrix:
        """The examples stacked into one CSR block (do not modify it: on a
        :meth:`stacked` copy every call returns the same block)."""
        if self._block is not None:
            return self._block
        return stack_csr([x.indices for _, x in self.examples],
                         [x.values for _, x in self.examples], self.dim)

    def stacked(self) -> "Dataset":
        """A copy whose :meth:`to_csr` returns one block stacked now, for a
        caller that scores the same examples again and again."""
        copy = Dataset(list(self.examples), self.dim, self.num_classes,
                       dict(self.label_map))
        copy._block = self.to_csr()
        return copy

    def subset(self, idx) -> "Dataset":
        return Dataset([self.examples[i] for i in idx], self.dim,
                       self.num_classes, dict(self.label_map))


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
    if index < 0:
        raise DatasetFormatError(f"line {lineno}: feature index {raw} out of range")
    return index, value


def parse_dataset(path, *, zero_based: bool = False, dim: int | None = None,
                  num_classes: int | None = None,
                  label_map: dict[str, int] | None = None) -> Dataset:
    """Parse a LIBSVM-style file into a Dataset.

    ``dim`` forces the feature dimension (features beyond it are dropped
    with one counted warning).  ``num_classes`` forces the class count and
    rejects labels beyond it.  ``label_map`` seeds the external-label
    mapping (as persisted from a training run); unseen labels extend it.
    """
    label_map = dict(label_map) if label_map else {}
    # (class id, indices, values) per example, explicit zeros dropped
    examples: list[tuple[int, np.ndarray, np.ndarray]] = []
    max_index = -1
    dropped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            label = tokens[0]
            if ":" in label:
                raise DatasetFormatError(f"line {lineno}: missing label")
            feats = [_parse_feature(t, lineno, zero_based) for t in tokens[1:]]
            feats.sort()
            for (i, _), (j, _) in zip(feats, feats[1:]):
                if i == j:
                    raise DatasetFormatError(
                        f"line {lineno}: duplicate feature index {i if zero_based else i + 1}")
            if dim is not None:
                kept = [(i, v) for i, v in feats if i < dim]
                dropped += len(feats) - len(kept)
                feats = kept
            if feats:
                max_index = max(max_index, feats[-1][0])
            if label not in label_map:
                label_map[label] = len(label_map)
            idx = np.fromiter((i for i, _ in feats), np.int64, len(feats))
            val = np.fromiter((v for _, v in feats), np.float64, len(feats))
            keep = val != 0.0
            examples.append((label_map[label], idx[keep], val[keep]))
    if not examples:
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
    # every index is checked, sorted, distinct and below final_dim, and
    # every value finite
    built = [(y, SparseVector(idx, val, final_dim, check=False))
             for y, idx, val in examples]
    return Dataset(built, final_dim, final_classes, label_map)


def write_dataset(path, data: Dataset, *, zero_based: bool = False) -> None:
    """Write a Dataset back out in the same line format it is parsed from."""
    names = data.label_names()
    offset = 0 if zero_based else 1
    with open(path, "w", encoding="utf-8") as fh:
        for y, x in data.examples:
            feats = " ".join(f"{int(i) + offset}:{float(v)!r}"
                             for i, v in zip(x.indices, x.values))
            fh.write(f"{names[y]} {feats}".rstrip() + "\n")


# -- model files -----------------------------------------------------------


def _model_rows(W: WeightMatrix):
    for c in range(W.num_classes):
        yield c, W.materialize_row(c)


def save_model(path, W: WeightMatrix, *, lam: float, algorithm: str,
               fmt: str = "binary", label_names: list[str] | None = None) -> None:
    """Serialize the logical weight matrix (scale folded in).

    ``label_names`` optionally writes a ``<path>.labels`` sidecar with one
    external label per line, ordered by dense class id.
    """
    if fmt == "text":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{TEXT_MAGIC} {FORMAT_VERSION}\n")
            fh.write(f"{W.num_classes} {W.dim} {float(lam)!r} {algorithm}\n")
            for c, row in _model_rows(W):
                feats = " ".join(f"{int(i)}:{float(v)!r}"
                                 for i, v in zip(row.indices, row.values))
                fh.write(f"{c} {row.nnz} {feats}".rstrip() + "\n")
    elif fmt == "binary":
        tag = algorithm.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(BINARY_MAGIC)
            fh.write(struct.pack("<IQQd", FORMAT_VERSION, W.num_classes, W.dim, lam))
            fh.write(struct.pack("<B", len(tag)))
            fh.write(tag)
            for c, row in _model_rows(W):
                fh.write(struct.pack("<QQ", c, row.nnz))
                fh.write(row.indices.astype("<i8").tobytes())
                fh.write(row.values.astype("<f8").tobytes())
    else:
        raise ValueError(f"unknown model format {fmt!r}")
    if label_names is not None:
        with open(str(path) + ".labels", "w", encoding="utf-8") as fh:
            fh.writelines(name + "\n" for name in label_names)


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _check_dim(dim: int) -> None:
    # feature indices are int64, and so is the weight matrix's CSR shape
    if not 1 <= dim <= np.iinfo(np.int64).max:
        raise ModelFormatError(f"header claims dimension {dim}")


def _check_class_claim(fh, num_classes: int, min_row_bytes: int) -> None:
    """Reject a header claiming more rows than the rest of the file can hold.

    Runs before the matrix is allocated, so a short file cannot make the
    loader allocate in proportion to a forged class count.
    """
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


def _matrix(rows, dim: int) -> WeightMatrix:
    """The matrix of a model's checked rows; a header of 0 classes gives one zero row."""
    return WeightMatrix.from_rows(rows, dim) if rows else WeightMatrix(1, dim)


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
    _check_class_claim(fh, num_classes, 16)
    rows = []
    for k in range(num_classes):
        c, nnz = struct.unpack("<QQ", _read_exact(fh, 16, f"row {k} header"))
        if c != k:
            raise ModelFormatError(f"row {k} carries class id {c}")
        # checked before reading, so a forged count cannot size a read
        left = _bytes_left(fh)
        if 16 * nnz > left:
            raise ModelFormatError(f"row {k} is corrupt: claims {nnz} features "
                                   f"but only {left} bytes follow")
        idx = np.frombuffer(_read_exact(fh, 8 * nnz, f"row {k} indices"), dtype="<i8")
        val = np.frombuffer(_read_exact(fh, 8 * nnz, f"row {k} values"), dtype="<f8")
        try:
            rows.append((k, SparseVector(idx.astype(np.int64),
                                         val.astype(np.float64), dim)))
        except ValueError as exc:
            raise ModelFormatError(f"row {k} is corrupt: {exc}") from exc
    if fh.read(1):
        raise ModelFormatError("trailing bytes after last row")
    header = {"format_version": version, "num_classes": int(num_classes),
              "dim": int(dim), "lambda": lam, "algorithm": algorithm}
    return _matrix(rows, dim), header


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
            rows.append((k, SparseVector.from_pairs(pairs, dim)))
        except (ValueError, OverflowError) as exc:
            raise ModelFormatError(f"row {k} is corrupt: {exc}") from exc
    if fh.readline().strip():
        raise ModelFormatError("trailing content after last row")
    header = {"format_version": version, "num_classes": num_classes,
              "dim": dim, "lambda": lam, "algorithm": algorithm}
    return _matrix(rows, dim), header


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
