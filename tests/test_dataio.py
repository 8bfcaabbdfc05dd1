"""LIBSVM-style parsing and model round-trips."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from mipsvm import dataio
from mipsvm.dataio import (Dataset, DatasetFormatError, ModelFormatError,
                           load_label_names, load_model, parse_dataset, save_model,
                           write_dataset)
from mipsvm.sparse import SparseVector, WeightMatrix


def write(tmp_path, text, name="data.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParse:
    def test_one_based_line(self, tmp_path):
        ds = parse_dataset(write(tmp_path, "3 1:0.5 7:2.0\n"))
        assert len(ds) == 1
        y, x = ds.examples[0]
        assert y == 0 and ds.label_map == {"3": 0}
        assert x.indices.tolist() == [0, 6]
        assert x.values.tolist() == [0.5, 2.0]
        assert ds.dim == 7 and ds.num_classes == 1

    def test_zero_based_flag(self, tmp_path):
        ds = parse_dataset(write(tmp_path, "a 0:1.0 3:2.0\n"), zero_based=True)
        assert ds.examples[0][1].indices.tolist() == [0, 3]
        assert ds.dim == 4

    def test_labels_mapped_first_seen(self, tmp_path):
        ds = parse_dataset(write(tmp_path, "7 1:1\n3 1:1\n7 2:1\n"))
        assert ds.label_map == {"7": 0, "3": 1}
        assert [y for y, _ in ds.examples] == [0, 1, 0]

    def test_empty_file(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="empty dataset"):
            parse_dataset(write(tmp_path, "\n\n"))

    def test_malformed_token_names_line(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="line 2"):
            parse_dataset(write(tmp_path, "1 1:1\n2 1:x\n"))
        with pytest.raises(DatasetFormatError, match="line 1"):
            parse_dataset(write(tmp_path, "1 nocolon\n"))

    def test_nonpositive_index_one_based(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="out of range"):
            parse_dataset(write(tmp_path, "1 0:1.0\n"))
        with pytest.raises(DatasetFormatError, match="out of range"):
            parse_dataset(write(tmp_path, "1 -2:1.0\n"), zero_based=True)

    def test_duplicate_feature(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="duplicate feature index 4"):
            parse_dataset(write(tmp_path, "1 4:1.0 4:2.0\n"))

    def test_missing_label(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="missing label"):
            parse_dataset(write(tmp_path, "1:0.5 2:1.0\n"))

    def test_unsorted_features_accepted(self, tmp_path):
        ds = parse_dataset(write(tmp_path, "1 9:1.0 2:2.0\n"))
        assert ds.examples[0][1].indices.tolist() == [1, 8]

    def test_forced_dim_drops_with_warning(self, tmp_path):
        with pytest.warns(UserWarning, match="dropped 1 feature"):
            ds = parse_dataset(write(tmp_path, "1 1:1.0 50:2.0\n"), dim=10)
        assert ds.dim == 10
        assert ds.examples[0][1].indices.tolist() == [0]

    def test_forced_classes(self, tmp_path):
        ds = parse_dataset(write(tmp_path, "1 1:1\n2 1:1\n"), num_classes=5)
        assert ds.num_classes == 5
        with pytest.raises(DatasetFormatError, match="classes"):
            parse_dataset(write(tmp_path, "1 1:1\n2 1:1\n"), num_classes=1)

    def test_label_map_seeding(self, tmp_path):
        ds = parse_dataset(write(tmp_path, "b 1:1\nc 1:1\n"),
                           label_map={"a": 0, "b": 1})
        assert [y for y, _ in ds.examples] == [1, 2]
        assert ds.label_map == {"a": 0, "b": 1, "c": 2}

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        ds = parse_dataset(write(tmp_path, "# header\n\n1 1:1.0\n"))
        assert len(ds) == 1

    def test_fuzz_malformed_lines_never_crash(self, tmp_path):
        rng = np.random.default_rng(0)
        junk = ["1 :5", "1 2:", "x y z", ":", "1 2:3:4", "1 1e5:2",
                "1 2.5:1", "lbl 0:1", "1 -1:-1", "1 1:nan_whatever"]
        for i, line in enumerate(junk):
            path = write(tmp_path, line + "\n", name=f"fuzz{i}.txt")
            try:
                parse_dataset(path)
            except DatasetFormatError as exc:
                assert "line 1" in str(exc)

    def test_non_finite_value_names_line(self, tmp_path):
        for value in ("nan", "inf", "-inf", "1e999"):
            path = write(tmp_path, f"a 1:1\na 1:{value} 2:1\n")
            with pytest.raises(DatasetFormatError, match="line 2: non-finite"):
                parse_dataset(path)

    def test_roundtrip_random_dataset(self, tmp_path):
        rng = np.random.default_rng(1)
        lines = []
        for _ in range(100):
            y = int(rng.integers(5))
            nnz = int(rng.integers(1, 8))
            idx = np.sort(rng.choice(40, size=nnz, replace=False)) + 1
            feats = " ".join(f"{i}:{float(rng.standard_normal())!r}" for i in idx)
            lines.append(f"{y} {feats}")
        original = parse_dataset(write(tmp_path, "\n".join(lines) + "\n"))
        out = tmp_path / "rt.txt"
        write_dataset(out, original)
        reparsed = parse_dataset(out, dim=original.dim)
        assert len(reparsed) == len(original)
        for (y1, x1), (y2, x2) in zip(original.examples, reparsed.examples):
            assert y1 == y2
            assert x1 == x2

    def test_to_csr_returns_the_held_block(self, tmp_path):
        data = parse_dataset(write(tmp_path, "a 1:1 3:2\nb 2:-1\na 3:0.5\n"))
        block = data.to_csr()
        assert data.to_csr() is block and block.shape == (3, 3)
        np.testing.assert_array_equal(block.toarray(),
                                      [[1, 0, 2], [0, -1, 0], [0, 0, 0.5]])
        assert data.labels_array().tolist() == [0, 1, 0]
        assert data.examples[1] == (1, SparseVector([1], [-1.0], 3))
        taken = data.subset([2, 0, 2])
        assert taken.labels_array().tolist() == [0, 0, 0]
        np.testing.assert_array_equal(taken.to_csr().toarray(),
                                      block.toarray()[[2, 0, 2]])
        assert taken.label_map == data.label_map and taken.dim == 3

    def test_subset_rejects_a_row_index_out_of_range(self, tmp_path):
        """A negative index or one past the end fails closed, naming the
        first bad index, instead of wrapping to the last rows."""
        data = parse_dataset(write(tmp_path, "a 1:1 3:2\nb 2:-1\na 3:0.5\n"))
        for bad, first in (([-1], -1), ([0, 5, -2], 5), ([3], 3)):
            with pytest.raises(IndexError, match=rf"row index {first} out of range \[0, 3\)"):
                data.subset(bad)
        assert len(data.subset([])) == 0 and len(data.subset([2])) == 1

    def test_index_beyond_int64_is_out_of_range(self, tmp_path):
        # an index whose dimension (index + 1) would not fit int64
        for text, zero_based in (("1 99999999999999999999:1.0\n", False),
                                 ("1 1:1\n1 9223372036854775807:1\n", True),
                                 ("1 1:1\n1 -99999999999999999999:1\n", False)):
            line = text.count("\n")
            with pytest.raises(DatasetFormatError,
                               match=f"line {line}: feature index .* out of range"):
                parse_dataset(write(tmp_path, text), zero_based=zero_based)
        ds = parse_dataset(write(tmp_path, "1 9223372036854775807:1\n"))
        assert ds.dim == 2**63 - 1

    def test_indices_are_int32_where_they_fit(self, tmp_path, monkeypatch):
        ds = parse_dataset(write(tmp_path, "a 1:0.5 3:1\nb 2:2 5:0\n"))
        assert ds.to_csr().indices.dtype == np.int32
        # ... already in each chunk's pieces, so the join needs no narrowing copy
        _, indices, _, _, _ = dataio._chunk_rows(["1:0.5", "3:1"], [2], [1], False, None)
        assert indices.dtype == np.int32
        assert ds.to_csr().toarray().tolist() == [[0.5, 0, 1, 0, 0], [0, 2, 0, 0, 0]]
        # one line per chunk: int32 pieces, then index 2^31 + 1 (column 2^31),
        # which does not fit int32
        monkeypatch.setattr(dataio, "PARSE_CHUNK_CHARS", 1)
        big = "a 1:1\n" * 3 + f"b 2:3 {2**31 + 1}:4\n"
        ds = parse_dataset(write(tmp_path, big))
        X = ds.to_csr()
        assert X.indices.dtype == np.int64 and ds.dim == 2**31 + 1
        assert X.indices.tolist() == [0, 0, 0, 1, 2**31]
        assert X.data.tolist() == [1.0, 1.0, 1.0, 3.0, 4.0]

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        for blob, message in ((b"1 1:1\n1 2:\xff\n", "line 2: not UTF-8"),
                              (b"1 1:1\n# caf\xe9\n1 1:2\n", "line 2: not UTF-8"),
                              (b"1 1:x\n\xff 1:1\n", "line 1: malformed")):
            path.write_bytes(blob)
            with pytest.raises(DatasetFormatError, match=message):
                parse_dataset(path)

    @pytest.mark.parametrize("chunk", [4, 1 << 18])
    def test_first_bad_line_is_reported(self, tmp_path, monkeypatch, chunk):
        """An error found while reading a line waits for the earlier lines
        of its chunk, which may hold an earlier error."""
        monkeypatch.setattr(dataio, "PARSE_CHUNK_CHARS", chunk)
        for text, message in (("1 1:1\n1 1:x\n1:2 3:4\n", "line 2: malformed"),
                              ("1 2:1 2:3\n\xff 1:1\n", "line 1: duplicate"),
                              ("1 1:1\n1 3:1\n1:2\n", "line 3: missing label"),
                              ("1 1:1\n1 3:1e999 1:1\n1 1:x\n", "line 2: non-finite")):
            with pytest.raises(DatasetFormatError, match=message):
                parse_dataset(write(tmp_path, text))

    def test_parse_memory_is_bounded_by_the_chunk(self, tmp_path, peak_traced_bytes):
        rng = np.random.default_rng(0)
        lines = [f"{y} " + " ".join(f"{i + 1}:{v!r}" for i, v in
                                    enumerate(rng.standard_normal(50).tolist()))
                 for y in rng.integers(20, size=4000).tolist()]
        path = write(tmp_path, "\n".join(lines) + "\n")
        data, peak = peak_traced_bytes(lambda: parse_dataset(path))
        X = data.to_csr()
        held = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
        # the final arrays (2.4 MB), every chunk's int64 pieces and their
        # concatenation took 7.5 MB; converting the whole 4.5 MB text at
        # once took 31 MB
        assert peak < 4 * held


class TestDatasetLabels:
    @pytest.mark.parametrize("label", [-1, 3, 5])
    def test_out_of_range_label_names_itself(self, label):
        row = SparseVector(np.array([0]), np.array([1.0]), 2)
        with pytest.raises(ValueError, match=rf"label {label} of row 1 is outside \[0, 3\)"):
            Dataset([(0, row), (label, row), (-2, row)], 2, 3)
        block = sp.csr_matrix(np.ones((3, 2)))
        with pytest.raises(ValueError, match=rf"label {label} of row 1 "):
            Dataset.from_csr(np.array([2, label, 7]), block, 3)

    def test_label_count_must_match_the_rows(self):
        block = sp.csr_matrix(np.ones((3, 2)))
        with pytest.raises(ValueError, match="2 labels for 3 rows"):
            Dataset.from_csr(np.array([0, 1]), block, 2)

    @pytest.mark.parametrize("width", [2, 10])
    def test_example_of_another_dim_names_itself(self, width):
        # the CSR constructor does not bounds-check, so a wider example
        # would otherwise store a column past the block's width
        good = SparseVector(np.array([0]), np.array([1.0]), 3)
        other = SparseVector(np.array([1]), np.array([1.0]), width)
        with pytest.raises(ValueError, match=rf"example 1 has dim {width}, expected 3"):
            Dataset([(0, good), (0, other)], 3, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_value_names_its_row(self, bad):
        # such a row used to be scored: a NaN score never wins an argmax, so
        # evaluate() reported a row of a NaN feature as classified
        good = SparseVector(np.array([0]), np.array([1.0]), 3)
        row = SparseVector(np.array([0, 2]), np.array([1.0, bad]), 3, check=False)
        with pytest.raises(ValueError, match=rf"row 1 holds the non-finite feature "
                                             rf"value {bad!r}"):
            Dataset([(0, good), (1, row), (0, good)], 3, 2)
        block = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0], [bad, 3.0]]))
        with pytest.raises(ValueError, match=r"row 2 holds the non-finite"):
            Dataset.from_csr(np.array([0, 1, 0]), block, 2)

    @pytest.mark.parametrize("column", [7, 3, -1])
    def test_feature_index_outside_the_width_names_its_row(self, column):
        # scipy's CSR constructor does not bounds-check indices: such a block
        # used to be taken, and scored from memory past the class rows
        block = sp.csr_matrix(([1.0, 2.0, 3.0], [0, 1, column], [0, 1, 1, 3]), shape=(3, 3))
        with pytest.raises(ValueError, match=rf"row 2 holds the feature index {column}, "
                                             r"outside \[0, 3\)"):
            Dataset.from_csr(np.array([0, 1, 0]), block, 2)


# -- the parser against a per-token reference --------------------------------


def reference_parse(path, *, zero_based=False, dim=None, num_classes=None,
                    label_map=None):
    """The parser one Python call per feature token: ``(labels, indptr,
    indices, values, dim, num_classes, label map)``, raising
    DatasetFormatError as :func:`parse_dataset` does."""
    def feature(token, lineno):
        head, sep, tail = token.partition(":")
        if not sep:
            raise DatasetFormatError(f"line {lineno}: malformed token {token!r}")
        try:
            raw, value = int(head), float(tail)
        except ValueError:
            raise DatasetFormatError(
                f"line {lineno}: malformed token {token!r}") from None
        if not math.isfinite(value):
            raise DatasetFormatError(f"line {lineno}: non-finite value in {token!r}")
        index = raw if zero_based else raw - 1
        if not 0 <= index < 2**63 - 1:
            raise DatasetFormatError(f"line {lineno}: feature index {raw} out of range")
        return index, value

    label_map = dict(label_map) if label_map else {}
    labels, indptr, indices, values = [], [0], [], []
    max_index, dropped = -1, 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if ":" in tokens[0]:
                raise DatasetFormatError(f"line {lineno}: missing label")
            feats = sorted(feature(t, lineno) for t in tokens[1:])
            for (i, _), (j, _) in zip(feats, feats[1:]):
                if i == j:
                    raise DatasetFormatError(
                        f"line {lineno}: duplicate feature index "
                        f"{i if zero_based else i + 1}")
            if dim is not None:
                kept = [(i, v) for i, v in feats if i < dim]
                dropped += len(feats) - len(kept)
                feats = kept
            if feats:
                max_index = max(max_index, feats[-1][0])
            labels.append(label_map.setdefault(tokens[0], len(label_map)))
            for i, v in feats:
                if v != 0.0:
                    indices.append(i)
                    values.append(v)
            indptr.append(len(indices))
    if not labels:
        raise DatasetFormatError("empty dataset")
    if dropped:
        warnings.warn(f"dropped {dropped} feature(s) at or beyond forced dim {dim}")
    if num_classes is not None and len(label_map) > num_classes:
        raise DatasetFormatError(
            f"found {len(label_map)} classes but num_classes={num_classes}")
    return (labels, indptr, indices, values,
            max(dim if dim is not None else max_index + 1, 1),
            num_classes if num_classes is not None else len(label_map), label_map)


def parsed(parse, path, options):
    """``(result or error message, warning messages)`` of one parse."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(path, **options)
        except DatasetFormatError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


@st.composite
def libsvm_files(draw):
    """A LIBSVM-style text and the parse options to read it with.

    A clean text holds only lines Python's ``int`` and ``float`` accept
    (unsorted rows, explicit zeros, ``+3``, ``007``, ``1_0``); a messy one
    also holds duplicates and malformed, non-finite and out-of-range
    tokens."""
    messy = draw(st.booleans())
    zero_based = draw(st.booleans())
    low = 0 if zero_based else 1
    heads = st.one_of(st.integers(low, 40).map(str),
                      st.integers(low, 40).map(lambda i: f"+{i}"),
                      st.integers(low, 40).map(lambda i: f"00{i}"),
                      st.integers(10, 40).map(lambda i: f"{i // 10}_{i % 10}"))
    floats = st.floats(-1e6, 1e6).map(repr)
    tails = st.one_of(floats, floats, floats,
                      st.sampled_from(["0", "-0.0", "0.0", "1e-400", "2", "1_0.5"]))
    if messy:
        heads = st.one_of(heads, st.sampled_from(
            ["0", "-1", "x", "", "1.0", "99999999999999999999", "9223372036854775807",
             "-9223372036854775808"]))
        tails = st.one_of(tails, st.sampled_from(
            ["1e999", "-inf", "nan", "1#x", "", "x", "1:2", "0x1p3"]))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["features"] * 8 + ["comment", "blank"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# c", "#", "  # 1 1:x"])))
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        labels = ["1", "2", "a", "b", "+3", "007"] * 3 + (["x:1", ":"] if messy else [])
        indices = draw(st.lists(st.integers(low, 40), max_size=6, unique=not messy))
        tokens = [draw(st.sampled_from(["nocolon", "3:1#x", ":"])) if messy
                  and draw(st.integers(0, 9)) == 0 else
                  f"{draw(heads) if draw(st.booleans()) else i}:{draw(tails)}"
                  for i in indices]
        gap = draw(st.sampled_from([" ", "\t", "  "]))
        lines.append(gap.join([draw(st.sampled_from(labels))] + tokens))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    options = {"zero_based": zero_based,
               "dim": draw(st.none() | st.integers(1, 45)),
               "num_classes": draw(st.none() | st.integers(1, 6)),
               "label_map": draw(st.none() | st.just({"a": 0, "b": 1}))}
    return end.join(lines) + draw(st.sampled_from(["", end])), options


@settings(max_examples=300, deadline=None)
@given(file=libsvm_files(), chunk=st.sampled_from([8, 64, 1 << 18]))
@example(file=("1 99999999999999999999:1.0\n", {}), chunk=1 << 18)
@example(file=("1 1_0:2 3:1\n1 1:x\n", {}), chunk=1 << 18)
@example(file=("1 1:1\n1 1:x\n1:2\n", {}), chunk=8)
def test_parser_matches_the_per_token_reference(tmp_path_factory, file, chunk):
    text, options = file
    path = tmp_path_factory.getbasetemp() / "oracle.txt"
    path.write_text(text, newline="")
    expected, expected_warnings = parsed(reference_parse, path, options)
    saved = dataio.PARSE_CHUNK_CHARS
    dataio.PARSE_CHUNK_CHARS = chunk
    try:
        got, got_warnings = parsed(parse_dataset, path, options)
    finally:
        dataio.PARSE_CHUNK_CHARS = saved
    assert got_warnings == expected_warnings
    if isinstance(expected, str):
        assert got == expected
        return
    labels, indptr, indices, values, dim, num_classes, label_map = expected
    assert not isinstance(got, str), got
    X = got.to_csr()
    assert got.labels_array().tolist() == labels
    assert X.indptr.tolist() == indptr and X.indices.tolist() == indices
    assert X.data.tolist() == values
    assert X.shape == (len(labels), dim) == (len(got), got.dim)
    assert (got.num_classes, got.label_map) == (num_classes, label_map)


class TestModelIO:
    def make_matrix(self, seed=0, C=6, d=20):
        rng = np.random.default_rng(seed)
        W = WeightMatrix(C, d)
        for _ in range(40):
            nnz = int(rng.integers(1, 6))
            idx = np.sort(rng.choice(d, size=nnz, replace=False))
            W.add_to_row(int(rng.integers(C)), float(rng.standard_normal()),
                         SparseVector(idx, rng.standard_normal(nnz), d))
        W.global_scale(0.7315)
        return W

    @pytest.mark.parametrize("fmt", ["binary", "text"])
    def test_roundtrip(self, tmp_path, fmt):
        W = self.make_matrix()
        path = tmp_path / "model.bin"
        save_model(path, W, lam=0.25, algorithm="l2", fmt=fmt)
        W2, header = load_model(path)
        assert header["num_classes"] == W.num_classes
        assert header["dim"] == W.dim
        assert header["lambda"] == 0.25
        assert header["algorithm"] == "l2"
        for c in range(W.num_classes):
            a = W.materialize_row(c)
            b = W2.materialize_row(c)
            assert a.indices.tolist() == b.indices.tolist()
            if fmt == "binary":
                np.testing.assert_array_equal(a.values, b.values)
            else:
                np.testing.assert_allclose(b.values, a.values, rtol=1e-12)

    def test_zero_matrix_roundtrip(self, tmp_path):
        W = WeightMatrix(4, 7)
        path = tmp_path / "zero.bin"
        save_model(path, W, lam=1.0, algorithm="l1")
        W2, header = load_model(path)
        assert header["algorithm"] == "l1"
        assert W2.nnz() == 0
        assert (W2.num_classes, W2.dim) == (4, 7)

    def test_deterministic_bytes(self, tmp_path):
        W = self.make_matrix(seed=3)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(p1, W, lam=1.0, algorithm="l2")
        save_model(p2, W, lam=1.0, algorithm="l2")
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_binary_fails_closed(self, tmp_path):
        W = self.make_matrix(seed=4)
        path = tmp_path / "model.bin"
        save_model(path, W, lam=1.0, algorithm="l2")
        blob = path.read_bytes()
        for cut in (len(blob) - 5, len(blob) // 2, 10):
            path.write_bytes(blob[:cut])
            with pytest.raises(ModelFormatError):
                load_model(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        W = self.make_matrix(seed=5)
        path = tmp_path / "model.bin"
        save_model(path, W, lam=1.0, algorithm="l2")
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTAMODEL whatever")
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_corrupt_row_index_fails_closed(self, tmp_path):
        import struct
        W = WeightMatrix(2, 4)
        W.add_to_row(0, 1.0, SparseVector.from_pairs({1: 2.0}, 4))
        path = tmp_path / "model.bin"
        save_model(path, W, lam=1.0, algorithm="l2")
        good = path.read_bytes()
        # layout: 12-byte magic, 28-byte header, 1+2 tag, row 0 id+nnz,
        # then the first stored index and, after the indices, its value
        offset = 12 + 28 + 3 + 16
        assert struct.unpack_from("<q", good, offset)[0] == 1
        # the last case is row 0's feature count, set so high that reading
        # 8 bytes per feature could not even be sized
        for fmt, at, bad in (("<q", offset, 99), ("<d", offset + 8, float("nan")),
                             ("<Q", offset - 8, 2**62)):
            blob = bytearray(good)
            struct.pack_into(fmt, blob, at, bad)
            path.write_bytes(bytes(blob))
            with pytest.raises(ModelFormatError, match="row 0 is corrupt"):
                load_model(path)

    def test_class_count_bounded_by_file_size(self, tmp_path):
        import struct
        W = WeightMatrix(2, 4)
        binary, text = tmp_path / "model.bin", tmp_path / "model.txt"
        save_model(binary, W, lam=1.0, algorithm="l2")
        save_model(text, W, lam=1.0, algorithm="l2", fmt="text")
        blob = bytearray(binary.read_bytes())
        # the u64 class count follows the 12-byte magic and the u32 version
        struct.pack_into("<Q", blob, 16, 10**6)
        binary.write_bytes(bytes(blob))
        lines = text.read_text().splitlines()
        lines[1] = "1000000" + lines[1][1:]
        text.write_text("\n".join(lines) + "\n")
        for path in (binary, text):
            with pytest.raises(ModelFormatError, match="claims 1000000 classes"):
                load_model(path)

    def test_dimension_beyond_int64_fails_closed(self, tmp_path):
        import struct
        W = WeightMatrix(2, 4)
        binary, text = tmp_path / "model.bin", tmp_path / "model.txt"
        save_model(binary, W, lam=1.0, algorithm="l2")
        save_model(text, W, lam=1.0, algorithm="l2", fmt="text")
        blob = bytearray(binary.read_bytes())
        # the u64 dimension follows the u64 class count
        struct.pack_into("<Q", blob, 24, 2**64 - 1)
        binary.write_bytes(bytes(blob))
        lines = text.read_text().splitlines()
        lines[1] = lines[1].replace(" 4 ", f" {2**63} ", 1)
        text.write_text("\n".join(lines) + "\n")
        for path in (binary, text):
            with pytest.raises(ModelFormatError, match="claims dimension"):
                load_model(path)

    def test_negative_class_count_in_a_text_header_fails_closed(self, tmp_path):
        # the binary count is unsigned; a text one used to load as one zero
        # row under a header of -5 classes
        path = tmp_path / "model.txt"
        path.write_text("MEMOIR1 text 1\n-5 3 1.0 l2\n")
        with pytest.raises(ModelFormatError, match="header claims -5 classes"):
            load_model(path)

    @pytest.mark.parametrize("fmt", ["binary", "text"])
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -0.5])
    def test_save_model_rejects_a_lambda_that_is_not_finite_and_nonnegative(
            self, tmp_path, fmt, lam):
        path = tmp_path / "model"
        path.write_bytes(b"an earlier model")
        with pytest.raises(ValueError, match=rf"lambda must be finite and >= 0, "
                                             rf"got {lam!r}"):
            save_model(path, self.make_matrix(), lam=lam, algorithm="l2", fmt=fmt)
        assert path.read_bytes() == b"an earlier model"

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -0.5])
    def test_binary_lambda_that_is_not_finite_and_nonnegative_fails_closed(
            self, tmp_path, lam):
        import struct
        path = tmp_path / "model.bin"
        save_model(path, WeightMatrix(2, 4), lam=1.0, algorithm="l2")
        blob = bytearray(path.read_bytes())
        # the f64 lambda follows the u64 dimension
        struct.pack_into("<d", blob, 32, lam)
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match=rf"header claims lambda {lam!r}"):
            load_model(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "-0.5"])
    def test_text_lambda_that_is_not_finite_and_nonnegative_fails_closed(
            self, tmp_path, token):
        path = tmp_path / "model.txt"
        save_model(path, WeightMatrix(2, 4), lam=1.0, algorithm="l2", fmt="text")
        path.write_text(path.read_text().replace("2 4 1.0 l2", f"2 4 {token} l2"))
        with pytest.raises(ModelFormatError,
                           match=rf"header claims lambda {float(token)!r}"):
            load_model(path)

    def test_truncated_text_fails_closed(self, tmp_path):
        W = self.make_matrix(seed=6)
        path = tmp_path / "model.txt"
        save_model(path, W, lam=1.0, algorithm="l2", fmt="text")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_label_sidecar(self, tmp_path):
        W = self.make_matrix(seed=7, C=3)
        path = tmp_path / "model.bin"
        save_model(path, W, lam=1.0, algorithm="l2",
                   label_names=["cat", "dog", "bird"])
        assert load_label_names(path) == ["cat", "dog", "bird"]
        assert load_label_names(tmp_path / "missing.bin") is None

    @pytest.mark.parametrize("fmt", ["binary", "text"])
    @pytest.mark.parametrize("tag, problem", [
        ("", "is empty"),
        ("my algo", "contains whitespace"),
        ("l2\n", "contains whitespace"),
        ("x" * 300, "takes 300 UTF-8 bytes"),
        ("\u00e9" * 128, "takes 256 UTF-8 bytes"),
    ], ids=["empty", "space", "newline", "300-ascii", "128-two-byte"])
    def test_unloadable_algorithm_tag_is_rejected_first(self, tmp_path, fmt, tag,
                                                         problem):
        path = tmp_path / "model"
        path.write_bytes(b"an earlier model")
        with pytest.raises(ValueError, match=problem):
            save_model(path, self.make_matrix(), lam=1.0, algorithm=tag, fmt=fmt)
        assert path.read_bytes() == b"an earlier model"

    @pytest.mark.parametrize("fmt", ["binary", "text"])
    def test_255_byte_algorithm_tag_roundtrips(self, tmp_path, fmt):
        tag = "\u00e9" * 127 + "x"
        assert len(tag.encode("utf-8")) == 255
        path = tmp_path / "model"
        save_model(path, self.make_matrix(), lam=1.0, algorithm=tag, fmt=fmt)
        assert load_model(path)[1]["algorithm"] == tag


# -- fuzzing both model formats ----------------------------------------------

# Offsets into the two fuzzed models (see ``fuzz_models``): the binary
# algorithm tag and the top byte of row 0's feature count, and the text
# version, dimension and row-0 feature-count tokens.
BIN_TAG, BIN_ROW0_NNZ_TOP = 12 + 28 + 1, 12 + 28 + 1 + 2 + 8 + 7
TEXT_VERSION, TEXT_DIM, TEXT_ROW0_NNZ = 13, 17, 28
# The binary model's first stored index of row 0, and row 2's header (after
# row 0's two features and row 1's empty row).
BIN_ROW0_INDEX = BIN_TAG + 2 + 16
BIN_ROW2 = BIN_ROW0_INDEX + 32 + 16


@pytest.fixture(scope="module")
def fuzz_models(tmp_path_factory):
    """A small model saved in each format: {fmt: (bytes, matrix)}."""
    W = WeightMatrix.from_rows([(0, SparseVector([1, 4], [2.0, -0.25], 6)),
                                (2, SparseVector([0, 5], [0.1, 3e-7], 6))], 6)
    W.global_scale(0.7315)
    path = tmp_path_factory.mktemp("models") / "model"
    blobs = {}
    for fmt in ("binary", "text"):
        save_model(path, W, lam=0.5, algorithm="l2", fmt=fmt)
        blobs[fmt] = (path.read_bytes(), W)
    assert blobs["binary"][0][BIN_TAG:BIN_TAG + 2] == b"l2"
    assert blobs["text"][0].startswith(b"MEMOIR1 text 1\n3 6 0.5 l2\n0 2 ")
    return blobs


def assert_same_model(loaded, W):
    W2, header = loaded
    assert (header["num_classes"], header["dim"]) == (W.num_classes, W.dim)
    assert (header["lambda"], header["algorithm"]) == (0.5, "l2")
    for c in range(W.num_classes):
        assert W2.materialize_row(c) == W.materialize_row(c)


@pytest.mark.parametrize("fmt", ["binary", "text"])
def test_a_model_of_no_classes_loads_as_one_zero_row(fuzz_models, tmp_path, fmt):
    """A header of 0 classes and no rows loads, in either format, as one
    empty class row of the header's dimension."""
    blob = fuzz_models[fmt][0]
    if fmt == "binary":
        head = blob[:BIN_TAG + 2]
        blob = head[:16] + (0).to_bytes(8, "little") + head[24:]
    else:
        blob = b"MEMOIR1 text 1\n0 6 0.5 l2\n"
    path = tmp_path / "empty-model"
    path.write_bytes(blob)
    W, header = load_model(path)
    assert header["num_classes"] == 0 and header["dim"] == 6
    assert (W.num_classes, W.dim, W.nnz(), W.frob_sq) == (1, 6, 0, 0.0)


@pytest.mark.parametrize("fmt", ["binary", "text"])
def test_every_truncation_fails_closed(fuzz_models, tmp_path, fmt):
    blob, W = fuzz_models[fmt]
    path = tmp_path / "model"
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ModelFormatError):
            load_model(path)
    path.write_bytes(blob)
    assert_same_model(load_model(path), W)


@settings(max_examples=150, deadline=None)
@given(fmt=st.sampled_from(["binary", "text"]), at=st.integers(0, 1 << 16),
       patch=st.one_of(st.binary(min_size=1, max_size=12),
                       st.text("0123456789+-.:eEinfa x\n\r", min_size=1,
                               max_size=12).map(str.encode)))
@example(fmt="binary", at=BIN_TAG, patch=b"\xff")
@example(fmt="binary", at=BIN_ROW0_NNZ_TOP, patch=b"\x40")
@example(fmt="binary", at=12 + 12, patch=bytes(8))  # dimension 0
@example(fmt="text", at=TEXT_VERSION, patch=b"x")
@example(fmt="text", at=TEXT_DIM, patch=b"x")
@example(fmt="text", at=TEXT_ROW0_NNZ, patch=b"z")
def test_corruption_fails_closed(fuzz_models, tmp_path_factory, fmt, at, patch):
    """Overwriting bytes gives ModelFormatError or a load, nothing else."""
    blob = bytearray(fuzz_models[fmt][0])
    at %= len(blob)
    blob[at:at + len(patch)] = patch[:len(blob) - at]
    path = tmp_path_factory.getbasetemp() / "fuzzed-model"
    path.write_bytes(bytes(blob))
    try:
        with np.errstate(over="ignore"):  # a huge value may load, norm and all
            load_model(path)
    except ModelFormatError:
        pass


def reference_load_binary(path):
    """The binary model loader one row at a time: ``(header, rows)`` with one
    SparseVector per class, raising ModelFormatError as :func:`load_model`
    does."""
    import os
    import struct

    with open(path, "rb") as fh:
        def read(n, what):
            buf = fh.read(n)
            if len(buf) != n:
                raise ModelFormatError(f"truncated model file while reading {what}")
            return buf

        def left():
            return os.fstat(fh.fileno()).st_size - fh.tell()

        if fh.read(12) != b"MEMOIR1\x00bin\x00":
            raise ModelFormatError("not a binary model")
        version, num_classes, dim, lam = struct.unpack("<IQQd", read(28, "header"))
        if version != 1:
            raise ModelFormatError(f"unsupported model version {version}")
        (tag_len,) = struct.unpack("<B", read(1, "header"))
        try:
            algorithm = read(tag_len, "header").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"algorithm tag is not UTF-8: {exc}") from exc
        if not 1 <= dim <= 2**63 - 1:
            raise ModelFormatError(f"header claims dimension {dim}")
        if not (math.isfinite(lam) and lam >= 0.0):
            raise ModelFormatError(f"header claims lambda {lam!r}; it must be finite "
                                   f"and >= 0")
        if 16 * num_classes > left():
            raise ModelFormatError(
                f"header claims {num_classes} classes but only {left()} bytes follow "
                f"(each row takes at least 16)")
        rows = []
        for k in range(num_classes):
            c, nnz = struct.unpack("<QQ", read(16, f"row {k} header"))
            if c != k:
                raise ModelFormatError(f"row {k} carries class id {c}")
            if 16 * nnz > left():
                raise ModelFormatError(f"row {k} is corrupt: claims {nnz} features "
                                       f"but only {left()} bytes follow")
            idx = np.frombuffer(read(8 * nnz, f"row {k} indices"), dtype="<i8")
            val = np.frombuffer(read(8 * nnz, f"row {k} values"), dtype="<f8")
            try:
                rows.append(SparseVector(idx.astype(np.int64), val.astype(np.float64), dim))
            except ValueError as exc:
                raise ModelFormatError(f"row {k} is corrupt: {exc}") from exc
        if fh.read(1):
            raise ModelFormatError("trailing bytes after last row")
    return (num_classes, dim, lam, algorithm), rows


@settings(max_examples=150, deadline=None)
@given(at=st.integers(0, 1 << 16), patch=st.binary(min_size=1, max_size=12),
       cut=st.none() | st.integers(0, 1 << 16))
@example(at=BIN_ROW0_INDEX, patch=b"\xff" * 8, cut=None)  # index -1 in row 0
@example(at=BIN_ROW0_INDEX, patch=b"\x05", cut=None)  # row 0 indices 5, 4
# row 0 indices 1, -2^63: their int64 difference wraps to a positive one
@example(at=BIN_ROW0_INDEX + 8, patch=b"\x00" * 7 + b"\x80", cut=None)
# a bad row 0 before a cut inside row 2's indices, and inside its header
@example(at=BIN_ROW0_INDEX, patch=b"\xff" * 8, cut=BIN_ROW2 + 23)
@example(at=BIN_ROW0_INDEX, patch=b"\x05", cut=BIN_ROW2 + 3)
def test_binary_loader_matches_the_per_row_reference(fuzz_models, tmp_path_factory,
                                                      at, patch, cut):
    """A corrupted or cut binary model gives the reference's error message,
    or loads the reference's rows."""
    blob = bytearray(fuzz_models["binary"][0])
    at %= len(blob)
    blob[at:at + len(patch)] = patch[:len(blob) - at]
    if cut is not None:
        blob = blob[:cut % len(blob)]
    path = tmp_path_factory.getbasetemp() / "fuzzed-binary-model"
    path.write_bytes(bytes(blob))
    with np.errstate(over="ignore"):
        try:
            expected = reference_load_binary(path)
        except ModelFormatError as exc:
            expected = str(exc)
        try:
            got = load_model(path)
        except ModelFormatError as exc:
            got = str(exc)
    if isinstance(expected, str):
        assert got == expected or expected == "not a binary model"
        return
    (num_classes, dim, lam, algorithm), rows = expected
    W, header = got
    assert (header["num_classes"], header["dim"]) == (num_classes, dim)
    assert (header["lambda"], header["algorithm"]) == (lam, algorithm)
    for c, row in enumerate(rows):
        assert W.materialize_row(c) == SparseVector(row.indices[row.values != 0],
                                                    row.values[row.values != 0], dim)


def reference_save_model(path, W, *, lam, algorithm, fmt="binary"):
    """The model writer one row at a time: each class's ``materialize_row``
    written out in turn."""
    import struct

    rows = [(c, W.materialize_row(c)) for c in range(W.num_classes)]
    if fmt == "text":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("MEMOIR1 text 1\n")
            fh.write(f"{W.num_classes} {W.dim} {float(lam)!r} {algorithm}\n")
            for c, row in rows:
                feats = " ".join(f"{int(i)}:{float(v)!r}"
                                 for i, v in zip(row.indices, row.values))
                fh.write(f"{c} {row.nnz} {feats}".rstrip() + "\n")
        return
    tag = algorithm.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"MEMOIR1\x00bin\x00")
        fh.write(struct.pack("<IQQd", 1, W.num_classes, W.dim, lam))
        fh.write(struct.pack("<B", len(tag)))
        fh.write(tag)
        for c, row in rows:
            fh.write(struct.pack("<QQ", c, row.nnz))
            fh.write(row.indices.astype("<i8").tobytes())
            fh.write(row.values.astype("<f8").tobytes())


@pytest.mark.parametrize("fmt", ["binary", "text"])
@pytest.mark.parametrize("seed", range(5))
def test_save_model_matches_the_per_row_writer(tmp_path, fmt, seed):
    """One CSR block gives the bytes that writing each materialized row
    gives: the scale folded in, a stored value the scale underflows to 0
    dropped, empty rows kept."""
    rng = np.random.default_rng(seed)
    C, dim = int(rng.integers(2, 12)), int(rng.integers(1, 40))
    rows = []
    for c in range(C):
        nnz = int(rng.integers(0, dim + 1))
        idx = np.sort(rng.choice(dim, size=nnz, replace=False))
        rows.append((c, SparseVector(idx, rng.standard_normal(nnz) * 10.0 ** seed, dim)))
    rows[seed % C] = (seed % C, SparseVector([dim - 1], [5e-324], dim))
    W = WeightMatrix.from_rows(rows, dim)
    W.global_scale(0.4)
    assert W.scale == 0.4 and W.materialize_row(seed % C).nnz == 0
    got, want = tmp_path / "got", tmp_path / "want"
    lam = float(rng.uniform(1e-7, 2.0))
    save_model(got, W, lam=lam, algorithm="l1", fmt=fmt)
    reference_save_model(want, W, lam=lam, algorithm="l1", fmt=fmt)
    assert got.read_bytes() == want.read_bytes()
