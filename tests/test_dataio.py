"""LIBSVM-style parsing and model round-trips."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mipsvm.dataio import (DatasetFormatError, ModelFormatError, load_label_names,
                           load_model, parse_dataset, save_model, write_dataset)
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


# -- fuzzing both model formats ----------------------------------------------

# Offsets into the two fuzzed models (see ``fuzz_models``): the binary
# algorithm tag and the top byte of row 0's feature count, and the text
# version, dimension and row-0 feature-count tokens.
BIN_TAG, BIN_ROW0_NNZ_TOP = 12 + 28 + 1, 12 + 28 + 1 + 2 + 8 + 7
TEXT_VERSION, TEXT_DIM, TEXT_ROW0_NNZ = 13, 17, 28


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
