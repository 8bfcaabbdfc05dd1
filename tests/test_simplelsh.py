"""SimpleLSH: augmentation, sign-projection hashing, buckets and re-ranking."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse as sp
from scipy.special import ndtri

import mipsvm.mips.base as mips_base
import mipsvm.mips.simplelsh as slsh
from mipsvm import sparse
from mipsvm.mips import (ExactIndex, NoCandidateError, SimpleLshIndex,
                         build_index, hash_code, hashing_quality, recall_at_1,
                         sign_bits, simplelsh_transform)
from mipsvm.mips.simplelsh import pack_bits
from mipsvm.sparse import SparseVector, dot


def sv(pairs, dim):
    return SparseVector.from_pairs(pairs, dim)


def unit_row(rng, dim):
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    idx = np.arange(dim, dtype=np.int64)
    return SparseVector(idx, v, dim, check=False)


def scaled(v, alpha):
    return SparseVector(v.indices, alpha * v.values, v.dim)


def pools_of(index, X, exclude):
    """The pools ``_candidates`` proposes for the rows of the query block
    ``X``, one sorted list of class ids (store positions) per row, empty
    for the full scan."""
    indptr, ids = index._candidates(*index._check_batch(X, exclude))
    return [ids[a:b].tolist() for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())]


class TestTransform:
    def test_last_coordinate_tops_up_norm(self):
        w = sv({0: 0.6}, 3)
        z = simplelsh_transform(w, 1.0)
        assert z.dim == 4
        assert z.indices.tolist() == [0, 3]
        np.testing.assert_allclose(z.values, [0.6, 0.8], rtol=1e-15)

    def test_full_norm_row_gets_zero_tail(self):
        w = sv({0: 3.0, 1: 4.0}, 2)  # norm 5
        z = simplelsh_transform(w, 5.0)
        assert z.values[-1] == 0.0
        assert z.norm() == pytest.approx(1.0, rel=1e-12)

    def test_norm_above_u_rejected(self):
        with pytest.raises(ValueError, match="exceeds U"):
            simplelsh_transform(sv({0: 2.0}, 2), 1.0)

    def test_query_normalizes_and_keeps_zero_tail(self):
        z = simplelsh_transform(sv({1: -4.0}, 2), 1.0, query=True)
        assert z.dim == 3
        np.testing.assert_allclose(z.values, [-1.0])
        assert 2 not in z.indices

    def test_zero_query_rejected(self):
        with pytest.raises(ValueError, match="zero query"):
            simplelsh_transform(sv({}, 2), 1.0, query=True)

    def test_inner_product_identity(self):
        # augmented-space product equals (w.x) / (U ||x||)
        rng = np.random.default_rng(0)
        for _ in range(100):
            dim = int(rng.integers(2, 12))
            w = scaled(unit_row(rng, dim), rng.uniform(0.1, 1.0))
            x = scaled(unit_row(rng, dim), rng.uniform(0.1, 3.0))
            U = rng.uniform(1.0, 2.0)
            zd = simplelsh_transform(w, U)
            zq = simplelsh_transform(x, U, query=True)
            expected = dot(w, x) / (U * x.norm())
            assert dot(zd, zq) == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestHashCode:
    def test_opposite_vectors_get_complementary_codes(self):
        rng = np.random.default_rng(1)
        planes = rng.standard_normal((16, 5))
        z = rng.standard_normal(5)
        code = hash_code(z, planes)
        anti = hash_code(-z, planes)
        assert code ^ anti == (1 << 16) - 1

    def test_identical_vectors_identical_codes(self):
        rng = np.random.default_rng(2)
        planes = rng.standard_normal((64, 7))
        z = sv(dict(enumerate(rng.standard_normal(7))), 7)
        assert hash_code(z, planes) == hash_code(z, planes)

    @pytest.mark.parametrize("theta,expected", [(0.0, 1.0),
                                                (np.pi / 3, 2.0 / 3.0),
                                                (np.pi / 2, 0.5)])
    def test_collision_law(self, theta, expected):
        # per-bit collision probability of sign projections is 1 - theta/pi
        rng = np.random.default_rng(3)
        planes = rng.standard_normal((100_000, 2))
        a = np.array([1.0, 0.0])
        b = np.array([np.cos(theta), np.sin(theta)])
        agree = sign_bits(a, planes) == sign_bits(b, planes)
        assert agree.mean() == pytest.approx(expected, abs=0.01)


class TestHashingQuality:
    def test_limit_at_c_to_one(self):
        assert hashing_quality(1 - 1e-12, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_frozen_value(self):
        # independent high-precision evaluation of the printed formula
        assert hashing_quality(0.5, 1.0) == pytest.approx(
            0.5760889213525726577, rel=1e-14)

    def test_grid_stays_in_unit_interval(self):
        for c in np.arange(0.1, 0.95, 0.1):
            for S in np.arange(0.1, 1.55, 0.2):
                q = hashing_quality(float(c), float(S))
                assert 0.0 < q <= 1.0

    def test_domain_violations(self):
        for c, S in [(0.0, 1.0), (1.0, 1.0), (-0.5, 1.0), (0.5, 0.0),
                     (0.5, -1.0), (0.5, math.pi)]:  # c*S = pi/2 kills the log
            with pytest.raises(ValueError):
                hashing_quality(c, S)


class TestPlaneField:
    def test_deterministic_and_seed_sensitive(self):
        f1 = slsh.GaussianPlaneField(7, 32)
        f2 = slsh.GaussianPlaneField(7, 32)
        f3 = slsh.GaussianPlaneField(8, 32)
        coords = np.arange(50, dtype=np.uint64)
        np.testing.assert_array_equal(f1.columns(coords), f2.columns(coords))
        assert not np.array_equal(f1.columns(coords), f3.columns(coords))

    def test_random_access_matches_dense(self):
        field = slsh.GaussianPlaneField(5, 16)
        dense = field.columns(np.arange(30, dtype=np.uint64))
        picks = np.array([3, 11, 29], dtype=np.uint64)
        np.testing.assert_array_equal(field.columns(picks), dense[picks])

    def test_values_look_standard_normal(self):
        field = slsh.GaussianPlaneField(11, 64)
        values = field.columns(np.arange(2000, dtype=np.uint64))
        assert abs(values.mean()) < 0.01
        assert abs(values.std() - 1.0) < 0.01


class TestIndex:
    def test_every_row_in_one_bucket_per_table(self):
        rng = np.random.default_rng(5)
        index = build_index([(c, unit_row(rng, 8)) for c in range(30)],
                            "simplelsh", dim=8, lsh_bits=4, lsh_tables=3, seed=1)
        keys, rows = index._buckets
        assert index._keys.shape == (30, 3) and (keys[:-1] <= keys[1:]).all()
        for t in range(3):
            members = rows[np.isin(keys, index._keys[:, t])]
            assert sorted(members.tolist()) == list(range(30))

    def test_exclusion_and_errors(self):
        index = build_index([], "simplelsh", dim=4)
        with pytest.raises(NoCandidateError):
            index.query(sv({0: 1.0}, 4))
        index.update_row(0, sv({0: 1.0}, 4))
        with pytest.raises(NoCandidateError):
            index.query(sv({0: 1.0}, 4), exclude=0)

    def test_rerank_returns_best_retrieved_candidate(self, as_block):
        # small codes force real bucket collisions; the answer must be the
        # exact argmax over whatever candidate pool was retrieved
        rng = np.random.default_rng(6)
        rows = {c: unit_row(rng, 6) for c in range(40)}
        index = build_index(sorted(rows.items()), "simplelsh", dim=6,
                            lsh_bits=2, lsh_tables=2, seed=2)
        bucket_hits = 0
        for _ in range(100):
            x = unit_row(rng, 6)
            exclude = int(rng.integers(40))
            pool = pools_of(index, as_block([x], 6), [exclude])[0]
            bucket_hits += bool(pool)
            cands = pool or [c for c in rows if c != exclude]
            got_c, got_s = index.query(x, exclude=exclude)
            best = max(cands, key=lambda c: (dot(rows[c], x), -c))
            assert got_c == best
            assert got_s == pytest.approx(dot(rows[best], x), rel=1e-12)
            assert got_c != exclude
        assert bucket_hits > 50  # the LSH path, not the fallback, was exercised

    def test_zero_query_falls_back_to_scan(self):
        rng = np.random.default_rng(7)
        index = build_index([(c, unit_row(rng, 5)) for c in range(4)],
                            "simplelsh", dim=5, seed=3)
        c, s = index.query(sv({}, 5), exclude=0)
        assert c in {1, 2, 3} and s == 0.0

    def test_recall_with_default_parameters(self):
        rng = np.random.default_rng(8)
        rows = [(c, unit_row(rng, 24)) for c in range(200)]
        index = build_index(rows, "simplelsh", dim=24, seed=4)
        oracle = build_index(rows, "exact", dim=24)
        queries = [(unit_row(rng, 24), int(rng.integers(200)))
                   for _ in range(100)]
        assert recall_at_1(index, oracle, queries) >= 0.9

    def test_update_row_grows_u_and_rebuilds(self):
        rng = np.random.default_rng(9)
        rows = [(c, scaled(unit_row(rng, 6), 0.5)) for c in range(10)]
        index = build_index(rows, "simplelsh", dim=6, lsh_bits=6,
                            lsh_tables=2, seed=5)
        rebuilds = index.rebuild_count
        big = scaled(unit_row(rng, 6), 2.0)
        index.update_row(3, big)
        assert index.rebuild_count > rebuilds
        assert index._U == pytest.approx(2.0)
        # all rows re-augmented against the new U; queries still correct
        oracle = ExactIndex(6)
        for c, r in rows:
            oracle.update_row(c, r)
        oracle.update_row(3, big)
        for _ in range(30):
            x = unit_row(rng, 6)
            got, _ = index.query(x, exclude=1)
            want, _ = oracle.query(x, exclude=1)
            # re-rank exactness only guaranteed on the retrieved pool, but a
            # 2x-norm row dominates and must be found
            if want == 3:
                assert got == 3

    def test_determinism_across_instances(self):
        rng1 = np.random.default_rng(10)
        rng2 = np.random.default_rng(10)
        rows1 = [(c, unit_row(rng1, 8)) for c in range(25)]
        rows2 = [(c, unit_row(rng2, 8)) for c in range(25)]
        i1 = build_index(rows1, "simplelsh", dim=8, seed=6, lsh_bits=6, lsh_tables=3)
        i2 = build_index(rows2, "simplelsh", dim=8, seed=6, lsh_bits=6, lsh_tables=3)
        assert i1._keys.tobytes() == i2._keys.tobytes()
        qrng = np.random.default_rng(11)
        for _ in range(30):
            x = unit_row(qrng, 8)
            assert i1.query(x, exclude=0) == i2.query(x, exclude=0)

    def test_wide_codes_beyond_64_bits(self):
        rng = np.random.default_rng(12)
        index = build_index([(c, unit_row(rng, 5)) for c in range(6)],
                            "simplelsh", dim=5, lsh_bits=96, lsh_tables=2, seed=7)
        c, _ = index.query(unit_row(rng, 5), exclude=2)
        assert c != 2


def reference_block(field, coords):
    """The plane field written out directly, one (n_bits, len(coords)) block."""
    coords = np.asarray(coords, dtype=np.uint64)

    def mix(x):
        with np.errstate(over="ignore"):
            z = x + slsh._GOLDEN
            z = (z ^ (z >> np.uint64(30))) * slsh._MIX1
            z = (z ^ (z >> np.uint64(27))) * slsh._MIX2
            return z ^ (z >> np.uint64(31))

    with np.errstate(over="ignore"):
        mixed = mix(field._bit_keys[:, None] ^ mix(coords * slsh._MIX2)[None, :])
    return ndtri(((mixed >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)


def full_codes(index, zs):
    """Whole table codes of augmented vectors, by hash_code over the field."""
    planes = index._field.columns(np.arange(index.dim + 1, dtype=np.uint64)).T
    b = index.bits
    return [[hash_code(z, planes[t * b:(t + 1) * b]) for t in range(index.tables)]
            for z in zs]


def code_prefix(code, bits, p):
    """The packed code of the first p of a packed ``bits``-bit code's bits
    (pack_bits pads a code with zero bits up to whole bytes)."""
    return (code >> (-bits % 8 + bits - p)) << (-p % 8)


def block(xs, dim):
    return sparse.stack_csr(xs, dim)


def random_sparse(rng, dim, max_nnz):
    nnz = int(rng.integers(1, max_nnz + 1))
    idx = np.sort(rng.choice(dim, size=nnz, replace=False))
    return SparseVector(idx, rng.standard_normal(nnz), dim)


def stored(index):
    """The rows of the index's CSR store, as {class id: SparseVector}."""
    B = index._block
    return {c: SparseVector(B.indices[lo:hi], B.data[lo:hi], index.dim)
            for c, (lo, hi) in enumerate(zip(B.indptr[:-1], B.indptr[1:]))}


class TestBatchedHashing:
    def test_columns_are_the_transposed_block(self):
        field = slsh.GaussianPlaneField(13, 40)
        coords = np.array([0, 7, 3, 1 << 40, 19], dtype=np.uint64)
        cols = field.columns(coords)
        assert cols.shape == (5, 40) and cols.flags.c_contiguous
        np.testing.assert_array_equal(cols, reference_block(field, coords).T)

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("bits,tables", [(6, 5), (70, 2)])
    def test_batched_codes_equal_hash_code(self, monkeypatch, as_block, chunked,
                                           bits, tables):
        if chunked:  # chunks of three coordinates: every batch spans many
            monkeypatch.setattr(slsh, "PLANE_CHUNK_ENTRIES", 3 * bits * tables)
        rng = np.random.default_rng(20)
        dim = 30
        rows = [(c, random_sparse(rng, dim, 12)) for c in range(25)]
        rows.append((25, SparseVector([], [], dim)))
        index = build_index(rows, "simplelsh", dim=dim, lsh_bits=bits,
                            lsh_tables=tables, seed=4)
        planes = index._field.columns(np.arange(dim + 1, dtype=np.uint64)).T

        def expected(z):
            return [hash_code(z, planes[t * bits:(t + 1) * bits])
                    for t in range(tables)]

        # row c is keyed by the prefixes of class c's codes: table t's
        # key is t * 2^p + the prefix (pack_bits pads it to whole bytes)
        p = min(bits, slsh.PREFIX_BITS)
        assert index._prefix == p
        assert len(index) == len(rows)
        for c, row in rows:
            z = simplelsh_transform(row, index._U)
            prefixes = [sign_bits(z, planes[t * bits:t * bits + p]) for t in range(tables)]
            assert index._keys[c].tolist() == [(t << p) + (pack_bits(prefix) >> -p % 8)
                                               for t, prefix in enumerate(prefixes)]
            assert [pack_bits(prefix) for prefix in prefixes] == [
                code_prefix(code, bits, p) for code in expected(z)]
        zs = [simplelsh_transform(random_sparse(rng, dim, 12), 1.0, query=True)
              for _ in range(20)]
        assert [[pack_bits(code) for code in codes]
                for codes in index._hash(as_block(zs, dim + 1))] == [expected(z) for z in zs]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_plane_pieces_give_the_chunk_reference_floats(self, monkeypatch, as_block,
                                                           kernel_workers, workers):
        """The projections equal, bit for bit, one thread summing the same
        coordinate chunks over every plane at once; so do the codes."""
        rng = np.random.default_rng(27)
        dim = 40
        index = SimpleLshIndex(dim, bits=8, tables=3, seed=5)
        Z = as_block([simplelsh_transform(random_sparse(rng, dim, 15), 1.0, query=True)
                      for _ in range(9)], dim + 1)
        bit_ids = np.arange(2, 15)  # 13 planes: pieces of 4-7 planes
        # chunks of 4 coordinates, the last one shorter
        monkeypatch.setattr(slsh, "PLANE_CHUNK_ENTRIES", 4 * bit_ids.size)
        monkeypatch.setattr(sparse, "MIN_PIECE_ENTRIES", 1)
        coords, cols = np.unique(Z.indices, return_inverse=True)
        assert coords.size % 4 != 0
        Zc = sp.csc_matrix(sp.csr_matrix((Z.data, cols, Z.indptr),
                                         shape=(Z.shape[0], coords.size)))
        want = np.zeros((Z.shape[0], bit_ids.size))
        for start in range(0, coords.size, 4):
            want += Zc[:, start:start + 4] @ index._field.columns(
                coords[start:start + 4], bit_ids)
        kernel_workers(1)
        codes = index._hash(Z)
        kernel_workers(workers)
        got = index._project(Z, bit_ids)
        assert got.tobytes() == want.tobytes()
        assert index._hash(Z).tobytes() == codes.tobytes()
        assert (sparse._pool is None) == (workers == 1)

    def test_hashing_memory_is_bounded_by_the_chunk(self, peak_traced_bytes):
        dim = 20_000
        rng = np.random.default_rng(22)
        row = SparseVector(np.arange(dim), rng.standard_normal(dim), dim)
        index = SimpleLshIndex(dim)
        _, peak = peak_traced_bytes(lambda: index.update_row(0, row))
        # the chunk's plane values plus one scratch array of the same size;
        # one block over the row's whole support would be 328 MB
        assert peak < 3 * slsh.PLANE_CHUNK_ENTRIES * 8

    def test_counters_count_queries_and_fallbacks(self, monkeypatch, as_block):
        monkeypatch.setattr(slsh, "PREFIX_BITS", 1)
        rng = np.random.default_rng(23)
        index = build_index([(c, unit_row(rng, 6)) for c in range(40)],
                            "simplelsh", dim=6, lsh_bits=2, lsh_tables=2, seed=2)
        xs = [unit_row(rng, 6) for _ in range(50)] + [sv({}, 6)]
        exclude = [int(c) for c in rng.integers(40, size=len(xs))]
        # (query, table) pairs whose 1-bit prefix bucket is occupied
        rows = full_codes(index, [simplelsh_transform(r, index._U)
                                  for r in stored(index).values()])
        queries = full_codes(index, [simplelsh_transform(x, 1.0, query=True)
                                     for x in xs[:-1]])
        hits = sum(any(code_prefix(q[t], 2, 1) == code_prefix(r[t], 2, 1)
                       for r in rows)
                   for q in queries for t in range(2))
        pools = pools_of(index, as_block(xs, 6), exclude)
        fallbacks = sum(not pool for pool in pools)
        assert pools[-1] == []  # the zero query
        assert 0 < fallbacks < len(xs)
        index.query_batch(as_block(xs, 6), exclude)
        index.query(xs[-1], exclude=exclude[-1])
        # the direct _candidates call and query_batch both hash every prefix
        assert index.counters() == {"rebuilds": index.rebuild_count,
                                    "queries": len(xs) + 1,
                                    "fallbacks": fallbacks + 1,
                                    "prefix_hits": 2 * hits}

    def test_concurrent_query_batches_count_every_query(self, monkeypatch, as_block,
                                                        kernel_workers):
        # every kernel call's pieces run on a 2-worker pool shared by the callers
        monkeypatch.setattr(sparse, "MIN_PIECE_ENTRIES", 1)
        kernel_workers(2)
        monkeypatch.setattr(slsh, "PREFIX_BITS", 1)
        rng = np.random.default_rng(24)
        index = build_index([(c, unit_row(rng, 6)) for c in range(40)],
                            "simplelsh", dim=6, lsh_bits=2, lsh_tables=2, seed=2)
        xs = as_block([unit_row(rng, 6) for _ in range(5)], 6)
        index.query_batch(xs, [None] * 5)
        per_batch = index.fallback_count
        hits_per_batch = index.prefix_hit_count
        assert hits_per_batch > 0
        start = threading.Barrier(6)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work():
                start.wait(timeout=60)
                for _ in range(100):
                    index.query_batch(xs, [None] * 5)

            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert index.query_count == 601 * 5
        assert index.fallback_count == 601 * per_batch
        assert index.prefix_hit_count == 601 * hits_per_batch


class TestPrefixHashing:
    def test_columns_bit_subset_matches_the_field(self):
        field = slsh.GaussianPlaneField(13, 40)
        coords = np.array([0, 7, 3, 1 << 40, 19], dtype=np.uint64)
        bit_ids = np.array([39, 0, 17, 17, 5])
        cols = field.columns(coords, bit_ids)
        assert cols.shape == (5, 5) and cols.flags.c_contiguous
        np.testing.assert_array_equal(cols, reference_block(field, coords)[bit_ids].T)

    @pytest.mark.parametrize("grow", [False, True])
    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("bits,tables", [(6, 5), (70, 2)])
    @pytest.mark.parametrize("prefix", [1, 3, 70])
    def test_pools_equal_full_code_reference(self, monkeypatch, as_block, prefix,
                                             bits, tables, chunked, grow):
        monkeypatch.setattr(slsh, "PREFIX_BITS", prefix)
        if chunked:  # one coordinate per chunk in every pass
            monkeypatch.setattr(slsh, "PLANE_CHUNK_ENTRIES", 1)
        rng = np.random.default_rng(25)
        dim = 8

        def row(top):
            r = random_sparse(rng, dim, 5)
            return scaled(r, rng.uniform(0.1, top) / r.norm())

        rows = [(c, row(1.0)) for c in range(40)] + [(40, SparseVector([], [], dim))]
        index = build_index(rows, "simplelsh", dim=dim, lsh_bits=bits,
                            lsh_tables=tables, seed=6)
        rebuilds = index.rebuild_count
        refresh = rng.choice(40, size=10, replace=False).tolist()
        new_rows = [row(3.0 if grow else 0.9) for _ in refresh] + [row(0.9)]
        index.update_rows(refresh + [41], as_block(new_rows, dim))
        assert index.rebuild_count - rebuilds == int(grow)

        # queries: random vectors, copies of the longest row (its augmented
        # tail is about zero, so its whole codes match theirs), and one zero
        # query
        rows = stored(index)
        top = max(rows, key=lambda c: rows[c].norm())
        xs = [random_sparse(rng, dim, 5) for _ in range(60)]
        xs += [scaled(rows[top], 2.0)] * 3 + [SparseVector([], [], dim)]
        exclude = [None if rng.random() < 0.3 else int(rng.integers(42))
                   for _ in xs]
        exclude[-2] = top

        ids = sorted(rows)
        rows_full = dict(zip(ids, full_codes(index, [
            simplelsh_transform(rows[c], index._U) for c in ids])))
        want, full_pairs = [], 0
        for x, e in zip(xs, exclude):
            if x.norm() == 0.0:
                want.append([])
                continue
            q = full_codes(index, [simplelsh_transform(x, 1.0, query=True)])[0]
            full_pairs += sum(any(r[t] == q[t] for r in rows_full.values())
                              for t in range(tables))
            pool = [c for c in ids if c != e
                    and any(a == b for a, b in zip(rows_full[c], q))]
            want.append(pool)
        assert pools_of(index, as_block(xs, dim), exclude) == want
        assert sum(bool(pool) for pool in want) >= 2
        # p is capped below PREFIX_BITS = 70, at 62, so that t * 2^p + prefix
        # fits in an int64: that case hashes the rest of its bits too
        if index._prefix < bits:
            # every whole-code match was a prefix match and was confirmed
            assert index.prefix_hit_count >= full_pairs > 0
            if index._prefix <= 3:  # ... and a short prefix's were rejected too
                assert index.prefix_hit_count > full_pairs
        else:
            assert index.prefix_hit_count == 0

    @pytest.mark.parametrize("tables,p", [(1, 63), (2, 62), (32, 58), (33, 57)])
    def test_every_bucket_key_is_one_int64(self, monkeypatch, tables, p):
        """A (row, table t) key is t * 2^p + the first p bits of the row's
        code in t, with p capped so that every key fits below 2^63
        (PREFIX_BITS = 16 never binds: 58 bits at 32 tables)."""
        monkeypatch.setattr(slsh, "PREFIX_BITS", 70)
        rng = np.random.default_rng(27)
        rows = [(c, random_sparse(rng, 5, 3)) for c in range(6)]
        index = build_index(rows, "simplelsh", dim=5, lsh_bits=70, lsh_tables=tables,
                            seed=3)
        assert index._prefix == p and index._keys.dtype == np.int64
        planes = index._field.columns(np.arange(6, dtype=np.uint64)).T
        for c, row in rows:
            z = simplelsh_transform(row, index._U)
            assert index._keys[c].tolist() == [
                (t << p) + (hash_code(z, planes[t * 70:t * 70 + p]) >> -p % 8)
                for t in range(tables)]

    @pytest.mark.parametrize("prefix", [1, 4, 16])
    def test_candidates_equal_whole_code_matches(self, prefix):
        """Every row's (indptr, ids) pool is the sorted classes, other than
        its excluded one, whose whole code matches its own in some table
        (none for a zero query), and prefix_hits counts the (query, table)
        pairs whose prefix bucket is occupied when the prefix is not the
        whole code.  An exclude may name an id outside the index, which
        masks nothing."""
        seen = []

        @settings(max_examples=40, deadline=None, database=None)
        @given(bits=st.integers(1, 24), tables=st.integers(1, 4),
               seed=st.integers(0, 2**32 - 1), grow=st.booleans())
        @example(bits=prefix, tables=1, seed=0, grow=False)
        @example(bits=prefix + 5, tables=3, seed=1, grow=True)
        # rows pool on each side of the prefix width here, whatever is drawn
        @example(bits=prefix, tables=4, seed=0, grow=False)
        @example(bits=prefix + 1, tables=4, seed=0, grow=False)
        def check(bits, tables, seed, grow):
            rng = np.random.default_rng(seed)
            dim = 6

            def row(top):
                r = random_sparse(rng, dim, 4)
                return scaled(r, rng.uniform(0.1, top) / r.norm())

            ids = list(range(int(rng.integers(1, 30))))
            rows = [(c, row(1.0)) for c in ids]
            if rng.random() < 0.5:
                rows.append((len(rows), SparseVector([], [], dim)))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(slsh, "PREFIX_BITS", prefix)
                index = build_index(rows, "simplelsh", dim=dim, lsh_bits=bits,
                                    lsh_tables=tables, seed=seed % 1000)
            # a partial update, which splices keys in or, growing U, rebuilds
            refresh = rng.choice(ids, size=min(len(ids), 3), replace=False).tolist()
            new_rows = [row(2.0 if grow else 0.9) for _ in refresh] + [row(0.5)]
            index.update_rows(refresh + [len(rows)], block(new_rows, dim))

            stored_rows = stored(index)
            classes = sorted(stored_rows)
            codes = dict(zip(classes, full_codes(index, [
                simplelsh_transform(stored_rows[c], index._U) for c in classes])))
            copies = rng.choice(classes, size=4).tolist()
            xs = [random_sparse(rng, dim, 4) for _ in range(12)]
            xs += [scaled(stored_rows[c], 2.0) for c in copies] + [SparseVector([], [], dim)]
            exclude = [None if rng.random() < 0.3
                       else int(rng.choice(classes)) if rng.random() < 0.7
                       else int(rng.choice([-1000, 1000])) for _ in xs]
            exclude[12:16] = [copies[0], None, copies[2], None]
            p = min(bits, prefix)
            want, hits = [], 0
            for x, e in zip(xs, exclude):
                if x.norm() == 0.0:
                    want.append([])
                    continue
                q = full_codes(index, [simplelsh_transform(x, 1.0, query=True)])[0]
                want.append([c for c in classes if c != e
                             and any(a == b for a, b in zip(codes[c], q))])
                if p < bits:
                    hits += sum(any(code_prefix(r[t], bits, p) == code_prefix(q[t], bits, p)
                                    for r in codes.values()) for t in range(tables))
            before = index.prefix_hit_count
            assert pools_of(index, block(xs, dim), exclude) == want
            assert index.prefix_hit_count - before == hits
            seen.append((bits <= prefix, sum(bool(pool) for pool in want)))

        check()
        # both sides of the prefix width were drawn, each with pooled rows
        assert {short for short, pooled in seen if pooled} == {True, False}

    def test_query_batch_reranks_every_pool_in_one_kernel_call(self, monkeypatch,
                                                              as_block):
        monkeypatch.setattr(slsh, "PREFIX_BITS", 1)
        rng = np.random.default_rng(28)
        index = build_index([(c, unit_row(rng, 6)) for c in range(40)],
                            "simplelsh", dim=6, lsh_bits=2, lsh_tables=2, seed=2)
        xs = [unit_row(rng, 6) for _ in range(30)] + [sv({}, 6)]
        exclude = [int(c) for c in rng.integers(40, size=len(xs))]
        pools = pools_of(index, as_block(xs, 6), exclude)
        pooled = [i for i, pool in enumerate(pools) if pool]
        assert 1 < len(pooled) < len(xs)
        calls = []
        score_block = mips_base.score_block

        def counting(X, state, **kwargs):
            calls.append((X.shape[0], state.num_classes, kwargs.get("among") is not None))
            return score_block(X, state, **kwargs)

        monkeypatch.setattr(mips_base, "score_block", counting)
        ids, scores = index.query_batch(as_block(xs, 6), exclude)
        union = set().union(*(pools[i] for i in pooled))
        rows = stored(index)
        assert sorted(calls) == sorted([(len(xs) - len(pooled), 40, False),
                                        (len(pooled), len(union), True)])
        for i in pooled:  # each query picks within its own pool
            assert ids[i] in pools[i]
            assert scores[i] == pytest.approx(
                max(dot(xs[i], rows[c]) for c in pools[i]), rel=1e-12)

    def test_query_batch_generates_prefix_planes_only(self, monkeypatch, as_block):
        dim = 20_000
        rng = np.random.default_rng(26)
        index = SimpleLshIndex(dim)
        index.update_rows(range(5), as_block([random_sparse(rng, dim, 40)
                                              for _ in range(5)], dim))
        xs = [random_sparse(rng, dim, 40) for _ in range(5)]
        generated = []
        columns = slsh.GaussianPlaneField.columns

        def counting(field, *args, **kwargs):
            out = columns(field, *args, **kwargs)
            generated.append(out.size)
            return out

        monkeypatch.setattr(slsh.GaussianPlaneField, "columns", counting)
        index.query_batch(as_block(xs, dim), [None] * len(xs))
        support = np.unique(np.concatenate([x.indices for x in xs])).size
        assert 0 < sum(generated) <= slsh.PREFIX_BITS * index.tables * support
        # ... because no prefix collided: no pass hashed the rest of a code
        assert index.prefix_hit_count == 0
