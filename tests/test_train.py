"""Trainers, schedules, truncation and objectives.

The reference oracles here are dense numpy re-implementations of the two
training loops (no lazy scale, no index, no sparse storage) driven by the
same RNG draws, so any staleness or scaling bug in the real engine shows up
as a divergence.
"""

import hashlib
import math
import sys
import threading

import numpy as np
import pytest
import scipy

import mipsvm.mips.simplelsh as slsh
from mipsvm import sparse
from mipsvm.dataio import Dataset, save_model
from mipsvm.metrics import evaluate
from mipsvm.mips import ExactIndex, SimpleLshIndex, SwGraphIndex
from mipsvm.sparse import SparseVector, WeightMatrix
from mipsvm.synth import make_synthetic, make_toy_dataset, toy_reference_margins
from mipsvm.train import (TrainConfig, default_batch_size, learning_rate,
                          objective_l1, objective_l2, sample_batch, train_l1,
                          train_l2)


def sv(pairs, dim):
    return SparseVector.from_pairs(pairs, dim)


def truncate(w: SparseVector, xi: int, lam: float, eta: float,
             num_classes: int) -> SparseVector:
    """Oracle of the l1 trainer's truncation of one row: soft-threshold w
    at tau = (num_classes / xi) * lam * eta and drop the zeros."""
    if xi < 1:
        raise ValueError("xi must be a positive integer")
    tau = (num_classes / xi) * lam * eta
    if tau == 0.0:
        return w
    shrunk = np.sign(w.values) * np.maximum(np.abs(w.values) - tau, 0.0)
    keep = shrunk != 0.0
    return SparseVector(w.indices[keep], shrunk[keep], w.dim, check=False)


def matrix_from_dense(rows):
    rows = np.asarray(rows, dtype=float)
    W = WeightMatrix(rows.shape[0], rows.shape[1])
    for c, row in enumerate(rows):
        W.add_to_row(c, 1.0, sv(dict(enumerate(row)), rows.shape[1]))
    return W


def dense_rows(W):
    return np.stack([W.materialize_row(c).to_dense()
                     for c in range(W.num_classes)])


class TestLearningRate:
    def test_constant_when_step_zero(self):
        assert learning_rate(1, 0.5, 0.0) == 0.5
        assert learning_rate(999, 0.5, 0.0) == 0.5

    def test_default_constants(self):
        assert learning_rate(1, 0.1, 0.02) == pytest.approx(0.1 / 1.02)

    def test_monotone_decay(self):
        vals = [learning_rate(t, 0.1, 0.02) for t in (1, 10, 100, 1000)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] < 0.005


class TestSampleBatch:
    def test_singleton(self):
        data = Dataset([(0, sv({0: 1.0}, 1))], 1, 1)
        rng = np.random.default_rng(0)
        assert sample_batch(data, 1, rng).examples == [data.examples[0]]

    def test_deterministic(self):
        data = make_toy_dataset()
        b1 = sample_batch(data, 50, np.random.default_rng(42))
        b2 = sample_batch(data, 50, np.random.default_rng(42))
        np.testing.assert_array_equal(b1.labels_array(), b2.labels_array())
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(b1.to_csr(), name),
                                          getattr(b2.to_csr(), name))

    def test_batch_is_a_row_take_of_the_draw(self):
        data = make_toy_dataset()
        batch = sample_batch(data, 50, np.random.default_rng(42))
        picks = np.random.default_rng(42).integers(len(data), size=50)
        np.testing.assert_array_equal(batch.labels_array(), data.labels_array()[picks])
        np.testing.assert_array_equal(batch.to_csr().toarray(),
                                      data.to_csr().toarray()[picks])
        assert (batch.dim, batch.num_classes) == (data.dim, data.num_classes)

    def test_uniform_frequencies(self):
        data = Dataset([(i, sv({0: 1.0}, 1)) for i in range(10)], 1, 10)
        rng = np.random.default_rng(1)
        counts = np.bincount(sample_batch(data, 100_000, rng).labels_array(),
                             minlength=10)
        sigma = math.sqrt(100_000 * 0.1 * 0.9)
        assert np.all(np.abs(counts - 10_000) <= 3 * sigma)

    def test_errors(self):
        data = make_toy_dataset()
        with pytest.raises(ValueError):
            sample_batch(Dataset([], 1, 1), 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_batch(data, 0, np.random.default_rng(0))


class TestTruncate:
    def test_hand_example(self):
        # C=4, xi=2, lam=0.1, eta=0.5 -> tau = 0.1
        w = sv({0: 0.5, 1: -0.05, 2: 0.08, 3: -0.3}, 4)
        out = truncate(w, 2, 0.1, 0.5, 4)
        assert out.indices.tolist() == [0, 3]
        np.testing.assert_allclose(out.values, [0.4, -0.2], rtol=1e-15)

    def test_zero_lambda_is_identity(self):
        w = sv({0: 0.5, 2: -0.1}, 3)
        assert truncate(w, 1, 0.0, 0.5, 3) is w

    def test_l1_norm_against_scalar_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            nnz = int(rng.integers(0, 10))
            idx = np.sort(rng.choice(30, size=nnz, replace=False))
            w = SparseVector(idx, rng.standard_normal(nnz), 30)
            xi = int(rng.integers(1, 5))
            lam, eta, C = rng.uniform(0, 0.5), rng.uniform(0, 0.5), 7
            tau = (C / xi) * lam * eta
            out = truncate(w, xi, lam, eta, C)
            expected = sum(max(abs(v) - tau, 0.0) for v in w.values)
            assert float(np.abs(out.values).sum()) == pytest.approx(
                expected, rel=1e-12, abs=1e-15)

    def test_never_grows_coordinates_or_nnz(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            nnz = int(rng.integers(1, 10))
            idx = np.sort(rng.choice(20, size=nnz, replace=False))
            w = SparseVector(idx, rng.standard_normal(nnz), 20)
            out = truncate(w, 2, 0.2, 0.3, 5)
            assert out.nnz <= w.nnz
            dense_in, dense_out = w.to_dense(), out.to_dense()
            assert np.all(np.abs(dense_out) <= np.abs(dense_in) + 1e-15)

    def test_xi_validation(self):
        with pytest.raises(ValueError):
            truncate(sv({}, 2), 0, 0.1, 0.1, 2)

    def test_truncate_rows_matches_the_oracle(self):
        """WeightMatrix.truncate_rows, as the l1 trainer calls it, gives
        every chosen row the oracle's floats and leaves the others alone;
        the power-of-two scale keeps the stored values exact."""
        rng = np.random.default_rng(4)
        C, dim = 9, 25
        for _ in range(20):
            W = WeightMatrix.from_rows(
                [(c, SparseVector(np.sort(rng.choice(dim, size=8, replace=False)),
                                  rng.standard_normal(8), dim)) for c in range(C)], dim)
            W.global_scale(0.5)
            before = [W.materialize_row(c) for c in range(C)]
            rows = np.sort(rng.choice(C, size=int(rng.integers(1, C + 1)), replace=False))
            lam, eta = rng.uniform(0, 0.5), rng.uniform(0, 0.5)
            W.truncate_rows(rows, (C / rows.size) * lam * eta)
            for c in range(C):
                want = before[c]
                if c in rows:
                    want = truncate(want, rows.size, lam, eta, C)
                got = W.materialize_row(c)
                assert got.indices.tolist() == want.indices.tolist()
                assert got.values.tobytes() == want.values.tobytes()


class TestConfig:
    def test_validation_catches_bad_values(self):
        for bad in [dict(lam=-1), dict(eta0=0), dict(eta_step=-1),
                    dict(epochs=0), dict(batch_size=0), dict(backend="fancy"),
                    dict(lsh_bits=0), dict(threads=0),
                    dict(lam=11.0, eta0=0.1, eta_step=0.0)]:
            with pytest.raises(ValueError):
                TrainConfig(**bad).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("argument, call", [
        ("lam", lambda W, v: TrainConfig(lam=v).validate()),
        ("eta0", lambda W, v: TrainConfig(eta0=v).validate()),
        ("eta_step", lambda W, v: TrainConfig(eta_step=v).validate()),
        ("scale factor", lambda W, v: W.global_scale(v)),
        ("threshold", lambda W, v: W.truncate_rows([0, 1], v)),
        ("coefficient", lambda W, v: W.add_to_row(0, v, sv({1: 2.0}, 3))),
        ("lam", lambda W, v: W.project_to_ball(v)),
    ], ids=["lam", "eta0", "eta_step", "global_scale", "truncate_rows", "add_to_row",
            "project_to_ball"])
    def test_non_finite_scalars_fail_closed(self, argument, call, value):
        """A non-finite scalar is rejected with a message that names it,
        before the weights, their scale or their fold count change."""
        W = WeightMatrix.from_rows([(0, sv({0: 1.0, 2: -3.0}, 3)), (1, sv({1: 0.5}, 3))], 3)
        W.global_scale(0.5)
        before = W.scale, W.fold_count, W.to_csr().toarray().tobytes()
        with pytest.raises(ValueError, match=f"^{argument} must .* finite, not {value}$"):
            call(W, value)
        assert (W.scale, W.fold_count, W.to_csr().toarray().tobytes()) == before

    def test_schedule_guard_is_about_first_step(self):
        # lam*eta_1 = 10 * 0.1/1.02 < 1 passes even though lam*eta0 > 1
        TrainConfig(lam=10.0, eta0=0.1, eta_step=0.02).validate()

    def test_default_batch_size(self):
        assert default_batch_size(3) == 173
        assert default_batch_size(1) == 100
        assert default_batch_size(12294) == round(100 * math.sqrt(12294))


class TestObjectives:
    def test_zero_matrix_is_one(self):
        toy = make_toy_dataset()
        W = WeightMatrix(3, 2)
        assert objective_l2(W, toy, 1.0) == 1.0
        assert objective_l1(W, toy, 1.0) == 1.0

    def test_hand_values(self):
        W = matrix_from_dense([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        data = Dataset([(0, sv({0: 1.0}, 2)), (1, sv({1: 1.0}, 2)),
                        (2, sv({0: 1.0, 1: 1.0}, 2))], 2, 3)
        # margins 0.5, 0.5, 0.0 -> mean hinge 2/3
        assert objective_l2(W, data, 0.2) == pytest.approx(0.1 * 2.5 + 2 / 3,
                                                           rel=1e-12)
        assert objective_l1(W, data, 0.2) == pytest.approx(0.1 * 3.0 + 2 / 3,
                                                           rel=1e-12)

    def test_l1_regularizer_only(self):
        W = matrix_from_dense([[2.0, -3.0], [0.0, 0.0]])
        data = Dataset([(0, sv({0: 1.0}, 2))], 2, 2)  # margin 2, hinge 0
        assert objective_l1(W, data, 0.4) == pytest.approx(0.2 * 5.0, rel=1e-12)


# -- dense reference trainers ------------------------------------------------


def reference_train(data, cfg, mode):
    """Dense mirror of the training loop, same RNG stream, no sparse tricks."""
    n, C, d = len(data), data.num_classes, data.dim
    X = np.stack([x.to_dense() for _, x in data.examples])
    labels = [y for y, _ in data.examples]
    M = np.zeros((C, d))
    rng = np.random.default_rng(cfg.seed)
    batch_size = cfg.batch_size or default_batch_size(C)
    for t in range(1, cfg.epochs + 1):
        eta = learning_rate(t, cfg.eta0, cfg.eta_step)
        picks = rng.integers(n, size=batch_size)
        if mode == "l2":
            M *= 1.0 - cfg.lam * eta
        snapshot = M.copy()
        chosen = []
        for i in picks:
            scores = snapshot @ X[i]
            y = labels[i]
            masked = scores.copy()
            masked[y] = -np.inf
            r = int(np.argmax(masked))
            chosen.append((i, y, r, scores[y] - scores[r]))
        touched = set()
        for i, y, r, margin in chosen:
            if mode == "l1":
                touched.update((y, r))
            if 1.0 - margin > 0.0:
                M[r] -= eta * X[i]
                M[y] += eta * X[i]
                if mode == "l2":
                    touched.update((y, r))
        if mode == "l2":
            fro = np.linalg.norm(M)
            if cfg.lam > 0 and fro > 0:
                M *= min(1.0, 1.0 / (math.sqrt(cfg.lam) * fro))
        elif cfg.truncation and touched:
            tau = (C / len(touched)) * cfg.lam * eta
            for c in touched:
                M[c] = np.sign(M[c]) * np.maximum(np.abs(M[c]) - tau, 0.0)
    return M


class TestTrainL2:
    def test_matches_dense_reference(self):
        toy = make_toy_dataset()
        cfg = TrainConfig(lam=1.0, epochs=15, seed=11, backend="exact",
                          batch_size=40)
        W, _ = train_l2(toy, cfg)
        M = reference_train(toy, cfg, "l2")
        np.testing.assert_allclose(dense_rows(W), M, rtol=1e-9, atol=1e-12)

    def test_toy_training_accuracy(self):
        toy = make_toy_dataset()
        assert toy_reference_margins(toy).min() >= 0.5
        cfg = TrainConfig(lam=1.0, epochs=30, seed=0, backend="exact")
        W, log = train_l2(toy, cfg)
        assert evaluate(W, toy).accuracy >= 0.95
        assert len(log) == 30

    def test_update_guard_leaves_scaled_matrix(self):
        # wide margins: one step must only apply (1 - lam*eta_1) and phi
        data = Dataset([(0, sv({0: 1.0}, 2))], 2, 2)
        init = matrix_from_dense([[5.0, 0.0], [0.0, -5.0]])
        cfg = TrainConfig(lam=0.01, epochs=1, batch_size=1, seed=0,
                          backend="exact")
        W, _ = train_l2(data, cfg, initial=init)
        factor = 1.0 - 0.01 * learning_rate(1, cfg.eta0, cfg.eta_step)
        # ||W|| stays inside the 1/sqrt(lam)=10 ball, so phi = 1
        expected = matrix_from_dense([[5.0, 0.0], [0.0, -5.0]])
        expected.global_scale(factor)
        np.testing.assert_array_equal(dense_rows(W), dense_rows(expected))

    def test_projection_invariant_every_epoch(self):
        toy = make_toy_dataset()
        lam = 2.0
        bound = 1.0 / math.sqrt(lam) + 1e-9
        seen = []
        cfg = TrainConfig(lam=lam, epochs=25, seed=1, backend="exact")
        train_l2(toy, cfg, epoch_callback=lambda t, W: seen.append(W.frob_norm()))
        assert len(seen) == 25
        assert all(f <= bound for f in seen)

    def test_paired_backend_gap_on_toy(self):
        toy = make_toy_dataset()
        accs = {}
        for backend in ("exact", "simplelsh"):
            cfg = TrainConfig(lam=1.0, epochs=30, seed=2, backend=backend,
                              lsh_bits=8, lsh_tables=8)
            W, _ = train_l2(toy, cfg)
            accs[backend] = evaluate(W, toy).accuracy
        assert abs(accs["exact"] - accs["simplelsh"]) <= 0.05

    def test_swgraph_backend_trains(self):
        toy = make_toy_dataset()
        cfg = TrainConfig(lam=1.0, epochs=30, seed=3, backend="swgraph",
                          swg_ef_search=8, swg_max_neighbors=4)
        W, _ = train_l2(toy, cfg)
        assert evaluate(W, toy).accuracy >= 0.95

    def test_averaged_iterate_objective_trend(self):
        toy = make_toy_dataset()
        objs = []
        for T in (5, 10, 20, 40):
            acc = np.zeros((3, 2))

            def cb(t, W, acc=acc):
                acc += dense_rows(W)

            cfg = TrainConfig(lam=1.0, epochs=T, seed=2, backend="exact")
            train_l2(toy, cfg, epoch_callback=cb)
            objs.append(objective_l2(matrix_from_dense(acc / T), toy, 1.0))
        assert objs == sorted(objs, reverse=True)
        # and the averaged iterate beats the zero matrix (objective 1.0)
        assert objs[-1] < 1.0

    def test_determinism(self):
        toy = make_toy_dataset()
        for backend in ("exact", "simplelsh", "swgraph"):
            runs = []
            for _ in range(2):
                cfg = TrainConfig(lam=1.0, epochs=10, seed=4, backend=backend)
                W, _ = train_l2(toy, cfg)
                runs.append(dense_rows(W))
            np.testing.assert_array_equal(runs[0], runs[1])

    def test_one_slice_runs_on_the_calling_thread(self, monkeypatch):
        # the whole batch is one rival query on the calling thread, whatever
        # ``threads`` says; toy kernel calls are too small for the kernel pool
        def no_thread(*args, **kwargs):
            raise AssertionError("training started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        for backend in ("exact", "simplelsh", "swgraph"):
            train_l2(make_toy_dataset(),
                     TrainConfig(lam=1.0, epochs=3, backend=backend, threads=3))

    def test_shape_validation(self):
        toy = make_toy_dataset()
        with pytest.raises(ValueError):
            train_l2(toy, TrainConfig(epochs=1),
                     initial=WeightMatrix(2, 2))
        one_class = Dataset([(0, sv({0: 1.0}, 1))], 1, 1)
        with pytest.raises(ValueError):
            train_l2(one_class, TrainConfig(epochs=1))

    @pytest.mark.parametrize("trainer", [train_l2, train_l1])
    def test_heldout_dimension_is_checked_before_the_first_step(self, trainer):
        toy = make_toy_dataset()
        wide = Dataset([(0, sv({2: 1.0}, 3)), (1, sv({0: 1.0}, 3))], 3, 3)
        steps = []
        with pytest.raises(ValueError, match="heldout dimension 3 does not match "
                                             "the training dimension 2"):
            trainer(toy, TrainConfig(epochs=2), heldout=wide,
                    epoch_callback=lambda t, W: steps.append(t))
        assert steps == []

    def test_non_finite_objective_names_step(self):
        # scores near 1e308 overflow after the first update
        data = Dataset([(0, sv({0: 1e155, 1: 1e155}, 3)),
                        (1, sv({0: -1e155, 2: 1e155}, 3)),
                        (0, sv({1: 1e155}, 3)),
                        (1, sv({0: 1e155, 2: -1e155}, 3))], 3, 2)
        for trainer in (train_l2, train_l1):
            with np.errstate(all="ignore"), \
                    pytest.raises(ValueError, match="diverged at step 1: objective is nan"):
                trainer(data, TrainConfig(epochs=3, seed=0))
        # the first update overflows ||W||^2 to inf: projection must leave
        # the divergence to the objective check, not pass on a zero factor
        wide = Dataset([(0, sv({0: 1e160}, 2)), (1, sv({1: 1e160}, 2))], 2, 2)
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="diverged at step 1"):
            train_l2(wide, TrainConfig(epochs=3, seed=0, batch_size=1))
        # the first update itself overflows to inf: W.add refuses it, and the
        # trainer names the step and the update's first non-finite row
        huge = Dataset([(0, sv({0: 1.7e308}, 2)), (1, sv({1: 1.7e308}, 2))] * 2, 2, 2)
        for trainer in (train_l2, train_l1):
            with np.errstate(all="ignore"), \
                    pytest.raises(ValueError, match="diverged at step 1: row 0 holds the "
                                                    "non-finite feature value inf"):
                trainer(huge, TrainConfig(epochs=3, seed=0, batch_size=8, lam=1e-3,
                                          eta0=0.9, backend="simplelsh"))


class TestTrainL1:
    def test_matches_dense_reference(self):
        toy = make_toy_dataset()
        cfg = TrainConfig(lam=1e-3, epochs=15, seed=12, backend="exact",
                          batch_size=40)
        W, _ = train_l1(toy, cfg)
        M = reference_train(toy, cfg, "l1")
        np.testing.assert_allclose(dense_rows(W), M, rtol=1e-9, atol=1e-12)

    def test_toy_training_accuracy(self):
        toy = make_toy_dataset()
        cfg = TrainConfig(lam=1e-6, epochs=30, seed=0, backend="exact")
        W, _ = train_l1(toy, cfg)
        assert evaluate(W, toy).accuracy >= 0.95

    def test_zero_lambda_equals_truncation_off(self):
        toy = make_toy_dataset()
        on = TrainConfig(lam=0.0, epochs=12, seed=5, backend="exact",
                         truncation=True)
        off = TrainConfig(lam=0.0, epochs=12, seed=5, backend="exact",
                          truncation=False)
        W1, _ = train_l1(toy, on)
        W2, _ = train_l1(toy, off)
        np.testing.assert_array_equal(dense_rows(W1), dense_rows(W2))

    def test_sparsity_monotone_in_lambda(self):
        data = make_synthetic(10, 40, 400, noise=0.4, seed=6)
        nnz = {}
        for lam in (1e-2, 1e-6):
            cfg = TrainConfig(lam=lam, epochs=20, seed=7, backend="exact",
                              batch_size=100)
            W, log = train_l1(data, cfg)
            nnz[lam] = log.nnz[-1]
        assert nnz[1e-2] <= nnz[1e-6]

    def test_truncation_touches_queried_rows(self):
        # an example with a wide margin applies no update, yet both its own
        # row and the queried rival land in the batch's touched set and get
        # soft-thresholded
        data = Dataset([(1, sv({1: 1.0}, 2))], 2, 2)
        init = matrix_from_dense([[0.06, 0.0], [0.0, 10.0]])
        cfg = TrainConfig(lam=0.5, eta0=0.1, eta_step=0.02, epochs=1,
                          batch_size=1, seed=0, backend="exact")
        W, _ = train_l1(data, cfg, initial=init)
        tau = (2 / 2) * 0.5 * learning_rate(1, 0.1, 0.02)
        got = dense_rows(W)
        assert got[0][0] == pytest.approx(0.06 - tau, rel=1e-12)
        assert got[1][1] == pytest.approx(10.0 - tau, rel=1e-12)


@pytest.mark.parametrize("backend", ["exact", "simplelsh"])
@pytest.mark.parametrize("algo", ["l2", "l1"])
def test_model_bytes_do_not_depend_on_the_worker_count(algo, backend, monkeypatch,
                                                       kernel_workers, tmp_path):
    """Every kernel call runs as pieces on the pool (several score chunks
    and plane chunks each); the models of 1 and 2 workers are byte-identical."""
    monkeypatch.setattr(sparse, "MIN_PIECE_ENTRIES", 1)
    monkeypatch.setattr(sparse, "SCORE_BLOCK_ENTRIES", 600)
    monkeypatch.setattr(slsh, "PLANE_CHUNK_ENTRIES", 128)  # 8 coordinates a chunk
    data = make_synthetic(num_classes=12, dim=30, n=300, seed=3)
    blobs = []
    for workers in (1, 2):
        kernel_workers(workers)
        cfg = TrainConfig(lam=1.0 if algo == "l2" else 1e-3, epochs=6, seed=5,
                          backend=backend, lsh_bits=4, lsh_tables=4)
        W, _ = (train_l2 if algo == "l2" else train_l1)(data, cfg)
        path = tmp_path / f"w{workers}.bin"
        save_model(path, W, lam=cfg.lam, algorithm=algo)
        blobs.append(path.read_bytes())
        assert (sparse._pool is None) == (workers == 1)
    assert blobs[1] == blobs[0]


class TestTrainLog:
    def test_tsv_format(self, tmp_path):
        toy = make_toy_dataset()
        cfg = TrainConfig(lam=1.0, epochs=3, seed=8, backend="exact")
        _, log = train_l2(toy, cfg, heldout=toy)
        out = tmp_path / "log.tsv"
        log.write_tsv(out)
        lines = out.read_text().splitlines()
        assert lines[0].split("\t") == ["epoch", "objective", "heldout_acc",
                                        "heldout_maf1", "nnz", "seconds"]
        assert len(lines) == 4
        first = lines[1].split("\t")
        assert first[0] == "1"
        assert 0.0 <= float(first[2]) <= 1.0

    @pytest.mark.parametrize("fit", [train_l1, train_l2])
    def test_objective_and_heldout_share_one_scoring_state(self, monkeypatch, fit,
                                                           scoring_builds):
        """Each step's heldout evaluation and objective score through one
        scoring state of W, built once for both.  The rival phase re-scores
        its pairs through W's state only when W is scored densely (the
        first step's zero W is not): l2's scaling makes it build the state
        then, and l1 takes it over from the previous step's objective.
        The index keeps its own."""
        import mipsvm.train as train_module

        builds_at, dense_at_rival = [], []
        for name in ("evaluate", "_query_phase", f"objective_{fit.__name__[-2:]}"):
            def counted(*args, original=getattr(train_module, name), name=name):
                if name == "_query_phase":
                    dense_at_rival.append(sparse.scored_densely(args[1]._store))
                result = original(*args)
                builds_at.append((name, len(scoring_builds)))
                return result

            monkeypatch.setattr(train_module, name, counted)
        data = make_synthetic(num_classes=4, dim=12, n=90, seed=3)
        heldout = make_synthetic(num_classes=4, dim=12, n=30, seed=4)
        _, log = fit(data, TrainConfig(lam=1e-3, epochs=3, seed=5, batch_size=7),
                     heldout=heldout)
        assert len(log.objective) == 3 and len(builds_at) == 9
        assert dense_at_rival == [False, True, True]
        rival_builds = 0 if fit is train_l1 else 2
        assert len(scoring_builds) == 3 + rival_builds
        before = 0
        for (rival, after_rival), (_, after_heldout), (_, after_objective), dense in zip(
                *[iter(builds_at)] * 3, dense_at_rival):
            assert rival == "_query_phase"
            assert after_rival - before == (1 if fit is train_l2 and dense else 0)
            assert (after_heldout - after_rival, after_objective - after_heldout) == (1, 0)
            before = after_objective

    @staticmethod
    def count_stacked_rows(monkeypatch):
        """Row counts of every stack_csr call in the package from now on."""
        stacked_rows = []
        for module in [m for name, m in sys.modules.items()
                       if name.startswith("mipsvm") and "stack_csr" in vars(m)]:
            def counting(vectors, dim, what="row", stack_csr=module.stack_csr):
                stacked_rows.append(len(vectors))
                return stack_csr(vectors, dim, what)

            monkeypatch.setattr(module, "stack_csr", counting)
        return stacked_rows

    @staticmethod
    def forbid_examples(monkeypatch):
        def examples(self):
            raise AssertionError("training read the per-example view")

        monkeypatch.setattr(Dataset, "examples", property(examples))

    def test_splits_are_stacked_once_per_training(self, monkeypatch):
        """No split is stacked from per-example arrays: training reads the
        CSR block each split holds, and never builds its examples."""
        data = make_synthetic(num_classes=4, dim=12, n=90, seed=3)
        heldout = make_synthetic(num_classes=4, dim=12, n=30, seed=4)
        cfg = TrainConfig(lam=1.0, epochs=4, seed=5, batch_size=7)
        W, log = train_l1(data, cfg, heldout=heldout)
        stacked_rows = self.count_stacked_rows(monkeypatch)
        self.forbid_examples(monkeypatch)
        # the same splits as row takes, which hold no example objects
        W_taken, log_taken = train_l1(data.subset(range(len(data))), cfg,
                                      heldout=heldout.subset(range(len(heldout))))
        np.testing.assert_array_equal(dense_rows(W), dense_rows(W_taken))
        assert log.objective == log_taken.objective
        assert log.heldout_accuracy == log_taken.heldout_accuracy
        assert log.heldout_macro_f1 == log_taken.heldout_macro_f1
        assert len(data) not in stacked_rows and len(heldout) not in stacked_rows

    def test_no_elementwise_products(self, monkeypatch):
        """Exact pair scores are gathered positions, never n x dim
        elementwise products: no training step (exact or simplelsh),
        predict_batch, audit_inexactness or swgraph query_batch calls
        ``csr_matrix.multiply``."""
        from mipsvm.metrics import predict_batch
        from mipsvm.mips import audit_inexactness, build_index

        def multiply(self, other):
            raise AssertionError("an elementwise product was made")

        monkeypatch.setattr(sparse.sp.csr_matrix, "multiply", multiply)
        data = make_synthetic(num_classes=4, dim=12, n=90, seed=3)
        for backend in ("exact", "simplelsh"):
            for fit in (train_l1, train_l2):
                W, _ = fit(data, TrainConfig(lam=1e-3, epochs=2, seed=5, batch_size=40,
                                             backend=backend), heldout=data)
        predict_batch(W, data)
        rows = [(c, W.materialize_row(c)) for c in range(W.num_classes)]
        for backend in ("exact", "swgraph"):
            index = build_index(rows, backend, dim=W.dim)
            audit_inexactness(index, W, data, epsilon=0.0)
            ids, scores = index.query_batch(data.to_csr(), data.labels_array())
            assert (scores == W.score(data.to_csr(), at=ids)[2]).all()

    def test_l2_rival_phase_makes_no_transposed_copy(self, monkeypatch):
        """An l2 step's rival phase re-scores its pairs through W's dense
        state (once W is scored densely; the first step's zero W has none)
        and screens its query batch against the index's, and leaves both
        states without a d x C copy of their class matrix: a dense state
        makes the CSR product's operand only for a chunk that is not
        screened."""
        import mipsvm.train as train_module

        copied = []
        query_phase = train_module._query_phase

        def phase(index, W, batch):
            result = query_phase(index, W, batch)
            copied.extend("operand" in vars(state)
                          for state in (vars(W).get("_scoring_state"),
                                        vars(index)["_full_scan_state"])
                          if state is not None and state.dense)
            return result

        monkeypatch.setattr(train_module, "_query_phase", phase)
        data = make_synthetic(num_classes=4, dim=12, n=90, seed=3)
        train_l2(data, TrainConfig(lam=1e-3, epochs=3, seed=5, batch_size=40))
        assert len(copied) >= 4 and not any(copied)

    @pytest.mark.parametrize("backend", ["exact", "simplelsh"])
    def test_a_step_stacks_its_batch_once(self, monkeypatch, backend):
        """No batch is stacked from per-example arrays: a step takes its
        batch's rows from the training block, and the rival query, the exact
        re-scoring and the hinge product all read that one block."""
        import mipsvm.train as train_module

        data = make_synthetic(num_classes=4, dim=12, n=90, seed=3)
        cfg = TrainConfig(lam=1.0, epochs=1, seed=5, batch_size=7, backend=backend)
        blocks = []
        to_csr = Dataset.to_csr

        def recording(self):
            block = to_csr(self)
            if len(self) == cfg.batch_size:
                blocks.append(block)
            return block

        monkeypatch.setattr(Dataset, "to_csr", recording)
        stacked_rows = self.count_stacked_rows(monkeypatch)
        batches = []
        draw = train_module.sample_batch

        def recording_draw(*args):
            batches.append(draw(*args))
            return batches[-1]

        monkeypatch.setattr(train_module, "sample_batch", recording_draw)
        self.forbid_examples(monkeypatch)
        train_l2(data, cfg)
        assert cfg.batch_size not in stacked_rows
        picks = np.random.default_rng(cfg.seed).integers(len(data), size=cfg.batch_size)
        (batch,) = batches
        np.testing.assert_array_equal(batch.to_csr().toarray(),
                                      data.to_csr().toarray()[picks])
        assert len(blocks) >= 2 and all(b is blocks[0] for b in blocks)

    def test_early_stopping_breaks_out(self):
        toy = make_toy_dataset()
        cfg = TrainConfig(lam=1.0, epochs=60, seed=9, backend="exact",
                          early_stop=True)
        _, log = train_l2(toy, cfg, heldout=toy)
        assert len(log) < 60


class TestIndexRefresh:
    """The rows a step changes reach the training index at the top of the
    next step, just before the query that reads them: nothing is written
    after the last step."""

    BACKENDS = {"exact": ExactIndex, "simplelsh": SimpleLshIndex, "swgraph": SwGraphIndex}

    def written(self, monkeypatch, backend):
        """The row counts of the ``refresh`` calls on ``backend``'s index,
        as two lists: the training index's build, then every call after it."""
        import mipsvm.train as train_module

        cls = self.BACKENDS[backend]
        build, steps = [], []
        calls = build

        def counted(index, W, rows, refresh=cls.refresh):
            calls.append(len(rows))
            return refresh(index, W, rows)

        def building(*args, build_index=train_module._build_training_index):
            nonlocal calls
            index = build_index(*args)
            calls = steps
            return index

        monkeypatch.setattr(cls, "refresh", counted)
        monkeypatch.setattr(train_module, "_build_training_index", building)
        return build, steps

    @pytest.mark.parametrize("fit", [train_l1, train_l2])
    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_a_run_of_t_steps_makes_t_minus_one_refreshes(self, monkeypatch, backend,
                                                          fit):
        build, steps = self.written(monkeypatch, backend)
        data = make_synthetic(num_classes=6, dim=12, n=90, seed=3)
        _, log = fit(data, TrainConfig(lam=1e-3, epochs=5, seed=5, batch_size=20,
                                       backend=backend))
        assert len(log) == 5
        assert build == [data.num_classes]
        assert len(steps) == 5 - 1
        assert log.index_refreshes[0] == 0 and steps == log.index_refreshes[1:]

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_an_early_stop_skips_the_refresh_of_its_last_step(self, monkeypatch,
                                                              backend):
        build, steps = self.written(monkeypatch, backend)
        toy = make_toy_dataset()
        cfg = TrainConfig(lam=1.0, epochs=60, seed=9, backend=backend, early_stop=True)
        _, log = train_l2(toy, cfg, heldout=toy)
        assert len(log) < 60
        assert build == [toy.num_classes]
        assert len(steps) == len(log) - 1
        assert log.index_refreshes[0] == 0 and steps == log.index_refreshes[1:]

    @pytest.mark.parametrize("fit, folds", [(train_l1, False), (train_l2, False),
                                            (train_l2, True)])
    def test_each_query_reads_the_rows_of_the_step_before(self, monkeypatch, fit, folds):
        """On exact, the index's store at every rival query is byte-identical
        to W's store as the step before left it (the initial W before step
        1), also when every l2 step's scaling folds W's scale into its rows:
        a fold reaches the index only at the next step's query."""
        import mipsvm.train as train_module

        if folds:  # every step's scale, about 0.9999, is below the fold bound
            monkeypatch.setattr(sparse, "SCALE_FOLD_LOW", 0.99995)
        queried = []
        query_phase = train_module._query_phase

        def phase(index, W, batch):
            queried.append(index._block.copy())
            return query_phase(index, W, batch)

        monkeypatch.setattr(train_module, "_query_phase", phase)
        data = make_synthetic(num_classes=6, dim=12, n=90, seed=3)
        initial = WeightMatrix(data.num_classes, data.dim)
        initial.add(sparse.sp.csr_matrix(np.eye(data.num_classes, data.dim)))
        every = range(data.num_classes)
        ends = [initial.stored_rows(every)]
        W, log = fit(data, TrainConfig(lam=1e-3, epochs=6, seed=5, batch_size=20),
                     initial=initial,
                     epoch_callback=lambda t, W: ends.append(W.stored_rows(every)))
        assert len(queried) == len(log) == 6
        assert W.fold_count == (len(log) if folds else 0)
        for block, end in zip(queried, ends):
            assert block.shape == end.shape
            assert block.data.tobytes() == end.data.tobytes()
            np.testing.assert_array_equal(block.indices, end.indices)
            np.testing.assert_array_equal(block.indptr, end.indptr)

    @pytest.mark.parametrize("fit, folds", [(train_l1, False), (train_l2, False),
                                            (train_l2, True)])
    @pytest.mark.parametrize("backend", ["exact", "simplelsh", "swgraph"])
    def test_each_query_reads_w_store_itself(self, monkeypatch, backend, fit, folds):
        """On every backend the index keeps no copy of W: at every
        rival query its store is the very object W held at the end of the
        step before (the initial W's before step 1), also when every l2
        step's scaling folds, and no training refresh splices rows.  That
        holds because W never writes a store in place: each store it held
        keeps its bytes through the steps' writes, and so does the store
        taken before each of add, truncate_rows, project_to_ball and a fold."""
        import mipsvm.mips.base as mips_base
        import mipsvm.train as train_module

        def snapshot(S):
            return [S.data.tobytes(), S.indices.astype(np.int64).tobytes(),
                    S.indptr.astype(np.int64).tobytes()]

        if folds:  # every step's scale, about 0.9999, is below the fold bound
            monkeypatch.setattr(sparse, "SCALE_FOLD_LOW", 0.99995)
        queried, splices = [], []
        query_phase, splice_rows = train_module._query_phase, mips_base.splice_rows

        def phase(index, W, batch):
            queried.append(index._block)
            return query_phase(index, W, batch)

        def splicing(block, positions, rows):
            splices.append(len(positions))
            return splice_rows(block, positions, rows)

        monkeypatch.setattr(train_module, "_query_phase", phase)
        monkeypatch.setattr(mips_base, "splice_rows", splicing)
        data = make_synthetic(num_classes=6, dim=12, n=90, seed=3)
        initial = WeightMatrix(data.num_classes, data.dim)
        initial.add(sparse.sp.csr_matrix(np.eye(data.num_classes, data.dim)))
        ends = [(initial._store, snapshot(initial._store))]
        W, log = fit(data, TrainConfig(lam=1e-3, epochs=6, seed=5, batch_size=20,
                                       backend=backend, lsh_bits=4, lsh_tables=3),
                     initial=initial,
                     epoch_callback=lambda t, W: ends.append((W._store,
                                                              snapshot(W._store))))
        # the one splice is the build's empty index taking no rows
        assert len(queried) == len(log) == 6 and splices == [0]
        assert W.fold_count == (len(log) if folds else 0)
        for block, (store, _) in zip(queried, ends):
            assert block is store
        assert all(snapshot(store) == taken for store, taken in ends)

        folded = W.fold_count
        ones = sparse.sp.csr_matrix(np.ones((data.num_classes, data.dim)))
        for write in (lambda: W.add(ones), lambda: W.truncate_rows([0, 3], 0.5),
                      lambda: W.project_to_ball(1e4), lambda: W.global_scale(1e-9)):
            store, taken = W._store, snapshot(W._store)
            write()
            assert snapshot(store) == taken
        assert W.fold_count > folded


# sha256 of the saved bytes of each fixed-seed model below, recorded with
# numpy 2.4.6 and scipy 1.17.1 (the versions the tier-1 workflow pins)
PINNED_MODELS = {
    ("l2", "exact"): "ebbb6761d14e88d7f31e8aff2284276a18c7148e2fe28838b362c9a7974b1215",
    ("l1", "exact"): "a4f50947298935c84a49abfd5b10efbd64e8f466dcbd553469d0542e79b70485",
    ("l1", "simplelsh"): "4ec71b544336a08e2f02f3ddf1a2b39ddd06fd2476e189d56a9c556227cc76c3",
    ("l2", "swgraph"): "ce988c5d626d12df540fe90782c5b8c6a1bb4d7ee3509c2fa652a1ae28c23c26",
}
PINNED_VERSIONS = ("2.4.6", "1.17.1")


@pytest.mark.skipif((np.__version__, scipy.__version__) != PINNED_VERSIONS,
                    reason=f"the pinned model hashes were recorded with numpy "
                           f"{PINNED_VERSIONS[0]} and scipy {PINNED_VERSIONS[1]}, not "
                           f"numpy {np.__version__} and scipy {scipy.__version__}")
@pytest.mark.parametrize("workers", [1, 2])
def test_fixed_seed_models_match_their_pinned_hashes(workers, kernel_workers, tmp_path):
    """Small fixed-seed models of every trainer path keep their saved bytes:
    a change that moves one float of a trained model shows here."""
    kernel_workers(workers)
    data = make_synthetic(num_classes=30, dim=40, n=400, seed=3)
    heldout = make_synthetic(num_classes=30, dim=40, n=60, seed=4)
    for (algo, backend), want in PINNED_MODELS.items():
        cfg = TrainConfig(lam=1e-2 if algo == "l2" else 1e-3, epochs=6, seed=5,
                          backend=backend, batch_size=50, lsh_bits=8, lsh_tables=4,
                          swg_max_neighbors=2, swg_ef_construction=2, swg_ef_search=1)
        W, _ = (train_l2 if algo == "l2" else train_l1)(data, cfg, heldout=heldout)
        path = tmp_path / f"{algo}-{backend}-{workers}.bin"
        save_model(path, W, lam=cfg.lam, algorithm=algo)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want, (algo, backend)
