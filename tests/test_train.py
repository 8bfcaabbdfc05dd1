"""Trainers, schedules, truncation and objectives.

The reference oracles here are dense numpy re-implementations of the two
training loops (no lazy scale, no index, no sparse storage) driven by the
same RNG draws, so any staleness or scaling bug in the real engine shows up
as a divergence.
"""

import math

import numpy as np
import pytest

from mipsvm.dataio import Dataset
from mipsvm.metrics import evaluate
from mipsvm.sparse import SparseVector, WeightMatrix
from mipsvm.synth import make_synthetic, make_toy_dataset, toy_reference_margins
from mipsvm.train import (TrainConfig, default_batch_size, learning_rate,
                          objective_l1, objective_l2, sample_batch, train_l1,
                          train_l2, truncate)


def sv(pairs, dim):
    return SparseVector.from_pairs(pairs, dim)


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
        assert sample_batch(data, 1, rng) == [data.examples[0]]

    def test_deterministic(self):
        data = make_toy_dataset()
        b1 = sample_batch(data, 50, np.random.default_rng(42))
        b2 = sample_batch(data, 50, np.random.default_rng(42))
        assert b1 == b2

    def test_uniform_frequencies(self):
        data = Dataset([(i, sv({0: 1.0}, 1)) for i in range(10)], 1, 10)
        rng = np.random.default_rng(1)
        counts = np.zeros(10)
        for y, _ in sample_batch(data, 100_000, rng):
            counts[y] += 1
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


class TestConfig:
    def test_validation_catches_bad_values(self):
        for bad in [dict(lam=-1), dict(rho=0), dict(eta0=0), dict(eta_step=-1),
                    dict(epochs=0), dict(batch_size=0), dict(backend="fancy"),
                    dict(lsh_bits=0), dict(threads=0),
                    dict(lam=11.0, eta0=0.1, eta_step=0.0)]:
            with pytest.raises(ValueError):
                TrainConfig(**bad).validate()

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

    def test_determinism_and_thread_independence(self):
        toy = make_toy_dataset()
        runs = []
        for threads in (1, 1, 3):
            cfg = TrainConfig(lam=1.0, epochs=10, seed=4, backend="exact",
                              threads=threads)
            W, _ = train_l2(toy, cfg)
            runs.append(dense_rows(W))
        np.testing.assert_array_equal(runs[0], runs[1])
        np.testing.assert_array_equal(runs[0], runs[2])

    def test_shape_validation(self):
        toy = make_toy_dataset()
        with pytest.raises(ValueError):
            train_l2(toy, TrainConfig(epochs=1),
                     initial=WeightMatrix(2, 2))
        one_class = Dataset([(0, sv({0: 1.0}, 1))], 1, 1)
        with pytest.raises(ValueError):
            train_l2(one_class, TrainConfig(epochs=1))

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

    def test_early_stopping_breaks_out(self):
        toy = make_toy_dataset()
        cfg = TrainConfig(lam=1.0, epochs=60, seed=9, backend="exact",
                          early_stop=True)
        _, log = train_l2(toy, cfg, heldout=toy)
        assert len(log) < 60
