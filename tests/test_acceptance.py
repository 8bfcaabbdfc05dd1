"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line with its measured runtime (visible under
``pytest -s`` or ``-rA``) and enforces both the property and its stated time
budget.  Criterion 11 needs a local LSHTC1 copy and is skipped unless
``LSHTC1_DIR`` is set; see the README for the expected layout.
"""

import math
import os
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import mipsvm.mips.base as mips_base
from mipsvm.cli import main as cli_main
from mipsvm.dataio import Dataset, parse_dataset, write_dataset
from mipsvm.metrics import PredictionSet, accuracy, evaluate, macro_f1
from mipsvm.mips import (SimpleLshIndex, audit_inexactness, build_index, recall_at_1,
                         sign_bits)
from mipsvm.sparse import SparseVector, WeightMatrix, dot
from mipsvm.synth import (make_synthetic, make_toy_dataset,
                          toy_reference_margins, train_test_split)
from mipsvm.train import TrainConfig, default_batch_size, train_l1, train_l2


@contextmanager
def criterion(num, description, budget_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nFAIL criterion {num}: {description} "
              f"({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < budget_seconds else "FAIL"
    print(f"\n{verdict} criterion {num}: {description} "
          f"({elapsed:.1f}s, budget {budget_seconds:g}s)")
    assert elapsed < budget_seconds, f"budget exceeded: {elapsed:.1f}s"


def unit_row(rng, dim):
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return SparseVector(np.arange(dim, dtype=np.int64), v, dim, check=False)


def random_sparse(rng, dim, max_nnz=10):
    nnz = int(rng.integers(1, min(max_nnz, dim) + 1))
    idx = np.sort(rng.choice(dim, size=nnz, replace=False))
    return SparseVector(idx, rng.standard_normal(nnz), dim)


def test_criterion_1_exact_backend_oracle_equivalence():
    with criterion(1, "exact backend == naive scan on 1e4 cases", 10.0):
        rng = np.random.default_rng(101)
        n_queries = 0
        for trial in range(20):
            C = int(rng.integers(5, 60))
            dim = int(rng.integers(5, 40))
            rows = {c: random_sparse(rng, dim) for c in range(C)}
            # structured ties: a duplicated row and an all-zero row
            if C >= 4:
                rows[C - 1] = rows[0]
                rows[C - 2] = SparseVector.from_pairs({}, dim)
            index = build_index(sorted(rows.items()), "exact", dim=dim)
            for _ in range(500):
                x = random_sparse(rng, dim)
                exclude = int(rng.integers(C)) if rng.random() < 0.7 else None
                got_c, got_s = index.query(x, exclude=exclude)
                best = None
                for c in sorted(rows):
                    if c == exclude:
                        continue
                    s = dot(rows[c], x)
                    if best is None or s > best[1]:
                        best = (c, s)
                assert got_c == best[0], "argmax or tie-break mismatch"
                assert got_s == pytest.approx(best[1], rel=1e-12, abs=1e-14)
                n_queries += 1
        assert n_queries == 10_000


def test_criterion_2_lazy_scaling_fidelity():
    with criterion(2, "1e3 random ops match a dense mirror at rel 1e-9", 5.0):
        rng = np.random.default_rng(202)
        C, dim = 6, 15
        W = WeightMatrix(C, dim)
        M = np.zeros((C, dim))
        for _ in range(1000):
            r = rng.random()
            if r < 0.6:
                c = int(rng.integers(C))
                coeff = float(rng.standard_normal())
                x = random_sparse(rng, dim, max_nnz=6)
                W.add_to_row(c, coeff, x)
                M[c] += coeff * x.to_dense()
            elif r < 0.85:
                alpha = float(rng.uniform(0.2, 1.6))
                W.global_scale(alpha)
                M *= alpha
            else:
                lam = float(rng.uniform(0.5, 3.0))
                phi = W.project_to_ball(lam)
                fro = np.linalg.norm(M)
                expected_phi = 1.0 if fro == 0 else min(
                    1.0, 1.0 / (math.sqrt(lam) * fro))
                assert phi == pytest.approx(expected_phi, rel=1e-9)
                M *= expected_phi
        for c in range(C):
            np.testing.assert_allclose(W.materialize_row(c).to_dense(), M[c],
                                       rtol=1e-9, atol=1e-12)


def test_criterion_3_lsh_collision_law():
    with criterion(3, "sign-projection collision rate is 1 - theta/pi", 10.0):
        rng = np.random.default_rng(303)
        planes = rng.standard_normal((100_000, 2))
        for theta, expected in [(0.0, 1.0), (np.pi / 3, 2 / 3), (np.pi / 2, 0.5)]:
            a = np.array([1.0, 0.0])
            b = np.array([np.cos(theta), np.sin(theta)])
            rate = float((sign_bits(a, planes) == sign_bits(b, planes)).mean())
            assert rate == pytest.approx(expected, abs=0.01), f"theta={theta}"


def test_criterion_4_audit_sanity_and_lsh_recall():
    with criterion(4, "exact audit delta=0; SimpleLSH(64,32) recall >= 0.9", 60.0):
        rng = np.random.default_rng(404)
        C, dim = 1000, 64
        rows = [(c, unit_row(rng, dim)) for c in range(C)]
        W = WeightMatrix.from_rows(rows, dim)
        queries = Dataset([(int(rng.integers(C)), unit_row(rng, dim))
                           for _ in range(500)], dim, C)

        exact = build_index(rows, "exact", dim=dim)
        report = audit_inexactness(exact, W, queries, epsilon=0.0)
        assert report.delta_hat == 0.0
        report = audit_inexactness(exact, W, queries, epsilon=math.inf)
        assert report.delta_hat == 0.0

        lsh = build_index(rows, "simplelsh", dim=dim, lsh_bits=64,
                          lsh_tables=32, seed=5)
        pairs = [(x, y) for y, x in queries.examples]
        recall = recall_at_1(lsh, exact, pairs)
        # measured 1.0 on first run: 64-bit buckets are singletons on random
        # unit rows, so every query exercises the exact-scan fallback
        assert recall >= 0.9
        lsh_report = audit_inexactness(lsh, W, queries, epsilon=0.1)
        # measured 0.0 on first run, pinned as the regression bar
        assert lsh_report.delta_hat <= 0.05


def test_criterion_5_trainers_reach_95_percent_on_toy():
    toy = make_toy_dataset()
    assert len(toy) == 60 and toy.dim == 2 and toy.num_classes == 3
    assert toy_reference_margins(toy).min() >= 0.5
    with criterion(5, "l2 trainer >= 95% train accuracy on the toy set", 10.0):
        cfg = TrainConfig(lam=1.0, epochs=100, seed=0, backend="exact")
        W, _ = train_l2(toy, cfg)
        assert evaluate(W, toy).accuracy >= 0.95
    with criterion(5, "l1 trainer >= 95% train accuracy on the toy set", 10.0):
        cfg = TrainConfig(lam=1e-6, epochs=100, seed=0, backend="exact")
        W, _ = train_l1(toy, cfg)
        assert evaluate(W, toy).accuracy >= 0.95


def _synthetic_split():
    data = make_synthetic(50, 100, 5000, noise=0.4, seed=606)
    return train_test_split(data, 0.2, seed=607)


def test_criterion_6_and_7_inexact_degradation_and_projection_invariant():
    with criterion(6, "exact vs SimpleLSH paired test accuracy gap <= 0.05",
                   300.0):
        train, test = _synthetic_split()
        lam = 1.0
        bound = 1.0 / math.sqrt(lam) + 1e-9
        norms = []

        def check_ball(t, W):
            norms.append(W.frob_norm())
            assert W.frob_norm() <= bound  # criterion 7, inline

        accs = {}
        for backend in ("exact", "simplelsh"):
            cfg = TrainConfig(lam=lam, epochs=25, seed=608, backend=backend)
            W, _ = train_l2(train, cfg, epoch_callback=check_ball)
            accs[backend] = evaluate(W, test).accuracy
        gap = abs(accs["exact"] - accs["simplelsh"])
        print(f"\n  exact={accs['exact']:.4f} simplelsh={accs['simplelsh']:.4f} "
              f"gap={gap:.4f}")
        assert gap <= 0.05
    with criterion(7, "||W||_F <= 1/sqrt(lam) + 1e-9 after every epoch", 1.0):
        assert len(norms) == 50
        assert max(norms) <= bound


# The 6-bit probe of criterion 6's training fell back on 40 % of queries.
LSH6_MAX_FALLBACK_RATE = 0.5


def test_criterion_6_split_with_lsh_bits_6_is_a_real_approximation(monkeypatch):
    """Criterion 6 at its 64-bit default falls back to the exact scan on
    every training query, so it compares exact with exact.  At 6 bits most
    rivals come from the buckets; the fallback rate, counted by the
    training index, must stay below LSH6_MAX_FALLBACK_RATE.  Each query
    batch re-ranks all of its candidate pools in one kernel call."""
    reranks = []  # re-rank kernel calls of each SimpleLSH query batch
    score_block, query_batch = mips_base.score_block, SimpleLshIndex.query_batch

    def counting_score_block(X, state, **kwargs):
        if kwargs.get("among") is not None:
            reranks[-1] += 1
        return score_block(X, state, **kwargs)

    def counting_query_batch(index, X, exclude):
        reranks.append(0)
        return query_batch(index, X, exclude)

    monkeypatch.setattr(mips_base, "score_block", counting_score_block)
    monkeypatch.setattr(SimpleLshIndex, "query_batch", counting_query_batch)
    with criterion("6b", "SimpleLSH at 6 bits falls back on < "
                   f"{LSH6_MAX_FALLBACK_RATE:.0%} of training queries", 300.0):
        train, test = _synthetic_split()
        accs = {}
        for backend in ("exact", "simplelsh"):
            cfg = TrainConfig(lam=1.0, epochs=25, seed=608, backend=backend,
                              lsh_bits=6)
            W, log = train_l2(train, cfg)
            accs[backend] = evaluate(W, test).accuracy
        counts = log.index_counters
        rate = counts["fallbacks"] / counts["queries"]
        print(f"\n  exact={accs['exact']:.4f} simplelsh6={accs['simplelsh']:.4f} "
              f"fallback={counts['fallbacks']}/{counts['queries']}={rate:.3f}")
        assert counts["queries"] == 25 * default_batch_size(train.num_classes)
        assert rate < LSH6_MAX_FALLBACK_RATE
        assert reranks == [1] * 25


def test_criterion_8_truncation_sparsity_monotonicity():
    with criterion(8, "l1 nnz at lam=1e-2 <= nnz at lam=1e-6 (paired)", 300.0):
        train, _ = _synthetic_split()
        nnz = {}
        for lam in (1e-2, 1e-6):
            cfg = TrainConfig(lam=lam, epochs=25, seed=808, backend="exact")
            _, log = train_l1(train, cfg)
            nnz[lam] = log.nnz[-1]
        print(f"\n  nnz(lam=1e-2)={nnz[1e-2]} nnz(lam=1e-6)={nnz[1e-6]}")
        assert nnz[1e-2] <= nnz[1e-6]


def test_criterion_9_metric_oracles_exact():
    with criterion(9, "accuracy 3/4 and MaF1 15/19, exactly", 1.0):
        p = PredictionSet([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert accuracy(p) == float(Fraction(3, 4))
        assert macro_f1(p) == float(Fraction(15, 19))


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "identical CLI train runs produce identical bytes", 60.0):
        toy_file = tmp_path / "toy.txt"
        write_dataset(toy_file, make_toy_dataset())
        blobs = []
        for name in ("m1.bin", "m2.bin"):
            model = tmp_path / name
            code = cli_main(["train", str(toy_file), "--algo", "l2",
                             "--backend", "exact", "--epochs", "20",
                             "--seed", "9", "--model-out", str(model)])
            assert code == 0
            blobs.append(model.read_bytes())
        assert blobs[0] == blobs[1]


@pytest.mark.skipif("LSHTC1_DIR" not in os.environ,
                    reason="optional long benchmark; set LSHTC1_DIR to run")
def test_criterion_11_lshtc1_benchmark():
    """Optional: accuracy within 3 points of 34.5% on a local LSHTC1 copy.

    Expects ``$LSHTC1_DIR/train.txt``, ``heldout.txt`` and ``test.txt`` in
    the LIBSVM-style line format.  Takes multi-core hours at full scale.
    """
    base = os.environ["LSHTC1_DIR"]
    train = parse_dataset(os.path.join(base, "train.txt"))
    heldout = parse_dataset(os.path.join(base, "heldout.txt"),
                            dim=train.dim, label_map=train.label_map)
    test = parse_dataset(os.path.join(base, "test.txt"),
                         dim=train.dim, label_map=train.label_map)
    cfg = TrainConfig(lam=1.0, eta0=0.1, eta_step=0.02, epochs=25,
                      backend="exact", seed=0)
    W, _ = train_l2(train, cfg, heldout=heldout)
    acc = evaluate(W, test).accuracy
    print(f"\nLSHTC1 accuracy: {acc:.4f}")
    assert abs(acc - 0.345) <= 0.03
