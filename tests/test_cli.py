"""End-to-end command-line runs."""

import json

import numpy as np
import pytest

from mipsvm.cli import main
from mipsvm.dataio import load_model, parse_dataset, write_dataset
from mipsvm.metrics import evaluate
from mipsvm.synth import make_toy_dataset


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.txt"
    write_dataset(path, make_toy_dataset())
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrain:
    def test_toy_run_writes_model_and_log(self, tmp_path, toy_file, capsys):
        model = tmp_path / "model.bin"
        log = tmp_path / "log.tsv"
        code, out, err = run(capsys, "train", str(toy_file), "--algo", "l2",
                             "--backend", "exact", "--epochs", "30",
                             "--seed", "0", "--heldout", str(toy_file),
                             "--model-out", str(model), "--log-out", str(log))
        assert code == 0
        record = json.loads(out)
        assert record["heldout_accuracy"] >= 0.95
        assert model.exists() and log.exists()
        lines = log.read_text().splitlines()
        assert len(lines) == 31
        W, header = load_model(model)
        assert header["algorithm"] == "l2"
        assert (W.num_classes, W.dim) == (3, 2)

    def test_deterministic_model_bytes(self, tmp_path, toy_file, capsys):
        models = []
        for name in ("a.bin", "b.bin"):
            model = tmp_path / name
            code, _, _ = run(capsys, "train", str(toy_file), "--algo", "l1",
                             "--backend", "exact", "--epochs", "10",
                             "--seed", "7", "--model-out", str(model))
            assert code == 0
            models.append(model.read_bytes())
        assert models[0] == models[1]

    def test_unused_backend_flag_warns_but_runs(self, tmp_path, toy_file, capsys):
        code, _, err = run(capsys, "train", str(toy_file), "--backend", "exact",
                           "--lsh-bits", "32", "--epochs", "2",
                           "--model-out", str(tmp_path / "m.bin"))
        assert code == 0
        assert "--lsh-bits" in err and "ignored" in err

    def test_unknown_flag_fails(self, toy_file, capsys):
        code, _, _ = run(capsys, "train", str(toy_file), "--frobnicate")
        assert code != 0

    def test_bad_config_reports_error(self, toy_file, capsys):
        code, _, err = run(capsys, "train", str(toy_file), "--lambda", "100",
                           "--eta0", "0.5", "--eta-step", "0")
        assert code == 1
        assert "error" in err

    def test_diverged_run_writes_no_model(self, tmp_path, capsys):
        data = tmp_path / "huge.txt"
        data.write_text("a 1:1e155 2:1e155\nb 1:-1e155 3:1e155\n"
                        "a 2:1e155\nb 3:-1e155 1:1e155\n")
        model, log = tmp_path / "model.bin", tmp_path / "log.tsv"
        with np.errstate(all="ignore"):
            code, out, err = run(capsys, "train", str(data), "--algo", "l2",
                                 "--model-out", str(model), "--log-out", str(log))
        assert code == 1
        assert "diverged at step 1" in err and out == ""
        assert not model.exists() and not log.exists()

    def test_text_format(self, tmp_path, toy_file, capsys):
        model = tmp_path / "model.txt"
        code, _, _ = run(capsys, "train", str(toy_file), "--epochs", "2",
                         "--format", "text", "--model-out", str(model))
        assert code == 0
        assert model.read_text().startswith("MEMOIR1 text")


class TestPredictEvalAudit:
    @pytest.fixture
    def trained(self, tmp_path, toy_file, capsys):
        model = tmp_path / "model.bin"
        code, _, _ = run(capsys, "train", str(toy_file), "--algo", "l2",
                         "--backend", "exact", "--epochs", "30", "--seed", "0",
                         "--model-out", str(model))
        assert code == 0
        return model

    def test_predict_writes_external_labels(self, tmp_path, toy_file, trained,
                                            capsys):
        out = tmp_path / "pred.txt"
        code, _, _ = run(capsys, "predict", "--model", str(trained),
                         "--input", str(toy_file), "--output", str(out))
        assert code == 0
        preds = out.read_text().split()
        data = parse_dataset(toy_file)
        assert len(preds) == len(data)
        truth = [data.label_names()[y] for y, _ in data.examples]
        agree = sum(p == t for p, t in zip(preds, truth)) / len(preds)
        assert agree >= 0.95

    def test_predict_missing_model_names_path(self, toy_file, capsys):
        code, _, err = run(capsys, "predict", "--model", "/nope/model.bin",
                           "--input", str(toy_file))
        assert code == 1
        assert "/nope/model.bin" in err

    def test_eval_matches_library_oracle(self, tmp_path, toy_file, trained,
                                         capsys):
        code, out, _ = run(capsys, "eval", "--model", str(trained),
                           "--test", str(toy_file))
        assert code == 0
        record = json.loads(out)
        W, _ = load_model(trained)
        expected = evaluate(W, parse_dataset(toy_file))
        assert record["accuracy"] == expected.accuracy
        assert record["macro_f1"] == expected.macro_f1
        assert record["n"] == expected.n

    def test_audit_exact_backend_zero_delta(self, toy_file, trained, capsys):
        code, out, _ = run(capsys, "audit", "--model", str(trained),
                           "--queries", str(toy_file), "--epsilon", "0",
                           "--backend", "exact")
        assert code == 0
        record = json.loads(out)
        assert record["delta_hat"] == 0.0
        assert record["backend"] == "exact"

    def test_audit_lsh_backend_reports(self, toy_file, trained, capsys):
        code, out, _ = run(capsys, "audit", "--model", str(trained),
                           "--queries", str(toy_file), "--epsilon", "0.1",
                           "--backend", "simplelsh", "--lsh-bits", "4",
                           "--lsh-tables", "2", "--seed", "1")
        assert code == 0
        record = json.loads(out)
        assert 0.0 <= record["delta_hat"] <= 1.0
        assert sum(record["histogram"]["counts"]) == record["n"]


class TestBench:
    def test_bench_runs_and_reports(self, tmp_path, capsys):
        out_file = tmp_path / "synth.txt"
        code, out, _ = run(capsys, "bench", "--classes", "8", "--dim", "20",
                           "--examples", "200", "--epochs", "3",
                           "--backend", "exact", "--seed", "2",
                           "--out", str(out_file))
        assert code == 0
        record = json.loads(out)
        assert record["train_seconds"] > 0
        assert 0.0 <= record["train_accuracy"] <= 1.0
        data = parse_dataset(out_file)
        assert len(data) == 200 and data.num_classes == 8


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "train", "--help")[0] == 0

    def test_missing_subcommand(self, capsys):
        assert run(capsys)[0] != 0
