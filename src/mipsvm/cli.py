"""Command-line surface: train, predict, eval, audit and bench subcommands."""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .dataio import (DatasetFormatError, ModelFormatError,
                     load_label_names, load_model, parse_dataset, save_model,
                     write_dataset)
from .metrics import evaluate, predict_batch
from .mips import BACKEND_DEFAULTS, BACKENDS, NoCandidateError, index_from_matrix
from .mips.audit import audit_inexactness
from .train import TrainConfig, config_for_algo, train_l1, train_l2


# (flag, parameter it sets, the backend it applies to, help)
_BACKEND_FLAGS = (
    ("--lsh-bits", "lsh_bits", "simplelsh", "hash bits per LSH table"),
    ("--lsh-tables", "lsh_tables", "simplelsh", "number of LSH tables"),
    ("--swg-m", "swg_max_neighbors", "swgraph", "max graph neighbors per node"),
    ("--swg-ef-construction", "swg_ef_construction", "swgraph",
     "graph candidate list size at insert"),
    ("--swg-ef-search", "swg_ef_search", "swgraph",
     "graph candidate list size at query"),
)


def _add_backend_flags(p):
    p.add_argument("--backend", choices=BACKENDS, default="exact",
                   help="MIPS backend for margin queries")
    for flag, param, _, text in _BACKEND_FLAGS:
        p.add_argument(flag, dest=param, type=int, default=None,
                       help=f"{text} (default {BACKEND_DEFAULTS[param]})")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")


def _warn_unused(flag, context):
    print(f"warning: {flag} has no effect {context}; ignored", file=sys.stderr)


def _warn_unused_backend_flags(args):
    for flag, param, backend, _ in _BACKEND_FLAGS:
        if backend != args.backend and getattr(args, param) is not None:
            _warn_unused(flag, f"with --backend {args.backend}")


def _warn_unused_train_flags(args):
    _warn_unused_backend_flags(args)
    if args.early_stop and not args.heldout:
        _warn_unused("--early-stop", "without --heldout")
    if args.no_truncation and args.algo == "l2":
        _warn_unused("--no-truncation", "with --algo l2")


def _backend_params(args) -> dict:
    """Seed plus the backend parameters given; the builders fill in the rest."""
    given = {param: getattr(args, param) for _, param, _, _ in _BACKEND_FLAGS}
    return {"seed": args.seed, **{k: v for k, v in given.items() if v is not None}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mipsvm",
        description="Multi-class linear SVMs trained with approximate "
                    "maximum-inner-product margins.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model on a LIBSVM-style file")
    p_train.add_argument("data", help="training data file")
    p_train.add_argument("--algo", choices=("l2", "l1"), default="l2")
    p_train.add_argument("--lambda", dest="lam", type=float, default=None,
                         help="regularization weight (default: "
                         f"{config_for_algo('l2').lam:g} for l2, "
                         f"{config_for_algo('l1').lam:g} for l1)")
    p_train.add_argument("--eta0", type=float, help=f"default {TrainConfig.eta0}")
    p_train.add_argument("--eta-step", type=float,
                         help=f"default {TrainConfig.eta_step}")
    p_train.add_argument("--epochs", type=int, help=f"default {TrainConfig.epochs}")
    p_train.add_argument("--batch-size", type=int, default=None,
                         help="default: round(100*sqrt(C))")
    p_train.add_argument("--no-truncation", action="store_true",
                         help="disable the l1 truncation step")
    p_train.add_argument("--early-stop", action="store_true",
                         help="stop after 5 epochs without heldout MaF1 gains")
    p_train.add_argument("--heldout", default=None, help="heldout data file")
    p_train.add_argument("--model-out", default=None, help="write the model here")
    p_train.add_argument("--log-out", default=None, help="write the epoch log here")
    p_train.add_argument("--format", choices=("binary", "text"), default="binary",
                         help="model file format")
    _add_backend_flags(p_train)
    p_train.add_argument("--dim", type=int, default=None,
                         help="force the feature dimension")
    p_train.add_argument("--classes", type=int, default=None,
                         help="force the class count")

    p_pred = sub.add_parser("predict", help="predict labels for a data file")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--input", required=True)
    p_pred.add_argument("--output", default=None,
                        help="labels file (default: stdout)")

    p_eval = sub.add_parser("eval", help="accuracy and macro-F1 on a test file")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--test", required=True)

    p_audit = sub.add_parser(
        "audit", help="empirical (epsilon, delta) report for a backend")
    p_audit.add_argument("--model", required=True)
    p_audit.add_argument("--queries", required=True, help="labeled query file")
    p_audit.add_argument("--epsilon", type=float, default=0.1,
                         help="gap threshold (inf allowed)")
    _add_backend_flags(p_audit)
    for p in (p_train, p_pred, p_eval, p_audit):
        p.add_argument("--zero-based", action="store_true",
                       help="feature indices in the file start at 0 (default: 1)")

    p_bench = sub.add_parser(
        "bench", help="generate synthetic data and time a short run")
    p_bench.add_argument("--classes", type=int, default=50)
    p_bench.add_argument("--dim", type=int, default=100)
    p_bench.add_argument("--examples", type=int, default=2000)
    p_bench.add_argument("--noise", type=float, default=0.4)
    p_bench.add_argument("--algo", choices=("l2", "l1"), default="l2")
    p_bench.add_argument("--epochs", type=int, default=5)
    p_bench.add_argument("--out", default=None,
                         help="also write the generated dataset here")
    _add_backend_flags(p_bench)
    return parser


def _model_and_data(args, path):
    """The model at ``--model``, the external labels of its ``.labels``
    sidecar (None without one), and ``path`` parsed in the model's shape:
    its dimension, and the label map of the sidecar."""
    W, _ = load_model(args.model)
    names = load_label_names(args.model)
    label_map = {name: i for i, name in enumerate(names)} if names else None
    data = parse_dataset(path, zero_based=args.zero_based, dim=W.dim,
                         label_map=label_map)
    return W, names, data


def _train_config(args) -> TrainConfig:
    given = {k: getattr(args, k) for k in ("lam", "eta0", "eta_step", "epochs")
             if getattr(args, k) is not None}
    return config_for_algo(args.algo, batch_size=args.batch_size,
                           backend=args.backend, truncation=not args.no_truncation,
                           early_stop=args.early_stop, **given,
                           **_backend_params(args))


def _cmd_train(args) -> int:
    _warn_unused_train_flags(args)
    data = parse_dataset(args.data, zero_based=args.zero_based, dim=args.dim,
                         num_classes=args.classes)
    heldout = None
    if args.heldout:
        heldout = parse_dataset(args.heldout, zero_based=args.zero_based,
                                dim=data.dim, num_classes=None,
                                label_map=data.label_map)
    cfg = _train_config(args)
    trainer = train_l2 if args.algo == "l2" else train_l1
    t0 = time.perf_counter()
    W, log = trainer(data, cfg, heldout=heldout)
    seconds = time.perf_counter() - t0
    if args.model_out:
        save_model(args.model_out, W, lam=cfg.lam, algorithm=args.algo,
                   fmt=args.format, label_names=data.label_names())
    if args.log_out:
        log.write_tsv(args.log_out)
    record = {
        "algo": args.algo, "backend": args.backend, "epochs": len(log),
        "train_seconds": seconds, "final_objective": log.objective[-1],
        "nnz": log.nnz[-1], "index_refreshes": sum(log.index_refreshes),
        **log.index_counters,
    }
    if log.index_counters.get("queries"):
        record["fallback_rate"] = (log.index_counters["fallbacks"]
                                   / log.index_counters["queries"])
    if heldout is not None:
        record["heldout_accuracy"] = log.heldout_accuracy[-1]
        record["heldout_macro_f1"] = log.heldout_macro_f1[-1]
    print(json.dumps(record, allow_nan=False))
    return 0


def _cmd_predict(args) -> int:
    W, names, data = _model_and_data(args, args.input)
    pred = predict_batch(W, data)
    lines = [(names[c] if names and c < len(names) else str(c)) for c in pred]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_eval(args) -> int:
    W, _, data = _model_and_data(args, args.test)
    report = evaluate(W, data)
    print(json.dumps(report.to_dict()))
    return 0


def _cmd_audit(args) -> int:
    _warn_unused_backend_flags(args)
    W, _, queries = _model_and_data(args, args.queries)
    bad = int(np.count_nonzero(queries.labels_array() >= W.num_classes))
    if bad:
        raise DatasetFormatError(
            f"{bad} query label(s) are unknown to the model")
    index = index_from_matrix(W, args.backend, **_backend_params(args))
    report = audit_inexactness(index, W, queries, args.epsilon)
    out = report.to_dict()
    out["backend"] = args.backend
    print(json.dumps(out))
    return 0


def _cmd_bench(args) -> int:
    _warn_unused_backend_flags(args)
    from .synth import make_synthetic

    data = make_synthetic(args.classes, args.dim, args.examples,
                          noise=args.noise, seed=args.seed)
    if args.out:
        write_dataset(args.out, data)
    cfg = config_for_algo(args.algo, backend=args.backend, epochs=args.epochs,
                          **_backend_params(args))
    trainer = train_l2 if args.algo == "l2" else train_l1
    t0 = time.perf_counter()
    W, log = trainer(data, cfg)
    train_seconds = time.perf_counter() - t0
    report = evaluate(W, data)
    print(json.dumps({
        "classes": args.classes, "dim": args.dim, "examples": args.examples,
        "algo": args.algo, "backend": args.backend, "epochs": len(log),
        "train_seconds": train_seconds, "epoch_seconds": float(np.mean(log.seconds)),
        "predict_seconds": report.predict_seconds,
        "train_accuracy": report.accuracy, "nnz": log.nnz[-1],
    }))
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "audit": _cmd_audit,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except (DatasetFormatError, ModelFormatError, NoCandidateError,
            ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
