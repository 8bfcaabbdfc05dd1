"""Training-and-serving benchmark for mipsvm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  The seed makes the workload's input files
(cached under perfbench/.cache by shape and seed); each workload then runs
in a fresh process (cycle.py) that parses, trains, serves, audits and checks.
Every metric is printed by name with its unit, then one header line
(commit, versions, CPU count, seed) and, last, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full record, and the spans of a traced run, go to perfbench/out.

``--smoke`` runs every workload at toy size, traced and untraced, and fails
unless every metric named in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from workloads import SMOKE_WORKLOADS, WORKLOADS, split_files

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, ".cache")
OUT = os.path.join(HERE, "out")
RUN_LIMIT_S = 170.0


def run_workload(w, seed: int, seconds: float, trace: int, smoke: bool,
                 deadline: float) -> dict:
    """Generate (or find) the inputs, then run cycle.py in a fresh process.

    Both steps are child processes, so this one stays small: a child's
    peak RSS starts from its parent's.
    """
    flags = ["--smoke"] if smoke else []
    files = split_files(CACHE, w.shape, seed)
    if not all(os.path.exists(p) for p in files.values()):
        subprocess.run(
            [sys.executable, os.path.join(HERE, "datagen.py"), "--workload",
             w.name, "--seed", str(seed), "--cache", CACHE, *flags],
            cwd=ROOT, stdout=sys.stderr, check=True,
            timeout=max(1.0, deadline - time.monotonic()))
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{w.name}-s{seed}-t{trace}{'-smoke' if smoke else ''}")
    cmd = [sys.executable, os.path.join(HERE, "cycle.py"),
           "--workload", w.name, "--data", os.path.dirname(files["train"]),
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", stem + ".json"]
    if trace:
        cmd += ["--spans", stem + "-spans.jsonl"]
    subprocess.run(cmd + flags, cwd=ROOT, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(stem + ".json", encoding="utf-8") as fh:
        return json.load(fh)


def reported(result: dict, trace: int) -> dict:
    metrics = result.get("per_layer" if trace else "metrics", {})
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def verdict(result: dict, trace: int) -> bool:
    return (not result["problems"] and result["failed"] == 0
            and bool(reported(result, trace)))


def show(name: str, result: dict, trace: int) -> None:
    print(f"# {name} (backend {result['backend']}, samples {result.get('samples')})")
    for metric, m in reported(result, trace).items():
        print(f"{name} {metric} = {m['value']!r} {m['unit']}")
    for problem in result["problems"]:
        print(f"{name} CHECK FAILED: {problem}")


def smoke(seed: int, deadline: float) -> int:

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    missing = []
    ok = True
    for name, w in SMOKE_WORKLOADS.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(w, seed, 0.0, trace, True, deadline)
            show(name, result, trace)
            ok &= verdict(result, trace)
            got = reported(result, trace)
            for m in spec[key]:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    missing.append(f"{name} --trace {trace}: {m['name']} [{m['unit']}]")
    for m in missing:
        print(f"MISSING: {m}")
    print(json.dumps({"smoke": "ok" if ok and not missing else "failed",
                      "missing": len(missing)}))
    return 0 if ok and not missing else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mipsvm training-and-serving benchmark")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mipsvm", "__init__.py")):
        print(f"error: no mipsvm sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed, time.monotonic() + RUN_LIMIT_S)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; expected one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds,
                               args.trace, False, deadline) for n in names}
    for n, result in results.items():
        show(n, result, args.trace)
    print(json.dumps({"header": results[names[0]]["header"]}))
    if len(names) == 1:
        metrics = reported(results[names[0]], args.trace)
    else:
        metrics = {f"{n}/{m}": v for n, r in results.items()
                   for m, v in reported(r, args.trace).items()}
    print(json.dumps({
        "correct": all(verdict(r, args.trace) for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
