"""The benchmark's smoke run and tracer against the current sources.

perfbench/tracing.py wraps package functions and methods by name, so a
rename under src/ breaks the benchmark without breaking any other test.
"""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["smoke"] == "ok"


def test_tracer_targets_exist_and_are_restored(monkeypatch):
    """Every attribute the tracer patches exists where it looks for it, is
    wrapped while the tracer is installed and is the original again after."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    targets = []
    patch = tracer._patch

    def checked_patch(owner, attr, make):
        assert attr in vars(owner), (f"perfbench/tracing.py patches "
                                     f"{owner.__name__}.{attr}, which does not exist")
        targets.append((owner, attr, vars(owner)[attr]))
        patch(owner, attr, make)

    tracer._patch = checked_patch
    try:
        tracer.install()
        assert all(vars(owner)[attr] is not original for owner, attr, original in targets)
    finally:
        tracer.uninstall()
    assert len(targets) > 30
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} was not restored"
