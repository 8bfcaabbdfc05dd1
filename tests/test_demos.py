"""The demo scripts and the README's quick start run to completion against
the current sources.

They drive all three MIPS backends, the audit, the trainers and the CLI
through the public API.  ``05_training.py`` is left out: it trains for
about 74 s, too long for the quick suite.
"""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("01_sparse_weights.py", "02_margins_and_risk.py", "03_mips_backends.py",
         "04_lsh_audit.py", "06_cli_pipeline.py")


def run_python(argv, tmp_path):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    run_python([os.path.join(ROOT, "demos", demo)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    out = run_python(["-c", blocks[0]], tmp_path)
    assert 0.0 <= float(out) <= 1.0
