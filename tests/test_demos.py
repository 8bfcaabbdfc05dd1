"""The demo scripts run to completion against the current sources.

They drive all three MIPS backends, the audit, the trainers and the CLI
through the public API.  ``05_training.py`` is left out: it trains for
about 74 s, too long for the quick suite.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("01_sparse_weights.py", "02_margins_and_risk.py", "03_mips_backends.py",
         "04_lsh_audit.py", "06_cli_pipeline.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
