"""Smoke runs of the experiment scripts at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("growth_curve.py", ["--n", "4", "--horizon", "20", "--probes", "2"]),
    ("convergence_study.py", ["--sizes", "4", "8", "--horizon", "5"]),
    ("cosmology_spectrum.py", ["--n", "4", "--eta", "5", "--k", "0.5", "1.0"]),
])
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
