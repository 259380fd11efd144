"""Smoke runs of the experiment scripts at tiny sizes."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stochastic_dce.dynamics import step_grid
from stochastic_dce.noise import max_step

ROOT = Path(__file__).resolve().parent.parent

SMOKE_RUNS = [
    ("growth_curve.py", ["--n", "4", "--horizon", "20", "--probes", "2"]),
    ("convergence_study.py", ["--sizes", "4", "8", "--horizon", "5"]),
    ("cosmology_spectrum.py", ["--n", "4", "--eta", "5", "--k", "0.5", "1.0"]),
]


@pytest.mark.parametrize("script, args", SMOKE_RUNS)
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("script, args", SMOKE_RUNS)
def test_script_steps_stay_inside_one_knot_cell(script, args, monkeypatch):
    # every run a script makes at its smoke arguments steps at most one
    # knot cell of its OU noise, as parse_config's default step does
    spec = importlib.util.spec_from_file_location(script[:-3], ROOT / "scripts" / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    real_run, runs = module.run_ensemble, []

    def recording(system, noise, integrator, ensemble):
        runs.append((noise, integrator, ensemble))
        return real_run(system, noise, integrator, ensemble)

    monkeypatch.setattr(module, "run_ensemble", recording)
    monkeypatch.setattr(sys, "argv", [script, *args])
    module.main()
    assert runs
    for noise, integrator, ensemble in runs:
        step = step_grid(ensemble.horizon, integrator, ensemble.probes)[1]
        assert step <= max_step(noise, ensemble.horizon) * (1.0 + 1e-9)
