"""Smoke runs of the experiment scripts at tiny sizes."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from stochastic_dce.cli import main as cli_main
from stochastic_dce.dynamics import step_grid
from stochastic_dce.noise import max_step

ROOT = Path(__file__).resolve().parent.parent

SMOKE_RUNS = [
    ("growth_curve.py", ["--n", "4", "--horizon", "20", "--probes", "2"]),
    ("convergence_study.py", ["--sizes", "4", "8", "--horizon", "5"]),
    ("cosmology_spectrum.py", ["--n", "4", "--eta", "5", "--k", "0.5", "1.0"]),
]


def test_every_script_has_a_smoke_run():
    # so that no script skips the smoke run or the knot-cell check below
    assert sorted(script for script, _ in SMOKE_RUNS) == sorted(
        p.name for p in (ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script, args", SMOKE_RUNS)
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def run_script(script, args, monkeypatch):
    """Run a script's main in this process; returns each run_ensemble
    call it made, as (noise, integrator, ensemble, stats)."""
    spec = importlib.util.spec_from_file_location(script[:-3], ROOT / "scripts" / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    real_run, runs = module.run_ensemble, []

    def recording(system, noise, integrator, ensemble):
        stats = real_run(system, noise, integrator, ensemble)
        runs.append((noise, integrator, ensemble, stats))
        return stats

    monkeypatch.setattr(module, "run_ensemble", recording)
    monkeypatch.setattr(sys, "argv", [script, *args])
    module.main()
    return runs


@pytest.mark.parametrize("script, args", SMOKE_RUNS)
def test_script_steps_stay_inside_one_knot_cell(script, args, monkeypatch):
    # every run a script makes at its smoke arguments steps at most one
    # knot cell of its OU noise, as parse_config's default step does
    runs = run_script(script, args, monkeypatch)
    assert runs
    for noise, integrator, ensemble, _ in runs:
        step = step_grid(ensemble.horizon, integrator, ensemble.probes)[1]
        assert step <= max_step(noise, ensemble.horizon) * (1.0 + 1e-9)


def test_cosmology_spectrum_gives_what_simulate_writes(tmp_path, monkeypatch):
    # the script at its smoke arguments runs configs/cosmology.yaml with
    # those flags written over it: each k's means are, bit for bit, the
    # beta2_total rows of series.csv from `sdce simulate` on that config
    runs = run_script("cosmology_spectrum.py", dict(SMOKE_RUNS)["cosmology_spectrum.py"],
                      monkeypatch)
    data = yaml.safe_load((ROOT / "configs" / "cosmology.yaml").read_text())
    data["scenario"]["k_grid_rad_per_time"] = [0.5, 1.0]
    data["ensemble"].update(n_realizations=4, horizon_time=5.0, probes_time=[5.0])
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(data))
    assert cli_main(["simulate", "--config", str(config), "--out", str(tmp_path),
                     "--quiet"]) == 0
    with open(tmp_path / "series.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["quantity"] == "beta2_total"]
    assert len(runs) == 2
    for label, (_, _, _, stats) in enumerate(runs, start=1):
        simulated = [float(r["mean"]) for r in rows if r["mode"] == str(label)]
        assert simulated == stats.mean[("beta2_total", 0)].tolist()
