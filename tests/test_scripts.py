"""Smoke runs of the experiment scripts at tiny sizes."""

import ast
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


# each script's smoke run as `sdce simulate` runs it: the shipped config
# it writes its flags over, and the sections each simulate run changes
SIMULATE_RUNS = {
    "growth_curve.py": ("single_mode_growth.yaml", [
        {"ensemble": dict(n_realizations=4, horizon_time=20.0, probes_time=[10.0, 20.0])}]),
    "convergence_study.py": ("single_mode_growth.yaml", [
        {"ensemble": dict(n_realizations=n, horizon_time=5.0, probes_time=[5.0])}
        for n in (4, 8)]),
    "cosmology_spectrum.py": ("cosmology.yaml", [
        {"scenario": dict(k_grid_rad_per_time=[0.5, 1.0]),
         "ensemble": dict(n_realizations=4, horizon_time=5.0, probes_time=[5.0])}]),
}

# what assembles a run by hand, where parse_config assembles it from a config
HAND_BUILT = {"EnsembleConfig", "IntegratorConfig", "PlainOscillator", "CavityModes",
              "NoiseSpec", "default_dt"}


def test_every_script_has_a_smoke_run():
    # so that no script skips the smoke run, the knot-cell check or the
    # comparison with simulate below
    scripts = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
    assert sorted(script for script, _ in SMOKE_RUNS) == scripts
    assert sorted(SIMULATE_RUNS) == scripts


@pytest.mark.parametrize("script", sorted(SIMULATE_RUNS))
def test_script_builds_no_run_by_hand(script):
    # a script runs the systems, noise, integrator and ensemble of a
    # parsed config, so it runs what simulate runs and is refused what
    # simulate refuses
    tree = ast.parse((ROOT / "scripts" / script).read_text())
    called = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
              for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, (ast.Name, ast.Attribute))}
    assert not called & HAND_BUILT


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


@pytest.mark.parametrize("script", sorted(SIMULATE_RUNS))
def test_script_gives_what_simulate_writes(script, tmp_path, monkeypatch):
    # the script at its smoke arguments runs its shipped config with those
    # flags written over it: the means of each system it runs (each k of
    # the sweep, each N of the study) are, bit for bit, the beta2_total
    # rows of series.csv from `sdce simulate` on that config
    runs = run_script(script, dict(SMOKE_RUNS)[script], monkeypatch)
    name, overrides = SIMULATE_RUNS[script]
    simulated = []
    for i, sections in enumerate(overrides):
        data = yaml.safe_load((ROOT / "configs" / name).read_text())
        for section, values in sections.items():
            data[section].update(values)
        config, out = tmp_path / f"run{i}.yaml", tmp_path / f"out{i}"
        config.write_text(yaml.safe_dump(data))
        assert cli_main(["simulate", "--config", str(config), "--out", str(out),
                         "--quiet"]) == 0
        means = {}
        with open(out / "series.csv", newline="") as fh:
            for r in csv.DictReader(fh):
                if r["quantity"] == "beta2_total":
                    means.setdefault(r["mode"], []).append(float(r["mean"]))
        simulated.extend(means.values())
    assert [stats.mean[("beta2_total", 0)].tolist() for *_, stats in runs] == simulated
