"""End-to-end command-line runs on tiny ensembles."""

import csv
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import stochastic_dce.ensemble as ens
from stochastic_dce.cli import PREDICT_HEADER, SERIES_HEADER, main
from stochastic_dce.config import load_config
from stochastic_dce.dynamics import step_grid
from stochastic_dce.ensemble import derive_seed
from stochastic_dce.theory import msa_mean_q, msa_stochastic_beta2
from stochastic_dce.noise import NoiseKind, NoiseSpec, eval_batch, synthesize_many


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_yaml(tmp_path, data, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def single_mode_data():
    return {
        "scenario": {"kind": "single_mode_stochastic",
                     "omega_rad_per_time": 1.0, "epsilon": 0.05},
        "noise": {"kind": "band_limited", "sigma": 1.0,
                  "nu_min_rad_per_time": 1.5, "nu_max_rad_per_time": 2.5,
                  "n_components": 16},
        "ensemble": {"n_realizations": 6, "horizon_time": 6.0,
                     "probes_time": [3.0, 6.0], "master_seed": 11,
                     "workers": 1},
    }


def coupled_data():
    return {
        "scenario": {"kind": "coupled_stochastic"},
        "noise": {"kind": "band_limited", "sigma": 1.0,
                  "nu_min_rad_per_time": 9.0, "nu_max_rad_per_time": 10.0,
                  "n_components": 8},
        "cavity": {"Lx_length": 1e6, "Ly_length": 1e6, "Lz0_length": 1.0,
                   "epsilon": 0.02, "nz_max": 2},
        "ensemble": {"n_realizations": 2, "horizon_time": 6.0,
                     "probes_time": [6.0], "workers": 1},
    }


# what summary.json reports per system, between the seeds and the violations
LAYER_FACTS = ["synthesis_s", "eval_s", "build_s", "chain_s", "extract_s"]
RUN_FACTS = ["n_effective", "aborted", "abort_count", "dt", "nsteps", "chunk_size",
             "chunks", "workers", "max_wronskian_drift", "simulate_s",
             "realization_steps_per_s", *LAYER_FACTS]


def assert_summary_keys(summary, labels, extra=()):
    # extra: the keys a failed run adds after the facts every run reports
    assert list(summary) == ["version", "scenario", "config", "seeds", *RUN_FACTS,
                             *extra, "violations", "runtime_seconds"]
    for key in [*RUN_FACTS, *extra]:
        assert set(summary[key]) == set(labels)


def assert_run_facts(summary, labels):
    # the step actually used, the chunk and worker layout, the invariant
    # margin, recorded on a pass, the aborts, and the time, throughput and
    # seconds per layer per system
    assert_summary_keys(summary, labels)
    n = summary["config"]["ensemble"]["n_realizations"]
    for label in labels:
        size = summary["chunk_size"][label]
        assert isinstance(size, int) and size >= 1
        assert summary["chunks"][label] == math.ceil(n / size)
        assert summary["workers"][label] == summary["config"]["ensemble"]["workers"]
        assert summary["abort_count"][label] == len(summary["aborted"][label])
        assert math.isfinite(summary["dt"][label]) and summary["dt"][label] > 0
        assert isinstance(summary["nsteps"][label], int)
        assert summary["nsteps"][label] * summary["dt"][label] == pytest.approx(
            summary["config"]["ensemble"]["horizon_time"])
        assert 0.0 < summary["max_wronskian_drift"][label] < 1e-8
        for key in ("simulate_s", "realization_steps_per_s"):
            assert math.isfinite(summary[key][label]) and summary[key][label] > 0
        layers = [summary[key][label] for key in LAYER_FACTS]
        assert all(math.isfinite(s) and s >= 0 for s in layers)
        # summed over chunks, which run side by side on up to `workers` processes
        assert sum(layers) <= summary["simulate_s"][label] * summary["workers"][label]


# modules a config load and the CLI's import never use: scipy is for the
# tests alone, numpy.random loads when a run synthesizes noise or a pool
# opens, the pool machinery when a pool opens
UNUSED_AT_START = ("numpy.ma", "numpy.random", "numpy.polynomial", "multiprocessing",
                   "concurrent.futures.process", "scipy")


@pytest.mark.parametrize("setup", [
    *[f"import stochastic_dce; stochastic_dce.load_config({str(p)!r}).systems()"
      for p in sorted(CONFIGS.glob("*.yaml"))],
    "import stochastic_dce.cli",
], ids=[*(p.stem for p in sorted(CONFIGS.glob("*.yaml"))), "cli"])
def test_start_up_imports_only_what_it_runs(setup):
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (f"import sys; {setup}; "
             f"print([m for m in {UNUSED_AT_START!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.split("\n")[0] == "[]"


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


# ---------------------------------------------------------------------------
# failure modes


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(integrator={"dt_time": 1.0}),
    lambda d: d.update(noise={"kind": "ornstein_uhlenbeck", "sigma": 1.0,
                              "t_c_time": 0.5}),
    lambda d: d.update(integrator={"window_ramp_time": 3.5}),
])
def test_config_the_integrator_refuses_exits_2(tmp_path, capsys, mutate):
    data = coupled_data()
    mutate(data)
    out = tmp_path / "out"
    for command in ("simulate", "predict"):
        code = main([command, "--config", write_yaml(tmp_path, data),
                     "--out", str(out), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, probes, args, commands", [
    ("workers", [3.0, 6.0], ["--workers", "-1"], ("simulate",)),
    ("probes_time", [3.0, 3.0001, 6.0], [], ("simulate", "predict")),
], ids=["workers", "probes_time"])
def test_bad_ensemble_value_exits_2_naming_its_key(tmp_path, capsys, key, probes, args,
                                                   commands):
    # a negative worker count, from the command line of simulate (the one
    # subcommand that takes --workers), and two probes on one grid step
    # are refused like any bad config value
    data = single_mode_data()
    data["ensemble"]["probes_time"] = probes
    out = tmp_path / "out"
    for command in commands:
        code = main([command, "--config", write_yaml(tmp_path, data),
                     "--out", str(out), "--quiet", *args])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err and "Traceback" not in err
    assert not out.exists()


def test_ou_step_past_a_knot_cell_exits_2_naming_dt_time(tmp_path, capsys):
    # a step longer than one knot cell of the OU spline (0.01 at t_c 0.5)
    # is refused before anything runs
    data = single_mode_data()
    data["noise"] = {"kind": "ornstein_uhlenbeck", "sigma": 1.0, "t_c_time": 0.5}
    data["integrator"] = {"dt_time": 0.02}
    out = tmp_path / "out"
    code = main(["simulate", "--config", write_yaml(tmp_path, data),
                 "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "integrator.dt_time" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--out", "--seed", "--workers"]),
    ("predict", ["--out"]),
    ("compare", ["--out"]),
    ("spectrum", []),
    ("noise-dump", ["--seed"]),
])
def test_each_subcommand_takes_only_the_flags_it_reads(tmp_path, capsys, command, flags):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = capsys.readouterr().out
    assert [f for f in ("--out", "--seed", "--workers") if f in usage] == flags
    assert "--config" in usage and "--quiet" in usage
    for flag in {"--out", "--seed", "--workers"} - set(flags):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(tmp_path / "run.yaml"), flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_spectrum_refuses_single_mode_config(tmp_path, capsys):
    cfg = write_yaml(tmp_path, single_mode_data())
    assert main(["spectrum", "--config", cfg]) == 2


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_table(tmp_path, capsys):
    cfg = write_yaml(tmp_path, coupled_data())
    assert main(["spectrum", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",") == ["nz", "omega_rad_per_time",
                                   "omega_z_rad_per_time"]
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["1", "2"]
    assert float(rows[0][1]) == pytest.approx(math.pi, rel=1e-9)
    assert float(rows[1][1]) == pytest.approx(2.0 * math.pi, rel=1e-9)


def test_spectrum_scales_with_cavity_length(tmp_path, capsys):
    data = coupled_data()
    data["cavity"]["Lz0_length"] = 2.0
    data["noise"]["nu_min_rad_per_time"] = 4.0
    data["noise"]["nu_max_rad_per_time"] = 5.0
    cfg = write_yaml(tmp_path, data)
    assert main(["spectrum", "--config", cfg]) == 0
    rows = [line.split(",") for line in
            capsys.readouterr().out.strip().splitlines()[1:]]
    assert float(rows[0][2]) == pytest.approx(math.pi / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# noise-dump


def test_noise_dump_silent(tmp_path, capsys):
    data = single_mode_data()
    data["noise"]["sigma"] = 0.0
    for dt in (None, 0.07):  # the default step, and one that does not divide the horizon
        if dt is not None:
            data["integrator"] = {"dt_time": dt}
        cfg = write_yaml(tmp_path, data)
        assert main(["noise-dump", "--config", cfg, "--quiet"]) == 0
        header, rows = (lambda lines: (lines[0].split(","),
                                       [l.split(",") for l in lines[1:]]))(
            capsys.readouterr().out.strip().splitlines())
        assert header == ["t", "xi", "xi_dot", "xi_ddot"]
        assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows)
        # the dump's times are the grid simulate integrates on
        nsteps, step, _ = step_grid(6.0, load_config(cfg).integrator)
        np.testing.assert_array_equal([float(r[0]) for r in rows],
                                      np.arange(nsteps + 1) * step)


def test_noise_dump_sinusoid_and_derivatives(tmp_path, capsys):
    data = single_mode_data()
    data["noise"] = {"kind": "deterministic_sinusoid",
                     "omega_drive_rad_per_time": 2.0}
    data["scenario"]["kind"] = "single_mode_deterministic"
    cfg = write_yaml(tmp_path, data)
    assert main(["noise-dump", "--config", cfg, "--quiet"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    arr = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    t, xi, xid = arr[:, 0], arr[:, 1], arr[:, 2]
    np.testing.assert_allclose(xi, np.sin(2.0 * t), atol=1e-12)
    # central difference of the xi column reproduces the xi_dot column
    fd = (xi[2:] - xi[:-2]) / (t[2:] - t[:-2])
    np.testing.assert_allclose(fd, xid[1:-1], atol=2.0 * np.max(np.diff(t)) ** 2)


@pytest.mark.parametrize("cosmology", [False, True])
def test_noise_dump_is_the_first_row_simulate_integrates(tmp_path, capsys, cosmology):
    # the dump's xi is realization 0 of the first system's seed stream,
    # bit for bit: the config's master seed for a lone system, and the
    # first k's own sub-master seed in a cosmology sweep
    data = single_mode_data()
    if cosmology:
        data["scenario"] = {"kind": "cosmology", "mass_rad_per_time": 1.0,
                            "k_grid_rad_per_time": [0.5, 1.0], "epsilon": 0.05}
        data["noise"] = {"kind": "ornstein_uhlenbeck", "sigma": 1.0, "t_c_time": 0.5}
    cfg = write_yaml(tmp_path, data)
    assert main(["noise-dump", "--config", cfg, "--quiet"]) == 0
    rows = [l.split(",") for l in capsys.readouterr().out.strip().splitlines()[1:]]
    t = np.array([float(r[0]) for r in rows])
    run = load_config(cfg)
    _, _, ens = run.systems()[0]
    assert ens.master_seed == (derive_seed(11, 2**32 + 1) if cosmology else 11)
    xi = eval_batch(synthesize_many(run.noise, [derive_seed(ens.master_seed, 0)],
                                    ens.horizon), t, (0,))[0]
    assert [float(r[1]) for r in rows] == xi[:, 0].tolist()


def test_noise_dump_seed_override_changes_path(tmp_path, capsys):
    cfg = write_yaml(tmp_path, single_mode_data())
    main(["noise-dump", "--config", cfg, "--quiet"])
    a = capsys.readouterr().out
    main(["noise-dump", "--config", cfg, "--quiet", "--seed", "99"])
    b = capsys.readouterr().out
    main(["noise-dump", "--config", cfg, "--quiet"])
    c = capsys.readouterr().out
    assert a == c
    assert a != b


def test_noise_dump_into_a_closed_pipe_exits_1_without_a_traceback(tmp_path):
    # `sdce noise-dump ... | head -1`: 2,002 lines (149 KB) overflow the
    # pipe's 64 KB buffer after the reader has gone
    data = yaml.safe_load((CONFIGS / "single_mode_growth.yaml").read_text())
    data["ensemble"].update(horizon_time=20.0, probes_time=[20.0])
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "stochastic_dce.cli", "noise-dump",
         "--config", write_yaml(tmp_path, data), "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.readline() == b"t,xi,xi_dot,xi_ddot\r\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


# ---------------------------------------------------------------------------
# simulate / predict / compare


def test_simulate_writes_series_and_summary(tmp_path):
    data = single_mode_data()
    cfg = write_yaml(tmp_path, data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    header, rows = read_csv(out / "series.csv")
    assert header == SERIES_HEADER
    times = sorted({float(r[0]) for r in rows})
    assert times == pytest.approx([3.0, 6.0])
    quantities = {r[1] for r in rows}
    assert {"beta2", "beta2_total", "q_re", "abs_q2"} <= quantities
    assert all(r[4] != "" for r in rows)  # N > 1 gives finite stderr

    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "single_mode_stochastic"
    assert summary["n_effective"] == {"1": 6}
    seeds = summary["seeds"]["per_system"]["1"]["realization_seeds"]
    assert seeds == [derive_seed(11, i) for i in range(6)]
    assert summary["config"]["ensemble"]["master_seed"] == 11
    assert_run_facts(summary, ["1"])

    # a position kick's own Wronskian is exactly 0; its vacuum column drifts
    data["ensemble"]["initial"] = "position_kick"
    kick = tmp_path / "kick"
    assert main(["simulate", "--config", write_yaml(tmp_path, data, "kick.yaml"),
                 "--out", str(kick), "--quiet"]) == 0
    assert_run_facts(json.loads((kick / "summary.json").read_text()), ["1"])


def test_simulate_seed_override(tmp_path):
    # the overrides are what ran, and what summary.json's config records
    data = single_mode_data()
    data["ensemble"]["workers"] = 2
    cfg = write_yaml(tmp_path, data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet",
                 "--seed", "42", "--workers", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"]["master_seed"] == 42
    assert summary["config"]["ensemble"]["master_seed"] == 42
    assert summary["config"]["ensemble"]["workers"] == 1 == summary["workers"]["1"]


def test_simulate_reports_chunk_size_used(tmp_path):
    # N = 6 at workers 2 runs two chunks of 3, with the bytes of workers 1
    data = single_mode_data()
    data["ensemble"]["workers"] = 2
    cfg = write_yaml(tmp_path, data)
    two, one = tmp_path / "two", tmp_path / "one"
    assert main(["simulate", "--config", cfg, "--out", str(two), "--quiet"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(one), "--quiet",
                 "--workers", "1"]) == 0
    summary = json.loads((two / "summary.json").read_text())
    assert summary["chunk_size"] == {"1": 3} and summary["chunks"] == {"1": 2}
    assert_run_facts(summary, ["1"])
    assert (two / "series.csv").read_bytes() == (one / "series.csv").read_bytes()


def test_simulate_logs_each_chunk_unless_quiet(tmp_path, caplog):
    data = single_mode_data()
    data["ensemble"]["workers"] = 2
    cfg = write_yaml(tmp_path, data)
    out = str(tmp_path / "out")
    with caplog.at_level(logging.INFO, logger="sdce"):
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
    lines = [r.getMessage() for r in caplog.records if ": chunk " in r.getMessage()]
    assert len(lines) == 2
    for i, line in enumerate(lines, start=1):
        assert line.startswith("PlainOscillator(omega=1, epsilon=0.05): "
                               f"chunk {i}/2, 3 rows, ")
        assert line.endswith(" s")
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="sdce"):
        assert main(["simulate", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert not any(": chunk " in r.getMessage() for r in caplog.records)


def test_simulate_counts_aborts(tmp_path, monkeypatch):
    real_run_batch = ens.run_batch
    state = {"failed": False}

    def collapses_once(system, noise, *args):
        res = real_run_batch(system, noise, *args)
        if not state["failed"]:
            state["failed"] = True
            res.collapsed[4] = True
        return res

    monkeypatch.setattr(ens, "run_batch", collapses_once)
    data = single_mode_data()
    data["ensemble"]["n_realizations"] = 100    # one abort is within the 1%
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_yaml(tmp_path, data),
                 "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aborted"] == {"1": [4]} and summary["abort_count"] == {"1": 1}
    assert summary["n_effective"] == {"1": 99}


def test_failed_run_reports_its_aborts(tmp_path):
    # a wall driven through zero: every row of the exact path collapses
    data = {
        "scenario": {"kind": "coupled_stochastic"},
        "noise": {"kind": "band_limited", "sigma": 3.0,
                  "nu_min_rad_per_time": 9.0, "nu_max_rad_per_time": 10.0,
                  "n_components": 2},
        "cavity": {"Lx_length": 1e6, "Ly_length": 1e6, "Lz0_length": 1.0,
                   "epsilon": 0.5, "nz_max": 1},
        "integrator": {"path": "exact", "dt_time": 0.02},
        "ensemble": {"n_realizations": 8, "horizon_time": 30.0,
                     "probes_time": [15.0, 30.0], "workers": 1},
    }
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_yaml(tmp_path, data),
                 "--out", str(out), "--quiet"]) == 1
    summary = json.loads((out / "summary.json").read_text())
    # no row kept, so no frequency of the exact path's moving wall
    assert_summary_keys(summary, ["1"], extra=["max_omega_dt"])
    assert summary["max_omega_dt"] == {"1": None}
    assert summary["aborted"] == {"1": list(range(8))}
    assert summary["abort_count"] == {"1": 8}
    assert summary["n_effective"] == {"1": 0}
    assert summary["dt"] == {"1": 0.02} and summary["nsteps"] == {"1": 1500}
    assert summary["chunks"] == {"1": 1}
    assert summary["violations"][0]["kind"] == "abort_fraction"
    assert not (out / "series.csv").exists()


def test_drift_violation_names_the_step_the_drift_law_passes(tmp_path, caplog):
    # a step too coarse for the drift bound with no wall near the far
    # mirror (sigma 0.3 at dt 0.02, ROADMAP "Measured"): the error and
    # summary.json give dt (WRONSKIAN_TOL / drift)^(1/5) from the largest drift
    data = {
        "scenario": {"kind": "coupled_stochastic"},
        "noise": {"kind": "band_limited", "sigma": 0.3,
                  "nu_min_rad_per_time": 0.5, "nu_max_rad_per_time": 1.5,
                  "n_components": 2},
        "cavity": {"Lx_length": 1e6, "Ly_length": 1e6, "Lz0_length": 1.0,
                   "epsilon": 0.5, "nz_max": 1},
        "integrator": {"path": "exact", "dt_time": 0.02},
        "ensemble": {"n_realizations": 256, "master_seed": 3, "horizon_time": 30.0,
                     "probes_time": [15.0, 30.0], "workers": 1},
    }
    out = tmp_path / "out"
    with caplog.at_level(logging.ERROR, logger="sdce"):
        assert main(["simulate", "--config", write_yaml(tmp_path, data),
                     "--out", str(out), "--quiet"]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert_summary_keys(summary, ["1"], extra=["max_omega_dt", "drift_law_dt"])
    assert summary["abort_count"] == {"1": 0}
    # the wall's swing stays inside the step phase check_integrable allows
    assert 0.063 < summary["max_omega_dt"]["1"] < 0.1
    assert not any("max_omega_dt" in r.getMessage() for r in caplog.records)
    drift = summary["max_wronskian_drift"]["1"]
    assert drift == max(v["value"] for v in summary["violations"])
    step = summary["drift_law_dt"]["1"]
    assert step == pytest.approx(0.02 * (1e-8 / drift) ** 0.2, rel=1e-12)
    assert 0.006 < step < 0.008
    assert any(f"dt = {step:.3g}" in r.getMessage() for r in caplog.records)


def test_drift_past_the_drift_law_names_no_step(tmp_path, caplog):
    # sigma 1.02 at dt 0.02: some walls reach the far mirror, and the rows
    # kept drift by far more than DRIFT_LAW_MAX, where the drift is not
    # the step's; neither the error nor summary.json names drift_law_dt
    data = {
        "scenario": {"kind": "coupled_stochastic"},
        "noise": {"kind": "band_limited", "sigma": 1.02,
                  "nu_min_rad_per_time": 0.5, "nu_max_rad_per_time": 1.5,
                  "n_components": 2},
        "cavity": {"Lx_length": 1e6, "Ly_length": 1e6, "Lz0_length": 1.0,
                   "epsilon": 0.5, "nz_max": 1},
        "integrator": {"path": "exact", "dt_time": 0.02},
        "ensemble": {"n_realizations": 64, "master_seed": 3, "horizon_time": 30.0,
                     "probes_time": [15.0, 30.0], "workers": 1},
    }
    out = tmp_path / "out"
    with caplog.at_level(logging.ERROR, logger="sdce"):
        assert main(["simulate", "--config", write_yaml(tmp_path, data),
                     "--out", str(out), "--quiet"]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert_summary_keys(summary, ["1"], extra=["max_omega_dt"])
    assert summary["abort_count"]["1"] > 0
    assert summary["max_wronskian_drift"]["1"] > 1e-3
    messages = [r.getMessage() for r in caplog.records]
    assert any("invariant violation" in m for m in messages)
    assert not any("drift law" in m for m in messages)
    # the cause: walls near the far mirror took dt*omega far past 0.1
    phase = summary["max_omega_dt"]["1"]
    assert phase > 1.0
    assert any(f"dt*omega to {phase:.3g} > 0.1 (max_omega_dt)" in m for m in messages)


def test_failed_run_writes_non_finite_drift_as_null(tmp_path, monkeypatch):
    real_run_batch = ens.run_batch

    def bad_defect(*args):
        res = real_run_batch(*args)
        res.defect[0, -1] = 1e-3
        res.defect[1, 0] = math.nan
        return res

    monkeypatch.setattr(ens, "run_batch", bad_defect)
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_yaml(tmp_path, single_mode_data()),
                 "--out", str(out), "--quiet"]) == 1

    def refuse(name):
        raise ValueError(f"summary.json holds {name}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
    assert_summary_keys(summary, ["1"], extra=["drift_law_dt"])
    assert summary["violations"] == [
        {"realization": 0, "kind": "wronskian", "value": 1e-3,
         "time": pytest.approx(6.0)},
        {"realization": 1, "kind": "wronskian", "value": None,
         "time": pytest.approx(3.0)},
    ]
    assert summary["max_wronskian_drift"] == {"1": None}
    # the step hint comes from the largest finite drift
    assert summary["drift_law_dt"]["1"] == pytest.approx(
        summary["dt"]["1"] * (1e-8 / 1e-3) ** 0.2, rel=1e-12)
    assert summary["n_effective"] == {"1": 6} and summary["chunks"] == {"1": 1}


def test_predict_matches_closed_form(tmp_path):
    data = single_mode_data()
    cfg = write_yaml(tmp_path, data)
    out = tmp_path / "out"
    assert main(["predict", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    header, rows = read_csv(out / "predictions.csv")
    assert header == PREDICT_HEADER
    noise = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=1.0, nu_min=1.5,
                      nu_max=2.5, n_components=16)
    expected = float(msa_stochastic_beta2(1.0, 0.05, noise, 6.0))
    got = [float(r[3]) for r in rows
           if r[1] == "beta2_total" and float(r[0]) == 6.0]
    assert got == [pytest.approx(expected, rel=1e-12)]


def test_cosmology_predict_is_the_law_of_the_system_simulate_runs(tmp_path):
    # at k = 1.39, M = 1 the omega of sqrt(k^2 + M^2) depends on how it is
    # rounded; predict writes the law at the omega of the system that
    # systems() builds, which simulate runs
    data = yaml.safe_load((CONFIGS / "cosmology.yaml").read_text())
    data["scenario"]["k_grid_rad_per_time"] = [1.39]
    cfg = write_yaml(tmp_path, data)
    out = tmp_path / "out"
    assert main(["predict", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    _, rows = read_csv(out / "predictions.csv")
    run = load_config(cfg)
    [(label, system, ens)] = run.systems()
    _, dt, idx = step_grid(ens.horizon, run.integrator, ens.probes)
    t = idx * dt
    w = system.omegas[0]
    b2 = msa_stochastic_beta2(w, system.epsilon, run.noise, t)
    # each k is a plain oscillator from vacuum data, so its mean amplitude
    # is predicted too
    q = msa_mean_q(w, system.epsilon, run.noise, t, "vacuum")
    expected = {"beta2": b2, "beta2_total": b2, "q_re": q.real, "q_im": q.imag,
                "abs_q2": (1.0 + 2.0 * b2) / (2.0 * w)}
    for quantity, values in expected.items():
        assert [r[3] for r in rows if r[1] == quantity and r[2] == str(label)] == [
            f"{v:.17g}" for v in values]
    assert {r[1] for r in rows} == set(expected)


def test_compare_theory_against_itself_passes(tmp_path, capsys):
    cfg = write_yaml(tmp_path, single_mode_data())
    out = tmp_path / "out"
    main(["predict", "--config", cfg, "--out", str(out), "--quiet"])
    _, pre_rows = read_csv(out / "predictions.csv")
    with open(out / "series.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SERIES_HEADER)
        w.writerows([r + [""] for r in pre_rows])
    code = main(["compare", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads((out / "compare.json").read_text())
    assert report["pass_fraction"] == 1.0
    assert report["overall_pass"] is True


def test_compare_flags_systematic_offset(tmp_path, capsys):
    cfg = write_yaml(tmp_path, single_mode_data())
    out = tmp_path / "out"
    main(["predict", "--config", cfg, "--out", str(out), "--quiet"])
    _, pre_rows = read_csv(out / "predictions.csv")
    with open(out / "series.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SERIES_HEADER)
        w.writerows([[r[0], r[1], r[2], str(1.5 * float(r[3]) + 1.0), ""]
                     for r in pre_rows])
    code = main(["compare", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_compare_fails_on_predicted_point_without_simulated_row(tmp_path, capsys):
    cfg = write_yaml(tmp_path, single_mode_data())
    out = tmp_path / "out"
    main(["predict", "--config", cfg, "--out", str(out), "--quiet"])
    _, pre_rows = read_csv(out / "predictions.csv")
    with open(out / "series.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SERIES_HEADER)
        w.writerows([r + [""] for r in pre_rows[1:]])
        # a simulated-only quantity stays allowed
        w.writerow([pre_rows[0][0], "q2_im", "0", "0.0", ""])
    code = main(["compare", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    report = json.loads((out / "compare.json").read_text())
    assert report["n_unmatched_predicted"] == 1
    assert report["n_points"] == len(pre_rows) - 1
    assert report["pass_fraction"] == 1.0


SIMULATED = [["3", "beta2", "1", "0.5", "0.01"], ["6", "beta2", "1", "1.0", "0.02"]]
PREDICTED = [["3", "beta2", "1", "0.5"], ["6", "beta2", "1", "1.0"]]


def pair_rows():
    """Fresh copies of SIMULATED and PREDICTED, per file, to edit."""
    return {"series.csv": [list(r) for r in SIMULATED],
            "predictions.csv": [list(r) for r in PREDICTED]}


def write_pair(tmp_path, rows):
    """A config and an out dir whose series.csv and predictions.csv hold
    rows["series.csv"] and rows["predictions.csv"], for compare to read."""
    cfg = write_yaml(tmp_path, single_mode_data())
    out = tmp_path / "out"
    out.mkdir()
    for name, header in (("series.csv", SERIES_HEADER), ("predictions.csv", PREDICT_HEADER)):
        with open(out / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows[name])
    return cfg, out


@pytest.mark.parametrize("file, row, column, cell", [
    ("predictions.csv", 0, 3, "value"),
    ("predictions.csv", 1, 0, "t"),
    ("series.csv", 0, 3, "mean"),
    ("series.csv", 1, 4, "stderr"),
    ("series.csv", 0, 2, "mode"),
])
def test_compare_refuses_a_cell_it_cannot_read(tmp_path, capsys, file, row, column, cell):
    rows = pair_rows()
    rows[file][row][column] = "abc"
    cfg, out = write_pair(tmp_path, rows)
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{out / file}, line {row + 2}, column {cell}: cannot read 'abc'" in err
    assert "Traceback" not in err
    assert not (out / "compare.json").exists()


def test_compare_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    cfg, out = write_pair(tmp_path, pair_rows())
    series = out / "series.csv"
    series.write_bytes(series.read_bytes() + b"6,q_re,0,\xff,\n")
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{out / 'series.csv'}: not UTF-8 text" in err and "Traceback" not in err


@pytest.mark.parametrize("file", ["series.csv", "predictions.csv"])
def test_compare_refuses_a_row_of_the_wrong_length(tmp_path, capsys, file):
    rows = pair_rows()
    width = len(rows[file][1])
    rows[file][1].pop()
    cfg, out = write_pair(tmp_path, rows)
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert (f"{out / file}, line 3: expected {width} cells, found {width - 1}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("file", ["series.csv", "predictions.csv"])
def test_compare_refuses_a_repeated_key(tmp_path, capsys, file):
    # a repeated prediction would keep its last value, and a repeated
    # simulated row would be compared twice; "3.0" is the t of "3"
    rows = pair_rows()
    rows[file].append(["3.0", *rows[file][0][1:]])
    cfg, out = write_pair(tmp_path, rows)
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert (f"{out / file}, line 4: repeats the (t, quantity, mode) of line 2"
            in capsys.readouterr().err)


def test_compare_reads_an_empty_stderr_as_nan(tmp_path):
    # an N 1 run writes no stderr, so the bound is rel_tol * |prediction|
    rows = pair_rows()
    for row in rows["series.csv"]:
        row[4] = ""
    cfg, out = write_pair(tmp_path, rows)
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "compare.json").read_text())
    assert [p["bound"] for p in report["points"]] == [0.1 * 0.5, 0.1 * 1.0]


def test_compare_counts_simulated_rows_it_does_not_join(tmp_path, caplog):
    rows = pair_rows()
    rows["series.csv"] += [["3", "q2_im", "0", "0.1", "0.01"],
                           ["6", "q2_im", "0", "0.2", "0.01"],
                           ["9", "beta2", "1", "2.0", "0.1"]]
    cfg, out = write_pair(tmp_path, rows)
    with caplog.at_level(logging.INFO, logger="sdce"):
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "compare.json").read_text())
    assert report["n_points"] == 2
    assert report["n_simulated_only"] == {"beta2": 1, "q2_im": 2}
    assert any("3 simulated row(s) with no prediction" in rec.message
               for rec in caplog.records)


def test_simulate_then_compare_end_to_end(tmp_path):
    # MC with loose tolerances should agree with its own closed form
    data = single_mode_data()
    data["ensemble"]["n_realizations"] = 40
    # probe late enough for the slow-flow law to hold (a few correlation
    # times of the band noise past the start)
    data["ensemble"]["horizon_time"] = 12.0
    data["ensemble"]["probes_time"] = [8.0, 12.0]
    data["compare"] = {"k_sigma": 6.0, "rel_tol": 0.5}
    cfg = write_yaml(tmp_path, data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert main(["predict", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    # grid rounding of probe times must not break the join
    report = json.loads((out / "compare.json").read_text())
    assert report["n_points"] == 10


def test_coupled_truncation_warning(tmp_path, caplog):
    # all predicted occupation sits in the highest retained mode here
    cfg = write_yaml(tmp_path, coupled_data())
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="sdce"):
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
    assert any("highest retained mode" in rec.message for rec in caplog.records)
    assert_run_facts(json.loads((out / "summary.json").read_text()), ["1"])


def test_cosmology_sweep_runs_in_one_pool(tmp_path, recorded_pools):
    # four k-systems at workers 2, two chunks each: one pool of two
    # processes serves every system and is shut down, its workers gone,
    # before simulate returns; series.csv is the workers-1 bytes
    data = {
        "scenario": {"kind": "cosmology", "mass_rad_per_time": 1.0,
                     "k_grid_rad_per_time": [0.0, 0.5, 1.0, 2.0], "epsilon": 0.05},
        "noise": {"kind": "ornstein_uhlenbeck", "sigma": 1.0, "t_c_time": 0.5},
        "ensemble": {"n_realizations": 8, "horizon_time": 2.0,
                     "probes_time": [1.0, 2.0], "workers": 2},
    }
    cfg = write_yaml(tmp_path, data)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "w2"),
                 "--quiet"]) == 0
    [pool] = recorded_pools
    assert pool.size == 2 and pool.waited is True and len(pool.workers) == 2
    assert not any(w.is_alive() for w in pool.workers)
    summary = json.loads((tmp_path / "w2" / "summary.json").read_text())
    assert summary["chunks"] == {label: 2 for label in ("1", "2", "3", "4")}
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "w1"),
                 "--workers", "1", "--quiet"]) == 0
    assert len(recorded_pools) == 1
    assert ((tmp_path / "w2" / "series.csv").read_bytes()
            == (tmp_path / "w1" / "series.csv").read_bytes())


def test_cosmology_simulate_labels_modes_by_k(tmp_path):
    data = {
        "scenario": {"kind": "cosmology", "mass_rad_per_time": 1.0,
                     "k_grid_rad_per_time": [0.5, 1.0], "epsilon": 0.05},
        "noise": {"kind": "band_limited", "sigma": 1.0,
                  "nu_min_rad_per_time": 1.5, "nu_max_rad_per_time": 3.5,
                  "n_components": 16},
        "ensemble": {"n_realizations": 3, "horizon_time": 6.0,
                     "probes_time": [6.0], "workers": 1},
    }
    cfg = write_yaml(tmp_path, data)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    _, rows = read_csv(out / "series.csv")
    modes = {r[2] for r in rows if r[1] == "beta2_total"}
    assert modes == {"1", "2"}
    summary = json.loads((out / "summary.json").read_text())
    subs = summary["seeds"]["per_system"]
    assert subs["1"]["sub_master"] != subs["2"]["sub_master"]
