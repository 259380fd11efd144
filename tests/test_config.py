"""YAML run-configuration parsing and validation."""

import copy
import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

import stochastic_dce.config as config_mod
from stochastic_dce.cli import cmd_predict, main as cli_main
from stochastic_dce.config import (ConfigError, RunConfig, Scenario, load_config,
                                   parse_config)
from stochastic_dce.cavity import CavityConfig
from stochastic_dce.dynamics import (CavityModes, PlainOscillator, default_dt, step_grid,
                                      suggest_dt)
from stochastic_dce.ensemble import derive_seed
from stochastic_dce.noise import NoiseKind, NoiseSpec, max_step
from stochastic_dce.theory import (
    msa_mean_q,
    msa_stochastic_beta2,
    slow_flow_rates,
    solve_occupations,
)

ROOT = Path(__file__).resolve().parent.parent
OU = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=1.0, t_c=0.5)
BAND = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=1.0, nu_min=1.5, nu_max=2.5)


def single_mode_data():
    return {
        "scenario": {"kind": "single_mode_stochastic",
                     "omega_rad_per_time": 1.0, "epsilon": 0.05},
        "noise": {"kind": "ornstein_uhlenbeck", "sigma": 1.0, "t_c_time": 0.5},
        "ensemble": {"n_realizations": 4, "horizon_time": 10.0,
                     "probes_time": [5.0, 10.0], "master_seed": 3},
    }


def coupled_data():
    return {
        "scenario": {"kind": "coupled_stochastic"},
        "noise": {"kind": "band_limited", "sigma": 1.0,
                  "nu_min_rad_per_time": 9.0, "nu_max_rad_per_time": 10.0,
                  "n_components": 8},
        "cavity": {"Lx_length": 1e6, "Ly_length": 1e6, "Lz0_length": 1.0,
                   "epsilon": 0.02, "nz_max": 3},
        "ensemble": {"n_realizations": 2, "horizon_time": 10.0,
                     "probes_time": [10.0]},
    }


def cosmology_data():
    return {
        "scenario": {"kind": "cosmology", "mass_rad_per_time": 1.0,
                     "k_grid_rad_per_time": [0.0, 0.5, 1.0], "epsilon": 0.05},
        "noise": {"kind": "ornstein_uhlenbeck", "sigma": 1.0, "t_c_time": 0.5},
        "ensemble": {"n_realizations": 2, "horizon_time": 10.0,
                     "probes_time": [10.0]},
    }


def deterministic_data():
    return {
        "scenario": {"kind": "single_mode_deterministic",
                     "omega_rad_per_time": 1.0, "epsilon": 0.01},
        "noise": {"kind": "deterministic_sinusoid",
                  "omega_drive_rad_per_time": 2.0},
        "ensemble": {"horizon_time": 10.0, "probes_time": [10.0]},
    }


SCENARIOS = {"single_mode_stochastic": single_mode_data,
             "single_mode_deterministic": deterministic_data,
             "coupled_stochastic": coupled_data,
             "cosmology": cosmology_data}


def test_single_mode_parses():
    cfg = parse_config(single_mode_data())
    assert cfg.scenario is Scenario.SINGLE_MODE_STOCHASTIC
    assert cfg.omega == 1.0 and cfg.epsilon == 0.05
    assert cfg.noise.kind is NoiseKind.ORNSTEIN_UHLENBECK
    assert cfg.noise.t_c == 0.5
    assert cfg.ensemble.probes == (5.0, 10.0)
    assert cfg.ensemble.master_seed == 3
    [(label, system, _)] = cfg.systems()
    assert label == 1 and isinstance(system, PlainOscillator)


def test_coupled_parses_with_cavity():
    cfg = parse_config(coupled_data())
    assert cfg.scenario is Scenario.COUPLED_STOCHASTIC
    assert cfg.cavity.nz_max == 3
    assert cfg.omega is None
    [(_, system, _)] = cfg.systems()
    assert system.omegas.size == 3


def test_coupled_in_mode_beyond_nz_max_refused():
    data = coupled_data()
    data["ensemble"]["in_mode"] = 5
    with pytest.raises(ConfigError, match="in_mode"):
        parse_config(data)


def test_cosmology_parses_one_system_per_k():
    cfg = parse_config(cosmology_data())
    systems = cfg.systems()
    assert [label for label, _, _ in systems] == [1, 2, 3]
    assert systems[0][1].omegas[0] == pytest.approx(1.0)        # k=0, M=1
    assert systems[2][1].omegas[0] == pytest.approx(math.sqrt(2.0))


def predicted(cfg, out):
    """cmd_predict's value strings for cfg, per (quantity, mode)."""
    assert cmd_predict(cfg, out) == 0
    values = {}
    with open(out / "predictions.csv", newline="") as fh:
        for r in csv.DictReader(fh):
            values.setdefault((r["quantity"], int(r["mode"])), []).append(r["value"])
    return values


def probe_times(cfg):
    _, dt, idx = step_grid(cfg.ensemble.horizon, cfg.integrator, cfg.ensemble.probes)
    return idx * dt


def test_systems_follow_the_config_fields(tmp_path):
    # systems() builds from the fields it is given: a RunConfig made
    # directly, or by replacing a parsed one's fields, simulates what
    # those fields say, and predict writes the laws of those systems
    cfg = parse_config(cosmology_data())
    direct = RunConfig(cfg.scenario, cfg.noise, cfg.integrator, cfg.ensemble,
                       mass=2.0, epsilon=0.05, k_grid=(0.0, 1.5))
    assert [(label, float(s.omegas[0])) for label, s, _ in direct.systems()] == [
        (1, 2.0), (2, 2.5)]
    moved = dataclasses.replace(cfg, mass=0.0, k_grid=(3.0,))
    assert [(label, float(s.omegas[0])) for label, s, _ in moved.systems()] == [(1, 3.0)]
    t = probe_times(moved)
    b2 = msa_stochastic_beta2(3.0, 0.05, moved.noise, t)
    q = msa_mean_q(3.0, 0.05, moved.noise, t, "vacuum")
    laws = {"beta2": b2, "beta2_total": b2, "q_re": q.real, "q_im": q.imag,
            "abs_q2": (1.0 + 2.0 * b2) / 6.0}
    assert predicted(moved, tmp_path / "moved") == {
        (quantity, 1): [f"{v:.17g}" for v in values] for quantity, values in laws.items()}
    coupled = parse_config(coupled_data())
    cavity = dataclasses.replace(coupled.cavity, nz_max=2, epsilon=0.03)
    replaced = dataclasses.replace(coupled, cavity=cavity)
    [(_, system, _)] = replaced.systems()
    assert system.omegas.tolist() == cavity.omegas().tolist()
    flow = solve_occupations(slow_flow_rates(cavity, coupled.noise), cavity, 1,
                             probe_times(replaced))
    totals = [f"{b2:.17g}" for b2 in flow.beta2_total]
    assert predicted(replaced, tmp_path / "coupled") == {("beta2_total", 0): totals}
    assert predicted(coupled, tmp_path / "parsed") != {("beta2_total", 0): totals}


def test_cosmology_omega_rounds_as_numpy_sqrt():
    # each k's system oscillates at np.sqrt(k**2 + M**2), bit for bit, the
    # omega the committed outputs were written at; at k = 1.39, M = 1,
    # (k**2 + M**2) ** 0.5 rounds one ulp above it
    ks = [1.39, *np.random.default_rng(5).uniform(0.0, 10.0, 2000).tolist()]
    for mass in (1.0, 0.37):
        cfg = dataclasses.replace(parse_config(cosmology_data()), mass=mass,
                                  k_grid=tuple(ks))
        omegas = [system.omegas[0] for _, system, _ in cfg.systems()]
        np.testing.assert_array_equal(
            omegas, np.sqrt(np.asarray(ks, dtype=float) ** 2 + mass**2))


def test_each_system_runs_its_own_seed_stream(tmp_path):
    # a lone system runs the config's ensemble itself; cosmology label k
    # runs the same ensemble with master seed derive_seed(master, 2**32 + k),
    # which summary.json records as its sub_master
    single = parse_config(single_mode_data())
    [(_, _, ens)] = single.systems()
    assert ens is single.ensemble
    data = cosmology_data()
    data["ensemble"].update(master_seed=7, workers=1, horizon_time=1.0,
                            probes_time=[1.0])
    cfg = parse_config(data)
    for label, _, ens in cfg.systems():
        assert ens == dataclasses.replace(
            cfg.ensemble, master_seed=derive_seed(7, 2**32 + label))
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(data))
    assert cli_main(["simulate", "--config", str(config), "--out", str(tmp_path),
                     "--quiet"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert {label: entry["sub_master"]
            for label, entry in summary["seeds"]["per_system"].items()} == {
        str(label): ens.master_seed for label, _, ens in cfg.systems()}


def test_deterministic_defaults_to_one_realization():
    cfg = parse_config(deterministic_data())
    assert cfg.ensemble.n_realizations == 1
    assert cfg.noise.omega_drive == 2.0


def test_default_integrator_step_respects_fastest_mode():
    cfg = parse_config(coupled_data())
    omega_max = float(cfg.cavity.omegas()[-1])
    assert cfg.integrator.dt * omega_max <= 0.1 + 1e-12


@pytest.mark.parametrize("mutate, match", [
    (lambda d: d.update(extra={}), "unknown section"),
    (lambda d: d["scenario"].update(typo=1), "unknown key"),
    (lambda d: d["noise"].update(tc=0.5), "unknown key"),
    (lambda d: d["scenario"].pop("omega_rad_per_time"), "missing required"),
    (lambda d: d.pop("ensemble"), "missing required section"),
    (lambda d: d["scenario"].update(kind="cavity_qed"), "scenario.kind"),
    (lambda d: d["scenario"].update(epsilon=1.0), "epsilon"),
    (lambda d: d["scenario"].update(omega_rad_per_time=-1.0), "must be > 0"),
    (lambda d: d["noise"].update(kind="white"), "noise.kind"),
    (lambda d: d["ensemble"].update(probes_time=[]), "probe"),
    (lambda d: d["ensemble"].update(initial="squeezed"), "initial"),
    (lambda d: d["ensemble"].update(in_mode=0), "in_mode"),
    (lambda d: d["ensemble"].update(in_mode=2), "in_mode"),
    (lambda d: d["ensemble"].update(n_realizations=2.5), "expected int"),
    (lambda d: d.update(cavity={"Lx_length": 1.0, "Ly_length": 1.0,
                                "Lz0_length": 1.0, "epsilon": 0.1}),
     "coupled_stochastic"),
    (lambda d: d.update(compare={"k_sigma": -1.0}), "tolerances"),
    (lambda d: d["noise"].update(sigma=math.nan), "noise.sigma must be finite"),
    (lambda d: d["ensemble"].update(probes_time=[5.0, math.inf]), "must be finite"),
    (lambda d: d.update(integrator={"dt_time": 1.0}), r"dt\*omega_max"),
    (lambda d: d.update(integrator={"dt_time": 0.02}), r"integrator\.dt_time"),
])
def test_invalid_single_mode_configs(mutate, match):
    data = single_mode_data()
    mutate(data)
    with pytest.raises(ConfigError, match=match):
        parse_config(data)


def test_default_step_reads_the_fastest_frequency_off_the_systems():
    # default_dt over a cosmology k-grid and over a 3-mode cavity is the
    # drift law's step at their fastest frequency, within one knot cell
    # of OU noise; parse_config's default step is that step for every
    # shipped config, its dt_time dropped
    horizon = 600.0
    omegas = [(k**2 + 1.0) ** 0.5 for k in (0.0, 2.0, 0.5)]
    grid = [PlainOscillator(w, 0.05) for w in omegas]
    cavity = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.02, nz_max=3)
    for systems, omega_max in ((grid, max(omegas)),
                               ([CavityModes(cavity)], float(cavity.omegas()[2]))):
        for noise in (OU, BAND):
            assert default_dt(systems, noise, horizon) == min(
                suggest_dt(omega_max, horizon), max_step(noise, horizon))
    for path in sorted((ROOT / "configs").glob("*.yaml")):
        data = yaml.safe_load(path.read_text())
        data.get("integrator", {}).pop("dt_time", None)
        cfg = parse_config(data)
        omega_max = (float(cfg.cavity.omegas()[-1]) if cfg.cavity is not None
                     else max((k**2 + cfg.mass**2) ** 0.5 for k in cfg.k_grid)
                     if cfg.k_grid else cfg.omega)
        horizon = cfg.ensemble.horizon
        assert cfg.integrator.dt == min(suggest_dt(omega_max, horizon),
                                        max_step(cfg.noise, horizon)), path.name


def test_ou_steps_stay_inside_one_knot_cell():
    # OU noise with t_c 0.5 has knots 0.01 apart.  At horizon 6 the drift
    # law's step is 1.6 cells, and parse caps the default at one cell; a
    # dt_time of one cell parses, and one whose step is longer is refused
    data = single_mode_data()
    data["ensemble"].update(horizon_time=6.0, probes_time=[3.0, 6.0])
    assert suggest_dt(1.0, 6.0) > 0.015
    assert parse_config(copy.deepcopy(data)).integrator.dt <= 0.01
    data["integrator"] = {"dt_time": 0.01}
    assert parse_config(copy.deepcopy(data)).integrator.dt == 0.01
    data["integrator"] = {"dt_time": 0.0101}
    with pytest.raises(ConfigError, match=r"integrator\.dt_time.*knot cell 0\.01\b"):
        parse_config(data)


@pytest.mark.parametrize("mutate, match", [
    (lambda d: d["scenario"].update(k_grid_rad_per_time=[]), "k_grid"),
    (lambda d: d["scenario"].update(mass_rad_per_time=-1.0), "mass"),
    (lambda d: d["scenario"].update(mass_rad_per_time=0.0), "massless"),
])
def test_invalid_cosmology_configs(mutate, match):
    data = cosmology_data()
    mutate(data)
    with pytest.raises(ConfigError, match=match):
        parse_config(data)


@pytest.mark.parametrize("mutate, match", [
    (lambda d: d.update(noise=single_mode_data()["noise"]), "smooth xi'"),
    (lambda d: d.update(noise=single_mode_data()["noise"],
                        integrator={"path": "exact"}), "smooth xi'"),
    (lambda d: d.update(integrator={"dt_time": 0.05}), r"dt\*omega_max"),
    (lambda d: d.update(integrator={"window_ramp_time": 5.5}), "window_ramp_time"),
    (lambda d: d.update(integrator={"window_ramp_time": -1.0}), "window_ramp_time"),
    (lambda d: d.update(integrator={"path": "exakt"}), "path"),
])
def test_invalid_coupled_configs(mutate, match):
    # runs the integrator refuses: OU noise where xi' and xi'' are needed
    # (more than one mode, on either path), a step too coarse for the
    # fastest mode, window ramps that do not fit inside the horizon,
    # equations that do not exist
    data = coupled_data()
    mutate(data)
    with pytest.raises(ConfigError, match=match):
        parse_config(data)


def test_one_mode_exact_path_takes_ou_noise(tmp_path):
    # with one mode neither path reads xi' or xi'', so the exact path
    # evaluates xi alone and OU noise, whose spline has no smooth xi'',
    # parses and runs
    data = coupled_data()
    data["cavity"].update(nz_max=1)
    data.update(noise=single_mode_data()["noise"], integrator={"path": "exact"})
    cfg = parse_config(data)
    [(_, system, _)] = cfg.systems()
    assert system.path == "exact" and system.noise_orders == (0,)
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(config), "--out", str(out),
                     "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_effective"] == {"1": 2} and summary["abort_count"] == {"1": 0}
    assert 0 < summary["max_wronskian_drift"]["1"] < 1e-8
    assert summary["max_omega_dt"]["1"] > 0


# each key is read by one scenario's simulate and predict; the others,
# which would run and predict as if it were absent, refuse it, whatever
# its value.  compare.abs_tol is read by none.
OTHERS = [s for s in SCENARIOS if s != "coupled_stochastic"]


@pytest.mark.parametrize("scenario, section, key, value", [
    *[(s, "integrator", "path", "exact") for s in OTHERS],
    *[(s, "integrator", "window_ramp_time", 1.0) for s in OTHERS],
    *[(s, "ensemble", "in_mode", 1) for s in OTHERS],
    *[(s, "ensemble", "initial", value) for s in SCENARIOS
      if s != "single_mode_stochastic" for value in ("vacuum", "position_kick")],
    *[(s, "compare", "abs_tol", 0.0) for s in SCENARIOS],
])
def test_scenario_refuses_keys_it_does_not_read(scenario, section, key, value):
    data = SCENARIOS[scenario]()
    data.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=rf"{section}: unknown key\(s\) \['{key}'\]"):
        parse_config(data)


SINUSOID = deterministic_data()["noise"]


@pytest.mark.parametrize("scenario, noise", [
    ("single_mode_stochastic", SINUSOID),
    ("coupled_stochastic", SINUSOID),
    ("cosmology", SINUSOID),
    ("single_mode_deterministic", single_mode_data()["noise"]),
    ("single_mode_deterministic", coupled_data()["noise"]),
])
def test_scenario_refuses_noise_kind_it_does_not_predict(scenario, noise):
    # the sinusoid has no spectrum for the stochastic laws, and the
    # deterministic law is a resonance of the sinusoid alone
    data = SCENARIOS[scenario]()
    data["noise"] = dict(noise)
    with pytest.raises(ConfigError, match=f"noise.kind '{noise['kind']}'"):
        parse_config(data)


def test_probe_outside_horizon_refused():
    data = cosmology_data()
    data["ensemble"]["probes_time"] = [-5.0, 5.0, 10.5]
    with pytest.raises(ConfigError, match=r"probes \[-5.0, 10.5\] lie outside"):
        parse_config(data)


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")),
                         ids=lambda p: p.name)
def test_shipped_config_parses_and_round_trips(path):
    cfg = load_config(str(path))
    assert parse_config(copy.deepcopy(cfg.raw)) == cfg


def test_benchmark_workload_configs_parse(tmp_path, monkeypatch):
    # every config the benchmark writes, at both sizes, is one the program takes
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    cases = {**workloads.WORKLOADS, "worker_check": workloads.WORKER_CHECK}
    for name, wl in cases.items():
        for smoke in (False, True):
            path = workloads.write_config(ROOT, wl, tmp_path / f"{name}_{smoke}.yaml",
                                          7, smoke, workers=2)
            cfg = load_config(str(path))
            assert cfg.ensemble.master_seed == 7 and cfg.ensemble.workers == 2


def test_ou_noise_requires_correlation_time():
    data = single_mode_data()
    del data["noise"]["t_c_time"]
    with pytest.raises(ConfigError, match="t_c_time"):
        parse_config(data)


def test_band_noise_requires_valid_band():
    data = single_mode_data()
    data["noise"] = {"kind": "band_limited", "nu_min_rad_per_time": 3.0,
                     "nu_max_rad_per_time": 2.0}
    with pytest.raises(ConfigError, match="noise"):
        parse_config(data)


def test_compare_tolerances_parsed():
    data = single_mode_data()
    data["compare"] = {"k_sigma": 3.0, "rel_tol": 0.2}
    cfg = parse_config(data)
    assert (cfg.compare.k_sigma, cfg.compare.rel_tol) == (3.0, 0.2)


def test_raw_round_trips():
    # the echoed raw mapping must re-parse to an equivalent configuration
    original = coupled_data()
    cfg = parse_config(copy.deepcopy(original))
    again = parse_config(copy.deepcopy(cfg.raw))
    assert again.scenario is cfg.scenario
    assert again.noise == cfg.noise
    assert again.cavity == cfg.cavity
    assert again.integrator == cfg.integrator
    assert again.ensemble == cfg.ensemble


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")),
                         ids=lambda p: p.name)
def test_libyaml_loader_reads_what_the_python_loader_reads(path):
    # load_config takes libyaml's safe loader when it is there
    assert config_mod.YAML_LOADER is yaml.CSafeLoader
    text = path.read_text()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


def test_python_loader_names_bad_yaml(tmp_path, monkeypatch):
    # the fallback where PyYAML has no libyaml: the same error
    monkeypatch.setattr(config_mod, "YAML_LOADER", yaml.SafeLoader)
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(str(bad))


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(str(bad))
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("42\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(str(scalar))


def test_load_config_reads_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(single_mode_data()))
    cfg = load_config(str(path))
    assert cfg.omega == 1.0
    assert cfg.ensemble.n_realizations == 4
