"""Run configuration: YAML parsing, validation, and object assembly.

Keys carry their unit in the name (t_c_time, omega_rad_per_time, ...) so
a config file reads unambiguously.  Unknown keys are hard errors, and
each scenario knows only the keys and noise kinds its simulate and
predict both read: a key another scenario takes is unknown here too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import yaml

from .cavity import CavityConfig
from .dynamics import (CavityModes, IntegratorConfig, PlainOscillator, Window,
                       check_integrable, default_dt, initial_data, step_grid)
from .ensemble import EnsembleConfig
from .noise import OU_GRID_PER_TC, NoiseKind, NoiseSpec, max_step

__all__ = ["ConfigError", "Scenario", "RunConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


class Scenario(enum.Enum):
    SINGLE_MODE_STOCHASTIC = "single_mode_stochastic"
    SINGLE_MODE_DETERMINISTIC = "single_mode_deterministic"
    COUPLED_STOCHASTIC = "coupled_stochastic"
    COSMOLOGY = "cosmology"


@dataclass(frozen=True)
class CompareTolerance:
    k_sigma: float = 4.0
    rel_tol: float = 0.1


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    noise: NoiseSpec
    integrator: IntegratorConfig
    ensemble: EnsembleConfig
    cavity: CavityConfig | None = None
    path: str | None = None             # coupled_stochastic: CavityModes' equations
    omega: float | None = None          # single-mode scenarios
    epsilon: float | None = None        # non-coupled scenarios
    mass: float | None = None           # cosmology
    k_grid: tuple = ()
    compare: CompareTolerance = field(default_factory=CompareTolerance)
    raw: dict = field(default_factory=dict, repr=False)

    def systems(self):
        """(label, system) pairs to simulate; cosmology has one per k."""
        if self.scenario is Scenario.COUPLED_STOCHASTIC:
            return [(1, CavityModes(self.cavity, self.path))]
        if self.scenario is Scenario.COSMOLOGY:
            return [
                (i + 1, PlainOscillator((k**2 + self.mass**2) ** 0.5, self.epsilon))
                for i, k in enumerate(self.k_grid)
            ]
        return [(1, PlainOscillator(self.omega, self.epsilon))]


def _section(data, name, required=True):
    if name not in data:
        if required:
            raise ConfigError(f"missing required section '{name}'")
        return {}
    sec = data[name]
    if not isinstance(sec, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    return dict(sec)


def _take(sec, secname, key, kind, default=..., positive=False):
    if key not in sec:
        if default is ...:
            raise ConfigError(f"{secname}: missing required key '{key}'")
        return default
    val = sec.pop(key)
    try:
        if kind is float:
            val = float(val)
        elif kind is int:
            if isinstance(val, float) and val != int(val):
                raise ValueError
            val = int(val)
        elif kind is str:
            if not isinstance(val, str):
                raise ValueError
        elif kind is list:
            val = [float(x) for x in val]
    except (TypeError, ValueError):
        raise ConfigError(f"{secname}.{key}: expected {kind.__name__}, got {val!r}")
    if kind in (float, list) and not all(map(math.isfinite, val if kind is list else [val])):
        raise ConfigError(f"{secname}.{key} must be finite, got {val}")
    if positive and (not isinstance(val, list)) and val <= 0:
        raise ConfigError(f"{secname}.{key} must be > 0, got {val}")
    return val


def _no_leftovers(sec, secname):
    if sec:
        raise ConfigError(f"{secname}: unknown key(s) {sorted(sec)}")


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as err:
        raise ConfigError(f"config file {path} is not valid YAML: {err}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a mapping")
    return parse_config(data)


def parse_config(data: dict) -> RunConfig:
    data = dict(data)
    known = {"scenario", "noise", "cavity", "integrator", "ensemble", "compare"}
    if set(data) - known:
        raise ConfigError(f"unknown section(s) {sorted(set(data) - known)}")

    scen = _section(data, "scenario")
    kind_name = _take(scen, "scenario", "kind", str)
    try:
        scenario = Scenario(kind_name)
    except ValueError:
        raise ConfigError(
            f"scenario.kind must be one of {[s.value for s in Scenario]}, "
            f"got {kind_name!r}"
        )

    noise = _parse_noise(_section(data, "noise"))
    coupled = scenario is Scenario.COUPLED_STOCHASTIC
    deterministic = scenario is Scenario.SINGLE_MODE_DETERMINISTIC
    # the resonance law needs the sinusoid, every other law a noise spectrum
    if noise.is_stochastic == deterministic:
        wanted = "deterministic_sinusoid" if deterministic else "a stochastic kind"
        raise ConfigError(f"noise.kind {noise.kind.value!r} does not apply to "
                          f"{scenario.value} runs; use {wanted}")

    omega = epsilon = mass = None
    k_grid = ()
    if scenario in (Scenario.SINGLE_MODE_STOCHASTIC, Scenario.SINGLE_MODE_DETERMINISTIC):
        omega = _take(scen, "scenario", "omega_rad_per_time", float, positive=True)
        epsilon = _take(scen, "scenario", "epsilon", float)
    elif scenario is Scenario.COSMOLOGY:
        mass = _take(scen, "scenario", "mass_rad_per_time", float)
        k_grid = tuple(_take(scen, "scenario", "k_grid_rad_per_time", list))
        epsilon = _take(scen, "scenario", "epsilon", float)
        if mass < 0:
            raise ConfigError("scenario.mass_rad_per_time must be >= 0")
        if not k_grid:
            raise ConfigError("scenario.k_grid_rad_per_time must be nonempty")
        if mass == 0 and min(k_grid) <= 0:
            raise ConfigError("massless k=0 mode has no oscillation frequency")
    _no_leftovers(scen, "scenario")

    cavity = None
    if coupled:
        cavity = _parse_cavity(_section(data, "cavity"))
    elif "cavity" in data:
        raise ConfigError("section 'cavity' only applies to coupled_stochastic runs")

    ens = _parse_ensemble(_section(data, "ensemble"), scenario)
    omega_max = _max_frequency(scenario, omega, mass, k_grid, cavity)
    integ_sec = _section(data, "integrator", required=False)
    path = (_take(integ_sec, "integrator", "path", str, default="linearized")
            if coupled else None)
    integ = _parse_integrator(integ_sec, omega_max, ens.horizon, noise, windowed=coupled)
    comp = _parse_compare(_section(data, "compare", required=False))
    try:
        step = step_grid(ens.horizon, integ, ens.probes)[1]
    except ValueError as err:
        raise ConfigError(f"ensemble.probes_time: {err}")

    try:
        if epsilon is not None and not 0 <= epsilon < 1:
            raise ConfigError(f"scenario.epsilon must be in [0, 1), got {epsilon}")
        cfg = RunConfig(scenario, noise, integ, ens, cavity, path, omega, epsilon,
                        mass, k_grid, comp, data)
        for _, system in cfg.systems():
            # systems, initial data and the integrator check consistency
            initial_data(system, ens.initial, ens.in_mode)
            check_integrable(system, step, noise.kind is NoiseKind.ORNSTEIN_UHLENBECK)
    except ValueError as err:
        raise ConfigError(str(err))
    cell = max_step(noise, ens.horizon)
    if step > cell * (1.0 + 1e-9):     # a step of one cell passes, to rounding
        raise ConfigError(
            f"integrator.dt_time: the step {step:.6g} is longer than the OU "
            f"noise's knot cell {cell:.6g} (t_c_time/{OU_GRID_PER_TC}); a step "
            f"across a knot loses RK4's order")
    return cfg


def _max_frequency(scenario, omega, mass, k_grid, cavity):
    if scenario is Scenario.COSMOLOGY:
        return max((k**2 + mass**2) ** 0.5 for k in k_grid)
    if cavity is not None:
        return float(cavity.omegas()[-1])
    return omega


def _parse_noise(sec) -> NoiseSpec:
    kind_name = _take(sec, "noise", "kind", str)
    try:
        kind = NoiseKind(kind_name)
    except ValueError:
        raise ConfigError(
            f"noise.kind must be one of {sorted(k.value for k in NoiseKind)}, "
            f"got {kind_name!r}"
        )
    kwargs = {}
    if kind is NoiseKind.DETERMINISTIC_SINUSOID:
        kwargs["omega_drive"] = _take(sec, "noise", "omega_drive_rad_per_time",
                                      float, positive=True)
    else:
        kwargs["sigma"] = _take(sec, "noise", "sigma", float, default=1.0)
    if kind is NoiseKind.ORNSTEIN_UHLENBECK:
        kwargs["t_c"] = _take(sec, "noise", "t_c_time", float, positive=True)
    if kind in (NoiseKind.BAND_LIMITED, NoiseKind.SPECTRAL_LINES):
        kwargs["nu_min"] = _take(sec, "noise", "nu_min_rad_per_time", float)
        kwargs["nu_max"] = _take(sec, "noise", "nu_max_rad_per_time", float)
        kwargs["n_components"] = _take(sec, "noise", "n_components", int, default=256)
    _no_leftovers(sec, "noise")
    try:
        return NoiseSpec(kind=kind, **kwargs)
    except ValueError as err:
        raise ConfigError(f"noise: {err}")


def _parse_cavity(sec) -> CavityConfig:
    kwargs = dict(
        Lx=_take(sec, "cavity", "Lx_length", float, positive=True),
        Ly=_take(sec, "cavity", "Ly_length", float, positive=True),
        Lz0=_take(sec, "cavity", "Lz0_length", float, positive=True),
        epsilon=_take(sec, "cavity", "epsilon", float),
        kx=_take(sec, "cavity", "kx", int, default=1),
        ky=_take(sec, "cavity", "ky", int, default=1),
        nz_max=_take(sec, "cavity", "nz_max", int, default=1),
    )
    _no_leftovers(sec, "cavity")
    try:
        return CavityConfig(**kwargs)
    except ValueError as err:
        raise ConfigError(f"cavity: {err}")


def _parse_integrator(sec, omega_max, horizon, noise, windowed) -> IntegratorConfig:
    dt = _take(sec, "integrator", "dt_time", float, default=None, positive=True)
    if dt is None:
        dt = default_dt(omega_max, noise, horizon)
    ramp = (_take(sec, "integrator", "window_ramp_time", float, default=0.0)
            if windowed else 0.0)
    _no_leftovers(sec, "integrator")
    try:
        Window(ramp, horizon)   # the fit rule run_batch and windowed_exposure need
    except ValueError:
        raise ConfigError(f"integrator.window_ramp_time must be in [0, horizon_time/2]"
                          f" = [0, {horizon / 2:g}], got {ramp:g}")
    return IntegratorConfig(dt=dt, window_ramp=ramp)


def _parse_ensemble(sec, scenario) -> EnsembleConfig:
    deterministic = scenario is Scenario.SINGLE_MODE_DETERMINISTIC
    kwargs = dict(
        n_realizations=_take(sec, "ensemble", "n_realizations", int,
                             default=1 if deterministic else ...),
        master_seed=_take(sec, "ensemble", "master_seed", int, default=0),
        workers=_take(sec, "ensemble", "workers", int, default=0),
        horizon=_take(sec, "ensemble", "horizon_time", float, positive=True),
        probes=tuple(_take(sec, "ensemble", "probes_time", list)),
    )
    if scenario is Scenario.COUPLED_STOCHASTIC:
        kwargs["in_mode"] = _take(sec, "ensemble", "in_mode", int, default=1)
    if scenario is Scenario.SINGLE_MODE_STOCHASTIC:
        kwargs["initial"] = _take(sec, "ensemble", "initial", str, default="vacuum")
    _no_leftovers(sec, "ensemble")
    try:
        return EnsembleConfig(**kwargs)
    except ValueError as err:
        raise ConfigError(f"ensemble: {err}")


def _parse_compare(sec) -> CompareTolerance:
    out = CompareTolerance(
        k_sigma=_take(sec, "compare", "k_sigma", float, default=4.0),
        rel_tol=_take(sec, "compare", "rel_tol", float, default=0.1),
    )
    _no_leftovers(sec, "compare")
    if out.k_sigma <= 0 or out.rel_tol < 0:
        raise ConfigError("compare tolerances must be positive")
    return out
