"""Run configuration: YAML parsing, validation, and object assembly.

Keys carry their unit in the name (t_c_time, omega_rad_per_time, ...) so
a config file reads unambiguously.  Unknown keys are hard errors, and
each scenario knows only the keys and noise kinds its simulate and
predict both read: a key another scenario takes is unknown here too.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass, field, replace

import yaml

from .cavity import CavityConfig
from .dynamics import (CavityModes, IntegratorConfig, PlainOscillator, StepResolutionError,
                       Window, check_integrable, default_dt, initial_data, step_grid)
from .ensemble import EnsembleConfig, derive_seed
from .noise import NoiseKind, NoiseSpec, max_step

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
    pairs: tuple = field(compare=False)     # (label, system), built once by parse_config
    compare: CompareTolerance = field(default_factory=CompareTolerance)
    raw: dict = field(default_factory=dict, repr=False)   # holds every scenario key

    def systems(self):
        """(label, system, ensemble) triples to simulate, the one list
        `simulate` runs: self.pairs, one or for cosmology one per k, each
        with an ensemble derived from self.ensemble.  A lone system runs
        that ensemble itself; each of several runs it with its own master
        seed, derive_seed(master, 2**32 + label), so that every k draws an
        independent stream."""
        if len(self.pairs) == 1:
            return [(*self.pairs[0], self.ensemble)]
        master = self.ensemble.master_seed
        return [(label, system,
                 replace(self.ensemble, master_seed=derive_seed(master, (1 << 32) + label)))
                for label, system in self.pairs]


def _build_systems(scenario, cavity, path, omega, epsilon, mass, k_grid):
    """The scenario's (label, system) pairs: one, or for cosmology one per k.
    RunConfig.systems gives each its ensemble."""
    if scenario is Scenario.COUPLED_STOCHASTIC:
        return [(1, CavityModes(cavity, path))]
    if scenario is Scenario.COSMOLOGY:
        # omega_k = sqrt(k^2 + M^2) bit for bit as np.sqrt(k**2 + M**2) rounds
        # it: k * k is numpy's k**2, where Python's k**2 calls libm's pow
        return [(label, PlainOscillator(math.sqrt(k * k + mass**2), epsilon))
                for label, k in enumerate(k_grid, start=1)]
    return [(1, PlainOscillator(omega, epsilon))]


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
        # YAML's true and false are no numbers, though Python's bool is an int
        if any(isinstance(x, bool) for x in (val if kind is list else [val])):
            raise ValueError
        if kind is float:
            val = float(val)
        elif kind is int:
            if isinstance(val, float) and not val.is_integer():   # 2.5, inf, nan
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


def unique_key_loader(base):
    """A subclass of the PyYAML loader `base` that refuses a mapping which
    repeats a key, naming the key and its line, where `base` keeps the last."""

    class Loader(base):
        def construct_mapping(self, node, deep=False):
            seen = set()
            for key, _ in node.value:
                if isinstance(key, yaml.ScalarNode):
                    if (key.tag, key.value) in seen:
                        raise yaml.constructor.ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            f"found repeated key {key.value!r}", key.start_mark)
                    seen.add((key.tag, key.value))
            return super().construct_mapping(node, deep)

    return Loader


# libyaml's safe loader when PyYAML was built with it: the same data,
# about seven times faster than the pure-Python one
YAML_LOADER = unique_key_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=YAML_LOADER)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as err:
        raise ConfigError(f"config file {path} is not valid YAML: {err}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a mapping")
    return parse_config(data)


def parse_config(data: dict) -> RunConfig:
    # raw must not share a section or list with the caller's mapping: a
    # later edit of that mapping would change this config's echo and equality
    data = copy.deepcopy(data)
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
    if epsilon is not None and not 0 <= epsilon < 1:
        raise ConfigError(f"scenario.epsilon must be in [0, 1), got {epsilon}")

    cavity = None
    if coupled:
        cavity = _parse_cavity(_section(data, "cavity"))
    elif "cavity" in data:
        raise ConfigError("section 'cavity' only applies to coupled_stochastic runs")

    ens = _parse_ensemble(_section(data, "ensemble"), scenario)
    integ_sec = _section(data, "integrator", required=False)
    path = (_take(integ_sec, "integrator", "path", str, default="linearized")
            if coupled else None)
    try:
        pairs = tuple(_build_systems(scenario, cavity, path, omega, epsilon, mass, k_grid))
    except ValueError as err:
        raise ConfigError(str(err))
    systems = [system for _, system in pairs]
    integ = _parse_integrator(integ_sec, systems, ens.horizon, noise, windowed=coupled)
    comp = _parse_compare(_section(data, "compare", required=False))
    try:
        step = step_grid(ens.horizon, integ, ens.probes)[1]
    except ValueError as err:
        raise ConfigError(f"ensemble.probes_time: {err}")

    try:
        for system in systems:
            # systems, initial data and the integrator check consistency
            initial_data(system, ens.initial, ens.in_mode)
            check_integrable(system, step, max_step(noise, ens.horizon))
    except StepResolutionError as err:  # default_dt keeps to the limits, dt_time may not
        raise ConfigError(f"integrator.dt_time: {err}")
    except ValueError as err:
        raise ConfigError(str(err))
    return RunConfig(scenario, noise, integ, ens, pairs, comp, data)


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


def _parse_integrator(sec, systems, horizon, noise, windowed) -> IntegratorConfig:
    dt = _take(sec, "integrator", "dt_time", float, default=None, positive=True)
    if dt is None:
        dt = default_dt(systems, noise, horizon)
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
