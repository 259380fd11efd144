"""Monte Carlo and analytic toolkit for noise-driven particle creation in
cavities with a randomly moving wall, and its cosmological analogue."""

__version__ = "0.1.0"

from .cavity import CavityConfig
from .config import RunConfig, Scenario, load_config, parse_config
from .dynamics import CavityModes, IntegratorConfig, PlainOscillator, default_dt
from .ensemble import EnsembleConfig, EnsembleStats, run_ensemble
from .noise import NoiseKind, NoiseSpec, correlation, spectrum, synthesize

__all__ = [
    "CavityConfig",
    "RunConfig",
    "Scenario",
    "load_config",
    "parse_config",
    "CavityModes",
    "IntegratorConfig",
    "PlainOscillator",
    "default_dt",
    "EnsembleConfig",
    "EnsembleStats",
    "run_ensemble",
    "NoiseKind",
    "NoiseSpec",
    "correlation",
    "spectrum",
    "synthesize",
]
