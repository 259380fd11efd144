"""Workload definitions and the YAML files the program is given.

Each workload is a shipped config from ``configs/`` plus overrides.  The
benchmark writes the merged config to a file of its own, so the program
sees only a config file, exactly as a user would hand it one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml


@dataclass(frozen=True)
class Workload:
    base: str                   # file name under configs/
    ensemble: dict
    integrator: dict = field(default_factory=dict)
    smoke: dict = field(default_factory=dict)   # tiny sizes, self-test only:
                                                # {section: overrides}


WORKLOADS = {
    # three coupled modes under band-limited noise with a window: the
    # spectral eval_batch and the G-matrix accel; no OU or B-spline code
    "coupled_band": Workload(
        base="coupled_modes.yaml",
        ensemble={"n_realizations": 32, "horizon_time": 12.0,
                  "probes_time": [4.8, 6.6, 8.4, 10.2, 12.0], "workers": 1},
        integrator={"window_ramp_time": 3.0},
        smoke={"ensemble": {"n_realizations": 2, "horizon_time": 2.0,
                            "probes_time": [1.0, 2.0]},
               "integrator": {"window_ramp_time": 0.5}},
    ),
    # four k-systems, one run_ensemble each, at workers 2: OU synthesis,
    # B-spline evaluation and the RK4 loop at a wide batch, and the only
    # place a pool or chunking change shows.  At N=64 per k the timings
    # spread three times wider from run to run than at N=256.
    "cosmo_sweep": Workload(
        base="cosmology.yaml",
        ensemble={"n_realizations": 256, "horizon_time": 25.0,
                  "probes_time": [12.5, 25.0], "workers": 2},
        smoke={"ensemble": {"n_realizations": 4, "horizon_time": 4.0,
                            "probes_time": [2.0, 4.0]}},
    ),
}

# The worker-count determinism check: cosmo_sweep's ensemble at a short
# horizon, run at workers 1 and workers 2 once per invocation.  The runner
# sets N to two chunks per k, so that workers 2 uses the process pool.
WORKER_CHECK = Workload(
    base="cosmology.yaml",
    ensemble={"horizon_time": 2.0, "probes_time": [1.0, 2.0]},
    smoke={"ensemble": {"horizon_time": 0.5, "probes_time": [0.5]}},
)


def pair_seed(seed: int, pair: int) -> int:
    """Master seed of the pair-th same-seed pair of a run."""
    return 1000 * seed + pair


def write_config(root: Path, wl: Workload, path: Path, master_seed: int,
                 smoke: bool = False, **ensemble) -> Path:
    """Merge the shipped config with the workload's overrides into path."""
    with open(root / "configs" / wl.base) as fh:
        data = yaml.safe_load(fh)
    over = {"ensemble": dict(wl.ensemble), "integrator": dict(wl.integrator)}
    if smoke:
        for section, values in wl.smoke.items():
            over[section].update(values)
    over["ensemble"].update(ensemble, master_seed=master_seed)
    for section, values in over.items():
        if values:
            data.setdefault(section, {}).update(values)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)
    return path


def nsteps(horizon: float, dt: float) -> int:
    """RK4 steps the integrator takes to the horizon at step dt."""
    return max(1, int(math.ceil(horizon / dt - 1e-9)))


def realization_steps(cfg) -> int:
    """Sum over systems of N * nsteps for a loaded RunConfig."""
    ens = cfg.ensemble
    return (len(cfg.systems()) * ens.n_realizations
            * nsteps(ens.horizon, cfg.integrator.dt))
