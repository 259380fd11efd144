#!/usr/bin/env python3
"""Sampling-error scaling of the Monte Carlo estimator with ensemble size.

Runs the same short single-mode experiment at increasing N and fits the
log-log slope of the standard error, which should sit near -1/2.  The
flags are written over configs/single_mode_growth.yaml, whose seed is
the default of --seed, with the horizon the one probe; each N runs as
`sdce simulate` runs that config at n_realizations N.
"""

import argparse
from pathlib import Path

import yaml

from stochastic_dce.config import ConfigError, parse_config
from stochastic_dce.ensemble import convergence_report, run_ensemble, shared_pool

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "single_mode_growth.yaml"


def main():
    data = yaml.safe_load(CONFIG.read_text())
    ens = data["ensemble"]
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[100, 300, 1000, 3000])
    ap.add_argument("--horizon", type=float, default=100.0)
    ap.add_argument("--seed", type=int, default=ens["master_seed"])
    args = ap.parse_args()

    ens.update(master_seed=args.seed, horizon_time=args.horizon,
               probes_time=[args.horizon])
    try:
        configs = [parse_config({**data, "ensemble": {**ens, "n_realizations": n}})
                   for n in args.sizes]
    except ConfigError as err:
        ap.error(str(err))

    stats = []
    with shared_pool():     # one set of workers for every N
        for cfg in configs:
            [(_, system, ensemble)] = cfg.systems()
            s = run_ensemble(system, cfg.noise, cfg.integrator, ensemble)
            err = s.standard_error[("beta2_total", 0)][-1]
            print(f"N={ensemble.n_realizations:6d}  "
                  f"<|beta|^2> = {s.mean[('beta2_total', 0)][-1]:.6f} +- {err:.6f}")
            stats.append(s)

    rep = convergence_report(stats)
    verdict = "ok" if rep.scaling_ok else "NOT 1/sqrt(N)"
    print(f"fitted error exponent: {rep.exponent:+.3f}  ({verdict})")


if __name__ == "__main__":
    main()
