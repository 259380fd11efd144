#!/usr/bin/env python3
"""Sampling-error scaling of the Monte Carlo estimator with ensemble size.

Runs the same short single-mode experiment at increasing N and fits the
log-log slope of the standard error, which should sit near -1/2.
"""

import argparse

from stochastic_dce.dynamics import IntegratorConfig, PlainOscillator, default_dt
from stochastic_dce.ensemble import (EnsembleConfig, convergence_report, run_ensemble,
                                    shared_pool)
from stochastic_dce.noise import NoiseKind, NoiseSpec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[100, 300, 1000, 3000])
    ap.add_argument("--horizon", type=float, default=100.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    noise = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=1.0, t_c=0.5)
    system = PlainOscillator(1.0, 0.05)
    icfg = IntegratorConfig(dt=default_dt(1.0, noise, args.horizon))
    stats = []
    with shared_pool():     # one set of workers for every N
        for n in args.sizes:
            ens = EnsembleConfig(n_realizations=n, master_seed=args.seed,
                                 probes=(args.horizon,), horizon=args.horizon)
            s = run_ensemble(system, noise, icfg, ens)
            err = s.standard_error[("beta2_total", 0)][-1]
            print(f"N={n:6d}  <|beta|^2> = {s.mean[('beta2_total', 0)][-1]:.6f} "
                  f"+- {err:.6f}")
            stats.append(s)

    rep = convergence_report(stats)
    verdict = "ok" if rep.scaling_ok else "NOT 1/sqrt(N)"
    print(f"fitted error exponent: {rep.exponent:+.3f}  ({verdict})")


if __name__ == "__main__":
    main()
