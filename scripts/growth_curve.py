#!/usr/bin/env python3
"""Monte Carlo growth curve of a noisy single mode against the resummed law.

Prints a table of <|beta|^2>(t) with sampling errors next to the
closed-form prediction (e^{w^2 Re S(2w) eps^2 t} - 1)/2.
"""

import argparse

import numpy as np

from stochastic_dce.dynamics import IntegratorConfig, PlainOscillator, default_dt
from stochastic_dce.ensemble import EnsembleConfig, run_ensemble
from stochastic_dce.noise import NoiseKind, NoiseSpec
from stochastic_dce.theory import msa_stochastic_beta2


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega", type=float, default=1.0)
    ap.add_argument("--epsilon", type=float, default=0.05)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--t-c", type=float, default=0.5)
    ap.add_argument("--horizon", type=float, default=2000.0)
    ap.add_argument("--n", type=int, default=500, help="ensemble size")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--probes", type=int, default=10)
    args = ap.parse_args()

    noise = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=args.sigma,
                      t_c=args.t_c)
    probes = tuple(np.linspace(args.horizon / args.probes, args.horizon,
                               args.probes))
    ens = EnsembleConfig(n_realizations=args.n, master_seed=args.seed,
                         probes=probes, horizon=args.horizon)
    icfg = IntegratorConfig(dt=default_dt(args.omega, noise, args.horizon))
    stats = run_ensemble(PlainOscillator(args.omega, args.epsilon), noise,
                         icfg, ens)

    th = msa_stochastic_beta2(args.omega, args.epsilon, noise,
                              np.array(stats.times))
    mc = stats.mean[("beta2_total", 0)]
    se = stats.standard_error[("beta2_total", 0)]
    print(f"{'t':>10} {'MC':>12} {'stderr':>10} {'theory':>12} {'z':>7}")
    for i, t in enumerate(stats.times):
        z = (mc[i] - th[i]) / se[i] if se[i] > 0 else float("nan")
        print(f"{t:10.1f} {mc[i]:12.5f} {se[i]:10.5f} {th[i]:12.5f} {z:7.2f}")


if __name__ == "__main__":
    main()
