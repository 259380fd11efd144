#!/usr/bin/env python3
"""Created-particle spectrum <|beta_k|^2> over comoving wavenumber.

Each k evolves as an independent oscillator at omega = sqrt(k^2 + M^2);
the table compares Monte Carlo against the closed-form spectrum and
shows how noise power at 2*omega(k) shapes the result.
"""

import argparse
import math

import numpy as np

from stochastic_dce.dynamics import IntegratorConfig, PlainOscillator, default_dt
from stochastic_dce.ensemble import EnsembleConfig, derive_seed, run_ensemble, shared_pool
from stochastic_dce.noise import NoiseKind, NoiseSpec, spectrum
from stochastic_dce.theory import cosmo_beta2


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mass", type=float, default=1.0)
    ap.add_argument("--epsilon", type=float, default=0.05)
    ap.add_argument("--t-c", type=float, default=0.5)
    ap.add_argument("--eta", type=float, default=600.0,
                    help="conformal-time horizon")
    ap.add_argument("--k", type=float, nargs="+",
                    default=[0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
    ap.add_argument("--n", type=int, default=200, help="realizations per k")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    noise = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=1.0, t_c=args.t_c)
    print(f"{'k':>6} {'omega':>8} {'ReS(2w)':>9} {'MC':>10} {'stderr':>9} "
          f"{'theory':>10}")
    with shared_pool():     # one set of workers for every k
        for i, k in enumerate(args.k):
            w = math.sqrt(k**2 + args.mass**2)
            ens = EnsembleConfig(n_realizations=args.n,
                                 master_seed=derive_seed(args.seed, i),
                                 probes=(args.eta,), horizon=args.eta)
            system = PlainOscillator(w, args.epsilon)
            icfg = IntegratorConfig(dt=default_dt([system], noise, args.eta))
            stats = run_ensemble(system, noise, icfg, ens)
            mc = stats.mean[("beta2_total", 0)][-1]
            se = stats.standard_error[("beta2_total", 0)][-1]
            th = float(cosmo_beta2(k, args.mass, args.epsilon, noise,
                                   np.array(stats.times)[-1]))
            print(f"{k:6.2f} {w:8.4f} {spectrum(noise, 2 * w).real:9.4f} "
                  f"{mc:10.5f} {se:9.5f} {th:10.5f}")


if __name__ == "__main__":
    main()
