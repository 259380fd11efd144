#!/usr/bin/env python3
"""Created-particle spectrum <|beta_k|^2> over comoving wavenumber.

Each k evolves as an independent oscillator at omega = sqrt(k^2 + M^2);
the table compares Monte Carlo against the closed-form spectrum and
shows how noise power at 2*omega(k) shapes the result.  The flags are
written over configs/cosmology.yaml, whose values are their defaults
(but for --k), and the result runs as `sdce simulate` runs it: the same
per-k seed streams, one step for the whole sweep, the same refusals.
"""

import argparse
from pathlib import Path

import yaml

from stochastic_dce.config import ConfigError, parse_config
from stochastic_dce.ensemble import run_ensemble, shared_pool
from stochastic_dce.noise import spectrum
from stochastic_dce.theory import msa_stochastic_beta2

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "cosmology.yaml"


def main():
    data = yaml.safe_load(CONFIG.read_text())
    scen, noise, ens = data["scenario"], data["noise"], data["ensemble"]
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mass", type=float, default=scen["mass_rad_per_time"])
    ap.add_argument("--epsilon", type=float, default=scen["epsilon"])
    ap.add_argument("--t-c", type=float, default=noise["t_c_time"])
    ap.add_argument("--eta", type=float, default=ens["horizon_time"],
                    help="conformal-time horizon, the one probe")
    ap.add_argument("--k", type=float, nargs="+",
                    default=[0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
    ap.add_argument("--n", type=int, default=ens["n_realizations"],
                    help="realizations per k")
    ap.add_argument("--seed", type=int, default=ens["master_seed"])
    args = ap.parse_args()

    scen.update(mass_rad_per_time=args.mass, epsilon=args.epsilon,
                k_grid_rad_per_time=args.k)
    noise["t_c_time"] = args.t_c
    ens.update(n_realizations=args.n, master_seed=args.seed,
               horizon_time=args.eta, probes_time=[args.eta])
    try:
        cfg = parse_config(data)
    except ConfigError as err:
        ap.error(str(err))

    print(f"{'k':>6} {'omega':>8} {'ReS(2w)':>9} {'MC':>10} {'stderr':>9} "
          f"{'theory':>10}")
    with shared_pool():     # one set of workers for every k
        for k, (_, system, ensemble) in zip(cfg.k_grid, cfg.systems()):
            stats = run_ensemble(system, cfg.noise, cfg.integrator, ensemble)
            w = float(system.omegas[0])
            mc = stats.mean[("beta2_total", 0)][-1]
            se = stats.standard_error[("beta2_total", 0)][-1]
            th = float(msa_stochastic_beta2(w, system.epsilon, cfg.noise, stats.times[-1]))
            print(f"{k:6.2f} {w:8.4f} {spectrum(cfg.noise, 2 * w).real:9.4f} "
                  f"{mc:10.5f} {se:9.5f} {th:10.5f}")


if __name__ == "__main__":
    main()
