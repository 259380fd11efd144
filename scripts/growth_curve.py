#!/usr/bin/env python3
"""Monte Carlo growth curve of a noisy single mode against the resummed law.

Prints a table of <|beta|^2>(t) with sampling errors next to the
closed-form prediction (e^{w^2 Re S(2w) eps^2 t} - 1)/2.  The flags are
written over configs/single_mode_growth.yaml, whose values are their
defaults (but for --probes, a count of probes spread evenly over the
horizon), and the result runs as `sdce simulate` runs it.
"""

import argparse
from pathlib import Path

import numpy as np
import yaml

from stochastic_dce.config import ConfigError, parse_config
from stochastic_dce.ensemble import run_ensemble
from stochastic_dce.theory import msa_stochastic_beta2

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "single_mode_growth.yaml"


def main():
    data = yaml.safe_load(CONFIG.read_text())
    scen, noise, ens = data["scenario"], data["noise"], data["ensemble"]
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega", type=float, default=scen["omega_rad_per_time"])
    ap.add_argument("--epsilon", type=float, default=scen["epsilon"])
    ap.add_argument("--sigma", type=float, default=noise["sigma"])
    ap.add_argument("--t-c", type=float, default=noise["t_c_time"])
    ap.add_argument("--horizon", type=float, default=ens["horizon_time"])
    ap.add_argument("--n", type=int, default=ens["n_realizations"], help="ensemble size")
    ap.add_argument("--seed", type=int, default=ens["master_seed"])
    ap.add_argument("--probes", type=int, default=10)
    args = ap.parse_args()

    scen.update(omega_rad_per_time=args.omega, epsilon=args.epsilon)
    noise.update(sigma=args.sigma, t_c_time=args.t_c)
    ens.update(n_realizations=args.n, master_seed=args.seed, horizon_time=args.horizon,
               probes_time=np.linspace(args.horizon / args.probes, args.horizon,
                                       args.probes).tolist())
    try:
        cfg = parse_config(data)
    except ConfigError as err:
        ap.error(str(err))

    [(_, system, ensemble)] = cfg.systems()
    stats = run_ensemble(system, cfg.noise, cfg.integrator, ensemble)
    th = msa_stochastic_beta2(system.omega, system.epsilon, cfg.noise,
                              np.array(stats.times))
    mc = stats.mean[("beta2_total", 0)]
    se = stats.standard_error[("beta2_total", 0)]
    print(f"{'t':>10} {'MC':>12} {'stderr':>10} {'theory':>12} {'z':>7}")
    for i, t in enumerate(stats.times):
        z = (mc[i] - th[i]) / se[i] if se[i] > 0 else float("nan")
        print(f"{t:10.1f} {mc[i]:12.5f} {se[i]:10.5f} {th[i]:12.5f} {z:7.2f}")


if __name__ == "__main__":
    main()
