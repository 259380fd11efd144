"""Command-line surface: simulate | predict | compare | spectrum | noise-dump.

Exit codes: 0 success, 1 failed comparison or invariant violation (or
a reader that closed stdout), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import logging
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, Scenario, load_config, parse_config
from .ensemble import RunFailure, derive_seed, run_ensemble, shared_pool
from .dynamics import CavityModes, step_grid
from .noise import eval_batch, synthesize
from .theory import (
    msa_deterministic_beta2,
    msa_mean_q,
    msa_mean_q2,
    msa_stochastic_beta2,
    perturbative_beta2,
    perturbative_number,
    slow_flow_rates,
    solve_occupations,
    windowed_exposure,
)

log = logging.getLogger("sdce")

SERIES_HEADER = ["t", "quantity", "mode", "mean", "stderr"]
PREDICT_HEADER = ["t", "quantity", "mode", "value"]


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return f"{float(x):.17g}"


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """cfg with --seed and --workers written into a copy of its file's
    ensemble section and parsed again: an override is checked like a
    file value, and summary.json's config records the values that ran."""
    changed = {"master_seed": vars(args).get("seed"), "workers": vars(args).get("workers")}
    changed = {key: value for key, value in changed.items() if value is not None}
    if not changed:
        return cfg
    raw = copy.deepcopy(cfg.raw)
    raw["ensemble"].update(changed)
    return parse_config(raw)


# ---------------------------------------------------------------------------
# simulate


def _truncation_check(system, noise, ens) -> None:
    """Warn when a coupled system's retained z-family looks too small for the run."""
    if not isinstance(system, CavityModes):
        return
    cavity = system.cavity
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        top_n = perturbative_beta2(cavity, noise, cavity.nz_max, ens.in_mode,
                                   ens.horizon)
        total = perturbative_number(cavity, noise, ens.in_mode, ens.horizon)
    if total > 0 and top_n > 0.01 * total:
        log.warning(
            "highest retained mode nz=%d carries %.1f%% of the predicted "
            "occupation; raise nz_max to control truncation error",
            cavity.nz_max, 100.0 * top_n / total,
        )


def cmd_simulate(cfg: RunConfig, out_dir) -> int:
    """Run cfg.systems()'s (label, system, ensemble) triples, each on
    the seed stream its ensemble holds, in one shared pool; write
    summary.json, and series.csv unless a system fails (then return 1)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    systems = cfg.systems()
    rows = []
    seed_info = {
        "master_seed": cfg.ensemble.master_seed,
        "scheme": "seed_i = splitmix64(master + i*0x9E3779B97F4A7C15 mod 2^64)",
        "per_system": {},
    }
    summary = {
        "version": __version__,
        "scenario": cfg.scenario.value,
        "config": cfg.raw,
        "seeds": seed_info,
    }

    def report(label, record):
        # one summary.json entry per key of the ensemble's record
        for key, value in record.items():
            summary.setdefault(key, {})[str(label)] = value

    started = time.time()
    code = 0
    violations = []
    # every system's pooled run reuses one set of workers
    with shared_pool():
        for label, system, ens in systems:
            log.info("simulating system %d/%d (%d realizations)",
                     label, len(systems), ens.n_realizations)
            _truncation_check(system, cfg.noise, ens)
            seed_info["per_system"][str(label)] = {
                "sub_master": ens.master_seed,
                "realization_seeds": [derive_seed(ens.master_seed, i)
                                      for i in range(ens.n_realizations)],
            }
            try:
                stats = run_ensemble(system, cfg.noise, cfg.integrator, ens)
            except RunFailure as err:
                report(label, err.record)
                violations = err.violations
                code = 1
                log.error("%s", err)
                break
            report(label, stats.record)
            rows.extend(_series_rows(cfg, label, stats))
    summary["violations"] = violations
    summary["runtime_seconds"] = time.time() - started

    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    if code == 0:
        with open(out_dir / "series.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(SERIES_HEADER)
            w.writerows(rows)
        log.info("wrote %s and %s", out_dir / "series.csv", out_dir / "summary.json")
    return code


def _mode_column(cfg, label, mode):
    """A row's mode: its k's label in a cosmology sweep, else the quantity's own."""
    return label if cfg.scenario is Scenario.COSMOLOGY else mode


def _series_rows(cfg, label, stats):
    rows = []
    for (quantity, mode), mean in stats.mean.items():
        out_mode = _mode_column(cfg, label, mode)
        err = stats.standard_error[(quantity, mode)]
        for p, t in enumerate(stats.times):
            rows.append([_fmt(t), quantity, out_mode, _fmt(mean[p]), _fmt(err[p])])
    return rows


# ---------------------------------------------------------------------------
# predict


def cmd_predict(cfg: RunConfig, out_dir) -> int:
    """Write predictions.csv: the closed forms of each (label, system,
    ensemble) triple of cfg.systems(), the list `simulate` runs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for label, system, ens in cfg.systems():
        # probe times rounded to the integrator grid, as simulate reports them
        _, dt, idx = step_grid(ens.horizon, cfg.integrator, ens.probes)
        t = idx * dt
        for quantity, mode, values in _laws(cfg, system, ens, t):
            out_mode = _mode_column(cfg, label, mode)
            vals = np.broadcast_to(np.asarray(values), t.shape)
            rows.extend([_fmt(t[p]), quantity, out_mode, _fmt(vals[p])]
                        for p in range(t.size))

    with open(out_dir / "predictions.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(PREDICT_HEADER)
        w.writerows(rows)
    log.info("wrote %s", out_dir / "predictions.csv")
    return 0


def _laws(cfg, system, ens, t):
    """(quantity, mode, values at t) of one system's closed forms: the
    coupled slow flow for a cavity (at the window's exposure), and for a
    plain oscillator, one mode or one k, the single-mode laws of its drive
    and initial data, whatever the scenario."""
    noise = cfg.noise
    if isinstance(system, CavityModes):
        ramp = cfg.integrator.window_ramp
        t_eval = windowed_exposure(ramp, ens.horizon, t) if ramp > 0 else t
        sol = solve_occupations(slow_flow_rates(system.cavity, noise), system.cavity,
                                ens.in_mode, t_eval)
        return [("beta2_total", 0, sol.beta2_total)]
    w, eps = system.omega, system.epsilon
    if not noise.is_stochastic:
        resonant = abs(noise.omega_drive - 2.0 * w) <= math.pi / ens.horizon
        b2 = msa_deterministic_beta2(w, eps, t) if resonant else np.zeros_like(t)
        return [("beta2", 1, b2), ("beta2_total", 0, b2)]
    if ens.initial == "position_kick":
        q = msa_mean_q(w, eps, noise, t, "position_kick")
        q2 = msa_mean_q2(w, eps, noise, t)
        return [("q_re", 0, q.real), ("q_im", 0, np.zeros_like(t)),
                ("q2_re", 0, q2), ("q2_im", 0, np.zeros_like(t)), ("abs_q2", 0, q2)]
    b2 = msa_stochastic_beta2(w, eps, noise, t)
    q = msa_mean_q(w, eps, noise, t, "vacuum")
    return [("beta2", 1, b2), ("beta2_total", 0, b2), ("q_re", 0, q.real),
            ("q_im", 0, q.imag), ("abs_q2", 0, (1.0 + 2.0 * b2) / (2.0 * w))]


# ---------------------------------------------------------------------------
# compare


# how compare reads each column; the first three are a row's key, and an
# N 1 run writes no stderr
SERIES_CELLS = (float, str, int, float, lambda cell: float(cell) if cell else math.nan)
PREDICT_CELLS = (float, str, int, float)


def _read_csv(path, expected_header, cells):
    """{(t, quantity, mode): the row's other values}, each cell read by its
    column's entry of cells.  A cell that does not read, a row of the wrong
    length or a repeated key is a ConfigError naming file, line and column."""
    table, lines = {}, {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != expected_header:
                raise ConfigError(f"{path}: expected columns {expected_header}, "
                                  f"found {header}")
            for row in reader:
                where = f"{path}, line {reader.line_num}"
                if len(row) != len(cells):
                    raise ConfigError(f"{where}: expected {len(cells)} cells, "
                                      f"found {len(row)}")
                values = []
                for name, read, cell in zip(expected_header, cells, row):
                    try:
                        values.append(read(cell))
                    except ValueError:
                        raise ConfigError(f"{where}, column {name}: cannot read "
                                          f"{cell!r}") from None
                key = tuple(values[:3])
                if key in lines:
                    raise ConfigError(f"{where}: repeats the (t, quantity, mode) "
                                      f"of line {lines[key]}")
                lines[key] = reader.line_num
                table[key] = values[3:]
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err})") from None
    return table


def cmd_compare(cfg: RunConfig, out_dir) -> int:
    """Join series.csv and predictions.csv on (t, quantity, mode) into
    compare.json; 0 on PASS, 1 on FAIL.  Simulated rows with no prediction
    are counted per quantity (n_simulated_only)."""
    simulated = _read_csv(out_dir / "series.csv", SERIES_HEADER, SERIES_CELLS)
    theory = {key: value for key, [value] in
              _read_csv(out_dir / "predictions.csv", PREDICT_HEADER, PREDICT_CELLS).items()}
    tol = cfg.compare
    points = []
    simulated_only = {}
    for key, (mean, stderr) in simulated.items():
        ref = theory.get(key)
        simulated_only[key[1]] = simulated_only.get(key[1], 0) + (ref is None)
        if ref is None:
            continue
        diff = mean - ref
        bound = tol.rel_tol * abs(ref)
        if not math.isnan(stderr):
            bound = max(bound, tol.k_sigma * stderr)
        points.append({
            "t": key[0], "quantity": key[1], "mode": key[2],
            "mc": mean, "theory": ref, "diff": diff, "bound": bound,
            "pass": abs(diff) <= bound,
        })
    if not points:
        raise ConfigError("no joinable (t, quantity, mode) points between inputs")

    # a predicted point without a simulated row fails the comparison
    unmatched = sorted(theory.keys() - simulated.keys())
    if unmatched:
        t, quantity, mode = unmatched[0]
        log.error("%d predicted point(s) have no simulated row; first: "
                  "t=%s quantity=%s mode=%d", len(unmatched), _fmt(t), quantity, mode)

    points.sort(key=lambda p: (p["quantity"], p["mode"], p["t"]))
    n_pass = sum(p["pass"] for p in points)
    frac = n_pass / len(points)
    runs_z = _runs_test([p["diff"] for p in points])
    ok = frac >= 0.95 and (runs_z is None or abs(runs_z) <= 4.0) and not unmatched

    report = {
        "n_points": len(points),
        "n_unmatched_predicted": len(unmatched),
        "n_simulated_only": dict(sorted(simulated_only.items())),
        "n_pass": n_pass,
        "pass_fraction": frac,
        "runs_test_z": runs_z,
        "overall_pass": ok,
        "points": points,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "compare.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    log.info("compare: %d/%d points pass (runs z=%s), %d simulated row(s) with no "
             "prediction -> %s", n_pass, len(points), runs_z,
             sum(simulated_only.values()), "PASS" if ok else "FAIL")
    print(f"{n_pass}/{len(points)} points within tolerance; "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _runs_test(diffs):
    """Wald-Wolfowitz z on the sign sequence; None if too few of a sign."""
    signs = [d > 0 for d in diffs if d != 0]
    n_pos = sum(signs)
    n_neg = len(signs) - n_pos
    if min(n_pos, n_neg) < 5:
        return None
    runs = 1 + sum(signs[i] != signs[i - 1] for i in range(1, len(signs)))
    n = n_pos + n_neg
    mu = 2.0 * n_pos * n_neg / n + 1.0
    var = (mu - 1.0) * (mu - 2.0) / (n - 1.0)
    return (runs - mu) / math.sqrt(var)


# ---------------------------------------------------------------------------
# spectrum and noise-dump


def cmd_spectrum(cfg: RunConfig) -> int:
    """Print the mode table of the coupled system's cavity."""
    _, system, _ = cfg.systems()[0]
    if not isinstance(system, CavityModes):
        raise ConfigError("spectrum needs a coupled_stochastic config with a "
                          "cavity section")
    w = csv.writer(sys.stdout)
    w.writerow(["nz", "omega_rad_per_time", "omega_z_rad_per_time"])
    for nz, (om, omz) in enumerate(zip(system.omegas, system.omega_zs), start=1):
        w.writerow([nz, _fmt(om), _fmt(omz)])
    return 0


def cmd_noise_dump(cfg: RunConfig) -> int:
    """Print realization 0 of the first system's stream, unwindowed, on
    the step grid simulate integrates it on."""
    _, _, ens = cfg.systems()[0]     # --seed, if given, is already in cfg
    nsteps, step, _ = step_grid(ens.horizon, cfg.integrator)
    t = np.arange(nsteps + 1) * step
    noise = synthesize(cfg.noise, derive_seed(ens.master_seed, 0), ens.horizon)
    xi = eval_batch(noise, t, (0, 1, 2))
    cols = [xi[o][:, 0] for o in (0, 1, 2)]
    w = csv.writer(sys.stdout)
    w.writerow(["t", "xi", "xi_dot", "xi_ddot"])
    for i in range(t.size):
        w.writerow([_fmt(t[i]), _fmt(cols[0][i]), _fmt(cols[1][i]), _fmt(cols[2][i])])
    return 0


# ---------------------------------------------------------------------------
# entry point


FLAGS = {
    "--out": dict(default=".", help="output directory"),
    "--seed": dict(type=int, default=None, help="override the master seed"),
    "--workers": dict(type=int, default=None, help="override the worker count"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sdce",
        description="Monte Carlo and analytic toolkit for noise-driven "
                    "particle creation",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # each subcommand takes --config, --quiet and the FLAGS it reads
    for name, doc, flags in (
        ("simulate", "run the ensemble and write series.csv + summary.json",
         ("--out", "--seed", "--workers")),
        ("predict", "evaluate closed-form predictions on the probe grid", ("--out",)),
        ("compare", "check OUT/series.csv against OUT/predictions.csv", ("--out",)),
        ("spectrum", "print the cavity mode table", ()),
        ("noise-dump", "print one noise realization with derivatives", ("--seed",)),
    ):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", required=True, help="YAML run configuration")
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
        sp.add_argument("--quiet", action="store_true")
    return p


def main(argv=None) -> int:
    from pathlib import Path

    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(message)s")
    # the package's own logger, so --quiet holds whatever handlers the
    # root logger already has
    log.setLevel(logging.WARNING if args.quiet else logging.INFO)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "noise-dump":
            return cmd_noise_dump(cfg)
        run = {"simulate": cmd_simulate, "predict": cmd_predict, "compare": cmd_compare}
        return run[args.command](cfg, Path(args.out))
    except ConfigError as err:
        log.error("%s", err)
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (`sdce noise-dump ... | head`): point it at
        # devnull for the flush at exit; SIGPIPE stays ignored for the pool's pipes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
