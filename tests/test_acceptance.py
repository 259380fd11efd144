"""Acceptance suite: Monte Carlo ensembles against the closed-form oracles.

Each criterion (A1-A10) runs at fixed parameters and tolerances and
registers a one-line PASS/FAIL verdict (printed in the terminal summary)
in addition to its pytest assertion.  Expensive ensembles are shared
between criteria through module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from conftest import bogoliubov_at, cavity_epsilon, record_criterion, run_every_step
from stochastic_dce.cavity import CavityConfig
from stochastic_dce.cli import _laws
from stochastic_dce.config import parse_config
from stochastic_dce.dynamics import (
    CavityModes,
    IntegratorConfig,
    PlainOscillator,
    decompose,
    run_batch,
    suggest_dt,
    wronskian,
)
from stochastic_dce.ensemble import EnsembleConfig, run_ensemble
from stochastic_dce.noise import (
    NoiseKind,
    NoiseSpec,
    correlation,
    eval_batch,
    spectrum,
    synthesize,
    synthesize_many,
)
from stochastic_dce.theory import (
    msa_mean_q2,
    msa_stochastic_beta2,
    slow_flow_rates,
    solve_occupations,
    windowed_exposure,
)

OU_HALF = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=1.0, t_c=0.5)
OU_SLOW = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=1.0, t_c=4.0)
SINUSOID = NoiseSpec(kind=NoiseKind.DETERMINISTIC_SINUSOID, omega_drive=2.0)

W = 1.0
EPS = 0.05
GROWTH_RATE = W**2 * spectrum(OU_HALF, 2.0 * W).real * EPS**2   # 0.000625


def within(mc, th, se, k_sigma, rel):
    bound = np.maximum(k_sigma * se, rel * np.abs(th))
    return np.abs(mc - th) <= bound, np.abs(mc - th) / bound


# ---------------------------------------------------------------------------
# shared ensembles


@pytest.fixture(scope="module")
def growth_run():
    """A1: long-horizon stochastic growth, N=2000, t=2000."""
    probes = tuple(np.linspace(200.0, 2000.0, 10))
    ens = EnsembleConfig(n_realizations=2000, master_seed=101, probes=probes,
                         horizon=2000.0, workers=1)
    icfg = IntegratorConfig(dt=suggest_dt(W, 2000.0))
    return run_ensemble(PlainOscillator(W, EPS), OU_HALF, icfg, ens)


@pytest.fixture(scope="module")
def short_time_runs():
    """A2/A4: independent sub-ensembles in the perturbative window
    (eps^2 w t <= 0.2), giving honest between-ensemble errors."""
    probes = (20.0, 40.0, 60.0, 80.0)
    icfg = IntegratorConfig(dt=suggest_dt(W, 80.0))
    means = []
    for rep in range(8):
        ens = EnsembleConfig(n_realizations=250, master_seed=500 + rep,
                             probes=probes, horizon=80.0, workers=1)
        stats = run_ensemble(PlainOscillator(W, EPS), OU_HALF, icfg, ens)
        means.append(stats.mean[("beta2_total", 0)])
        times = np.array(stats.times)
    return times, np.array(means)


@pytest.fixture(scope="module")
def mean_field_run():
    """A5/A6: <Q> and <Q^2> for the kicked oscillator.

    The noise correlation time is 4, where |Re S(2w) - S(0)| is a large
    fraction of the envelope rate, so a 10% rate measurement is within
    reach of N=4000 (at t_c = 0.5 the statistical floor from correlated
    probes exceeds 10%).  Probes come in full-period / quarter-period
    pairs so envelope and phase can be fitted separately.
    """
    per = 2.0 * math.pi / W
    ms = np.unique(np.round(np.geomspace(6, 62, 10))).astype(int)
    horizon = ms[-1] * per + per / 4 + 1.0
    probes = tuple(sorted(np.concatenate([ms * per, ms * per + per / 4])))
    ens = EnsembleConfig(n_realizations=4000, master_seed=21, probes=probes,
                         horizon=horizon, workers=1, initial="position_kick")
    icfg = IntegratorConfig(dt=suggest_dt(W, horizon))
    stats = run_ensemble(PlainOscillator(W, EPS), OU_SLOW, icfg, ens)

    times = np.array(stats.times)
    q = np.array(stats.mean[("q_re", 0)])
    se = np.array(stats.standard_error[("q_re", 0)])
    frac = np.abs((times + per / 2) % per - per / 2) / per
    full = frac < 0.1
    tf, qf, sf = times[full], q[full], se[full]
    tq, qq, sq = times[~full], q[~full], se[~full]
    base_f = ((W * tf + np.pi) % (2.0 * np.pi)) - np.pi     # grid phase ~ 0
    base_q = (W * tq) % (2.0 * np.pi)                       # grid phase ~ pi/2

    # iterate: weighted envelope fit on the full-period probes (correcting
    # for the phase drift), then phase-shift fit on the quarter probes
    d = 0.0
    for _ in range(6):
        y = np.log(np.abs(qf / np.cos(base_f + d * tf)))
        wt = (np.abs(qf) / sf) ** 2
        A = np.vstack([np.ones_like(tf), tf]).T
        coef, *_ = np.linalg.lstsq(A * np.sqrt(wt)[:, None], y * np.sqrt(wt),
                                   rcond=None)
        c0, rate = coef
        env_q = np.exp(c0 + rate * tq)
        ang = np.arccos(np.clip(qq / env_q, -1.0, 1.0))
        dts = (ang - base_q) / tq
        wts = (env_q * np.abs(np.sin(base_q + d * tq)) * tq / sq) ** 2
        d = np.sum(dts * wts) / np.sum(wts)
    cov = np.linalg.inv((A * wt[:, None]).T @ A)
    rate_se = math.sqrt(cov[1, 1])
    shift_se = 1.0 / math.sqrt(np.sum(wts))
    return {
        "stats": stats, "times": times, "station_times": tf,
        "rate": rate, "rate_se": rate_se, "shift": d, "shift_se": shift_se,
    }


@pytest.fixture(scope="module")
def coupled_run():
    """A7: three-mode quasi-1D family driven in the w1+w2 band."""
    cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.02, nz_max=3)
    noise = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=1.0, nu_min=9.0,
                      nu_max=10.0, n_components=64)
    horizon, ramp = 40.0, 10.0
    probes = (16.0, 22.0, 28.0, 34.0, 40.0)
    icfg = IntegratorConfig(dt=suggest_dt(float(cav.omegas()[-1]), horizon),
                            window_ramp=ramp)
    ens = EnsembleConfig(n_realizations=384, master_seed=31, probes=probes,
                         horizon=horizon, workers=1)
    stats = run_ensemble(CavityModes(cav), noise, icfg, ens)

    # the on/off window scales the noise power by w(t)^2, so theory is
    # evaluated at the accumulated exposure int_0^t w^2 ds
    t_eff = windowed_exposure(ramp, horizon, np.array(stats.times))
    sol = solve_occupations(slow_flow_rates(cav, noise), cav, 1, t_eff)
    return cav, noise, icfg, stats, sol


# ---------------------------------------------------------------------------
# criteria


def test_a1_stochastic_growth(growth_run):
    th = 0.5 * (np.exp(GROWTH_RATE * np.array(growth_run.times)) - 1.0)
    mc = growth_run.mean[("beta2_total", 0)]
    se = growth_run.standard_error[("beta2_total", 0)]
    ok, norm = within(mc, th, se, 4.0, 0.10)
    detail = (f"{int(ok.sum())}/10 probes within max(4*stderr, 10%); "
              f"worst normalized deviation {norm.max():.2f}")
    record_criterion("A1 stochastic growth", bool(ok.all()), detail)
    assert ok.all(), detail


def test_a2_perturbative_slope(short_time_runs):
    times, means = short_time_runs
    y = means.mean(axis=0)
    se = means.std(axis=0, ddof=1) / math.sqrt(means.shape[0])
    # beta2(0) = 0 exactly, so fit b*t + c*t^2 through the origin
    A = np.vstack([times, times**2]).T
    Wm = 1.0 / se**2
    cov = np.linalg.inv((A * Wm[:, None]).T @ A)
    b, c = cov @ (A * Wm[:, None]).T @ y
    # the exponential law e^{rt} expands to rt/2, so the short-time slope
    # is half the envelope-squared rate
    slope_true = 0.5 * GROWTH_RATE
    slope_ok = abs(b / slope_true - 1.0) <= 0.10
    quad_z = abs(c) / math.sqrt(cov[1, 1])
    quad_ok = quad_z <= 3.0
    detail = (f"slope {b:.3e} vs {slope_true:.3e} "
              f"({100 * (b / slope_true - 1):+.1f}%); quadratic z={quad_z:.2f}")
    record_criterion("A2 perturbative slope", slope_ok and quad_ok, detail)
    assert slope_ok and quad_ok, detail


def test_a3_deterministic_msa():
    w, eps = 1.0, 0.01
    dt = math.pi / 240.0        # drive zeros m*pi/2 land on the step grid
    stations = [round(100.0 * k / (math.pi / 2)) * math.pi / 2
                for k in range(1, 7)]          # up to w*eps*t/4 = 1.5
    horizon = stations[-1]
    system = PlainOscillator(w, eps)
    noise = synthesize(SINUSOID, 0, horizon)
    res = run_every_step(system, noise, IntegratorConfig(dt=dt), horizon)
    rels = []
    for t_star in stations:
        t, _, beta = bogoliubov_at(res, noise, system.omegas, t_star, rest_tol=1e-6)
        th = math.sinh(0.25 * w * eps * t) ** 2
        rels.append(abs(abs(beta[0]) ** 2 / th - 1.0))
    ok = max(rels) <= 0.02
    detail = (f"6 extraction points up to w*eps*t/4=1.5; worst relative "
              f"error {max(rels):.4f} (tolerance 0.02)")
    record_criterion("A3 deterministic resonance", ok, detail)
    assert ok, detail


def test_a4_scaling_contrast(short_time_runs):
    # deterministic: |beta|^2 ~ T^2 at matched eps and short horizon
    w, eps = 1.0, 0.02
    dt = math.pi / 240.0
    stations = [m * math.pi / 2 for m in (8, 16, 24, 32)]   # w*eps*T/4 <= 0.16
    horizon = stations[-1]
    system = PlainOscillator(w, eps)
    noise = synthesize(SINUSOID, 0, horizon)
    res = run_every_step(system, noise, IntegratorConfig(dt=dt), horizon)
    b2 = [abs(bogoliubov_at(res, noise, system.omegas, t, rest_tol=1e-6)[2][0]) ** 2
          for t in stations]
    det_exp = np.polyfit(np.log(stations), np.log(b2), 1)[0]
    det_ok = 1.9 <= det_exp <= 2.1

    times, means = short_time_runs
    y = means.mean(axis=0)
    sto_exp = np.polyfit(np.log(times), np.log(y), 1)[0]
    sto_ok = 0.9 <= sto_exp <= 1.1
    detail = (f"deterministic exponent {det_exp:.3f} (want 2.0+-0.1), "
              f"stochastic exponent {sto_exp:.3f} (want 1.0+-0.1)")
    record_criterion("A4 scaling contrast", det_ok and sto_ok, detail)
    assert det_ok and sto_ok, detail


def test_a5_mean_field_decay(mean_field_run):
    S2 = spectrum(OU_SLOW, 2.0 * W)
    S0 = spectrum(OU_SLOW, 0.0).real
    rate_true = 0.25 * W**2 * (S2.real - S0) * EPS**2
    shift_true = -(EPS**2) * W**2 * S2.imag / 4.0
    rate, shift = mean_field_run["rate"], mean_field_run["shift"]
    rate_ok = abs(rate / rate_true - 1.0) <= 0.10
    # frequency shift: detected with the correct sign, significant, and
    # of the right order (the fitted magnitude carries a known slow-flow
    # truncation bias of order 30% at this correlation time)
    sig = abs(shift) >= 4.0 * mean_field_run["shift_se"]
    shift_ok = (math.copysign(1.0, shift) == math.copysign(1.0, shift_true)
                and sig and 0.5 <= shift / shift_true <= 1.5)
    detail = (f"envelope rate {rate:.3e} vs {rate_true:.3e} "
              f"({100 * (rate / rate_true - 1):+.1f}%, tol 10%); shift "
              f"{shift:.2e} vs {shift_true:.2e} ({abs(shift) / mean_field_run['shift_se']:.0f} sigma, "
              f"correct sign)")
    record_criterion("A5 mean-field decay", rate_ok and shift_ok, detail)
    assert rate_ok and shift_ok, detail


def test_a6_mean_square_oracle(mean_field_run):
    stats = mean_field_run["stats"]
    tf = mean_field_run["station_times"]
    keep = np.isin(mean_field_run["times"], tf)
    th = msa_mean_q2(W, EPS, OU_SLOW, tf)
    mc = np.array(stats.mean[("q2_re", 0)])[keep]
    se = np.array(stats.standard_error[("q2_re", 0)])[keep]
    ok, norm = within(mc, th, se, 4.0, 0.10)
    detail = (f"{int(ok.sum())}/{ok.size} probes within max(4*stderr, 10%); "
              f"worst normalized deviation {norm.max():.2f}")
    record_criterion("A6 mean-square oracle", bool(ok.all()), detail)
    assert ok.all(), detail


def test_a7_coupled_modes(coupled_run):
    cav, noise, _, stats, sol = coupled_run
    mc = stats.mean[("beta2_total", 0)]
    se = stats.standard_error[("beta2_total", 0)]
    th = sol.beta2_total
    ok, norm = within(mc, th, se, 4.0, 0.15)
    main_ok = bool(ok.all())

    # degeneration cross-check: a band containing only 2*w1 (no other
    # w_k +- w_m) must reduce the coupled flow to the single-mode law
    cube = CavityConfig(Lx=1.0, Ly=1.0, Lz0=1.0, epsilon=0.02, nz_max=3)
    lone = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=1.0, nu_min=10.7,
                     nu_max=11.1)
    w1 = float(cube.omegas()[0])
    others = [float(a + b) for a in cube.omegas() for b in cube.omegas()] + \
             [abs(float(a - b)) for a in cube.omegas() for b in cube.omegas()
              if a != b]
    assert all(not (10.7 <= f <= 11.1) for f in others if abs(f - 2 * w1) > 1e-9)
    t = np.linspace(0.0, 2000.0, 9)
    coupled = solve_occupations(slow_flow_rates(cube, lone), cube, 1, t).beta2_total[1:]
    single = msa_stochastic_beta2(w1, cavity_epsilon(cube), lone, t[1:])
    cross = np.max(np.abs(coupled / single - 1.0))
    cross_ok = cross <= 0.10
    detail = (f"{int(ok.sum())}/5 probes within max(4*stderr, 15%), worst "
              f"normalized {norm.max():.2f}; degeneration cross-check "
              f"max rel {cross:.2e}")
    record_criterion("A7 coupled modes", main_ok and cross_ok, detail)
    assert main_ok and cross_ok, detail


def test_a8_invariants(growth_run, mean_field_run, coupled_run):
    # every completed ensemble already enforced the per-realization bounds
    # (a violation raises); check the largest drift each full ensemble
    # recorded, and measure the actual drifts on fresh sub-batches
    ensembles_clean = all(stats.record["max_wronskian_drift"] <= 1e-8 for stats in
                          (growth_run, mean_field_run["stats"], coupled_run[3]))

    reals = synthesize_many(OU_HALF, range(50), 2000.0)
    icfg = IntegratorConfig(dt=suggest_dt(W, 2000.0))
    res = run_batch(PlainOscillator(W, EPS), reals, icfg, 2000.0, (2000.0,))
    drift = float(np.max(np.abs(
        wronskian(res.Q[:, -1, :], res.P[:, -1, :]) - 1j)))

    cav, noise, icfg7, _, _ = coupled_run
    reals7 = synthesize_many(noise, range(32), 40.0)
    res7 = run_batch(CavityModes(cav), reals7, icfg7, 40.0, (40.0,))
    alpha, beta = decompose(res7.Q[:, -1, :], res7.P[:, -1, :],
                            cav.omegas(), res7.times[-1])
    sum_rule = float(np.max(np.abs(
        np.sum(np.abs(alpha) ** 2 - np.abs(beta) ** 2, axis=1) - 1.0)))

    # RK4 order check: error after step halving falls by ~16
    t_star = round(50.0 / (math.pi / 2)) * math.pi / 2
    vals = []
    for dt in (0.025, 0.0125, 0.00625, 0.003125):
        system = PlainOscillator(1.0, 0.02)
        noise = synthesize(SINUSOID, 0, t_star)
        res = run_every_step(system, noise, IntegratorConfig(dt=dt), t_star)
        _, _, beta = bogoliubov_at(res, noise, system.omegas, t_star, rest_tol=0.02)
        vals.append(abs(beta[0]) ** 2)
    errs = np.abs(np.diff(vals))
    ratio = errs[0] / errs[1]
    ratio_ok = 12.0 <= ratio <= 20.0

    ok = ensembles_clean and drift < 1e-8 and sum_rule < 1e-6 and ratio_ok
    detail = (f"all ensembles clean; max Wronskian drift {drift:.1e} (<1e-8), "
              f"max sum-rule error {sum_rule:.1e} (<1e-6), step-halving "
              f"ratio {ratio:.1f} in [12, 20]")
    record_criterion("A8 invariants", ok, detail)
    assert ok, detail


def test_a9_cosmology():
    eps, mass = 0.05, 1.0
    probes = (300.0, 600.0)
    worst = 0.0
    all_ok = True
    for i, k in enumerate((0.0, 0.5, 1.0, 2.0)):
        w = math.sqrt(k**2 + mass**2)
        icfg = IntegratorConfig(dt=suggest_dt(w, 600.0))
        ens = EnsembleConfig(n_realizations=400, master_seed=900 + i,
                             probes=probes, horizon=600.0, workers=1)
        stats = run_ensemble(PlainOscillator(w, eps), OU_HALF, icfg, ens)
        th = msa_stochastic_beta2(w, eps, OU_HALF, np.array(stats.times))
        ok, norm = within(stats.mean[("beta2_total", 0)], th,
                          stats.standard_error[("beta2_total", 0)], 4.0, 0.10)
        all_ok = all_ok and bool(ok.all())
        worst = max(worst, float(norm.max()))

    # k=0 reduces to the plain oscillator at omega = M identically: the
    # system a cosmology config builds for it runs at M, and the law
    # predict writes for it is the plain oscillator's at M, bit for bit
    cfg = parse_config({
        "scenario": {"kind": "cosmology", "mass_rad_per_time": mass,
                     "k_grid_rad_per_time": [0.0], "epsilon": eps},
        "noise": {"kind": "ornstein_uhlenbeck", "sigma": OU_HALF.sigma,
                  "t_c_time": OU_HALF.t_c},
        "ensemble": {"n_realizations": 1, "horizon_time": 600.0,
                     "probes_time": list(probes)},
    })
    [(_, system, k0)] = cfg.systems()
    t = np.linspace(0.0, 600.0, 7)
    laws = {(quantity, mode): values
            for quantity, mode, values in _laws(cfg, system, k0, t)}
    identical = (system.omegas[0] == mass
                 and np.array_equal(laws[("beta2_total", 0)],
                                    msa_stochastic_beta2(mass, eps, OU_HALF, t)))
    detail = (f"4 k-values x 2 probes within max(4*stderr, 10%), worst "
              f"normalized {worst:.2f}; k=0 identity {'holds' if identical else 'BROKEN'}")
    record_criterion("A9 cosmology", all_ok and identical, detail)
    assert all_ok and identical, detail


def test_a10_noise_statistics():
    N = 10_000
    base = 3.0
    lags = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0)
    times = np.array([base] + [base + u for u in lags])
    vals = np.empty((N, times.size))
    for start in range(0, N, 2000):
        reals = synthesize_many(OU_HALF, range(start, start + 2000), 10.0)
        vals[start:start + 2000] = eval_batch(reals, times, (0,))[0].T
    zs = []
    for j, u in enumerate(lags):
        prod = vals[:, 0] * vals[:, j + 1]
        est = prod.mean()
        se = prod.std(ddof=1) / math.sqrt(N)
        zs.append(abs(est - correlation(OU_HALF, u)) / se)
    ok = max(zs) <= 4.0
    detail = (f"10 probe pairs, N=10^4; worst |z| = {max(zs):.2f} "
              f"(bound 4)")
    record_criterion("A10 noise statistics", ok, detail)
    assert ok, detail
