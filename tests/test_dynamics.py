"""Mode-equation integration, Bogoliubov extraction, and the conserved
quantities that validate the integrator."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import stochastic_dce.dynamics as dyn
import stochastic_dce.noise as noise_mod
from conftest import (
    assert_same_bits,
    bogoliubov_at,
    eval_spectral_complex,
    first_collapse_step,
    matmul_loop,
    rk4_every_step,
    run_every_step,
    windowed_full_profile,
)
from stochastic_dce.cavity import CavityConfig
from stochastic_dce.dynamics import (
    BLOCK_STEPS,
    MAP_STEPS,
    WRONSKIAN_TOL,
    CavityModes,
    DerivativeOrderError,
    IntegratorConfig,
    PlainOscillator,
    StepResolutionError,
    Window,
    decompose,
    drift_law_dt,
    initial_data,
    run_batch,
    step_grid,
    suggest_dt,
    wronskian,
)
from stochastic_dce.noise import NoiseKind, NoiseSpec, eval_batch, synthesize, synthesize_many

OU = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=1.0, t_c=0.5)
BAND = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=1.0, nu_min=1.5, nu_max=2.5,
                 n_components=32)
SILENT = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=0.0, nu_min=1.5, nu_max=2.5)


def resonant_drive(omega):
    return NoiseSpec(kind=NoiseKind.DETERMINISTIC_SINUSOID, omega_drive=2.0 * omega)


# ---------------------------------------------------------------------------
# configuration guards


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)


def test_cavity_modes_refuses_unknown_path():
    cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.01, nz_max=2)
    with pytest.raises(ValueError, match="rk45"):
        CavityModes(cav, "rk45")


def test_step_resolution_guard():
    sys_ = PlainOscillator(omega=10.0, epsilon=0.0)
    real = synthesize(SILENT, 0, 10.0)
    with pytest.raises(StepResolutionError):
        run_every_step(sys_, real, IntegratorConfig(dt=0.05), 10.0)


def test_suggest_dt_respects_resolution_cap():
    for w in (0.5, 1.0, 7.0):
        assert suggest_dt(w, 100.0) * w <= 0.1 + 1e-15


def test_drift_law_dt_follows_the_fifth_power():
    # RK4's drift goes as dt^5: 32 times the bound asks for half the step
    assert drift_law_dt(0.02, 32 * WRONSKIAN_TOL) == pytest.approx(0.01, rel=1e-15)
    assert drift_law_dt(0.02, WRONSKIAN_TOL) == 0.02


def test_ou_noise_refused_for_coupled_runs():
    cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.01, nz_max=2)
    sys_ = CavityModes(cav)
    real = synthesize(OU, 0, 5.0)
    with pytest.raises(DerivativeOrderError):
        run_every_step(sys_, real, IntegratorConfig(dt=0.01), 5.0)
    # the batch itself tells spline noise from cosine sums
    with pytest.raises(DerivativeOrderError):
        run_batch(sys_, synthesize_many(OU, [1, 2], 2.0), IntegratorConfig(dt=0.01),
                  2.0, (2.0,))


# ---------------------------------------------------------------------------
# initial data and window


def test_vacuum_state_values():
    sys_ = PlainOscillator(omega=2.0, epsilon=0.0)
    Q, P = np.split(initial_data(sys_, "vacuum"), 2)
    np.testing.assert_allclose(Q, 1.0 / math.sqrt(4.0), rtol=1e-15)
    np.testing.assert_allclose(P, -1j * math.sqrt(1.0), rtol=1e-15)
    np.testing.assert_allclose(wronskian(Q, P), 1j, rtol=1e-15)


def test_position_kick_state_values():
    sys_ = PlainOscillator(omega=2.0, epsilon=0.0)
    Q, P = np.split(initial_data(sys_, "position_kick"), 2)
    np.testing.assert_array_equal(Q, 1.0)
    np.testing.assert_array_equal(P, 0.0)


def test_window_profile_shape():
    win = Window(ramp=2.0, horizon=10.0)
    t = np.array([0.0, 1.0, 2.0, 5.0, 8.0, 10.0])
    w, d1, d2 = win.profile(t)
    np.testing.assert_allclose(w, [0.0, 0.5, 1.0, 1.0, 1.0, 0.0], atol=1e-15)
    assert d1[0] == 0.0 and d1[2] == pytest.approx(0.0, abs=1e-12)
    assert d2[0] == 0.0
    # monotone up-ramp
    s = np.linspace(0.0, 2.0, 50)
    assert np.all(np.diff(win.profile(s)[0]) >= 0)


def test_window_squared_integral():
    # int_0^1 of the smoothstep profile squared is 181/462; two ramps cost
    # 2 r (1 - 181/462) of effective exposure
    win = Window(ramp=3.0, horizon=20.0)
    t = np.linspace(0.0, 20.0, 200001)
    w = win.profile(t)[0]
    integral = np.trapezoid(w**2, t)
    expected = 20.0 - 2.0 * 3.0 * (1.0 - 181.0 / 462.0)
    assert integral == pytest.approx(expected, rel=1e-6)


def test_window_must_fit_horizon():
    with pytest.raises(ValueError):
        Window(ramp=6.0, horizon=10.0)


# ---------------------------------------------------------------------------
# right-hand sides


def test_free_acceleration_plain():
    sys_ = PlainOscillator(omega=3.0, epsilon=0.0)
    Q = np.array([[1.0 + 2.0j]])
    P = np.array([[0.5j]])
    np.testing.assert_allclose(sys_.accel(Q, P, np.array([0.7]), None, None),
                               -9.0 * Q, rtol=1e-15)


def test_coupled_acceleration_free_when_wall_still():
    cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.01, nz_max=2)
    for path in ("linearized", "exact"):
        sys_ = CavityModes(cav, path)
        rng = np.random.default_rng(0)
        # mode-first: (modes, batch)
        Q = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))).T
        P = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))).T
        zeros = np.zeros(4)
        acc = sys_.accel(Q, P, zeros, zeros, zeros)
        np.testing.assert_allclose(acc, -sys_.omegas[:, None] ** 2 * Q,
                                   rtol=1e-12)


def test_exact_minus_linearized_is_second_order():
    rng = np.random.default_rng(42)
    # mode-first: (modes, batch)
    Q = (rng.standard_normal((100, 3)) + 1j * rng.standard_normal((100, 3))).T
    P = (rng.standard_normal((100, 3)) + 1j * rng.standard_normal((100, 3))).T
    x0 = rng.uniform(-1.0, 1.0, 100)
    x1 = rng.uniform(-1.0, 1.0, 100)
    x2 = rng.uniform(-1.0, 1.0, 100)
    diffs = []
    for eps in (2e-3, 1e-3):
        cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=eps, nz_max=3)
        lin = CavityModes(cav, "linearized")
        exa = CavityModes(cav, "exact")
        diffs.append(np.max(np.abs(lin.accel(Q, P, x0, x1, x2)
                                   - exa.accel(Q, P, x0, x1, x2))))
    ratio = diffs[0] / diffs[1]
    assert 3.5 < ratio < 4.5  # halving epsilon quarters the difference


def test_geometry_collapse_detected():
    # wall crossing the far mirror is a hard per-realization failure
    noisy = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=3.0, nu_min=0.5,
                      nu_max=1.5, n_components=2)
    cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.5, nz_max=1)
    sys_ = CavityModes(cav, "exact")
    horizon = 30.0
    t = np.linspace(0.0, horizon, 2000)
    seed = next(s for s in range(100)
                if np.min(eval_batch(synthesize(noisy, s, horizon), t, (0,))[0]) < -2.2)
    real = synthesize(noisy, seed, horizon)
    res = run_every_step(sys_, real, IntegratorConfig(dt=0.02), horizon)
    assert res.collapsed.tolist() == [True]


def test_collapsed_rows_are_masked_and_leave_the_others_alone():
    # horizon 60 at dt 0.02 is two noise blocks; rows collapse in several
    # map blocks of the first, in the second, or never
    noisy = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=1.02, nu_min=0.5,
                      nu_max=1.5, n_components=2)
    cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.5, nz_max=1)
    sys_ = CavityModes(cav, "exact")
    icfg = IntegratorConfig(dt=0.02)
    horizon, probes, seeds = 60.0, (15.0, 45.0, 60.0), list(range(16))
    first = first_collapse_step(synthesize_many(noisy, seeds, horizon), 0.5, icfg,
                                horizon)
    dead = first >= 0
    assert set(first[dead] // BLOCK_STEPS) == {0, 1}
    assert len(set(first[dead] // MAP_STEPS)) > 2 and not dead.all()

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_batch(sys_, synthesize_many(noisy, seeds, horizon), icfg, horizon,
                        probes)
    assert res.collapsed.tolist() == dead.tolist()
    kept = [s for s, d in zip(seeds, dead) if not d]
    clean = run_batch(sys_, synthesize_many(noisy, kept, horizon), icfg, horizon, probes)
    assert not clean.collapsed.any()
    for name in ("Q", "P", "defect", "least_ell"):
        out = getattr(res, name)
        assert out[~dead].tobytes() == getattr(clean, name).tobytes(), name
        assert np.isnan(out[dead]).all(), name


def test_top_omega_is_the_fastest_instantaneous_frequency():
    # the exact path's top frequency at every half-step of a windowed run,
    # largest per row, is top_omega at the row's least ell; the
    # linearized path has no least ell
    cav = CavityConfig(Lx=2.0, Ly=3.0, Lz0=1.5, epsilon=0.3, nz_max=2)
    icfg = IntegratorConfig(dt=0.01, window_ramp=2.0)
    horizon = 25.0
    noise = synthesize_many(BAND, range(5), horizon)
    exact = CavityModes(cav, "exact")
    res = run_batch(exact, noise, icfg, horizon, (horizon,))
    nsteps, dt, _ = step_grid(horizon, icfg)
    assert nsteps > BLOCK_STEPS
    t = 0.5 * dt * np.arange(2 * nsteps + 1)
    x0 = dyn._windowed(eval_batch(noise, t, (0,)), Window(2.0, horizon), t, (0,))[0]
    ell = 1.0 + 0.3 * x0
    omega = np.pi * np.sqrt(cav.transverse_sq + (2.0 / (1.5 * ell)) ** 2)
    np.testing.assert_allclose(res.least_ell, ell.min(axis=0), rtol=1e-15)
    top = exact.top_omega(res.least_ell)
    np.testing.assert_allclose(top, omega.max(axis=0), rtol=1e-15)
    assert np.all(top > np.max(cav.omegas()))
    linear = run_batch(CavityModes(cav), noise, icfg, horizon, (horizon,))
    assert linear.least_ell is None


# ---------------------------------------------------------------------------
# integration accuracy


def test_free_evolution_matches_phase():
    w = 1.3
    sys_ = PlainOscillator(omega=w, epsilon=0.0)
    horizon = 100.0 / w
    cfg = IntegratorConfig(dt=suggest_dt(w, horizon))
    res = run_every_step(sys_, synthesize(SILENT, 0, horizon), cfg, horizon)
    expected = np.exp(-1j * w * res.times) / math.sqrt(2.0 * w)
    rel = np.max(np.abs(res.Q[0, :, 0] - expected) / np.abs(expected))
    assert rel < 1e-8


def test_free_evolution_keeps_other_modes_empty():
    cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.0, nz_max=3)
    sys_ = CavityModes(cav)
    horizon = 20.0
    cfg = IntegratorConfig(dt=suggest_dt(float(cav.omegas()[-1]), horizon))
    res = run_every_step(sys_, synthesize(SILENT, 0, horizon), cfg, horizon,
                         in_mode=2)
    assert np.max(np.abs(res.Q[0, :, 0])) == 0.0
    assert np.max(np.abs(res.Q[0, :, 2])) == 0.0
    assert np.min(np.abs(res.Q[0, :, 1])) > 0.0


def test_integration_is_deterministic():
    w = 1.0
    cfg = IntegratorConfig(dt=0.01)
    sys_ = PlainOscillator(omega=w, epsilon=0.05)
    a = run_every_step(sys_, synthesize(OU, 7, 30.0), cfg, 30.0)
    b = run_every_step(sys_, synthesize(OU, 7, 30.0), cfg, 30.0)
    np.testing.assert_array_equal(a.Q, b.Q)
    np.testing.assert_array_equal(a.P, b.P)


def _resonant_beta2(w, eps, horizon, dt):
    spec = resonant_drive(w)
    tstar = round(horizon / (0.5 * math.pi)) * 0.5 * math.pi
    sys_ = PlainOscillator(omega=w, epsilon=eps)
    noise = synthesize(spec, 0, tstar)
    res = run_every_step(sys_, noise, IntegratorConfig(dt=dt), tstar)
    _, _, beta = bogoliubov_at(res, noise, sys_.omegas, tstar, rest_tol=0.05)
    return abs(beta[0]) ** 2


def test_step_halving_changes_little_and_shows_fourth_order():
    vals = [_resonant_beta2(1.0, 0.02, 50.0, dt)
            for dt in (0.025, 0.0125, 0.00625, 0.003125)]
    errs = np.abs(np.diff(vals))
    # converged at working steps
    assert errs[0] / vals[0] < 1e-6
    # error falls ~16x per halving
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_wronskian_conserved_under_stochastic_drive():
    w = 1.0
    horizon = 200.0
    cfg = IntegratorConfig(dt=suggest_dt(w, horizon))
    sys_ = PlainOscillator(omega=w, epsilon=0.05)
    res = run_every_step(sys_, synthesize(OU, 3, horizon), cfg, horizon)
    drift = np.abs(wronskian(res.Q, res.P) - 1j)
    assert np.max(drift) < 1e-8


def test_canonical_wronskian_conserved_for_coupled_runs(monkeypatch):
    # once the modes couple, the Wronskian on Q' drifts; the one on the
    # canonical momentum Pi = Q' - lam G Q holds, windowed or not, on
    # both paths, from the probe at t = 0 on; the short ramp ends
    # mid-step on the plain grid, where Pi drifted by 6e-8.  Pi is built
    # here from the run's Q, Q' and the windowed noise at the probes; the
    # recorded symplectic defect holds too, and its (1, m + 1) entry is
    # that vacuum run's Wronskian drift
    full = []
    defect = dyn._symplectic_defect
    monkeypatch.setattr(dyn, "_symplectic_defect",
                        lambda *args: full.append(defect(*args)) or full[-1])
    m = 3
    cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.02, nz_max=m)
    noise = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=1.0, nu_min=9.0,
                      nu_max=10.0, n_components=16)
    for horizon, ramp in ((12.0, 0.0), (12.0, 3.0), (2.0, 0.5)):
        reals = synthesize_many(noise, range(4), horizon)
        for path in ("linearized", "exact"):
            cfg = IntegratorConfig(dt=suggest_dt(float(cav.omegas()[-1]), horizon),
                                   window_ramp=ramp)
            sys_ = CavityModes(cav, path)
            res = run_batch(sys_, reals, cfg, horizon, np.linspace(0.0, horizon, 7))
            assert res.times[0] == 0.0
            win = Window(ramp, horizon) if ramp > 0 else None
            x0, x1, _ = dyn._windowed(eval_batch(reals, res.times, sys_.noise_orders),
                                      win, res.times, sys_.noise_orders)
            Q, P = (v.T for v in (res.Q, res.P))     # (modes, probes, batch)
            Pi = sys_.canonical_momentum(Q, P, x0, x1).T
            drift = np.abs(wronskian(res.Q, Pi) - 1j)
            assert np.max(drift) < 1e-8
            assert np.max(np.abs(wronskian(res.Q, res.P) - 1j)) > 1e-3
            assert np.max(res.defect) < 1e-8
            np.testing.assert_array_equal(res.defect, np.max(full[-1], axis=(0, 1)).T)
            assert np.max(np.abs(full[-1][0, m].T - drift)) <= 1e-15


@pytest.mark.parametrize("horizon, ramp", [(2.0, 0.5), (12.0, 3.0), (40.0, 10.0),
                                           (6.0, 1.5), (1.0, 1.0 / 3.0)])
def test_step_grid_puts_ramp_ends_on_the_grid(horizon, ramp):
    dt = 0.003
    plain, _, _ = step_grid(horizon, IntegratorConfig(dt=dt))
    nsteps, step, _ = step_grid(horizon, IntegratorConfig(dt=dt, window_ramp=ramp))
    assert plain <= nsteps < plain + 4 and step <= dt
    assert abs(ramp / step - round(ramp / step)) < 1e-6


def test_step_grid_refuses_probes_that_share_a_step():
    # 3.0 and 3.02 both round to step 30 of dt 0.1; the same time given
    # twice is one probe, and times a step apart are two
    cfg = IntegratorConfig(dt=0.1)
    with pytest.raises(ValueError, match=r"probe times \[\[3\.0, 3\.02\]\] round to the same"):
        step_grid(10.0, cfg, (6.0, 3.02, 3.0))
    assert step_grid(10.0, cfg, (6.0, 3.0, 3.0))[2].tolist() == [30, 60]
    assert step_grid(10.0, cfg, (3.1, 3.0))[2].tolist() == [30, 31]


def test_step_grid_keeps_plain_grid_when_ramp_cannot_align():
    # 0.1234567891 needs 10^10 steps to land on the grid
    cfg = IntegratorConfig(dt=0.1, window_ramp=0.1234567891)
    assert step_grid(1.0, cfg)[0] == step_grid(1.0, IntegratorConfig(dt=0.1))[0] == 10


def test_linearized_and_exact_beta2_agree_beyond_second_order():
    drive = NoiseSpec(kind=NoiseKind.DETERMINISTIC_SINUSOID,
                      omega_drive=2.0 * math.pi)
    diffs = []
    for eps in (2e-3, 1e-3):
        vals = {}
        for path in ("linearized", "exact"):
            cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=eps, nz_max=1)
            sys_ = CavityModes(cav, path)
            cfg = IntegratorConfig(dt=suggest_dt(math.pi, 30.0))
            noise = synthesize(drive, 0, 30.0)
            res = run_every_step(sys_, noise, cfg, 30.0)
            _, _, beta = bogoliubov_at(res, noise, sys_.omegas, 30.0, rest_tol=1e-9)
            vals[path] = abs(beta[0]) ** 2
        diffs.append(abs(vals["exact"] - vals["linearized"]))
        assert diffs[-1] < 10.0 * eps**3
    assert diffs[0] / diffs[1] > 6.0  # at least cubic in epsilon


# ---------------------------------------------------------------------------
# Bogoliubov extraction


def test_free_run_extracts_identity():
    w = 2.0
    horizon = 25.0
    cfg = IntegratorConfig(dt=suggest_dt(w, horizon))
    sys_ = PlainOscillator(omega=w, epsilon=0.0)
    noise = synthesize(SILENT, 0, horizon)
    res = run_every_step(sys_, noise, cfg, horizon)
    _, alpha, beta = bogoliubov_at(res, noise, sys_.omegas, horizon, rest_tol=1e-8)
    assert abs(alpha[0] - 1.0) < 1e-7
    assert abs(beta[0]) < 1e-9 or abs(beta[0]) < 1e-7
    np.testing.assert_allclose(np.sum(np.abs(alpha) ** 2 - np.abs(beta) ** 2),
                               1.0, atol=1e-9)


def test_resonant_drive_reaches_sinh_growth():
    # amplitude x = w eps t / 4 = 1 after t = 400 at eps = 0.01
    w, eps = 1.0, 0.01
    tstar = round(400.0 / (0.5 * math.pi)) * 0.5 * math.pi
    spec = resonant_drive(w)
    sys_ = PlainOscillator(omega=w, epsilon=eps)
    cfg = IntegratorConfig(dt=suggest_dt(w, tstar))
    noise = synthesize(spec, 0, tstar)
    res = run_every_step(sys_, noise, cfg, tstar)
    t, alpha, beta = bogoliubov_at(res, noise, sys_.omegas, tstar, rest_tol=0.02)
    x = 0.25 * w * eps * t
    assert abs(beta[0]) ** 2 == pytest.approx(math.sinh(x) ** 2, rel=0.02)
    np.testing.assert_allclose(np.sum(np.abs(alpha) ** 2 - np.abs(beta) ** 2),
                               1.0, atol=1e-6)


def test_decompose_inverts_mode_construction():
    rng = np.random.default_rng(1)
    omegas = np.array([1.0, 2.5])
    t = 3.7
    alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    root = np.sqrt(2.0 * omegas)
    Q = (alpha * np.exp(-1j * omegas * t) + beta * np.exp(1j * omegas * t)) / root
    P = (-1j * omegas * alpha * np.exp(-1j * omegas * t)
         + 1j * omegas * beta * np.exp(1j * omegas * t)) / root
    a, b = decompose(Q, P, omegas, t)
    np.testing.assert_allclose(a, alpha, rtol=1e-12)
    np.testing.assert_allclose(b, beta, rtol=1e-12)


# ---------------------------------------------------------------------------
# batched runs


def test_run_batch_matches_single_integrations():
    w = 1.0
    horizon = 40.0
    probes = (10.0, 25.0, 40.0)
    cfg = IntegratorConfig(dt=0.01)
    sys_ = PlainOscillator(omega=w, epsilon=0.05)
    seeds = [11, 12, 13]
    res = run_batch(sys_, synthesize_many(OU, seeds, horizon), cfg, horizon, probes)
    for i, seed in enumerate(seeds):
        one = run_every_step(sys_, synthesize(OU, seed, horizon), cfg, horizon)
        for p, tp in enumerate(res.times):
            j = int(np.argmin(np.abs(one.times - tp)))
            np.testing.assert_allclose(res.Q[i, p], one.Q[0, j], rtol=1e-10)


def test_rows_do_not_depend_on_batch_width():
    # noise and step-matrix blocks have fixed lengths and every mode sum
    # has a fixed order, so a row evaluates and integrates to the same
    # bits alone or in a batch, over several blocks, for the plain
    # oscillator and for three windowed coupled modes on both paths, and
    # so does its symplectic defect
    horizon = 7.0
    cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.02, nz_max=3)
    cases = [(PlainOscillator(omega=2.0, epsilon=0.1), IntegratorConfig(dt=0.001))]
    cases += [(CavityModes(cav, path), IntegratorConfig(dt=0.001, window_ramp=1.5))
              for path in ("linearized", "exact")]
    seeds = [21, 22, 23, 24, 25, 26, 27]
    probes = (0.0, 2.1, 4.5, 7.0)
    for sys_, cfg in cases:
        nsteps, dt, _ = step_grid(horizon, cfg)
        assert nsteps > 3 * BLOCK_STEPS
        wide = run_batch(sys_, synthesize_many(BAND, seeds, horizon), cfg, horizon, probes)
        five = run_batch(sys_, synthesize_many(BAND, seeds[:5], horizon), cfg, horizon,
                         probes)
        for i, seed in enumerate(seeds):
            alone = run_batch(sys_, synthesize(BAND, seed, horizon), cfg, horizon, probes)
            for res in (wide, five) if i < 5 else (wide,):
                for name in ("Q", "P", "defect"):
                    np.testing.assert_array_equal(getattr(res, name)[i],
                                                  getattr(alone, name)[0])
    many = synthesize_many(BAND, seeds[:5], horizon)
    t_half = 0.5 * dt * np.arange(2 * BLOCK_STEPS, 4 * BLOCK_STEPS + 1)
    xi = eval_batch(many, t_half, (0, 1, 2))
    for i, seed in enumerate(seeds[:5]):
        xi_one = eval_batch(synthesize(BAND, seed, horizon), t_half, (0, 1, 2))
        for o in (0, 1, 2):
            np.testing.assert_array_equal(xi[o][:, i], xi_one[o][:, 0])


ORACLE_CAV = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.02, nz_max=3)
ORACLE_BAND = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=1.0, nu_min=9.0,
                        nu_max=10.0, n_components=16)


ORACLE_CASES = ["plain_ou", "linearized_windowed", "exact_kick", "exact_one_mode"]
# 2300 steps: not a multiple of either block length; probes at t = 0,
# inside blocks (steps 100 and 1000), one step before a block boundary
# (63 and 2047, which leave one-step stretches), on block boundaries
# (256 and 2048) and at the horizon
ORACLE_HORIZON = 2.3
ORACLE_PROBES = (0.0, 0.063, 0.1, 0.256, 1.0, 2.047, 2.048, ORACLE_HORIZON)


def oracle_case(case):
    """(system, noise spec, integrator, initial data) of an oracle case."""
    if case == "plain_ou":
        return PlainOscillator(omega=2.0, epsilon=0.1), OU, IntegratorConfig(dt=0.001), "vacuum"
    if case == "linearized_windowed":
        return (CavityModes(ORACLE_CAV), ORACLE_BAND,
                IntegratorConfig(dt=0.001, window_ramp=0.5), "vacuum")
    if case == "exact_one_mode":    # x0, x1 and x2 in the one-mode closed form
        return (CavityModes(dataclasses.replace(ORACLE_CAV, nz_max=1), "exact"),
                ORACLE_BAND, IntegratorConfig(dt=0.001), "vacuum")
    return (CavityModes(ORACLE_CAV, "exact"), ORACLE_BAND, IntegratorConfig(dt=0.001),
            "position_kick")


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_run_batch_matches_per_step_oracle(case):
    horizon = ORACLE_HORIZON
    sys_, noise, cfg, initial = oracle_case(case)
    nsteps, dt, idx = step_grid(horizon, cfg, ORACLE_PROBES)
    assert nsteps == 2300 and list(idx) == [0, 63, 100, 256, 1000, 2047, 2048, 2300]
    assert nsteps % MAP_STEPS and 100 % MAP_STEPS and 1000 % MAP_STEPS
    assert 64 % MAP_STEPS == 0 and 256 % MAP_STEPS == 0 and BLOCK_STEPS == 2048
    reals = synthesize_many(noise, [3, 4, 5], horizon)
    res = run_batch(sys_, reals, cfg, horizon, idx * dt, initial=initial)
    Q, P = rk4_every_step(sys_, reals, cfg, horizon, initial=initial)
    for got, ref in ((res.Q, Q[idx]), (res.P, P[idx])):
        ref = ref.transpose(2, 0, 1)            # (batch, probes, modes)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# the fused kernels against the loops they replace, bit for bit: numpy does
# not document einsum's summation order, so these tests are the contract


@pytest.mark.parametrize("m", [1, 2, 3])
def test_matmul_matches_loop_oracle(m):
    # the operands run_batch hands _matmul: _chain's odd and even halves as
    # strided views and as the contiguous copies it takes, a stretch's
    # product (a strided (d, d, batch) view) times Phi, and
    # _symplectic_defect's swapped axes against the J-rotated snapshots;
    # one-step, odd and full map blocks at every batch width tested
    rng = np.random.default_rng(m)
    d = 2 * m
    for n in (1, 2, 3, 7, MAP_STEPS):
        for width in (1, 2, 3, 32, 257):
            M = rng.standard_normal((d, d, n, width))
            Phi = rng.standard_normal((d, d, width))
            pairs = [(M, M), (M[:, :, 0], Phi),
                     (np.swapaxes(M, 0, 1), np.concatenate([M[m:], -M[:m]]))]
            if n > 1:
                odd, even = M[:, :, 1:n:2], M[:, :, 0:n - 1:2]
                pairs += [(odd, even),
                          (np.ascontiguousarray(odd), np.ascontiguousarray(even))]
            for A, B in pairs:
                assert_same_bits(dyn._matmul(A, B), matmul_loop(A, B))


@pytest.mark.parametrize("orders", [(0,), (0, 1, 2)])
def test_windowed_matches_full_profile(orders):
    # run_batch's half-step blocks of a windowed run (the first one holds
    # the up ramp, the last the down ramp, and the ramp ends sit on the
    # grid), ramps that meet at mid-horizon, and unevenly spaced probes
    rng = np.random.default_rng(11)
    grids = []
    for ramp, horizon in ((3.0, 12.0), (6.0, 12.0), (0.5, 2.3)):
        nsteps, dt, _ = step_grid(horizon, IntegratorConfig(dt=0.003, window_ramp=ramp))
        win = Window(ramp, horizon)
        grids += [(win, 0.5 * dt * np.arange(2 * s, 2 * min(nsteps, s + BLOCK_STEPS) + 1))
                  for s in range(0, nsteps, BLOCK_STEPS)]
        probes = np.sort(rng.uniform(0.0, horizon, 50))
        grids.append((win, np.concatenate([[0.0], probes, [horizon]])))
    for win, t in grids:
        for width in (1, 2, 3, 32, 257):
            xi = {o: rng.standard_normal((t.size, width)) for o in orders}
            ref = windowed_full_profile(xi, win, t, orders)
            got = dyn._windowed({o: v.copy() for o, v in xi.items()}, win, t, orders)
            for g, r in zip(got, ref):
                assert (g is None) == (r is None)
                if g is not None:
                    assert_same_bits(g, r)


@pytest.mark.parametrize("width", [1, 3, 32])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_run_batch_bits_match_reference_kernels(case, width, monkeypatch):
    # the whole run with the loop _matmul, the complex spectral kernel and
    # the full-profile window in place of the fused ones: the same bits
    sys_, spec, cfg, initial = oracle_case(case)
    reals = synthesize_many(spec, range(3, 3 + width), ORACLE_HORIZON)

    def run():
        return run_batch(sys_, reals, cfg, ORACLE_HORIZON, ORACLE_PROBES, initial=initial)

    fused = run()
    monkeypatch.setattr(dyn, "_matmul", matmul_loop)
    monkeypatch.setattr(dyn, "_windowed", windowed_full_profile)
    monkeypatch.setattr(noise_mod, "_eval_spectral", eval_spectral_complex)
    reference = run()
    for name in ("times", "Q", "P", "defect", "collapsed"):
        assert_same_bits(getattr(fused, name), getattr(reference, name))


# ---------------------------------------------------------------------------
# the one-mode step maps, written out, against the unit-vector build


ONE_MODE_CAV = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.02, nz_max=1)


def one_mode_case(case):
    """(system, noise spec, step, whether to zero rows as collapse does)."""
    if case == "plain_ou":
        return PlainOscillator(omega=2.0, epsilon=0.1), OU, 0.004, False
    if case == "linearized":
        return CavityModes(ONE_MODE_CAV), ORACLE_BAND, 0.001, False
    return CavityModes(ONE_MODE_CAV, "exact"), ORACLE_BAND, 0.001, case == "exact_collapsed"


@pytest.mark.parametrize("steps", [1, 7, MAP_STEPS])
@pytest.mark.parametrize("width", [1, 3, 128])
@pytest.mark.parametrize("case", ["plain_ou", "linearized", "exact", "exact_collapsed"])
def test_one_mode_maps_match_the_unit_vector_build(case, width, steps):
    # the general build applied to a one-mode system is the oracle; the
    # two round differently, by a few ulp of each entry
    sys_, spec, dt, collapse = one_mode_case(case)
    noise = synthesize_many(spec, range(width), 2.0)
    t = 0.37 + 0.5 * dt * np.arange(2 * steps + 1)
    x = dyn._windowed(eval_batch(noise, t, sys_.noise_orders), None, t, sys_.noise_orders)
    if collapse:        # run_batch zeroes every order of a collapsed row
        for v in x:
            if v is not None:
                v[:, ::2] = 0.0
    closed = dyn._one_mode_maps(sys_, dt, x)
    general = dyn._step_maps(sys_, dt, *(
        [None if v is None else v[j:j + 2 * steps:2] for v in x] for j in (0, 1, 2)))
    assert closed.shape == general.shape == (2, 2, steps, width)
    np.testing.assert_array_max_ulp(closed, general, maxulp=4)


def test_one_mode_accel_ignores_velocity():
    # the closed form builds a one-mode step from accel(1, 0, ...) alone
    rng = np.random.default_rng(5)
    x = [rng.standard_normal((9, 4)) for _ in range(3)]
    Q = rng.standard_normal((1, 2, 9, 4))
    for sys_ in (PlainOscillator(omega=2.0, epsilon=0.1), CavityModes(ONE_MODE_CAV),
                 CavityModes(ONE_MODE_CAV, "exact")):
        assert sys_.n_modes == 1
        still = sys_.accel(Q, np.zeros_like(Q), *x)
        for _ in range(3):
            assert_same_bits(sys_.accel(Q, rng.standard_normal(Q.shape), *x), still)


def test_maps_are_built_by_mode_count(monkeypatch):
    # a one-mode run never reaches the unit-vector build and a three-mode
    # run never the closed form, so neither can fall back on the other
    def refuse(*args):
        raise AssertionError("wrong build")

    horizon = 0.5
    cases = {1: (PlainOscillator(omega=2.0, epsilon=0.1), OU),
             3: (CavityModes(ORACLE_CAV), ORACLE_BAND)}
    for m, other in ((1, "_step_maps"), (3, "_one_mode_maps")):
        sys_, spec = cases[m]
        own = "_one_mode_maps" if m == 1 else "_step_maps"
        with monkeypatch.context() as patch:
            patch.setattr(dyn, other, refuse)
            run_batch(sys_, synthesize_many(spec, [1, 2], horizon),
                      IntegratorConfig(dt=0.001), horizon, (horizon,))
            patch.setattr(dyn, own, refuse)
            with pytest.raises(AssertionError, match="wrong build"):
                run_batch(sys_, synthesize_many(spec, [1, 2], horizon),
                          IntegratorConfig(dt=0.001), horizon, (horizon,))
