"""Closed-form predictions: hand values, limiting cases, and the internal
consistency between the perturbative and slow-flow pictures."""

import ast
import dataclasses
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.integrate import solve_ivp
from scipy.linalg import expm

from conftest import cavity_epsilon, trapezoid_exposure
from stochastic_dce import theory
from stochastic_dce.cavity import CavityConfig
from stochastic_dce.config import load_config
from stochastic_dce.noise import NoiseKind, NoiseSpec, NotAStochasticProcessError, spectrum
from stochastic_dce.theory import (
    DegenerateSpectrumError,
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

OU = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=1.0, t_c=0.5)
QUASI_1D = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.05, nz_max=3)
SINUSOID = NoiseSpec(kind=NoiseKind.DETERMINISTIC_SINUSOID, omega_drive=2.0)
# flat in-band spectrum around w1 + w2 = 3 pi in QUASI_1D
BAND = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=1.0, nu_min=9.0, nu_max=10.0)


# ---------------------------------------------------------------------------
# perturbative short-time law


def test_perturbative_zero_noise_is_zero():
    silent = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=0.0, t_c=0.5)
    val = perturbative_beta2(QUASI_1D, silent, 1, 2, 50.0)
    assert val == 0.0


def test_perturbative_linear_in_time():
    a = perturbative_beta2(QUASI_1D, OU, 1, 2, 20.0)
    b = perturbative_beta2(QUASI_1D, OU, 1, 2, 40.0)
    assert b == pytest.approx(2.0 * a, rel=1e-14)


def test_perturbative_hand_value_flat_band():
    # quasi-1D v(1,2) = -sqrt(2) pi and a flat in-band spectrum
    # Re S = pi sigma^2 / (2 dnu) give 2 eps^2 T (2 pi^2)(pi/2) = 2 pi^3 eps^2 T
    val = perturbative_beta2(QUASI_1D, BAND, 1, 2, 40.0)
    assert val == pytest.approx(2.0 * math.pi**3 * 0.05**2 * 40.0, rel=1e-9)


def test_perturbative_short_drive_warns():
    with pytest.warns(UserWarning, match="resolves frequencies"):
        perturbative_beta2(QUASI_1D, OU, 1, 1, 0.5)


def test_perturbative_rejects_sinusoid():
    with pytest.raises(NotAStochasticProcessError):
        perturbative_beta2(QUASI_1D, SINUSOID, 1, 2, 20.0)


def test_perturbative_number_sums_partners():
    total = perturbative_number(QUASI_1D, OU, 1, 20.0)
    parts = [perturbative_beta2(QUASI_1D, OU, n, 1, 20.0)
             for n in range(1, QUASI_1D.nz_max + 1)]
    assert total == pytest.approx(sum(parts), rel=1e-14)
    assert total > parts[0]  # intermode channels contribute


@settings(max_examples=25, deadline=None)
@given(st.floats(0.25, 4.0))
def test_perturbative_depends_on_sigma_epsilon_product(c):
    # sigma -> c sigma with eps -> eps / c leaves the prediction unchanged
    base = perturbative_beta2(QUASI_1D, OU, 1, 2, 20.0)
    cav = dataclasses.replace(QUASI_1D, epsilon=QUASI_1D.epsilon / c)
    noise = dataclasses.replace(OU, sigma=OU.sigma * c)
    val = perturbative_beta2(cav, noise, 1, 2, 20.0)
    assert val == pytest.approx(base, rel=1e-10)


# ---------------------------------------------------------------------------
# deterministic resonance


def test_msa_deterministic_hand_value():
    # sinh^2(1) with w eps t / 4 = 1
    assert msa_deterministic_beta2(4.0, 1.0, 1.0) == pytest.approx(
        math.sinh(1.0) ** 2, rel=1e-12)
    assert msa_deterministic_beta2(2.0, 0.1, 0.0) == 0.0


def test_msa_deterministic_matches_quadratic_law_early():
    # sinh^2(x) -> x^2: (w eps t / 4)^2 = (1/4) eps^2 v^2 t^2 with v = w
    w, eps, t = 2.0, 0.01, 0.5
    early = msa_deterministic_beta2(w, eps, t)
    assert early == pytest.approx(0.25 * eps**2 * w**2 * t**2 / 4.0, rel=1e-4)


# ---------------------------------------------------------------------------
# single-mode slow flow


def test_msa_mean_q_initial_values():
    assert msa_mean_q(2.0, 0.1, OU, 0.0) == pytest.approx(1.0 / 2.0, rel=1e-12)
    assert msa_mean_q(2.0, 0.1, OU, 0.0, ics="position_kick") == pytest.approx(
        1.0, rel=1e-12)
    with pytest.raises(ValueError):
        msa_mean_q(2.0, 0.1, OU, 0.0, ics="plane_wave")


def test_msa_mean_q_no_noise_is_free_rotation():
    free = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=0.0, t_c=0.5)
    t = np.linspace(0.0, 10.0, 11)
    q = msa_mean_q(1.5, 0.1, free, t)
    np.testing.assert_allclose(q, np.exp(-1j * 1.5 * t) / math.sqrt(3.0),
                               rtol=1e-12)


def test_msa_mean_q_decay_rate_hand_value():
    # w = 1, OU t_c = 0.5: Re S(2) - S(0) = 0.25 - 0.5, so |<Q>| decays
    # at rate eps^2 / 16
    eps, t = 0.2, 30.0
    ratio = abs(msa_mean_q(1.0, eps, OU, t)) / abs(msa_mean_q(1.0, eps, OU, 0.0))
    assert math.log(ratio) == pytest.approx(-eps**2 / 16.0 * t, rel=1e-10)


def test_msa_mean_q_frequency_shift_sign():
    # Im S(2w) > 0 for this noise lowers the effective frequency, so the
    # damped cosine lags the free one
    eps = 0.3
    t = np.linspace(0.0, 50.0, 50001)
    q = np.real(msa_mean_q(1.0, eps, OU, t, ics="position_kick"))
    # the envelope never vanishes, so zeros of <Q> are zeros of the cosine:
    # their spacing measures the effective frequency directly
    idx = np.nonzero(np.diff(np.sign(q)))[0]
    zeros = t[idx] - q[idx] * (t[idx + 1] - t[idx]) / (q[idx + 1] - q[idx])
    w_eff = math.pi / np.polyfit(np.arange(zeros.size), zeros, 1)[0]
    assert w_eff - 1.0 == pytest.approx(-(eps**2) * 0.25 / 4.0, rel=1e-3)


def test_msa_mean_q2_limits():
    assert msa_mean_q2(1.0, 0.1, OU, 0.0) == pytest.approx(1.0, rel=1e-12)
    free = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=0.0, t_c=0.5)
    t = np.linspace(0.0, 5.0, 101)
    np.testing.assert_allclose(msa_mean_q2(1.0, 0.1, free, t),
                               np.cos(1.0 * t) ** 2, atol=1e-12)


def test_msa_mean_q2_long_time_growth():
    # the non-oscillatory term e^{w^2 Re S(2w) eps^2 t}/2 dominates
    w, eps, t = 1.0, 0.3, 400.0
    val = msa_mean_q2(w, eps, OU, t)
    assert val == pytest.approx(0.5 * math.exp(0.25 * eps**2 * t), rel=1e-3)


def test_msa_stochastic_hand_value():
    # w = 1, Re S(2) = 1/4, eps = 1, t = 10: (e^{2.5} - 1)/2
    val = msa_stochastic_beta2(1.0, 1.0, OU, 10.0)
    assert val == pytest.approx(0.5 * (math.exp(2.5) - 1.0), rel=1e-12)
    assert msa_stochastic_beta2(1.0, 0.3, OU, 0.0) == 0.0


def test_msa_matches_perturbative_slope():
    # short-time slope of the resummed law equals the perturbative rate;
    # holds for any diagonal coupling since v_kk = w_z^2 / w
    cav = CavityConfig(Lx=2.0, Ly=3.0, Lz0=1.0, epsilon=0.04, nz_max=1)
    w = float(cav.omegas()[0])
    t = 1e-9
    msa = msa_stochastic_beta2(w, cavity_epsilon(cav), OU, t)
    with pytest.warns(UserWarning):  # T is deliberately tiny here
        pert = perturbative_beta2(cav, OU, 1, 1, t)
    assert msa == pytest.approx(float(pert), rel=1e-9)


# ---------------------------------------------------------------------------
# coupled slow flow


def test_slow_flow_single_mode_rates():
    cav = CavityConfig(Lx=2.0, Ly=3.0, Lz0=1.0, epsilon=0.04, nz_max=1)
    w = float(cav.omegas()[0])
    wz = float(cav.omega_zs()[0])
    rates = slow_flow_rates(cav, OU)
    S2 = spectrum(OU, 2.0 * w)
    assert rates.gamma_k[0] == pytest.approx(-4.0 * wz**4 / w**2 * S2.real,
                                             rel=1e-12)
    assert rates.rho.shape == (1, 1) and rates.rho[0, 0] == 0.0


def test_slow_flow_silent_noise_is_quiet():
    silent = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=0.0, t_c=0.5)
    rates = slow_flow_rates(QUASI_1D, silent)
    assert np.all(rates.gamma_k == 0.0)
    assert np.all(rates.rho == 0.0)


def test_slow_flow_refuses_degenerate_spectrum():
    class FlatSpectrum(CavityConfig):
        def omegas(self):
            w = super().omegas()
            return np.full_like(w, w[0])

    cav = FlatSpectrum(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.05, nz_max=2)
    with pytest.raises(DegenerateSpectrumError):
        slow_flow_rates(cav, OU)


def test_solve_occupations_initial_identity():
    rates = slow_flow_rates(QUASI_1D, OU)
    sol = solve_occupations(rates, QUASI_1D, 2, [0.0, 10.0])
    w = QUASI_1D.omegas()
    np.testing.assert_allclose(sol.T[0], [0.0, 1.0 / (2.0 * w[1]), 0.0],
                               atol=1e-15)
    assert sol.beta2_total[0] == pytest.approx(0.0, abs=1e-14)


def test_solve_occupations_single_mode_matches_msa():
    cav = CavityConfig(Lx=2.0, Ly=3.0, Lz0=1.0, epsilon=0.04, nz_max=1)
    w = float(cav.omegas()[0])
    t = np.linspace(0.0, 400.0, 9)
    sol = solve_occupations(slow_flow_rates(cav, OU), cav, 1, t)
    expected = msa_stochastic_beta2(w, cavity_epsilon(cav), OU, t)
    np.testing.assert_allclose(sol.beta2_total, expected, rtol=1e-8, atol=1e-12)


def test_solve_occupations_silent_noise_constant():
    silent = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=0.0, t_c=0.5)
    sol = solve_occupations(slow_flow_rates(QUASI_1D, silent), QUASI_1D,
                            1, np.linspace(0.0, 500.0, 6))
    np.testing.assert_allclose(sol.beta2_total, 0.0, atol=1e-12)


def test_solve_occupations_decouples_without_transfer():
    # with the intermode feed zeroed each occupation obeys a scalar linear
    # flow with its own self-rate, so the solution must be the scalar
    # exponential
    rates = slow_flow_rates(QUASI_1D, OU)
    lonely = dataclasses.replace(rates, rho=np.zeros_like(rates.rho))
    t = np.linspace(0.0, 200.0, 5)
    sol = solve_occupations(lonely, QUASI_1D, 1, t)
    tau = QUASI_1D.epsilon**2 * t
    expected = 0.5 * (np.exp(-rates.gamma_k[0] * tau) - 1.0)
    np.testing.assert_allclose(sol.beta2_total, expected, rtol=1e-8, atol=1e-12)
    # the other modes stay empty without a feed
    np.testing.assert_allclose(sol.T[:, 1:], 0.0, atol=1e-15)


def test_solve_occupations_short_slope_matches_perturbative():
    # the initial growth rate of the summed occupations must reproduce the
    # perturbative pair-creation rate, intermode channels included
    t = 1e-4
    for n in (1, 2, 3):
        sol = solve_occupations(slow_flow_rates(QUASI_1D, OU), QUASI_1D, n, [0.0, t])
        with pytest.warns(UserWarning):
            pert = perturbative_number(QUASI_1D, OU, n, t)
        assert sol.beta2_total[1] == pytest.approx(float(pert), rel=1e-5)


@pytest.mark.parametrize("noise, horizon", [(OU, 80.0), (BAND, 4.0)],
                         ids=["ou", "band"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_solve_occupations_matches_independent_integration(noise, horizon, n):
    # the coupled flow with intermode feed, out to beta2 of order one,
    # against an adaptive high-order integration of the same rates
    rates = slow_flow_rates(QUASI_1D, noise)
    t = np.linspace(0.0, horizon, 9)
    sol = solve_occupations(rates, QUASI_1D, n, t)
    w = QUASI_1D.omegas()
    A = -(np.diag(rates.gamma_k) + rates.rho.T)
    T0 = np.zeros(w.size)
    T0[n - 1] = 1.0 / (2.0 * w[n - 1])
    tau = rates.epsilon**2 * t
    ref = solve_ivp(lambda _, y: A @ y, (0.0, tau[-1]), T0, method="DOP853",
                    rtol=1e-12, atol=1e-15, t_eval=tau).y.T
    np.testing.assert_allclose(sol.T, ref, rtol=1e-9, atol=1e-15)
    np.testing.assert_allclose(sol.beta2_total, 0.5 * (ref @ (2.0 * w) - 1.0),
                               rtol=1e-9, atol=1e-15)
    if noise is BAND and n == 3:  # no w_3 +- w_k falls inside the band
        np.testing.assert_allclose(sol.beta2_total, 0.0, atol=1e-12)
    else:
        assert 0.5 < sol.beta2_total[-1] < 2.0


# the cavity of the one system configs/coupled_modes.yaml runs
[(_, COUPLED_SYSTEM)] = load_config(
    Path(__file__).resolve().parent.parent / "configs" / "coupled_modes.yaml").pairs
COUPLED_MODES = COUPLED_SYSTEM.cavity


@pytest.mark.parametrize("cavity", [QUASI_1D, COUPLED_MODES], ids=["quasi_1d", "coupled_modes"])
@pytest.mark.parametrize("noise", [OU, BAND], ids=["ou", "band"])
def test_slow_flow_is_symmetrizable(cavity, noise):
    # the premise of solve_occupations' eigendecomposition: with D = diag(w),
    # D A D^-1 is symmetric to rounding, so the eigenvalues of A are real
    rates = slow_flow_rates(cavity, noise)
    w = cavity.omegas()
    A = -(np.diag(rates.gamma_k) + rates.rho.T)
    S = w[:, None] * A / w
    np.testing.assert_allclose(S, S.T, rtol=0, atol=1e-15 * np.max(np.abs(S)))
    assert np.all(np.linalg.eigvals(A).imag == 0.0)


@pytest.mark.parametrize("cavity", [QUASI_1D, COUPLED_MODES], ids=["quasi_1d", "coupled_modes"])
@pytest.mark.parametrize("noise, tau_end", [(OU, 0.2), (BAND, 0.01)], ids=["ou", "band"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_solve_occupations_matches_expm(cavity, noise, tau_end, n):
    # the eigendecomposition against a general matrix exponential of the
    # same flow, out to beta2 of order one
    rates = slow_flow_rates(cavity, noise)
    t = np.linspace(0.0, tau_end / cavity.epsilon**2, 9)
    sol = solve_occupations(rates, cavity, n, t)
    w = cavity.omegas()
    A = -(np.diag(rates.gamma_k) + rates.rho.T)
    T0 = np.zeros(w.size)
    T0[n - 1] = 1.0 / (2.0 * w[n - 1])
    ref = expm(rates.epsilon**2 * t[:, None, None] * A) @ T0
    np.testing.assert_allclose(sol.T, ref, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(sol.beta2_total, 0.5 * (ref @ (2.0 * w) - 1.0),
                               rtol=1e-12, atol=1e-15)


def test_solve_occupations_validates_inputs():
    rates = slow_flow_rates(QUASI_1D, OU)
    with pytest.raises(ValueError):
        solve_occupations(rates, QUASI_1D, 7, [0.0, 1.0])
    with pytest.raises(ValueError):
        solve_occupations(rates, QUASI_1D, 1, [1.0, 0.5])


# ---------------------------------------------------------------------------
# cosmological analogue


def test_cosmo_monotone_in_conformal_time():
    # each k is the noisy mode at omega = sqrt(k^2 + M^2); k = M = 1 here
    vals = msa_stochastic_beta2(math.sqrt(2.0), 0.1, OU, np.linspace(0.0, 200.0, 21))
    assert np.all(np.diff(vals) > 0)


def test_cosmo_massless_rate_saturates():
    # for M = 0 each k is the noisy mode at omega = k, whose growth
    # exponent per unit eta is k^2 Re S(2k) eps^2,
    # bounded by sigma^2 eps^2 / (4 t_c) at large k
    eps, eta = 0.1, 1.0
    bound = 1.0**2 * eps**2 / (4.0 * OU.t_c)
    ks = np.array([0.5, 1.0, 2.0, 5.0, 50.0])
    rates = np.log(1.0 + 2.0 * msa_stochastic_beta2(ks, eps, OU, eta)) / eta
    assert np.all(rates < bound)
    assert rates[-1] > 0.9 * bound
    assert np.all(np.diff(rates) > 0)


# ---------------------------------------------------------------------------
# windowed exposure


@pytest.mark.parametrize("ramp, horizon", [(3.0, 12.0), (10.0, 40.0), (0.5, 2.0),
                                           (1.0, 2.0)])
def test_windowed_exposure_matches_trapezoid_oracle(ramp, horizon):
    # the oracle's own error is ~1e-9 of the horizon on these ramps
    t = np.linspace(-0.5, horizon + 0.5, 1001)
    np.testing.assert_allclose(windowed_exposure(ramp, horizon, t),
                               trapezoid_exposure(ramp, horizon, t),
                               rtol=0.0, atol=1e-8 * horizon)


def test_windowed_exposure_closed_form_values():
    # int_0^1 of the squared smoothstep is 181/462: each ramp gives r of
    # that, the flat middle its length; the down-ramp mirrors the up-ramp,
    # and the exposure is flat outside [0, T]; E(1) sums terms up to 38 in
    # size, so it rounds to ~1e-14 relative
    r, T = 3.0, 12.0
    e = 181.0 / 462.0
    got = windowed_exposure(r, T, np.array([-1.0, 0.0, r, 6.0, T - r, T, T + 1.0]))
    expected = [0.0, 0.0, r * e, r * e + 6.0 - r, r * e + T - 2 * r,
                T - 2 * r * (1 - e), T - 2 * r * (1 - e)]
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)
    s = np.linspace(0.0, r, 31)
    np.testing.assert_allclose(windowed_exposure(r, T, T) - windowed_exposure(r, T, T - s),
                               windowed_exposure(r, T, s), rtol=1e-13, atol=1e-14)


# ---------------------------------------------------------------------------
# no law that predicts nothing


def test_every_law_is_called_by_the_program():
    # a public law of theory that no module or script calls predicts no
    # output, and is tested only against itself; classes are exempt
    root = Path(__file__).resolve().parent.parent
    called = set()
    for path in [*root.glob("src/**/*.py"), *root.glob("scripts/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name)
                           else getattr(func, "attr", None))
    laws = [name for name in theory.__all__
            if not inspect.isclass(getattr(theory, name))]
    assert laws and [name for name in laws if name not in called] == []
