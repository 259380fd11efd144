"""Closed-form predictions: perturbative short-time laws and the slow-flow
(two-time) resummation for single and coupled modes.

Every cavity law reads its couplings v_nk from CavityConfig.v_matrix().
The coupled slow flow is linear with constant coefficients on the slow
time, and its matrix is similar to a symmetric one, so solve_occupations
evaluates its exact solution at each probe from one symmetric
eigendecomposition.

Conventions: S(nu) is the one-sided spectrum of the noise, tau = eps^2 t
is the slow time for stochastic driving and eps*t for deterministic
resonance.  A cavity law's modes n and k are plain 1-based nz, which
CavityConfig.index refuses outside 1..nz_max.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cavity import CavityConfig
from .noise import NoiseKind, NoiseSpec, NotAStochasticProcessError, spectrum

__all__ = [
    "DegenerateSpectrumError",
    "SlowFlowRates",
    "OccupationSolution",
    "perturbative_beta2",
    "perturbative_number",
    "msa_deterministic_beta2",
    "msa_mean_q",
    "msa_mean_q2",
    "msa_stochastic_beta2",
    "slow_flow_rates",
    "solve_occupations",
    "windowed_exposure",
]


class DegenerateSpectrumError(ValueError):
    """Slow-flow rates assume a nondegenerate mode spectrum."""


def _require_stochastic(noise: NoiseSpec, what: str):
    if noise.kind is NoiseKind.DETERMINISTIC_SINUSOID:
        raise NotAStochasticProcessError(
            f"{what} needs a stochastic noise kind; use msa_deterministic_beta2 "
            "for a sinusoidal drive"
        )


def perturbative_beta2(cavity: CavityConfig, noise: NoiseSpec, n: int, k: int,
                       T: float) -> float:
    """Short-time pair creation 2 eps^2 T v_nk^2 Re S(w_n + w_k).

    Linear in T; valid while eps^2 w T stays below order one.
    """
    _require_stochastic(noise, "perturbative_beta2")
    i, j = cavity.index(n), cavity.index(k)
    wn, wk = cavity.omegas()[[i, j]]
    if (wn + wk) * T < 10.0:
        warnings.warn(
            f"drive length T={T} resolves frequencies only to ~pi/T; "
            f"(w_n + w_k) T = {(wn + wk) * T:.3g} should be >> 1",
            stacklevel=2,
        )
    vnk = cavity.v_matrix()[i, j]
    return float(2.0 * cavity.epsilon**2 * T * vnk**2 * spectrum(noise, wn + wk).real)


def perturbative_number(cavity: CavityConfig, noise: NoiseSpec, k: int,
                        T: float) -> float:
    """N_k = sum_n <|beta_nk|^2> over the retained family, n = 1..nz_max."""
    return sum(perturbative_beta2(cavity, noise, n, k, T)
               for n in range(1, cavity.nz_max + 1))


def msa_deterministic_beta2(omega: float, epsilon: float, t) -> np.ndarray | float:
    """Resonant sinusoidal drive xi = sin(2wt): |beta|^2 = sinh^2(w eps t / 4)."""
    return np.sinh(0.25 * omega * epsilon * np.asarray(t, dtype=float)) ** 2


def msa_mean_q(omega: float, epsilon: float, noise: NoiseSpec, t,
               ics: str = "vacuum") -> np.ndarray | complex:
    """Slow-flow <Q(t)> for the noisy oscillator.

    ics="vacuum": Q(0)=1/sqrt(2w), Q'(0)=-i sqrt(w/2); the mean rotates
    at the shifted frequency w - eps^2 w^2 Im S(2w)/4 and its modulus
    changes at rate (w^2/4)(Re S(2w) - S(0)) eps^2.
    ics="position_kick": Q(0)=1, Q'(0)=0 gives the damped-cosine form.
    """
    _require_stochastic(noise, "msa_mean_q")
    t = np.asarray(t, dtype=float)
    S2 = spectrum(noise, 2.0 * omega)
    S0 = spectrum(noise, 0.0).real
    slow = 0.25 * omega**2 * epsilon**2
    if ics == "vacuum":
        return (np.exp(-1j * omega * t + slow * (S2 - S0) * t)
                / math.sqrt(2.0 * omega))
    if ics == "position_kick":
        shifted = omega - slow * S2.imag
        return (np.exp(slow * (S2.real - S0) * t) * np.cos(shifted * t)).astype(complex)
    raise ValueError(f"unknown initial conditions {ics!r}")


def msa_mean_q2(omega: float, epsilon: float, noise: NoiseSpec, t) -> np.ndarray | float:
    """Slow-flow <Q^2(t)> for Q(0)=1, Q'(0)=0: damped cosine plus growth term."""
    _require_stochastic(noise, "msa_mean_q2")
    t = np.asarray(t, dtype=float)
    S2 = spectrum(noise, 2.0 * omega)
    S0 = spectrum(noise, 0.0).real
    e2 = epsilon**2
    osc = (0.5 * np.exp(0.5 * omega**2 * (S2.real - 2.0 * S0) * e2 * t)
           * np.cos((2.0 * omega - 0.5 * omega**2 * e2 * S2.imag) * t))
    return osc + 0.5 * np.exp(omega**2 * S2.real * e2 * t)


def msa_stochastic_beta2(omega: float, epsilon: float, noise: NoiseSpec,
                         t) -> np.ndarray | float:
    """<|beta|^2> = (e^{w^2 Re S(2w) eps^2 t} - 1)/2 for one noisy mode.

    The law of the plain oscillator, and of each comoving k of a noisy
    mass term at w = sqrt(k^2 + M^2).  A cavity mode obeys it with the
    effective eps -> 2 eps v_kk / w_k (CavityConfig.v_matrix), which gives
    the rate 4 v_kk^2 Re S(2w) = 4 w_z^4 / w^2 Re S(2w).
    """
    _require_stochastic(noise, "msa_stochastic_beta2")
    t = np.asarray(t, dtype=float)
    rate = omega**2 * spectrum(noise, 2.0 * omega).real
    return 0.5 * (np.exp(rate * epsilon**2 * t) - 1.0)


# ---------------------------------------------------------------------------
# coupled slow flow


@dataclass(frozen=True)
class SlowFlowRates:
    """Per-mode slow-flow rates of the coupled family."""

    gamma_k: np.ndarray        # real (m,): occupation self-rates
    rho: np.ndarray            # real (m, m): rho[m, k] couples T_m into T_k'
    epsilon: float


# two frequencies closer than this times their mean count as degenerate
DEGENERACY_RTOL = 1e-6


def slow_flow_rates(cavity: CavityConfig, noise: NoiseSpec) -> SlowFlowRates:
    """Rates of the slow-flow equations for the retained mode family.

    The derivation singles out resonant pairs and assumes a nondegenerate
    spectrum; nearly equal frequencies are refused.
    """
    _require_stochastic(noise, "slow_flow_rates")
    w = cavity.omegas()
    m = w.size
    if m > 1:
        gaps = np.abs(w[:, None] - w[None, :])[~np.eye(m, dtype=bool)]
        if np.min(gaps) < DEGENERACY_RTOL * np.mean(w):
            raise DegenerateSpectrumError(
                "two retained modes are (nearly) degenerate; slow-flow rates "
                "are not valid for this geometry"
            )
    v2 = cavity.v_matrix() ** 2
    v2_self = np.diag(v2).copy()          # (w_z,k^2 / w_k)^2
    np.fill_diagonal(v2, 0.0)             # v_km^2, symmetric, k != m
    S2 = np.asarray(spectrum(noise, 2.0 * w))
    Ssum = np.asarray(spectrum(noise, w[:, None] + w[None, :]))   # S(w_k + w_m)
    Sdif = np.asarray(spectrum(noise, w[:, None] - w[None, :]))   # S(w_k - w_m)

    gam = -4.0 * v2_self * S2.real - np.sum(2.0 * v2 * (Ssum - Sdif).real, axis=1)

    # rho[m, k]: feed of T_m into T_k'.  Written so that sum-frequency
    # noise creates pairs in both partner modes and difference-frequency
    # noise transfers quanta conservatively; this also makes the short-
    # time slope of the totals agree with the perturbative rates.
    rho = -2.0 * v2 * (w[:, None] / w[None, :]) * (Ssum.real + Sdif.T.real)
    return SlowFlowRates(gam, rho, cavity.epsilon)


def windowed_exposure(ramp: float, horizon: float, t) -> np.ndarray:
    """Accumulated drive exposure int_0^t w(s)^2 ds of the on/off window (ramp > 0).

    The window scales the noise power by w(t)^2, so the slow flow of a
    windowed run is evaluated at this exposure instead of at t.  With
    E(u) the integral of the squared smoothstep over [0, u], that is
    r E(t/r) up the ramp, the flat middle, and r (E(1) - E((T - t)/r)) down it.
    """
    t = np.asarray(t, dtype=float)
    # (10u^3 - 15u^4 + 6u^5)^2 integrated from 0, by Horner's rule from u^11 down
    coeffs = [36 / 11, -180 / 10, 345 / 9, -300 / 8, 100 / 7] + [0.0] * 7

    def E(u):
        return np.polyval(coeffs, u)

    up, down = (np.clip(u / ramp, 0.0, 1.0) for u in (t, horizon - t))
    return ramp * (E(up) + E(1.0) - E(down)) + np.clip(t, ramp, horizon - ramp) - ramp


@dataclass(frozen=True)
class OccupationSolution:
    times: np.ndarray          # fast-time grid of the request
    T: np.ndarray              # (nt, m) occupations T_k
    beta2_total: np.ndarray    # (nt,) sum_k <|beta_nk|^2>


def solve_occupations(rates: SlowFlowRates, cavity: CavityConfig, n: int,
                      t_grid) -> OccupationSolution:
    """Solve the occupation flow T' = A T, A = -(gamma + rho^T), on tau = eps^2 t.

    The flow is linear with constant coefficients, so T(tau) = expm(A tau) T(0)
    exactly.  With D = diag(w), D A D^-1 is symmetric (v^2 and the real
    parts of S(w_k +- w_m) are), so one eigendecomposition D A D^-1 =
    V diag(lambda) V^T gives expm(A tau) = D^-1 V e^{lambda tau} V^T D at
    every probe, with real rates and no error carried from one probe to
    the next.
    Initial data T_k(0) = delta_nk / (2 w_k), n the run's in_mode; the
    summed identity sum_k 2 w_k T_k = 1 + 2 sum_k <|beta_nk|^2> converts
    occupations to created particles.
    """
    w = cavity.omegas()
    i = cavity.index(n)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0) or np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be nondecreasing and nonnegative")
    A = -(np.diag(rates.gamma_k) + rates.rho.T)
    lam, V = np.linalg.eigh(w[:, None] * A / w)
    T0 = np.zeros(w.size)
    T0[i] = 1.0 / (2.0 * w[i])
    taus = rates.epsilon**2 * t_grid
    out = (np.exp(np.multiply.outer(taus, lam)) * (V.T @ (w * T0))) @ V.T / w
    totals = 0.5 * (out @ (2.0 * w) - 1.0)
    return OccupationSolution(t_grid, out, totals)
