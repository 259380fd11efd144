"""Mode-equation integration and Bogoliubov extraction.

Everything integrates with fixed-step RK4; the noise is evaluated
analytically at the substeps, so halving the step keeps the realization
identical and the scheme shows clean 4th-order convergence.

The integrator runs a whole batch of realizations at once on (batch,
n_modes) complex arrays and snapshots (Q, Q', Pi) at the probe times,
where Pi is the system's canonical momentum; a single trajectory is a
batch of one probed at every step.  Noise values for all substeps are
produced in fixed blocks of 2048 steps, which bounds memory on long
horizons; the block boundaries do not depend on the batch width, so
neither do the bits of a noise row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityConfig
from .noise import NoiseBatch, eval_batch

__all__ = [
    "IntegratorConfig",
    "suggest_dt",
    "Window",
    "PlainOscillator",
    "CavityModes",
    "StepResolutionError",
    "DerivativeOrderError",
    "GeometryCollapseError",
    "step_grid",
    "run_batch",
    "decompose",
    "wronskian",
]

# RK4 steps per noise-evaluation block: a multiple of half the noise
# module's anchor stride, so anchors sit at the same grid points in
# every block.
BLOCK_STEPS = 2048


class StepResolutionError(ValueError):
    """dt too coarse for the fastest retained mode."""


class DerivativeOrderError(ValueError):
    """Noise kind cannot supply the smooth derivatives a coupled run needs."""


class GeometryCollapseError(RuntimeError):
    """1 + eps*xi(t) <= 0 on the exact path: the moving wall crossed z=0."""

    def __init__(self, batch_indices):
        self.batch_indices = list(batch_indices)
        super().__init__(f"cavity length collapsed for realizations {self.batch_indices}")


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    path: str = "linearized"  # or "exact"
    window_ramp: float = 0.0  # C^2 on/off ramp duration at each end; 0 = none

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.path not in ("linearized", "exact"):
            raise ValueError(f"unknown path {self.path!r}")
        if self.window_ramp < 0:
            raise ValueError("window_ramp must be >= 0")


def suggest_dt(omega_max: float, horizon: float, drift_budget: float = 1e-8,
               amplitude_margin: float = 100.0) -> float:
    """Step size keeping the RK4 Wronskian drift under drift_budget.

    RK4 damps a harmonic mode by (omega dt)^6/72 per step, so the drift
    over the run is ~ horizon * omega^6 dt^5 / 72 times the amplitude
    scale reached; amplitude_margin covers the growth of the worst
    realizations.  Capped at 0.1/omega in any case.
    """
    dt = (72.0 * drift_budget / (horizon * omega_max**6 * amplitude_margin)) ** 0.2
    return min(dt, 0.1 / omega_max)


# ---------------------------------------------------------------------------
# C^2 window


@dataclass(frozen=True)
class Window:
    """Smoothstep ramp up over [0, ramp] and down over [T-ramp, T]."""

    ramp: float
    horizon: float

    def __post_init__(self):
        if self.ramp < 0 or 2 * self.ramp > self.horizon:
            raise ValueError("window ramps must fit inside the horizon")

    def profile(self, t: np.ndarray):
        """Returns (w, w', w'') arrays."""
        t = np.asarray(t, dtype=float)
        w = np.ones_like(t)
        d1 = np.zeros_like(t)
        d2 = np.zeros_like(t)
        if self.ramp == 0:
            return w, d1, d2
        r = self.ramp
        up = t < r
        dn = t > self.horizon - r
        for mask, s, sign in ((up, t[up] / r, 1.0), (dn, (self.horizon - t[dn]) / r, -1.0)):
            s = np.clip(s, 0.0, 1.0)
            w[mask] = s**3 * (10.0 - 15.0 * s + 6.0 * s**2)
            d1[mask] = sign * 30.0 * s**2 * (1.0 - s) ** 2 / r
            d2[mask] = 60.0 * s * (1.0 - s) * (1.0 - 2.0 * s) / r**2
        return w, d1, d2


def _windowed(xi: dict[int, np.ndarray], win: Window | None, t: np.ndarray,
              orders: tuple[int, ...]):
    """Apply the window to raw noise values/derivatives."""
    if win is None or win.ramp == 0:
        return tuple(xi.get(o) for o in (0, 1, 2))
    w, w1, w2 = win.profile(t)
    x0 = w * xi[0]
    x1 = x2 = None
    if 1 in orders:
        x1 = w * xi[1] + w1 * xi[0]
    if 2 in orders:
        x2 = w * xi[2] + 2.0 * w1 * xi[1] + w2 * xi[0]
    return x0, x1, x2


# ---------------------------------------------------------------------------
# systems


class PlainOscillator:
    """Random harmonic oscillator Q'' + omega^2 (1 + eps*xi) Q = 0.

    This is the single-mode law of the cosmological mapping and of the
    generic noisy oscillator; the cavity's own single-mode reduction is
    CavityModes with nz_max=1.
    """

    def __init__(self, omega: float, epsilon: float):
        if omega <= 0:
            raise ValueError("omega must be > 0")
        self.omega = float(omega)
        self.epsilon = float(epsilon)
        self.n_modes = 1
        self.noise_orders = (0,)
        self.omegas = np.array([self.omega])

    def accel(self, Q, P, x0, x1, x2):
        return -(self.omega**2) * (1.0 + self.epsilon * x0[:, None]) * Q


class CavityModes:
    """Coupled cavity mode equations for one transverse family.

    path="linearized" keeps terms first order in the wall displacement
    (static frequencies, the three driving terms); path="exact" keeps
    the full time-dependent frequency and the log-derivative couplings.
    """

    def __init__(self, cavity: CavityConfig, path: str = "linearized"):
        self.cavity = cavity
        self.path = path
        self.n_modes = cavity.nz_max
        self.epsilon = cavity.epsilon
        self.omegas = cavity.omegas()
        self.omega_zs = cavity.omega_zs()
        self.gmat = cavity.g_matrix()
        self.gT = np.ascontiguousarray(self.gmat.T)
        self.gg = self.gmat.T @ self.gmat  # sum_l g_lk g_lj
        if path == "exact" or self.n_modes > 1:
            self.noise_orders = (0, 1, 2)
        else:
            self.noise_orders = (0,)

    def accel(self, Q, P, x0, x1, x2):
        if self.path == "exact":
            return self._accel_exact(Q, P, x0, x1, x2)
        eps = self.epsilon
        a = (-self.omegas**2 + (2.0 * eps) * x0[:, None] * self.omega_zs**2) * Q
        if self.n_modes > 1:
            a += (2.0 * eps) * x1[:, None] * (P @ self.gT)
            a += eps * x2[:, None] * (Q @ self.gT)
        return a

    def canonical_momentum(self, Q, P, x0, x1):
        """Pi = Q' - lam G Q with lam = eps xi' (over 1 + eps xi on the exact path).

        Both paths derive from a Lagrangian with this canonical momentum,
        so the Wronskian built on Pi is conserved while the Q' one is not.
        With one mode G = 0 and Pi = Q'; run_batch then skips the call.
        """
        lam = self.epsilon * x1
        if self.path == "exact":
            lam = lam / (1.0 + self.epsilon * x0)
        return P - lam[:, None] * (Q @ self.gT)

    def _accel_exact(self, Q, P, x0, x1, x2):
        eps = self.epsilon
        ell = 1.0 + eps * x0
        if np.any(ell <= 1e-12):
            raise GeometryCollapseError(np.nonzero(ell <= 1e-12)[0])
        ell = ell[:, None]
        lam = eps * x1[:, None] / ell
        lam_dot = eps * x2[:, None] / ell - lam**2
        w2 = np.pi**2 * (self.cavity.transverse_sq
                         + (np.arange(1, self.n_modes + 1) / (self.cavity.Lz0 * ell)) ** 2)
        # pi^2 transverse part is constant; z part scales with 1/Lz(t)^2
        a = -w2 * Q
        a += 2.0 * lam * (P @ self.gT)
        a += lam_dot * (Q @ self.gT)
        a += lam**2 * (Q @ self.gg.T)
        return a


def vacuum_state(system, batch: int, in_mode: int = 1):
    """Q_k = delta_kn / sqrt(2 w_n), Q'_k = -i sqrt(w_n/2) delta_kn."""
    m = system.n_modes
    if not 1 <= in_mode <= m:
        raise ValueError(f"in_mode must be in 1..{m}")
    wn = system.omegas[in_mode - 1]
    Q = np.zeros((batch, m), dtype=complex)
    P = np.zeros((batch, m), dtype=complex)
    Q[:, in_mode - 1] = 1.0 / math.sqrt(2.0 * wn)
    P[:, in_mode - 1] = -1j * math.sqrt(wn / 2.0)
    return Q, P


def position_kick_state(system, batch: int, in_mode: int = 1):
    """Q_n = 1, Q'_n = 0 (the classic mean-value initial data)."""
    m = system.n_modes
    Q = np.zeros((batch, m), dtype=complex)
    P = np.zeros((batch, m), dtype=complex)
    Q[:, in_mode - 1] = 1.0
    return Q, P


# ---------------------------------------------------------------------------
# batched fixed-step RK4


@dataclass
class BatchResult:
    times: np.ndarray           # (n_probes,) actual grid-aligned probe times
    Q: np.ndarray               # (batch, n_probes, n_modes) complex
    P: np.ndarray               # Q'
    Pi: np.ndarray              # canonical momentum; P itself for one mode


def step_grid(horizon: float, integrator: IntegratorConfig, probe_times=()):
    """The fixed RK4 grid of a run and the probe times rounded onto it.

    The step is the largest one <= integrator.dt that divides the horizon
    and, for a windowed run, puts the ramp ends t = r and T - r on the
    grid: the smoothstep's third derivative jumps there, and a step that
    straddles the jump is only third-order accurate.  If no step count up
    to twice the plain one aligns them, the plain grid is kept.  Returns
    (nsteps, step, probe_idx): probe_idx holds the sorted, distinct step
    indices nearest the probe times, clipped to [0, nsteps].
    """
    nsteps = max(1, int(math.ceil(horizon / integrator.dt - 1e-9)))
    if integrator.window_ramp > 0:
        counts = np.arange(nsteps, 2 * nsteps + 1)
        ramp_steps = integrator.window_ramp * counts / horizon
        aligned = np.flatnonzero(np.abs(ramp_steps - np.rint(ramp_steps)) < 1e-6)
        if aligned.size:
            nsteps = int(counts[aligned[0]])
    step = horizon / nsteps
    probe_idx = np.unique(np.clip(np.round(np.asarray(probe_times, float) / step)
                                  .astype(np.intp), 0, nsteps))
    return nsteps, step, probe_idx


def run_batch(system, noise: NoiseBatch, integrator: IntegratorConfig, horizon: float,
              probe_times, initial: str = "vacuum", in_mode: int = 1) -> BatchResult:
    """Integrate every realization of a noise batch, snapshotting at the probes.

    Probe times are rounded to the step grid; the returned times are the
    grid-aligned values actually used.  Spline (OU) noise has no smooth
    derivatives, so it is refused for systems that need them.
    """
    nsteps, dt, probe_idx = step_grid(horizon, integrator, probe_times)
    omega_max = float(np.max(system.omegas))
    if dt * omega_max > 0.1 + 1e-12:
        raise StepResolutionError(
            f"dt*omega_max = {dt * omega_max:.3g} > 0.1; refine the step"
        )
    orders = system.noise_orders
    if max(orders) > 0 and noise.coeffs is not None:
        raise DerivativeOrderError(
            "coupled runs need smooth xi', xi''; use a spectral-synthesis noise kind"
        )
    batch = len(noise)
    if initial == "vacuum":
        Q, P = vacuum_state(system, batch, in_mode)
    elif initial == "position_kick":
        Q, P = position_kick_state(system, batch, in_mode)
    else:
        raise ValueError(f"unknown initial data {initial!r}")

    times = probe_idx * dt
    snapQ = np.empty((batch, probe_idx.size, system.n_modes), dtype=complex)
    snapP = np.empty_like(snapQ)
    # without mode coupling the canonical momentum is Q' itself
    coupled = system.n_modes > 1
    snapPi = np.empty_like(snapQ) if coupled else snapP
    probe_pos = {int(i): k for k, i in enumerate(probe_idx)}

    def snap(pos, Q, P, x0, x1):
        snapQ[:, pos] = Q
        snapP[:, pos] = P
        if coupled:
            snapPi[:, pos] = system.canonical_momentum(Q, P, x0, x1)

    win = (Window(integrator.window_ramp, horizon)
           if integrator.window_ramp > 0 else None)
    need = tuple(sorted(set(orders) | ({0} if win else set())))

    half = 0.5 * dt
    sixth = dt / 6.0
    accel = system.accel
    for start in range(0, nsteps, BLOCK_STEPS):
        stop = min(nsteps, start + BLOCK_STEPS)
        t_half = half * np.arange(2 * start, 2 * stop + 1)
        raw = eval_batch(noise, t_half, need)
        x0a, x1a, x2a = _windowed(raw, win, t_half, orders)
        if start == 0 and 0 in probe_pos:
            snap(probe_pos[0], Q, P, x0a[:, 0], None if x1a is None else x1a[:, 0])
        for i in range(stop - start):
            a = 2 * i
            xA = (x0a[:, a], None if x1a is None else x1a[:, a],
                  None if x2a is None else x2a[:, a])
            xB = (x0a[:, a + 1], None if x1a is None else x1a[:, a + 1],
                  None if x2a is None else x2a[:, a + 1])
            xC = (x0a[:, a + 2], None if x1a is None else x1a[:, a + 2],
                  None if x2a is None else x2a[:, a + 2])
            k1p = accel(Q, P, *xA)
            q2 = Q + half * P
            p2 = P + half * k1p
            k2p = accel(q2, p2, *xB)
            q3 = Q + half * p2
            p3 = P + half * k2p
            k3p = accel(q3, p3, *xB)
            q4 = Q + dt * p3
            p4 = P + dt * k3p
            k4p = accel(q4, p4, *xC)
            Q = Q + sixth * (P + 2.0 * (p2 + p3) + p4)
            P = P + sixth * (k1p + 2.0 * (k2p + k3p) + k4p)
            pos = probe_pos.get(start + i + 1)
            if pos is not None:
                snap(pos, Q, P, *xC[:2])
    return BatchResult(times, snapQ, snapP, snapPi)


# ---------------------------------------------------------------------------
# Bogoliubov coefficients and the Wronskian


def decompose(Q, P, omegas, t):
    """Split (Q, Q') into e^{-iwt} / e^{+iwt} components at time t.

    Returns (alpha, beta) with the phase fixed so alpha = 1, beta = 0
    for a freely evolving vacuum mode.
    """
    root = np.sqrt(2.0 * omegas)
    phase = np.exp(1j * omegas * t)
    beta = -1j * (1j * omegas * Q + P) * np.conj(phase) / root
    alpha = -1j * (1j * omegas * Q - P) * phase / root
    return alpha, beta


def wronskian(Q, P):
    """Q P* - Q* P summed over modes.

    Conserved when P is the canonical momentum: i for vacuum initial
    data, 0 for a position kick.
    """
    return np.sum(Q * np.conj(P) - np.conj(Q) * P, axis=-1)
