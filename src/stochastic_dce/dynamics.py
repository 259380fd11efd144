"""Mode-equation integration and Bogoliubov extraction.

Everything integrates with fixed-step RK4; the noise is evaluated
analytically at the substeps, so halving the step keeps the realization
identical and the scheme shows clean 4th-order convergence.

The integrator runs a whole batch of realizations at once on (batch,
n_modes) complex arrays; a single trajectory is just a batch of one.
Noise values for all substeps are produced block-by-block to bound
memory on long horizons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cavity import CavityConfig
from .noise import NoiseBatch, NoiseKind, NoiseSpec, eval_batch

__all__ = [
    "IntegratorConfig",
    "suggest_dt",
    "Window",
    "PlainOscillator",
    "CavityModes",
    "Trajectory",
    "BogoliubovRecord",
    "StepResolutionError",
    "DerivativeOrderError",
    "GeometryCollapseError",
    "ExtractionWindowError",
    "step_grid",
    "run_batch",
    "integrate",
    "extract_bogoliubov",
    "particle_number",
    "wronskian",
    "sum_rule",
    "write_trajectory_csv",
    "record_to_json",
]


class StepResolutionError(ValueError):
    """dt too coarse for the fastest retained mode."""


class DerivativeOrderError(ValueError):
    """Noise kind cannot supply the smooth derivatives a coupled run needs."""


class GeometryCollapseError(RuntimeError):
    """1 + eps*xi(t) <= 0 on the exact path: the moving wall crossed z=0."""

    def __init__(self, batch_indices):
        self.batch_indices = list(batch_indices)
        super().__init__(f"cavity length collapsed for realizations {self.batch_indices}")


class ExtractionWindowError(RuntimeError):
    """Bogoliubov extraction requested while the wall is still displaced."""


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    record_stride: int = 1
    path: str = "linearized"  # or "exact"
    window_ramp: float = 0.0  # C^2 on/off ramp duration at each end; 0 = none

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.path not in ("linearized", "exact"):
            raise ValueError(f"unknown path {self.path!r}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
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
    P: np.ndarray
    dt: float
    in_mode: int


def step_grid(horizon: float, dt: float, probe_times=()):
    """The fixed RK4 grid of a run and the probe times rounded onto it.

    The step is the largest one <= dt that divides the horizon.  Returns
    (nsteps, step, probe_idx): probe_idx holds the sorted, distinct step
    indices nearest the probe times, clipped to [0, nsteps].
    """
    nsteps = max(1, int(math.ceil(horizon / dt - 1e-9)))
    step = horizon / nsteps
    probe_idx = np.unique(np.clip(np.round(np.asarray(probe_times, float) / step)
                                  .astype(np.intp), 0, nsteps))
    return nsteps, step, probe_idx


def run_batch(system, noise: NoiseBatch, integrator: IntegratorConfig, horizon: float,
              probe_times, noise_spec: NoiseSpec, initial: str = "vacuum",
              in_mode: int = 1) -> BatchResult:
    """Integrate every realization of a noise batch, snapshotting at the probes.

    Probe times are rounded to the step grid; the returned times are the
    grid-aligned values actually used.
    """
    nsteps, dt, probe_idx = step_grid(horizon, integrator.dt, probe_times)
    omega_max = float(np.max(system.omegas))
    if dt * omega_max > 0.1 + 1e-12:
        raise StepResolutionError(
            f"dt*omega_max = {dt * omega_max:.3g} > 0.1; refine the step"
        )
    orders = system.noise_orders
    if max(orders) > 0 and noise_spec.kind is NoiseKind.ORNSTEIN_UHLENBECK:
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
    m = system.n_modes
    snapQ = np.empty((batch, probe_idx.size, m), dtype=complex)
    snapP = np.empty_like(snapQ)
    probe_pos = {int(i): k for k, i in enumerate(probe_idx)}
    if 0 in probe_pos:
        snapQ[:, probe_pos[0]] = Q
        snapP[:, probe_pos[0]] = P

    win = (Window(integrator.window_ramp, horizon)
           if integrator.window_ramp > 0 else None)
    need = tuple(sorted(set(orders) | ({0} if win else set())))

    block = max(1024, int(12_000_000 / max(1, batch)))
    half = 0.5 * dt
    sixth = dt / 6.0
    accel = system.accel
    for start in range(0, nsteps, block):
        stop = min(nsteps, start + block)
        t_half = half * np.arange(2 * start, 2 * stop + 1)
        raw = eval_batch(noise, t_half, need)
        x0a, x1a, x2a = _windowed(raw, win, t_half, orders)
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
                snapQ[:, pos] = Q
                snapP[:, pos] = P
    return BatchResult(times, snapQ, snapP, dt, in_mode)


@dataclass
class Trajectory:
    """Recorded single-realization evolution."""

    times: np.ndarray          # (nt,)
    Q: np.ndarray              # (nt, n_modes) complex
    P: np.ndarray
    omegas: np.ndarray
    in_mode: int
    dt: float
    realization: NoiseBatch | None = field(default=None, repr=False)
    window: Window | None = None


def integrate(system, realization: NoiseBatch, integrator: IntegratorConfig,
              horizon: float, noise_spec: NoiseSpec, initial: str = "vacuum",
              in_mode: int = 1) -> Trajectory:
    """Integrate a batch of one realization, recording every record_stride steps."""
    if len(realization) != 1:
        raise ValueError(f"integrate takes a batch of one, got {len(realization)} rows")
    nsteps, dt, _ = step_grid(horizon, integrator.dt)
    rec = np.arange(0, nsteps + 1, integrator.record_stride)
    if rec[-1] != nsteps:
        rec = np.append(rec, nsteps)
    res = run_batch(system, realization, integrator, horizon, rec * dt,
                    noise_spec, initial, in_mode)
    win = (Window(integrator.window_ramp, horizon)
           if integrator.window_ramp > 0 else None)
    return Trajectory(res.times, res.Q[0], res.P[0], system.omegas, in_mode,
                      res.dt, realization, win)


# ---------------------------------------------------------------------------
# Bogoliubov coefficients


@dataclass
class BogoliubovRecord:
    """alpha/beta rows for the simulated in-modes at one extraction time."""

    alpha: np.ndarray          # (n_in, n_modes) complex
    beta: np.ndarray
    in_modes: list[int]
    t_stop: float


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


def extract_bogoliubov(traj: Trajectory, t_stop: float, *, rest_tol: float = 1e-8,
                       allow_moving: bool = False) -> BogoliubovRecord:
    """Bogoliubov row from the recorded state nearest t_stop.

    Unless allow_moving is set, requires the (windowed) wall displacement
    to vanish at the extraction time, which is what makes the frequency
    decomposition exact.
    """
    idx = int(np.argmin(np.abs(traj.times - t_stop)))
    spacing = traj.dt if len(traj.times) < 2 else float(np.max(np.diff(traj.times)))
    if abs(traj.times[idx] - t_stop) > 0.51 * spacing:
        raise ValueError(f"no recorded state near t={t_stop}")
    t = traj.times[idx]
    if not allow_moving and traj.realization is not None:
        xi = float(eval_batch(traj.realization, np.array([t]), (0,))[0][0, 0])
        if traj.window is not None:
            xi *= traj.window.profile(np.asarray([t]))[0][0]
        if abs(xi) > rest_tol:
            raise ExtractionWindowError(
                f"wall displaced (xi={xi:.3g}) at t={t}; window the motion or "
                "pass allow_moving=True"
            )
    alpha, beta = decompose(traj.Q[idx], traj.P[idx], traj.omegas, t)
    return BogoliubovRecord(alpha[None, :], beta[None, :], [traj.in_mode], t)


def particle_number(record: BogoliubovRecord):
    """N_k = sum_n |beta_nk|^2 over the simulated in-modes, plus the total."""
    per_mode = np.sum(np.abs(record.beta) ** 2, axis=0)
    return per_mode, float(np.sum(per_mode))


def sum_rule(record: BogoliubovRecord) -> np.ndarray:
    """sum_k (|alpha_nk|^2 - |beta_nk|^2) per row; 1 for exact evolution."""
    return np.sum(np.abs(record.alpha) ** 2 - np.abs(record.beta) ** 2, axis=1)


def wronskian(Q, P):
    """Q Q'* - Q* Q' summed over modes (i for vacuum initial data)."""
    return np.sum(Q * np.conj(P) - np.conj(Q) * P, axis=-1)


def write_trajectory_csv(traj: Trajectory, fh) -> None:
    """Dump the recorded states as CSV: t, then re/im of Q_k and Q'_k."""
    import csv

    m = traj.Q.shape[1]
    header = ["t"]
    for k in range(1, m + 1):
        header += [f"re_q_{k}", f"im_q_{k}", f"re_p_{k}", f"im_p_{k}"]
    w = csv.writer(fh)
    w.writerow(header)
    for i, t in enumerate(traj.times):
        row = [f"{t:.17g}"]
        for k in range(m):
            row += [f"{traj.Q[i, k].real:.17g}", f"{traj.Q[i, k].imag:.17g}",
                    f"{traj.P[i, k].real:.17g}", f"{traj.P[i, k].imag:.17g}"]
        w.writerow(row)


def record_to_json(record: BogoliubovRecord, *, seed: int | None = None,
                   master_seed: int | None = None) -> str:
    """Serialize a Bogoliubov record (with its seed provenance) to JSON."""
    import json

    def _c(arr):
        return [[[z.real, z.imag] for z in row] for row in arr]

    per_mode, total = particle_number(record)
    return json.dumps({
        "t_stop": record.t_stop,
        "in_modes": list(record.in_modes),
        "alpha_re_im": _c(record.alpha),
        "beta_re_im": _c(record.beta),
        "particle_number_per_mode": per_mode.tolist(),
        "particle_number_total": total,
        "sum_rule": sum_rule(record).tolist(),
        "seed": seed,
        "master_seed": master_seed,
    }, indent=2)
