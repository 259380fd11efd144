"""Mode-equation integration and Bogoliubov extraction.

Everything integrates with fixed-step RK4; the noise is evaluated
analytically at the substeps, so halving the step keeps the realization
identical and the scheme shows clean 4th-order convergence.

The mode equations are linear in (Q, Q') with real coefficients, so one
RK4 step is a real 2m x 2m matrix.  run_batch builds these matrices for
a whole block of steps and every realization at once, by applying the
RK4 stage formulas, through the system's own accel, to the 2m unit
vectors.  A one-mode system (n_modes 1) must have an accel c(t) Q that
ignores Q', and its 2 x 2 matrices are written out from c at each
step's start, midpoint and end (_one_mode_maps): one accel call per
half-step, in place of four on the unit vectors.  The scheme, the grid
and the chain are the same for every m.  run_batch then multiplies the
matrices of each stretch between probes by pairwise products and
applies the product to the state.  The state is the propagator Phi of
(Q, Q'), started at the identity: a run's solution is Phi times its
initial data, and every run checks at every probe that Phi, taken to
canonical (Q, Pi) coordinates, is symplectic, which holds every
Wronskian pair of basis solutions at once.  Systems
work mode-first: modes on axis 0, with the noise values broadcasting
over the trailing axes, and every mode sum is a fixed-order sum, never
a BLAS product, so a row rounds the same at any batch width: _mix
loops over the coupling table's nonzero entries, and the matrix
products of the chain are one einsum pass each, which the tests hold
bit for bit to the explicit loop over k.  Rows are on the last axis,
noise values to snapshots, so a map block's noise strips are views of
eval_batch's (half-steps, batch) values, not copies.

Noise values for all substeps are produced in fixed blocks of 2048
steps and the step matrices in fixed blocks of 64; neither length
depends on the batch width, so neither do the bits of a row.  On the
exact path one scan of each noise block finds every row's least wall
length ell = 1 + eps*xi (BatchResult.least_ell).  A row whose wall
reaches the far mirror is masked, not raised, and the moving wall's top
frequency, which rises above the static one check_integrable bounds,
is CavityModes.top_omega at that least ell.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .cavity import CavityConfig
from .noise import NoiseBatch, NoiseSpec, eval_batch, max_step

__all__ = [
    "IntegratorConfig",
    "suggest_dt",
    "default_dt",
    "drift_law_dt",
    "Window",
    "PlainOscillator",
    "CavityModes",
    "StepResolutionError",
    "DerivativeOrderError",
    "check_integrable",
    "step_grid",
    "initial_data",
    "run_batch",
    "decompose",
    "wronskian",
]

# RK4 steps per noise-evaluation block: a multiple of half the noise
# module's anchor stride, so anchors sit at the same grid points in
# every block.
BLOCK_STEPS = 2048
# RK4 steps per block of step matrices, a divisor of BLOCK_STEPS: it
# bounds the (2m, 2m, steps, batch) arrays of a build.
MAP_STEPS = 64


class StepResolutionError(ValueError):
    """dt too coarse for the fastest retained mode."""


class DerivativeOrderError(ValueError):
    """Noise kind cannot supply the smooth derivatives a coupled run needs."""


@dataclass(frozen=True)
class IntegratorConfig:
    """The RK4 step and the noise window of a run.

    Which equations are integrated is the system's own setting
    (CavityModes' path), not the integrator's.
    """

    dt: float
    window_ramp: float = 0.0  # C^2 on/off ramp duration at each end; 0 = none

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.window_ramp < 0:
            raise ValueError("window_ramp must be >= 0")


# The bound on the Wronskian drift: suggest_dt sizes the step for it,
# and every run's invariant check enforces it.
WRONSKIAN_TOL = 1e-8
# The largest step phase dt * omega_max that check_integrable accepts
OMEGA_DT_MAX = 0.1
AMPLITUDE_MARGIN = 100.0
# The largest drift the dt^5 law speaks for: past it the law's step is
# below a tenth of the step run, and the drift is not the step's error
DRIFT_LAW_MAX = 1e-3


def suggest_dt(omega_max: float, horizon: float) -> float:
    """Step size keeping the RK4 Wronskian drift under WRONSKIAN_TOL.

    RK4 damps a harmonic mode by (omega dt)^6/72 per step, so the drift
    over the run is ~ horizon * omega^6 dt^5 / 72 times the amplitude
    scale reached; AMPLITUDE_MARGIN covers the growth of the worst
    realizations.  Capped at OMEGA_DT_MAX/omega in any case.
    """
    dt = (72.0 * WRONSKIAN_TOL / (horizon * omega_max**6 * AMPLITUDE_MARGIN)) ** 0.2
    return min(dt, OMEGA_DT_MAX / omega_max)


def default_dt(systems, noise: NoiseSpec, horizon: float) -> float:
    """The step of a run over `systems` that sets none: suggest_dt's
    drift-law step at their fastest static frequency (the largest of
    their omegas, which check_integrable bounds), at most
    noise.max_step (one knot cell of OU noise)."""
    omega_max = max(float(np.max(system.omegas)) for system in systems)
    return min(suggest_dt(omega_max, horizon), max_step(noise, horizon))


def drift_law_dt(dt: float, drift: float) -> float:
    """The step at which a run at dt with Wronskian drift `drift` would
    meet WRONSKIAN_TOL, by the dt^5 law of suggest_dt (which speaks for
    drifts up to DRIFT_LAW_MAX)."""
    return dt * (WRONSKIAN_TOL / drift) ** 0.2


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
    """Apply the window to raw noise values/derivatives, (times, batch), in place.

    t must be ascending.  Only the points on a ramp (t < r or t > T - r)
    are touched: between the ramps w = 1 and w' = w'' = 0, where the
    product rule leaves every value as it is.
    """
    x0, x1, x2 = (xi.get(o) for o in (0, 1, 2))
    if win is None:
        return x0, x1, x2
    r = win.ramp
    for ramp in (slice(0, np.searchsorted(t, r)),
                 slice(np.searchsorted(t, win.horizon - r, side="right"), t.size)):
        w, w1, w2 = (p[:, None] for p in win.profile(t[ramp]))
        if 2 in orders:
            x2[ramp] = w * x2[ramp] + 2.0 * w1 * x1[ramp] + w2 * x0[ramp]
        if 1 in orders:
            x1[ramp] = w * x1[ramp] + w1 * x0[ramp]
        x0[ramp] = w * x0[ramp]
    return x0, x1, x2


# ---------------------------------------------------------------------------
# systems
#
# accel(Q, P, x0, x1, x2) and canonical_momentum(Q, P, x0, x1) take Q and
# P mode-first, shape (m, ...), and noise values x shaped like the
# trailing axes they broadcast over, (n, batch) against (m, 2m, n, batch):
# n steps in a build, n snapshots for the canonical propagator.


def _per_mode(values, ndim):
    """A per-mode vector shaped to broadcast along axis 0 of ndim axes."""
    return np.reshape(values, (-1,) + (1,) * (ndim - 1))


def _terms(mat):
    """Per row k of mat, its nonzero entries (j, mat[k, j]) in j order."""
    return [[(j, row[j]) for j in np.flatnonzero(row)] for row in mat]


def _mix(terms, X):
    """(mat X)[k] = sum_j mat[k, j] X[j] over the mode axis, with terms =
    _terms(mat).

    An explicit sum over the nonzero entries in a fixed order, not a BLAS
    product, so that every element rounds the same at any batch width.  A
    row with no nonzero entry is zero.
    """
    out = np.empty((len(terms),) + X.shape[1:], dtype=X.dtype)
    term = np.empty_like(out[0])
    for dst, row in zip(out, terms):
        if not row:
            dst.fill(0.0)
            continue
        (j, g), *rest = row
        np.multiply(g, X[j], out=dst)
        for j, g in rest:
            dst += np.multiply(g, X[j], out=term)
    return out


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

    def __repr__(self):
        return f"PlainOscillator(omega={self.omega:.6g}, epsilon={self.epsilon:.6g})"

    def accel(self, Q, P, x0, x1, x2):
        return -(self.omega**2) * (1.0 + self.epsilon * x0) * Q


class CavityModes:
    """Coupled cavity mode equations for one transverse family.

    path="linearized" keeps terms first order in the wall displacement
    (static frequencies, the three driving terms); path="exact" keeps
    the full time-dependent frequency and the log-derivative couplings.
    Any other path is refused.
    """

    def __init__(self, cavity: CavityConfig, path: str = "linearized"):
        if path not in ("linearized", "exact"):
            raise ValueError(f"path must be 'linearized' or 'exact', got {path!r}")
        self.cavity = cavity
        self.path = path
        self.n_modes = cavity.nz_max
        self.epsilon = cavity.epsilon
        self.omegas = cavity.omegas()
        self.omega_zs = cavity.omega_zs()
        self.gmat = cavity.g_matrix()
        self.gmat_terms = _terms(self.gmat)
        self.gg_terms = _terms(self.gmat.T @ self.gmat)  # sum_l g_lk g_lj
        # with one mode G = 0, and neither path reads xi' or xi''
        self.noise_orders = (0, 1, 2) if self.n_modes > 1 else (0,)

    def __repr__(self):
        return f"CavityModes(nz_max={self.n_modes}, path={self.path!r})"

    def accel(self, Q, P, x0, x1, x2):
        if self.path == "exact":
            return self._accel_exact(Q, P, x0, x1, x2)
        eps = self.epsilon
        a = (_per_mode(-self.omegas**2, Q.ndim)
             + (2.0 * eps) * x0 * _per_mode(self.omega_zs**2, Q.ndim)) * Q
        if self.n_modes > 1:
            # 2 eps xi' G Q' + eps xi'' G Q, with one pass over G
            a += _mix(self.gmat_terms, (2.0 * eps) * x1 * P + eps * x2 * Q)
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
        return P - lam * _mix(self.gmat_terms, Q)

    def least_ell(self, x0):
        """Per column (row) of x0 (times, batch), the least wall length
        ell = 1 + eps*xi over its times; None if linearized."""
        return np.min(1.0 + self.epsilon * x0, axis=0) if self.path == "exact" else None

    def top_omega(self, ell):
        """The instantaneous top frequency pi sqrt(T + (nz_max / (Lz0 ell))^2)
        at wall length ell, a number or an array.  Every operation is
        monotone and correctly rounded, so it falls as ell grows, and its
        largest value over a set of ell is its value at the least."""
        z = self.n_modes / (self.cavity.Lz0 * ell)
        return np.pi * np.sqrt(self.cavity.transverse_sq + z * z)

    def _accel_exact(self, Q, P, x0, x1, x2):
        eps = self.epsilon
        ell = 1.0 + eps * x0
        nz = _per_mode(np.arange(1, self.n_modes + 1), Q.ndim)
        w2 = np.pi**2 * (self.cavity.transverse_sq + (nz / (self.cavity.Lz0 * ell)) ** 2)
        # pi^2 transverse part is constant; z part scales with 1/Lz(t)^2
        a = -w2 * Q
        if self.n_modes > 1:    # with one mode G = 0, and the couplings vanish
            lam = eps * x1 / ell
            lam_dot = eps * x2 / ell - lam**2
            a += _mix(self.gmat_terms, 2.0 * lam * P + lam_dot * Q)
            a += lam**2 * _mix(self.gg_terms, Q)
        return a


def initial_data(system, initial: str = "vacuum", in_mode: int = 1):
    """The run's initial (Q, Q') as one complex 2m-vector, nonzero in mode n = in_mode.

    vacuum: Q_n = 1/sqrt(2 w_n), Q'_n = -i sqrt(w_n/2); position_kick:
    Q_n = 1, Q'_n = 0 (the classic mean-value initial data).
    """
    m, n = system.n_modes, in_mode - 1
    if not 0 <= n < m:
        raise ValueError(f"in_mode must be in 1..{m}, got {in_mode}")
    if initial not in ("vacuum", "position_kick"):
        raise ValueError(f"unknown initial data {initial!r}; use vacuum or position_kick")
    wn = system.omegas[n]
    y = np.zeros(2 * m, dtype=complex)
    y[n], y[m + n] = ((1.0 / math.sqrt(2.0 * wn), -1j * math.sqrt(wn / 2.0))
                      if initial == "vacuum" else (1.0, 0.0))
    return y


# ---------------------------------------------------------------------------
# batched fixed-step RK4 in propagator form


@dataclass
class BatchResult:
    """The run's solution (Q, Q') at the probes, and per row and probe the
    largest entry of its propagator's symplectic defect (_symplectic_defect)."""

    times: np.ndarray           # (n_probes,) actual grid-aligned probe times
    Q: np.ndarray               # (batch, n_probes, n_modes) complex
    P: np.ndarray               # Q'
    defect: np.ndarray          # (batch, n_probes)
    collapsed: np.ndarray       # (batch,) bool; such a row's outputs are NaN
    seconds: dict               # wall time per layer: eval_s, build_s, chain_s, extract_s
    least_ell: np.ndarray | None    # (batch,) the system's least_ell over the run, or
                                    # None if it has none; NaN for a collapsed row


def step_grid(horizon: float, integrator: IntegratorConfig, probe_times=()):
    """The fixed RK4 grid of a run and the probe times rounded onto it.

    The step is the largest one <= integrator.dt that divides the horizon
    and, for a windowed run, puts the ramp ends t = r and T - r on the
    grid: the smoothstep's third derivative jumps there, and a step that
    straddles the jump is only third-order accurate.  If no step count up
    to twice the plain one aligns them, the plain grid is kept.  Returns
    (nsteps, step, probe_idx): probe_idx holds the sorted step indices
    nearest the distinct probe times, clipped to [0, nsteps].  Two
    distinct probe times that round to the same step raise ValueError,
    since one of them would get no output.
    """
    nsteps = max(1, int(math.ceil(horizon / integrator.dt - 1e-9)))
    if integrator.window_ramp > 0:
        counts = np.arange(nsteps, 2 * nsteps + 1)
        ramp_steps = integrator.window_ramp * counts / horizon
        aligned = np.flatnonzero(np.abs(ramp_steps - np.rint(ramp_steps)) < 1e-6)
        if aligned.size:
            nsteps = int(counts[aligned[0]])
    step = horizon / nsteps
    # the distinct probe times, sorted (np.unique's result, without the
    # numpy.ma import it makes)
    times = np.sort(np.asarray(probe_times, float).ravel())
    distinct = np.ones(times.size, dtype=bool)
    distinct[1:] = times[1:] != times[:-1]
    times = times[distinct]
    probe_idx = np.clip(np.round(times / step).astype(np.intp), 0, nsteps)
    if (same := np.flatnonzero(np.diff(probe_idx) == 0)).size:
        raise ValueError(f"probe times {[times[k:k + 2].tolist() for k in same]} "
                         f"round to the same step (dt = {step:.6g})")
    return nsteps, step, probe_idx


def _matmul(A, B):
    """C[r, c] = sum_k A[r, k] B[k, c] on axes 0 and 1, elementwise on the rest.

    One einsum pass, not a BLAS product: every output element is the sum
    A[r, 0] B[0, c] + A[r, 1] B[1, c] + ... taken in k order, like _mix,
    so a batch row rounds the same at any batch width.  numpy does not
    document einsum's summation order; tests/test_dynamics.py holds it
    bitwise to the explicit loop over k on the shapes run_batch makes.
    """
    return np.einsum("ik...,kj...->ij...", A, B)


def _chain(M):
    """The product M[:, :, n-1] ... M[:, :, 0] of a stretch of step matrices.

    Neighbours are multiplied pairwise, level by level; the tree depends
    on the stretch's length only.
    """
    while M.shape[2] > 1:
        n = M.shape[2]
        prod = _matmul(np.ascontiguousarray(M[:, :, 1:n:2]),
                       np.ascontiguousarray(M[:, :, 0:n - 1:2]))
        M = prod if n % 2 == 0 else np.concatenate([prod, M[:, :, n - 1:]], axis=2)
    return M[:, :, 0]


def _step_maps(system, dt, xA, xB, xC):
    """The real RK4 matrices M[r, c, s, b] of a block of steps s.

    Column c is the step's image of the c-th unit vector of (Q, Q'),
    given by the RK4 stage formulas through the system's accel; xA, xB
    and xC hold (x0, x1, x2) at the steps' starts, midpoints and ends,
    each (steps, batch) or None.  Stage sums accumulate in place.
    run_batch builds the maps of m >= 2 modes here; those of one mode
    are written out by _one_mode_maps, which the tests hold to this
    build to a few ulp.
    """
    m = system.n_modes
    eye = np.eye(2 * m).reshape(2 * m, 2 * m, 1, 1)
    Q, P = eye[:m], eye[m:]

    def plus(X, unit):
        # X + Q (unit 0) or X + P (unit m), in place: the unit columns
        # are 1 on m planes and 0 elsewhere, which an add leaves alone
        for k in range(m):
            X[k, unit + k] += 1.0
        return X

    half = 0.5 * dt
    accel = system.accel
    k1 = accel(Q, P, *xA)
    p2 = plus(half * k1, m)
    k2 = accel(Q + half * P, p2, *xB)
    p3 = plus(half * k2, m)
    k3 = accel(plus(half * p2, 0), p3, *xB)
    sum_q, sum_p = p2, k2
    sum_q += p3
    sum_q *= 2.0
    sum_p += k3
    sum_p *= 2.0
    sum_p += k1
    del k1
    p4 = plus(dt * k3, m)
    k4 = accel(plus(dt * p3, 0), p4, *xC)
    plus(sum_q, m)
    sum_q += p4
    sum_p += k4
    M = np.empty((2 * m,) + sum_q.shape[1:])
    plus(np.multiply(dt / 6.0, sum_q, out=M[:m]), 0)
    plus(np.multiply(dt / 6.0, sum_p, out=M[m:]), m)
    return M


def _one_mode_maps(system, dt, x):
    """_step_maps of a one-mode system, written out: M[r, c, s, b].

    A one-mode accel is c(t) Q, whatever Q' is, so the step's map follows
    from c alone: with a, b and e its values at the step's start,
    midpoint and end, and h = dt,

        M00 = 1 + h^2/6 (a + 2b + h^2 ab/4)     M01 = h + h^3 b/6
        M10 = h/6 (a + 4b + e + h^2 (ab + be)/2)
        M11 = 1 + h^2/6 (2b + e + h^2 be/4)

    which for constant c = -w^2 are the Taylor terms of the rotation to
    (w h)^4.  x holds (x0, x1, x2) at the stretch's 2n + 1 half-steps,
    each (2n + 1, batch) or None; c is one accel call over all of them.
    """
    unit = np.ones((1, 1, 1))
    c = system.accel(unit, np.zeros_like(unit), *x)[0]     # (half-steps, batch)
    a, b, e = c[0:-1:2], c[1::2], c[2::2]
    h2 = dt * dt
    M = np.empty((2, 2) + b.shape)
    # M00 = 1 + h^2/6 (a (1 + h^2 b/4) + 2b), and M11 the same with e for a
    lift, b2 = 1.0 + (0.25 * h2) * b, 2.0 * b
    for out, end in ((M[0, 0], a), (M[1, 1], e)):
        np.multiply(end, lift, out=out)
        out += b2
        out *= h2 / 6.0
        out += 1.0
    # M10 = h/6 ((a + e)(1 + h^2 b/2) + 4b)
    m10 = np.add(a, e, out=M[1, 0])
    m10 *= 1.0 + (0.5 * h2) * b
    m10 += 2.0 * b2
    m10 *= dt / 6.0
    np.multiply(b, dt * h2 / 6.0, out=M[0, 1])
    M[0, 1] += dt
    return M


def _symplectic_defect(Psi, T0, omegas):
    """2 |(Psi S)^T J (Psi S) - (T0 S)^T J (T0 S)| entrywise, S = diag(1/sqrt(2w), sqrt(w/2)).

    Psi = T(t) Phi(t) is the propagator in canonical (Q, Pi) coordinates
    and T0 = T(0); the canonical flow is symplectic, so the forms agree.
    Entry (i, j) is the Wronskian drift of the vacuum-normalised basis
    solutions i and j: (n, m + n) is |W(Q, Pi) - i| of in-mode n's vacuum
    solution, and with one mode the entries are 0 and |det Phi - 1|.
    """
    m = omegas.size
    s = np.concatenate([1.0 / np.sqrt(2.0 * omegas), np.sqrt(0.5 * omegas)])
    weight = (2.0 * np.outer(s, s)).reshape((2 * m, 2 * m) + (1,) * (Psi.ndim - 2))

    def form(A):   # A^T J A, by _matmul's fixed-order sums
        return _matmul(np.swapaxes(A, 0, 1), np.concatenate([A[m:], -A[:m]]))

    return weight * np.abs(form(Psi) - form(T0))


def check_integrable(system, step: float, cell: float):
    """Refuse step_grid's step if step * omega_max > OMEGA_DT_MAX; spline
    noise (a finite knot cell: noise.max_step or a batch's knot spacing) for
    a system that needs smooth xi', xi''; and a step longer than the cell,
    to a relative 1e-9.  omega_max is the static top frequency; the exact
    path's moving wall raises it, which run_batch measures (least_ell)."""
    if (wdt := step * float(np.max(system.omegas))) > OMEGA_DT_MAX + 1e-12:
        raise StepResolutionError(
            f"dt*omega_max = {wdt:.3g} > {OMEGA_DT_MAX:g}; refine the step")
    if math.isfinite(cell) and max(system.noise_orders) > 0:
        raise DerivativeOrderError("coupled runs need smooth xi', xi''; "
                                   "use a spectral-synthesis noise kind")
    if step > cell * (1.0 + 1e-9):
        raise StepResolutionError(f"the step {step:.6g} is longer than the noise's knot "
                                  f"cell {cell:.6g}; a step across a knot loses RK4's order")


def run_batch(system, noise: NoiseBatch, integrator: IntegratorConfig, horizon: float,
              probe_times, initial: str = "vacuum", in_mode: int = 1) -> BatchResult:
    """Integrate every realization of a noise batch, snapshotting at the probes.

    The state is the propagator Phi of (Q, Q'), started at the identity,
    and the run's solution is Phi y0, y0 = initial_data(system, initial,
    in_mode).  Probe times are rounded to the step grid; the returned
    times are the grid-aligned values actually used.  Stretches end at
    the probes, where the loop keeps only Phi and lam's inputs x0, x1;
    the defect is taken from them after the loop.  check_integrable's
    refusals raise.  A row whose least_ell(x0) in a noise block is at
    most 1e-12 (its wall at the far mirror) runs on with zero noise and
    comes back masked (BatchResult.collapsed).
    BatchResult.seconds splits the call's wall time into noise evaluation
    (window and collapse mask included), the step-map build, the chain
    and the extraction after the loop.
    """
    seconds = dict.fromkeys(("eval_s", "build_s", "chain_s", "extract_s"), 0.0)
    clock = [time.perf_counter()]

    def lap(layer):     # charge the time since the last lap to layer
        now = time.perf_counter()
        seconds[layer] += now - clock[0]
        clock[0] = now

    y0 = initial_data(system, initial, in_mode)
    nsteps, dt, probe_idx = step_grid(horizon, integrator, probe_times)
    check_integrable(system, dt, noise.grid_step or math.inf)   # None: no knots, no cell
    orders = system.noise_orders
    batch = len(noise)
    m = system.n_modes
    Phi = np.repeat(np.eye(2 * m)[:, :, None], batch, axis=2)      # (2m, 2m, batch)
    at = np.concatenate([[0], probe_idx])   # snapshot steps: t = 0, for T(0), then the probes
    Phis = np.empty((2 * m, 2 * m, at.size, batch))
    # x0, x1 at the snapshots, lam's inputs; None for an order the system lacks
    lam_x = [np.empty((at.size, batch)) if o in orders else None for o in (0, 1)]

    def record(step, Phi, x, start):
        slots = slice(*np.searchsorted(at, [step, step + 1]))
        Phis[:, :, slots] = Phi[:, :, None]
        if m > 1:           # with one mode G = 0, and lam is not needed
            for v, out in zip(x, lam_x):
                if out is not None:
                    out[slots] = v[2 * (step - start)]

    win = (Window(integrator.window_ramp, horizon)
           if integrator.window_ramp > 0 else None)
    # only CavityModes has it, and it gives None off its exact path
    least_ell = getattr(system, "least_ell", lambda x0: None)
    dead = np.zeros(batch, dtype=bool)
    ell = None
    half = 0.5 * dt
    for start in range(0, nsteps, BLOCK_STEPS):
        stop = min(nsteps, start + BLOCK_STEPS)
        t_half = half * np.arange(2 * start, 2 * stop + 1)
        # (half-steps, batch) per noise order, None where not needed
        x = _windowed(eval_batch(noise, t_half, orders), win, t_half, orders)
        if (low := least_ell(x[0])) is not None:
            ell = low if ell is None else np.minimum(ell, low)
            dead |= low <= 1e-12
            for v in x:
                if v is not None:
                    v[:, dead] = 0.0
        if start == 0:
            record(0, Phi, x, start)
        lap("eval_s")
        for lo in range(start, stop, MAP_STEPS):
            hi = min(stop, lo + MAP_STEPS)
            i0, i1 = 2 * (lo - start), 2 * (hi - start)
            if m == 1:
                M = _one_mode_maps(system, dt, [None if v is None else v[i0:i1 + 1]
                                                for v in x])
            else:
                M = _step_maps(system, dt, *(
                    [None if v is None else v[i0 + j:i1 + j:2] for v in x]
                    for j in (0, 1, 2)))
            lap("build_s")
            cuts = [int(i) for i in probe_idx[(probe_idx > lo) & (probe_idx < hi)]]
            for a, b in zip([lo, *cuts], [*cuts, hi]):
                Phi = _matmul(_chain(M[:, :, a - lo:b - lo]), Phi)
                record(b, Phi, x, start)
            lap("chain_s")
        del x, M    # free this block's arrays before the next one's are made

    def solution(rows):     # rows y0, a fixed-order sum over y0's nonzero entries
        y = sum(rows[:, c, 1:] * y0[c] for c in np.flatnonzero(y0))
        return np.ascontiguousarray(y.transpose(2, 1, 0))       # (batch, n_probes, k)

    Phis[..., dead] = np.nan        # a collapsed row's outputs
    if ell is not None:
        ell[dead] = np.nan
    Q, P = solution(Phis[:m]), solution(Phis[m:])
    if m > 1:   # Phis to Psi = T Phi in place, T = [[I, 0], [-lam G, I]]
        Phis[m:] = system.canonical_momentum(Phis[:m], Phis[m:], *lam_x)
    defect = np.max(_symplectic_defect(Phis[:, :, 1:], Phis[:, :, :1], system.omegas),
                    axis=(0, 1)).T
    lap("extract_s")
    return BatchResult(probe_idx * dt, Q, P, defect, dead, seconds, ell)


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
