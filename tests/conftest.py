"""Shared test configuration.

The acceptance tests register one human-readable PASS/FAIL line per
criterion, and the output-digest tests the comparison they made; the
hook below prints them at the end of the run so that both are visible
regardless of capture settings.
"""

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.signal import lfilter

import stochastic_dce.ensemble as ens
from stochastic_dce.dynamics import (Window, _windowed, decompose, initial_data, run_batch,
                                     step_grid)
from stochastic_dce.noise import (ANCHOR_STRIDE, _even_step, _mirror, _ou_drive, _ou_grid,
                                  _recurse, eval_batch)

# criterion label -> (passed, detail); filled in by tests/test_acceptance.py
ACCEPTANCE_RESULTS: dict[str, tuple[bool, str]] = {}


# how tests/test_output_digests.py compared outputs on this host
DIGEST_MODES: set[str] = set()


def record_criterion(label: str, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[label] = (bool(passed), detail)


def record_digest_mode(description: str) -> None:
    DIGEST_MODES.add(description)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tw = terminalreporter
    for mode in sorted(DIGEST_MODES):
        tw.write_line(f"output digests compared {mode}")
    if not ACCEPTANCE_RESULTS:
        return
    tw.section("acceptance criteria")
    for label in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[label]
        verdict = "PASS" if passed else "FAIL"
        tw.write_line(f"{label} {verdict}: {detail}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def recorded_pools(monkeypatch):
    """Every process pool run_ensemble builds, in order: each with its
    size, and, once shut down, its worker processes and whether the
    shutdown waited for them."""
    built = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers):
            built.append(self)
            self.size, self.workers, self.waited = max_workers, [], None
            super().__init__(max_workers)

        def shutdown(self, wait=True, **kwargs):
            self.workers += (self._processes or {}).values()
            self.waited = wait
            super().shutdown(wait, **kwargs)

    monkeypatch.setattr(ens, "_new_pool", Recording)
    return built


def run_every_step(system, noise, integrator, horizon, **kwargs):
    """run_batch with a probe at every step of the grid."""
    nsteps, dt, _ = step_grid(horizon, integrator)
    return run_batch(system, noise, integrator, horizon,
                     np.arange(nsteps + 1) * dt, **kwargs)


def first_collapse_step(noise, epsilon, integrator, horizon):
    """Per row, the first step whose start, midpoint or end has
    1 + eps*xi <= 1e-12 (the wall at the far mirror), or -1: the reference
    for run_batch's collapse mask on an unwindowed exact-path run."""
    nsteps, dt, _ = step_grid(horizon, integrator)
    x0 = eval_batch(noise, 0.5 * dt * np.arange(2 * nsteps + 1), (0,))[0].T
    hit = 1.0 + epsilon * x0 <= 1e-12
    return np.where(hit.any(axis=1), np.argmax(hit, axis=1) // 2, -1)


def rk4_every_step(system, noise, integrator, horizon, initial="vacuum"):
    """(Q, Q') of every row at every step, shaped (steps + 1, modes, batch), by
    the plain per-step RK4 loop: the reference for run_batch's propagators."""
    nsteps, dt, _ = step_grid(horizon, integrator)
    t = 0.5 * dt * np.arange(2 * nsteps + 1)
    win = Window(integrator.window_ramp, horizon) if integrator.window_ramp > 0 else None
    xi = eval_batch(noise, t, system.noise_orders)
    x = _windowed(xi, win, t, system.noise_orders)          # (half-steps, batch)
    Q, P = np.split(initial_data(system, initial)[:, None] * np.ones(len(noise)), 2)
    out = [(Q, P)]
    for i in range(nsteps):
        xa, xb, xc = ([None if v is None else v[2 * i + j] for v in x] for j in (0, 1, 2))
        k1 = system.accel(Q, P, *xa)
        k2 = system.accel(Q + 0.5 * dt * P, p2 := P + 0.5 * dt * k1, *xb)
        k3 = system.accel(Q + 0.5 * dt * p2, p3 := P + 0.5 * dt * k2, *xb)
        k4 = system.accel(Q + dt * p3, p4 := P + dt * k3, *xc)
        Q, P = Q + dt / 6 * (P + 2 * (p2 + p3) + p4), P + dt / 6 * (k1 + 2 * (k2 + k3) + k4)
        out.append((Q, P))
    return np.array([q for q, _ in out]), np.array([p for _, p in out])


def trapezoid_exposure(ramp, horizon, t):
    """int_0^t w(s)^2 ds of the on/off window by the trapezoid rule on 40000
    intervals, interpolated to t: the reference for theory.windowed_exposure."""
    s = np.linspace(0.0, horizon, 40001)
    w2 = Window(ramp, horizon).profile(s)[0] ** 2
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (w2[1:] + w2[:-1]) * np.diff(s))])
    return np.interp(t, s, cum)


def ou_eval_row_major(batch, times, orders):
    """OU eval_batch the row-major way: every tap gathers a strip of each
    row of the (B, n_knots) coefficients, and the four taps are summed in
    order 0..3, transposed to eval_batch's (times, rows) at the end; the
    reference for eval_batch's step-major gather."""
    c = batch.coeffs.T
    step = batch.grid_step
    u = np.asarray(times, dtype=float) / step
    n = c.shape[-1]
    j = np.clip(np.floor(u).astype(np.intp), 0, n - 1)
    w = u - j
    w2 = w * w
    w3 = w2 * w
    taps = {
        0: ((1.0 - w) ** 3 / 6.0, (4.0 - 6.0 * w2 + 3.0 * w3) / 6.0,
            (1.0 + 3.0 * (w + w2 - w3)) / 6.0, w3 / 6.0),
        1: (-0.5 * (1.0 - w) ** 2, 0.5 * w * (3.0 * w - 4.0),
            0.5 * (1.0 + 2.0 * w - 3.0 * w2), 0.5 * w2),
        2: (1.0 - w, 3.0 * w - 2.0, 1.0 - 3.0 * w, w),
    }
    out = {}
    for o in orders:
        total = None
        for tap, weight in enumerate(taps[o]):
            idx = np.abs(j + tap - 1)
            idx = np.where(idx >= n, 2 * (n - 1) - idx, idx)
            term = c[:, idx] * weight
            total = term if total is None else total + term
        out[o] = (total / step**o).T
    return out


def lfilter_bspline_coefficients(samples):
    """Interpolating cubic B-spline coefficients along the last axis, mirror
    boundaries, by scipy's lfilter for the forward and backward passes: the
    reference for the package's in-place recursive prefilter."""
    x = np.asarray(samples, dtype=float)
    n = x.shape[-1]
    z = math.sqrt(3.0) - 2.0
    horizon = int(math.ceil(math.log(1e-17) / math.log(abs(z))))
    taps = np.arange(horizon) % (2 * (n - 1))
    taps = np.where(taps >= n, 2 * (n - 1) - taps, taps)
    init = x[..., taps[-1]]
    for tap in taps[-2::-1]:
        init = init * z + x[..., tap]
    zi = (init - x[..., 0])[..., None]
    cplus = lfilter([1.0], [1.0, -z], x, axis=-1, zi=zi)[0]
    last = (z / (z * z - 1.0)) * (cplus[..., -1] + z * cplus[..., -2])
    rev = cplus[..., ::-1]
    zi_b = (last + z * rev[..., 0])[..., None]
    cminus = lfilter([-z], [1.0, -z], rev, axis=-1, zi=zi_b)[0][..., ::-1]
    return 6.0 * cminus


def ou_coeffs_per_seed(spec, seeds, horizon):
    """OU spline coefficients (n_knots, B), one lfilter AR(1) call and one
    lfilter spline fit per seed: the reference for synthesize_many's
    in-place recursions over the whole batch."""
    n_grid, step = _ou_grid(spec, horizon)
    a = math.exp(-step / spec.t_c)
    cols = []
    for seed in seeds:
        z = np.random.default_rng(np.uint64(seed)).standard_normal(n_grid)
        drive = spec.sigma * math.sqrt(1.0 - a * a) * z
        drive[0] = spec.sigma * z[0]
        cols.append(lfilter_bspline_coefficients(lfilter([1.0], [1.0, -a], drive)))
    return np.stack(cols, axis=1)


def ou_coeffs_by_columns(spec, seeds, horizon):
    """OU spline coefficients (n_knots, B) with each seed's drive written
    into its strided column of the knot-major array one at a time, then
    the in-place AR(1) and spline fit over the whole array: the reference
    for synthesize_many's writes of the drives in seed groups."""
    n_grid, step = _ou_grid(spec, horizon)
    a = math.exp(-step / spec.t_c)
    coeffs = np.empty((n_grid, len(seeds)))
    for b, seed in enumerate(seeds):
        coeffs[:, b] = _ou_drive(spec, seed, n_grid, a)
    _recurse(list(coeffs), a)
    prefilter_sequential(coeffs)
    return coeffs


def prefilter_sequential(c):
    """The B-spline prefilter with both passes as one loop over every knot
    row, each started from its exact mirror state: the reference for
    noise._prefilter, whose passes run in pieces side by side."""
    n = c.shape[0]
    rows = list(c)
    z = math.sqrt(3.0) - 2.0
    horizon = int(math.ceil(math.log(1e-17) / math.log(abs(z))))
    taps = _mirror(np.arange(horizon) % (2 * (n - 1)), n)
    init = c[taps[-1]]
    for tap in taps[-2::-1]:
        init = init * z + c[tap]
    rows[0] += init - rows[0]
    _recurse(rows, z)
    last = (z / (z * z - 1.0)) * (rows[-1] + z * rows[-2])
    start = last + z * rows[-1]
    c *= -z
    rows[-1] += start
    _recurse(rows[::-1], z)
    c *= 6.0


def ou_eval_untiled(batch, times, orders):
    """OU eval_batch in one piece per order: each tap gathers the knot rows
    of every time at once, the taps are summed in order 0..3, and the sum
    is divided by step^order; the reference for eval_batch's tiles."""
    c = batch.coeffs
    step = batch.grid_step
    u = np.asarray(times, dtype=float) / step
    n = c.shape[0]
    j = np.clip(np.floor(u).astype(np.intp), 0, n - 1)
    w = u - j
    w2 = w * w
    w3 = w2 * w
    taps = {
        0: ((1.0 - w) ** 3 / 6.0, (4.0 - 6.0 * w2 + 3.0 * w3) / 6.0,
            (1.0 + 3.0 * (w + w2 - w3)) / 6.0, w3 / 6.0),
        1: (-0.5 * (1.0 - w) ** 2, 0.5 * w * (3.0 * w - 4.0),
            0.5 * (1.0 + 2.0 * w - 3.0 * w2), 0.5 * w2),
        2: (1.0 - w, 3.0 * w - 2.0, 1.0 - 3.0 * w, w),
    }
    out = {}
    for o in orders:
        total = c[_mirror(j - 1, n)]
        total *= taps[o][0][:, None]
        for tap in (1, 2, 3):
            term = c[_mirror(j + tap - 1, n)]
            term *= taps[o][tap][:, None]
            total += term
        if o:
            total /= step**o
        out[o] = total
    return out


def cavity_epsilon(cavity):
    """The eps under which the plain single-mode law describes the cavity's
    first mode: 2 eps v_11 / w_1, with v_11 = w_z^2 / w_1 its self-coupling."""
    return 2.0 * cavity.epsilon * cavity.v_matrix()[0, 0] / cavity.omegas()[0]


def bogoliubov_at(res, noise, omegas, t_stop, rest_tol):
    """(t, alpha, beta) of the first row at the probe nearest t_stop.

    Asserts that the probe is within half a step of t_stop and that the
    wall is at rest there (|xi(t)| <= rest_tol), which is what makes the
    frequency decomposition exact.
    """
    p = int(np.argmin(np.abs(res.times - t_stop)))
    t = res.times[p]
    assert abs(t - t_stop) <= 0.51 * np.max(np.diff(res.times))
    xi = float(eval_batch(noise, np.array([t]), (0,))[0][0, 0])
    assert abs(xi) <= rest_tol, f"wall displaced (xi={xi:.3g}) at t={t}"
    alpha, beta = decompose(res.Q[0, p], res.P[0, p], omegas, t)
    return t, alpha, beta


def assert_same_bits(got, ref):
    """Equal shapes and equal bytes: unlike assert_array_equal, this also
    tells -0.0 from 0.0 and compares NaN payloads."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


def matmul_loop(A, B):
    """C[r, c] = sum_k A[r, k] B[k, c] on axes 0 and 1 as an explicit loop,
    C = A[:, 0] B[0], then C += A[:, k] B[k] for k = 1, 2, ...: the
    reference for dynamics._matmul's einsum."""
    C = A[:, 0, None] * B[None, 0]
    term = np.empty_like(C)
    for k in range(1, A.shape[1]):
        np.multiply(A[:, k, None], B[None, k], out=term)
        C += term
    return C


def eval_spectral_complex(batch, times, orders):
    """The spectral eval_batch in complex arithmetic: per row, the anchor
    phasors z = exp(i(nu t_a + phi)), the offset table w = exp(i nu r h),
    cz = c z with complex c = (a, i a nu, -a nu^2), and the real product
    [Re cz, -Im cz] @ [Re w; Im w], written into the row's column of the
    (times, rows) output: the reference for noise._eval_spectral."""
    times = np.asarray(times, dtype=float)
    h = _even_step(times)
    stride = ANCHOR_STRIDE if h is not None else 1
    anchors = times[::stride]
    offsets = np.arange(stride) * (h or 0.0)
    amps = batch.amplitudes
    n_t = times.size
    out = {o: np.empty((n_t, len(batch))) for o in orders}
    for i, (nu, phi) in enumerate(zip(batch.frequencies, batch.phases)):
        z = np.exp(1j * (np.multiply.outer(anchors, nu) + phi))
        w = np.exp(1j * np.multiply.outer(nu, offsets))
        coef = {0: amps, 1: 1j * amps * nu, 2: -amps * nu**2}
        cz = np.concatenate([coef[o] * z for o in orders])
        vals = np.concatenate([cz.real, -cz.imag], axis=1) @ np.concatenate([w.real, w.imag])
        vals = vals.reshape(len(orders), -1)
        for k, o in enumerate(orders):
            out[o][:, i] = vals[k, :n_t]
    return out


def windowed_full_profile(xi, win, t, orders):
    """The windowed noise (times, batch) from the window profile at every
    time, w xi, w xi' + w' xi and w xi'' + 2 w' xi' + w'' xi, in new
    arrays: the reference for dynamics._windowed, which touches the ramps
    only."""
    if win is None:
        return tuple(xi.get(o) for o in (0, 1, 2))
    w, w1, w2 = (p[:, None] for p in win.profile(t))
    x0 = w * xi[0]
    x1 = x2 = None
    if 1 in orders:
        x1 = w * xi[1] + w1 * xi[0]
    if 2 in orders:
        x2 = w * xi[2] + 2.0 * w1 * xi[1] + w2 * xi[0]
    return x0, x1, x2
