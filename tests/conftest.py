"""Shared test configuration.

The acceptance tests register one human-readable PASS/FAIL line per
criterion; the hook below prints them at the end of the run so the
acceptance verdict is visible regardless of capture settings.
"""

import numpy as np
import pytest

from stochastic_dce.dynamics import (Window, _windowed, decompose, initial_data, run_batch,
                                     step_grid)
from stochastic_dce.noise import eval_batch

# criterion label -> (passed, detail); filled in by tests/test_acceptance.py
ACCEPTANCE_RESULTS: dict[str, tuple[bool, str]] = {}


def record_criterion(label: str, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[label] = (bool(passed), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for label in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[label]
        verdict = "PASS" if passed else "FAIL"
        tw.write_line(f"{label} {verdict}: {detail}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def run_every_step(system, noise, integrator, horizon, **kwargs):
    """run_batch with a probe at every step of the grid."""
    nsteps, dt, _ = step_grid(horizon, integrator)
    return run_batch(system, noise, integrator, horizon,
                     np.arange(nsteps + 1) * dt, **kwargs)


def rk4_every_step(system, noise, integrator, horizon, initial="vacuum"):
    """(Q, Q') of every row at every step, shaped (steps + 1, modes, batch), by
    the plain per-step RK4 loop: the reference for run_batch's propagators."""
    nsteps, dt, _ = step_grid(horizon, integrator)
    t = 0.5 * dt * np.arange(2 * nsteps + 1)
    win = Window(integrator.window_ramp, horizon) if integrator.window_ramp > 0 else None
    xi = eval_batch(noise, t, tuple(sorted({0, *system.noise_orders})))
    x = [v if v is None else v.T for v in _windowed(xi, win, t, system.noise_orders)]
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
