"""Shared test configuration.

The acceptance tests register one human-readable PASS/FAIL line per
criterion; the hook below prints them at the end of the run so the
acceptance verdict is visible regardless of capture settings.
"""

import numpy as np
import pytest

from stochastic_dce.dynamics import decompose, run_batch, step_grid
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
