"""Monte Carlo machinery: seed derivation, worker invariance, aggregation,
abort handling, and sampling-error scaling."""

import dataclasses
import json
import math

import numpy as np
import pytest

import stochastic_dce.dynamics as dynamics
import stochastic_dce.ensemble as ens
from conftest import first_collapse_step, run_every_step
from stochastic_dce.dynamics import (
    MAP_STEPS,
    IntegratorConfig,
    PlainOscillator,
    CavityModes,
    decompose,
    run_batch,
    suggest_dt,
)
from stochastic_dce.cavity import CavityConfig
from stochastic_dce.ensemble import (
    EnsembleConfig,
    InvariantViolationError,
    TooManyAbortsError,
    convergence_report,
    derive_seed,
    run_ensemble,
    splitmix64,
)
from stochastic_dce.noise import (NoiseKind, NoiseSpec, max_step, synthesize,
                                  synthesize_many)

BAND = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=1.0, nu_min=1.5, nu_max=2.5,
                 n_components=16)
SILENT = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=0.0, nu_min=1.5, nu_max=2.5)

SYS = PlainOscillator(omega=1.0, epsilon=0.05)


def small_cfg(n, seed=7, workers=1, horizon=10.0):
    return EnsembleConfig(n_realizations=n, master_seed=seed,
                          probes=(horizon,), horizon=horizon, workers=workers)


def integ(horizon=10.0):
    return IntegratorConfig(dt=suggest_dt(1.0, horizon))


# ---------------------------------------------------------------------------
# seeds


def test_splitmix64_reference_vectors():
    # published outputs of the splitmix64 stream seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
    assert derive_seed(0, 1) == 0x6E789E6AA1B965F4
    assert derive_seed(0, 2) == 0x06C45D188009454F


def test_splitmix64_matches_independent_implementation():
    def reference(state):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    for x in (0, 1, 42, 2**63, 2**64 - 1, 0xDEADBEEF):
        assert splitmix64(x) == reference(x)


def test_derived_seeds_unique_over_large_streams():
    seeds = {derive_seed(12345, i) for i in range(100_000)}
    assert len(seeds) == 100_000
    # different master seeds give disjoint short streams
    assert len({derive_seed(m, i) for m in (1, 2, 3) for i in range(1000)}) == 3000


def test_ensemble_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(n_realizations=0, master_seed=1, probes=(1.0,), horizon=1.0)
    with pytest.raises(ValueError):
        EnsembleConfig(n_realizations=2, master_seed=1, probes=(), horizon=1.0)
    with pytest.raises(ValueError):
        EnsembleConfig(n_realizations=2, master_seed=1, probes=(1.0,), horizon=0.0)
    with pytest.raises(ValueError):
        EnsembleConfig(n_realizations=2, master_seed=1, probes=(1.0,), horizon=1.0,
                       workers=-1)
    # a probe outside [0, horizon] is refused, not clipped onto the grid's ends
    for probes in ((-0.5, 1.0), (0.5, 1.5)):
        with pytest.raises(ValueError, match="outside"):
            EnsembleConfig(n_realizations=2, master_seed=1, probes=probes, horizon=1.0)
    EnsembleConfig(n_realizations=2, master_seed=1, probes=(0.0, 1.0), horizon=1.0)


# ---------------------------------------------------------------------------
# aggregation correctness


def test_mean_matches_manual_reduction():
    cfg = small_cfg(8)
    stats = run_ensemble(SYS, BAND, integ(), cfg)
    seeds = [derive_seed(cfg.master_seed, i) for i in range(8)]
    reals = synthesize_many(BAND, seeds, cfg.horizon)
    res = run_batch(SYS, reals, integ(), cfg.horizon, cfg.probes)
    _, beta = decompose(res.Q[:, -1, :], res.P[:, -1, :], SYS.omegas,
                        res.times[-1])
    manual = np.mean(np.abs(beta[:, 0]) ** 2)
    assert stats.mean[("beta2_total", 0)][-1] == pytest.approx(manual, rel=1e-12)
    assert stats.n_effective == 8
    assert stats.record["aborted"] == []


def test_worker_count_does_not_change_results():
    # at the default CHUNK_SIZE, workers 2 splits 64 rows into two chunks
    # run in a pool; workers 1 runs them as one
    cfg1 = small_cfg(64, workers=1, horizon=6.0)
    cfg2 = small_cfg(64, workers=2, horizon=6.0)
    assert ens.chunk_layout(cfg1) == ([(0, 64)], 1)
    assert ens.chunk_layout(cfg2) == ([(0, 32), (32, 64)], 2)
    ou = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=1.0, t_c=0.5)
    for noise in (ou, BAND):
        s1 = run_ensemble(SYS, noise, integ(6.0), cfg1)
        s2 = run_ensemble(SYS, noise, integ(6.0), cfg2)
        for key in s1.keys():
            np.testing.assert_array_equal(s1.mean[key], s2.mean[key])
            np.testing.assert_array_equal(s1.variance[key], s2.variance[key])
        assert s1.record["max_wronskian_drift"] == s2.record["max_wronskian_drift"]


def test_pool_has_one_process_per_chunk_at_most(monkeypatch):
    sizes = []

    class Recording(ens.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(ens, "ProcessPoolExecutor", Recording)
    cfg = small_cfg(2, workers=3, horizon=6.0)
    assert ens.chunk_layout(cfg) == ([(0, 1), (1, 2)], 3)
    stats = run_ensemble(SYS, BAND, integ(6.0), cfg)
    assert sizes == [2] and stats.n_effective == 2


# a run's record entries that time it, and those of its chunk layout
TIMINGS = {"simulate_s", "realization_steps_per_s", "synthesis_s", "eval_s",
           "build_s", "chain_s", "extract_s"}
LAYOUT = {"chunk_size", "chunks", "workers"}


def run_facts(stats, skip=TIMINGS):
    """A run's means and variances as bytes, and its record without skip."""
    arrays = {key: (stats.mean[key].tobytes(), stats.variance[key].tobytes())
              for key in stats.keys()}
    return arrays, {k: v for k, v in stats.record.items() if k not in skip}


def test_runs_in_a_shared_pool_block_reuse_one_pool(recorded_pools):
    # two pooled runs of two processes inside one block build one pool,
    # which the block shuts down and waits for; they give the bytes of
    # the same runs, each in a pool of its own, and of the runs at workers 1
    ou = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=1.0, t_c=0.5)
    runs = [(BAND, small_cfg(2, workers=3, horizon=6.0)),
            (ou, small_cfg(64, workers=2, horizon=6.0))]
    with ens.shared_pool():
        shared = [run_ensemble(SYS, noise, integ(6.0), cfg) for noise, cfg in runs]
        assert len(recorded_pools) == 1 and recorded_pools[0].waited is None
    pool = recorded_pools[0]
    assert pool.size == 2 and pool.waited is True and len(pool.workers) == 2
    assert not any(w.is_alive() for w in pool.workers)
    alone = [run_ensemble(SYS, noise, integ(6.0), cfg) for noise, cfg in runs]
    assert [p.size for p in recorded_pools] == [2, 2, 2]
    serial = [run_ensemble(SYS, noise, integ(6.0), dataclasses.replace(cfg, workers=1))
              for noise, cfg in runs]
    assert len(recorded_pools) == 3
    for s, a, one in zip(shared, alone, serial):
        assert s.record["chunks"] == 2
        assert run_facts(s) == run_facts(a)
        assert run_facts(s, TIMINGS | LAYOUT) == run_facts(one, TIMINGS | LAYOUT)


def test_a_failed_run_leaves_no_worker_of_a_shared_pool(recorded_pools):
    # the exact-path sigma 1.02 run of the chunk-layout test below, at
    # workers 2: its RunFailure leaves the block, which still shuts the
    # pool down and waits for every worker
    noise = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=1.02, nu_min=0.5,
                      nu_max=1.5, n_components=2)
    cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.5, nz_max=1)
    cfg = EnsembleConfig(n_realizations=16, master_seed=3, probes=(15.0, 30.0),
                         horizon=30.0, workers=2)
    with pytest.raises(InvariantViolationError) as err:
        with ens.shared_pool():
            run_ensemble(CavityModes(cav, "exact"), noise, IntegratorConfig(dt=0.02),
                         cfg)
    assert err.value.record["aborted"] and err.value.record["chunks"] == 2
    [pool] = recorded_pools
    assert pool.waited is True and len(pool.workers) == 2
    assert not any(w.is_alive() for w in pool.workers)


@pytest.mark.parametrize("coupled", [False, True])
def test_chunk_size_does_not_change_results(monkeypatch, coupled):
    # rows integrate to the same bits in any batch, so chunks of 3 and
    # one chunk of 1024 give the same means and variances: a plain
    # oscillator under OU noise and three coupled modes under band noise
    if coupled:
        cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.02, nz_max=3)
        sys_, noise = CavityModes(cav), NoiseSpec(
            kind=NoiseKind.BAND_LIMITED, sigma=1.0, nu_min=9.0, nu_max=10.0,
            n_components=8)
        icfg = IntegratorConfig(dt=suggest_dt(float(cav.omegas()[-1]), 6.0))
    else:
        sys_ = SYS
        noise = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=1.0, t_c=0.5)
        icfg = integ(6.0)
    cfg = EnsembleConfig(n_realizations=7, master_seed=5, probes=(2.5, 6.0),
                         horizon=6.0, workers=1)
    defects = []

    def recording(*args):
        res = run_batch(*args)
        defects.append(res.defect)
        return res

    monkeypatch.setattr(ens, "run_batch", recording)
    one = run_ensemble(sys_, noise, icfg, cfg)
    monkeypatch.setattr(ens, "CHUNK_SIZE", 3)
    assert len(ens.chunk_layout(cfg)[0]) == 3
    three = run_ensemble(sys_, noise, icfg, cfg)
    for key in one.keys():
        np.testing.assert_array_equal(one.mean[key], three.mean[key])
        np.testing.assert_array_equal(one.variance[key], three.variance[key])
    # and so is every row's symplectic defect
    assert len(defects) == 4
    np.testing.assert_array_equal(defects[0], np.concatenate(defects[1:]))


def test_repeated_runs_are_identical():
    cfg = small_cfg(16, horizon=6.0)
    a = run_ensemble(SYS, BAND, integ(6.0), cfg)
    b = run_ensemble(SYS, BAND, integ(6.0), cfg)
    for key in a.keys():
        np.testing.assert_array_equal(a.mean[key], b.mean[key])


def test_silent_noise_has_zero_variance():
    cfg = small_cfg(4, horizon=6.0)
    stats = run_ensemble(SYS, SILENT, integ(6.0), cfg)
    res = run_every_step(SYS, synthesize(SILENT, 0, 6.0), integ(6.0), 6.0)
    np.testing.assert_allclose(stats.variance[("q_re", 0)], 0.0, atol=1e-28)
    assert stats.mean[("q_re", 0)][-1] == pytest.approx(res.Q[0, -1, 0].real,
                                                        rel=1e-10)


def test_single_realization_has_nan_error():
    stats = run_ensemble(SYS, BAND, integ(6.0), small_cfg(1, horizon=6.0))
    assert stats.n_effective == 1
    assert math.isnan(stats.standard_error[("beta2_total", 0)][0])


# ---------------------------------------------------------------------------
# failure handling


def test_too_many_aborts_fails_the_run():
    noisy = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=3.0, nu_min=0.5,
                      nu_max=1.5, n_components=2)
    cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.5, nz_max=1)
    sys_ = CavityModes(cav, "exact")
    cfg = EnsembleConfig(n_realizations=32, master_seed=0, probes=(30.0,),
                         horizon=30.0, workers=1)
    icfg = IntegratorConfig(dt=0.02)
    with pytest.raises(TooManyAbortsError):
        run_ensemble(sys_, noisy, icfg, cfg)


def test_collapsing_chunk_is_one_pass(monkeypatch):
    noisy = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=1.02, nu_min=0.5,
                      nu_max=1.5, n_components=2)
    cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.5, nz_max=1)
    sys_ = CavityModes(cav, "exact")
    icfg = IntegratorConfig(dt=0.02)
    start, stop = 8, 32
    cfg = EnsembleConfig(n_realizations=stop, master_seed=3, probes=(15.0, 30.0),
                         horizon=30.0, workers=1)
    seeds = [derive_seed(3, i) for i in range(stop)]
    first = first_collapse_step(synthesize_many(noisy, seeds, 30.0), 0.5, icfg, 30.0)
    # rows collapse in several map blocks, so a retry per collapsing
    # block would show as more than one call
    assert len(set(first[first >= 0] // MAP_STEPS)) > 2 and (first < 0).any()
    kept, aborted = np.flatnonzero(first < 0), np.flatnonzero(first >= 0)

    calls = {"synthesize_many": 0, "run_batch": 0}

    def counted(name):
        real = getattr(ens, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(ens, name, counted(name))
    # a chunk of [start, stop) keeps its finite rows, named by realization
    chunk = ens._run_chunk(sys_, noisy, icfg, cfg, start, stop)
    assert calls == {"synthesize_many": 1, "run_batch": 1}
    assert chunk.kept.tolist() == kept[kept >= start].tolist()
    assert chunk.panel.shape[0] == chunk.defect.shape[0] == chunk.kept.size
    assert np.isfinite(chunk.panel).all() and np.isfinite(chunk.defect).all()

    # and a run of [0, stop), one chunk, reports the other rows as aborts
    calls.update(synthesize_many=0, run_batch=0)
    monkeypatch.setattr(ens, "WRONSKIAN_TOL", 1e-30)    # every kept row violates
    with pytest.raises(InvariantViolationError) as err:
        run_ensemble(sys_, noisy, icfg, cfg)
    assert calls == {"synthesize_many": 1, "run_batch": 1}
    record = err.value.record
    assert record["aborted"] == aborted.tolist()
    assert record["max_wronskian_drift"] is not None
    assert sorted({v["realization"] for v in err.value.violations}) == kept.tolist()


def test_single_abort_is_excluded(monkeypatch):
    real_run_batch = ens.run_batch
    state = {"failed": False}

    def flaky(system, realizations, *args, **kwargs):
        res = real_run_batch(system, realizations, *args, **kwargs)
        if not state["failed"]:
            state["failed"] = True
            res.collapsed[2] = True
        return res

    monkeypatch.setattr(ens, "run_batch", flaky)
    cfg = EnsembleConfig(n_realizations=300, master_seed=7, probes=(6.0,),
                         horizon=6.0, workers=1)
    stats = run_ensemble(SYS, BAND, integ(6.0), cfg)
    assert stats.record["aborted"] == [2]
    assert stats.n_effective == 299

    # the surviving members match a clean run with realization 2 removed
    clean = run_ensemble(SYS, BAND, integ(6.0),
                         EnsembleConfig(n_realizations=300, master_seed=7,
                                        probes=(6.0,), horizon=6.0, workers=1))
    key = ("beta2_total", 0)
    kept = [i for i in range(300) if i != 2]
    seeds = [derive_seed(7, i) for i in kept]
    reals = synthesize_many(BAND, seeds, 6.0)
    res = real_run_batch(SYS, reals, integ(6.0), 6.0, (6.0,))
    _, beta = decompose(res.Q[:, -1, :], res.P[:, -1, :], SYS.omegas,
                        res.times[-1])
    assert stats.mean[key][-1] == pytest.approx(
        float(np.mean(np.abs(beta[:, 0]) ** 2)), rel=1e-12)
    assert stats.mean[key][-1] != clean.mean[key][-1]


def test_invariant_violation_raises(monkeypatch):
    monkeypatch.setattr(ens, "WRONSKIAN_TOL", 1e-30)
    with pytest.raises(InvariantViolationError) as err:
        run_ensemble(SYS, BAND, integ(6.0), small_cfg(4, horizon=6.0))
    entry = err.value.violations[0]
    assert entry["kind"] == "wronskian"
    assert 0 <= entry["realization"] < 4
    assert entry["value"] > 1e-30
    assert err.value.record["n_effective"] == 4
    assert err.value.record["max_wronskian_drift"] > 1e-30


def test_ou_drift_hint_stays_inside_one_knot_cell(monkeypatch):
    # an OU run at two knot cells a step, with the bound just under its
    # drift: the drift law's step is past the cell (0.01 at t_c 0.5), and
    # the hint is the cell
    ou = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=1.0, t_c=0.5)
    icfg, cfg = IntegratorConfig(dt=0.02), small_cfg(4, horizon=6.0)
    drift = run_ensemble(SYS, ou, icfg, cfg).record["max_wronskian_drift"]
    monkeypatch.setattr(ens, "WRONSKIAN_TOL", 0.5 * drift)
    monkeypatch.setattr(dynamics, "WRONSKIAN_TOL", 0.5 * drift)
    assert dynamics.drift_law_dt(0.02, drift) > 0.015
    with pytest.raises(InvariantViolationError) as err:
        run_ensemble(SYS, ou, icfg, cfg)
    assert err.value.record["drift_law_dt"] == max_step(ou, 6.0) == 0.01


def test_nan_drift_is_a_violation():
    nan_noise = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=math.nan,
                          nu_min=1.5, nu_max=2.5, n_components=16)
    with pytest.raises(InvariantViolationError, match="non-finite") as err:
        run_ensemble(SYS, nan_noise, integ(6.0), small_cfg(2, horizon=6.0))
    entries = err.value.violations
    assert {e["kind"] for e in entries} == {"wronskian"}
    assert all(e["value"] is None for e in entries)
    json.dumps(entries, allow_nan=False)    # what summary.json records


@pytest.mark.parametrize("sigma", [0.3, 1.02, 3.0],
                         ids=["drift", "drift_and_aborts", "all_abort"])
def test_run_checks_do_not_depend_on_the_chunk_layout(monkeypatch, sigma):
    # the exact path at a coarse step: every row drifts past the bound
    # (sigma 0.3), some walls reach the far mirror and the rows kept
    # drift (1.02), or every row collapses (3.0).  One chunk, workers 2
    # (two pooled chunks) and chunks of 3 report the same failure.
    noise = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=sigma, nu_min=0.5,
                      nu_max=1.5, n_components=2)
    cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.5, nz_max=1)
    sys_ = CavityModes(cav, "exact")
    icfg = IntegratorConfig(dt=0.02)
    cfg = EnsembleConfig(n_realizations=16, master_seed=3, probes=(15.0, 30.0),
                         horizon=30.0, workers=1)

    def failure(cfg):
        with pytest.raises(ens.RunFailure) as err:
            run_ensemble(sys_, noise, icfg, cfg)
        record = err.value.record
        facts = (type(err.value), err.value.violations, record["aborted"],
                 record["max_wronskian_drift"], record.get("drift_law_dt"))
        return record["chunks"], facts

    one = failure(cfg)
    two = failure(dataclasses.replace(cfg, workers=2))
    monkeypatch.setattr(ens, "CHUNK_SIZE", 3)
    three = failure(cfg)
    assert (one[0], two[0], three[0]) == (1, 2, 6)
    assert one[1] == two[1] == three[1]
    kind, violations, aborted, _, hint = one[1]
    if sigma == 3.0:
        assert kind is TooManyAbortsError and aborted == list(range(16))
    else:
        # the drift of the rows kept at sigma 1.02 is past the drift law's range
        assert kind is InvariantViolationError and (hint is None) == (sigma > 1.0)
        assert bool(aborted) == (sigma > 1.0)
        assert violations == sorted(violations, key=lambda v: v["realization"])


class DropsVelocityCoupling(CavityModes):
    """Coupled modes with the 2 lam G Q' term of the equations left out."""

    def accel(self, Q, P, x0, x1, x2):
        # mode-first: modes on axis 0, noise values broadcast over the rest
        eps = self.epsilon
        col = (-1,) + (1,) * (Q.ndim - 1)
        a = (-self.omegas.reshape(col)**2
             + (2.0 * eps) * x0 * self.omega_zs.reshape(col)**2) * Q
        a += eps * x2 * np.tensordot(self.gmat, Q, axes=1)
        return a


@pytest.mark.parametrize("ramp", [0.0, 1.5])
def test_broken_coupled_integrator_is_caught(ramp):
    # position-kick runs are checked through their vacuum solution column
    cav = CavityConfig(Lx=1e6, Ly=1e6, Lz0=1.0, epsilon=0.02, nz_max=2)
    noise = NoiseSpec(kind=NoiseKind.BAND_LIMITED, sigma=1.0, nu_min=9.0,
                      nu_max=10.0, n_components=8)
    icfg = IntegratorConfig(dt=suggest_dt(float(cav.omegas()[-1]), 6.0),
                            window_ramp=ramp)
    for initial in ("vacuum", "position_kick"):
        with pytest.raises(InvariantViolationError) as err:
            run_ensemble(DropsVelocityCoupling(cav), noise, icfg,
                         dataclasses.replace(small_cfg(2, horizon=6.0), initial=initial))
        assert {e["kind"] for e in err.value.violations} == {"wronskian"}


class DampsSecondMode:
    """Two uncoupled noisy modes, omega = (1, 2), with a friction term
    -0.01 Q' on mode 2 only: a non-Hamiltonian error outside the in-mode."""

    n_modes = 2
    noise_orders = (0,)
    omegas = np.array([1.0, 2.0])

    def accel(self, Q, P, x0, x1, x2):
        # both modes scale with 1 + 0.1 x0, so the build broadcasts over
        # steps and rows
        a = -self.omegas.reshape((-1,) + (1,) * (Q.ndim - 1)) ** 2 * (1.0 + 0.1 * x0) * Q
        a[1] -= 0.01 * P[1]
        return a

    def canonical_momentum(self, Q, P, x0, x1):
        return P


@pytest.mark.parametrize("initial", ["vacuum", "position_kick"])
def test_damped_other_mode_is_caught(initial):
    # the vacuum solution of in-mode 1 never touches mode 2, so its
    # Wronskian holds (drift 5e-11); the symplectic defect of the whole
    # propagator sees the friction (0.095)
    noise = NoiseSpec(kind=NoiseKind.ORNSTEIN_UHLENBECK, sigma=1.0, t_c=0.5)
    cfg = dataclasses.replace(small_cfg(2, horizon=10.0), initial=initial)
    with pytest.raises(InvariantViolationError) as err:
        run_ensemble(DampsSecondMode(), noise, IntegratorConfig(dt=0.01), cfg)
    assert {e["kind"] for e in err.value.violations} == {"wronskian"}


# ---------------------------------------------------------------------------
# sampling-error scaling


def test_convergence_report_scaling():
    stats = [run_ensemble(SYS, BAND, integ(6.0), small_cfg(n, horizon=6.0))
             for n in (100, 300, 1000)]
    rep = convergence_report(stats)
    assert rep.n_values == (100, 300, 1000)
    assert rep.scaling_ok, f"exponent {rep.exponent}"
    assert -0.6 <= rep.exponent <= -0.4


def test_convergence_report_needs_two_points():
    stats = run_ensemble(SYS, BAND, integ(6.0), small_cfg(50, horizon=6.0))
    with pytest.raises(ValueError):
        convergence_report([stats])
