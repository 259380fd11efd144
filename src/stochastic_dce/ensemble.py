"""Monte Carlo ensembles: reproducible seeds, batched runs, statistics.

Realizations are processed in chunks sized from the ensemble and the
worker count, so that every worker gets one; each chunk owns its noise
synthesis and integration and returns raw per-row facts: the values
and symplectic defect of the rows it kept, and their realization
indices (run_batch masks a collapsed row, and the chunk leaves it out).
run_ensemble joins the chunks in realization order and checks the run
once: the rows not kept are the aborts, and one _check_invariants call
over every kept row's defect gives the violations and the largest
drift.  A row integrates to the same bits in any chunk and the final
reduction is an exactly rounded sum, so the output, checks included,
is identical for any chunk and worker layout.  Every run also reports
what it ran (step, layout, aborts, drift, time) in one record, which a
failed run's error (a RunFailure) carries too.

More than one chunk and worker run in a process pool: the run's own,
shut down before it returns, or, inside a shared_pool() block, the
block's, which serves every run in it and shuts down when it exits.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import (
    DRIFT_LAW_MAX,
    WRONSKIAN_TOL,
    IntegratorConfig,
    decompose,
    drift_law_dt,
    run_batch,
    step_grid,
    wronskian,  # noqa: F401  perfbench/tracer.py counts calls through this name
)
from .noise import NoiseSpec, max_step, synthesize_many

__all__ = [
    "CHUNK_SIZE",
    "EnsembleConfig",
    "EnsembleStats",
    "RunFailure",
    "InvariantViolationError",
    "TooManyAbortsError",
    "derive_seed",
    "splitmix64",
    "chunk_layout",
    "run_ensemble",
    "shared_pool",
    "convergence_report",
    "ConvergenceReport",
]

CHUNK_SIZE = 256            # the most realizations one chunk holds
MAX_ABORT_FRACTION = 0.01

log = logging.getLogger("sdce")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (public 64-bit avalanche)."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Collision-free per-realization seed stream from one master seed."""
    return splitmix64((master_seed + index * _GOLDEN) & _MASK64)


class RunFailure(RuntimeError):
    """A run that failed a check, with what summary.json reports of it."""

    def __init__(self, message, violations, record):
        super().__init__(message)
        self.violations = violations   # summary.json's "violations" entries
        self.record = record           # the run's facts, as EnsembleStats.record


class InvariantViolationError(RunFailure):
    """A realization violated a conserved-quantity bound."""

    def __init__(self, entries, record):
        first = entries[0]             # dicts: realization, kind, value, time
        value = "non-finite" if first["value"] is None else f"{first['value']:.3e}"
        hint = record.get("drift_law_dt")
        super().__init__(
            f"{len(entries)} invariant violation(s); first: "
            f"{first['kind']}={value} at t={first['time']} "
            f"(realization {first['realization']})"
            + ("" if hint is None else
               f"; by RK4's drift law the bound holds at dt = {hint:.3g}"),
            entries, record)


class TooManyAbortsError(RunFailure):
    """More than the tolerated fraction of realizations collapsed."""

    def __init__(self, message, record):
        super().__init__(message, [{"kind": "abort_fraction", "detail": message}],
                         record)


@dataclass(frozen=True)
class EnsembleConfig:
    n_realizations: int
    master_seed: int
    probes: tuple
    horizon: float
    workers: int = 0            # 0 = auto
    in_mode: int = 1
    initial: str = "vacuum"

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if len(self.probes) == 0:
            raise ValueError("at least one probe time is required")
        if outside := [p for p in self.probes if not 0 <= p <= self.horizon]:
            raise ValueError(f"probes {outside} lie outside "
                             f"[0, horizon] = [0, {self.horizon:g}]")


@dataclass
class EnsembleStats:
    """Ensemble means at the probe times, with sampling errors.

    Arrays are keyed by (quantity, mode); mode 0 marks quantities that
    are not per-mode.  standard_error is NaN when n_effective == 1.
    record holds what the run did, one entry per summary.json key:
    n_effective, aborted, abort_count, dt, nsteps, chunk_size, chunks,
    workers, max_wronskian_drift (None if not finite), simulate_s (the
    run's wall time up to the reduction), realization_steps_per_s
    (kept realizations x nsteps / simulate_s) and the seconds per layer,
    summed over chunks: synthesis_s, then run_batch's eval_s, build_s,
    chain_s and extract_s.  A run that violates the drift bound adds
    drift_law_dt, the step at which RK4's drift law
    (dynamics.drift_law_dt) puts its largest finite drift at the bound,
    capped at the noise's noise.max_step (one knot cell of OU noise),
    while that drift is within the law's range, dynamics.DRIFT_LAW_MAX.
    """

    times: np.ndarray
    mean: dict
    variance: dict
    standard_error: dict
    n_effective: int
    record: dict

    def keys(self):
        return list(self.mean.keys())


def _quantity_panel(res, rows, system, in_mode):
    """Per-realization quantities of res's rows at each probe: (B, P, nq) plus keys."""
    Q, P = res.Q[rows], res.P[rows]
    beta2 = np.stack([np.abs(decompose(Q[:, p], P[:, p], system.omegas, t)[1]) ** 2
                      for p, t in enumerate(res.times)], axis=1)     # (B, P, m)
    q = Q[:, :, in_mode - 1]
    panel = {("beta2", k + 1): beta2[:, :, k] for k in range(beta2.shape[2])}
    panel[("beta2_total", 0)] = beta2.sum(axis=2)
    for name, arr in (("q_re", q.real), ("q_im", q.imag), ("q2_re", (q * q).real),
                      ("q2_im", (q * q).imag), ("abs_q2", np.abs(q) ** 2)):
        panel[(name, 0)] = arr
    return list(panel), np.stack(list(panel.values()), axis=2)


def _check_invariants(drift, times, realizations):
    """The symplectic defect of the propagator, every kept row, every probe.

    Called once per run, on every chunk's kept rows joined in
    realization order.  drift (rows, probes at times) is
    BatchResult.defect: the largest Wronskian drift over all pairs of
    vacuum-normalised basis solutions, so every run is checked the same
    way whatever its initial data, and a non-Hamiltonian error in any
    mode shows.  A non-finite drift is a violation too, with value None,
    so that summary.json stays valid JSON.  Returns the violation
    entries in realization order (realizations[b] names row b), the
    largest drift (NaN if any is) and the largest finite drift.
    """
    entries = [
        {"realization": int(realizations[b]), "kind": "wronskian",
         "value": float(drift[b, p]) if np.isfinite(drift[b, p]) else None,
         "time": float(times[p])}
        for b, p in np.argwhere(~(drift <= WRONSKIAN_TOL))
    ]
    return (entries, float(np.max(drift, initial=0.0)),
            float(np.max(drift, initial=0.0, where=np.isfinite(drift))))


class _Chunk(NamedTuple):
    """One chunk's raw per-row facts; run_ensemble does every check."""

    keys: list
    panel: np.ndarray           # (kept rows in realization order, probes, quantities)
    times: np.ndarray
    kept: np.ndarray            # the kept rows' realization indices
    defect: np.ndarray          # (kept rows, probes) symplectic defect
    seconds: float
    layers: dict                # wall time per layer: synthesis_s, then run_batch's


def _run_chunk(system, noise_spec, integrator, ensemble, start, stop):
    """Integrate realizations [start, stop) in one batch; returns its
    results, with the collapsed rows left out."""
    t0 = time.perf_counter()
    seeds = [derive_seed(ensemble.master_seed, i) for i in range(start, stop)]
    noise = synthesize_many(noise_spec, seeds, ensemble.horizon)
    t1 = time.perf_counter()
    res = run_batch(system, noise, integrator, ensemble.horizon,
                    ensemble.probes, ensemble.initial, ensemble.in_mode)
    t2 = time.perf_counter()
    kept = np.flatnonzero(~res.collapsed)
    keys, panel = _quantity_panel(res, kept, system, ensemble.in_mode)
    t3 = time.perf_counter()
    layers = {"synthesis_s": t1 - t0, **res.seconds}
    layers["extract_s"] += t3 - t2
    return _Chunk(keys, panel, res.times, start + kept, res.defect[kept],
                  t3 - t0, layers)


def chunk_layout(ensemble: EnsembleConfig):
    """The run's chunks [(start, stop), ...] and its worker count.

    Workers 0 resolves to one per CPU.  Chunks hold ceil(N / workers)
    realizations, at most CHUNK_SIZE (the last one the rest), so that
    every worker has a chunk.  More than one chunk and more than one
    worker run the chunks in a process pool, one process per chunk at
    most.
    """
    N = ensemble.n_realizations
    workers = ensemble.workers or os.cpu_count() or 1
    size = min(CHUNK_SIZE, -(-N // workers))
    return [(s, min(N, s + size)) for s in range(0, N, size)], workers


# The innermost shared_pool() block's open pools by process count, or
# None outside any block.  Ambient, not an argument, so that
# run_ensemble's signature stays the one its callers wrap.
_shared_pools: dict | None = None


@contextlib.contextmanager
def shared_pool():
    """A block whose pooled runs share their worker processes.

    Each run_ensemble inside the block that runs in a pool takes the
    block's pool of its size, min(workers, chunks), opening it on first
    use; the block shuts every pool down, waiting for its workers, when
    it exits, whether normally or by an exception.  Workers fork when a
    pool opens, so code patched before that runs in them too.
    """
    global _shared_pools
    outer, _shared_pools = _shared_pools, {}
    try:
        yield
    finally:
        pools, _shared_pools = _shared_pools, outer
        for pool in pools.values():
            pool.shutdown(wait=True)


@contextlib.contextmanager
def _pool(size: int):
    """The pool of `size` processes a run uses: None for one process,
    else the shared_pool() block's or one of the run's own."""
    if size <= 1:
        yield None
    elif _shared_pools is None:
        with ProcessPoolExecutor(max_workers=size) as pool:
            yield pool
    else:
        if size not in _shared_pools:
            _shared_pools[size] = ProcessPoolExecutor(max_workers=size)
        yield _shared_pools[size]


def run_ensemble(system, noise_spec: NoiseSpec, integrator: IntegratorConfig,
                 ensemble: EnsembleConfig) -> EnsembleStats:
    """Run the full ensemble and aggregate statistics.

    Bit-identical output for any chunk and worker layout: a row rounds
    the same in any chunk, and the reduction sums each column exactly
    rounded.  Invariant violations raise; collapsed (masked) realizations
    are excluded, failing the run if they exceed 1% of the ensemble.  The
    stats' record, or the raised error's, says what the run did.  Pooled
    chunks run in the enclosing shared_pool() block's pool, which stays
    open, or else in one of the run's own, shut down before it returns.
    """
    t0 = time.perf_counter()
    N = ensemble.n_realizations
    chunks, workers = chunk_layout(ensemble)
    nsteps, dt, _ = step_grid(ensemble.horizon, integrator, ensemble.probes)
    n = len(chunks)
    # _run_chunk is looked up per call, so a wrapper patched over it is
    # what the pool workers run
    run = functools.partial(_run_chunk, system, noise_spec, integrator, ensemble)
    with _pool(min(workers, n)) as pool:
        results = []
        for i, r in enumerate((pool.map if pool else map)(run, *zip(*chunks))):
            # the progress line of a long run
            log.info("%r: chunk %d/%d, %d rows, %.2f s", system, i + 1, n,
                     chunks[i][1] - chunks[i][0], r.seconds)
            results.append(r)

    times = results[0].times
    kept = np.concatenate([r.kept for r in results])
    aborted = np.setdiff1d(np.arange(N), kept).tolist()
    n_eff = kept.size
    violations, drift, finite = _check_invariants(
        np.concatenate([r.defect for r in results]), times, kept)
    seconds = time.perf_counter() - t0
    record = {
        "n_effective": n_eff, "aborted": aborted, "abort_count": len(aborted),
        "dt": dt, "nsteps": nsteps,
        "chunk_size": chunks[0][1] - chunks[0][0], "chunks": n, "workers": workers,
        "max_wronskian_drift": drift if math.isfinite(drift) else None,
        "simulate_s": seconds, "realization_steps_per_s": n_eff * nsteps / seconds,
    }
    for layer in results[0].layers:
        record[layer] = sum(r.layers[layer] for r in results)
    if violations:
        if WRONSKIAN_TOL < finite <= DRIFT_LAW_MAX:
            record["drift_law_dt"] = min(drift_law_dt(dt, finite),
                                         max_step(noise_spec, ensemble.horizon))
        raise InvariantViolationError(violations, record)
    if len(aborted) > MAX_ABORT_FRACTION * N:
        raise TooManyAbortsError(
            f"{len(aborted)}/{N} realizations collapsed (> "
            f"{100 * MAX_ABORT_FRACTION:.0f}% tolerated)", record)

    keys = results[0].keys
    staged = np.concatenate([r.panel for r in results])   # (n_eff, probes, keys)
    P = times.size
    mean, var, sem = {}, {}, {}
    for j, key in enumerate(keys):
        mcol = np.empty(P)
        vcol = np.empty(P)
        for p in range(P):
            col = staged[:, p, j]
            mcol[p] = math.fsum(col) / n_eff
            if n_eff > 1:
                vcol[p] = math.fsum((col - mcol[p]) ** 2) / (n_eff - 1)
            else:
                vcol[p] = math.nan
        mean[key] = mcol
        var[key] = vcol
        sem[key] = np.sqrt(vcol / n_eff)
    return EnsembleStats(times, mean, var, sem, n_eff, record)


@dataclass(frozen=True)
class ConvergenceReport:
    n_values: tuple
    errors: tuple
    exponent: float
    scaling_ok: bool           # exponent within [-0.6, -0.4]


def convergence_report(stats_list, key=("beta2_total", 0),
                       probe: int = -1) -> ConvergenceReport:
    """Fit the sampling-error decay against ensemble size.

    For iid realizations the standard error falls as N^(-1/2); the fitted
    log-log slope should sit in [-0.6, -0.4] over a decade of N.
    """
    ns = [s.n_effective for s in stats_list]
    errs = [float(s.standard_error[key][probe]) for s in stats_list]
    if len(ns) < 2 or any(e <= 0 or math.isnan(e) for e in errs):
        raise ValueError("need >= 2 ensembles with positive standard errors")
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    return ConvergenceReport(tuple(ns), tuple(errs), float(slope),
                             -0.6 <= slope <= -0.4)
