"""In-memory span tracer around the package's layer boundaries.

The tracer edits nothing in the package.  While installed it swaps the
module-level functions that one layer calls in another (and the systems'
``accel`` methods) for timing wrappers; ``uninstall`` puts the originals
back.  A span is a dict with id, name, start, end, parent and pid, plus
the work counts of its call.  Calls too frequent for a span each
(``accel``, ``decompose``, ``wronskian``) only add to time and call counters.

Times come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans from pool workers share the parent's
time base.  Pool workers forked while the tracer is installed inherit the
wrappers; each appends its spans and counters to a file in the trace
directory whenever its outermost span (a chunk) ends, and ``collect``
merges those files into the parent's record.  Workers started by
``spawn`` or ``forkserver`` import the package afresh and are not traced.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

from stochastic_dce import cli, dynamics, ensemble
from workloads import nsteps


class Tracer:
    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.main_pid = os.getpid()
        self._pid = self.main_pid
        self._originals = []
        self.reset()

    def reset(self):
        """Drop every recorded span and counter, workers' files included."""
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._seq = 0
        for path in self.trace_dir.glob("worker-*.jsonl"):
            path.unlink()

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        pid = os.getpid()
        if pid != self._pid:
            # first span in a forked pool worker: forget the parent's record
            self._pid = pid
            self.spans, self.counters, self._stack = [], defaultdict(float), []
        self._seq += 1
        span = {"id": f"{pid}:{self._seq}", "name": name,
                "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "pid": pid}
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)
        if not self._stack and span["pid"] != self.main_pid:
            self._flush_worker()

    def _flush_worker(self):
        path = self.trace_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            fh.write(json.dumps({"spans": self.spans, "counters": self.counters}))
            fh.write("\n")
        self.spans, self.counters = [], defaultdict(float)

    def _span(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                # out is None when fn raised; attrs land before _close so
                # that a worker's flush carries them
                if attrs is not None:
                    span.update(attrs(out, *args, **kwargs))
                self._close(span)
        return wrapper

    def _count(self, name, fn):
        seconds, calls = name + ".s", name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counters[seconds] += time.perf_counter() - t0
                self.counters[calls] += 1
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        targets = [
            (cli, "load_config", self._span("config.load", cli.load_config)),
            (cli, "cmd_simulate",
             self._span("cli.simulate", cli.cmd_simulate, _simulate_attrs)),
            (cli, "cmd_predict", self._span("theory.predict", cli.cmd_predict)),
            (cli, "cmd_compare", self._span("cli.compare", cli.cmd_compare)),
            (cli, "run_ensemble", self._span("ensemble.run_ensemble",
                                             cli.run_ensemble, _ensemble_attrs)),
            (ensemble, "_run_chunk",
             self._span("ensemble.chunk", ensemble._run_chunk)),
            (ensemble, "synthesize_many",
             self._span("noise.synthesize_many", ensemble.synthesize_many,
                        lambda out, spec, seeds, horizon: {"rows": len(seeds)})),
            (ensemble, "run_batch", self._span("dynamics.run_batch",
                                               ensemble.run_batch, _batch_attrs)),
            (dynamics, "eval_batch", self._span("noise.eval_batch",
                                                dynamics.eval_batch, _eval_attrs)),
            (ensemble, "decompose",
             self._count("dynamics.decompose", ensemble.decompose)),
            (ensemble, "wronskian",
             self._count("dynamics.wronskian", ensemble.wronskian)),
        ]
        for system in (dynamics.PlainOscillator, dynamics.CavityModes):
            targets.append((system, "accel",
                            self._count("dynamics.accel", system.accel)))
        for obj, attr, wrapper in targets:
            self._originals.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, wrapper)

    def uninstall(self):
        while self._originals:
            obj, attr, original = self._originals.pop()
            setattr(obj, attr, original)

    def collect(self):
        """This process's spans and counters merged with the workers'."""
        spans = list(self.spans)
        counters = defaultdict(float, self.counters)
        for path in sorted(self.trace_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                spans.extend(record["spans"])
                for key, value in record["counters"].items():
                    counters[key] += value
        return spans, counters


def _simulate_attrs(code, cfg, out_dir):
    sizes = {}
    for key, name in (("series_bytes", "series.csv"),
                      ("summary_bytes", "summary.json")):
        path = Path(out_dir) / name
        sizes[key] = path.stat().st_size if path.exists() else 0
    return sizes


def _ensemble_attrs(stats, system, noise, integrator, ens):
    return {"kept": stats.n_effective if stats is not None else 0,
            "workers": ens.workers or os.cpu_count() or 1}


def _batch_attrs(res, system, realizations, integrator, horizon, *rest):
    # rows count even when the batch raised: collapse re-synthesis is waste
    steps = nsteps(horizon, integrator.dt)
    return {"rows": len(realizations), "steps": steps,
            "realization_steps": len(realizations) * steps}


def _eval_attrs(out, realizations, times, orders):
    points = len(realizations) * len(times) * len(orders)
    return {"points": points, "bytes_out": 8 * points}   # float64 outputs


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pipeline run


def _duration(span):
    return span["end"] - span["start"]


def _ratio(num, den):
    return num / den if den else float("nan")


def layer_metrics(spans, counters):
    """Per-layer numbers from one run's spans: {name: (value, unit)}."""
    runs = [s for s in spans if s["name"] == "ensemble.run_ensemble"]
    for s in spans:
        if s["name"] == "ensemble.chunk" and s["parent"] is None:
            # a worker's chunk: its parent is the run_ensemble holding it
            s["parent"] = next((r["id"] for r in runs
                                if r["start"] <= s["start"] and s["end"] <= r["end"]),
                               None)
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def self_time(span):
        # duration minus the union of its children's intervals
        covered, reach = 0.0, span["start"]
        for child in sorted(children[span["id"]], key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        return _duration(span) - covered

    def named(name):
        return [s for s in spans if s["name"] == name]

    def seconds(name):
        return sum(_duration(s) for s in named(name))

    def total(name, key):
        return sum(s[key] for s in named(name))

    def self_seconds(name):
        return sum(self_time(s) for s in named(name))

    chunks = named("ensemble.chunk")
    eval_s, points = seconds("noise.eval_batch"), total("noise.eval_batch", "points")
    batch_self = self_seconds("dynamics.run_batch")
    rsteps = total("dynamics.run_batch", "realization_steps")
    return {
        "config.load_s": (seconds("config.load"), "s"),
        "noise.synthesize_many.s": (seconds("noise.synthesize_many"), "s"),
        "noise.synthesize_many.calls": (len(named("noise.synthesize_many")), "count"),
        "noise.synthesize_many.rows": (total("noise.synthesize_many", "rows"), "count"),
        "noise.eval_batch.s": (eval_s, "s"),
        "noise.eval_batch.points": (points, "count"),
        "noise.eval_batch.ns_per_point": (1e9 * _ratio(eval_s, points), "ns"),
        "noise.eval_batch.bytes_out": (
            max((s["bytes_out"] for s in named("noise.eval_batch")), default=0), "B"),
        "dynamics.run_batch.self_s": (batch_self, "s"),
        "dynamics.steps": (total("dynamics.run_batch", "steps"), "count"),
        "dynamics.realization_steps": (rsteps, "count"),
        "dynamics.ns_per_realization_step": (1e9 * _ratio(batch_self, rsteps), "ns"),
        "dynamics.accel.s": (counters["dynamics.accel.s"], "s"),
        "dynamics.accel.calls": (counters["dynamics.accel.calls"], "count"),
        "dynamics.decompose.s": (counters["dynamics.decompose.s"], "s"),
        "dynamics.wronskian.s": (counters["dynamics.wronskian.s"], "s"),
        "ensemble.run_ensemble.self_s": (self_seconds("ensemble.run_ensemble"), "s"),
        "ensemble.chunks": (len(chunks), "count"),
        "ensemble.processes_used": (
            max((len({c["pid"] for c in children[r["id"]]}) for r in runs), default=0),
            "count"),
        "ensemble.parallel_efficiency": (
            _ratio(sum(_duration(c) for c in chunks),
                   sum(r["workers"] * _duration(r) for r in runs)), "ratio"),
        "ensemble.useful_ratio": (
            _ratio(total("ensemble.run_ensemble", "kept"),
                   total("dynamics.run_batch", "rows")), "ratio"),
        "theory.predict_s": (seconds("theory.predict"), "s"),
        "cli.simulate.self_s": (self_seconds("cli.simulate"), "s"),
        "cli.series_bytes": (total("cli.simulate", "series_bytes"), "B"),
        "cli.summary_bytes": (total("cli.simulate", "summary_bytes"), "B"),
        "cli.compare_s": (seconds("cli.compare"), "s"),
    }
