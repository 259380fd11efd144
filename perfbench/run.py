"""Benchmark: time from a config to a PASS/FAIL verdict, per workload.

    python3 perfbench/run.py --workload cosmo_sweep --seed 1 --seconds 55 --trace 0

Run from a checkout of the repository.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run and the tracing overhead.  Every metric is printed by name with its
unit, and the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  BENCHMARK.json at the root
lists the metrics and perfbench/README.md explains them.

Working files go to ``.perfbench/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# BLAS/OpenMP pools pinned to one thread in every process the benchmark starts
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}
DEADLINE_S = 170.0          # an invocation must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for perfbench/selftest.py")
    return p.parse_args(argv)


def _run(cmd, env, cwd, deadline, log_name):
    """Run cmd in its own session; kill the whole group at the deadline."""
    with open(cwd / f"{log_name}.log", "w") as log:
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{log_name} passed the {DEADLINE_S:.0f} s deadline")
    if code != 0:
        tail = (cwd / f"{log_name}.log").read_text()[-3000:]
        raise BenchError(f"{log_name} exited {code}:\n{tail}")


def _l3_size():
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def _tree_digest():
    """sha256 over the package sources and shipped configs."""
    h = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("configs/*.yaml")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, versions):
    return {
        "nproc": os.cpu_count(),
        "l3": _l3_size(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "git_rev": _git_rev(),
        "src_sha256": _tree_digest(),
        "seed": args.seed,
        "thread_env": PINNED,
    }


def end_to_end(records, steps, setup, peak_mb):
    ttv = [r["verdict_s"] for r in records]
    simulate_s = sum(r["simulate_s"] for r in records)
    return {
        "time_to_verdict_s": (statistics.median(ttv), "s"),
        "time_to_verdict_p90_s": (
            statistics.quantiles(ttv, n=10, method="inclusive")[-1], "s"),
        # work done over time spent in simulate, across the run
        "realization_steps_per_s": (len(records) * steps / simulate_s, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def per_layer(layers, records):
    names = layers[0].keys()
    out = {name: (statistics.median(run[name][0] for run in layers), layers[0][name][1])
           for name in names}
    # traced minus untraced run of each same-seed pair: the two run back to
    # back, so the host's slow drifts in speed mostly cancel
    pairs = {}
    for r in records:
        pairs.setdefault(r["pair"], {})[r["traced"]] = r["verdict_s"]
    out["trace.overhead_s"] = (
        statistics.median(p[True] - p[False] for p in pairs.values()), "s")
    return out


def bench(args):
    if not (ROOT / "src" / "stochastic_dce" / "__init__.py").is_file():
        raise BenchError(f"no stochastic_dce sources under {ROOT / 'src'}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    job = {"root": str(ROOT), "work": str(work), "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
           "smoke": args.smoke}
    (work / "job.json").write_text(json.dumps(job))
    _run([sys.executable, str(HERE / "runner.py"), str(work / "job.json")],
         env, work, deadline, "runner")
    return json.loads((work / "result.json").read_text()), work


def report(args, result, work):
    records = result["records"]
    plain = [r for r in records if not r["traced"]]
    failed_runs = [r for r in records if r["problems"]]
    wcheck = result["worker_check"]
    attempted = len(records) + 1            # + the worker-count check
    failed = len(failed_runs) + (0 if wcheck["ok"] else 1)

    if args.trace:
        metrics = per_layer(result["layers"], records)
    else:
        metrics = end_to_end(plain, result["realization_steps"], result["setup_s"],
                             result["peak_rss_mb"])
    verdicts = [r["verdict"] for r in records]
    print(f"workload {args.workload}: N={result['n_realizations']}, "
          f"{result['realization_steps']} realization-steps per simulate; "
          f"{len(records)} runs in {len(records) // 2} same-seed pairs "
          f"({len(plain)} untraced)")
    print(f"compare verdicts: {verdicts.count('PASS')}/{len(verdicts)} PASS")
    print(f"worker check (cosmo_sweep, two chunks per k, workers 1 vs 2): "
          f"{'identical' if wcheck['ok'] else 'FAILED'}; workers 2 ran chunks in "
          f"{wcheck['processes']} processes, {wcheck['worker_spans']} spans "
          f"from pool workers")
    for r in failed_runs:
        print(f"failed run (pair {r['pair']}, seed {r['seed']}): "
              f"{'; '.join(r['problems'])}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted}) ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        print(f"trace spans: {work / 'trace.json'}")
    print("provenance " + json.dumps(provenance(args, result["versions"])))
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        report(args, *bench(args))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
