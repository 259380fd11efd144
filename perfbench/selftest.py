"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload, untraced and traced, it runs run.py with ``--smoke``
and checks that the last line holds every metric BENCHMARK.json names,
each finite and with the declared unit, and that no run failed.  It then
traces one ensemble large enough to use the process pool and checks that
spans from the pool workers are collected, and checks that run.py fails
without a result when the package sources are missing.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_metrics(spec) -> list[str]:
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: {result['failed']}/{result['attempted']} failed")
            metrics = result["metrics"]
            if set(metrics) != {m["name"] for m in declared}:
                errors.append(f"{where}: metrics {sorted(metrics)} differ from "
                              f"BENCHMARK.json")
            for m in declared:
                got = metrics.get(m["name"], {})
                value = got.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    errors.append(f"{where}: {m['name']} = {value!r}")
                if got.get("unit") != m["unit"]:
                    errors.append(f"{where}: {m['name']} unit {got.get('unit')!r}, "
                                  f"declared {m['unit']!r}")
            print(f"ok {where}: {len(metrics)} metrics", flush=True)
    return errors


def check_pool_spans(work: Path) -> list[str]:
    """Trace a run whose ensembles span two chunks at workers 2."""
    sys.path.insert(0, str(ROOT / "src"))
    from stochastic_dce import cli, ensemble
    from tracer import Tracer, layer_metrics
    from workloads import WORKER_CHECK, write_config

    n = ensemble.CHUNK_SIZE + 8
    config = write_config(ROOT, WORKER_CHECK, work / "pool.yaml", 7, smoke=True,
                          n_realizations=n, workers=2)
    tracer = Tracer(work)
    tracer.install()
    try:
        code = cli.main(["simulate", "--config", str(config),
                         "--out", str(work / "pool"), "--quiet"])
    finally:
        tracer.uninstall()
    spans, counters = tracer.collect()
    metrics = layer_metrics(spans, counters)
    chunks = [s for s in spans if s["name"] == "ensemble.chunk"]
    systems = sum(s["name"] == "ensemble.run_ensemble" for s in spans)
    errors = []
    if code != 0:
        errors.append(f"pool run: simulate exited {code}")
    if len(chunks) != 2 * systems:
        errors.append(f"pool run: {len(chunks)} chunk spans for {systems} ensembles")
    if any(s["pid"] == tracer.main_pid for s in chunks):
        errors.append("pool run: a chunk ran in the parent process")
    if any(s["parent"] is None for s in chunks):
        errors.append("pool run: a worker chunk is not under its run_ensemble")
    if metrics["noise.synthesize_many.rows"][0] != systems * n:
        errors.append("pool run: worker spans below the chunks are missing")
    if not errors:
        print(f"ok pool run: {len(chunks)} worker chunk spans from "
              f"{len({s['pid'] for s in chunks})} processes", flush=True)
    return errors


def check_bare_directory(work: Path) -> list[str]:
    """run.py must fail without a result next to nothing but its own files."""
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "cosmo_sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    print("ok bare directory: exit", proc.returncode, flush=True)
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ.update({k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS")})
    errors = check_metrics(spec) + check_pool_spans(work) + check_bare_directory(work)
    for err in errors:
        print("FAIL", err)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
