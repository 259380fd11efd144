"""The run process: time the CLI pipeline on one workload, and check it.

    python3 perfbench/runner.py WORK_DIR/job.json

run.py starts it with the threads pinned and the package's ``src`` on
PYTHONPATH.  For the job's seconds it runs ``simulate`` -> ``predict``
-> ``compare`` through ``stochastic_dce.cli.main`` in same-seed pairs,
and in an untraced job spreads the set-up samples evenly between the
pairs, so that both see the same drifts in the host's speed.  Then it
runs the worker-count check and writes ``result.json`` (and
``trace.json`` when traced) into the work directory.  In a traced job
the second run of each pair is traced and the first is not, so the pair
also shows that tracing leaves the output unchanged.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

from stochastic_dce import cli, ensemble
from stochastic_dce.config import load_config
from tracer import Tracer, layer_metrics
from workloads import WORKER_CHECK, WORKLOADS, pair_seed, realization_steps, write_config


SETUP_SAMPLES = 8
SETUP_SNIPPET = ("import sys, stochastic_dce; "
                 "stochastic_dce.load_config(sys.argv[1]).systems()")


def _digest(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def setup_sample(config: Path, work: Path, i: int) -> float:
    """Wall time of a fresh interpreter importing the package and loading config."""
    with open(work / f"setup{i}.log", "w") as log:
        t0 = time.perf_counter()
        code = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(config)],
                              cwd=work, stdout=log, stderr=subprocess.STDOUT).returncode
        seconds = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up sample {i} exited {code}; see {log.name}")
    return seconds


def peak_rss_mb() -> float:
    """Largest max-RSS of this process and its waited-for children so far."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def pipeline(config: Path, out: Path) -> dict:
    """One config-to-verdict run through the public CLI, timed."""
    args = ["--config", str(config), "--out", str(out), "--quiet"]
    t0 = time.perf_counter()
    codes = [cli.main(["simulate", *args])]
    t1 = time.perf_counter()
    codes.append(cli.main(["predict", *args]))
    codes.append(cli.main(["compare", *args]))
    t2 = time.perf_counter()
    return {"simulate_s": t1 - t0, "verdict_s": t2 - t0, "codes": codes}


def check(record: dict, out: Path, n: int) -> None:
    """Gate one run on exit codes and n_effective; record the verdict.

    A FAIL verdict is not a failed op: at the benchmark's N the heavy
    |beta|^2 tail fails the 4-sigma test on rare seeds of every workload.
    """
    sim, pred, comp = record["codes"]
    problems = []
    if sim != 0:
        problems.append(f"simulate exited {sim}")
    else:
        summary = json.loads((out / "summary.json").read_text())
        short = {k: v for k, v in summary["n_effective"].items() if v < n}
        if short:
            problems.append(f"n_effective < N={n}: {short}")
    if pred != 0:
        problems.append(f"predict exited {pred}")
    record["verdict"] = {0: "PASS", 1: "FAIL"}.get(comp, "ERROR")
    if comp not in (0, 1):
        problems.append(f"compare exited {comp}")
    record["series_sha256"] = _digest(out / "series.csv")
    record["problems"] = problems


def worker_check(root: Path, work: Path, seed: int, smoke: bool) -> dict:
    """cosmo_sweep's ensemble at workers 1 and 2 must give identical bytes.

    Each ensemble holds two chunks, so that workers 2 really runs them in
    a process pool; the traced workers-2 run must show chunks from more
    than one process, or the check would compare two serial runs.
    """
    digests = {}
    tracer = Tracer(work)
    for workers in (1, 2):
        config = write_config(root, WORKER_CHECK, work / f"workers{workers}.yaml",
                              seed, smoke, workers=workers,
                              n_realizations=2 * ensemble.CHUNK_SIZE)
        out = work / f"workers{workers}"
        if workers == 2:
            tracer.install()
        try:
            code = cli.main(["simulate", "--config", str(config), "--out", str(out),
                             "--quiet"])
        finally:
            tracer.uninstall()
        digests[workers] = _digest(out / "series.csv") if code == 0 else None
        shutil.rmtree(out, ignore_errors=True)
    spans, counters = tracer.collect()
    processes = layer_metrics(spans, counters)["ensemble.processes_used"][0]
    return {"ok": digests[1] is not None and digests[1] == digests[2]
            and processes > 1,
            "series_sha256": digests, "processes": processes,
            "worker_spans": sum(s["pid"] != tracer.main_pid for s in spans),
            "spans": spans}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    root, work = Path(job["root"]), Path(job["work"])
    wl = WORKLOADS[job["workload"]]
    tracer = Tracer(work) if job["trace"] else None
    records, layers, spans, setup = [], [], [], []
    # setup_s is an end-to-end metric, so a traced job takes no set-up samples
    n_setup = 0 if tracer else SETUP_SAMPLES
    setup_config = write_config(root, wl, work / "setup.yaml", pair_seed(job["seed"], 0),
                                job["smoke"])
    steps = n = None
    start = time.perf_counter()
    pair, pair_s = 0, 0.0
    # start a pair only if it should end within the job's seconds
    while pair == 0 or time.perf_counter() - start + pair_s <= job["seconds"]:
        # set-up sample i is due at i/n_setup of the job's seconds
        while (len(setup) < n_setup and time.perf_counter() - start
               >= len(setup) * job["seconds"] / n_setup):
            setup.append(setup_sample(setup_config, work, len(setup)))
        pair_start = time.perf_counter()
        seed = pair_seed(job["seed"], pair)
        config = write_config(root, wl, work / f"pair{pair}.yaml", seed, job["smoke"])
        if steps is None:
            cfg = load_config(str(config))
            steps, n = realization_steps(cfg), cfg.ensemble.n_realizations
        twins = []
        for member in (0, 1):
            traced = tracer is not None and member == 1
            out = work / f"pair{pair}-{member}"
            if traced:
                tracer.reset()
                tracer.install()
            try:
                record = pipeline(config, out)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                run_spans, counters = tracer.collect()
                layers.append(layer_metrics(run_spans, counters))
                spans.extend(run_spans)
            check(record, out, n)
            record.update(pair=pair, seed=seed, traced=traced)
            twins.append(record)
            shutil.rmtree(out, ignore_errors=True)
        if twins[0]["series_sha256"] != twins[1]["series_sha256"]:
            twins[1]["problems"].append("same-seed repeat not byte-identical")
        records.extend(twins)
        pair += 1
        pair_s = time.perf_counter() - pair_start
    while len(setup) < n_setup:
        setup.append(setup_sample(setup_config, work, len(setup)))
    # the worker check below runs a larger ensemble; keep it out of the peak
    peak_mb = peak_rss_mb()
    wcheck = worker_check(root, work, job["seed"], job["smoke"])

    result = {
        "records": records,
        "layers": layers,
        "setup_s": setup,
        "peak_rss_mb": peak_mb,
        "realization_steps": steps,
        "n_realizations": n,
        "worker_check": {k: v for k, v in wcheck.items() if k != "spans"},
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    (work / "result.json").write_text(json.dumps(result))
    if tracer:
        (work / "trace.json").write_text(json.dumps(
            {"spans": spans, "worker_check_spans": wcheck["spans"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
