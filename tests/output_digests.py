"""Committed digests of the CLI's outputs on a fixed set of inputs.

    PYTHONPATH=src python3 tests/output_digests.py [OUT.json]

runs simulate -> predict -> compare on every input below, at workers 1
and 2, and writes the sha256 and the values of series.csv,
predictions.csv, compare.json and summary.json (timing keys removed),
with the host facts that decide their bits, to tests/output_digests.json
(or OUT.json), after printing which digests moved against the committed
file.  tests/test_output_digests.py runs the same commands and
compares: bytes where the recorded numpy version, SIMD dispatch and BLAS
match the host, values to a relative 1e-12 elsewhere.  A change that
moves output bits on purpose regenerates the file with this script.

The inputs: every shipped config at N 16, horizons shortened where a run
would take more than about 0.3 s; both benchmark workloads, written by
perfbench/workloads.py, at two master seeds; and the exact-path
one-mode configs at sigma 0.3, 1.02 and 3.0 of the run-check tests.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

from stochastic_dce import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "output_digests.json"
FILES = ("series.csv", "predictions.csv", "compare.json", "summary.json")
# summary.json's entries that time the run, which no two runs share
TIMINGS = {"simulate_s", "realization_steps_per_s", "synthesis_s", "eval_s",
           "build_s", "chain_s", "extract_s", "runtime_seconds"}
WORKERS = (1, 2)
REL_TOL = 1e-12

# shipped config -> overrides per section; N is 16 for every ensemble run
SHIPPED = {
    "cosmology": {"ensemble": {"horizon_time": 30.0, "probes_time": [15.0, 30.0]}},
    "coupled_modes": {"ensemble": {"horizon_time": 8.0,
                                   "probes_time": [3.2, 4.4, 5.6, 6.8, 8.0]},
                      "integrator": {"window_ramp_time": 2.0}},
    "deterministic_resonance": {},
    "mean_field_decay": {"ensemble": {"horizon_time": 100.0,
                                      "probes_time": [37.699111843077519,
                                                      75.398223686155037]}},
    "single_mode_growth": {"ensemble": {"horizon_time": 200.0,
                                        "probes_time": [40.0, 80.0, 120.0, 160.0,
                                                        200.0]}},
}
WORKLOAD_SEEDS = (1000, 1001)
EXACT_SIGMAS = (0.3, 1.02, 3.0)


def _workloads():
    """perfbench/workloads.py, loaded by path under a name of its own, so
    that sys.path and the benchmark's own `workloads` stay as they are."""
    name = "_digest_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module      # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


def exact_path_data(sigma):
    """The exact-path one-mode run of the run-check tests at N 16."""
    return {
        "scenario": {"kind": "coupled_stochastic"},
        "noise": {"kind": "band_limited", "sigma": sigma,
                  "nu_min_rad_per_time": 0.5, "nu_max_rad_per_time": 1.5,
                  "n_components": 2},
        "cavity": {"Lx_length": 1e6, "Ly_length": 1e6, "Lz0_length": 1.0,
                   "epsilon": 0.5, "nz_max": 1},
        "integrator": {"path": "exact", "dt_time": 0.02},
        "ensemble": {"n_realizations": 16, "master_seed": 3, "horizon_time": 30.0,
                     "probes_time": [15.0, 30.0], "workers": 1},
    }


def input_names():
    return ([*SHIPPED]
            + [f"{w}@seed{s}" for w in ("coupled_band", "cosmo_sweep")
               for s in WORKLOAD_SEEDS]
            + [f"exact_sigma{s}" for s in EXACT_SIGMAS])


def write_input(name: str, work: Path) -> Path:
    """The config file of input `name`, written under work."""
    path = work / f"{name}.yaml"
    if name in SHIPPED:
        data = yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text())
        if data["scenario"]["kind"] != "single_mode_deterministic":
            data["ensemble"]["n_realizations"] = 16
        for section, values in SHIPPED[name].items():
            data.setdefault(section, {}).update(values)
    elif name.startswith("exact_sigma"):
        data = exact_path_data(float(name[len("exact_sigma"):]))
    else:
        workload, seed = name.split("@seed")
        wl = _workloads()
        return wl.write_config(ROOT, wl.WORKLOADS[workload], path, int(seed))
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    return path


def host_facts() -> dict:
    """What decides the output bits beyond the code: the numpy version,
    its SIMD dispatch and its BLAS (None where numpy cannot say)."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:       # numpy < 1.25 only prints its configuration
        return {"numpy": np.__version__, "simd": None, "blas": None}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "simd": config.get("SIMD Extensions"),
            "blas": {k: blas.get(k) for k in ("name", "version")}}


def _file_digest(path: Path):
    """{"sha256", "values"} of one output file, or None if it was not written."""
    if not path.exists():
        return None
    if path.suffix == ".csv":
        data = path.read_bytes()
        values = list(csv.reader(io.StringIO(data.decode(), newline="")))
        return {"sha256": hashlib.sha256(data).hexdigest(), "values": values}
    values = json.loads(path.read_text())
    if path.name == "summary.json":
        values = {k: v for k, v in values.items() if k not in TIMINGS}
        data = (json.dumps(values, indent=2) + "\n").encode()
    else:
        data = path.read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "values": values}


def run_input(name: str, workers: int, work: Path) -> dict:
    """Exit codes and file digests of one input's pipeline at `workers`."""
    config = write_input(name, work)
    out = work / f"{name}-w{workers}"
    args = ["--config", str(config), "--out", str(out), "--quiet"]
    codes = [cli.main(["simulate", *args, "--workers", str(workers)]),
             *(cli.main([command, *args]) for command in ("predict", "compare"))]
    return {"codes": codes, "files": {f: _file_digest(out / f) for f in FILES}}


def _close(a, b, where, out):
    """Append to out where the values a (recorded) and b differ beyond REL_TOL."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            out.append(f"{where}: keys {sorted(a)} != {sorted(b)}")
        for key in a.keys() & b.keys():
            _close(a[key], b[key], f"{where}.{key}", out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{where}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            _close(x, y, f"{where}[{i}]", out)
    elif a != b:
        try:    # CSV fields are strings; compare those that are numbers as numbers
            x, y = float(a), float(b)
        except (TypeError, ValueError):
            x = y = None
        if (x is None or isinstance(a, bool) or isinstance(b, bool)
                or not math.isclose(x, y, rel_tol=REL_TOL)):
            out.append(f"{where}: recorded {a!r}, got {b!r}")


def differences(recorded: dict, got: dict, exact: bool) -> list[str]:
    """Where one run's outputs differ from the recorded ones: by sha256 if
    exact, else by value to a relative REL_TOL (the first few of each file)."""
    out = []
    if recorded["codes"] != got["codes"]:
        out.append(f"exit codes: recorded {recorded['codes']}, got {got['codes']}")
    for name in FILES:
        a, b = recorded["files"][name], got["files"][name]
        if a is None or b is None:
            if (a is None) != (b is None):
                out.append(f"{name}: recorded {'absent' if a is None else 'present'}, "
                           f"got {'absent' if b is None else 'present'}")
            continue
        if exact and a["sha256"] == b["sha256"]:
            continue
        found = []
        _close(a["values"], b["values"], name, found)
        if exact and not found:
            found.append(f"{name}: sha256 differs, values within rel {REL_TOL:g}")
        out.extend(found[:5])
    return out


def generate() -> dict:
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in input_names():
            for workers in WORKERS:
                runs[f"{name}@w{workers}"] = run_input(name, workers, Path(tmp))
    return {"host": host_facts(), "runs": runs}


def _sha256(run: dict, name: str):
    return (run["files"][name] or {}).get("sha256")


def moved(committed: dict, runs: dict) -> list[str]:
    """One line per (run, file): "moved", "same" or "new" against the
    committed sha256 (a file neither run wrote is "same"), then a count."""
    lines = []
    for key, run in runs.items():
        for name in FILES:
            state = ("new" if key not in committed
                     else "same" if _sha256(committed[key], name) == _sha256(run, name)
                     else "moved")
            lines.append(f"{state:5}  {key}  {name}")
    n_moved = sum(line.startswith("moved") for line in lines)
    return lines + [f"{n_moved} of {len(lines)} digests moved"]


def main(argv):
    target = Path(argv[0]) if argv else DIGESTS
    digests = generate()
    committed = json.loads(DIGESTS.read_text())["runs"] if DIGESTS.exists() else {}
    print("\n".join(moved(committed, digests["runs"])))
    # one line per run, so that a change shows as the runs it moved
    lines = [f"  {json.dumps(key)}: {json.dumps(run, separators=(',', ':'))}"
             for key, run in digests["runs"].items()]
    target.write_text("{\n" + f'"host": {json.dumps(digests["host"])},\n"runs": {{\n'
                      + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(lines)} runs to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
