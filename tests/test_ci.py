"""The CI workflow installs what pyproject.toml requires and runs the
tier-1 command that ROADMAP.md names, with one BLAS thread, on the
oldest Python that pyproject.toml allows first."""

import re
import shlex
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def toml_string_arrays(text: str) -> dict:
    """{(table, key): [str, ...]} for every `key = [ "...", ... ]` of a TOML
    text: the one construct read here, parsed without tomllib, which the
    oldest Python the workflow runs (3.10) lacks."""
    arrays, table = {}, ""
    for match in re.finditer(r'^\[([^\]]+)\]\s*$|^([\w-]+)\s*=\s*\[(.*?)\]',
                             text, flags=re.M | re.S):
        if match[1] is not None:
            table = match[1].strip()
        else:
            arrays[(table, match[2])] = re.findall(r'"([^"]*)"', match[3])
    return arrays


def job():
    return yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]


def steps():
    return {step.get("name"): step for step in job()["steps"]}


def test_install_step_names_every_requirement_with_its_bound():
    arrays = toml_string_arrays((ROOT / "pyproject.toml").read_text())
    required = (arrays[("project", "dependencies")]
                + arrays[("project.optional-dependencies", "test")])
    command = shlex.split(steps()["Install dependencies"]["run"])
    assert command[:4] == ["python", "-m", "pip", "install"]
    assert sorted(command[4:]) == sorted(required)


def test_tier1_step_runs_the_roadmap_command():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    [command] = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, flags=re.M)
    assert steps()["Tier-1 tests"]["run"].strip() == command


def test_job_pins_blas_to_one_thread():
    # the digest test's byte mode and the suite's timings assume one BLAS
    # thread
    env = job()["env"]
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert env.get(name) == "1", name


def test_matrix_starts_at_the_oldest_python_allowed():
    [bound] = re.findall(r'^requires-python\s*=\s*">=([\d.]+)"\s*$',
                         (ROOT / "pyproject.toml").read_text(), flags=re.M)
    assert str(job()["strategy"]["matrix"]["python-version"][0]) == bound
