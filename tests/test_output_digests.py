"""The CLI's outputs against their committed digests (tests/output_digests.json).

Each input runs simulate -> predict -> compare at workers 1 and 2.  Where
the host's numpy version, SIMD dispatch and BLAS are the recorded ones,
the outputs must match byte for byte; elsewhere their values must match
to a relative 1e-12.  Which comparison ran is printed at the end of the
test session.  A change that moves bits on purpose regenerates the
digests with tests/output_digests.py.
"""

import json

import pytest

import output_digests as od
from conftest import record_digest_mode

RECORDED = json.loads(od.DIGESTS.read_text())


def comparison():
    """(exact, description) of the comparison this host allows."""
    host, recorded = od.host_facts(), RECORDED["host"]
    if host == recorded and host["simd"] is not None:
        return True, f"bytes (numpy {host['numpy']}, SIMD and BLAS as recorded)"
    differ = sorted(k for k in recorded if host.get(k) != recorded[k] or host[k] is None)
    return False, (f"values to rel {od.REL_TOL:g}: this host's {', '.join(differ)} "
                   f"differ from the recorded {json.dumps(recorded)}")


def test_digests_cover_every_input():
    assert sorted(RECORDED["runs"]) == sorted(f"{name}@w{w}" for name in od.input_names()
                                              for w in od.WORKERS)


def test_value_comparison_holds_values_to_rel_tol():
    # the comparison a host with another numpy, SIMD dispatch or BLAS makes:
    # a mean moved by 1e-13 relative passes, one moved by 1e-11 does not
    recorded = RECORDED["runs"]["cosmology@w1"]
    got = json.loads(json.dumps(recorded))
    row = got["files"]["series.csv"]["values"][1]
    mean = float(row[3])
    assert od.differences(recorded, got, exact=False) == []
    row[3] = repr(mean * (1 + 1e-13))
    assert od.differences(recorded, got, exact=False) == []
    row[3] = repr(mean * (1 + 1e-11))
    assert od.differences(recorded, got, exact=False) == [
        f"series.csv[1][3]: recorded {recorded['files']['series.csv']['values'][1][3]!r}, "
        f"got {row[3]!r}"]


@pytest.mark.parametrize("name", od.input_names())
def test_outputs_match_their_digests(name, tmp_path):
    exact, description = comparison()
    record_digest_mode(description)
    found = []
    for workers in od.WORKERS:
        got = od.run_input(name, workers, tmp_path)
        found += [f"workers {workers}: {d}"
                  for d in od.differences(RECORDED["runs"][f"{name}@w{workers}"], got,
                                          exact)]
    assert not found, f"compared {description}:\n" + "\n".join(found)


@pytest.mark.parametrize("run", sorted(run for run, got in RECORDED["runs"].items()
                                        if got["files"]["compare.json"]))
def test_compare_counts_every_simulated_row(run):
    # a series.csv row is either a compared point or counted as simulated-only
    files = RECORDED["runs"][run]["files"]
    report = files["compare.json"]["values"]
    n_rows = len(files["series.csv"]["values"]) - 1
    assert report["n_points"] + sum(report["n_simulated_only"].values()) == n_rows
    if run.startswith(("cosmology@", "cosmo_sweep@")):
        # every k is a plain oscillator from vacuum data, whose mean
        # amplitude and <|Q|^2> are predicted
        assert all(report["n_simulated_only"][q] == 0 for q in ("q_re", "q_im", "abs_q2"))
