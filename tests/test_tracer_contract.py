"""The benchmark's tracer patches names in the package; every run of the
benchmark installs it, so a name it patches must not go missing."""

from pathlib import Path

import yaml

from stochastic_dce import cli, dynamics, ensemble

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_tracer_installs_and_times_a_cosmology_pipeline(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    data = yaml.safe_load((CONFIGS / "cosmology.yaml").read_text())
    data["ensemble"].update(n_realizations=2, horizon_time=2.0, probes_time=[1.0, 2.0],
                            workers=1)
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(data))
    args = ["--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]
    originals = (cli.cmd_simulate, ensemble.run_batch, dynamics.eval_batch,
                 dynamics.PlainOscillator.accel)

    trace = tracer.Tracer(tmp_path)
    trace.install()
    try:
        codes = [cli.main([cmd, *args]) for cmd in ("simulate", "predict", "compare")]
    finally:
        trace.uninstall()
    assert codes[:2] == [0, 0] and codes[2] in (0, 1)
    assert (cli.cmd_simulate, ensemble.run_batch, dynamics.eval_batch,
            dynamics.PlainOscillator.accel) == originals

    spans, counters = trace.collect()
    names = {span["name"] for span in spans}
    assert {"dynamics.run_batch", "noise.eval_batch"} <= names
    assert counters["dynamics.accel.calls"] > 0
    metrics = tracer.layer_metrics(spans, counters)
    assert metrics["dynamics.realization_steps"][0] > 0
