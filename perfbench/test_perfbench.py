"""Self-tests of the benchmark: seeded inputs, the correctness gate, tracing.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import benchenv

benchenv.prepare()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from hyperspline import cli  # noqa: E402

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _snapshot(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    snaps = []
    for seed in (5, 5, 6):
        shutil.rmtree(tmp_path, ignore_errors=True)
        tmp_path.mkdir()
        run.WORKLOADS[workload]().setup(tmp_path, seed)
        snaps.append(_snapshot(tmp_path))
    assert snaps[0] == snaps[1]
    if workload != "treloar-calibrate":  # the only seeded input there is none
        assert snaps[0] != snaps[2]


def test_request_rows_near_one_do_not_depend_on_the_seed():
    maxima = inputs.mode_maxima(cli.ingest(cli.bundled_treloar_path()))
    check_rows = [("UT", 1.01), ("BT", 2.0)]

    def near_one(seed):
        lines = inputs.request_csv(seed, maxima, check_rows).splitlines()[1:]
        rows = [(m, float(lam)) for m, lam in (line.split(",") for line in lines)]
        assert len(rows) == inputs.REQUEST_ROWS
        return sorted(r for r in rows if r[1] <= 1.0 + inputs.SMALL_SPAN)

    assert near_one(1) == near_one(2)
    assert len(near_one(1)) == 3 * (inputs.UNIT_ROWS_PER_MODE + inputs.SMALL_ROWS_PER_MODE) + 1


def test_a_repeated_operation_keeps_its_worst_verdict():
    ok, known, unknown = gate.Verdict(True), gate.Verdict(False, known=True), gate.Verdict(False)
    assert run._worse(ok, known) is known and run._worse(known, ok) is known
    assert run._worse(known, unknown) is unknown and run._worse(unknown, known) is unknown


def _fit_separable(work: Path) -> tuple:
    data = work / "treloar1944.csv"
    shutil.copyfile(cli.bundled_treloar_path(), data)
    cfg = work / "separable.json"
    cfg.write_text(inputs.config_json("separable", data, 0.0, work / "out"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["calibrate", "--config", str(cfg)]) == 0
    return data, (work / "out" / "model.json").read_text()


def _perturbed(model_text: str, scale: float) -> str:
    raw = json.loads(model_text)
    theta = np.array(raw["theta"])
    theta[1:] *= scale  # index 0 is pinned to zero
    raw["theta"] = [float(v) for v in theta]
    return json.dumps(raw)


def test_fit_gate_accepts_the_fit_and_rejects_a_perturbed_theta(tmp_path):
    data, text = _fit_separable(tmp_path)
    reference = inputs.load_reference()["treloar_mse"]["separable"]
    fg = gate.FitGate()
    verdict, _ = fg.check(text, str(data), reference)
    assert verdict.ok
    for scale in (1.001, 0.999):
        verdict, _ = fg.check(_perturbed(text, scale), str(data), reference)
        assert not verdict.ok and not verdict.known


def test_predict_gate_rejects_a_perturbed_model(tmp_path):
    bench = run.PredictBulk()
    bench.setup(tmp_path, 3)
    model = tmp_path / "perturbed.json"
    model.write_text(_perturbed((inputs.FIXTURES / "separable.json").read_text(), 1.001))
    for path, expect_ok in ((inputs.FIXTURES / "separable.json", True), (model, False)):
        out = tmp_path / "pred"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["predict", "--model", str(path), "--at",
                             str(tmp_path / "request.csv"), "--output", str(out)]) == 0
        verdicts = gate.check_predictions(
            bench.models["separable"], "separable", bench.request,
            (out / "predictions.csv").read_text(), bench.reference["separable"], bench.windows)
        assert all(v.ok for v in verdicts) == expect_ok


def test_tracer_counts_one_fit_and_restores_the_program(tmp_path):
    data = tmp_path / "treloar1944.csv"
    shutil.copyfile(cli.bundled_treloar_path(), data)
    cfg = tmp_path / "separable.json"
    cfg.write_text(inputs.config_json("separable", data, 0.0, tmp_path / "out"))
    original = cli.solve
    tracer = tracing.Tracer()
    with tracer:
        tracer.op = 1
        seconds, rc, _, _ = run.run_op(tracer.span(tracing.OP_SPAN, cli.main),
                                       ["calibrate", "--config", str(cfg)], tracer)
    assert rc == 0 and cli.solve is original
    m = tracer.metrics()
    assert m["solver.solve_calls"] == 1 and m["solver.iterations"] > 0
    assert m["operators.inequality_rows"] == 44
    assert m["model.design_rows"] == 56
    assert 0.0 < m["cli.self_s"] < seconds
    assert all(s.op == 1 for s in tracer.spans)


def test_metric_names_match_benchmark_json():
    bench = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER_UNITS)
    for m in bench["end_to_end"] + bench["per_layer"]:
        units = run.END_TO_END_UNITS | run.PER_LAYER_UNITS
        assert units[m["name"]] == m["unit"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(benchenv.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense-fit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
