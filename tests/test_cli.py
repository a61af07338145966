"""Command-line workflows: configs, ingestion, file formats, exit codes."""

import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyperspline import (DeformationMode, ModelKind, ModelState, Sample, assemble_design, cli,
                         default_spec, fixed_zero_indices, invariants, kinematics,
                         max_invariants, metrics, solver, stress_coefficients)
from hyperspline.cli import (
    InputError,
    _write_csv,
    bundled_treloar_path,
    ingest,
    load_config,
    load_model,
    main,
    mode_counts,
)

UT, BT, PS = DeformationMode.UT, DeformationMode.BT, DeformationMode.PS


def _neo_hookean_csv(path: Path, mu=400.0, lam_max=3.0, n=20):
    """Noiseless synthetic stresses for W = (mu/2)(I1 - 3)."""
    lines = ["mode,stretch,stress"]
    for mode in ("UT", "BT", "PS"):
        for lam in np.linspace(1.0, lam_max, n):
            lam = float(lam)
            alpha = stress_coefficients(DeformationMode(mode), lam).alpha
            lines.append(f"{mode},{lam!r},{0.5 * mu * alpha!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _config(path: Path, **kw):
    path.write_text(json.dumps(kw))
    return path


# ---------------------------------------------------------------- configs


def test_load_config_minimal(tmp_path):
    cfg = load_config(_config(tmp_path / "c.json", kind="separable", data="d.csv"))
    assert cfg.n1 == 20 and cfg.n2 == 5
    assert cfg.lambda_pen is None


def test_load_config_rejects_unknown_keys(tmp_path):
    p = _config(tmp_path / "c.json", kind="separable", data="d.csv", smoothing=3)
    with pytest.raises(InputError, match="smoothing"):
        load_config(p)


def test_load_config_validation(tmp_path):
    bad = [
        dict(data="d.csv"),                                   # kind missing
        dict(kind="separable"),                               # data missing
        dict(kind="quadratic", data="d.csv"),                 # unknown kind
        dict(kind="surface", data="d.csv", n1=3),
        dict(kind="surface", data="d.csv", lambda_pen="later"),
        dict(kind="surface", data="d.csv", lambda_pen=-1.0),
        dict(kind="surface", data="d.csv", lcurve_min=0.0),
        dict(kind="surface", data="d.csv", lcurve_count=3),
        dict(kind="surface", data="d.csv", stress_scale=0.0),
        dict(kind="surface", data="d.csv", delta=-1e-6),
    ]
    for i, kw in enumerate(bad):
        with pytest.raises(InputError):
            load_config(_config(tmp_path / f"c{i}.json", **kw))
    with pytest.raises(InputError):
        load_config(tmp_path / "missing.json")
    (tmp_path / "list.json").write_text("[1, 2]")
    with pytest.raises(InputError):
        load_config(tmp_path / "list.json")


@pytest.mark.parametrize("key, value", [
    ("n1", 4.5), ("n1", "20"), ("n2", None),
    ("delta", "x"), ("stress_scale", "2"), ("lcurve_min", None),
    ("kind", ["surface"]), ("data", 5),
    ("monotone_1", "no"), ("lambda_pen", True),
])
def test_config_values_of_the_wrong_type_exit_2(key, value, tmp_path, capsys):
    """A value whose JSON type does not fit its field is an input error
    naming the key, not a crash and not a silent reading."""
    data = _neo_hookean_csv(tmp_path / "d.csv")
    cfg = _config(tmp_path / "cfg.json", **{"kind": "separable", "data": str(data),
                                            "n1": 6, "n2": 4,
                                            "output": str(tmp_path / "out"), key: value})
    assert main(["calibrate", "--config", str(cfg)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["delta", "stress_scale", "lambda_pen", "lcurve_max"])
def test_non_finite_config_numbers_exit_2(key, value, tmp_path, capsys):
    """JSON's NaN, Infinity and -Infinity are input errors naming the key,
    caught before any fit runs."""
    data = _neo_hookean_csv(tmp_path / "d.csv")
    cfg = _config(tmp_path / "cfg.json", **{"kind": "separable", "data": str(data),
                                            "n1": 6, "n2": 4,
                                            "output": str(tmp_path / "out"), key: value})
    assert main(["calibrate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "finite" in err
    assert not (tmp_path / "out").exists()


def test_linear_algebra_failure_exits_3(tmp_path, monkeypatch, capsys):
    """np.linalg.LinAlgError subclasses ValueError, yet a failure of the
    solver's linear algebra is numerical (exit 3), not bad input (exit 2)."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "solve", fail)
    data = _neo_hookean_csv(tmp_path / "d.csv")
    cfg = _config(tmp_path / "cfg.json", kind="separable", data=str(data), n1=6, n2=4,
                  output=str(tmp_path / "out"))
    assert main(["calibrate", "--config", str(cfg)]) == 3
    assert "numerical failure: SVD did not converge" in capsys.readouterr().err


# -------------------------------------------------------------- ingestion


def test_ingest_simple_rows(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("# comment\nmode,stretch,stress\nUT,1.0,0.0\n\nBT,1.5, 12.5\n")
    samples = ingest(p)
    assert len(samples) == 2
    assert samples[0].mode is UT and samples[0].stretch == 1.0
    assert samples[1].stress == 12.5


def test_ingest_reports_line_numbers(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("mode,stretch,stress\nUT,1.0,0.0\nXX,1.2,0.4\n")
    with pytest.raises(InputError, match=r":3: unknown mode 'XX'"):
        ingest(p)
    p.write_text("mode,stretch,stress\nUT,0.01,1.0\n")
    with pytest.raises(InputError, match=r":2: stretch"):
        ingest(p)
    p.write_text("mode,stretch,stress\nUT,two,1.0\n")
    with pytest.raises(InputError, match=r":2: non-numeric"):
        ingest(p)
    p.write_text("stretch,mode,stress\nUT,1.0,0.0\n")
    with pytest.raises(InputError, match="header"):
        ingest(p)
    p.write_text("# Treloar 1944\n\n  # no rows\n")
    with pytest.raises(InputError, match=r": missing header 'mode,stretch,stress'$"):
        ingest(p)
    p.write_text("mode,stretch,stress\n")
    with pytest.raises(InputError, match="no data rows"):
        ingest(p)
    p.write_text("mode,stretch,stress\nUT,1.0,0.0,9\n")  # no extra columns
    with pytest.raises(InputError, match=r":2: expected 3 columns, got 4$"):
        ingest(p)
    # rows failing different checks: the earlier line is reported, and a
    # row failing several reports the first check it fails
    p.write_text("mode,stretch,stress\nUT,1.0,0.0\nUT,25.0,1.0\nXX,1.2,0.4\n")
    with pytest.raises(InputError, match=r":3: stretch 25\.0 outside"):
        ingest(p)
    p.write_text("mode,stretch,stress\nXX,1.0,0.0\nUT,25.0,1.0\n")
    with pytest.raises(InputError, match=r":2: unknown mode 'XX'"):
        ingest(p)
    p.write_text("mode,stretch,stress\nUT,1.0,0.0\n\nXX,two\n")
    with pytest.raises(InputError, match=r":4: expected 3 columns, got 2$"):
        ingest(p)


def test_ingest_keeps_duplicates_and_scales(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("mode,stretch,stress\nUT,1.5,2.0\nUT,1.5,2.2\n")
    samples = ingest(p)
    assert len(samples) == 2  # repeat measurements are data, not errors
    scaled = ingest(p, stress_scale=1000.0)
    assert scaled[0].stress == pytest.approx(2000.0)


def test_ingest_returns_the_file_as_a_sequence_of_samples(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("mode,stretch,stress\nUT,1.0,0.0\n# note\nBT,1.5, 12.5\nUT,2.25,30.1\n"
                 "PS,1.2,0.3\nBT,1.5,12.7\n")
    rows = [(UT, 1.0, 0.0), (BT, 1.5, 12.5), (UT, 2.25, 30.1), (PS, 1.2, 0.3), (BT, 1.5, 12.7)]
    for scale in (1.0, 1000.0):
        expected = [Sample(m, x, y * scale) for m, x, y in rows]
        data = ingest(p, stress_scale=scale)
        assert isinstance(data, kinematics.Dataset) and len(data) == 5
        assert [data[k] for k in range(5)] == expected
        assert [data[k] for k in range(-5, 0)] == expected
        assert list(data) == expected
        assert all(type(v) is float for s in data for v in (s.stretch, s.stress))
        with pytest.raises(IndexError):
            data[5]
        assert kinematics.Dataset.of(data) is data
    with pytest.raises(ValueError, match="one mode, stretch and stress per sample"):
        kinematics.Dataset([UT, UT], [1.5, 2.0], [1.0])


@pytest.mark.parametrize("kind", list(ModelKind))
def test_a_dataset_and_its_list_of_samples_give_the_same_bits(treloar, kind):
    """Every stage reads the ``Dataset`` columns; handed the same samples as
    a list, it builds them and returns the same bits."""
    samples = list(treloar)
    modes, stretch = [s.mode for s in samples], [s.stretch for s in samples]
    sc = stress_coefficients(modes, stretch)
    for column, reference in zip((treloar.i1, treloar.i2, treloar.alpha, treloar.beta),
                                 (*invariants(modes, stretch), sc.alpha, sc.beta)):
        assert column.tobytes() == reference.tobytes()
    assert max_invariants(treloar) == max_invariants(samples)
    spec = default_spec(kind, treloar, 8, 4)
    assert spec == default_spec(kind, samples, 8, 4)
    for a, b in zip(assemble_design(spec, treloar), assemble_design(spec, samples)):
        assert a.tobytes() == b.tobytes()
    theta = np.linspace(0.0, 1.0, spec.n_params)
    theta[list(fixed_zero_indices(spec))] = 0.0
    state = ModelState(spec=spec, theta=theta)
    fit, fit_list = metrics(state, treloar), metrics(state, samples)
    assert fit.predictions.tobytes() == fit_list.predictions.tobytes()
    assert (fit.mse, fit.r2, fit.mse_combined) == (fit_list.mse, fit_list.r2,
                                                    fit_list.mse_combined)
    assert mode_counts(treloar) == mode_counts(samples) == {"UT": 25, "BT": 17, "PS": 14}


def test_a_fit_groups_its_dataset_once(tmp_path, monkeypatch):
    """``ingest`` groups the rows by mode, and every stage of the fit reads
    those groups: one ``mode_groups`` call per ``calibrate`` of each kind,
    and one per ``compare`` of all three."""
    calls, group = [], kinematics.mode_groups
    monkeypatch.setattr(kinematics, "mode_groups", lambda modes: calls.append(1) or group(modes))
    data = _neo_hookean_csv(tmp_path / "nh.csv", n=8)
    cfg = {"data": str(data), "n1": 6, "n2": 4, "lcurve_count": 5}
    for kind in ModelKind:
        path = _config(tmp_path / f"{kind.value}.json", kind=kind.value, **cfg)
        calls.clear()
        assert main(["calibrate", "--config", str(path),
                     "--output", str(tmp_path / kind.value)]) == 0
        assert len(calls) == 1, kind
    calls.clear()
    assert main(["compare", "--config", str(path), "--kinds", "separable,surface,mapped",
                 "--output", str(tmp_path / "compare")]) == 0
    assert len(calls) == 1


def test_bundled_dataset(treloar):
    counts = mode_counts(treloar)
    assert set(counts) == {"UT", "BT", "PS"}
    assert sum(counts.values()) >= 40
    assert all(s.stress >= 0.0 for s in treloar)
    assert bundled_treloar_path().exists()


# ------------------------------------------------------------- calibrate


@pytest.fixture()
def nh_setup(tmp_path):
    data = _neo_hookean_csv(tmp_path / "nh.csv")
    cfg = _config(tmp_path / "cfg.json", kind="separable", data=str(data),
                  lambda_pen=0.0, output=str(tmp_path / "out"))
    return tmp_path, data, cfg


def test_calibrate_neo_hookean(nh_setup, capsys):
    tmp_path, data, cfg = nh_setup
    assert main(["calibrate", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "model.json").exists()
    assert (out / "predictions.csv").exists()
    assert (out / "activation.csv").exists()
    assert not (out / "lcurve.csv").exists()  # fixed weight, no sweep
    model = json.loads((out / "model.json").read_text())
    assert model["schema_version"] == 1
    assert model["kind"] == "separable"
    for mode in ("UT", "BT", "PS"):
        assert model["metrics"]["mse"][mode] < 1e-8
    assert "ingested 60 samples" in capsys.readouterr().out
    # predictions.csv mirrors the data within solver precision
    rows = (out / "predictions.csv").read_text().splitlines()
    assert rows[0] == "mode,stretch,stress_exp,stress_model"
    for line in rows[1:]:
        _, _, exp, pred = line.split(",")
        assert float(pred) == pytest.approx(float(exp), abs=2e-3)


@pytest.mark.parametrize("command", ["calibrate", "predict", "lcurve", "compare"])
def test_calibrate_outputs_are_byte_deterministic(nh_setup, command):
    tmp_path, data, cfg = nh_setup
    at = tmp_path / "at.csv"
    at.write_text("mode,stretch\nUT,1.0\nBT,1.7\nPS,2.5\nUT,12.0\n")
    argv = {"calibrate": ["calibrate", "--config", str(cfg)],
            "predict": ["predict", "--model", str(tmp_path / "out" / "model.json"),
                        "--at", str(at)],
            "lcurve": ["lcurve", "--config", str(cfg)],
            "compare": ["compare", "--config", str(cfg), "--kinds", "separable,mapped"]}[command]
    if command == "predict":
        assert main(["calibrate", "--config", str(cfg)]) == 0
    for sub in ("a", "b"):
        assert main(argv + ["--output", str(tmp_path / sub)]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names and names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        a, b = ((tmp_path / sub / name).read_bytes() for sub in ("a", "b"))
        assert a == b, name


def test_model_json_does_not_depend_on_the_blas_thread_count(tmp_path):
    """The Treloar surface and mapped fits at the automatic weight and the
    unpenalised mapped fit write the same model.json bytes at one BLAS
    thread and at two.  OpenBLAS reads its thread count when it loads, so
    each count fits in a process of its own."""
    fits = {"surface": {"kind": "surface"}, "mapped": {"kind": "mapped"},
            "mapped-0": {"kind": "mapped", "lambda_pen": 0.0}}
    for name, cfg in fits.items():
        _config(tmp_path / f"{name}.json", data=str(bundled_treloar_path()), **cfg)
    script = ("import sys\n"
              "from hyperspline.cli import main\n"
              "args = sys.argv[1:]\n"
              "sys.exit(max(main(['calibrate', '--config', c, '--output', o])\n"
              "             for c, o in zip(args[::2], args[1::2])))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    models = {}
    for threads in ("1", "2"):
        argv = [str(p) for name in fits
                for p in (tmp_path / f"{name}.json", tmp_path / threads / name)]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        subprocess.run([sys.executable, "-c", script, *argv], env=env, check=True,
                       capture_output=True)
        models[threads] = {name: (tmp_path / threads / name / "model.json").read_bytes()
                           for name in fits}
    for name in fits:
        assert models["1"][name] == models["2"][name], name


def test_model_json_is_byte_identical_across_copies_of_the_data(nh_setup):
    """model.json pins the data by name and digest: two copies of the same
    bytes with different modification times give byte-identical files."""
    tmp_path, data, _ = nh_setup
    for sub, mtime in (("a", 1_000_000_000), ("b", 1_700_000_000)):
        copy = tmp_path / sub / data.name
        copy.parent.mkdir()
        copy.write_bytes(data.read_bytes())
        os.utime(copy, (mtime, mtime))
        cfg = _config(tmp_path / sub / "cfg.json", kind="separable", data=str(copy),
                      lambda_pen=0.0, output=str(tmp_path / sub / "out"))
        assert main(["calibrate", "--config", str(cfg)]) == 0
    a, b = ((tmp_path / sub / "out" / "model.json").read_bytes() for sub in ("a", "b"))
    assert a == b
    assert json.loads(a)["provenance"] == {
        "data_file": data.name, "data_sha256": hashlib.sha256(data.read_bytes()).hexdigest()}


def test_calibrate_empty_dataset_writes_nothing(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("mode,stretch,stress\n")
    cfg = _config(tmp_path / "cfg.json", kind="separable", data=str(data),
                  output=str(tmp_path / "out"))
    assert main(["calibrate", "--config", str(cfg)]) == 2
    assert "no data rows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_calibrate_missing_config_exit_code(tmp_path, capsys):
    assert main(["calibrate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    path.write_text("kind = separable\n")
    assert main(["calibrate", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
    assert f"error: config {path} is not valid JSON: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- predict


def test_model_round_trip_predictions(nh_setup):
    tmp_path, data, cfg = nh_setup
    assert main(["calibrate", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    state, lam = load_model(out / "model.json")
    assert lam == 0.0
    from hyperspline import predict_stress
    for line in (out / "predictions.csv").read_text().splitlines()[1:]:
        mode, lam_s, _, pred = line.split(",")
        again = predict_stress(state, DeformationMode(mode), float(lam_s))
        assert again == pytest.approx(float(pred), abs=1e-12)


def test_predict_flags_extrapolation(nh_setup):
    tmp_path, data, cfg = nh_setup
    assert main(["calibrate", "--config", str(cfg)]) == 0
    at = tmp_path / "at.csv"
    at.write_text("mode,stretch\nUT,1.0\nUT,2.0\nUT,12.0\n")
    assert main(["predict", "--model", str(tmp_path / "out" / "model.json"),
                 "--at", str(at), "--output", str(tmp_path / "pred")]) == 0
    rows = (tmp_path / "pred" / "predictions.csv").read_text().splitlines()
    assert rows[0] == "mode,stretch,stress_model,extrapolated"
    unit = rows[1].split(",")
    assert float(unit[2]) == 0.0 and unit[3] == "0"
    inside = rows[2].split(",")
    assert inside[3] == "0"
    assert float(inside[2]) == pytest.approx(700.0, rel=1e-4)
    outside = rows[3].split(",")
    assert outside[3] == "1"  # stretch 12 is beyond the calibrated range
    assert np.isfinite(float(outside[2]))


@pytest.mark.parametrize("kind", ["separable", "surface", "mapped"])
def test_predict_at_the_data_reproduces_the_fit_predictions(kind, tmp_path, monkeypatch):
    """``predict`` at the stretches of a fit's predictions.csv writes its
    stress_model cells byte for byte: the data lie inside the model's
    domain, so the clamped path takes the fit's own bits.  Treloar's 56
    rows give per-sample design rows; 400 rows per mode, taller than the
    20 x 5 site grid plus one, are reduced span by span first."""
    reduced, reduce = [], cli.reduced_design
    monkeypatch.setattr(cli, "reduced_design", lambda *a: reduced.append(a) or reduce(*a))
    tall = _neo_hookean_csv(tmp_path / "tall.csv", lam_max=4.0, n=400)
    for name, data, weight in (("treloar", bundled_treloar_path(), {}),
                               ("tall", tall, {"lambda_pen": 1e-4})):
        cfg = _config(tmp_path / f"{name}.json", kind=kind, data=str(data), **weight)
        fit_dir, pred_dir = tmp_path / f"{name}-fit", tmp_path / f"{name}-pred"
        assert main(["calibrate", "--config", str(cfg), "--output", str(fit_dir)]) == 0
        assert len(reduced) == (name == "tall")
        fit = [line.split(",") for line in
               (fit_dir / "predictions.csv").read_text().splitlines()[1:]]
        at = tmp_path / f"{name}-at.csv"
        at.write_text("mode,stretch\n" + "".join(f"{m},{lam}\n" for m, lam, _, _ in fit))
        assert main(["predict", "--model", str(fit_dir / "model.json"),
                     "--at", str(at), "--output", str(pred_dir)]) == 0
        pred = [line.split(",") for line in
                (pred_dir / "predictions.csv").read_text().splitlines()[1:]]
        assert [row[:3] for row in pred] == [[m, lam, w] for m, lam, _, w in fit]
        assert all(row[3] == "0" for row in pred)


def test_predict_rejects_schema_mismatch(nh_setup, capsys):
    tmp_path, data, cfg = nh_setup
    assert main(["calibrate", "--config", str(cfg)]) == 0
    model_path = tmp_path / "out" / "model.json"
    doc = json.loads(model_path.read_text())
    doc["schema_version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    at = tmp_path / "at.csv"
    at.write_text("mode,stretch\nUT,1.5\n")
    assert main(["predict", "--model", str(bad), "--at", str(at),
                 "--output", str(tmp_path / "p")]) == 2
    assert "schema_version" in capsys.readouterr().err
    # I2 always enters through the polyconvex transform: a use_polyconvex
    # that is not JSON true, or none at all, is a malformed model file
    for value in (False, 1, "missing"):
        off_axis = dict(doc, schema_version=1, use_polyconvex=value)
        if value == "missing":
            del off_axis["use_polyconvex"]
        bad.write_text(json.dumps(off_axis))
        with pytest.raises(InputError, match="^malformed model file: "):
            load_model(bad)
        assert main(["predict", "--model", str(bad), "--at", str(at),
                     "--output", str(tmp_path / "p")]) == 2
        assert "malformed model file" in capsys.readouterr().err
    # numbers must be finite JSON numbers, n1 and n2 integers; the committed
    # benchmark models load, and each edit of one fails as configs fail
    fixtures = MAPPED_MODEL.parent
    for name in ("separable", "surface", "mapped"):
        load_model(fixtures / f"{name}.json")
    surface = json.loads((fixtures / "surface.json").read_text())
    theta_nan = list(surface["theta"])
    theta_nan[5] = math.nan
    edits = ({"theta": theta_nan}, {"u_max": math.inf}, {"i2_axis_max": math.inf},
             {"delta": math.nan}, {"lambda_pen": math.nan}, {"n1": 20.5}, {"n1": "20"},
             {"n2": True}, {"u_max": "12.5"}, {"theta": [repr(v) for v in surface["theta"]]},
             {"sites2": [0.0, 0.25, "0.5", 0.75, 1.0]})
    at.write_text("mode,stretch\nUT,2.0\nBT,1.5\n")
    for edit in edits:
        bad.write_text(json.dumps(dict(surface, **edit)))
        with pytest.raises(InputError, match="^malformed model file: "):
            load_model(bad)
        assert main(["predict", "--model", str(bad), "--at", str(at),
                     "--output", str(tmp_path / "p")]) == 2
        assert "malformed model file" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_predict_validates_request_rows(nh_setup, capsys):
    tmp_path, data, cfg = nh_setup
    assert main(["calibrate", "--config", str(cfg)]) == 0
    model = str(tmp_path / "out" / "model.json")
    at = tmp_path / "at.csv"
    at.write_text("stretch,mode\n1.0,UT\n")
    assert main(["predict", "--model", model, "--at", str(at),
                 "--output", str(tmp_path / "p")]) == 2
    at.write_text("mode,stretch\nUT,25.0\n")
    assert main(["predict", "--model", model, "--at", str(at),
                 "--output", str(tmp_path / "p")]) == 2
    capsys.readouterr()
    # rows failing different checks: the earlier line is reported
    args = ["predict", "--model", model, "--at", str(at), "--output", str(tmp_path / "p")]
    at.write_text("mode,stretch\nUT,1.0\nUT,0.01\nXX,1.0\n")
    assert main(args) == 2
    assert ":3: stretch 0.01 outside" in capsys.readouterr().err
    at.write_text("mode,stretch\nUT,1.0\nXX,1.0\nUT,0.01\n")
    assert main(args) == 2
    assert ":3: bad mode or stretch" in capsys.readouterr().err
    # cells after the second, in the header and in a row, are ignored
    at.write_text("mode,stretch,note\nUT,1.50,a,b\nBT, 2.0\n")
    assert main(args) == 0
    rows = (tmp_path / "p" / "predictions.csv").read_text().splitlines()
    assert [r.split(",")[:2] for r in rows[1:]] == [["UT", "1.5"], ["BT", "2.0"]]


MAPPED_MODEL = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "mapped.json"


def test_predict_names_the_line_of_the_only_non_numeric_stretch(tmp_path, capsys):
    at = tmp_path / "at.csv"
    at.write_text("mode,stretch\nUT,1.5\n\nBT,2.0\n# note\nPS,x1.2\n")
    assert main(["predict", "--model", str(MAPPED_MODEL), "--at", str(at),
                 "--output", str(tmp_path / "p")]) == 2
    assert f"{at}:6: bad mode or stretch" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_predict_reads_a_padded_crlf_request_as_the_clean_one(tmp_path):
    clean = tmp_path / "clean.csv"
    clean.write_text("mode,stretch\nUT,1.5\nBT,2.0\nPS,1.0005\nUT,12.0\n")
    messy = tmp_path / "messy.csv"
    messy.write_bytes(b"# request\r\n  mode , stretch ,note\r\n\r\nUT, 1.5 ,a\r\n# skip\r\n"
                      b" BT ,2.0,b,c\r\n   \r\n\tPS,1.0005\r\nUT ,12.0, \r\n")
    for at in (clean, messy):
        assert main(["predict", "--model", str(MAPPED_MODEL), "--at", str(at),
                     "--output", str(tmp_path / at.stem)]) == 0
    written = (tmp_path / "messy" / "predictions.csv").read_bytes()
    assert written == (tmp_path / "clean" / "predictions.csv").read_bytes()
    assert written.count(b"\n") == 5 and b"\r" not in written


# ------------------------------------------------------- lcurve / compare


def test_lcurve_subcommand(tmp_path, capsys):
    data = _neo_hookean_csv(tmp_path / "nh.csv", n=8)
    cfg = _config(tmp_path / "cfg.json", kind="surface", data=str(data),
                  n1=6, n2=4, lcurve_min=1e-8, lcurve_max=1e-2, lcurve_count=7,
                  output=str(tmp_path / "out"))
    assert main(["lcurve", "--config", str(cfg)]) == 0
    text = (tmp_path / "out" / "lcurve.csv").read_text()
    rows = text.splitlines()
    assert rows[0] == "lambda,misfit,seminorm,kappa,chosen"
    assert len(rows) == 8
    flagged = [r.split(",")[0] for r in rows[1:] if r.split(",")[4] == "1"]
    # exactly one row is marked, the chosen weight's: the weight of the fit
    chosen = re.search(r"^corner lambda=\S+ chosen=(\S+)$", capsys.readouterr().out, re.M)
    assert flagged == [chosen.group(1)]
    # one pipeline: calibrate at the automatic weight writes the same curve,
    # and its model's weight is the chosen row's, the same repr
    assert main(["calibrate", "--config", str(cfg), "--output", str(tmp_path / "cal")]) == 0
    assert (tmp_path / "cal" / "lcurve.csv").read_text() == text
    model = json.loads((tmp_path / "cal" / "model.json").read_text())
    assert flagged == [repr(model["lambda_pen"])]


def test_compare_requires_two_kinds(tmp_path, capsys):
    data = _neo_hookean_csv(tmp_path / "nh.csv", n=6)
    cfg = _config(tmp_path / "cfg.json", kind="separable", data=str(data))
    assert main(["compare", "--config", str(cfg), "--kinds", "separable",
                 "--output", str(tmp_path / "out")]) == 2
    assert "two kinds" in capsys.readouterr().err


def test_compare_repeated_kind_rows_are_identical(tmp_path):
    data = _neo_hookean_csv(tmp_path / "nh.csv", n=10)
    cfg = _config(tmp_path / "cfg.json", kind="separable", data=str(data),
                  lambda_pen=0.0)
    assert main(["compare", "--config", str(cfg),
                 "--kinds", "separable,separable",
                 "--output", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "compare.csv").read_text().splitlines()
    assert rows[0].startswith("kind,n_params,mse_UT")
    assert len(rows) == 3
    assert rows[1] == rows[2]


def test_compare_rejects_an_unknown_kind_before_reading_data(tmp_path, monkeypatch, capsys):
    """Each kind is checked as ``calibrate`` checks its config's kind."""
    data = _neo_hookean_csv(tmp_path / "nh.csv", n=6)
    cfg = _config(tmp_path / "cfg.json", kind="separable", data=str(data))
    reads = []
    monkeypatch.setattr(cli, "ingest", lambda *a: reads.append(a) or ingest(*a))
    assert main(["compare", "--config", str(cfg), "--kinds", "separable,bogus",
                 "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("error: unknown model kind 'bogus'; expected one of "
                                       "['mapped', 'separable', 'surface']\n")
    assert reads == []
    assert not (tmp_path / "out").exists()


def test_compare_two_kinds(tmp_path, monkeypatch):
    data = _neo_hookean_csv(tmp_path / "nh.csv", n=10)
    cfg = _config(tmp_path / "cfg.json", kind="separable", data=str(data),
                  n1=8, n2=4, lambda_pen=1e-6)
    reads = []
    monkeypatch.setattr(cli, "ingest", lambda *a: reads.append(a) or ingest(*a))
    assert main(["compare", "--config", str(cfg), "--kinds", "separable,mapped",
                 "--output", str(tmp_path / "out")]) == 0
    assert len(reads) == 1  # the data file is read once for all kinds
    rows = (tmp_path / "out" / "compare.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].split(",")[0] == "separable"
    assert rows[2].split(",")[0] == "mapped"
    assert int(rows[1].split(",")[1]) == 12   # 8 + 4 parameters
    assert int(rows[2].split(",")[1]) == 32   # 8 x 4 parameters


@pytest.mark.parametrize("kind, steps", [("separable", 9), ("surface", 555), ("mapped", 393)])
def test_a_fit_reports_the_loop_steps_of_all_its_solves(kind, steps, tmp_path, monkeypatch,
                                                        capsys):
    """A fit is its sweep's 25 solves, the chosen weight's among them, or
    its one solve: ``calibrate``'s ``iterations=`` and ``compare.csv``'s
    ``iterations`` are the steps of every ``solver.solve`` call it made,
    counted as ``tests/sweep_seeds.py`` counts them, on Treloar at the
    default weights."""
    solve, counted = solver.solve, []

    def record(*args, **kwargs):
        sol = solve(*args, **kwargs)
        counted.append(sol.iterations)
        return sol

    monkeypatch.setattr(solver, "solve", record)  # the sweep's solves
    monkeypatch.setattr(cli, "solve", record)  # the one solve at a fixed weight
    cfg = _config(tmp_path / "cfg.json", kind=kind, data=str(bundled_treloar_path()),
                  output=str(tmp_path / "out"))
    assert main(["calibrate", "--config", str(cfg)]) == 0
    printed = re.findall(r"iterations=(\d+)", capsys.readouterr().out)
    assert len(printed) == 1 and int(printed[0]) == sum(counted) == steps
    assert len(counted) == (1 if kind == "separable" else 25)
    counted.clear()
    assert main(["compare", "--config", str(cfg), "--kinds", f"{kind},{kind}"]) == 0
    with open(tmp_path / "out" / "compare.csv", newline="") as handle:
        column = [int(row["iterations"]) for row in csv.DictReader(handle)]
    assert column == [sum(counted)] * 2 and sum(counted) == steps


def test_every_csv_cell_is_a_plain_value(tmp_path):
    """Each cell that calibrate, lcurve, compare and predict write is empty,
    a mode or kind name, or a number ``float`` reads, whatever the numpy
    version; never a typed repr such as ``np.float64(3.0)``."""
    data = _neo_hookean_csv(tmp_path / "nh.csv", n=8)
    cfg = str(_config(tmp_path / "cfg.json", kind="surface", data=str(data), n1=6, n2=4,
                      lcurve_min=1e-8, lcurve_max=1e-2, lcurve_count=5))
    at = tmp_path / "at.csv"
    at.write_text("mode,stretch\nUT,1.0\nBT,1.7\nPS,2.5\nUT,12.0\n")
    out = tmp_path / "out"
    for argv in (["calibrate", "--config", cfg, "--output", str(out / "calibrate")],
                 ["lcurve", "--config", cfg, "--output", str(out / "lcurve")],
                 ["compare", "--config", cfg, "--kinds", "separable,surface,mapped",
                  "--output", str(out / "compare")],
                 ["predict", "--model", str(out / "calibrate" / "model.json"), "--at", str(at),
                  "--output", str(out / "predict")]):
        assert main(argv) == 0
    names = {m.value for m in DeformationMode} | {k.value for k in ModelKind}
    paths = sorted(out.rglob("*.csv"))
    assert len(paths) == 6  # calibrate: 3, lcurve, compare, predict: 1 each
    for path in paths:
        header, *rows = csv.reader(io.StringIO(path.read_text()))
        assert rows
        for row in rows:
            for name, cell in zip(header, row):
                if cell == "" or cell in names:
                    continue
                try:
                    float(cell)
                except ValueError:
                    pytest.fail(f"{path.relative_to(out)}: {name} cell {cell!r}")


# ------------------------------------------------------------- CSV writer


def _csv_oracle(header, rows) -> str:
    """The row writer the column writer replaced: ``csv.writer`` over cells
    formatted one by one, floats by ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue()


def test_csv_writer_matches_the_csv_module(tmp_path):
    floats = [1e-05, 1e16, -0.0, 0.1 + 0.2, math.nan, math.inf, -math.inf, 5e-324,
              1.0, 2.5e-300, 123456789.125, -1e22]
    n = len(floats)
    columns = {
        "mode": [("UT", "BT", "PS")[k % 3] for k in range(n)],
        "float_list": floats,
        "float_array": np.array(floats),
        "int_list": list(range(-3, n - 3)),
        "int_array": np.arange(n) % 2,
        "mixed": ["" if k % 3 == 0 else k if k % 3 == 1 else floats[k] for k in range(n)],
    }
    path = tmp_path / "t.csv"
    _write_csv(path, columns)
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()))
    assert path.read_bytes() == _csv_oracle(list(columns), rows).encode()
    _write_csv(path, {"a": [], "b": np.zeros(0)})  # a header and no rows
    assert path.read_bytes() == b"a,b\n"
    # the one rule: repr of each array element, str of each list entry
    _write_csv(path, {"i": [0, "", 2], "x": [0.1 + 0.2, 1e-05, -0.0],
                      "a": np.array([1e16, 2.5, math.nan]), "n": np.array([3, -1, 0])})
    assert path.read_bytes() == (b"i,x,a,n\n0,0.30000000000000004,1e+16,3\n"
                                 b",1e-05,2.5,-1\n2,-0.0,nan,0\n")
