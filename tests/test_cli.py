"""Command-line workflows: configs, ingestion, file formats, exit codes."""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hyperspline import DeformationMode, ModelKind, stress_coefficients
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
    assert cfg.unit == "kPa"


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
        if name == "compare.csv":  # its last column, wall_time_s, is measured
            a, b = ([line.rsplit(b",", 1)[0] for line in text.splitlines()] for text in (a, b))
        assert a == b, name


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


# ------------------------------------------------------- lcurve / compare


def test_lcurve_subcommand(tmp_path, capsys):
    data = _neo_hookean_csv(tmp_path / "nh.csv", n=8)
    cfg = _config(tmp_path / "cfg.json", kind="surface", data=str(data),
                  n1=6, n2=4, lcurve_min=1e-8, lcurve_max=1e-2, lcurve_count=7,
                  output=str(tmp_path / "out"))
    assert main(["lcurve", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "lcurve.csv").read_text().splitlines()
    assert rows[0] == "lambda,misfit,seminorm,kappa,chosen"
    assert len(rows) == 8
    flags = [int(r.split(",")[4]) for r in rows[1:]]
    assert sum(flags) == 1  # exactly one corner row is marked
    assert "corner lambda=" in capsys.readouterr().out


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


def test_compare_two_kinds(tmp_path):
    data = _neo_hookean_csv(tmp_path / "nh.csv", n=10)
    cfg = _config(tmp_path / "cfg.json", kind="separable", data=str(data),
                  n1=8, n2=4, lambda_pen=1e-6)
    assert main(["compare", "--config", str(cfg), "--kinds", "separable,mapped",
                 "--output", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "compare.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].split(",")[0] == "separable"
    assert rows[2].split(",")[0] == "mapped"
    assert int(rows[1].split(",")[1]) == 12   # 8 + 4 parameters
    assert int(rows[2].split(",")[1]) == 32   # 8 x 4 parameters


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
