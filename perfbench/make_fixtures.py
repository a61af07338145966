"""Rebuild the committed fixtures of the benchmark.

    python3 perfbench/make_fixtures.py

Writes ``fixtures/{separable,surface,mapped}.json``, the predict-bulk
models fitted once on the bundled Treloar data (separable at weight 0,
surface at 1e-4 because its automatic fit fails, mapped at its swept
weight), and ``fixtures/reference.json`` with:

* ``treloar_mse``: combined MSE of each treloar-calibrate fit (null when
  the fit fails, so there is nothing to compare against);
* ``dense_mse``: a ceiling on each dense-fit kind's combined MSE, the
  largest value over seeds 1-10 plus 10 %, because dense-fit data change
  with the seed;
* ``predict_reference``: each fixture's stress at the Treloar stretches
  other than 1, where predict-bulk compares its rows;
* ``predict_flag_windows``: the stretches above 1 within which the known
  mapped-kind defect flags in-range rows as extrapolated (twice the
  measured extent, because the wrong flags are scattered).

Run it only when the fixtures themselves must change; every later result
is compared against what it records.
"""

import benchenv

benchenv.prepare()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hyperspline import cli  # noqa: E402
from hyperspline.kinematics import DeformationMode  # noqa: E402
from hyperspline.model import predict_stress_clamped  # noqa: E402

import gate  # noqa: E402
import inputs  # noqa: E402

FIXTURE_WEIGHTS = {"separable": 0.0, "surface": 1e-4, "mapped": "auto"}
DENSE_SEEDS = range(1, 11)
DENSE_MARGIN = 1.10
WINDOW_STEP = 1e-7
WINDOW_SCAN = 0.01


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _calibrate(work: Path, kind: str, data: Path, lam):
    cfg = work / f"{kind}.json"
    out = work / f"out-{kind}"
    cfg.write_text(inputs.config_json(kind, data, lam, out))
    if _quiet_main(["calibrate", "--config", str(cfg)]) != 0:
        return None
    return (out / "model.json").read_text()


def _flag_window(state, mode: str) -> float:
    """Upper end of the stretches above 1 the defect may flag.

    The wrong flags come from round-off near the apex and are scattered,
    not contiguous, so the window is twice the excess over 1 of the
    largest in-range stretch flagged on a 1e-7 grid over (1, 1.01].
    """
    edge = 1.0
    m = DeformationMode(mode)
    for lam in 1.0 + WINDOW_STEP * np.arange(1, round(WINDOW_SCAN / WINDOW_STEP) + 1):
        _, flag = predict_stress_clamped(state, m, float(lam))
        if flag and not gate.expected_extrapolated(state, mode, np.array([lam]))[0]:
            edge = float(lam)
    return 1.0 + 2.0 * (edge - 1.0)


def main():
    fixtures = inputs.FIXTURES
    fixtures.mkdir(exist_ok=True)
    treloar = cli.bundled_treloar_path()
    samples = cli.ingest(treloar)
    maxima = inputs.mode_maxima(samples)
    check_rows = [(s.mode.value, s.stretch) for s in samples if s.stretch != 1.0]
    fg = gate.FitGate()
    ref = {"treloar_mse": {}, "dense_mse": {}, "predict_reference": {},
           "predict_flag_windows": {}}
    with tempfile.TemporaryDirectory(dir=benchenv.HERE) as tmp:
        work = Path(tmp)
        data = work / "treloar1944.csv"
        shutil.copyfile(treloar, data)
        for kind, lam in inputs.TRELOAR_WEIGHTS.items():
            text = _calibrate(work, kind, data, lam)
            ref["treloar_mse"][kind] = (None if text is None
                                        else json.loads(text)["metrics"]["mse_combined"])
            print(f"treloar {kind}: mse {ref['treloar_mse'][kind]}")
        request = work / "check.csv"
        request.write_text("mode,stretch\n" + "".join(f"{m},{l!r}\n" for m, l in check_rows))
        for kind, lam in FIXTURE_WEIGHTS.items():
            text = _calibrate(work, kind, data, lam)
            if text is None:
                raise RuntimeError(f"the {kind} fixture fit failed")
            (fixtures / f"{kind}.json").write_text(text)
            out = work / f"pred-{kind}"
            rc = _quiet_main(["predict", "--model", str(fixtures / f"{kind}.json"),
                              "--at", str(request), "--output", str(out)])
            if rc != 0:
                raise RuntimeError(f"predict failed for the {kind} fixture")
            rows = gate.read_predictions((out / "predictions.csv").read_text())
            ref["predict_reference"][kind] = [[r[0], float(r[1]), float(r[2])] for r in rows]
        state, _ = cli.load_model(fixtures / "mapped.json")
        ref["predict_flag_windows"]["mapped"] = {m: _flag_window(state, m) for m in inputs.MODES}
        print("flag windows", ref["predict_flag_windows"])
        worst = {}
        for seed in DENSE_SEEDS:
            dense = work / "dense.csv"
            dense.write_text(inputs.dense_csv(seed, maxima))
            for kind, lam in inputs.DENSE_WEIGHTS.items():
                text = _calibrate(work, kind, dense, lam)
                if text is None:
                    raise RuntimeError(f"dense-fit seed {seed} {kind} fit failed")
                verdict, details = fg.check(text, str(dense), None)
                print(f"dense seed {seed} {kind}: {verdict} {details}")
                worst[kind] = max(worst.get(kind, 0.0), details["mse_combined"])
        ref["dense_mse"] = {k: v * DENSE_MARGIN for k, v in worst.items()}
    (fixtures / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    print("wrote", fixtures)


if __name__ == "__main__":
    main()
