"""Write every command-line output that a byte-identity check compares.

    PYTHONPATH=src python tests/cli_outputs.py OUTDIR

runs, through ``hyperspline.cli.main`` in one process:

- ``calibrate`` and ``lcurve`` of each kind on the bundled Treloar data at
  the default config, and ``calibrate`` of the unpenalised surface and
  mapped kinds (``lambda_pen`` 0: one cold solve under the micro-ridge,
  with no penalty built);
- ``calibrate`` of each kind on the benchmark's seed-1 dense-fit data at
  its fixed weights (separable 0, surface and mapped 1e-4); its 1200 rows
  are taller than the site grid plus one, so they are reduced span by span;
- ``compare`` of separable,surface,mapped,surface on the Treloar data;
- ``predict`` of each committed benchmark model on the seed-1 predict-bulk
  request.

Each command writes into its own directory under OUTDIR, and its exit code
and stdout go to ``OUTDIR/stdout/<name>.txt`` with OUTDIR written as
``$OUT``.  The two generated inputs go to ``OUTDIR/inputs``; they come from
``perfbench/inputs.py``, which is only read.  With PYTHONPATH naming the
``src`` of another checkout the same script writes that checkout's outputs,
and one ``diff -r`` of the two directories compares them.  Exits 1 if a
command exits nonzero.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402
from hyperspline import cli  # noqa: E402

KINDS = ("separable", "surface", "mapped")


def commands(outdir: Path, configs: Path) -> dict:
    """Name -> argv of every command, its inputs written first."""
    treloar = cli.bundled_treloar_path()
    maxima = inputs.mode_maxima(cli.ingest(treloar))
    reference = inputs.load_reference()["predict_reference"]
    check_rows = sorted({(m, lam) for rows in reference.values() for m, lam, _ in rows})
    data = outdir / "inputs"
    data.mkdir(parents=True)
    (data / "dense.csv").write_text(inputs.dense_csv(1, maxima))
    (data / "request.csv").write_text(inputs.request_csv(1, maxima, check_rows))

    argv = {}
    for kind in KINDS:
        cfg = configs / f"treloar-{kind}.json"
        cfg.write_text(json.dumps({"kind": kind, "data": str(treloar)}))
        dense = configs / f"dense-{kind}.json"
        dense.write_text(inputs.config_json(kind, data / "dense.csv",
                                            inputs.DENSE_WEIGHTS[kind], outdir / "unused"))
        argv[f"calibrate-{kind}"] = ["calibrate", "--config", str(cfg)]
        argv[f"lcurve-{kind}"] = ["lcurve", "--config", str(cfg)]
        argv[f"dense-{kind}"] = ["calibrate", "--config", str(dense)]
    for kind in KINDS[1:]:
        bare = configs / f"treloar-{kind}-0.json"
        bare.write_text(json.dumps({"kind": kind, "data": str(treloar), "lambda_pen": 0.0}))
        argv[f"calibrate-{kind}-0"] = ["calibrate", "--config", str(bare)]
    argv["compare"] = ["compare", "--config", str(configs / "treloar-separable.json"),
                       "--kinds", "separable,surface,mapped,surface"]
    for kind in KINDS:
        argv[f"predict-{kind}"] = ["predict", "--model", str(inputs.FIXTURES / f"{kind}.json"),
                                   "--at", str(data / "request.csv")]
    return {name: [*args, "--output", str(outdir / name)] for name, args in argv.items()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(args[0]).resolve()
    failed = []
    with tempfile.TemporaryDirectory() as configs:
        for name, cmd in commands(outdir, Path(configs)).items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(cmd)
            text = f"exit {rc}\n{out.getvalue()}".replace(str(outdir), "$OUT")
            (outdir / "stdout").mkdir(exist_ok=True)
            (outdir / "stdout" / f"{name}.txt").write_text(text)
            print(f"{name}: exit {rc}")
            if rc:
                failed.append(name)
    outputs = [p for p in outdir.rglob("*") if p.is_file()
               and p.relative_to(outdir).parts[0] not in ("stdout", "inputs")]
    print(f"wrote {len(outputs)} output files under {outdir}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
