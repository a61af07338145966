"""hyperspline benchmark: one workload, one closed-loop run.

    python3 perfbench/run.py --workload dense-fit --seed 1 --seconds 36 --trace 0

A single process runs one operation at a time through
``hyperspline.cli.main`` on inputs generated from ``--seed``, repeating
whole passes of the workload's operations; the number of passes is the one
whose total comes closest to ``--seconds`` (at least one).  Every
run of an operation is checked by the correctness gate; ``attempted`` and
``failed`` count each distinct operation of the run once, failed if any of
its repeats failed, so they do not depend on how many passes fit in the
time.  The last line of standard output is the result JSON;
the line before it holds the environment and per-kind details.  With
``--trace 1`` a single traced pass gives the per-layer metrics and the
spans are written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import sys
import time

T_START = time.perf_counter()

import benchenv  # noqa: E402

try:
    benchenv.prepare()
except benchenv.MissingProgram as exc:
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(2)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from hyperspline import cli  # noqa: E402

import gate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

KINDS = ("separable", "surface", "mapped")
SETUP_REPEATS = 5  # set-up runs timed per run; setup_s is their median

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_s.separable": "s", "op_s.surface": "s",
    "op_s.mapped": "s", "rows_per_s": "1/s", "ok_ratio": "ratio", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "solver.lcurve_s": "s", "solver.lcurve_weights": "count", "solver.solve_s": "s",
    "solver.solve_calls": "count", "solver.iterations": "count", "solver.s_per_iter": "s",
    "solver.kkt_max": "residual", "solver.ridge_warnings": "count",
    "solver.failures": "count", "operators.curvature_s": "s",
    "operators.curvature_rows": "count", "operators.inequality_s": "s",
    "operators.inequality_rows": "count", "model.default_spec_s": "s",
    "model.assemble_design_s": "s", "model.design_rows": "count", "model.metrics_s": "s",
    "model.predict_s": "s", "model.predict_calls": "count",
    "splines.value_row_calls": "count", "splines.value_row_s": "s",
    "splines.basis_row_calls": "count", "domain.boundary_calls": "count",
    "domain.boundary_s": "s", "domain.map_calls": "count", "kinematics.calls": "count",
    "cli.ingest_s": "s", "cli.load_model_s": "s", "cli.self_s": "s", "trace.wall_s": "s",
}


@dataclass
class Op:
    kind: str
    argv: list
    rows: int          # data rows fitted, or request rows predicted
    runs: int = 1      # timed runs in this slot of the pass


class FitWorkload:
    """One ``calibrate`` operation per kind per pass.

    The separable fit is short, so it is timed several times per pass, in
    slots before, between and after the other fits: its samples then span
    the pass as the long fits do.  All its runs in a pass make one
    operation, which fails if any run fails, as every operation does over
    the passes of a run.
    """

    separable_slots: tuple  # runs of the separable fit before, between and after the others
    # kind -> (exit code, stderr text) of a recorded known defect
    known_exit: dict = {}

    def _configure(self, work: Path, data: Path, rows: int, weights: dict, reference: dict):
        self.data = data
        self.reference = reference
        self.gate = gate.FitGate()
        argv = {}
        for kind, lam in weights.items():
            cfg = work / f"{kind}.json"
            cfg.write_text(inputs.config_json(kind, data, lam, work / f"out-{kind}"))
            argv[kind] = ["calibrate", "--config", str(cfg)]
        self.ops = []
        for runs, other in zip(self.separable_slots, ("surface", "mapped", None)):
            if runs:
                self.ops.append(Op("separable", argv["separable"], rows, runs))
            if other:
                self.ops.append(Op(other, argv[other], rows))

    def check(self, op: Op, rc: int, out: str, err: str, work: Path) -> list:
        if rc != 0:
            code, text = self.known_exit.get(op.kind, (None, None))
            known = rc == code and text in err
            return [gate.Verdict(False, known=known, reason=f"exit {rc}: {err.strip()[:200]}")]
        try:
            model = (work / f"out-{op.kind}" / "model.json").read_text()
            verdict, _ = self.gate.check(model, str(self.data), self.reference[op.kind])
        except (OSError, ValueError, KeyError) as exc:
            verdict = gate.Verdict(False, reason=f"unreadable model.json: {exc}")
        return [verdict]


class TreloarCalibrate(FitWorkload):
    """The paper's workflow on the bundled Treloar data (separable fit ≈30 ms)."""

    name = "treloar-calibrate"
    separable_slots = (5, 5, 5)
    known_exit = {"surface": (3, "failed to converge")}  # the automatic fit cycles

    def setup(self, work: Path, seed: int):
        data = work / "treloar1944.csv"
        shutil.copyfile(cli.bundled_treloar_path(), data)
        self._configure(work, data, len(cli.ingest(data)), inputs.TRELOAR_WEIGHTS,
                        inputs.load_reference()["treloar_mse"])


class DenseFit(FitWorkload):
    """Fixed-weight fits of a generated dataset with several hundred rows per mode."""

    name = "dense-fit"
    separable_slots = (1, 1, 1)

    def setup(self, work: Path, seed: int):
        maxima = inputs.mode_maxima(cli.ingest(cli.bundled_treloar_path()))
        data = work / "dense.csv"
        data.write_text(inputs.dense_csv(seed, maxima))
        self._configure(work, data, 3 * inputs.DENSE_ROWS_PER_MODE, inputs.DENSE_WEIGHTS,
                        inputs.load_reference()["dense_mse"])


class PredictBulk:
    """``predict`` of one large seeded request file against three fixed models."""

    name = "predict-bulk"

    def setup(self, work: Path, seed: int):
        ref = inputs.load_reference()
        self.models = {k: cli.load_model(inputs.FIXTURES / f"{k}.json")[0] for k in KINDS}
        self.reference = {k: {(m, lam): v for m, lam, v in rows}
                          for k, rows in ref["predict_reference"].items()}
        self.windows = ref["predict_flag_windows"]
        maxima = inputs.mode_maxima(cli.ingest(cli.bundled_treloar_path()))
        check_rows = sorted({key for rows in self.reference.values() for key in rows})
        request = work / "request.csv"
        request.write_text(inputs.request_csv(seed, maxima, check_rows))
        self.request = [(m, float(lam)) for m, lam in
                        (line.split(",") for line in request.read_text().splitlines()[1:])]
        self.ops = [Op(k, ["predict", "--model", str(inputs.FIXTURES / f"{k}.json"),
                           "--at", str(request), "--output", str(work / f"pred-{k}")],
                       len(self.request)) for k in KINDS]

    def check(self, op: Op, rc: int, out: str, err: str, work: Path) -> list:
        if rc != 0:
            return [gate.Verdict(False, reason=f"exit {rc}: {err.strip()[:200]}")] * op.rows
        try:
            text = (work / f"pred-{op.kind}" / "predictions.csv").read_text()
            return gate.check_predictions(self.models[op.kind], op.kind, self.request, text,
                                          self.reference[op.kind], self.windows)
        except (OSError, ValueError) as exc:
            return [gate.Verdict(False, reason=f"unreadable predictions.csv: {exc}")] * op.rows


WORKLOADS = {w.name: w for w in (TreloarCalibrate, DenseFit, PredictBulk)}


def run_op(main, argv, tracer):
    """Run one CLI operation; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=tracer is not None) as caught:
        if tracer is not None:
            warnings.simplefilter("always")
            tracer.active = True
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            rc = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    if tracer is not None:
        tracer.ridge_warnings += sum("micro-ridge" in str(w.message) for w in caught)
    return seconds, rc, out.getvalue(), err.getvalue()


def _severity(v: gate.Verdict) -> int:
    return 0 if v.ok else 1 if v.known else 2


def _worse(a: gate.Verdict, b: gate.Verdict) -> gate.Verdict:
    """The verdict kept for an operation run twice: an unknown failure first."""
    return b if _severity(b) > _severity(a) else a


def measure(workload, work: Path, seconds: float, tracer):
    main = cli.main if tracer is None else tracer.span(tracing.OP_SPAN, cli.main)
    times = {k: [] for k in KINDS}
    iterations = {k: Counter() for k in KINDS}
    reasons = Counter()
    pass_s = []
    attempted = failed = known = rows = checks = check_failures = 0
    verdicts = {}  # kind -> verdicts of that kind's operation, over all its runs
    op_total = 0.0
    t0 = time.perf_counter()
    while True:
        this_pass = 0.0
        for op in workload.ops:
            # The traced pass runs each kind once: its counts describe one fit each.
            runs = op.runs if tracer is None else int(op.kind not in verdicts)
            for _ in range(runs):
                if tracer is not None:
                    tracer.op += 1
                sec, rc, out, err = run_op(main, op.argv, tracer)
                checked = workload.check(op, rc, out, err, work)
                checks += len(checked)
                check_failures += sum(not v.ok for v in checked)
                prev = verdicts.get(op.kind)
                verdicts[op.kind] = checked if prev is None else list(
                    map(_worse, prev, checked))
                times[op.kind].append(sec)
                this_pass += sec
                rows += op.rows
                for it in re.findall(r"iterations=(\d+)", out):
                    iterations[op.kind][int(it)] += 1
        pass_s.append(this_pass)
        op_total += this_pass
        # Stop at the pass count whose total comes closest to ``seconds``.
        elapsed = time.perf_counter() - t0
        if tracer is not None or elapsed + 0.5 * elapsed / len(pass_s) > seconds:
            break
    for kind, checked in verdicts.items():
        attempted += len(checked)
        for v in checked:
            if not v.ok:
                failed += 1
                known += v.known
                reasons[("known: " if v.known else "") + f"{kind}: {v.reason}"] += 1
    return {
        "times": times, "pass_s": pass_s, "attempted": attempted, "failed": failed,
        "known": known, "rows": rows, "op_total": op_total, "reasons": reasons,
        "checks": checks, "check_failures": check_failures,
        "iterations": {k: dict(sorted(v.items())) for k, v in iterations.items() if v},
    }


def trimmed_mean(values) -> float:
    """Mean without the lowest and highest tenth (no trimming below ten values)."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def setup_probe(workload: str, seed: int) -> float:
    """Imports plus one set-up, in a fresh process; returns its seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    work = benchenv.HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        workload.setup(work, args.seed)
        own_setup_s = IMPORT_S + time.perf_counter() - t0
        if args.setup_probe:
            print(repr(own_setup_s))
            return 0
        # Set-up is timed in fresh processes, so every sample pays for the imports.
        setup_runs = ([] if args.trace else
                      [setup_probe(args.workload, args.seed) for _ in range(SETUP_REPEATS)])
        tracer = tracing.Tracer() if args.trace else None
        t_run = time.perf_counter()
        if tracer is None:
            res = measure(workload, work, args.seconds, None)
        else:
            with tracer:
                res = measure(workload, work, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Times are trimmed means over the run: the host alternates between fast
    # and slow phases lasting seconds, and a median flips between them from
    # run to run; the trimming drops the cold first fit and rare stalls.
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_runs),
            "wall_s": trimmed_mean(res["pass_s"]),
            **{f"op_s.{k}": trimmed_mean(v) for k, v in res["times"].items()},
            "rows_per_s": res["rows"] / res["op_total"],
            "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        trace_file = None
    else:
        values = {**tracer.metrics(), "trace.wall_s": res["pass_s"][0]}
        units = PER_LAYER_UNITS
        trace_file = benchenv.HERE / "out" / f"trace-{args.workload}-seed{args.seed}.csv"
        tracer.write(trace_file, t_run)

    detail = {
        "workload": args.workload, "trace": args.trace, "env": benchenv.record(args.seed),
        "own_setup_s": own_setup_s, "setup_runs_s": setup_runs, "passes": len(res["pass_s"]),
        "pass_s": res["pass_s"],
        "ops": {k: {"n": len(v), "trimmed_mean_s": trimmed_mean(v), "times_s": v}
                for k, v in res["times"].items()},
        "iterations": res["iterations"], "rows": res["rows"],
        "failed": res["failed"], "known_failed": res["known"],
        "checks": res["checks"], "check_failures": res["check_failures"],
        "failed_ratio": res["failed"] / res["attempted"],
        "failure_reasons": dict(res["reasons"].most_common(10)),
        "trace_file": str(trace_file.relative_to(benchenv.ROOT)) if trace_file else None,
    }
    print(json.dumps({"detail": detail}))
    result = {
        # A failure that matches a recorded known defect still counts in
        # "failed"; any other failure makes the run incorrect.
        "correct": res["failed"] == res["known"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
