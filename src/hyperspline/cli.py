"""Command-line workflows: calibrate, predict, lcurve and compare.

One reader parses every CSV input (the ``mode,stretch,stress`` data and
predict's ``mode,stretch`` request): blank lines and lines starting with
'#' are skipped, cells are split on commas and stripped of whitespace,
and the first other line is the header.  Data rows have exactly three
cells; a request row needs two and may carry more, which are ignored.
Modes are the exact names UT, BT and PS, numbers are read by ``float``,
and an error names the first failing line of the file.  ``ingest`` builds
the ``Dataset`` that every stage of a fit, and every kind of a
``compare``, reads.

A config's ``lambda_pen`` may be ``"auto"`` (``AUTO``, the surface kinds'
default): the fit is then the L-curve sweep with its solve at the chosen
weight, and reports the loop steps of all its solves.  All outputs are
plain JSON/CSV written atomically (temp file plus rename) and
byte-deterministic for identical inputs.  One writer emits every CSV: a
header line and one line per row, each ending in a newline, with no
quoting; floats are serialised with ``repr``, which emits the shortest
digit string that round-trips.  Exit codes: 0 success, 2 input/config
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._batch import first
from .domain import DomainMapConfig
from .kinematics import Dataset, DeformationMode, mode_groups
from .model import (ModelKind, ModelSpec, ModelState, activation,
                    assemble_design, fixed_zero_indices, default_spec,
                    metrics, predict_stress_clamped, reduced_design)
from .model import predict_stress  # noqa: F401  (perfbench/tracing.py wraps it here)
from .operators import curvature_operator, inequality_operator
from .solver import CalibrationProblem, default_lambda_grid, lcurve, solve

AUTO = "auto"  # the config value of lambda_pen that asks for the L-curve sweep
SCHEMA_VERSION = 1
STRETCH_MIN = 0.05
STRETCH_MAX = 20.0

_MODES = {m.value: m for m in DeformationMode}


class InputError(ValueError):
    """Bad file, config or request; maps to exit code 2."""


class NumericalError(RuntimeError):
    """Solver or linear-algebra failure; maps to exit code 3."""


@dataclass
class RunConfig:
    kind: str
    data: str
    n1: int = 20
    n2: int = 5
    delta: float = 1e-6
    lambda_pen: float | str | None = None  # None -> kind default, "auto" or a number
    lcurve_min: float = 1e-10
    lcurve_max: float = 1e2
    lcurve_count: int = 25
    stress_scale: float = 1.0
    monotone_1: bool = True
    monotone_2: bool = True
    convex_1: bool = True
    convex_2: bool = True
    output: str = "out"

    def model_kind(self) -> ModelKind:
        try:
            return ModelKind(self.kind)
        except ValueError:
            raise InputError(f"unknown model kind {self.kind!r}; "
                             f"expected one of {sorted(k.value for k in ModelKind)}") from None


def _read_text(path, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _read_json(path, what: str):
    try:
        return json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} {path} is not valid JSON: {exc}") from exc


# The JSON value types each RunConfig annotation accepts; true and false only
# where it is bool (to isinstance a bool is an int).
_CONFIG_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
                 "float | str | None": (int, float, str, type(None))}


def load_config(path) -> RunConfig:
    """Parse a flat JSON config; unknown keys, values of the wrong type and
    non-finite numbers (JSON's NaN and Infinity) are rejected."""
    data = _read_json(path, "config")
    if not isinstance(data, dict):
        raise InputError("config must be a JSON object")
    allowed = set(RunConfig.__dataclass_fields__)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in ("kind", "data") if k not in data]
    if missing:
        raise InputError(f"config is missing required keys: {', '.join(missing)}")
    for key, value in data.items():
        annotation = RunConfig.__dataclass_fields__[key].type
        if (isinstance(value, bool) != (annotation == "bool")
                or not isinstance(value, _CONFIG_TYPES[annotation])):
            raise InputError(f"config key {key!r} must be {annotation}, got {json.dumps(value)}")
        if isinstance(value, float) and not math.isfinite(value):
            raise InputError(f"config key {key!r} must be finite, got {json.dumps(value)}")
    cfg = RunConfig(**data)
    cfg.model_kind()
    if cfg.n1 < 4 or cfg.n2 < 4:
        raise InputError("n1 and n2 must be at least 4")
    if cfg.delta < 0:
        raise InputError("delta must be nonnegative")
    if isinstance(cfg.lambda_pen, str) and cfg.lambda_pen != AUTO:
        raise InputError("lambda_pen must be a number or 'auto'")
    if isinstance(cfg.lambda_pen, (int, float)) and cfg.lambda_pen < 0:
        raise InputError("lambda_pen must be nonnegative")
    if not (cfg.lcurve_min > 0 and cfg.lcurve_max > cfg.lcurve_min):
        raise InputError("lcurve bounds must satisfy 0 < min < max")
    if cfg.lcurve_count < 5:
        raise InputError("lcurve_count must be at least 5")
    if not cfg.stress_scale > 0:
        raise InputError("stress_scale must be positive")
    return cfg


def _read_csv(path, what: str, names: tuple, exact: bool = True):
    """Data rows of a CSV file under the reader rules of the module
    docstring; the header must be ``names``, or start with them unless
    ``exact``.  Returns the line number and the cell count of each row, and
    one column of strings per name (a short row reads "" where it ends)."""
    text = _read_text(path, what)
    n, expected = len(names), ",".join(names)
    lines, rows = [], []
    for lineno, stripped in enumerate(map(str.strip, text.splitlines()), start=1):
        if stripped and stripped[0] != "#":
            lines.append(lineno)
            rows.append(stripped.split(","))
    if not rows:
        raise InputError(f"{path}: missing header '{expected}'")
    header = [c.strip() for c in rows[0]]
    if (header if exact else header[:n]) != list(names):
        raise InputError(f"{path}:{lines[0]}: expected header '{expected}'")
    lines, rows = lines[1:], rows[1:]
    widths = np.array(list(map(len, rows)), dtype=int)
    if (widths < n).any():
        rows = [cells + [""] * n for cells in rows]
    columns = [list(map(str.strip, c)) for c in list(zip(*rows))[:n]]
    return lines, widths, columns or [[]] * n


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _parsed(strings, parse) -> tuple:
    """``parse`` of each string (None if it rejects it) and the rejected mask."""
    values = list(map(parse, strings))
    return values, np.array([v is None for v in values], dtype=bool)


def _floats(strings) -> tuple:
    """``_parsed(strings, _float)``, in one ``float`` pass if all are numbers."""
    try:
        return list(map(float, strings)), np.zeros(len(strings), dtype=bool)
    except ValueError:
        return _parsed(strings, _float)


def _range_check(stretch: np.ndarray) -> tuple:
    """The stretch-range check of ``_check_rows`` (NaN is out of range)."""
    return (~((stretch >= STRETCH_MIN) & (stretch <= STRETCH_MAX)),
            lambda k: f"stretch {float(stretch[k])} outside [{STRETCH_MIN}, {STRETCH_MAX}]")


def _check_rows(path, lines, checks):
    """Raise an InputError naming the first data row that fails a check.

    ``checks`` lists ``(mask, message)`` pairs in the order a row is
    checked, so a row failing several reports the first; ``message`` is a
    string or a function of the row index.
    """
    failures = [(first(bad), order, message)
                for order, (bad, message) in enumerate(checks) if bad.any()]
    if failures:
        k, _, message = min(failures)
        raise InputError(f"{path}:{lines[k]}: {message(k) if callable(message) else message}")


def ingest(path, stress_scale: float = 1.0) -> Dataset:
    """Read a ``mode,stretch,stress`` CSV into a ``Dataset``.

    Duplicates are kept.  Stretches outside [0.05, 20] and unknown modes
    are rejected with the offending line number.
    """
    lines, widths, (names, stretches, stresses) = _read_csv(
        path, "data file", ("mode", "stretch", "stress"))
    modes, unknown = _parsed(names, _MODES.get)
    stretch, bad_stretch = _floats(stretches)
    stress, bad_stress = _floats(stresses)
    stretch, stress = np.array(stretch, dtype=float), np.array(stress, dtype=float)  # None -> NaN
    _check_rows(path, lines, [
        (widths != 3, lambda k: f"expected 3 columns, got {widths[k]}"),
        (unknown, lambda k: f"unknown mode {names[k]!r}"),
        (bad_stretch | bad_stress, "non-numeric stretch or stress"),
        _range_check(stretch),
        (~np.isfinite(stress), "non-finite stress"),
    ])
    if not lines:
        raise InputError(f"{path}: no data rows")
    return Dataset(modes, stretch, stress * stress_scale)


def mode_counts(samples) -> dict:
    return {mode.value: idx.size for mode, idx in Dataset.of(samples).groups.items()}


def bundled_treloar_path() -> Path:
    """Path of the packaged rubber reference dataset."""
    return Path(__file__).parent / "data" / "treloar1944.csv"


def _write_atomic(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _cells(column) -> list:
    """Text of one column: ``repr`` of each array element, ``str`` of each
    list entry (for a float the two are equal)."""
    if isinstance(column, np.ndarray):
        return list(map(repr, column.tolist()))
    return list(map(str, column))


def _write_csv(path: Path, columns: dict):
    """Write named, equal-length columns as CSV, atomically."""
    rows = map(",".join, zip(*map(_cells, columns.values()), strict=True))
    _write_atomic(path, "\n".join([",".join(columns), *rows]) + "\n")


def _provenance(data_path) -> dict:
    """The data file by name and content digest, so that a fit of the same
    bytes writes the same model.json whatever copy of the file it read."""
    p = Path(data_path)
    return {"data_file": p.name, "data_sha256": hashlib.sha256(p.read_bytes()).hexdigest()}


def model_to_dict(state: ModelState, lambda_pen: float, fit, provenance: dict) -> dict:
    spec = state.spec
    return {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "kind": spec.kind.value,
        "n1": spec.n1,
        "n2": spec.n2,
        "u_min": spec.domain.u_min,
        "u_max": spec.domain.u_max,
        "delta": spec.domain.delta,
        "use_polyconvex": spec.domain.use_polyconvex,
        "i2_axis_max": spec.i2_axis_max,
        "sites1": list(spec.sites1),
        "sites2": list(spec.sites2),
        "lambda_pen": lambda_pen,
        "theta": [float(v) for v in state.theta],
        "metrics": {
            "mse": {m.value: fit.mse[m] for m in sorted(fit.mse, key=lambda k: k.value)},
            "r2": {m.value: fit.r2[m] for m in sorted(fit.r2, key=lambda k: k.value)},
            "mse_combined": fit.mse_combined,
        },
        "provenance": provenance,
    }


# a model file's numbers (each entry of a list): finite JSON numbers, ints where int
_MODEL_NUMBERS = dict(n1=int, n2=int, u_min=float, u_max=float, delta=float, i2_axis_max=float,
                      lambda_pen=float, sites1=float, sites2=float, theta=float)


def model_from_dict(data: dict) -> tuple:
    """Rebuild ``(ModelState, lambda_pen)`` from a model-file dictionary."""
    if not isinstance(data, dict) or data.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"unsupported model file (expected schema_version "
                         f"{SCHEMA_VERSION})")
    try:
        kind = ModelKind(data["kind"])
        if data["use_polyconvex"] is not True:
            raise ValueError("use_polyconvex must be true, got "
                             + json.dumps(data["use_polyconvex"]))
        for key, number in _MODEL_NUMBERS.items():
            for value in data[key] if isinstance(data[key], list) else [data[key]]:
                if (isinstance(value, bool) or not isinstance(value, (int, number))
                        or not math.isfinite(value)):
                    raise ValueError(f"{key} must be a finite {number.__name__}, "
                                     f"got {json.dumps(value)}")
        cfg = DomainMapConfig(u_max=float(data["u_max"]), u_min=float(data["u_min"]),
                              delta=float(data["delta"]))
        spec = ModelSpec(kind=kind, n1=int(data["n1"]), n2=int(data["n2"]),
                         domain=cfg, i2_axis_max=float(data["i2_axis_max"]),
                         sites1=tuple(float(v) for v in data["sites1"]),
                         sites2=tuple(float(v) for v in data["sites2"]))
        state = ModelState(spec=spec, theta=np.array(data["theta"], dtype=float))
        lam = data["lambda_pen"]
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed model file: {exc}") from exc
    return state, lam


def load_model(path) -> tuple:
    return model_from_dict(_read_json(path, "model file"))


@dataclass
class CalibrationResult:
    problem: CalibrationProblem  # its lambda_pen is the weight solved at
    state: ModelState
    fit: object
    sol: object
    samples: Dataset
    iterations: int  # loop steps of every solve the fit made
    lcurve_result: object = None


def run_calibration(cfg: RunConfig, samples) -> CalibrationResult:
    """Fit the config's model kind to samples already read; the one code
    that assembles a fit.  Builds the spec and the calibration problem
    (design, curvature penalty, shape constraints, pinned parameters), then
    runs the L-curve sweep at the automatic weight, the problem taking its
    chosen weight, or one solve at a fixed one, and the fit metrics.  Reads
    no file; ``main`` maps what it raises to an exit code."""
    kind, samples = cfg.model_kind(), Dataset.of(samples)
    spec = default_spec(kind, samples, cfg.n1, cfg.n2, delta=cfg.delta)
    # data taller than the n1 x n2 site grid plus one is reduced span by span;
    # below that, per-sample rows and _blocks' one QR cost less for every kind
    design = reduced_design if len(samples) > spec.n1 * spec.n2 + 1 else assemble_design
    A, y = design(spec, samples)
    ineq = inequality_operator(spec, monotone_1=cfg.monotone_1, monotone_2=cfg.monotone_2,
                               convex_1=cfg.convex_1, convex_2=cfg.convex_2)
    problem = CalibrationProblem(A=A, y=y, A_pen=curvature_operator(spec).rows,
                                 A_ineq=ineq.rows, fixed_zero=fixed_zero_indices(spec))
    lam, lc = cfg.lambda_pen, None
    if lam is None:  # the kind's default
        lam = 0.0 if kind is ModelKind.SEPARABLE else AUTO
    if lam == AUTO:
        lc = lcurve(problem, default_lambda_grid(cfg.lcurve_count, cfg.lcurve_min,
                                                 cfg.lcurve_max))
        problem, sol = replace(problem, lambda_pen=lc.lambda_chosen), lc.solution
    else:
        problem = replace(problem, lambda_pen=lam)
        sol = solve(problem)
    state = ModelState(spec=spec, theta=sol.theta)
    return CalibrationResult(problem=problem, state=state, fit=metrics(state, samples),
                             sol=sol, samples=samples, lcurve_result=lc,
                             iterations=sol.iterations if lc is None else lc.iterations)


def _prediction_columns(result: CalibrationResult) -> dict:
    data = result.samples
    return {"mode": [m.value for m in data.modes], "stretch": data.stretch,
            "stress_exp": data.stress, "stress_model": result.fit.predictions}


def _activation_columns(result: CalibrationResult) -> dict:
    """Site coordinates of each parameter and its column activation."""
    spec, act = result.state.spec, activation(result.problem.A)
    n1, n2 = spec.n1, spec.n2
    if spec.kind is ModelKind.MAPPED_SURFACE:
        site1, site2 = list(spec.sites1), list(spec.sites2)
    else:
        L1 = spec.domain.u_max - spec.domain.u_min
        site1 = [spec.domain.u_min + s * L1 for s in spec.sites1]
        site2 = [s * spec.i2_axis_max for s in spec.sites2]
    if spec.kind is ModelKind.SEPARABLE:  # n1 curve values, then n2
        i, j = [*range(n1)] + [""] * n2, [""] * n1 + [*range(n2)]
        site1, site2 = site1 + [""] * n2, [""] * n1 + site2
    else:  # the n1 x n2 grid, row-major
        i, j = [a for a in range(n1) for _ in range(n2)], [*range(n2)] * n1
        site1, site2 = [c for c in site1 for _ in range(n2)], site2 * n1
    return {"i": i, "j": j, "site1": site1, "site2": site2,
            "a": act.norms, "log10_rel": act.log10_relative}


def _lcurve_columns(lc) -> dict:
    return {"lambda": lc.lambdas, "misfit": lc.misfits, "seminorm": lc.seminorms,
            "kappa": lc.kappas,
            "chosen": (lc.lambdas == lc.lambda_chosen).astype(int)}


def _write_calibration(result: CalibrationResult, outdir: Path, data_path):
    prov = _provenance(data_path)
    model = model_to_dict(result.state, result.problem.lambda_pen, result.fit, prov)
    _write_atomic(outdir / "model.json", json.dumps(model, indent=2) + "\n")
    _write_csv(outdir / "predictions.csv", _prediction_columns(result))
    _write_csv(outdir / "activation.csv", _activation_columns(result))
    if result.lcurve_result is not None:
        _write_csv(outdir / "lcurve.csv", _lcurve_columns(result.lcurve_result))


def _cmd_calibrate(args) -> int:
    cfg = load_config(args.config)
    outdir = Path(args.output or cfg.output)
    samples = ingest(cfg.data, cfg.stress_scale)
    result = run_calibration(cfg, samples)
    _write_calibration(result, outdir, cfg.data)
    counts = mode_counts(samples)
    print(f"ingested {len(samples)} samples: "
          + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    print(f"kind={cfg.kind} params={result.state.spec.n_params} "
          f"lambda_pen={result.problem.lambda_pen} "
          f"iterations={result.iterations}")
    for mode in sorted(result.fit.mse, key=lambda m: m.value):
        print(f"  {mode.value}: mse={result.fit.mse[mode]} r2={result.fit.r2.get(mode, 'n/a')}")
    print(f"combined mse={result.fit.mse_combined}")
    print(f"wrote {outdir}/model.json")
    return 0


def _cmd_predict(args) -> int:
    state, _ = load_model(args.model)
    lines, widths, (names, stretches) = _read_csv(
        args.at, "stretches file", ("mode", "stretch"), exact=False)
    modes, unknown = _parsed(names, _MODES.get)
    stretch, bad_stretch = _floats(stretches)
    stretch = np.array(stretch, dtype=float)  # None -> NaN
    _check_rows(args.at, lines, [
        (widths < 2, "expected 2 columns"),
        (unknown | bad_stretch, "bad mode or stretch"),
        _range_check(stretch),
    ])

    values = np.zeros(len(lines))
    flags = np.zeros(len(lines), dtype=bool)
    try:  # one call per mode: one call over a 6000-row request measured slower
        for mode, idx in mode_groups(modes).items():
            values[idx], flags[idx] = predict_stress_clamped(state, mode, stretch[idx])
    except (ValueError, np.linalg.LinAlgError) as exc:
        for lineno, mode, x in zip(lines, modes, stretch.tolist()):
            try:  # report the first row that fails alone
                predict_stress_clamped(state, mode, x)
            except (ValueError, np.linalg.LinAlgError) as row_exc:
                raise NumericalError(f"{args.at}:{lineno}: {row_exc}") from row_exc
        raise NumericalError(str(exc)) from exc
    outdir = Path(args.output)
    _write_csv(outdir / "predictions.csv",
               {"mode": names, "stretch": stretch, "stress_model": values,
                "extrapolated": flags.astype(int)})
    print(f"wrote {outdir}/predictions.csv ({len(lines)} rows)")
    return 0


def _cmd_lcurve(args) -> int:
    cfg = load_config(args.config)
    samples = ingest(cfg.data, cfg.stress_scale)
    lc = run_calibration(replace(cfg, lambda_pen=AUTO), samples).lcurve_result
    outdir = Path(args.output or cfg.output)
    _write_csv(outdir / "lcurve.csv", _lcurve_columns(lc))
    print(f"corner lambda={lc.lambda_corner} chosen={lc.lambda_chosen}")
    print(f"wrote {outdir}/lcurve.csv")
    return 0


def _cmd_compare(args) -> int:
    cfg = load_config(args.config)
    kind_names = [k.strip() for k in args.kinds.split(",") if k.strip()]
    if len(kind_names) < 2:
        raise InputError("compare needs at least two kinds")
    configs = {name: replace(cfg, kind=name) for name in kind_names}
    for kind_cfg in configs.values():
        kind_cfg.model_kind()
    # Read the data once and fit each distinct kind once, so repeated kinds
    # produce identical rows.
    samples = ingest(cfg.data, cfg.stress_scale)
    results = {name: run_calibration(kind_cfg, samples) for name, kind_cfg in configs.items()}
    fits = [results[name] for name in kind_names]
    columns = {"kind": kind_names, "n_params": [r.state.spec.n_params for r in fits],
               **{f"{metric}_{mode.value}": [getattr(r.fit, metric).get(mode, "") for r in fits]
                  for metric in ("mse", "r2") for mode in DeformationMode},
               "mse_combined": [r.fit.mse_combined for r in fits],
               "iterations": [r.iterations for r in fits]}
    outdir = Path(args.output or cfg.output)
    _write_csv(outdir / "compare.csv", columns)
    print(f"wrote {outdir}/compare.csv ({len(fits)} kinds)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspline",
        description="Calibrate spline strain-energy models from stress data")
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="fit one model kind from a config")
    cal.add_argument("--config", required=True)
    cal.add_argument("--output", default=None, help="output directory")
    cal.set_defaults(func=_cmd_calibrate)

    pre = sub.add_parser("predict", help="evaluate a saved model at stretches")
    pre.add_argument("--model", required=True)
    pre.add_argument("--at", required=True, help="CSV of mode,stretch rows")
    pre.add_argument("--output", default="out")
    pre.set_defaults(func=_cmd_predict)

    lcv = sub.add_parser("lcurve", help="penalty-weight sweep and corner pick")
    lcv.add_argument("--config", required=True)
    lcv.add_argument("--output", default=None)
    lcv.set_defaults(func=_cmd_lcurve)

    cmp_ = sub.add_parser("compare", help="calibrate several kinds side by side")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--kinds", required=True,
                      help="comma-separated subset of separable,surface,mapped")
    cmp_.add_argument("--output", default=None)
    cmp_.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RuntimeError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
