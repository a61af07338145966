"""Command-line workflows: calibrate, predict, lcurve and compare.

All outputs are plain JSON/CSV written atomically (temp file plus rename)
and byte-deterministic for identical inputs, except the measured
``wall_time_s`` column of ``compare.csv``: floats are serialised with
``repr``, which emits the shortest digit string that round-trips.  Exit
codes: 0 success, 2 input/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .domain import DomainMapConfig
from .kinematics import DeformationMode, Sample, mode_groups
from .model import (ModelKind, ModelSpec, ModelState, activation,
                    assemble_design, fixed_zero_indices, default_spec,
                    metrics, predict_stress, predict_stress_clamped)
from .operators import curvature_operator, inequality_operator
from .solver import (AUTO, CalibrationProblem, lcurve, solve)

SCHEMA_VERSION = 1
STRETCH_MIN = 0.05
STRETCH_MAX = 20.0

_KIND_NAMES = {
    "separable": ModelKind.SEPARABLE,
    "surface": ModelKind.SURFACE,
    "mapped": ModelKind.MAPPED_SURFACE,
}


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
    lambda_pen: object = None  # None -> kind default, "auto" or a number
    lcurve_min: float = 1e-10
    lcurve_max: float = 1e2
    lcurve_count: int = 25
    stress_scale: float = 1.0
    unit: str = "kPa"
    monotone_1: bool = True
    monotone_2: bool = True
    convex_1: bool = True
    convex_2: bool = True
    output: str = "out"

    def model_kind(self) -> ModelKind:
        try:
            return _KIND_NAMES[self.kind]
        except KeyError:
            raise InputError(f"unknown model kind {self.kind!r}; "
                             f"expected one of {sorted(_KIND_NAMES)}") from None


def load_config(path) -> RunConfig:
    """Parse a flat JSON config; unknown keys are rejected."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("config must be a JSON object")
    allowed = set(RunConfig.__dataclass_fields__)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in ("kind", "data") if k not in data]
    if missing:
        raise InputError(f"config is missing required keys: {', '.join(missing)}")
    cfg = RunConfig(**data)
    cfg.model_kind()
    if cfg.n1 < 4 or cfg.n2 < 4:
        raise InputError("n1 and n2 must be at least 4")
    if cfg.delta < 0:
        raise InputError("delta must be nonnegative")
    if cfg.lambda_pen is not None and not isinstance(cfg.lambda_pen, (int, float)):
        if cfg.lambda_pen != AUTO:
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


def ingest(path, stress_scale: float = 1.0):
    """Read a ``mode,stretch,stress`` CSV; '#' lines are comments.

    Duplicates are kept.  Stretches outside [0.05, 20] and unknown modes
    are rejected with the offending line number.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from exc
    samples = []
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not header_seen:
            if [c.strip() for c in stripped.split(",")] != ["mode", "stretch", "stress"]:
                raise InputError(f"{path}:{lineno}: expected header 'mode,stretch,stress'")
            header_seen = True
            continue
        parts = [c.strip() for c in stripped.split(",")]
        if len(parts) != 3:
            raise InputError(f"{path}:{lineno}: expected 3 columns, got {len(parts)}")
        try:
            mode = DeformationMode(parts[0])
        except ValueError:
            raise InputError(f"{path}:{lineno}: unknown mode {parts[0]!r}") from None
        try:
            stretch = float(parts[1])
            stress = float(parts[2])
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-numeric stretch or stress") from None
        if not (STRETCH_MIN <= stretch <= STRETCH_MAX):
            raise InputError(f"{path}:{lineno}: stretch {stretch} outside "
                             f"[{STRETCH_MIN}, {STRETCH_MAX}]")
        if not np.isfinite(stress):
            raise InputError(f"{path}:{lineno}: non-finite stress")
        samples.append(Sample(mode=mode, stretch=stretch, stress=stress * stress_scale))
    if not header_seen:
        raise InputError(f"{path}: missing header 'mode,stretch,stress'")
    if not samples:
        raise InputError(f"{path}: no data rows")
    return samples


def mode_counts(samples) -> dict:
    counts = {}
    for s in samples:
        counts[s.mode.value] = counts.get(s.mode.value, 0) + 1
    return counts


def bundled_treloar_path() -> Path:
    """Path of the packaged rubber reference dataset."""
    return Path(__file__).parent / "data" / "treloar1944.csv"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_atomic(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _provenance(data_path) -> dict:
    p = Path(data_path)
    digest = hashlib.sha256(p.read_bytes()).hexdigest()
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(p.stat().st_mtime))
    return {"data_file": p.name, "data_sha256": digest, "timestamp": stamp}


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


def model_from_dict(data: dict) -> tuple:
    """Rebuild ``(ModelState, lambda_pen)`` from a model-file dictionary."""
    if not isinstance(data, dict) or data.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"unsupported model file (expected schema_version "
                         f"{SCHEMA_VERSION})")
    try:
        kind = _KIND_NAMES[data["kind"]]
        cfg = DomainMapConfig(u_max=float(data["u_max"]), u_min=float(data["u_min"]),
                              delta=float(data["delta"]),
                              use_polyconvex=bool(data["use_polyconvex"]))
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
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read model file {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"model file {path} is not valid JSON: {exc}") from exc
    return model_from_dict(data)


@dataclass
class CalibrationResult:
    state: ModelState
    lambda_pen: float
    fit: object
    act: object
    sol: object
    lcurve_result: object = None
    samples: list = field(default_factory=list)


def _resolve_lambda(cfg: RunConfig, kind: ModelKind):
    if cfg.lambda_pen is None:
        return 0.0 if kind is ModelKind.SEPARABLE else AUTO
    if cfg.lambda_pen == AUTO:
        return AUTO
    return float(cfg.lambda_pen)


@contextlib.contextmanager
def _classified_errors():
    """Map bad input to InputError and solver failures to NumericalError."""
    try:
        yield
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise NumericalError(str(exc)) from exc


def build_problem(cfg: RunConfig, kind: ModelKind, samples, lambda_pen):
    """Spec and calibration problem (design, curvature penalty, shape
    constraints, pinned parameters) of one model kind."""
    spec = default_spec(kind, samples, cfg.n1, cfg.n2, delta=cfg.delta)
    A, y = assemble_design(spec, samples)
    ineq = inequality_operator(spec, monotone_1=cfg.monotone_1,
                               monotone_2=cfg.monotone_2,
                               convex_1=cfg.convex_1, convex_2=cfg.convex_2)
    problem = CalibrationProblem(A=A, y=y, A_pen=curvature_operator(spec).rows,
                                 lambda_pen=lambda_pen, A_ineq=ineq.rows,
                                 fixed_zero=fixed_zero_indices(spec))
    return spec, problem


def _sweep(cfg: RunConfig, problem: CalibrationProblem):
    grid = np.logspace(np.log10(cfg.lcurve_min), np.log10(cfg.lcurve_max),
                       cfg.lcurve_count)
    return lcurve(problem, grid)


def run_calibration(cfg: RunConfig, kind: ModelKind | None = None) -> CalibrationResult:
    """Full calibration workflow for one model kind."""
    kind = kind if kind is not None else cfg.model_kind()
    samples = ingest(cfg.data, cfg.stress_scale)
    with _classified_errors():
        spec, problem = build_problem(cfg, kind, samples, _resolve_lambda(cfg, kind))
        lc = theta0 = None
        if problem.lambda_pen == AUTO:
            lc = _sweep(cfg, problem)
            problem.lambda_pen = lc.lambda_chosen
            theta0 = lc.theta_near(lc.lambda_chosen)  # the sweep already solved it
        sol = solve(problem, theta0=theta0)
    state = ModelState(spec=spec, theta=sol.theta)
    fit = metrics(state, samples)
    return CalibrationResult(state=state, lambda_pen=float(problem.lambda_pen),
                             fit=fit, act=activation(problem.A), sol=sol,
                             lcurve_result=lc, samples=samples)


def _prediction_rows(result: CalibrationResult):
    samples = result.samples
    pred = np.zeros(len(samples))
    for mode, idx in mode_groups([s.mode for s in samples]).items():
        pred[idx] = predict_stress(result.state, mode, [samples[k].stretch for k in idx])
    return [[s.mode.value, s.stretch, s.stress, p] for s, p in zip(samples, pred.tolist())]


def _activation_rows(result: CalibrationResult):
    spec = result.state.spec
    act = result.act
    rows = []
    if spec.kind is ModelKind.SEPARABLE:
        L1 = spec.domain.u_max - spec.domain.u_min
        for i, s in enumerate(spec.sites1):
            rows.append([i, "", spec.domain.u_min + s * L1, "",
                         float(act.norms[i]), float(act.log10_relative[i])])
        for j, s in enumerate(spec.sites2):
            p = spec.n1 + j
            rows.append(["", j, "", s * spec.i2_axis_max,
                         float(act.norms[p]), float(act.log10_relative[p])])
        return rows
    for i, s1 in enumerate(spec.sites1):
        for j, s2 in enumerate(spec.sites2):
            p = i * spec.n2 + j
            if spec.kind is ModelKind.MAPPED_SURFACE:
                c1, c2 = s1, s2
            else:
                L1 = spec.domain.u_max - spec.domain.u_min
                c1 = spec.domain.u_min + s1 * L1
                c2 = s2 * spec.i2_axis_max
            rows.append([i, j, c1, c2, float(act.norms[p]),
                         float(act.log10_relative[p])])
    return rows


def _lcurve_rows(lc):
    rows = []
    for i in range(lc.lambdas.size):
        rows.append([float(lc.lambdas[i]), float(lc.misfits[i]),
                     float(lc.seminorms[i]), float(lc.kappas[i]),
                     1 if i == lc.corner_index else 0])
    return rows


def _write_calibration(result: CalibrationResult, outdir: Path, data_path):
    outdir = Path(outdir)
    prov = _provenance(data_path)
    model = model_to_dict(result.state, result.lambda_pen, result.fit, prov)
    _write_atomic(outdir / "model.json", json.dumps(model, indent=2) + "\n")
    _write_atomic(outdir / "predictions.csv",
                  _csv_text(["mode", "stretch", "stress_exp", "stress_model"],
                            _prediction_rows(result)))
    _write_atomic(outdir / "activation.csv",
                  _csv_text(["i", "j", "site1", "site2", "a", "log10_rel"],
                            _activation_rows(result)))
    if result.lcurve_result is not None:
        _write_atomic(outdir / "lcurve.csv",
                      _csv_text(["lambda", "misfit", "seminorm", "kappa", "chosen"],
                                _lcurve_rows(result.lcurve_result)))


def _cmd_calibrate(args) -> int:
    cfg = load_config(args.config)
    outdir = Path(args.output or cfg.output)
    result = run_calibration(cfg)
    _write_calibration(result, outdir, cfg.data)
    counts = mode_counts(result.samples)
    print(f"ingested {len(result.samples)} samples: "
          + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    print(f"kind={cfg.kind} params={result.state.spec.n_params} "
          f"lambda_pen={_fmt(result.lambda_pen)} "
          f"iterations={result.sol.iterations}")
    for mode in sorted(result.fit.mse, key=lambda m: m.value):
        r2 = result.fit.r2.get(mode)
        r2_text = _fmt(r2) if r2 is not None else "n/a"
        print(f"  {mode.value}: mse={_fmt(result.fit.mse[mode])} r2={r2_text}")
    print(f"combined mse={_fmt(result.fit.mse_combined)}")
    print(f"wrote {outdir}/model.json")
    return 0


def _cmd_predict(args) -> int:
    state, _ = load_model(args.model)
    try:
        text = Path(args.at).read_text()
    except OSError as exc:
        raise InputError(f"cannot read stretches file {args.at}: {exc}") from exc
    requests = []  # (line number, mode, stretch)
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = [c.strip() for c in stripped.split(",")]
        if not header_seen:
            if parts[:2] != ["mode", "stretch"]:
                raise InputError(f"{args.at}:{lineno}: expected header 'mode,stretch'")
            header_seen = True
            continue
        if len(parts) < 2:
            raise InputError(f"{args.at}:{lineno}: expected 2 columns")
        try:
            mode = DeformationMode(parts[0])
            stretch = float(parts[1])
        except ValueError:
            raise InputError(f"{args.at}:{lineno}: bad mode or stretch") from None
        if not (STRETCH_MIN <= stretch <= STRETCH_MAX):
            raise InputError(f"{args.at}:{lineno}: stretch {stretch} outside "
                             f"[{STRETCH_MIN}, {STRETCH_MAX}]")
        requests.append((lineno, mode, stretch))
    if not header_seen:
        raise InputError(f"{args.at}: missing header 'mode,stretch'")

    values = np.zeros(len(requests))
    flags = np.zeros(len(requests), dtype=bool)
    try:
        for mode, idx in mode_groups([r[1] for r in requests]).items():
            values[idx], flags[idx] = predict_stress_clamped(
                state, mode, [requests[k][2] for k in idx])
    except (ValueError, np.linalg.LinAlgError) as exc:
        for lineno, mode, stretch in requests:  # report the first row that fails alone
            try:
                predict_stress_clamped(state, mode, stretch)
            except (ValueError, np.linalg.LinAlgError) as row_exc:
                raise NumericalError(f"{args.at}:{lineno}: {row_exc}") from row_exc
        raise NumericalError(str(exc)) from exc
    rows = [[mode.value, stretch, value, int(flag)]
            for (_, mode, stretch), value, flag in zip(requests, values.tolist(), flags.tolist())]
    outdir = Path(args.output)
    _write_atomic(outdir / "predictions.csv",
                  _csv_text(["mode", "stretch", "stress_model", "extrapolated"], rows))
    print(f"wrote {outdir}/predictions.csv ({len(rows)} rows)")
    return 0


def _cmd_lcurve(args) -> int:
    cfg = load_config(args.config)
    samples = ingest(cfg.data, cfg.stress_scale)
    with _classified_errors():
        _, problem = build_problem(cfg, cfg.model_kind(), samples, AUTO)
        lc = _sweep(cfg, problem)
    outdir = Path(args.output or cfg.output)
    _write_atomic(outdir / "lcurve.csv",
                  _csv_text(["lambda", "misfit", "seminorm", "kappa", "chosen"],
                            _lcurve_rows(lc)))
    print(f"corner lambda={_fmt(lc.lambda_corner)} chosen={_fmt(lc.lambda_chosen)}")
    print(f"wrote {outdir}/lcurve.csv")
    return 0


def _cmd_compare(args) -> int:
    cfg = load_config(args.config)
    kind_names = [k.strip() for k in args.kinds.split(",") if k.strip()]
    if len(kind_names) < 2:
        raise InputError("compare needs at least two kinds")
    kinds = []
    for name in kind_names:
        if name not in _KIND_NAMES:
            raise InputError(f"unknown model kind {name!r}")
        kinds.append(_KIND_NAMES[name])
    # Fit each distinct kind once so repeated kinds produce identical rows.
    results = {}
    for kind in kinds:
        if kind not in results:
            results[kind] = run_calibration(cfg, kind=kind)
    rows = []
    for name, kind in zip(kind_names, kinds):
        result = results[kind]
        fit = result.fit
        def met(table, mode):
            value = table.get(DeformationMode(mode))
            return value if value is not None else ""
        rows.append([name, result.state.spec.n_params,
                     met(fit.mse, "UT"), met(fit.mse, "BT"), met(fit.mse, "PS"),
                     met(fit.r2, "UT"), met(fit.r2, "BT"), met(fit.r2, "PS"),
                     fit.mse_combined, result.sol.iterations,
                     round(result.sol.wall_time, 6)])
    outdir = Path(args.output or cfg.output)
    _write_atomic(outdir / "compare.csv",
                  _csv_text(["kind", "n_params", "mse_UT", "mse_BT", "mse_PS",
                             "r2_UT", "r2_BT", "r2_PS", "mse_combined",
                             "iterations", "wall_time_s"], rows))
    print(f"wrote {outdir}/compare.csv ({len(rows)} kinds)")
    return 0


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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
