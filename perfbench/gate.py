"""Correctness gate: every operation's output is checked, none is skipped.

A fit passes when ``solver.kkt_check`` on the rebuilt problem stays within
fixed stationarity and feasibility tolerances and its combined MSE is no
worse than the recorded reference.  A predict row passes when its stress is
finite, exactly 0 at stretch 1, matches the recorded reference at the check
stretches, and its ``extrapolated`` flag is 1 exactly when the stretch lies
outside its mode's calibrated stretch range: the stretches of that mode
whose invariants fall in the (I1, I2) domain recorded in the model file.

Failures that match a recorded known defect (``predict_flag_windows`` in
``fixtures/reference.json`` here, a fit's exit status in ``run.py``) still
count as failed operations; they are only marked as known.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hyperspline import (CalibrationProblem, assemble_design, curvature_operator,
                         fixed_zero_indices, inequality_operator, kkt_check)
from hyperspline.cli import ingest, model_from_dict

import inputs

# Stationarity is measured against the gradient norm at theta = 0, which
# sets the problem's scale; feasibility against 1 + ||theta||.  kkt_check
# estimates multipliers by least squares over every row within 1e-8 (1 +
# ||theta||) of active and then clips them at 0; on the degenerate active
# sets of the penalised surface fits that overstates stationarity (relative
# 3e-3 on dense-fit surface fits whose nonnegative-multiplier residual is
# 1e-10), hence the loose stationarity bound.
STAT_RTOL = 1e-2
FEAS_RTOL = 1e-8
MSE_RTOL = 1e-6          # "no worse than the reference", up to round-off
REPORTED_MSE_RTOL = 1e-8  # the model file's figure must match the recomputed one
PREDICT_ATOL = 1e-9      # times the largest reference stress of the model


@dataclass
class Verdict:
    ok: bool
    known: bool = False
    reason: str = ""


class FitGate:
    """Checks fits; rebuilt problems are cached per dataset and spec."""

    def __init__(self):
        self._samples = {}
        self._problems = {}

    def _problem(self, data_path: str, state, lambda_pen: float):
        data = Path(data_path).read_bytes()
        samples = self._samples.get(data)
        if samples is None:
            samples = self._samples[data] = ingest(data_path)
        key = (data, state.spec, lambda_pen)
        if key not in self._problems:
            spec = state.spec
            A, y = assemble_design(spec, samples)
            problem = CalibrationProblem(
                A=A, y=y, A_pen=curvature_operator(spec).rows, lambda_pen=lambda_pen,
                A_ineq=inequality_operator(spec).rows,
                fixed_zero=fixed_zero_indices(spec))
            modes = np.array([s.mode.value for s in samples])
            self._problems[key] = (problem, modes, float(np.linalg.norm(2.0 * A.T @ y)))
        return self._problems[key]

    def check(self, model_text: str, data_path: str, reference_mse) -> tuple:
        """Return ``(Verdict, details)`` for one fit's ``model.json`` text."""
        raw = json.loads(model_text)
        state, lam = model_from_dict(raw)
        problem, modes, g0 = self._problem(data_path, state, float(lam))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the micro-ridge warning is counted by the tracer
            stat, feas, _ = kkt_check(problem, state.theta)
        resid = problem.A @ state.theta - problem.y
        mse = math.sqrt(sum(float(np.sum(resid[modes == m] ** 2)) ** 2
                            for m in np.unique(modes)))
        details = {"kkt_stat": stat, "kkt_stat_rel": stat / max(1.0, g0),
                   "kkt_feas": feas, "mse_combined": mse,
                   "lambda_pen": float(lam)}
        if not stat <= STAT_RTOL * max(1.0, g0):
            return Verdict(False, reason=f"KKT stationarity {stat:.3e}"), details
        if not feas <= FEAS_RTOL * (1.0 + float(np.linalg.norm(state.theta))):
            return Verdict(False, reason=f"KKT feasibility {feas:.3e}"), details
        reported = float(raw["metrics"]["mse_combined"])
        if not abs(reported - mse) <= REPORTED_MSE_RTOL * max(1.0, mse):
            return Verdict(False, reason=f"reported MSE {reported!r} != {mse!r}"), details
        if reference_mse is not None and not mse <= reference_mse * (1.0 + MSE_RTOL):
            return Verdict(False, reason=f"MSE {mse!r} worse than {reference_mse!r}"), details
        return Verdict(True), details


def expected_extrapolated(state, mode: str, lam: np.ndarray) -> np.ndarray:
    """True where the stretch lies outside the model's calibrated domain."""
    spec = state.spec
    cfg = spec.domain
    i1, i2, _, _ = inputs.kinematics(mode, lam)
    outside = i1 > cfg.u_max
    if spec.kind.value != "mapped":
        if cfg.use_polyconvex:
            t = i2 ** 1.5 - 3.0 ** 1.5
        else:
            t = i2 - 3.0
        outside |= t > spec.i2_axis_max
    return outside


def read_predictions(text: str):
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["mode", "stretch", "stress_model", "extrapolated"]:
        raise ValueError(f"unexpected predictions header {header}")
    return list(reader)


def check_predictions(state, kind: str, request_rows, out_text: str,
                      reference: dict, known_windows: dict) -> list:
    """One Verdict per request row of a predict run."""
    rows = read_predictions(out_text)
    if len(rows) != len(request_rows):
        return [Verdict(False, reason="row count mismatch")] * len(request_rows)
    by_mode = {}
    for idx, (mode, lam) in enumerate(request_rows):
        by_mode.setdefault(mode, []).append(idx)
    expected = np.zeros(len(request_rows), dtype=bool)
    for mode, idx in by_mode.items():
        lam = np.array([request_rows[i][1] for i in idx])
        expected[idx] = expected_extrapolated(state, mode, lam)
    scale = max((abs(v) for v in reference.values()), default=1.0)
    verdicts = []
    for (mode, lam), row, exp_flag in zip(request_rows, rows, expected):
        try:
            if row[0] != mode or float(row[1]) != lam:
                verdicts.append(Verdict(False, reason="row does not echo the request"))
                continue
            stress = float(row[2])
            flag = int(row[3])
        except (ValueError, IndexError):
            verdicts.append(Verdict(False, reason="malformed row"))
            continue
        ref = reference.get((mode, lam))
        if not math.isfinite(stress):
            verdicts.append(Verdict(False, reason="non-finite stress"))
        elif lam == 1.0 and stress != 0.0:
            verdicts.append(Verdict(False, reason="nonzero stress at stretch 1"))
        elif ref is not None and not abs(stress - ref) <= PREDICT_ATOL * scale:
            verdicts.append(Verdict(False, reason=f"stress {stress!r} != reference {ref!r}"))
        elif flag != int(exp_flag):
            known = (flag == 1 and not exp_flag and kind in known_windows
                     and 1.0 < lam <= known_windows[kind].get(mode, 1.0))
            verdicts.append(Verdict(False, known=known,
                                    reason=f"extrapolated={flag}, expected {int(exp_flag)}"))
        else:
            verdicts.append(Verdict(True))
    return verdicts
