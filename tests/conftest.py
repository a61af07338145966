"""Shared fixtures: the bundled rubber dataset and calibrated fits.

Calibrations are expensive enough (the surface kinds run a full penalty
sweep) that they are built once per session and shared between the unit
tests and the acceptance suite.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from hyperspline import (
    CalibrationProblem,
    ModelKind,
    ModelState,
    assemble_design,
    curvature_operator,
    default_spec,
    fixed_zero_indices,
    inequality_operator,
    lcurve,
    metrics,
    solve,
)
from hyperspline.cli import bundled_treloar_path, ingest


@pytest.fixture(scope="session")
def treloar():
    return ingest(bundled_treloar_path())


@pytest.fixture(scope="session")
def treloar_fit(treloar):
    """Factory returning cached calibration products for one model kind.

    The separable split is solved without a penalty; the surface kinds
    select their weight from the default L-curve sweep and warm-start the
    final solve from the sweep's solution there, matching the command-line
    defaults.
    """
    cache = {}

    def build(kind: ModelKind) -> SimpleNamespace:
        if kind not in cache:
            spec = default_spec(kind, treloar, 20, 5)
            A, y = assemble_design(spec, treloar)
            pen = curvature_operator(spec)
            ineq = inequality_operator(spec)
            problem = CalibrationProblem(
                A=A, y=y, A_pen=pen.rows, lambda_pen=0.0,
                A_ineq=ineq.rows, fixed_zero=fixed_zero_indices(spec))
            lc = theta0 = None
            if kind is not ModelKind.SEPARABLE:
                lc = lcurve(problem)
                problem.lambda_pen = lc.lambda_chosen
                theta0 = lc.theta_near(lc.lambda_chosen)
            sol = solve(problem, theta0=theta0)
            state = ModelState(spec=spec, theta=sol.theta)
            cache[kind] = SimpleNamespace(
                spec=spec, A=A, y=y, pen=pen, ineq=ineq, problem=problem,
                lcurve=lc, sol=sol, state=state, fit=metrics(state, treloar))
        return cache[kind]

    return build


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)
