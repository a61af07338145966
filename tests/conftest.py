"""Shared fixtures: the bundled rubber dataset and calibrated fits.

Calibrations are expensive enough (the surface kinds run a full penalty
sweep) that they are built once per session and shared between the unit
tests and the acceptance suite.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from hyperspline import ModelKind
from hyperspline.cli import RunConfig, bundled_treloar_path, ingest, run_calibration


@pytest.fixture(scope="session")
def treloar():
    return ingest(bundled_treloar_path())


@pytest.fixture(scope="session")
def treloar_fit(treloar):
    """Factory returning cached calibration products for one model kind.

    Each is the command-line fit of the kind at the default config, built
    by ``run_calibration``: the separable split is solved without a
    penalty, and the surface kinds take their weight and fit from the
    default L-curve sweep.
    """
    cache = {}

    def build(kind: ModelKind) -> SimpleNamespace:
        if kind not in cache:
            cfg = RunConfig(kind=kind.value, data=str(bundled_treloar_path()))
            result = run_calibration(cfg, treloar)
            problem = result.problem
            cache[kind] = SimpleNamespace(
                A=problem.A, y=problem.y, problem=problem, lcurve=result.lcurve_result,
                sol=result.sol, state=result.state, fit=result.fit)
        return cache[kind]

    return build


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)
