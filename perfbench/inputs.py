"""Seeded inputs of the benchmark workloads.

Everything the program reads during a run is produced here from the
workload seed: configs, the dense-fit dataset and the predict-bulk request
file.  The same seed gives byte-identical files.  The stress law and the
kinematics are written out in closed form so the inputs do not depend on
the code under test.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MODES = ("UT", "BT", "PS")
FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Dense-fit: rows per mode on a uniform stretch grid, and the closed-form
# law the stresses come from (a Yeoh polynomial in I1 plus C01 * (I2 - 3),
# in kPa).  At 400 rows per mode the first non-unit stretches are about
# 1.017 (UT), 1.009 (BT) and 1.010 (PS).
DENSE_ROWS_PER_MODE = 400
DENSE_NOISE = 0.01
C10, C20, C30, C01 = 150.0, 0.5, 0.005, 20.0

# Predict-bulk request size and composition.
REQUEST_ROWS = 6000
UNIT_ROWS_PER_MODE = 10          # stretch exactly 1, where stress must be 0
SMALL_ROWS_PER_MODE = 200        # a fixed uniform grid over (1, 1 + SMALL_SPAN]
SMALL_SPAN = 0.01
EXTRAPOLATION_FACTOR = 1.25      # bulk rows reach this multiple of the data maximum

# Fit weights; "auto" runs the default 25-weight L-curve sweep.
TRELOAR_WEIGHTS = {"separable": 0.0, "surface": "auto", "mapped": "auto"}
DENSE_WEIGHTS = {"separable": 0.0, "surface": 1e-4, "mapped": 1e-4}


def mode_maxima(samples) -> dict:
    """Largest stretch of each mode in a list of samples."""
    out = {}
    for s in samples:
        out[s.mode.value] = max(out.get(s.mode.value, 1.0), s.stretch)
    return out


def kinematics(mode: str, lam: np.ndarray):
    """Closed-form (I1, I2, alpha, beta) with P = alpha W_I1 + beta W_I2."""
    lam = np.asarray(lam, dtype=float)
    if mode == "UT":
        i1 = lam ** 2 + 2.0 / lam
        i2 = lam ** -2 + 2.0 * lam
        alpha = 2.0 * (lam - lam ** -2)
        beta = 2.0 * (1.0 - lam ** -3)
    elif mode == "BT":
        i1 = 2.0 * lam ** 2 + lam ** -4
        i2 = 2.0 * lam ** -2 + lam ** 4
        alpha = 2.0 * (lam - lam ** -5)
        beta = 2.0 * (lam ** 3 - lam ** -3)
    elif mode == "PS":
        i1 = lam ** 2 + 1.0 + lam ** -2
        i2 = i1
        alpha = 2.0 * (lam - lam ** -3)
        beta = alpha
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return i1, i2, alpha, beta


def law_stress(mode: str, lam: np.ndarray) -> np.ndarray:
    i1, _, alpha, beta = kinematics(mode, lam)
    x = i1 - 3.0
    w1 = C10 + 2.0 * C20 * x + 3.0 * C30 * x * x
    return alpha * w1 + beta * C01


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _csv(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(r) + "\n" for r in rows)


def dense_csv(seed: int, maxima: dict) -> str:
    """Dense-fit dataset: uniform grid per mode, 1 % seeded multiplicative noise."""
    rng = _rng(seed, 1)
    rows = []
    for mode in MODES:
        lam = np.linspace(1.0, maxima[mode], DENSE_ROWS_PER_MODE)
        stress = law_stress(mode, lam)
        stress = stress * (1.0 + DENSE_NOISE * rng.standard_normal(lam.size))
        rows.extend((mode, repr(float(l)), repr(float(p))) for l, p in zip(lam, stress))
    return _csv("mode,stretch,stress", rows)


def request_csv(seed: int, maxima: dict, check_rows) -> str:
    """Predict-bulk request: mixed modes from stretch 1 to 1.25x each maximum.

    Holds rows at stretch exactly 1, a small-strain band just above 1, the
    reference check rows and uniform bulk rows, shuffled.  The band is the
    same grid for every seed and the seeded bulk rows lie above it, so the
    rows near 1, where the mapped kind's known defect lives, and hence the
    number of failed rows, do not change with the seed.
    """
    rng = _rng(seed, 2)
    rows = []
    band = 1.0 + SMALL_SPAN * np.arange(1, SMALL_ROWS_PER_MODE + 1) / SMALL_ROWS_PER_MODE
    for mode in MODES:
        rows.extend((mode, 1.0) for _ in range(UNIT_ROWS_PER_MODE))
        rows.extend((mode, float(lam)) for lam in band)
    rows.extend((mode, float(lam)) for mode, lam in check_rows)
    n_bulk = REQUEST_ROWS - len(rows)
    modes = rng.integers(0, len(MODES), n_bulk)
    u = 1.0 - rng.random(n_bulk)  # in (0, 1]
    bottom = band[-1]
    for m, v in zip(modes, u):
        mode = MODES[m]
        top = EXTRAPOLATION_FACTOR * maxima[mode]
        rows.append((mode, float(bottom + v * (top - bottom))))
    order = rng.permutation(len(rows))
    return _csv("mode,stretch", ((rows[i][0], repr(rows[i][1])) for i in order))


def config_json(kind: str, data: Path, lambda_pen, output: Path) -> str:
    return json.dumps({"kind": kind, "data": str(data), "lambda_pen": lambda_pen,
                       "output": str(output)}, indent=2) + "\n"


def load_reference() -> dict:
    return json.loads((FIXTURES / "reference.json").read_text())

