"""Deformation modes: invariants, stress coefficients, dataset extents."""

import math

import numpy as np
import pytest

from hyperspline import (
    DeformationMode,
    Sample,
    invariants,
    max_invariants,
    stress_coefficients,
)
from oracles import cubic_residual

UT, BT, PS = DeformationMode.UT, DeformationMode.BT, DeformationMode.PS


def test_undeformed_state_is_exact():
    for mode in DeformationMode:
        i1, i2 = invariants(mode, 1.0)
        assert (i1, i2) == (3.0, 3.0)
        sc = stress_coefficients(mode, 1.0)
        assert sc.alpha == 0.0 and sc.beta == 0.0


def test_uniaxial_at_stretch_two():
    i1, i2 = invariants(UT, 2.0)
    assert i1 == pytest.approx(5.0, abs=1e-15)
    assert i2 == pytest.approx(4.25, abs=1e-15)
    sc = stress_coefficients(UT, 2.0)
    assert sc.alpha == pytest.approx(3.5, abs=1e-15)
    assert sc.beta == pytest.approx(1.75, abs=1e-15)


def test_equibiaxial_at_stretch_two():
    i1, i2 = invariants(BT, 2.0)
    assert i1 == pytest.approx(8.0625, abs=1e-15)
    assert i2 == pytest.approx(16.5, abs=1e-15)
    sc = stress_coefficients(BT, 2.0)
    assert sc.alpha == pytest.approx(2.0 * (2.0 - 2.0 ** -5), abs=1e-15)
    assert sc.beta == pytest.approx(2.0 * (8.0 - 0.125), abs=1e-15)


def test_pure_shear_invariants_coincide():
    for lam in (0.7, 1.3, 2.9, 5.0):
        i1, i2 = invariants(PS, lam)
        assert i1 == i2
        sc = stress_coefficients(PS, lam)
        assert sc.alpha == sc.beta


def test_pure_shear_stretch_inversion_symmetry():
    # swapping the in-plane axes maps lambda to 1/lambda
    for lam in (1.4, 2.2, 3.7):
        a = invariants(PS, lam)
        b = invariants(PS, 1.0 / lam)
        assert a[0] == pytest.approx(b[0], rel=1e-14)


def test_invariants_never_below_three():
    """AM-GM: unimodular principal stretches force I1, I2 >= 3."""
    rng = np.random.default_rng(41)
    for mode in DeformationMode:
        for lam in rng.uniform(0.3, 6.0, 200):
            i1, i2 = invariants(mode, lam)
            assert i1 >= 3.0 - 1e-12
            assert i2 >= 3.0 - 1e-12


def test_modes_trace_the_admissibility_boundary():
    """UT and BT lie on the boundary cubic; PS sits strictly inside."""
    rng = np.random.default_rng(6)
    for lam in rng.uniform(1.05, 5.0, 100):
        for mode in (UT, BT):
            i1, i2 = invariants(mode, lam)
            scale = 1.0 + abs(i2) ** 3
            assert abs(cubic_residual(i1, i2)) <= 1e-9 * scale
        i1, i2 = invariants(PS, lam)
        assert cubic_residual(i1, i2) < 0.0


def test_neo_hookean_uniaxial_stress():
    """For W = (mu/2)(I1 - 3): P_UT = mu (lambda - lambda^-2)."""
    mu = 400.0
    for lam in (1.1, 1.5, 2.0, 3.0):
        sc = stress_coefficients(UT, lam)
        assert sc.alpha * (mu / 2.0) == pytest.approx(mu * (lam - lam ** -2), rel=1e-14)
    # and the classic number: P(2) = 400 * (2 - 1/4) = 700
    assert stress_coefficients(UT, 2.0).alpha * 200.0 == pytest.approx(700.0)


def test_mooney_rivlin_equibiaxial_stress():
    # W = c1 (I1 - 3) + c2 (I2 - 3)  ->  P = c1 alpha + c2 beta
    c1, c2 = 300.0, 30.0
    lam = 1.8
    sc = stress_coefficients(BT, lam)
    expected = (2.0 * c1 * (lam - lam ** -5)
                + 2.0 * c2 * (lam ** 3 - lam ** -3))
    assert c1 * sc.alpha + c2 * sc.beta == pytest.approx(expected, rel=1e-14)


def test_nonpositive_stretch_rejected():
    for mode in DeformationMode:
        with pytest.raises(ValueError):
            invariants(mode, 0.0)
        with pytest.raises(ValueError):
            stress_coefficients(mode, -1.2)


def test_max_invariants_single_undeformed_sample():
    i1, i2t = max_invariants([Sample(UT, 1.0, 0.0)])
    assert i1 == 3.0
    assert i2t == pytest.approx(0.0, abs=1e-12)


def test_max_invariants_takes_componentwise_maxima():
    samples = [Sample(UT, 3.0, 0.0), Sample(BT, 1.5, 0.0)]
    i1_ut, i2_ut = invariants(UT, 3.0)
    i1_bt, i2_bt = invariants(BT, 1.5)
    i1, i2t = max_invariants(samples)
    assert i1 == max(i1_ut, i1_bt)
    i2 = max(i2_ut, i2_bt)
    assert i2t == pytest.approx(i2 ** 1.5 - 3.0 * math.sqrt(3.0), rel=1e-14)


def test_max_invariants_empty_rejected():
    with pytest.raises(ValueError):
        max_invariants([])


def test_treloar_dataset_extents(treloar):
    """The bundled rubber data reaches I1 near 60 and I2 near 8000."""
    i1, i2t = max_invariants(treloar)
    i2 = float(invariants([s.mode for s in treloar], [s.stretch for s in treloar])[1].max())
    assert 55.0 < i1 < 62.0
    assert 300.0 < i2 < 400.0  # largest I2 comes from equibiaxial stretching
    assert i2t == pytest.approx(i2 ** 1.5 - 3.0 * math.sqrt(3.0), rel=1e-14)
    assert 5000.0 < i2t < 8600.0
