"""Admissible domain: boundary cubic, polyconvex transform, unit-square map."""

import math

import numpy as np
import pytest

from hyperspline import (
    DeformationMode,
    DomainMapConfig,
    boundary,
    invariants,
    map_forward,
    map_inverse,
    map_jacobian,
    poly_transform,
    poly_transform_inverse,
    width,
)
from oracles import cubic_residual

SQRT3 = math.sqrt(3.0)


def test_cubic_residual_reference_points():
    assert cubic_residual(3.0, 3.0) == 0.0
    assert cubic_residual(5.0, 4.25) == pytest.approx(0.0, abs=1e-12)
    assert cubic_residual(5.0, 5.25) < 0.0  # strictly inside the band


def test_boundary_at_apex():
    be = boundary(3.0)
    assert be.i2_lo == 3.0 and be.i2_hi == 3.0
    assert be.d_lo == 1.0 and be.d_hi == 1.0


def test_boundary_closed_forms_at_five():
    be = boundary(5.0)
    assert be.i2_lo == pytest.approx(4.25, abs=1e-10)
    assert be.i2_hi == pytest.approx(1.0 + 4.0 * math.sqrt(2.0), abs=1e-10)


def test_boundary_matches_parametric_curves():
    """The lower/upper roots are the uniaxial/equibiaxial invariant branches."""
    for lam in np.linspace(1.01, 8.0, 50):
        i1_ut, i2_ut = invariants(DeformationMode.UT, lam)
        be = boundary(i1_ut)
        assert be.i2_lo == pytest.approx(i2_ut, rel=1e-8)
        i1_bt, i2_bt = invariants(DeformationMode.BT, lam)
        be = boundary(i1_bt)
        assert be.i2_hi == pytest.approx(i2_bt, rel=1e-8)


def _exact_bound(i1, lam, mp):
    """The bound through (I1, lam) at 50 digits: Newton on the uniaxial
    curve (lam - 1)^2 (lam + 2) = (I1 - 3) lam from the stretch that
    generated I1, then I2 and dI2/dI1 from the parametric derivatives."""
    e = mp.mpf(i1) - 3
    lam = mp.mpf(lam)
    for _ in range(50):
        step = ((lam - 1) ** 2 * (lam + 2) - e * lam) / (3 * (lam - 1) * (lam + 1) - e)
        lam -= step
        if abs(step) <= mp.mpf(10) ** -45 * abs(lam - 1):
            break
    i2 = 2 * lam + 1 / lam ** 2
    slope = (2 - 2 / lam ** 3) / (2 * lam - 2 / lam ** 2)
    return i2, slope


def test_boundary_matches_the_exact_curves():
    """Both bounds against a 50-digit oracle at the float I1 boundary() is
    given: a 1e-6 stretch grid over (1, 1.01], where the band closes at the
    apex, and the 1.01-8 grid.  The lower bound is the uniaxial branch at
    stretch lam, the upper the equibiaxial one at lam, i.e. the uniaxial
    curve at 1/lam^2."""
    mpmath = pytest.importorskip("mpmath")
    near = 1.0 + 1e-6 * np.arange(1, 10001)
    far = np.linspace(1.01, 8.0, 50)
    with mpmath.workdps(50):
        for grid, tol_i2, relative in ((near, 1e-12, False), (far, 1e-13, True)):
            for mode, side in ((DeformationMode.UT, "lo"), (DeformationMode.BT, "hi")):
                i1, _ = invariants(mode, grid)
                be = boundary(i1)
                i2, slope = getattr(be, f"i2_{side}"), getattr(be, f"d_{side}")
                ut = grid if side == "lo" else grid ** -2.0
                for k in range(grid.size):
                    i2_x, slope_x = _exact_bound(float(i1[k]), float(ut[k]), mpmath)
                    err = abs(mpmath.mpf(float(i2[k])) - i2_x)
                    assert err <= tol_i2 * (i2_x if relative else 1), (mode, grid[k], float(err))
                    assert abs(mpmath.mpf(float(slope[k])) - slope_x) <= 1e-8 * slope_x, \
                        (mode, grid[k])


def test_boundary_roots_annihilate_the_cubic():
    for i1 in np.linspace(3.001, 80.0, 60):
        be = boundary(i1)
        scale = 1.0 + abs(i1) ** 3
        assert abs(cubic_residual(i1, be.i2_lo)) <= 1e-8 * scale
        assert abs(cubic_residual(i1, be.i2_hi)) <= 1e-8 * scale


def test_boundary_filters_the_spurious_root():
    # np.roots as an independent oracle: the cubic has three real roots for
    # I1 > 3, exactly one of them below 3, and we must keep the other two.
    for i1 in (3.5, 5.0, 10.0, 40.0):
        all_roots = np.sort(np.roots([1.0, -0.25 * i1 ** 2, -4.5 * i1,
                                      i1 ** 3 + 6.75]).real)
        assert all_roots[0] < 3.0 < all_roots[1]
        be = boundary(i1)
        assert be.i2_lo == pytest.approx(all_roots[1], rel=1e-9)
        assert be.i2_hi == pytest.approx(all_roots[2], rel=1e-9)


def test_boundary_crude_bounds():
    # sqrt(3 I1) <= I2- and I2+ <= I1^2/3 hold on the admissible band; the
    # extreme I1 must converge too (reaching the Newton cap raises)
    for i1 in [3.0 + 1e-15, *np.linspace(3.0, 100.0, 40), 1e6]:
        be = boundary(i1)
        assert np.isfinite([be.i2_lo, be.i2_hi, be.d_lo, be.d_hi]).all()
        assert 3.0 <= be.i2_lo <= be.i2_hi
        assert be.i2_lo >= math.sqrt(3.0 * i1) - 1e-9
        assert be.i2_hi <= i1 * i1 / 3.0 + 1e-9


def test_boundary_slopes_match_finite_differences():
    h = 1e-6
    for i1 in np.linspace(3.05, 8.0, 25):
        be = boundary(i1)
        lo_fd = (boundary(i1 + h).i2_lo - boundary(i1 - h).i2_lo) / (2 * h)
        hi_fd = (boundary(i1 + h).i2_hi - boundary(i1 - h).i2_hi) / (2 * h)
        assert be.d_lo == pytest.approx(lo_fd, rel=1e-6)
        assert be.d_hi == pytest.approx(hi_fd, rel=1e-6)


def test_boundary_slope_parametric_oracle():
    """dI2/dI1 along uniaxial equals (dI2/dlam)/(dI1/dlam)."""
    for lam in (1.5, 2.5, 4.0):
        i1, _ = invariants(DeformationMode.UT, lam)
        di1 = 2.0 * lam - 2.0 / lam ** 2
        di2 = -2.0 / lam ** 3 + 2.0
        assert boundary(i1).d_lo == pytest.approx(di2 / di1, rel=1e-9)


def test_boundary_rejects_small_i1():
    with pytest.raises(ValueError):
        boundary(2.5)


def test_poly_transform_values():
    t0, d0 = poly_transform(3.0)
    assert t0 == pytest.approx(0.0, abs=1e-15)
    assert d0 == pytest.approx(1.5 * SQRT3, rel=1e-15)
    t4, d4 = poly_transform(4.0)
    assert t4 == pytest.approx(8.0 - 3.0 * SQRT3, rel=1e-14)
    assert d4 == pytest.approx(3.0, rel=1e-15)


def test_poly_transform_round_trip():
    for i2 in (3.0, 3.0001, 4.25, 16.5, 390.0):
        t, _ = poly_transform(i2)
        assert poly_transform_inverse(t) == pytest.approx(i2, rel=1e-12)
    with pytest.raises(ValueError):
        poly_transform(2.9)
    with pytest.raises(ValueError):
        poly_transform_inverse(-3.0 * SQRT3 - 1.0)


def test_width_floor_at_apex():
    cfg = DomainMapConfig(u_max=10.0, delta=1e-6)
    eff, _ = width(3.0, cfg)
    assert eff == pytest.approx(1e-6, rel=1e-12)
    with pytest.raises(ValueError, match=r"^I1 = 2\.0 outside \[3\.0, 10\.0\]$"):
        width(2.0, cfg)  # below the apex, off the axis


def test_width_in_the_transformed_i2():
    # at I1 = 5 the band is I2 in [4.25, 1 + 4 sqrt(2)]; its width in
    # T(I2) = I2^(3/2) - 3 sqrt(3) is the difference of the 3/2 powers
    cfg = DomainMapConfig(u_max=10.0, delta=0.0)
    eff, _ = width(5.0, cfg)
    assert eff == pytest.approx((1.0 + 4.0 * math.sqrt(2.0)) ** 1.5 - 4.25 ** 1.5, rel=1e-12)


def test_map_forward_reference_points():
    cfg = DomainMapConfig(u_max=9.0, delta=0.0)
    xi, eta = map_forward(3.0, 3.0, cfg)
    assert xi == 0.0 and eta == 0.0
    # uniaxial points sit on the lower edge, equibiaxial on the upper
    i1, i2 = invariants(DeformationMode.UT, 2.0)
    assert map_forward(i1, i2, cfg)[1] == pytest.approx(0.0, abs=1e-9)
    i1, i2 = invariants(DeformationMode.BT, 1.6)
    assert map_forward(i1, i2, cfg)[1] == pytest.approx(1.0, abs=1e-9)


def test_map_forward_rejects_inadmissible_points():
    cfg = DomainMapConfig(u_max=9.0)
    with pytest.raises(ValueError):
        map_forward(5.0, 3.5, cfg)  # far below the uniaxial branch
    with pytest.raises(ValueError):
        map_forward(5.0, 8.0, cfg)  # above the equibiaxial branch
    with pytest.raises(ValueError):
        map_forward(12.0, 12.0, cfg)  # I1 beyond the axis


def test_map_forward_clamps_roundoff_only():
    cfg = DomainMapConfig(u_max=9.0, delta=0.0)
    i1, i2 = invariants(DeformationMode.UT, 2.0)
    # a few ulps below the boundary is clamped onto it ...
    xi, eta = map_forward(i1, i2 * (1.0 - 1e-13), cfg)
    assert eta == 0.0
    # ... but a genuine excursion is an error
    with pytest.raises(ValueError):
        map_forward(i1, i2 * (1.0 - 1e-6), cfg)


@pytest.mark.parametrize("lam", [1.001, 1.0001])
def test_map_forward_rejects_half_a_band_off_near_the_apex(lam):
    # near the apex the band is a few 1e-9 (or 1e-12) wide in I2: a point
    # half a band width below its lower bound is outside, the bound is not
    cfg = DomainMapConfig(u_max=9.0)
    i1, _ = invariants(DeformationMode.UT, lam)
    be = boundary(i1)
    gap = be.i2_hi - be.i2_lo
    with pytest.raises(ValueError, match="not admissible"):
        map_forward(i1, be.i2_lo - 0.5 * gap, cfg)
    assert map_forward(i1, be.i2_lo, cfg)[1] == 0.0


def test_map_inverse_reference_points():
    cfg = DomainMapConfig(u_max=8.0625, delta=0.0)
    i1_0, i2_0 = map_inverse(0.0, 0.0, cfg)
    assert i1_0 == 3.0
    assert i2_0 == pytest.approx(3.0, rel=1e-14)
    i1, i2 = map_inverse(1.0, 1.0, cfg)
    assert i1 == pytest.approx(8.0625, rel=1e-14)
    assert i2 == pytest.approx(16.5, rel=1e-10)  # equibiaxial corner at lam = 2


def test_map_round_trip():
    rng = np.random.default_rng(19)
    for delta in (0.0, 1e-6):
        cfg = DomainMapConfig(u_max=60.0, delta=delta)
        pts = rng.uniform(0.0, 1.0, size=(200, 2))
        for xi, eta in pts:
            i1, i2 = map_inverse(xi, eta, cfg)
            xi2, eta2 = map_forward(i1, i2, cfg)
            assert xi2 == pytest.approx(xi, abs=1e-10)
            assert eta2 == pytest.approx(eta, rel=1e-10, abs=1e-10)


def test_map_jacobian_reference_value():
    # delta = 0: d(eta)/d(I2) = T'(I2) / band width, with T' = 1.5 sqrt(I2)
    cfg = DomainMapConfig(u_max=10.0, delta=0.0)
    jac = map_jacobian(5.0, 5.25, cfg)
    band = (1.0 + 4.0 * math.sqrt(2.0)) ** 1.5 - 4.25 ** 1.5
    assert jac.deta_di2 == pytest.approx(1.5 * math.sqrt(5.25) / band, rel=1e-10)
    cfg2 = DomainMapConfig(u_max=60.0)
    assert map_jacobian(30.0, 40.0, cfg2).dxi_di1 == pytest.approx(1.0 / 57.0)


def test_map_jacobian_matches_finite_differences():
    cfg = DomainMapConfig(u_max=60.0, delta=1e-6)
    rng = np.random.default_rng(29)
    h = 1e-6
    for _ in range(60):
        xi, eta = rng.uniform(0.05, 0.95, 2)
        i1, i2 = map_inverse(xi, eta, cfg)
        jac = map_jacobian(i1, i2, cfg)
        d_eta_i2 = (map_forward(i1, i2 + h, cfg)[1] - map_forward(i1, i2 - h, cfg)[1]) / (2 * h)
        assert jac.deta_di2 == pytest.approx(d_eta_i2, rel=1e-6)
        # vary I1 keeping I2 fixed; stay admissible by re-checking first
        try:
            em = map_forward(i1 - h, i2, cfg)[1]
            ep = map_forward(i1 + h, i2, cfg)[1]
        except ValueError:
            continue
        assert jac.deta_di1 == pytest.approx((ep - em) / (2 * h), rel=1e-5, abs=1e-8)


def test_map_jacobian_eta_monotone_in_i2():
    cfg = DomainMapConfig(u_max=60.0)
    rng = np.random.default_rng(31)
    for _ in range(50):
        i1, i2 = map_inverse(*rng.uniform(0.01, 0.99, 2), cfg)
        assert map_jacobian(i1, i2, cfg).deta_di2 > 0.0


def test_domain_config_validation():
    with pytest.raises(ValueError):
        DomainMapConfig(u_max=2.0)  # below the apex
    with pytest.raises(ValueError):
        DomainMapConfig(u_max=10.0, u_min=2.0)
    with pytest.raises(ValueError):
        DomainMapConfig(u_max=10.0, delta=-1e-3)
    with pytest.raises(TypeError):  # I2 always goes through the transform
        DomainMapConfig(u_max=10.0, use_polyconvex=False)
