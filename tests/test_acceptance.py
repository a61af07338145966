"""Acceptance suite: end-to-end checks with pinned tolerances.

Each test prints one `[PASS]`/`[FAIL]` line on the live terminal (bypassing
capture) before asserting, so a full run reads as a checklist.  Tolerances
are fixed constants here, not knobs.
"""

import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hyperspline import (
    CalibrationProblem,
    DeformationMode,
    DomainMapConfig,
    ModelKind,
    ModelSpec,
    ModelState,
    Sample,
    Surface,
    assemble_design,
    boundary,
    curvature_operator,
    default_spec,
    discrete_curvature,
    eval_coeffs,
    fixed_zero_indices,
    inequality_operator,
    interpolate_curve,
    invariants,
    lcurve,
    map_forward,
    map_inverse,
    map_jacobian,
    metrics,
    predict_stress,
    solve,
    stress_coefficients,
)
from oracles import cubic_residual, enumerated_objective, eval_grid, random_qp
from hyperspline.model import spec_ops

UT, BT, PS = DeformationMode.UT, DeformationMode.BT, DeformationMode.PS
KINDS = (ModelKind.SEPARABLE, ModelKind.SURFACE, ModelKind.MAPPED_SURFACE)


def _report(capsys, name: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _synthetic(stress_fn, lam_max=3.0, n=20):
    samples = []
    for mode in (UT, BT, PS):
        for lam in np.linspace(1.0, lam_max, n):
            samples.append(Sample(mode, float(lam), stress_fn(mode, float(lam))))
    return samples


def _calibrate(spec, samples, lam_pen, **ineq_kw):
    A, y = assemble_design(spec, samples)
    pen = curvature_operator(spec)
    ineq = inequality_operator(spec, **ineq_kw)
    problem = CalibrationProblem(A=A, y=y, A_pen=pen.rows, lambda_pen=lam_pen,
                                 A_ineq=ineq.rows,
                                 fixed_zero=fixed_zero_indices(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # unpenalised fits may engage the ridge
        sol = solve(problem)
    state = ModelState(spec=spec, theta=sol.theta)
    return state, metrics(state, samples), sol


# ------------------------------------------------------------ criterion 1


def test_criterion_01_spline_correctness(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_interp = worst_pou = worst_affine = worst_d1 = worst_d2 = 0.0
    for _ in range(12):
        m = int(rng.integers(4, 14))
        sites = np.cumsum(rng.uniform(0.05, 1.0, m))
        values = rng.normal(size=m)
        curve = interpolate_curve(sites, values)
        worst_interp = max(worst_interp,
                           max(abs(curve(x) - v) for x, v in zip(sites, values)))
        xs = rng.uniform(sites[0], sites[-1], 40)
        from hyperspline import basis_row, make_knots
        kv = make_knots(sites)
        worst_pou = max(worst_pou,
                        max(abs(basis_row(kv, x).sum() - 1.0) for x in xs))
        affine = interpolate_curve(sites, 2.0 * sites - 1.0)
        worst_affine = max(worst_affine,
                           max(abs(affine(x) - (2.0 * x - 1.0)) for x in xs))
        h = 1e-6 * (sites[-1] - sites[0])
        for x in rng.uniform(sites[0] + 2 * h, sites[-1] - 2 * h, 15):
            fd1 = (curve(x + h) - curve(x - h)) / (2 * h)
            worst_d1 = max(worst_d1, abs(curve(x, 1) - fd1) / max(1.0, abs(fd1)))
        # second-derivative probes stay inside one span: across a knot the
        # finite difference itself is wrong (the third derivative jumps),
        # while inside a span the centred difference of a cubic is exact
        t = kv.array()
        breaks = np.unique(t[kv.degree : kv.n + 1])
        for a, b in zip(breaks[:-1], breaks[1:]):
            hh = 0.2 * (b - a)
            for frac in rng.uniform(0.3, 0.7, 2):
                x = a + frac * (b - a)
                fd2 = (curve(x + hh) - 2 * curve(x) + curve(x - hh)) / hh ** 2
                worst_d2 = max(worst_d2, abs(curve(x, 2) - fd2) / max(1.0, abs(fd2)))
    elapsed = time.perf_counter() - t0
    ok = (worst_interp <= 1e-10 and worst_pou <= 1e-12 and worst_affine <= 1e-10
          and worst_d1 <= 1e-6 and worst_d2 <= 1e-4 and elapsed < 5.0)
    _report(capsys, "criterion 1 (spline correctness)", ok,
            f"interp {worst_interp:.1e}<=1e-10, unity {worst_pou:.1e}<=1e-12, "
            f"affine {worst_affine:.1e}<=1e-10, d1 {worst_d1:.1e}<=1e-6, "
            f"d2 {worst_d2:.1e}<=1e-4, {elapsed:.2f}s<5s")


# ------------------------------------------------------------ criterion 2


def test_criterion_02_boundary_oracle(capsys):
    worst_param = 0.0
    worst_resid = 0.0
    for lam in np.linspace(1.01, 8.0, 50):
        i1_ut, i2_ut = invariants(UT, lam)
        worst_param = max(worst_param,
                          abs(boundary(i1_ut).i2_lo - i2_ut) / abs(i2_ut))
        i1_bt, i2_bt = invariants(BT, lam)
        worst_param = max(worst_param,
                          abs(boundary(i1_bt).i2_hi - i2_bt) / abs(i2_bt))
        for i1 in (i1_ut, i1_bt):
            be = boundary(i1)
            scale = 1.0 + abs(i1) ** 3
            worst_resid = max(worst_resid,
                              abs(cubic_residual(i1, be.i2_lo)) / scale,
                              abs(cubic_residual(i1, be.i2_hi)) / scale)
    be5 = boundary(5.0)
    closed_lo = abs(be5.i2_lo - 4.25)
    closed_hi = abs(be5.i2_hi - (1.0 + 4.0 * math.sqrt(2.0)))
    worst_slope = 0.0
    h = 1e-6
    for i1 in np.linspace(3.05, 66.0, 60):
        be = boundary(i1)
        lo_fd = (boundary(i1 + h).i2_lo - boundary(i1 - h).i2_lo) / (2 * h)
        hi_fd = (boundary(i1 + h).i2_hi - boundary(i1 - h).i2_hi) / (2 * h)
        worst_slope = max(worst_slope, abs(be.d_lo - lo_fd) / max(1.0, abs(lo_fd)),
                          abs(be.d_hi - hi_fd) / max(1.0, abs(hi_fd)))
    ok = (worst_param <= 1e-8 and worst_resid <= 1e-8
          and closed_lo <= 1e-10 and closed_hi <= 1e-10 and worst_slope <= 1e-6)
    _report(capsys, "criterion 2 (boundary oracle)", ok,
            f"parametric {worst_param:.1e}<=1e-8, residual {worst_resid:.1e}<=1e-8, "
            f"closed {max(closed_lo, closed_hi):.1e}<=1e-10, "
            f"slopes {worst_slope:.1e}<=1e-6")


# ------------------------------------------------------------ criterion 3


def test_criterion_03_map_round_trip(capsys):
    rng = np.random.default_rng(103)
    worst_rt = 0.0
    worst_jac = 0.0
    for delta in (0.0, 1e-6):
        cfg = DomainMapConfig(u_max=60.0, delta=delta)
        pts = rng.uniform(0.0, 1.0, size=(1000, 2))
        for xi, eta in pts:
            i1, i2 = map_inverse(xi, eta, cfg)
            xi2, eta2 = map_forward(i1, i2, cfg)
            worst_rt = max(worst_rt, abs(xi2 - xi) / max(1.0, abs(xi)),
                           abs(eta2 - eta) / max(1.0, abs(eta)))
        h = 1e-6
        for xi, eta in rng.uniform(0.05, 0.95, size=(100, 2)):
            i1, i2 = map_inverse(xi, eta, cfg)
            jac = map_jacobian(i1, i2, cfg)
            fd2 = (map_forward(i1, i2 + h, cfg)[1]
                   - map_forward(i1, i2 - h, cfg)[1]) / (2 * h)
            worst_jac = max(worst_jac, abs(jac.deta_di2 - fd2) / max(1e-6, abs(fd2)))
            try:
                ep = map_forward(i1 + h, i2, cfg)[1]
                em = map_forward(i1 - h, i2, cfg)[1]
            except ValueError:
                continue
            fd1 = (ep - em) / (2 * h)
            worst_jac = max(worst_jac, abs(jac.deta_di1 - fd1) / max(1e-2, abs(fd1)))
    ok = worst_rt <= 1e-10 and worst_jac <= 1e-6
    _report(capsys, "criterion 3 (map round-trip)", ok,
            f"round-trip {worst_rt:.1e}<=1e-10, jacobian-vs-fd {worst_jac:.1e}<=1e-6")


# ------------------------------------------------------------ criterion 4


def test_criterion_04_design_linearity(capsys, treloar):
    rng = np.random.default_rng(104)
    counts = {}
    for s in treloar:
        counts[s.mode] = counts.get(s.mode, 0) + 1
    worst = 0.0
    for kind in KINDS:
        spec = default_spec(kind, treloar, 20, 5)
        A, _ = assemble_design(spec, treloar)
        for _ in range(10):
            theta = rng.normal(size=spec.n_params)
            for idx in fixed_zero_indices(spec):
                theta[idx] = 0.0
            state = ModelState(spec=spec, theta=theta)
            direct = np.array([
                predict_stress(state, s.mode, s.stretch) / math.sqrt(counts[s.mode])
                for s in treloar])
            scale = max(1.0, float(np.abs(direct).max()))
            worst = max(worst, float(np.max(np.abs(A @ theta - direct))) / scale)
    ok = worst <= 1e-10
    _report(capsys, "criterion 4 (design linearity)", ok,
            f"max deviation {worst:.1e} <= 1e-10 x scale, 10 random thetas x 3 kinds")


# ------------------------------------------------------------ criterion 5


def test_criterion_05_analytic_recovery(capsys):
    mu = 400.0
    nh = _synthetic(lambda m, lam: 0.5 * mu * stress_coefficients(m, lam).alpha)
    spec = default_spec(ModelKind.SEPARABLE, nh, 20, 5)
    _, fit, _ = _calibrate(spec, nh, 0.0)
    nh_worst = max(fit.mse.values())

    c1, c2 = 300.0, 30.0
    def mr_stress(m, lam):
        sc = stress_coefficients(m, lam)
        return c1 * sc.alpha + c2 * sc.beta
    mr = _synthetic(mr_stress)
    base = default_spec(ModelKind.SEPARABLE, mr, 20, 12)
    # the transformed second axis makes the c2 term non-polynomial with all
    # its curvature near the origin; graded sites resolve it, and the
    # convexity toggle is lifted on that axis (the term is concave there)
    spec_mr = replace(base, sites2=tuple(np.linspace(0.0, 1.0, 12) ** 3))
    _, fit_mr, _ = _calibrate(spec_mr, mr, 0.0, convex_2=False)
    mr_worst_r2 = min(fit_mr.r2.values())

    ok = nh_worst < 1e-8 and mr_worst_r2 >= 0.9999
    _report(capsys, "criterion 5 (analytic recovery)", ok,
            f"neo-Hookean worst MSE {nh_worst:.2e}<1e-8 kPa^2, "
            f"Mooney-Rivlin worst R^2 {mr_worst_r2:.8f}>=0.9999")


# ------------------------------------------------------------ criterion 6


def test_criterion_06_coupling_benefit(capsys):
    c1, c3 = 300.0, 5.0
    def stress(m, lam):
        sc = stress_coefficients(m, lam)
        i1, i2 = invariants(m, lam)
        return sc.alpha * (c1 + c3 * (i2 - 3.0)) + sc.beta * (c3 * (i1 - 3.0))
    data = _synthetic(stress)
    mapped = default_spec(ModelKind.MAPPED_SURFACE, data, 20, 5)
    _, fit_map, _ = _calibrate(mapped, data, 1e-8)
    ratios = {}
    for n1, n2 in ((20, 5), (60, 40)):
        sep = default_spec(ModelKind.SEPARABLE, data, n1, n2)
        _, fit_sep, _ = _calibrate(sep, data, 0.0)
        ratios[f"{n1}+{n2}"] = fit_map.mse_combined / fit_sep.mse_combined
    ok = all(r <= 0.5 for r in ratios.values())
    detail = ", ".join(f"mapped/separable[{k}] = {v:.2e}" for k, v in ratios.items())
    _report(capsys, "criterion 6 (coupling benefit)", ok, detail + " (need <= 0.5)")


# ------------------------------------------------------------ criterion 7


def test_criterion_07a_combined_error_ordering(capsys, treloar_fit):
    combined = {k: treloar_fit(k).fit.mse_combined for k in KINDS}
    ok = (combined[ModelKind.MAPPED_SURFACE] < combined[ModelKind.SURFACE]
          < combined[ModelKind.SEPARABLE])
    _report(capsys, "criterion 7a (combined-error ordering)", ok,
            f"mapped {combined[ModelKind.MAPPED_SURFACE]:.1f} < "
            f"surface {combined[ModelKind.SURFACE]:.1f} < "
            f"separable {combined[ModelKind.SEPARABLE]:.1f} kPa^2")


def test_criterion_07b_separable_error_levels(capsys, treloar_fit):
    fit = treloar_fit(ModelKind.SEPARABLE).fit
    reference = {UT: 7871.0, BT: 8231.0, PS: 1029.0}
    factors = {m.value: fit.mse[m] / reference[m] for m in reference}
    ok = all(1.0 / 3.0 <= f <= 3.0 for f in factors.values())
    _report(capsys, "criterion 7b (separable error levels)", ok,
            "measured/reference = "
            + ", ".join(f"{k} {v:.2f}" for k, v in factors.items())
            + " (need within x3)")


def test_criterion_07c_auto_weight_bracket(capsys, treloar_fit):
    lams = {k.value: treloar_fit(k).problem.lambda_pen
            for k in (ModelKind.SURFACE, ModelKind.MAPPED_SURFACE)}
    ok = all(1e-8 <= lam <= 1e-3 for lam in lams.values())
    _report(capsys, "criterion 7c (auto penalty weight)", ok,
            ", ".join(f"{k}: {v:.2e}" for k, v in lams.items())
            + " (need within [1e-8, 1e-3])")


def test_criterion_07d_unregularised_blow_up(capsys, treloar, treloar_fit):
    reg = treloar_fit(ModelKind.SURFACE)
    bare = replace(reg.problem, lambda_pen=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the bare fit is expected to be singular
        sol = solve(bare)
    ratio = float(np.abs(sol.theta).max() / np.abs(reg.sol.theta).max())
    ok = ratio >= 1e3
    _report(capsys, "criterion 7d (unregularised blow-up)", ok,
            f"max|theta| bare {np.abs(sol.theta).max():.2e} / regularised "
            f"{np.abs(reg.sol.theta).max():.2e} = x{ratio:.1f} (need >= 1e3)")


# ------------------------------------------------------------ criterion 8


def _surface_state_min_derivatives(state, n=200):
    spec = state.spec
    ops = spec_ops(spec)
    coeffs = ops.u.binv @ state.theta.reshape(spec.n1, spec.n2) @ ops.v.binv.T
    surf = Surface(ops.u.kv, ops.v.kv, coeffs)
    xs = np.linspace(0.0, 1.0, n)
    return min(float(eval_grid(surf, xs, xs, rx, ry).min())
               for rx, ry in ((1, 0), (0, 1), (2, 0), (0, 2)))


def _separable_state_min_derivatives(state, n=200):
    spec = state.spec
    ops = spec_ops(spec)
    xs = np.linspace(0.0, 1.0, n)
    worst = np.inf
    for block, d in ((state.theta[: spec.n1], ops.u), (state.theta[spec.n1 :], ops.v)):
        c = d.binv @ block
        for r in (1, 2):
            worst = min(worst, min(eval_coeffs(d.kv, c, x, r) for x in xs))
    return worst


def test_criterion_08_constraint_compliance(capsys, treloar_fit):
    details = []
    ok = True
    for kind in KINDS:
        fitres = treloar_fit(kind)
        theta = fitres.state.theta
        scale = max(1.0, float(np.abs(theta).max()))
        slack = float(np.max(fitres.problem.A_ineq @ theta))
        if kind is ModelKind.SEPARABLE:
            worst = _separable_state_min_derivatives(fitres.state)
        else:
            worst = _surface_state_min_derivatives(fitres.state)
        ok = ok and slack <= 1e-9 and worst >= -1e-9 * scale
        details.append(f"{kind.value}: grid-min {worst:.1e} >= {-1e-9 * scale:.1e}, "
                       f"slack {slack:.1e}")
    _report(capsys, "criterion 8 (shape constraints)", ok, "; ".join(details))


# ------------------------------------------------------------ criterion 9


def test_criterion_09_qp_oracle(capsys):
    rng = np.random.default_rng(109)
    worst_obj = 0.0
    worst_kkt = 0.0
    for _ in range(200):
        problem = random_qp(rng)
        sol = solve(problem)
        best = enumerated_objective(problem)
        worst_obj = max(worst_obj, abs(sol.objective - best) / max(1e-10, best))
        worst_kkt = max(worst_kkt, sol.kkt_residual)
    ok = worst_obj <= 1e-8 and worst_kkt <= 1e-8
    _report(capsys, "criterion 9 (QP enumeration oracle)", ok,
            f"200 problems, objective gap {worst_obj:.1e}<=1e-8, "
            f"KKT residual {worst_kkt:.1e}<=1e-8")


# ----------------------------------------------------------- criterion 10


def test_criterion_10_lcurve_suite(capsys):
    collinear = discrete_curvature(np.array([0.0, 1.0, 2.0]),
                                   np.array([0.0, 1.0, 2.0]))[1]
    right = discrete_curvature(np.array([0.0, 1.0, 1.0]),
                               np.array([0.0, 0.0, 1.0]))[1]
    right_err = abs(right - 1.0 / math.sqrt(2.0))
    problem = CalibrationProblem(A=np.diag([1.0, 1e-3]), y=np.array([1.0, 1.0]),
                                 A_pen=np.array([[0.0, 1.0]]))
    result = lcurve(problem)
    knee = int(np.argmin(np.abs(np.log10(result.lambdas) + 6.0)))
    within = abs(result.corner_index - knee) <= 1
    chosen_exact = result.lambda_chosen == result.lambda_corner / 10.0
    ok = collinear == 0.0 and right_err <= 1e-12 and within and chosen_exact
    _report(capsys, "criterion 10 (L-curve suite)", ok,
            f"collinear kappa {collinear}, right-angle err {right_err:.1e}<=1e-12, "
            f"corner index {result.corner_index} within 1 of {knee}, "
            f"chosen = corner/10 {'exactly' if chosen_exact else 'VIOLATED'}")


# ----------------------------------------------------------- criterion 11


def test_criterion_11_performance(capsys, treloar):
    t0 = time.perf_counter()
    spec = default_spec(ModelKind.MAPPED_SURFACE, treloar, 20, 5)
    A, y = assemble_design(spec, treloar)
    pen = curvature_operator(spec)
    ineq = inequality_operator(spec)
    problem = CalibrationProblem(A=A, y=y, A_pen=pen.rows, lambda_pen=1e-6,
                                 A_ineq=ineq.rows,
                                 fixed_zero=fixed_zero_indices(spec))
    solve(problem)
    t_fit = time.perf_counter() - t0
    t0 = time.perf_counter()
    lcurve(problem)
    t_sweep = time.perf_counter() - t0
    ok = t_fit < 1.0 and t_sweep < 30.0
    _report(capsys, "criterion 11 (performance)", ok,
            f"full 20x5 calibration {t_fit:.2f}s<1s, 25-point sweep {t_sweep:.2f}s<30s")
