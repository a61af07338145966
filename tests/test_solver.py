"""Active-set least squares, KKT diagnostics and the L-curve sweep."""

import itertools
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from hyperspline import (
    AUTO,
    CalibrationProblem,
    DeformationMode,
    ModelKind,
    Sample,
    assemble_design,
    curvature_operator,
    default_lambda_grid,
    default_spec,
    discrete_curvature,
    fixed_zero_indices,
    inequality_operator,
    invariants,
    kkt_check,
    lcurve,
    solve,
    stress_coefficients,
)
from hyperspline import solver
from hyperspline.cli import RunConfig, bundled_treloar_path, run_calibration
from hyperspline.solver import _stacked


def _nonneg_problem(A, y, **kw):
    n = np.atleast_2d(A).shape[1]
    return CalibrationProblem(A=A, y=y, A_ineq=-np.eye(n), **kw)


def test_problem_validation():
    with pytest.raises(ValueError):
        CalibrationProblem(A=np.eye(2), y=np.zeros(3))
    with pytest.raises(ValueError):
        CalibrationProblem(A=np.eye(2), y=np.zeros(2), A_pen=np.eye(3))
    with pytest.raises(ValueError):
        CalibrationProblem(A=np.eye(2), y=np.zeros(2), lambda_pen=-0.5)
    with pytest.raises(ValueError):
        CalibrationProblem(A=np.eye(2), y=np.zeros(2), lambda_pen="later")
    with pytest.raises(ValueError):
        CalibrationProblem(A=np.eye(2), y=np.zeros(2), fixed_zero=(5,))


def test_two_variable_reference_problem():
    """Nonnegativity clips the negative coordinate and leaves the other free."""
    problem = _nonneg_problem(np.eye(2), np.array([-1.0, 2.0]))
    sol = solve(problem)
    np.testing.assert_allclose(sol.theta, [0.0, 2.0], atol=1e-12)
    assert sol.active_set == (0,)
    assert sol.objective == pytest.approx(1.0, rel=1e-12)
    assert sol.kkt_residual <= 1e-10
    # closed-form optimum checked by the KKT diagnostics as well
    stat, feas, comp = kkt_check(problem, sol.theta)
    assert max(stat, feas, comp) < 1e-12


def test_interior_optimum_matches_ordinary_least_squares(rng):
    A = rng.normal(size=(12, 4))
    theta_true = np.abs(rng.normal(size=4)) + 0.5
    y = A @ theta_true
    sol = solve(_nonneg_problem(A, y))
    ols, *_ = np.linalg.lstsq(A, y, rcond=None)
    np.testing.assert_allclose(sol.theta, ols, atol=1e-10)
    assert sol.active_set == ()


def test_zero_data_gives_zero_solution():
    sol = solve(_nonneg_problem(np.eye(3), np.zeros(3)))
    np.testing.assert_allclose(sol.theta, 0.0, atol=0.0)
    assert sol.objective == 0.0


def test_auto_weight_must_be_resolved_first():
    problem = CalibrationProblem(A=np.eye(2), y=np.ones(2), A_pen=np.eye(2),
                                 lambda_pen=AUTO)
    with pytest.raises(ValueError):
        solve(problem)
    with pytest.raises(ValueError):
        kkt_check(problem, np.zeros(2))


def test_fixed_parameters_are_eliminated(rng):
    A = rng.normal(size=(10, 5))
    y = rng.normal(size=10)
    sol = solve(CalibrationProblem(A=A, y=y, fixed_zero=(0, 3)))
    assert sol.theta[0] == 0.0 and sol.theta[3] == 0.0
    # equivalent to solving on the remaining columns only
    keep = [1, 2, 4]
    reduced, *_ = np.linalg.lstsq(A[:, keep], y, rcond=None)
    np.testing.assert_allclose(sol.theta[keep], reduced, atol=1e-10)
    with pytest.raises(ValueError):
        solve(CalibrationProblem(A=A, y=y, fixed_zero=tuple(range(5))))


def test_warm_start_from_the_solution_is_cheap():
    rng = np.random.default_rng(67)
    A = rng.normal(size=(15, 6))
    y = rng.normal(size=15)
    problem = _nonneg_problem(A, y)
    first = solve(problem)
    again = solve(problem, working=first.active_set)
    np.testing.assert_allclose(again.theta, first.theta, atol=1e-10)
    assert again.iterations <= 2
    with pytest.raises(ValueError, match="out of range"):
        solve(problem, working=(6,))
    with pytest.raises(TypeError):
        solve(problem, theta0=first.theta)  # a warm start is rows, not a point


@pytest.mark.parametrize("kind", [None, ModelKind.SURFACE, ModelKind.MAPPED_SURFACE])
def test_bare_warm_start_at_the_optimum_stays_there(kind, treloar_fit):
    """A warm start is bare working rows, no theta: from every other row of
    the optimum's active set the loop returns that optimum, on a random
    nonnegative fit and on the Treloar surface fits at their chosen weight."""
    if kind is None:
        rng = np.random.default_rng(67)
        problem = _nonneg_problem(rng.normal(size=(15, 6)), rng.normal(size=15))
        first = solve(problem)
    else:
        fit = treloar_fit(kind)
        problem, first = fit.problem, fit.sol
    assert first.active_set  # the start lies on active rows
    again = solve(problem, working=first.active_set[::2])
    assert np.linalg.norm(again.theta - first.theta) <= 1e-9 * np.linalg.norm(first.theta)


def test_micro_ridge_warning_on_rank_deficiency():
    # duplicated column, no penalty: the stack is singular
    A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    problem = CalibrationProblem(A=A, y=np.array([1.0, 2.0, 3.0]))
    with pytest.warns(UserWarning, match="micro-ridge"):
        sol = solve(problem)
    assert np.all(np.isfinite(sol.theta))
    # the ridge splits the weight between the twin columns
    assert sol.theta[0] == pytest.approx(sol.theta[1], rel=1e-6)


def test_iteration_cap_raises():
    n = 4
    problem = _nonneg_problem(np.eye(n), -np.ones(n))
    with pytest.raises(RuntimeError):
        solve(problem, max_iter=1)


def test_a_violated_row_in_the_working_span_is_skipped():
    """A violated row that lies in the working span and releases no working
    multiplier is skipped, not added and not a reason to raise: theta = 0
    is feasible, so such a row is violated only at the tolerance's scale.

    Row 1 is -row 0 turned by 5e-11, inside INDEP_TOL of row 0's span.  At
    the optimum on row 0, theta = [0, 1], it reads 5e-11 > ADD_TOL with
    r = -1; theta stays (5e-11 is inside FEAS_TOL), where adding the row
    would step 4e10 along a 5e-11 direction.

    With row 1 violated by about FEAS_TOL and the handed-over row 0 at
    multiplier -2, the start drops row 0, the loop adds row 1 and returns
    the exact optimum [1, 0].
    """
    problem = CalibrationProblem(A=np.eye(2), y=np.array([-1.0, 1.0]),
                                 A_ineq=np.array([[-1.0, 0.0], [1.0, 5e-11]]))
    sol = solve(problem)
    np.testing.assert_allclose(sol.theta, [0.0, 1.0], rtol=0.0, atol=1e-15)
    assert (sol.adds, sol.drops, sol.active_set) == (1, 0, (0,))
    assert sol.iterations <= 4
    stat, feas, comp = kkt_check(problem, sol.theta)
    assert stat <= 1e-12 and feas <= solver.FEAS_TOL and comp <= 1e-12

    tol = solver.FEAS_TOL
    problem = CalibrationProblem(A=np.eye(2), y=np.array([1.0, tol + 4e-13]),
                                 A_ineq=np.array([[-1.0, 0.0], [0.0, 1.0]]))
    sol = solve(problem, working=(0,))
    np.testing.assert_allclose(sol.theta, [1.0, 0.0], rtol=0.0, atol=1e-15)
    assert (sol.adds, sol.drops, sol.active_set) == (1, 1, (1,))
    assert sol.iterations <= 4


def test_determinism():
    rng = np.random.default_rng(71)
    A = rng.normal(size=(20, 7))
    y = rng.normal(size=20)
    problem = _nonneg_problem(A, y, A_pen=np.eye(7), lambda_pen=1e-4)
    t1 = solve(problem).theta
    t2 = solve(problem).theta
    assert np.array_equal(t1, t2)


def test_random_problems_match_subset_enumeration():
    """Brute force over active subsets confirms the active-set optimum."""
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n, 11))
        k = int(rng.integers(1, 9))
        A = rng.normal(size=(m, n))
        y = rng.normal(size=m)
        G = rng.normal(size=(k, n))
        lam = float(rng.choice([0.0, 1e-3, 1.0]))
        pen = np.eye(n) if lam > 0 else None
        problem = CalibrationProblem(A=A, y=y, A_pen=pen, lambda_pen=lam,
                                     A_ineq=G)
        sol = solve(problem)
        M = A if pen is None else np.vstack([A, np.sqrt(lam) * pen])
        d = np.concatenate([y, np.zeros(M.shape[0] - m)])
        best = np.inf
        for r in range(k + 1):
            for subset in itertools.combinations(range(k), r):
                if subset:
                    _, s, Vt = np.linalg.svd(G[list(subset)])
                    rank = int(np.sum(s > 1e-12 * s[0]))
                    Z = Vt[rank:].T
                else:
                    Z = np.eye(n)
                if Z.shape[1] == 0:
                    cand = np.zeros(n)
                else:
                    z, *_ = np.linalg.lstsq(M @ Z, d, rcond=None)
                    cand = Z @ z
                if np.max(G @ cand) <= 1e-9:
                    best = min(best, float(np.sum((M @ cand - d) ** 2)))
        assert sol.objective == pytest.approx(best, rel=1e-8, abs=1e-10)
        # solution invariants: feasibility and the KKT residual
        assert float(np.max(G @ sol.theta)) <= 1e-9
        assert sol.kkt_residual <= 1e-8 * (1.0 + float(np.linalg.norm(y)))


def test_start_point_independence():
    """A cold start and a start from the rows the clipped least-squares fit
    makes active reach the same objective."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n + 4, n))
        y = rng.normal(size=n + 4)
        problem = _nonneg_problem(A, y)
        cold = solve(problem)
        ols, *_ = np.linalg.lstsq(A, y, rcond=None)
        warm = solve(problem, working=tuple(np.flatnonzero(ols < 0.0)))
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)


def test_staged_cold_start_reaches_the_same_optimum():
    """Heavily constrained penalised problems reach one optimum cold and
    staged by hand, from the working rows of solves at 1e4x and then 1e2x
    the weight (a continuation from smoother fits): a random one, whose
    feasible cone is the origin alone, and the dense surface problem."""
    rng = np.random.default_rng(73)
    n = 8
    A = rng.normal(size=(30, n))
    y = rng.normal(size=30)
    G = np.vstack([-np.eye(n), rng.normal(size=(12, n))])
    problem = CalibrationProblem(A=A, y=y, A_pen=np.eye(n), lambda_pen=1e-4,
                                 A_ineq=G)
    assert G.shape[0] > 2 * n  # more rows than twice the parameters
    for problem in (problem, _dense_surface_problem()):
        cold = solve(problem)
        rows = None
        for scale in (1e4, 1e2, 1.0):
            staged = solve(replace(problem, lambda_pen=scale * problem.lambda_pen), working=rows)
            rows = staged.active_set
        assert cold.objective == pytest.approx(staged.objective, rel=1e-9)
        np.testing.assert_allclose(cold.theta, staged.theta, atol=1e-8)


def _random_qp(rng, scale=1.0):
    """A criterion-9-style problem: small, random, with general inequality rows."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(n, 11))
    k = int(rng.integers(1, 9))
    A = rng.normal(size=(m, n))
    y = rng.normal(size=m)
    G = rng.normal(size=(k, n))
    lam = float(rng.choice([0.0, 1e-3, 1.0]))
    pen = np.eye(n) if lam > 0 else None
    return CalibrationProblem(A=A, y=y, A_pen=pen, lambda_pen=lam, A_ineq=G)


def _assert_scales_with_the_data(problem, base, scale):
    sol = solve(replace(problem, y=scale * problem.y))
    np.testing.assert_allclose(sol.theta, scale * base.theta, rtol=0.0,
                               atol=1e-9 * scale * float(np.abs(base.theta).max()))


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e9])
def test_solution_scales_with_the_data_units(scale, treloar_fit):
    """y in other units (Pa for kPa, say) scales theta by the same factor."""
    rng = np.random.default_rng(109)
    for _ in range(400):
        problem = _random_qp(rng)
        _assert_scales_with_the_data(problem, solve(problem), scale)
    sep = treloar_fit(ModelKind.SEPARABLE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_scales_with_the_data(sep.problem, sep.sol, scale)


def _assert_independent(G, rows):
    assert np.linalg.matrix_rank(G[list(rows)]) == len(rows)


def test_warm_start_at_a_degenerate_vertex():
    """Active rows outnumbering their rank do not all enter the working set."""
    g1, g2 = -np.eye(3)[:2]
    G = np.vstack([g1, g2, (g1 + g2) / np.sqrt(2.0)])
    problem = CalibrationProblem(A=np.eye(3), y=np.array([-1.0, -1.0, 2.0]), A_ineq=G)
    cold = solve(problem)  # at the optimum g1, g2 and g1 + g2 are active
    _assert_independent(G, cold.active_set)
    warm = solve(problem, working=(0, 1))
    assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
    _assert_independent(G, warm.active_set)

    # Nonnegativity plus the normalised sums of neighbouring pairs: every
    # vertex where two neighbours vanish is degenerate.
    rng = np.random.default_rng(17)
    n = 6
    pairs = -(np.eye(n) + np.eye(n, k=1))[:-1] / np.sqrt(2.0)
    G = np.vstack([-np.eye(n), pairs])
    for _ in range(20):
        A = rng.normal(size=(n + 4, n))
        problem = CalibrationProblem(A=A, y=rng.normal(size=n + 4), A_ineq=G)
        cold = solve(problem)
        start = rng.random(n) + 0.1
        j = int(rng.integers(0, n - 2))
        start[j:j + 3] = 0.0  # five active rows of rank three
        active = np.flatnonzero(G @ start == 0.0)
        assert active.size == 5 and np.linalg.matrix_rank(G[active]) == 3
        warm = solve(problem, working=(j, n + j, n + j + 1))  # three independent ones
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
        _assert_independent(G, warm.active_set)


NNLS_KKT_TOL = 1e-12


def _nnls_kkt(K, e, u):
    """Largest violation of the KKT conditions of u >= 0 as the minimiser of
    ||K u - e||, relative to ||K|| ||K u - e||: a negative entry of the
    gradient g = K^T (K u - e), or u_i g_i relative to max u."""
    g = K.T @ (K @ u - e)
    comp = float(np.max(np.abs(u * g))) / max(float(u.max()), np.finfo(float).tiny)
    return max(-float(g.min()), comp) / (np.linalg.norm(K, 2) * np.linalg.norm(K @ u - e))


def _lsi_objective(problem, kkt_tol=NNLS_KKT_TOL):
    """Stacked objective at the optimum by the LSI -> LDP -> NNLS reduction
    (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23), on the
    solver's own stacked matrix, ridge included.  Returns (objective, M, d, free).

    The NNLS result is certified by its KKT conditions (``_nnls_kkt`` within
    ``kkt_tol``): scipy's ``nnls`` can return a point off its optimum, and
    then BVLS (``lsq_linear``, whose default tolerance can stop it short too)
    is taken; if neither passes, the oracle raises."""
    from scipy.optimize import lsq_linear, nnls

    free = np.array([i for i in range(problem.n_params) if i not in problem.fixed_zero])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        M, d = _stacked(problem, free, float(problem.lambda_pen))
    G = problem.A_ineq[:, free]
    Q, R = np.linalg.qr(M)
    f1 = Q.T @ d
    Rinv = np.linalg.inv(R)
    # x = R^-1 (z + f1) turns G x <= 0 into the LDP  min ||z||  s.t.  E z >= h,
    # whose solution is z = -r[:-1] / r[-1] for the NNLS residual r below
    E = -G @ Rinv
    h = G @ Rinv @ f1
    K = np.vstack([E.T, h])
    e = np.zeros(K.shape[0])
    e[-1] = 1.0
    u, _ = nnls(K, e, maxiter=50 * K.shape[1])
    if _nnls_kkt(K, e, u) > kkt_tol:
        bvls = lsq_linear(K, e, bounds=(0.0, np.inf), method="bvls", tol=1e-14)
        u = np.maximum(bvls.x, 0.0)
        if _nnls_kkt(K, e, u) > kkt_tol:
            raise AssertionError("the NNLS oracle failed: neither nnls nor BVLS passes "
                                 f"its KKT conditions ({_nnls_kkt(K, e, u):.1e})")
    r = K @ u - e
    x = Rinv @ (-r[:-1] / r[-1] + f1)
    return float(np.sum((M @ x - d) ** 2)), M, d, free


@pytest.mark.parametrize("weight", ["chosen", "zero"])
def test_treloar_surface_fit_matches_the_nnls_oracle(weight, treloar_fit):
    """At zero weight the ridge leaves cond(M) near 7e7 and the oracle's K
    near 1e16, so its NNLS result meets its KKT conditions only to about
    1e-10 (BVLS to 4e-9): the oracle is certified to 1e-9 there, and the
    objectives are compared to 1e-6."""
    pytest.importorskip("scipy")
    fit = treloar_fit(ModelKind.SURFACE)
    problem, sol, kkt_tol = fit.problem, fit.sol, NNLS_KKT_TOL
    if weight == "zero":
        problem, kkt_tol = replace(problem, lambda_pen=0.0), 1e-9
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # A is rank-deficient: the ridge engages
            sol = solve(problem)
    best, M, d, free = _lsi_objective(problem, kkt_tol)
    assert float(np.sum((M @ sol.theta[free] - d) ** 2)) == pytest.approx(best, rel=1e-6)


def _svd_step(M, d, Gw):
    """Reference subproblem: an SVD null space of the working rows, then
    least squares on the stacked matrix restricted to it."""
    n = M.shape[1]
    Z = np.eye(n)
    if Gw.shape[0]:
        _, s, Vt = np.linalg.svd(Gw, full_matrices=True)
        rank = int(np.sum(s > max(Gw.shape) * np.finfo(float).eps * s[0]))
        Z = Vt[rank:].T
    if Z.shape[1] == 0:
        return np.zeros(n)
    z, *_ = np.linalg.lstsq(M @ Z, d, rcond=None)
    return Z @ z


@pytest.mark.parametrize("weight", ["chosen", "zero"])
def test_subproblem_step_matches_the_svd_reference(weight, treloar_fit, monkeypatch):
    """Every equality-constrained optimum the dual loop visits in cold
    Treloar surface solves (its start and the point after each add) is the
    reference optimum on those working rows, from the updated factor, in
    theta after the solve's own map from the loop's variable (u = L theta
    in the LDP form), whichever form the solve takes: the LDP form at the
    chosen weight and at 1e2x and 1e4x it, the R metric at zero weight.

    Optima agree in the norm of the fit, ||M (step - ref)||.  At zero weight
    the ridge leaves cond(M Z) near 2e7, so the optima themselves are only
    determined to about 1e-7: two orthonormal bases of one null space,
    equal to roundoff, already move the least-squares solution that much.
    There the Euclidean comparison is not made.
    """
    base = treloar_fit(ModelKind.SURFACE).problem
    scales = (0.0,) if weight == "zero" else (1.0, 1e2, 1e4)
    steps, forms = [], set()
    factor_step = solver._WorkingFactor.step

    def record(self, R, c):
        step = factor_step(self, R, c)
        steps.append((list(self.rows), self.theta(step, R)))
        forms.add("ldp" if self.Rinv is not None else "R metric")
        return step

    monkeypatch.setattr(solver._WorkingFactor, "step", record)
    free = np.array([i for i in range(base.n_params) if i not in base.fixed_zero])
    G = base.A_ineq[:, free]
    checked = 0
    for scale in scales:
        problem = replace(base, lambda_pen=scale * base.lambda_pen)
        steps.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # at zero weight the ridge engages
            solve(problem)
            M, d = _stacked(problem, free, float(problem.lambda_pen))
        for rows, step in steps:
            Gw = G[rows]
            ref = _svd_step(M, d, Gw)
            assert np.linalg.norm(M @ (step - ref)) <= 1e-8 * np.linalg.norm(M @ ref)
            if weight == "chosen":
                assert np.linalg.norm(step - ref) <= 1e-8 * np.linalg.norm(ref)
            assert np.max(np.abs(Gw @ step), initial=0.0) <= 1e-9 * max(1.0, np.max(np.abs(step)))
        checked += len(steps)
    assert checked > 100
    assert forms == {"ldp" if weight == "chosen" else "R metric"}


@pytest.mark.parametrize("pen_scale, ldp", [(1.0, True), (1e-6, False)])
def test_stage_form_follows_the_conditioning_bound(pen_scale, ldp, treloar_fit, monkeypatch):
    """A solve takes the LDP form where the factor R0 of [A; A_pen] has
    cond <= FEAS_TOL / eps and the weight's scaling D keeps
    cond(R0) * cond(D) <= 1 / RANK_TOL, the R metric elsewhere, and
    both reach the LSI -> LDP -> NNLS optimum.  Both cases solve one
    stack, the Treloar surface one at weight 1e-10 (cond 1.2e6, no ridge):
    A_pen scaled by 1e-6 at weight 1e2 raises cond(R0) from 3.7e4 to 1.2e7."""
    pytest.importorskip("scipy")
    base = treloar_fit(ModelKind.SURFACE).problem
    problem = replace(base, A_pen=pen_scale * base.A_pen, lambda_pen=1e-10 / pen_scale ** 2)
    factor = solver._Factor(solver._reduce_blocks(problem))
    assert factor.ldp is ldp
    assert (factor.at(problem.lambda_pen)[2].Rinv is not None) is ldp
    forms = []
    factor_step = solver._WorkingFactor.step

    def record(self, R, c):
        forms.append(self.Rinv is not None)
        return factor_step(self, R, c)

    monkeypatch.setattr(solver._WorkingFactor, "step", record)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the ridge's warning would raise
        sol = solve(problem)
    assert forms and set(forms) == {ldp}  # one loop, in one form
    best, M, d, free = _lsi_objective(problem)
    assert float(np.sum((M @ sol.theta[free] - d) ** 2)) == pytest.approx(best, rel=1e-9)


@pytest.mark.parametrize("kind", [ModelKind.SURFACE, ModelKind.MAPPED_SURFACE])
def test_sweep_hands_its_working_rows_from_weight_to_weight(kind, treloar_fit, monkeypatch):
    """Each weight of the default sweep starts from the working rows of the
    weight above it, the chosen weight from those of its nearest swept
    weight, and every weight reaches the LSI -> LDP -> NNLS optimum.
    ``working`` must name rows of A_ineq, independent ones."""
    pytest.importorskip("scipy")
    fit = treloar_fit(kind)
    handed, solved = [], []
    hand_over = solver._WorkingFactor.hand_over

    def record_rows(self, rows):
        handed.append(len(rows))
        return hand_over(self, rows)

    def record_solution(problem, *args, **kwargs):  # lcurve looks solve up by module name
        sol = solve(problem, *args, **kwargs)
        solved.append((float(problem.lambda_pen), sol))
        return sol

    monkeypatch.setattr(solver._WorkingFactor, "hand_over", record_rows)
    monkeypatch.setattr(solver, "solve", record_solution)
    lc = lcurve(replace(fit.problem, lambda_pen=AUTO))
    assert len(handed) >= lc.lambdas.size and sum(handed) > 0
    assert lc.lambda_chosen == fit.lcurve.lambda_chosen
    assert [lam for lam, _ in solved] == [*lc.lambdas[::-1].tolist(), lc.lambda_chosen]
    assert solved[-1][1] is lc.solution
    for lam, sol in solved:
        best, M, d, free = _lsi_objective(replace(fit.problem, lambda_pen=lam))
        assert float(np.sum((M @ sol.theta[free] - d) ** 2)) == pytest.approx(best, rel=1e-9)
        _assert_independent(fit.problem.A_ineq, sol.active_set)

    n_rows = fit.problem.A_ineq.shape[0]
    for bad, why in (((n_rows,), "out of range"), ((-1,), "out of range"),
                     ((0, n_rows + 5), "out of range"), ((0, 0), "dependent")):
        with pytest.raises(ValueError, match=why):
            solve(fit.problem, working=bad)


def _assert_matches_a_fresh_factor(work, G):
    """The updated factor against np.linalg.qr of the working rows' transpose:
    Q orthogonal, Ti the inverse of Q[:, :k]^T G_W^T and zero elsewhere."""
    k, n = len(work.rows), G.shape[1]
    Q, Ti = work.Q, work.Ti
    assert np.abs(Q.T @ Q - np.eye(n)).max() <= 1e-12
    assert np.all(Ti[k:] == 0.0) and np.all(Ti[:, k:] == 0.0)
    Gw = G[work.rows]
    np.testing.assert_allclose(Ti[:k, :k] @ (Q[:, :k].T @ Gw.T), np.eye(k), rtol=0.0, atol=1e-12)
    Qref, _ = np.linalg.qr(Gw.T, mode="complete")
    Z, Zref = Q[:, k:], Qref[:, k:]
    assert np.abs(Z @ Z.T - Zref @ Zref.T).max() <= 1e-12
    assert np.array_equal(np.flatnonzero(work.mask), np.sort(work.rows))


@pytest.mark.parametrize("start", ["empty", "all pinned"])
def test_factor_updates_match_a_fresh_qr(start):
    """Long random sequences of adds and drops keep the factor of the
    working rows: Q orthogonal, Ti the inverse of T, the same null space."""
    rng = np.random.default_rng(131)
    n = 9
    if start == "empty":
        G = rng.normal(size=(40, n))
        G /= np.linalg.norm(G, axis=1)[:, None]
    else:
        G = np.vstack([-np.eye(n), rng.normal(size=(20, n)) / np.sqrt(n)])
    work = solver._WorkingFactor(G)
    if start == "all pinned":  # _nnls' start: every multiplier pinned at zero
        work.hand_over(range(n))
    _assert_matches_a_fresh_factor(work, G)
    for _ in range(600):
        k = len(work.rows)
        if k and (k >= n - 1 or rng.random() < 0.45):
            work.drop(int(rng.integers(k)))
        else:
            j = int(rng.choice(np.flatnonzero(~work.mask)))
            _, s, _ = np.linalg.svd(G[work.rows + [j]])
            if s[-1] < 1e-3:  # keep the working rows well conditioned
                continue
            work.add(j)
        _assert_matches_a_fresh_factor(work, G)


def test_drops_and_adds_on_rows_of_minus_identity_keep_a_signed_permutation():
    """On rows of -I, the start of ``_nnls``, every add and drop is a signed
    permutation of Q's columns, so Q holds only -1, 0 and 1 and the pinned
    entries of a step are exactly zero."""
    rng = np.random.default_rng(139)
    n = 9
    G = -np.eye(n)
    work = solver._WorkingFactor(G)
    work.hand_over(range(n))
    for _ in range(600):
        k = len(work.rows)
        if k and (k == n or rng.random() < 0.5):
            work.drop(int(rng.integers(k)))
        else:
            work.add(int(rng.choice(np.flatnonzero(~work.mask))))
        assert np.isin(work.Q, (-1.0, 0.0, 1.0)).all()
        assert np.isin(work.Ti, (-1.0, 0.0, 1.0)).all()
        _assert_matches_a_fresh_factor(work, G)


def test_the_entering_row_is_violated_beyond_the_tolerance_before_it_is_priced(monkeypatch):
    """Violation is judged on F x against ADD_TOL, and only then are the
    violated rows priced by their distance F_j x / ||F_j||.  At the
    unconstrained optimum theta = [1, 1], row 0 (norm 1e-12) is 1 away from
    its hyperplane but reads 1e-12, inside ADD_TOL; row 1 reads 0.5, at a
    distance 0.45.  The solve must add row 1, in the LDP form, and stop at
    the projection onto it."""
    problem = CalibrationProblem(A=np.eye(2), y=np.ones(2),
                                 A_ineq=np.array([[1e-12, 0.0], [1.0, -0.5]]))
    forms = []
    factor_step = solver._WorkingFactor.step

    def record(self, R, c):
        forms.append(self.Rinv is not None)
        norms = np.linalg.norm(self.F, axis=1)
        assert norms[1] > 1e11 * norms[0]
        return factor_step(self, R, c)

    monkeypatch.setattr(solver._WorkingFactor, "step", record)
    sol = solve(problem)
    monkeypatch.undo()  # kkt_check's NNLS has a factor of its own
    assert forms and all(forms)
    assert sol.active_set == (1,) and sol.adds == 1
    np.testing.assert_allclose(sol.theta, [0.6, 1.2], rtol=0.0, atol=1e-15)
    stat, feas, comp = kkt_check(problem, sol.theta)
    assert stat <= 1e-12 and feas <= solver.FEAS_TOL and comp <= 1e-12


def _loop_ratio_test(G, theta, step, work):
    """Reference: the row-by-row ratio test the vectorised one replaced."""
    Gstep, Gtheta = G @ step, G @ theta
    tol = solver._feas_tol(step)
    t_best, j_best = 1.0, -1
    for j in range(G.shape[0]):
        if work[j] or Gstep[j] <= tol:
            continue
        tj = max(0.0, -Gtheta[j]) / Gstep[j]
        if tj < t_best - 1e-15 or (abs(tj - t_best) <= 1e-15 and (j_best < 0 or j < j_best)):
            t_best, j_best = min(tj, 1.0), j
    return (t_best, j_best) if t_best < 1.0 else (1.0, -1)


def test_ratio_test_matches_the_row_loop():
    """Same step and blocking row as the loop, exact ties and the origin included."""
    rng = np.random.default_rng(113)
    for case in range(300):
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 15))
        G = rng.normal(size=(m, n))
        if case % 3 == 1:
            G[m // 2:] = G[:m - m // 2]  # duplicated rows tie exactly
        theta = np.zeros(n) if case % 3 == 2 else rng.normal(size=n)  # at 0 every t is 0
        theta *= float(rng.choice([1e-3, 1.0, 1e6]))
        # project violated rows onto theta's orthogonal complement: theta is feasible
        G -= np.maximum(G @ theta, 0.0)[:, None] * theta / max(theta @ theta, 1e-300)
        work = rng.random(m) < 0.3
        step = rng.normal(size=n) * float(rng.choice([1e-3, 1.0, 1e3]))
        assert solver._ratio_test(G, theta, step, work) == _loop_ratio_test(G, theta, step, work)


def test_calibration_warm_starts_the_chosen_weight(treloar_fit):
    """The automatic surface fit is the sweep's fit at its chosen weight."""
    result = run_calibration(RunConfig(kind="surface", data=str(bundled_treloar_path())))
    assert result.lambda_pen == result.lcurve_result.lambda_chosen
    assert result.sol is result.lcurve_result.solution
    cold = solve(replace(treloar_fit(ModelKind.SURFACE).problem, lambda_pen=result.lambda_pen))
    assert result.sol.objective == pytest.approx(cold.objective, rel=1e-9)
    assert result.sol.iterations < 20


@pytest.mark.parametrize("kind", [ModelKind.SURFACE, ModelKind.MAPPED_SURFACE])
def test_lcurve_returns_the_fit_at_its_chosen_weight(kind, treloar_fit):
    """The sweep's ``solution`` is the cold solve at ``lambda_chosen``,
    reached from the nearest swept weight in at most two iterations."""
    fit = treloar_fit(kind)
    lc = fit.lcurve
    cold = solve(replace(fit.problem, lambda_pen=lc.lambda_chosen))
    assert np.linalg.norm(lc.solution.theta - cold.theta) <= 1e-9 * np.linalg.norm(cold.theta)
    assert lc.solution.objective == pytest.approx(cold.objective, rel=1e-9)
    assert lc.solution.iterations <= 2


def test_kkt_check_flags_bad_points():
    problem = _nonneg_problem(np.eye(2), np.array([1.0, 1.0]))
    stat, feas, comp = kkt_check(problem, np.array([-0.5, 1.0]))
    assert feas > 0.4
    stat, feas, comp = kkt_check(problem, np.array([0.0, 0.0]))
    assert stat > 1.0  # gradient not balanced by any multiplier
    stat, feas, comp = kkt_check(problem, np.array([1.0, 1.0]))
    assert max(stat, feas, comp) < 1e-12


def _loop_curvature(x, y):
    """Reference: the vertex-by-vertex Menger curvature the vectorised one
    replaced."""
    kappa = np.zeros(x.size)
    for i in range(1, x.size - 1):
        ax, ay = x[i] - x[i - 1], y[i] - y[i - 1]
        bx, by = x[i + 1] - x[i], y[i + 1] - y[i]
        cx, cy = x[i + 1] - x[i - 1], y[i + 1] - y[i - 1]
        area2 = abs(ax * by - ay * bx)  # twice the triangle area
        denom = math.hypot(ax, ay) * math.hypot(bx, by) * math.hypot(cx, cy)
        kappa[i] = area2 / denom if denom > 0.0 else 0.0
    return kappa


def test_discrete_curvature_matches_the_vertex_loop(treloar_fit):
    """Random polylines, repeated and collinear points, and the Treloar
    sweep's log-log curve give the loop's curvatures."""
    rng = np.random.default_rng(137)
    cases = []
    for size in range(0, 12):
        cases.append((rng.normal(size=size), rng.normal(size=size)))
    x = rng.normal(size=9)
    x[3:6] = x[3]  # a repeated point: zero denominators
    cases.append((x, np.where(np.arange(9) < 6, 2.0 * x, x)))
    lc = treloar_fit(ModelKind.SURFACE).lcurve
    cases.append((np.log10(lc.misfits), np.log10(lc.seminorms)))
    for x, y in cases:  # np.hypot and math.hypot may differ in the last bit
        np.testing.assert_allclose(discrete_curvature(x, y), _loop_curvature(x, y),
                                   rtol=8 * np.finfo(float).eps, atol=0.0)


def test_discrete_curvature_reference_values():
    # collinear points carry no curvature; a right angle gives 1/sqrt(2)
    x = np.array([0.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(discrete_curvature(x, 2.0 * x), 0.0, atol=1e-15)
    kappa = discrete_curvature(np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.0, 1.0]))
    assert kappa[1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert kappa[0] == 0.0 and kappa[2] == 0.0
    with pytest.raises(ValueError):
        discrete_curvature(np.zeros(3), np.zeros(2))


def test_default_lambda_grid_shape():
    grid = default_lambda_grid()
    assert grid.size == 25
    assert grid[0] == pytest.approx(1e-10, rel=1e-12)
    assert grid[-1] == pytest.approx(1e2, rel=1e-12)
    assert np.all(np.diff(grid) > 0.0)


def test_lcurve_validation():
    problem = CalibrationProblem(A=np.eye(2), y=np.ones(2), A_pen=np.eye(2),
                                 lambda_pen=AUTO)
    with pytest.raises(ValueError):
        lcurve(problem, np.array([1e-4, 1e-3, 1e-2]))  # too few
    with pytest.raises(ValueError):
        lcurve(problem, np.array([0.0, 1e-3, 1e-2, 1e-1, 1.0]))
    with pytest.raises(ValueError):
        lcurve(problem, np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5]))
    no_pen = CalibrationProblem(A=np.eye(2), y=np.ones(2))
    with pytest.raises(ValueError):
        lcurve(no_pen)


def _knee_problem():
    # One well-determined direction, one weakly determined direction that the
    # penalty removes: the trade-off curve has a sharp corner near
    # lambda = (small singular value)^2 = 1e-6.
    A = np.diag([1.0, 1e-3])
    y = np.array([1.0, 1.0])
    return CalibrationProblem(A=A, y=y, A_pen=np.array([[0.0, 1.0]]),
                              lambda_pen=AUTO)


def test_lcurve_finds_the_constructed_knee():
    result = lcurve(_knee_problem())
    grid = result.lambdas
    knee_index = int(np.argmin(np.abs(np.log10(grid) - (-6.0))))
    assert abs(result.corner_index - knee_index) <= 1
    assert result.lambda_corner == grid[result.corner_index]
    assert result.lambda_chosen == result.lambda_corner / 10.0


def test_lcurve_trade_off_is_monotone():
    result = lcurve(_knee_problem())
    assert np.all(np.diff(result.misfits) >= -1e-9)
    assert np.all(np.diff(result.seminorms) <= 1e-9)


def test_lcurve_respects_a_custom_grid():
    grid = np.logspace(-8.0, -4.0, 9)
    result = lcurve(_knee_problem(), grid)
    np.testing.assert_allclose(result.lambdas, grid)
    assert result.lambda_chosen == result.lambda_corner / 10.0


def test_solution_reporting_fields():
    sol = solve(_nonneg_problem(np.eye(2), np.array([3.0, -1.0])))
    assert sol.iterations >= 1
    assert (sol.adds, sol.drops) == (1, 0)  # one blocking row, then optimal
    assert sol.wall_time >= 0.0
    assert isinstance(sol.active_set, tuple)


def _near_active_system(problem, theta):
    """Gradient and near-active constraint rows as ``kkt_check`` forms them."""
    free = np.array([i for i in range(problem.n_params) if i not in problem.fixed_zero])
    M, d = _stacked(problem, free, float(problem.lambda_pen))
    g = 2.0 * M.T @ (M @ theta[free] - d)
    G = problem.A_ineq[:, free]
    act = G @ theta[free] >= -1e-8 * (1.0 + np.linalg.norm(theta[free]))
    return g, G[act]


@pytest.mark.parametrize("kind", [ModelKind.SURFACE, ModelKind.MAPPED_SURFACE])
def test_kkt_check_multipliers_are_nonnegative_least_squares(treloar_fit, kind):
    """Stationarity is the residual of the best nonnegative multipliers on
    the near-active rows; ``scipy.optimize.nnls`` is the cross-check."""
    optimize = pytest.importorskip("scipy.optimize")
    fit = treloar_fit(kind)
    g0 = float(np.linalg.norm(2.0 * fit.A.T @ fit.y))
    rng = np.random.default_rng(71)
    noise = rng.normal(size=fit.sol.theta.size)
    noise[list(fit.problem.fixed_zero)] = 0.0
    for theta in (fit.sol.theta, 0.9 * fit.sol.theta,
                  fit.sol.theta + 1e-3 * np.abs(fit.sol.theta).max() * noise):
        g, Ga = _near_active_system(fit.problem, theta)
        mu = solver._nnls(Ga.T, -g)
        assert np.all(mu >= 0.0)
        _, rnorm = optimize.nnls(Ga.T, -g, maxiter=50 * Ga.shape[0])
        stat, _, _ = kkt_check(fit.problem, theta)
        assert stat == pytest.approx(float(np.linalg.norm(g + Ga.T @ mu)), rel=1e-12)
        assert abs(stat - rnorm) <= 1e-9 * g0


def test_nnls_matches_scipy_on_random_problems():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(73)
    for _ in range(50):
        m, k = rng.integers(3, 12), rng.integers(1, 15)  # k > m: more columns than rank
        B = rng.normal(size=(m, k))
        b = rng.normal(size=m)
        mu = solver._nnls(B, b)
        ref, rnorm = optimize.nnls(B, b)
        assert np.all(mu >= 0.0)
        assert np.linalg.norm(B @ mu - b) == pytest.approx(rnorm, rel=1e-6, abs=1e-9)
        if k <= m:  # full column rank: the minimiser is unique
            np.testing.assert_allclose(mu, ref, atol=1e-6 * max(1.0, np.abs(ref).max()))


@pytest.mark.parametrize("kind", [ModelKind.SURFACE, ModelKind.MAPPED_SURFACE])
def test_kkt_check_reports_a_perturbed_fit(treloar_fit, kind):
    """Nonnegative multipliers on the near-active rows cannot absorb a real
    departure from the optimum: the fit reads near roundoff, a perturbed
    theta well above the 1e-2 * ||2 A^T y|| a fit gate allows."""
    fit = treloar_fit(kind)
    g0 = float(np.linalg.norm(2.0 * fit.A.T @ fit.y))
    assert kkt_check(fit.problem, fit.sol.theta)[0] <= 1e-8 * g0
    assert kkt_check(fit.problem, 0.5 * fit.sol.theta)[0] >= 10 * 1e-2 * g0
    noise = np.random.default_rng(79).normal(size=fit.sol.theta.size)
    noise[list(fit.problem.fixed_zero)] = 0.0
    noisy = fit.sol.theta + 1e-2 * np.abs(fit.sol.theta).max() * noise
    assert kkt_check(fit.problem, noisy)[0] >= 10 * 1e-2 * g0


# ------------------------------------------------------- block reduction


def test_reduce_blocks_preserves_both_norms(rng):
    """A tall data block and a tall penalty become n_free + 1 and n_free
    rows, zero on the pinned columns, and both norms stay put for every
    theta with the pinned parameters at zero."""
    m, n, fixed = 300, 12, (0, 5)
    problem = CalibrationProblem(A=rng.normal(size=(m, n)), y=rng.normal(size=m),
                                 A_pen=rng.normal(size=(40, n)), lambda_pen=1e-3,
                                 A_ineq=-np.eye(n), fixed_zero=fixed)
    reduced = solver._reduce_blocks(problem)
    n_free = n - len(fixed)
    assert reduced.A.shape == (n_free + 1, n) and reduced.y.shape == (n_free + 1,)
    assert reduced.A_pen.shape == (n_free, n)
    assert not np.any(reduced.A[:, fixed]) and not np.any(reduced.A_pen[:, fixed])
    for _ in range(20):
        theta = rng.normal(size=n)
        theta[list(fixed)] = 0.0
        for before, after in ((problem.A @ theta - problem.y, reduced.A @ theta - reduced.y),
                              (problem.A_pen @ theta, reduced.A_pen @ theta)):
            assert abs(np.linalg.norm(after) - np.linalg.norm(before)) <= (
                1e-12 * np.linalg.norm(before))
    again = solver._reduce_blocks(reduced)
    for a, b in ((reduced.A, again.A), (reduced.y, again.y), (reduced.A_pen, again.A_pen)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_reduce_blocks_keeps_a_short_data_block(treloar_fit):
    """Treloar's 56 samples are fewer than the free columns plus one, so
    its data block passes through bit for bit; only the penalty shrinks."""
    problem = treloar_fit(ModelKind.SURFACE).problem
    reduced = solver._reduce_blocks(problem)
    n_free = problem.n_params - len(problem.fixed_zero)
    assert problem.A.shape[0] <= n_free + 1
    assert reduced.A.tobytes() == problem.A.tobytes()
    assert reduced.y.tobytes() == problem.y.tobytes()
    assert reduced.A_pen.shape == (n_free, problem.n_params)


def _dense_surface_problem():
    """Surface problem on a dense noisy Mooney-Rivlin dataset, at a fixed weight."""
    noise = np.random.default_rng(83)
    samples = []
    for mode, top in ((DeformationMode.UT, 7.6), (DeformationMode.BT, 4.4),
                      (DeformationMode.PS, 5.0)):
        lam = np.linspace(1.0, top, 400)
        c = stress_coefficients(mode, lam)
        stress = (150.0 * c.alpha + 20.0 * c.beta) * (1.0 + 0.01 * noise.normal(size=lam.size))
        samples.extend(Sample(mode, float(a), float(p)) for a, p in zip(lam, stress))
    spec = default_spec(ModelKind.SURFACE, samples, 20, 5)
    A, y = assemble_design(spec, samples)
    return CalibrationProblem(A=A, y=y, A_pen=curvature_operator(spec).rows, lambda_pen=1e-4,
                              A_ineq=inequality_operator(spec).rows,
                              fixed_zero=fixed_zero_indices(spec))


def test_kkt_check_on_reduced_blocks_matches_the_full_stack():
    """On a dense problem ``kkt_check`` works on the reduced blocks; its
    stationarity agrees with the one computed from the full, unreduced
    stack."""
    problem = _dense_surface_problem()
    assert problem.A.shape[0] > problem.n_params
    g0 = float(np.linalg.norm(2.0 * problem.A.T @ problem.y))
    theta = solve(problem).theta
    for point in (theta, 0.9 * theta):
        g, Ga = _near_active_system(problem, point)
        full = float(np.linalg.norm(g + Ga.T @ solver._nnls(Ga.T, -g)))
        assert abs(kkt_check(problem, point)[0] - full) <= 1e-9 * g0


# ------------------------------------------- seeded differential sweeps

# Fixed seeds, never re-drawn: a draw that fails is recorded, not replaced.
# 5004, 5038 and 5047 raised ValueError in the primal method's staged cold
# solve; 5046, 5078 and 5095 missed the oracle by 1.6-3.4e-8 relative; on
# 5400 and 5428 scipy's nnls stops off its optimum and the oracle takes BVLS.
SWEEP_SEEDS = (*range(1101, 1125), 5004, 5038, 5046, 5047, 5078, 5095, 5400, 5428)


def _mooney_rivlin_draw(rng):
    """A random surface or mapped calibration problem on noisy
    Mooney-Rivlin-type data, W_I1 = c1 + 2 c3 (I1 - 3) and W_I2 = c2:
    4-19 stretches per mode, uniform on [1.005, U(1.5, 6)], 5 % multiplicative
    noise, a stress scale 10^U(-2, 3), n1 in [5, 21], n2 in [4, 6] and four
    random constraint flags, at least one of them set."""
    kind = (ModelKind.SURFACE, ModelKind.MAPPED_SURFACE)[int(rng.integers(2))]
    c1, c2, c3 = rng.uniform(0.1, 1.0), rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.05)
    scale = 10.0 ** rng.uniform(-2.0, 3.0)
    samples = []
    for mode in (DeformationMode.UT, DeformationMode.BT, DeformationMode.PS):
        lam = np.sort(rng.uniform(1.005, rng.uniform(1.5, 6.0), int(rng.integers(4, 20))))
        i1, _ = invariants(mode, lam)
        c = stress_coefficients(mode, lam)
        stress = scale * (c.alpha * (c1 + 2.0 * c3 * (i1 - 3.0)) + c.beta * c2)
        stress *= 1.0 + 0.05 * rng.normal(size=lam.size)
        samples.extend(Sample(mode, float(a), float(p)) for a, p in zip(lam, stress))
    spec = default_spec(kind, samples, int(rng.integers(5, 22)), int(rng.integers(4, 7)))
    flags = rng.random(4) < 0.5
    flags[int(rng.integers(4))] = True
    ineq = inequality_operator(spec, **dict(zip(
        ("monotone_1", "monotone_2", "convex_1", "convex_2"), flags.tolist())))
    A, y = assemble_design(spec, samples)
    return CalibrationProblem(A=A, y=y, A_pen=curvature_operator(spec).rows, lambda_pen=AUTO,
                              A_ineq=ineq.rows, fixed_zero=fixed_zero_indices(spec))


def check_random_sweep(seed):
    """A five-weight L-curve sweep and its solve at the chosen weight, on the
    random draw of ``seed``: every solve raises nothing but RuntimeError, and
    every weight reaches the LSI -> LDP -> NNLS optimum (to 1e-8 relative,
    with a floor of 1e-12 ||y||^2) and passes ``kkt_check``.  Returns the
    problem and the (weight, solution) pairs in the order solved."""
    rng = np.random.default_rng(seed)
    problem = _mooney_rivlin_draw(rng)
    grid = 10.0 ** rng.uniform(-8.0, 0.0) * np.logspace(-2.0, 2.0, 5)
    solved = []

    def record_solution(sub, *args, **kwargs):
        try:
            sol = solve(sub, *args, **kwargs)
        except Exception as exc:  # a valid problem may only fail to converge
            assert isinstance(exc, RuntimeError), f"{type(exc).__name__}: {exc}"
            raise
        solved.append((float(sub.lambda_pen), sol))
        return sol

    with mock.patch.object(solver, "solve", record_solution):
        lc = lcurve(problem, grid)
    assert [lam for lam, _ in solved] == [*grid[::-1].tolist(), lc.lambda_chosen]
    yy = float(problem.y @ problem.y)
    g0 = float(np.linalg.norm(2.0 * problem.A.T @ problem.y))
    for lam, sol in solved:
        at = replace(problem, lambda_pen=lam)
        best, M, d, free = _lsi_objective(at)
        assert abs(float(np.sum((M @ sol.theta[free] - d) ** 2)) - best) <= 1e-8 * best + 1e-12 * yy
        stat, feas, comp = kkt_check(at, sol.theta)
        size = max(1.0, float(np.abs(sol.theta).max()))
        assert stat <= 1e-7 * g0
        assert feas <= 2.0 * solver.FEAS_TOL * size
        assert comp <= 1e-7 * g0 * size
    return problem, solved


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_random_sweeps_match_the_nnls_oracle(seed):
    """``check_random_sweep`` on each fixed seed; ``tests/sweep_seeds.py``
    runs it over longer seed ranges."""
    pytest.importorskip("scipy")
    check_random_sweep(seed)


def test_the_nnls_oracle_raises_where_no_result_passes_its_check(monkeypatch):
    """On seed 5428's draw at its third weight scipy's nnls stops off its
    optimum (LDP objective 0.002658 against the solver's 0.001878), and
    ``SWEEP_SEEDS`` runs that weight through the BVLS fallback.  With BVLS
    failing too the oracle raises instead of returning a wrong optimum."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(5428)
    problem = _mooney_rivlin_draw(rng)
    lam = 10.0 ** rng.uniform(-8.0, 0.0) * np.logspace(-2.0, 2.0, 5)[2]
    monkeypatch.setattr(optimize, "lsq_linear",
                        lambda K, e, **kw: optimize.OptimizeResult(x=np.zeros(K.shape[1])))
    with pytest.raises(AssertionError, match="NNLS oracle failed"):
        _lsi_objective(replace(problem, lambda_pen=float(lam)))
