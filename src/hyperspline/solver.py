"""Constrained linear least squares and penalty-weight selection.

The calibration problem is

    min ||A theta - y||^2 + lambda ||A_pen theta||^2
    s.t. A_ineq theta <= 0,  theta[fixed] = 0,

a convex QP solved with a primal active-set method in the least-squares
(stacked) form; the normal equations are never formed.  The stacked matrix
is reduced once per solve to its triangular factor R (with Q^T d), so
iterations work on n rows whatever the number of samples.  Each iteration
takes the null space Z of the working rows from a complete QR of their
transpose, solves the subproblem by a QR of R Z and reuses the first
factor for the multipliers (Lawson & Hanson, Solving Least Squares
Problems, 1974, ch. 23).  From a feasible start, steps stay feasible, the
blocking row at the shortest step is added (ties go to the smallest index)
and the row with the most negative multiplier is dropped.  The working set
stays linearly independent: a warm start seeds it with an independent
subset of its near-active rows, and a blocking row is never a combination
of working rows.  Feasibility is judged relative to max|theta|: the rows
of ``inequality_operator`` are unit-normalised, so G @ theta carries the
units of theta.  A loop that reaches its iteration cap raises.

The penalty weight can be chosen from the discrete L-curve: solve over a
grid of weights, locate the corner as the point of maximum discrete
curvature of the log-log (misfit, seminorm) polyline, and step one decade
below it.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

AUTO = "auto"


@dataclass
class CalibrationProblem:
    """Data, penalty, constraints and pinned parameters of one calibration."""

    A: np.ndarray
    y: np.ndarray
    A_pen: np.ndarray | None = None
    lambda_pen: float | str = 0.0
    A_ineq: np.ndarray | None = None
    b_ineq: np.ndarray | None = None
    fixed_zero: tuple = field(default_factory=tuple)

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.A.shape[0] != self.y.size:
            raise ValueError("A and y disagree on the number of samples")
        n = self.A.shape[1]
        if self.A_pen is not None:
            self.A_pen = np.atleast_2d(np.asarray(self.A_pen, dtype=float))
            if self.A_pen.shape[1] != n:
                raise ValueError("A_pen has the wrong number of columns")
        if self.A_ineq is not None:
            self.A_ineq = np.atleast_2d(np.asarray(self.A_ineq, dtype=float))
            if self.A_ineq.shape[1] != n:
                raise ValueError("A_ineq has the wrong number of columns")
            if self.b_ineq is None:
                self.b_ineq = np.zeros(self.A_ineq.shape[0])
            else:
                self.b_ineq = np.asarray(self.b_ineq, dtype=float).ravel()
                if self.b_ineq.shape[0] != self.A_ineq.shape[0]:
                    raise ValueError("b_ineq has the wrong length")
                if np.any(self.b_ineq != 0.0):
                    raise ValueError("only homogeneous inequality constraints are supported")
        if isinstance(self.lambda_pen, str):
            if self.lambda_pen != AUTO:
                raise ValueError("lambda_pen must be a number or 'auto'")
        elif self.lambda_pen < 0.0:
            raise ValueError("lambda_pen must be nonnegative")
        bad = [i for i in self.fixed_zero if not 0 <= int(i) < n]
        if bad:
            raise ValueError(f"fixed_zero indices out of range: {bad}")
        self.fixed_zero = tuple(sorted(set(int(i) for i in self.fixed_zero)))

    @property
    def n_params(self) -> int:
        return self.A.shape[1]


@dataclass
class Solution:
    theta: np.ndarray
    objective: float
    active_set: tuple
    kkt_residual: float
    iterations: int
    wall_time: float


@dataclass
class LCurveResult:
    lambdas: np.ndarray
    misfits: np.ndarray
    seminorms: np.ndarray
    kappas: np.ndarray
    corner_index: int
    lambda_corner: float
    lambda_chosen: float
    thetas: np.ndarray  # the solution at each weight, one row per weight

    def theta_near(self, lam: float) -> np.ndarray:
        """Swept solution at the grid weight nearest ``lam`` (log scale): a
        feasible warm start for ``solve`` at ``lam``."""
        return self.thetas[int(np.argmin(np.abs(np.log(self.lambdas / lam))))]


FEAS_TOL = 1e-9
MULT_TOL = 1e-10
STEP_TOL = 1e-12
INDEP_TOL = 1e-10
RIDGE = math.sqrt(np.finfo(float).eps)


def _feas_tol(x: np.ndarray) -> float:
    """Feasibility tolerance at x: with unit-normalised rows G @ x carries
    the units of x, and its roundoff grows with max|x|."""
    return FEAS_TOL * max(1.0, float(np.max(np.abs(x))))


def _independent(G: np.ndarray, rows: list) -> list:
    """Greedy subset of ``rows`` whose rows of G are linearly independent."""
    basis = np.zeros((0, G.shape[1]))
    keep = []
    for j in rows:
        r = G[j] - basis.T @ (basis @ G[j])
        r -= basis.T @ (basis @ r)  # second Gram-Schmidt pass
        norm = float(np.linalg.norm(r))
        if norm > INDEP_TOL * float(np.linalg.norm(G[j])):
            keep.append(j)
            basis = np.vstack([basis, r / norm])
    return keep


def _stacked(problem: CalibrationProblem, free: np.ndarray, lam: float):
    """Stacked least-squares matrix on the free parameters, with ridge fallback.

    Penalty blocks taller than the parameter count are reduced to their
    triangular QR factor first (an exact norm-preserving step), keeping
    each subproblem small.  A numerically rank-deficient stack gets
    micro-ridge rows sqrt(eps) * ||A|| * I, with a warning: eps * ||A||^2 on
    the normal matrix, the perturbation that forming A^T A in double
    precision already makes.  It damps only the directions whose singular
    value is below sqrt(eps) * ||A||.
    """
    Af = problem.A[:, free]
    parts = [Af]
    if problem.A_pen is not None and lam > 0.0:
        Pf = problem.A_pen[:, free]
        if Pf.shape[0] > Pf.shape[1]:
            Pf = np.linalg.qr(Pf, mode="r")
        parts.append(math.sqrt(lam) * Pf)
    M = np.vstack(parts)
    d = np.concatenate([problem.y, np.zeros(M.shape[0] - Af.shape[0])])
    sv = np.linalg.svd(M, compute_uv=False)
    smax = sv[0] if sv.size else 0.0
    if M.shape[0] < M.shape[1] or (smax > 0 and sv[-1] < 1e-12 * smax):
        anorm = np.linalg.norm(Af, 2) if Af.size else 0.0
        if anorm > 0.0:
            warnings.warn("rank-deficient stacked system; adding micro-ridge "
                          "(consider a positive penalty weight or a coarser grid)",
                          stacklevel=3)
            ridge = RIDGE * anorm * np.eye(M.shape[1])
            M = np.vstack([M, ridge])
            d = np.concatenate([d, np.zeros(M.shape[1])])
    return M, d


def _reduce(M: np.ndarray, d: np.ndarray):
    """Triangular factor of [M | d]: ||M t - d|| = ||R t - c|| for every t."""
    Rc = np.linalg.qr(np.column_stack([M, d]), mode="r")
    return Rc[:, :-1], Rc[:, -1]


def _subproblem(R: np.ndarray, c: np.ndarray, Gw: np.ndarray):
    """Minimise ||R t - c|| subject to Gw t = 0.

    The complete QR Gw^T = [Y Z] [T; 0] gives the null space Z of the
    working rows; t = Z z with z from a QR of R Z.  Returns t, Y and T.
    """
    k = Gw.shape[0]
    Q, T = np.linalg.qr(Gw.T, mode="complete")
    Z = Q[:, k:]
    t = np.zeros(R.shape[1])
    if Z.shape[1]:
        Qz, Rz = np.linalg.qr(R @ Z)
        t = Z @ np.linalg.solve(Rz, Qz.T @ c)
    return t, Q[:, :k], T[:k]


def _multipliers(R, c, Y, T, theta) -> np.ndarray:
    """Working-row multipliers at theta: solve Gw^T mu = -g with Gw^T = Y T."""
    g = 2.0 * R.T @ (R @ theta - c)
    return np.linalg.solve(T, -(Y.T @ g))


def _ratio_test(G, theta, step, work):
    """Longest fraction t <= 1 of ``step`` that keeps the rows outside the
    working set feasible, and the row that blocks it (-1 if none does);
    ties go to the smallest index."""
    Gstep = G @ step
    block = ~work & (Gstep > _feas_tol(step))
    t = np.full(G.shape[0], np.inf)
    t[block] = np.maximum(0.0, -(G @ theta)[block]) / Gstep[block]
    j = int(np.argmax(t <= np.min(t) + 1e-15))
    return (float(t[j]), j) if t[j] < 1.0 else (1.0, -1)


def _active_set_lsq(R, c, G, theta0, work0, max_iter):
    """Primal active-set loop on ||R theta - c||; returns (theta, working
    rows, their multipliers, iterations)."""
    theta = theta0.copy()
    work = np.zeros(G.shape[0], dtype=bool)
    work[work0] = True
    for it in range(1, max_iter + 1):
        trial, Y, T = _subproblem(R, c, G[work])
        if np.all(G @ trial <= _feas_tol(trial)):
            theta = trial
            mu = _multipliers(R, c, Y, T, theta)
            if np.all(mu >= -MULT_TOL):
                return theta, np.flatnonzero(work), mu, it
            work[np.flatnonzero(work)[np.argmin(mu)]] = False
            continue
        step = trial - theta
        t_best, j = _ratio_test(G, theta, step, work)
        theta = theta + t_best * step
        if j >= 0:
            work[j] = True
        elif np.linalg.norm(step) < STEP_TOL:
            # no progress and nothing to add: treat as converged
            mu = _multipliers(R, c, Y, T, theta)
            if np.all(mu >= -MULT_TOL):
                return theta, np.flatnonzero(work), mu, it
    raise RuntimeError(f"active-set solver failed to converge in {max_iter} iterations")


def solve(problem: CalibrationProblem, theta0: np.ndarray | None = None,
          max_iter: int | None = None) -> Solution:
    """Solve the calibration QP.

    ``theta0`` may supply a feasible warm start (the working set is seeded
    with a linearly independent subset of its near-active rows, taken in
    index order); the default start is theta = 0, which is always
    feasible for the homogeneous constraints.  Cold starts on heavily
    constrained penalised problems first solve at 1e4x and 1e2x the target
    weight — smoother solutions have small active sets, so each stage warm
    starts the next and the total iteration count drops severalfold.
    """
    if isinstance(problem.lambda_pen, str):
        raise ValueError("lambda_pen is 'auto'; run lcurve() first and solve "
                         "with the chosen numeric weight")
    t_start = time.perf_counter()
    lam = float(problem.lambda_pen)
    n_ineq = problem.A_ineq.shape[0] if problem.A_ineq is not None else 0
    warm = theta0
    pre_iters = 0
    if (theta0 is None and lam > 0.0 and problem.A_pen is not None
            and n_ineq > 2 * problem.n_params):
        # Stage weights stay below the point where the penalty block drowns
        # the misfit rows in roundoff; there the subproblems turn degenerate.
        lam_cap = 1e8 * float(np.sum(problem.A ** 2)) / max(
            float(np.sum(problem.A_pen ** 2)), np.finfo(float).tiny)
        try:
            for stage_lam in (1e4 * lam, 1e2 * lam):
                if not lam < stage_lam < lam_cap:
                    continue
                stage = _solve_once(replace(problem, lambda_pen=stage_lam),
                                    warm, max_iter)
                warm = stage.theta
                pre_iters += stage.iterations
        except RuntimeError:
            warm, pre_iters = theta0, 0
    sol = _solve_once(problem, warm, max_iter)
    return replace(sol, iterations=sol.iterations + pre_iters,
                   wall_time=time.perf_counter() - t_start)


def _solve_once(problem: CalibrationProblem, theta0: np.ndarray | None,
                max_iter: int | None) -> Solution:
    t_start = time.perf_counter()
    n = problem.n_params
    free = np.array([i for i in range(n) if i not in problem.fixed_zero], dtype=int)
    if free.size == 0:
        raise ValueError("all parameters are pinned")
    M, d = _stacked(problem, free, float(problem.lambda_pen))
    if problem.A_ineq is not None and problem.A_ineq.shape[0] > 0:
        G = problem.A_ineq[:, free]
    else:
        G = np.zeros((0, free.size))

    if theta0 is None:
        start = np.zeros(free.size)
        work0: list = []
    else:
        theta0 = np.asarray(theta0, dtype=float).ravel()
        if theta0.shape[0] != n:
            raise ValueError("theta0 has the wrong length")
        start = theta0[free]
        viol = G @ start if G.size else np.zeros(0)
        tol = _feas_tol(start)
        if viol.size and np.max(viol) > tol:
            raise ValueError("theta0 is infeasible")
        work0 = _independent(G, [j for j in range(G.shape[0]) if viol[j] >= -tol])

    cap = max_iter if max_iter is not None else 10 * free.size + 100
    R, c = _reduce(M, d)
    th_free, work, mu, iters = _active_set_lsq(R, c, G, start, work0, cap)

    theta = np.zeros(n)
    theta[free] = th_free
    stat = 2.0 * R.T @ (R @ th_free - c) + G[work].T @ np.clip(mu, 0.0, None)
    kkt = float(np.linalg.norm(stat))

    obj = float(np.sum((problem.A @ theta - problem.y) ** 2))
    if problem.A_pen is not None and float(problem.lambda_pen) > 0.0:
        obj += float(problem.lambda_pen) * float(np.sum((problem.A_pen @ theta) ** 2))
    return Solution(theta=theta, objective=obj, active_set=tuple(int(j) for j in work),
                    kkt_residual=kkt, iterations=iters,
                    wall_time=time.perf_counter() - t_start)


def kkt_check(problem: CalibrationProblem, theta: np.ndarray):
    """Residual norms (stationarity, feasibility, complementarity) at theta.

    Multipliers are estimated on the active rows by least squares and
    projected onto the nonnegative orthant.
    """
    if isinstance(problem.lambda_pen, str):
        raise ValueError("lambda_pen must be numeric for a KKT check")
    theta = np.asarray(theta, dtype=float).ravel()
    n = problem.n_params
    free = np.array([i for i in range(n) if i not in problem.fixed_zero], dtype=int)
    M, d = _stacked(problem, free, float(problem.lambda_pen))
    th = theta[free]
    g = 2.0 * M.T @ (M @ th - d)
    if problem.A_ineq is not None and problem.A_ineq.shape[0]:
        G = problem.A_ineq[:, free]
        slack = G @ th
        scale = 1e-8 * (1.0 + float(np.linalg.norm(th)))
        act = [j for j in range(G.shape[0]) if slack[j] >= -scale]
        feas = float(max(0.0, slack.max()))
        if act:
            mu, *_ = np.linalg.lstsq(G[act].T, -g, rcond=None)
            mu = np.clip(mu, 0.0, None)
            stat = float(np.linalg.norm(g + G[act].T @ mu))
            comp = float(np.max(np.abs(mu * slack[act]))) if len(act) else 0.0
        else:
            stat = float(np.linalg.norm(g))
            comp = 0.0
    else:
        feas = 0.0
        comp = 0.0
        stat = float(np.linalg.norm(g))
    return stat, feas, comp


def discrete_curvature(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Menger curvature at interior vertices of a polyline (endpoints get 0).

    Uses twice the triangle area (shoelace) over the product of the three
    side lengths; collinear triples give exactly zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    kappa = np.zeros(x.size)
    for i in range(1, x.size - 1):
        ax, ay = x[i] - x[i - 1], y[i] - y[i - 1]
        bx, by = x[i + 1] - x[i], y[i + 1] - y[i]
        cx, cy = x[i + 1] - x[i - 1], y[i + 1] - y[i - 1]
        area2 = abs(ax * by - ay * bx)  # twice the triangle area
        denom = math.hypot(ax, ay) * math.hypot(bx, by) * math.hypot(cx, cy)
        kappa[i] = area2 / denom if denom > 0.0 else 0.0
    return kappa


def default_lambda_grid(count: int = 25, low: float = 1e-10, high: float = 1e2) -> np.ndarray:
    return np.logspace(math.log10(low), math.log10(high), count)


def lcurve(problem: CalibrationProblem, lambda_grid=None) -> LCurveResult:
    """Sweep penalty weights and pick one decade below the L-curve corner.

    Solves are warm-started from the neighbouring weight (largest first);
    misfit is ``||A theta - y||^2`` and seminorm ``||A_pen theta||^2``.
    """
    if problem.A_pen is None:
        raise ValueError("lcurve requires a penalty operator")
    grid = default_lambda_grid() if lambda_grid is None else np.asarray(lambda_grid, dtype=float)
    if grid.size < 5:
        raise ValueError("need at least 5 penalty weights")
    if np.any(grid <= 0.0) or not np.all(np.diff(grid) > 0.0):
        raise ValueError("penalty weights must be positive and strictly increasing")

    misfits = np.zeros(grid.size)
    seminorms = np.zeros(grid.size)
    thetas = np.zeros((grid.size, problem.n_params))
    theta_prev = None
    for idx in range(grid.size - 1, -1, -1):
        sub = replace(problem, lambda_pen=float(grid[idx]))
        try:
            sol = solve(sub, theta0=theta_prev)
        except ValueError:
            sol = solve(sub)
        theta_prev = thetas[idx] = sol.theta
        misfits[idx] = float(np.sum((problem.A @ sol.theta - problem.y) ** 2))
        seminorms[idx] = float(np.sum((problem.A_pen @ sol.theta) ** 2))

    tiny = 1e-300
    kappas = discrete_curvature(np.log10(np.maximum(misfits, tiny)),
                                np.log10(np.maximum(seminorms, tiny)))
    corner = int(np.argmax(kappas))
    lam_corner = float(grid[corner])
    return LCurveResult(lambdas=grid, misfits=misfits, seminorms=seminorms,
                        kappas=kappas, corner_index=corner,
                        lambda_corner=lam_corner, lambda_chosen=lam_corner / 10.0,
                        thetas=thetas)
