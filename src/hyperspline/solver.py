"""Constrained linear least squares and penalty-weight selection.

The calibration problem is

    min ||A theta - y||^2 + lambda ||A_pen theta||^2
    s.t. A_ineq theta <= 0,  theta[fixed] = 0,

a convex QP solved with a primal active-set method in the least-squares
(stacked) form; the normal equations are never formed.  Each block taller
than its free columns, the data block [A | y] and the penalty block, is
reduced to its triangular factor once per problem (``solve``), sweep
(``lcurve``) or check (``kkt_check``), and the stacked reduced blocks once
per stage to the triangular factor R (with Q^T d), so iterations work on n
rows whatever the number of samples.  A solve keeps the complete
orthogonal factor of the working rows' transpose, G_W^T = Q[:, :k] T, and
updates it on each add and drop instead of refactoring (Gill, Golub,
Murray & Saunders, Methods for modifying matrix factorizations, 1974).
Each iteration solves the subproblem on the null space Z = Q[:, k:] by a
QR of R Z, and the multipliers reuse T (Lawson & Hanson, Solving Least
Squares Problems, 1974, ch. 23).  From a feasible start, steps stay
feasible, the blocking row at the shortest step is added (ties go to the
smallest index) and the row with the most negative multiplier is dropped.
The working set stays linearly independent: a warm start seeds it with its
near-active rows in index order through the add path, which skips a row
within INDEP_TOL of the span of those before it, and a blocking row is
never a combination of working rows.  Feasibility is judged relative to
max|theta|: the rows of ``inequality_operator`` are unit-normalised, so
G @ theta carries the units of theta.  A loop that reaches its iteration
cap raises.

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
    A_ineq: np.ndarray | None = None  # rows of A_ineq theta <= 0
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
    adds: int  # working-set changes made by the iterations (a seed is not counted)
    drops: int
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


def _free(problem: CalibrationProblem) -> np.ndarray:
    return np.array([i for i in range(problem.n_params) if i not in problem.fixed_zero],
                    dtype=int)


def _reduce_blocks(problem: CalibrationProblem) -> CalibrationProblem:
    """The problem with each block taller than its free columns replaced by
    the triangular QR factor of those columns, zero on the pinned ones.  In
    the data block [A | y], y counts as one more column.  Each step is exact
    and norm-preserving for every theta with the pinned parameters at zero
    (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23), and a
    block that is not taller is kept, so a second call changes nothing."""
    free = _free(problem)
    A, y, A_pen = problem.A, problem.y, problem.A_pen
    if A.shape[0] > free.size + 1:
        R, y = _reduce(A[:, free], y)
        A = np.zeros((free.size + 1, problem.n_params))
        A[:, free] = R
    if A_pen is not None and A_pen.shape[0] > free.size:
        A_pen = np.zeros((free.size, problem.n_params))
        A_pen[:, free] = np.linalg.qr(problem.A_pen[:, free], mode="r")
    return replace(problem, A=A, y=y, A_pen=A_pen)


def _stacked(problem: CalibrationProblem, free: np.ndarray, lam: float):
    """Stacked least-squares matrix on the free parameters, with ridge fallback.

    The blocks enter as they are: ``solve``, ``lcurve`` and ``kkt_check``
    pass them reduced (``_reduce_blocks``), and unreduced ones stack to the
    same least-squares problem.  A numerically rank-deficient stack gets
    micro-ridge rows sqrt(eps) * ||A|| * I, with a warning: eps * ||A||^2 on
    the normal matrix, the perturbation that forming A^T A in double
    precision already makes.  It damps only the directions whose singular
    value is below sqrt(eps) * ||A||.
    """
    Af = problem.A[:, free]
    parts = [Af]
    if problem.A_pen is not None and lam > 0.0:
        parts.append(math.sqrt(lam) * problem.A_pen[:, free])
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


class _WorkingFactor:
    """Working rows of G and the complete orthogonal factor of their
    transpose, G_W^T = Q[:, :k] T with T upper triangular; Q[:, k:] spans
    their null space.  Adding a row applies one Householder reflector to
    the null-space columns; dropping one restores T from a small QR of its
    Hessenberg block (Gill, Golub, Murray & Saunders, Methods for modifying
    matrix factorizations, 1974).  ``rows`` and the columns of T follow the
    order of the adds.
    """

    def __init__(self, G: np.ndarray):
        n = G.shape[1]
        self.G = G
        self.Q = np.eye(n)
        self.T = np.zeros((n, n))
        self.rows: list = []
        self.mask = np.zeros(G.shape[0], dtype=bool)

    def add(self, j: int, tol: float = 0.0) -> bool:
        """Append row j unless its part outside the working span is at most
        ``tol``; returns whether it was added."""
        k = len(self.rows)
        w = self.Q.T @ self.G[j]
        x = w[k:]
        alpha = math.sqrt(float(x @ x))
        if alpha <= tol:
            return False
        # H = I - tau v v^T with v[0] = 1 maps x to beta e_1, scaled as
        # LAPACK's dlarfg: on rows of -I (``_nnls``) Q stays a signed
        # permutation, so pinned entries of a step are exactly zero
        beta = -math.copysign(alpha, x[0])
        v = x / (x[0] - beta)
        v[0] = 1.0
        Zq = self.Q[:, k:]
        Zq -= (((beta - x[0]) / beta) * (Zq @ v))[:, None] * v
        self.T[:k, k] = w[:k]
        self.T[k, k] = beta
        self.rows.append(j)
        self.mask[j] = True
        return True

    def drop(self, p: int) -> None:
        """Remove the working row at position p."""
        k = len(self.rows)
        if p < k - 1:
            Qh, Rh = np.linalg.qr(self.T[p:k, p + 1:k], mode="complete")
            self.Q[:, p:k] = self.Q[:, p:k] @ Qh
            self.T[:p, p:k - 1] = self.T[:p, p + 1:k]
            self.T[p:k, p:k - 1] = Rh
        self.T[:k, k - 1] = 0.0
        self.T[k - 1, :k] = 0.0
        self.mask[self.rows.pop(p)] = False

    def step(self, R: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Minimise ||R t - c|| subject to G_W t = 0: t = Z z with z from
        the triangular factor of [R Z | c]."""
        Z = self.Q[:, len(self.rows):]
        m = Z.shape[1]
        if not m:
            return np.zeros(R.shape[1])
        Rz, cz = _reduce(R @ Z, c)
        return Z @ np.linalg.solve(Rz[:m], cz[:m])

    def multipliers(self, R: np.ndarray, c: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Working-row multipliers at theta: solve G_W^T mu = -g with
        G_W^T = Q[:, :k] T."""
        k = len(self.rows)
        g = 2.0 * R.T @ (R @ theta - c)
        return np.linalg.solve(self.T[:k, :k], -(self.Q[:, :k].T @ g))


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
    """Primal active-set loop on ||R theta - c||.

    The rows ``work0`` seed the working set through the add path, in order;
    a row within INDEP_TOL of the span of those before it is skipped, so
    the working set starts linearly independent.  Returns (theta, working
    rows, their multipliers, iterations, adds, drops); adds and drops count
    the loop's changes of the working set, not the seed.
    """
    theta = theta0.copy()
    work = _WorkingFactor(G)
    for j in work0:
        work.add(j, INDEP_TOL * float(np.linalg.norm(G[j])))
    adds = drops = 0
    for it in range(1, max_iter + 1):
        trial = work.step(R, c)
        if np.all(G @ trial <= _feas_tol(trial)):
            theta = trial
            mu = work.multipliers(R, c, theta)
            if np.all(mu >= -MULT_TOL):
                return theta, work.rows, mu, it, adds, drops
            work.drop(int(np.argmin(mu)))
            drops += 1
            continue
        step = trial - theta
        t_best, j = _ratio_test(G, theta, step, work.mask)
        theta = theta + t_best * step
        if j >= 0:
            work.add(j)
            adds += 1
        elif np.linalg.norm(step) < STEP_TOL:
            # no progress and nothing to add: treat as converged
            mu = work.multipliers(R, c, theta)
            if np.all(mu >= -MULT_TOL):
                return theta, work.rows, mu, it, adds, drops
    raise RuntimeError(f"active-set solver failed to converge in {max_iter} iterations")


def solve(problem: CalibrationProblem, theta0: np.ndarray | None = None,
          max_iter: int | None = None) -> Solution:
    """Solve the calibration QP.

    ``theta0`` may supply a feasible warm start (its near-active rows seed
    the working set in index order, each one skipped that is within
    INDEP_TOL of the span of those before it); the default start is
    theta = 0, which is always feasible for the homogeneous constraints.
    Cold starts on heavily constrained penalised problems first solve at
    1e4x and 1e2x the target weight — smoother solutions have small active
    sets, so each stage warm starts the next and the total iteration count
    drops severalfold.  The stages share one reduced problem
    (``_reduce_blocks``).  ``iterations``, ``adds`` and ``drops`` sum over
    the stages.
    """
    if isinstance(problem.lambda_pen, str):
        raise ValueError("lambda_pen is 'auto'; run lcurve() first and solve "
                         "with the chosen numeric weight")
    t_start = time.perf_counter()
    problem = _reduce_blocks(problem)
    lam = float(problem.lambda_pen)
    n_ineq = problem.A_ineq.shape[0] if problem.A_ineq is not None else 0
    warm = theta0
    stages = []
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
                stages.append(_solve_once(replace(problem, lambda_pen=stage_lam),
                                          warm, max_iter))
                warm = stages[-1].theta
        except RuntimeError:
            warm, stages = theta0, []
    stages.append(_solve_once(problem, warm, max_iter))
    return replace(stages[-1], iterations=sum(s.iterations for s in stages),
                   adds=sum(s.adds for s in stages), drops=sum(s.drops for s in stages),
                   wall_time=time.perf_counter() - t_start)


def _solve_once(problem: CalibrationProblem, theta0: np.ndarray | None,
                max_iter: int | None) -> Solution:
    t_start = time.perf_counter()
    n = problem.n_params
    free = _free(problem)
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
        work0 = np.flatnonzero(viol >= -tol)

    cap = max_iter if max_iter is not None else 10 * free.size + 100
    R, c = _reduce(M, d)
    th_free, work, mu, iters, adds, drops = _active_set_lsq(R, c, G, start, work0, cap)

    theta = np.zeros(n)
    theta[free] = th_free
    stat = 2.0 * R.T @ (R @ th_free - c) + G[work].T @ np.clip(mu, 0.0, None)
    kkt = float(np.linalg.norm(stat))

    obj = float(np.sum((problem.A @ theta - problem.y) ** 2))
    if problem.A_pen is not None and float(problem.lambda_pen) > 0.0:
        obj += float(problem.lambda_pen) * float(np.sum((problem.A_pen @ theta) ** 2))
    return Solution(theta=theta, objective=obj, active_set=tuple(sorted(int(j) for j in work)),
                    kkt_residual=kkt, iterations=iters, adds=adds, drops=drops,
                    wall_time=time.perf_counter() - t_start)


def _nnls(B: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimise ||B mu - b|| over mu >= 0 with the active-set loop above.

    Every mu starts pinned at zero, as in Lawson & Hanson's NNLS, and
    ridge rows sqrt(eps) * ||B|| * I keep a degenerate set of columns (more
    near-active rows than the rank) well posed.
    """
    k = B.shape[1]
    ridge = RIDGE * max(float(np.linalg.norm(B, 2)), np.finfo(float).tiny)
    R, c = _reduce(np.vstack([B, ridge * np.eye(k)]), np.concatenate([b, np.zeros(k)]))
    mu, *_ = _active_set_lsq(R, c, -np.eye(k), np.zeros(k), list(range(k)), 10 * k + 100)
    return mu


def kkt_check(problem: CalibrationProblem, theta: np.ndarray):
    """Residual norms (stationarity, feasibility, complementarity) at theta.

    The multipliers of the near-active rows are the nonnegative least-squares
    fit of the negated gradient, so stationarity is the smallest residual
    that any admissible multipliers leave.
    """
    if isinstance(problem.lambda_pen, str):
        raise ValueError("lambda_pen must be numeric for a KKT check")
    theta = np.asarray(theta, dtype=float).ravel()
    problem = _reduce_blocks(problem)
    free = _free(problem)
    M, d = _stacked(problem, free, float(problem.lambda_pen))
    th = theta[free]
    g = 2.0 * M.T @ (M @ th - d)
    if problem.A_ineq is not None and problem.A_ineq.shape[0]:
        G = problem.A_ineq[:, free]
        slack = G @ th
        scale = 1e-8 * (1.0 + float(np.linalg.norm(th)))
        act = np.flatnonzero(slack >= -scale)
        feas = float(max(0.0, slack.max()))
        if act.size:
            mu = _nnls(G[act].T, -g)
            stat = float(np.linalg.norm(g + G[act].T @ mu))
            comp = float(np.max(np.abs(mu * slack[act])))
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
    reduced = _reduce_blocks(problem)  # one factor for every weight
    for idx in range(grid.size - 1, -1, -1):
        sub = replace(reduced, lambda_pen=float(grid[idx]))
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
