"""Constrained linear least squares and penalty-weight selection.

The calibration problem is

    min ||A theta - y||^2 + lambda ||A_pen theta||^2
    s.t. A_ineq theta <= 0,  theta[fixed] = 0,

a convex QP solved with a primal active-set method in least-squares form;
the normal equations are never formed.  Each block taller than its free
columns, [A | y] and A_pen, is reduced to its triangular factor, and
``_Factor`` takes the generalized SVD of the reduced [A; A_pen] once per
problem (``solve``, all its stages) or sweep (``lcurve``, all its weights)
in Paige & Saunders' QR-plus-CS form (SIAM J. Numer. Anal. 18, 1981;
Elden, BIT 22, 1982).  A weight is then a diagonal scaling D, and a stage
minimises ||L theta - c|| on n rows, L = D W^T R0.

A stage runs in the LDP form (Lawson & Hanson, Solving Least Squares
Problems, 1974, ch. 23) where cond(R0) <= FEAS_TOL / eps, which bounds the
roundoff theta = R0^-1 W D^-1 u adds to G theta (D^-1 costs no digits),
and cond(R0) cond(D) <= 1 / RANK_TOL, which keeps cond(L) under the
ridge's threshold.  In u = L theta the rows are F = G L^-1, a subproblem
is the projection u = Z Z^T c onto the null space Z = Q[:, k:] of F_W,
and theta = L^-1 u plus one refinement step.  Other stages (``_stacked``,
ridged or not) and ``_nnls``, which needs exact zeros, keep F = G and a
QR of R Z per iteration, R the stack's triangular factor.  The working
rows' transpose keeps its complete orthogonal factor F_W^T = Q[:, :k] T,
updated on each add and drop (Gill, Golub, Murray & Saunders, Methods for
modifying matrix factorizations, 1974); the multipliers reuse T.

Feasibility and the ratio test are judged on G relative to max|theta|:
the rows of ``inequality_operator`` are unit-normalised, so G @ theta
carries the units of theta.  From a feasible start steps stay feasible,
the blocking row at the shortest step is added (ties go to the smallest
index), and the row with the most negative multiplier is dropped, also
where a trial fails only by roundoff.  The working set stays linearly
independent: it starts empty or with the rows handed over from an earlier
solve (``working``, Lawson & Hanson's working-set continuation), entered
by one QR of their transpose, and a blocking row is never a combination
of working rows.  A loop that reaches its iteration cap raises.

The penalty weight can be chosen from the discrete L-curve: solve over a
grid of weights, locate the corner as the point of maximum discrete
curvature of the log-log (misfit, seminorm) polyline, step one decade
below it, and solve there warm from the nearest swept weight.
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
        for name in ("A_pen", "A_ineq"):
            if getattr(self, name) is not None:
                setattr(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
                if getattr(self, name).shape[1] != n:
                    raise ValueError(f"{name} has the wrong number of columns")
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
    solution: Solution  # the fit at lambda_chosen


FEAS_TOL = 1e-9
MULT_TOL = 1e-10
STEP_TOL = 1e-12
INDEP_TOL = 1e-10
RANK_TOL = 1e-12
RIDGE = math.sqrt(np.finfo(float).eps)


def _feas_tol(x: np.ndarray) -> float:
    """Feasibility tolerance at x: with unit-normalised rows G @ x carries
    the units of x, and its roundoff grows with max|x|."""
    return FEAS_TOL * max(1.0, float(np.max(np.abs(x))))


def _free(problem: CalibrationProblem) -> np.ndarray:
    return np.array([i for i in range(problem.n_params) if i not in problem.fixed_zero], dtype=int)


def _ineq(problem: CalibrationProblem, free: np.ndarray) -> np.ndarray:
    """Inequality rows on the free parameters (none without A_ineq)."""
    return np.zeros((0, free.size)) if problem.A_ineq is None else problem.A_ineq[:, free]


def _reduce_blocks(problem: CalibrationProblem) -> CalibrationProblem:
    """The problem with each block taller than its free columns replaced by
    the triangular QR factor of those columns (y counts as one more column
    of A), zero on the pinned ones: exact and norm-preserving for every theta
    with the pinned parameters at zero, and a second call changes nothing."""
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
    """Stacked least-squares system (M, d) on the free parameters, with
    ridge fallback.  The blocks enter as they are, reduced or not.  A stack
    with cond > 1 / RANK_TOL gets micro-ridge rows sqrt(eps) * ||A|| * I,
    with a warning: eps * ||A||^2 on the normal matrix, the perturbation
    that forming A^T A in double precision already makes.  It damps only
    the directions whose singular value is below sqrt(eps) * ||A||.
    """
    Af = problem.A[:, free]
    parts = [Af]
    if problem.A_pen is not None and lam > 0.0:
        parts.append(math.sqrt(lam) * problem.A_pen[:, free])
    M = np.vstack(parts)
    d = np.concatenate([problem.y, np.zeros(M.shape[0] - Af.shape[0])])
    sv = np.linalg.svd(M, compute_uv=False)
    smin = sv[-1] if M.shape[0] >= M.shape[1] else 0.0  # a wide stack's zeros
    if sv.size and sv[0] > 0 and smin < RANK_TOL * sv[0]:
        anorm = np.linalg.norm(Af, 2) if Af.size else 0.0
        if anorm > 0.0:
            warnings.warn("rank-deficient stacked system; adding micro-ridge "
                          "(consider a positive penalty weight or a coarser grid)",
                          stacklevel=3)
            M = np.vstack([M, RIDGE * anorm * np.eye(M.shape[1])])
            d = np.concatenate([d, np.zeros(M.shape[1])])
    return M, d


def _reduce(M: np.ndarray, d: np.ndarray):
    """Triangular factor of [M | d]: ||M t - d|| = ||R t - c|| for every t."""
    Rc = np.linalg.qr(np.column_stack([M, d]), mode="r")
    return Rc[:, :-1], Rc[:, -1]


class _Factor:
    """One problem's factor, shared by its weights (module docstring):
    [A; A_pen] = [Q_A; Q_P] R0 on the free columns, Q_A = U C W^T, and s
    the column norms of Q_P W.  As A^T A + lam A_pen^T A_pen = L^T L with
    L = D W^T R0, D = diag(sqrt(c^2 + lam s^2)), a weight's target is
    D^-1 C U^T y and its LDP rows G L^-1 = (G R0^-1 W) D^-1."""

    def __init__(self, problem: CalibrationProblem):
        self.problem, self.free = problem, _free(problem)
        if self.free.size == 0:
            raise ValueError("all parameters are pinned")
        self.G = _ineq(problem, self.free)
        m, n = problem.A.shape[0], self.free.size
        blocks = [problem.A] if problem.A_pen is None else [problem.A, problem.A_pen]
        Q, R0 = np.linalg.qr(np.vstack(blocks)[:, self.free])
        self.cond = np.linalg.cond(R0) if R0.shape[0] == n else np.inf
        self.ldp = bool(self.cond <= FEAS_TOL / np.finfo(float).eps)
        if self.ldp:
            U, c, Wt = np.linalg.svd(Q[:m])
            self.c, self.b = np.zeros(n), np.zeros(n)
            self.c[:c.size], self.b[:c.size] = c, c * (U[:, :c.size].T @ problem.y)
            self.s = np.linalg.norm(Q[m:] @ Wt.T, axis=0)
            self.WtR0, self.Rinv = Wt @ R0, np.linalg.solve(R0, Wt.T)
            self.F = self.G @ self.Rinv

    def at(self, lam: float):
        """(R, c, working factor) at weight lam: L, D^-1 C U^T y and the LDP
        rows where the rule holds, else the stack's [R | c] and the rows G."""
        if self.ldp:
            d = np.sqrt(self.c ** 2 + lam * self.s ** 2)
            if self.cond * d.max() * RANK_TOL <= d.min():
                work = _WorkingFactor(self.F / d, self.Rinv / d)
                return d[:, None] * self.WtR0, self.b / d, work
        return *_reduce(*_stacked(self.problem, self.free, lam)), _WorkingFactor(self.G)


class _WorkingFactor:
    """Working rows of F (G itself, or with ``Rinv`` the LDP rows G R^-1)
    and the complete orthogonal factor of their transpose, F_W^T = Q[:, :k] T
    with T upper triangular; Q[:, k:] spans their null space.  An add
    applies one Householder reflector to the null-space columns, a drop
    restores T by a small QR of its Hessenberg block; ``rows`` and the
    columns of T follow the order of the adds.
    """

    def __init__(self, F: np.ndarray, Rinv: np.ndarray | None = None):
        n = F.shape[1]
        self.F, self.Rinv = F, Rinv
        self.Q = np.eye(n)
        self.T = np.zeros((n, n))
        self.rows: list = []
        self.mask = np.zeros(F.shape[0], dtype=bool)

    def add(self, j: int) -> None:
        """Append row j, which lies outside the working span."""
        k = len(self.rows)
        w = self.Q.T @ self.F[j]
        x = w[k:]
        # H = I - tau v v^T with v[0] = 1 maps x to beta e_1, scaled as
        # LAPACK's dlarfg: on rows of -I (``_nnls``) Q stays a signed
        # permutation, so pinned entries of a step are exactly zero
        beta = -math.copysign(math.sqrt(float(x @ x)), x[0])
        v = x / (x[0] - beta)
        v[0] = 1.0
        Zq = self.Q[:, k:]
        Zq -= (((beta - x[0]) / beta) * (Zq @ v))[:, None] * v
        self.T[:k, k] = w[:k]
        self.T[k, k] = beta
        self.rows.append(j)
        self.mask[j] = True

    def hand_over(self, rows) -> None:
        """Start from independent rows (an earlier solve's working set) with
        one QR of their transpose; raise ValueError if they are dependent."""
        rows, k = list(rows), len(rows)
        F = self.F[rows]
        Q, T = np.linalg.qr(F.T, mode="complete")
        if k > T.shape[0] or np.any(np.abs(np.diag(T)) <= INDEP_TOL * np.linalg.norm(F, axis=1)):
            raise ValueError("working rows are linearly dependent")
        self.Q, self.T[:k, :k], self.rows = Q, T[:k], rows
        self.mask[rows] = True

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
        """Minimise ||R t - c|| subject to G_W t = 0.  In the LDP form R t is
        the projection Z Z^T c and t follows by R^-1 with one refinement step;
        otherwise t = Z z with z from the triangular factor of [R Z | c]."""
        Z = self.Q[:, len(self.rows):]
        if self.Rinv is not None:
            u = Z @ (Z.T @ c)
            t = self.Rinv @ u
            return t + self.Rinv @ (u - R @ t)
        m = Z.shape[1]
        if not m:
            return np.zeros(R.shape[1])
        Rz, cz = _reduce(R @ Z, c)
        return Z @ np.linalg.solve(Rz[:m], cz[:m])

    def multipliers(self, R: np.ndarray, c: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Working-row multipliers at theta: solve F_W^T mu = -g with
        F_W^T = Q[:, :k] T and g the gradient in F's variable, 2 (R theta - c)
        in the LDP form and R^T times that on G."""
        k = len(self.rows)
        g = 2.0 * (R @ theta - c)
        if self.Rinv is None:
            g = R.T @ g
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


def _active_set_lsq(R, c, G, work, theta0, max_iter):
    """Primal active-set loop on ||R theta - c|| subject to G theta <= 0,
    from the seeded factor ``work``.  Returns (theta, working rows, their
    multipliers, iterations, adds, drops); adds and drops count the loop's
    changes of the working set, not the seed."""
    theta = theta0.copy()
    adds = drops = 0
    for it in range(1, max_iter + 1):
        trial = work.step(R, c)
        if np.all(G @ trial <= _feas_tol(trial)):
            theta = trial
        else:
            step = trial - theta
            t_best, j = _ratio_test(G, theta, step, work.mask)
            theta = theta + t_best * step
            if j >= 0:
                work.add(j)
                adds += 1
                continue
            if np.linalg.norm(step) >= STEP_TOL:
                continue
            # no progress and nothing to add: theta is the working set's optimum
        mu = work.multipliers(R, c, theta)
        if np.all(mu >= -MULT_TOL):
            return theta, work.rows, mu, it, adds, drops
        work.drop(int(np.argmin(mu)))
        drops += 1
    raise RuntimeError(f"active-set solver failed to converge in {max_iter} iterations")


def solve(problem: CalibrationProblem, theta0: np.ndarray | None = None,
          max_iter: int | None = None, working=None, *, _factor=None) -> Solution:
    """Solve the calibration QP.

    ``theta0`` may supply a feasible warm start, and ``working`` the rows to
    start from, e.g. the ``active_set`` of a solve at another weight that
    ended at ``theta0``: independence of rows does not depend on the weight.
    Without ``working`` the working set starts empty; the default start
    theta = 0 is feasible for the homogeneous constraints.  Cold starts on
    heavily constrained penalised problems first solve at 1e4x and 1e2x the
    target weight — smoother solutions have small active sets, so each
    stage hands its solution and working rows to the next and the total
    iteration count drops severalfold.  The stages share one reduced problem
    and its ``_Factor``, which ``lcurve`` passes as ``_factor`` for all its
    weights.  ``iterations``, ``adds`` and ``drops`` sum over the stages.
    """
    if isinstance(problem.lambda_pen, str):
        raise ValueError("lambda_pen is 'auto'; run lcurve() first and solve "
                         "with the chosen numeric weight")
    t_start = time.perf_counter()
    problem = _reduce_blocks(problem)
    factor = _Factor(problem) if _factor is None else _factor
    lam = float(problem.lambda_pen)
    warm, rows, stages = theta0, working, []
    if (theta0 is None and working is None and lam > 0.0 and problem.A_pen is not None
            and problem.A_ineq is not None and problem.A_ineq.shape[0] > 2 * problem.n_params):
        # Stage weights stay below the point where the penalty block drowns
        # the misfit rows in roundoff; there the subproblems turn degenerate.
        lam_cap = 1e8 * float(np.sum(problem.A ** 2)) / max(
            float(np.sum(problem.A_pen ** 2)), np.finfo(float).tiny)
        try:
            for stage_lam in (1e4 * lam, 1e2 * lam):
                if not lam < stage_lam < lam_cap:
                    continue
                stages.append(_solve_once(replace(problem, lambda_pen=stage_lam),
                                          factor, warm, rows, max_iter))
                warm, rows = stages[-1].theta, stages[-1].active_set
        except RuntimeError:
            warm, rows, stages = theta0, working, []
    stages.append(_solve_once(problem, factor, warm, rows, max_iter))
    return replace(stages[-1], iterations=sum(s.iterations for s in stages),
                   adds=sum(s.adds for s in stages), drops=sum(s.drops for s in stages),
                   wall_time=time.perf_counter() - t_start)


def _solve_once(problem: CalibrationProblem, factor: _Factor, theta0: np.ndarray | None,
                working, max_iter: int | None) -> Solution:
    """One stage at problem.lambda_pen; ``factor`` is the problem's at any weight."""
    t_start = time.perf_counter()
    n, free, G = problem.n_params, factor.free, factor.G
    start = np.zeros(free.size)
    if theta0 is not None:
        theta0 = np.asarray(theta0, dtype=float).ravel()
        if theta0.shape[0] != n:
            raise ValueError("theta0 has the wrong length")
        start = theta0[free]
        if np.any(G @ start > _feas_tol(start)):
            raise ValueError("theta0 is infeasible")
    if working is not None and not all(0 <= j < G.shape[0] for j in working):
        raise ValueError(f"working rows out of range 0..{G.shape[0] - 1}")

    R, c, work = factor.at(float(problem.lambda_pen))
    if working is not None:
        work.hand_over(working)
    cap = max_iter if max_iter is not None else 10 * free.size + 100
    th_free, rows, mu, iters, adds, drops = _active_set_lsq(R, c, G, work, start, cap)

    theta = np.zeros(n)
    theta[free] = th_free
    kkt = float(np.linalg.norm(2.0 * R.T @ (R @ th_free - c) + G[rows].T @ np.clip(mu, 0.0, None)))

    obj = float(np.sum((problem.A @ theta - problem.y) ** 2))
    if problem.A_pen is not None and float(problem.lambda_pen) > 0.0:
        obj += float(problem.lambda_pen) * float(np.sum((problem.A_pen @ theta) ** 2))
    return Solution(theta=theta, objective=obj, active_set=tuple(sorted(int(j) for j in rows)),
                    kkt_residual=kkt, iterations=iters, adds=adds, drops=drops,
                    wall_time=time.perf_counter() - t_start)


def _nnls(B: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimise ||B mu - b|| over mu >= 0 with the active-set loop above,
    every mu pinned at zero at the start as in Lawson & Hanson's NNLS; ridge
    rows sqrt(eps) * ||B|| * I keep a degenerate set of columns (more
    near-active rows than the rank) well posed."""
    k = B.shape[1]
    ridge = RIDGE * max(float(np.linalg.norm(B, 2)), np.finfo(float).tiny)
    R, c = _reduce(np.vstack([B, ridge * np.eye(k)]), np.concatenate([b, np.zeros(k)]))
    work = _WorkingFactor(-np.eye(k))
    work.hand_over(range(k))
    mu, *_ = _active_set_lsq(R, c, work.F, work, np.zeros(k), 10 * k + 100)
    return mu


def kkt_check(problem: CalibrationProblem, theta: np.ndarray):
    """Residual norms (stationarity, feasibility, complementarity) at theta.
    The near-active rows' multipliers are the nonnegative least-squares fit
    of the negated gradient, so stationarity is the smallest residual that
    any admissible multipliers leave."""
    if isinstance(problem.lambda_pen, str):
        raise ValueError("lambda_pen must be numeric for a KKT check")
    theta = np.asarray(theta, dtype=float).ravel()
    problem = _reduce_blocks(problem)
    free = _free(problem)
    M, d = _stacked(problem, free, float(problem.lambda_pen))
    th = theta[free]
    g = 2.0 * M.T @ (M @ th - d)
    G = _ineq(problem, free)
    slack = G @ th
    act = np.flatnonzero(slack >= -1e-8 * (1.0 + float(np.linalg.norm(th))))
    mu = _nnls(G[act].T, -g) if act.size else np.zeros(0)
    stat = float(np.linalg.norm(g + G[act].T @ mu))
    comp = float(np.max(np.abs(mu * slack[act]), initial=0.0))
    return stat, float(slack.max(initial=0.0)), comp


def discrete_curvature(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Menger curvature at interior vertices of a polyline (endpoints get 0):
    twice the triangle area (shoelace) over the product of the three side
    lengths, so collinear triples give exactly zero."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    kappa = np.zeros(x.size)
    ax, ay = x[1:-1] - x[:-2], y[1:-1] - y[:-2]
    bx, by = x[2:] - x[1:-1], y[2:] - y[1:-1]
    cx, cy = x[2:] - x[:-2], y[2:] - y[:-2]
    area2 = np.abs(ax * by - ay * bx)  # twice the triangle area
    denom = np.hypot(ax, ay) * np.hypot(bx, by) * np.hypot(cx, cy)
    np.divide(area2, denom, out=kappa[1:-1], where=denom > 0.0)
    return kappa


def default_lambda_grid(count: int = 25, low: float = 1e-10, high: float = 1e2) -> np.ndarray:
    return np.logspace(np.log10(low), np.log10(high), count)


def lcurve(problem: CalibrationProblem, lambda_grid=None) -> LCurveResult:
    """Sweep penalty weights, pick one decade below the L-curve corner and
    solve there.  All weights share one ``_Factor``.  Solves run from the
    largest weight down, each from the solution and working rows of the one
    above it (``solve``'s ``theta0`` and ``working``), and the chosen weight
    from those of the swept weight nearest it on a log scale.  Misfit is
    ``||A theta - y||^2`` and seminorm ``||A_pen theta||^2``.
    """
    if problem.A_pen is None:
        raise ValueError("lcurve requires a penalty operator")
    grid = default_lambda_grid() if lambda_grid is None else np.asarray(lambda_grid, dtype=float)
    if grid.size < 5:
        raise ValueError("need at least 5 penalty weights")
    if np.any(grid <= 0.0) or not np.all(np.diff(grid) > 0.0):
        raise ValueError("penalty weights must be positive and strictly increasing")

    reduced = _reduce_blocks(problem)
    factor = _Factor(reduced)  # one factor for every weight

    def solve_from(lam: float, start: Solution | None) -> Solution:
        sub = replace(reduced, lambda_pen=lam)
        if start is not None:
            try:
                return solve(sub, theta0=start.theta, working=start.active_set, _factor=factor)
            except ValueError:
                pass
        return solve(sub, _factor=factor)

    sols: list = []
    for lam in grid[::-1]:  # each from the one above it
        sols.insert(0, solve_from(float(lam), sols[0] if sols else None))
    misfits = np.array([float(np.sum((problem.A @ s.theta - problem.y) ** 2)) for s in sols])
    seminorms = np.array([float(np.sum((problem.A_pen @ s.theta) ** 2)) for s in sols])

    kappas = discrete_curvature(*np.log10(np.maximum([misfits, seminorms], 1e-300)))
    corner = int(np.argmax(kappas))
    lam_corner = float(grid[corner])
    lam = lam_corner / 10.0
    nearest = sols[int(np.argmin(np.abs(np.log(grid / lam))))]
    return LCurveResult(lambdas=grid, misfits=misfits, seminorms=seminorms,
                        kappas=kappas, corner_index=corner, lambda_corner=lam_corner,
                        lambda_chosen=lam, solution=solve_from(lam, nearest))
