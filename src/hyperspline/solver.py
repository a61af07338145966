"""Constrained linear least squares and penalty-weight selection.

The calibration problem is

    min ||A theta - y||^2 + lambda ||A_pen theta||^2
    s.t. A_ineq theta <= 0,  theta[fixed] = 0,

a convex QP solved with Goldfarb & Idnani's dual active-set method (Math.
Programming 27, 1983) in least-squares form; the normal equations are never
formed.  Each block taller than its free columns, [A | y] and A_pen, is
reduced to its triangular factor, and ``_Factor`` takes the generalized SVD
of the reduced [A; A_pen] once per problem or sweep in Paige & Saunders'
QR-plus-CS form (SIAM J. Numer. Anal. 18, 1981; Elden, BIT 22, 1982).  A
weight is then a diagonal scaling D of ||L theta - c||, L = D W^T R0.

That runs in the LDP form (Lawson & Hanson, Solving Least Squares Problems,
1974, ch. 23) where cond(R0) <= FEAS_TOL / eps, which bounds the roundoff
theta = R0^-1 W D^-1 u adds to G theta, and cond(R0) cond(D) <= 1 / RANK_TOL,
which keeps cond(L) under the ridge's threshold.  In u = L theta the rows
are F = G L^-1 and the metric is the identity: the optimum on a working set
is the projection u = Z Z^T c onto the null space Z = Q[:, k:] of F_W, then
theta = L^-1 u plus one refinement step.  Other weights (``_stacked``,
ridged or not) keep F = G and the metric R^T R, with a QR of R Z per step.
F_W^T = Q[:, :k] T and T^-1 are updated on each add and drop (Gill, Golub,
Murray & Saunders, Methods for modifying matrix factorizations, 1974).

The dual loop needs no feasible start.  It starts from the optimum on the
rows handed over from an earlier solve (``working``) or on none, dropping
rows with negative multipliers until that start is dual feasible, then adds
the most violated row (ties go to the smallest index), moving theta and the
multipliers until the row is active or a working multiplier reaches zero
and its row is dropped.  Violation is judged on G relative to max|theta|
(ADD_TOL): the rows of ``inequality_operator`` are unit-normalised, so
G @ theta carries the units of theta.  A violated row in the working span
that releases no multiplier is violated only by roundoff, theta = 0 being
feasible, and is skipped.  A loop that reaches its iteration cap raises.
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
    iterations: int  # steps of the loop: adds, drops and skipped rows
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
ADD_TOL = 1e-11
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
    with T upper triangular, and Ti = T^-1; Q[:, k:] spans their null space.
    An add applies one Householder reflector to the null-space columns, a
    drop restores T by a small QR of its Hessenberg block; ``rows`` and the
    columns of T follow the order of the adds.
    """

    def __init__(self, F: np.ndarray, Rinv: np.ndarray | None = None):
        self.F, self.Rinv, self.Q = F, Rinv, np.eye(F.shape[1])
        self.T, self.Ti = np.zeros_like(self.Q), np.zeros_like(self.Q)
        self.rows, self.mask = [], np.zeros(F.shape[0], dtype=bool)

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
        self.Ti[:k, k] = -(self.Ti[:k, :k] @ w[:k]) / beta
        self.Ti[k, k] = 1.0 / beta
        self.rows.append(j)
        self.mask[j] = True

    def hand_over(self, rows) -> None:
        """Start from independent rows (an earlier solve's working set) with
        one QR of their transpose; raise ValueError if they are dependent."""
        rows, k = list(rows), len(rows)
        if not all(0 <= j < self.F.shape[0] for j in rows):
            raise ValueError(f"working rows out of range 0..{self.F.shape[0] - 1}")
        F = self.F[rows]
        Q, T = np.linalg.qr(F.T, mode="complete")
        if k > T.shape[0] or np.any(np.abs(np.diag(T)) <= INDEP_TOL * np.linalg.norm(F, axis=1)):
            raise ValueError("working rows are linearly dependent")
        self.Q, self.T[:k, :k], self.rows = Q, T[:k], rows
        self.Ti[:k, :k] = np.linalg.inv(T[:k])
        self.mask[rows] = True

    def drop(self, p: int) -> None:
        """Remove the working row at position p."""
        k = len(self.rows)
        if p < k - 1:
            Qh, Rh = np.linalg.qr(self.T[p:k, p + 1:k], mode="complete")
            self.Q[:, p:k] = self.Q[:, p:k] @ Qh
            self.T[:p, p:k - 1] = self.T[:p, p + 1:k]
            self.T[p:k, p:k - 1] = Rh
            self.Ti[:k, p:k] = self.Ti[:k, p:k] @ Qh
        # T_new^-1 is T^-1 diag(I, Qh) without row p and column k - 1
        self.Ti[p:k - 1, :k - 1] = self.Ti[p + 1:k, :k - 1]
        self.T[:k, k - 1] = self.Ti[:k, k - 1] = 0.0
        self.T[k - 1, :k] = self.Ti[k - 1, :k] = 0.0
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
        return -(self.Ti[:k, :k] @ (self.Q[:, :k].T @ g))

    def directions(self, R: np.ndarray, j: int):
        """Goldfarb & Idnani's directions for adding row j, f_j = H z + F_W^T r
        with F_W z = 0, H = I in the LDP form and R^T R on G: (z in theta, r,
        f_j . z in F's variable), z = 0 where f_j lies in the working span."""
        k, f = len(self.rows), self.F[j]
        Z, Q1 = self.Q[:, k:], self.Q[:, :k]
        w = Z.T @ f
        z, gz, h = np.zeros(R.shape[1]), 0.0, f
        if np.linalg.norm(w) > INDEP_TOL * np.linalg.norm(f):
            if self.Rinv is not None:
                z, gz = self.Rinv @ (Z @ w), float(w @ w)
            else:  # z = Z (R Z)^+ (R Z)^+T Z^T f
                Rz = np.linalg.qr(R @ Z, mode="r")
                v = np.linalg.solve(Rz.T, w)
                z, gz = Z @ np.linalg.solve(Rz, v), float(v @ v)
                h = f - R.T @ (R @ z)
        return z, self.Ti[:k, :k] @ (Q1.T @ h), gz


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


def _dual_active_set(R, c, G, work, max_iter):
    """Goldfarb & Idnani's dual loop on ||R theta - c|| subject to
    G theta <= 0 from the seeded factor ``work``: a step s towards adding
    row p moves theta by -s z / 2, the multipliers mu by -s r and p's by s.
    Returns (theta, working rows, mu, iterations, adds, drops)."""
    theta = work.step(R, c)
    mu = work.multipliers(R, c, theta)
    adds = drops = 0
    p, skip = -1, np.zeros(G.shape[0], dtype=bool)  # skip: rows violated by roundoff
    for it in range(max_iter):  # it: the steps taken so far
        if p < 0:
            if mu.size and mu.min() < -MULT_TOL:  # the start is not dual feasible
                work.drop(int(np.argmin(mu)))
                drops += 1
                theta = work.step(R, c)
                mu = work.multipliers(R, c, theta)
                continue
            viol = np.append(np.where(work.mask | skip, -np.inf, G @ theta), -np.inf)
            p, mu_p = int(np.argmax(viol)), 0.0  # G.shape[0] where no row is violated
            if not viol[p] > ADD_TOL * max(1.0, float(np.max(np.abs(theta)))):
                return theta, work.rows, work.multipliers(R, c, theta), it, adds, drops
        z, r, gz = work.directions(R, p)
        ratios = np.append(np.divide(mu, r, out=np.full(r.size, np.inf), where=r > 0.0), np.inf)
        l = int(np.argmin(ratios))  # r.size where no working multiplier reaches zero
        s1 = ratios[l]
        s2 = 2.0 * float(G[p] @ theta) / gz if gz > 0.0 else np.inf
        if s1 == s2 == np.inf:  # in the working span: violated only by roundoff
            skip[p], p = True, -1  # and back to the working rows' optimum
            theta = work.step(R, c)
            mu = work.multipliers(R, c, theta)
            continue
        s = min(s1, s2)
        theta, mu, mu_p = theta - 0.5 * s * z, mu - s * r, mu_p + s
        skip[:] = False
        if s2 <= s1:
            work.add(p)
            adds += 1
            mu, p = np.append(mu, mu_p), -1
            theta = work.step(R, c)
        else:
            work.drop(l)
            drops += 1
            mu = np.delete(mu, l)
    raise RuntimeError(f"active-set solver failed to converge in {max_iter} iterations")


def solve(problem: CalibrationProblem, max_iter: int | None = None, working=None, *,
          _factor=None) -> Solution:
    """Solve the calibration QP, from the unconstrained optimum or from the
    rows named by ``working``, e.g. the ``active_set`` of a solve at another
    weight (independence of rows does not depend on the weight).  ``lcurve``
    passes its sweep's ``_Factor`` as ``_factor``."""
    if isinstance(problem.lambda_pen, str):
        raise ValueError("lambda_pen is 'auto'; run lcurve() first and solve "
                         "with the chosen numeric weight")
    t_start = time.perf_counter()
    problem = _reduce_blocks(problem)
    factor = _Factor(problem) if _factor is None else _factor
    n, free, G = problem.n_params, factor.free, factor.G
    R, c, work = factor.at(float(problem.lambda_pen))
    if working is not None:
        work.hand_over(working)
    cap = max_iter if max_iter is not None else 10 * free.size + 100
    th_free, rows, mu, iters, adds, drops = _dual_active_set(R, c, G, work, cap)

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
    """Minimise ||B x - b|| over x >= 0 by Lawson & Hanson's primal loop,
    from x = 0 with every entry pinned; exact zeros need a primal method.
    Ridge rows sqrt(eps) * ||B|| * I keep a degenerate set of columns (more
    near-active rows than the rank) well posed."""
    k = B.shape[1]
    ridge = RIDGE * max(float(np.linalg.norm(B, 2)), np.finfo(float).tiny)
    R, c = _reduce(np.vstack([B, ridge * np.eye(k)]), np.concatenate([b, np.zeros(k)]))
    work = _WorkingFactor(-np.eye(k))
    work.hand_over(range(k))
    G, x = work.F, np.zeros(k)
    for _ in range(10 * k + 100):
        trial = work.step(R, c)
        if np.all(G @ trial <= _feas_tol(trial)):
            x = trial
        else:
            step = trial - x
            t_best, j = _ratio_test(G, x, step, work.mask)
            x = x + t_best * step
            if j >= 0:
                work.add(j)
                continue
            if np.linalg.norm(step) >= STEP_TOL:
                continue
            # no progress and nothing to pin: x is the free entries' optimum
        mu = work.multipliers(R, c, x)
        if np.all(mu >= -MULT_TOL):
            return x
        work.drop(int(np.argmin(mu)))
    raise RuntimeError(f"NNLS failed to converge in {10 * k + 100} iterations")


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
    """Sweep penalty weights, pick one decade below the L-curve corner (the
    maximum discrete curvature of the log-log (misfit, seminorm) polyline)
    and solve there.  All weights share one ``_Factor``.  Solves run from the
    largest weight down, each from the working rows of the one above it, and
    the chosen weight from those of the swept weight nearest it on a log
    scale.  Misfit is ``||A theta - y||^2``, seminorm ``||A_pen theta||^2``.
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
        try:
            return solve(sub, working=start and start.active_set, _factor=factor)
        except ValueError:  # rows dependent at this weight: start cold
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
