"""Constrained linear least squares and penalty-weight selection.

The calibration problem is

    min ||A theta - y||^2 + lambda ||A_pen theta||^2
    s.t. A_ineq theta <= 0,  theta[fixed] = 0,

a convex QP solved with Goldfarb & Idnani's dual active-set method (Math.
Programming 27, 1983) in least-squares form; the normal equations are never
formed.  ``_blocks`` cuts a problem to its free columns and reduces [A | y]
with more than n + 1 rows, n the problem's columns, and A_pen with more
than n to their triangular factors (the rows of ``model.reduced_design``
and the separable split's penalty already are).  ``_Factor`` keeps those
blocks and takes the generalized SVD of [A; A_pen] once per problem or sweep
in Paige & Saunders' QR-plus-CS form (SIAM J. Numer. Anal. 18, 1981; Elden,
BIT 22, 1982), of A alone where no A_pen is stacked (a fit at weight 0):
its QR, C = W = I.  A weight is then a diagonal scaling D of ||L theta - c||,
L = D W^T R0, and of the LDP rows G L^-1 = B D^-1: B = G R0^-1 W, B * B and
[B; R0^-1 W] are formed once per factor, so a weight forms only its d.

Every weight runs in that LDP form (Lawson & Hanson, Solving Least Squares
Problems, 1974, ch. 23): the loop moves u = L theta, with rows F = G L^-1
and the identity metric.  A working set's optimum is the projection
u = Z Z^T c onto the null space Z = Q[:, k:] of F_W, a direction is
Z Z^T f_p, and theta = L^-1 u plus one refinement step is formed once per
solve.  A row of F is B_j / d, the row norms are sqrt((B * B) d^-2), and
the pricing's F u and the theta of its tolerance come from one product
[B; R0^-1 W] (u / d).  A weight takes the problem's factor where
cond(R0) <= FEAS_TOL / eps, which bounds the roundoff
theta = R0^-1 W D^-1 u adds to G theta, and cond(R0) cond(D) <= 1 / RANK_TOL,
which keeps cond(L) under the ridge's threshold.  Both rules read cond(R0)
as its upper bound ||R0||_F ||R0^-1||_F, R0^-1 being formed for L^-1 anyway,
and an SVD gives cond(R0) itself only where the bound fails a rule
(``_Factor._holds``).  Any other weight takes the factor of its own
problem (``_stacked``): the stack M = [A; sqrt(lam) A_pen], ridged or not,
with the penalty ||M|| I, whose R0 has cond <= sqrt(2).

Of F_W^T = Q[:, :k] T only Q^T, stored row-major so that its working rows
Q^T[:k] and null-space rows Q^T[k:] are contiguous blocks, and T^-1 are
kept.  Handed-over rows enter with one complete QR
of F_W^T, T^-1 coming from ``_triangular_inverse``; then an add is one
Householder reflector on the null-space rows (Gill, Golub, Murray &
Saunders, 1974), a drop one on the working rows and on the columns of T^-1,
as row p of T^-1 is orthogonal to the other working columns of T.

The dual loop needs no feasible start: from the optimum on the rows handed
over by an earlier solve (``working``) or on none, it drops the row with the
most negative mu_j ||F_j|| until that start is dual feasible.  Then, of the
rows with F_j x > ADD_TOL max(1, max|theta|) (``inequality_operator``'s rows
are unit-normalised, so G theta = F u has theta's units), it adds the one
farthest from its hyperplane in the metric, F_j x / ||F_j|| (ties go to the
smallest index), moving x and the multipliers until the row is active or a
working multiplier reaches zero and its row is dropped.  A violated row in
the working span that releases no multiplier is violated only by roundoff,
theta = 0 being feasible, and is skipped.  The cap is tied to the problem's
size, 10 (n + m) + 100 steps for n free parameters and m rows, and a loop
at its cap raises.  ``solve`` on the rows -I with a micro-ridge gives
``kkt_check``'s nonnegative multipliers (``_nnls``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np


@dataclass
class CalibrationProblem:
    """Data, penalty, constraints and pinned parameters of one calibration."""

    A: np.ndarray
    y: np.ndarray
    A_pen: np.ndarray | None = None
    lambda_pen: float = 0.0
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
        if isinstance(self.lambda_pen, str) or self.lambda_pen < 0.0:
            raise ValueError("lambda_pen must be a nonnegative number")
        self.lambda_pen = float(self.lambda_pen)
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


@dataclass
class LCurveResult:
    lambdas: np.ndarray
    misfits: np.ndarray
    seminorms: np.ndarray
    kappas: np.ndarray
    corner_index: int
    lambda_corner: float
    lambda_chosen: float  # the swept weight nearest lambda_corner / 10
    solution: Solution  # the sweep's fit at lambda_chosen
    iterations: int  # loop steps of every swept weight's solve


FEAS_TOL = 1e-9
ADD_TOL = 1e-11
MULT_TOL = 1e-10
INDEP_TOL = 1e-10
RANK_TOL = 1e-12
RIDGE = math.sqrt(np.finfo(float).eps)


def _blocks(problem: CalibrationProblem):
    """(free, A, y, A_pen, G): the problem's blocks on its free columns.  A
    data block of more than n + 1 rows, n the problem's columns, and a
    penalty of more than n rows become their triangular QR factors, which
    keep ||A t - y|| and ||A_pen t|| for every t; a block no taller, such
    as the n + 1 rows of ``model.reduced_design`` or the separable split's
    penalty factors, enters as it is.  G, the inequality rows, has none
    without A_ineq.  A factor is stored column-major, as a column slice is,
    so a product with a block (``kkt_check``'s gradient) takes one BLAS
    path whether the block was reduced or not."""
    free = np.array([i for i in range(problem.n_params) if i not in problem.fixed_zero], dtype=int)
    A, y, A_pen = problem.A[:, free], problem.y, problem.A_pen
    if A.shape[0] > problem.n_params + 1:  # [A | y] = Q [R | c]
        Rc = np.linalg.qr(np.column_stack([A, y]), mode="r")
        A, y = np.asfortranarray(Rc[:, :-1]), Rc[:, -1]
    if A_pen is not None:
        A_pen = A_pen[:, free]
        if A_pen.shape[0] > problem.n_params:
            A_pen = np.asfortranarray(np.linalg.qr(A_pen, mode="r"))
    G = np.zeros((0, free.size)) if problem.A_ineq is None else problem.A_ineq[:, free]
    return free, A, y, A_pen, G


def _stacked(A: np.ndarray, y: np.ndarray, A_pen: np.ndarray | None, lam: float,
             G: np.ndarray | None = None) -> CalibrationProblem:
    """The weight's own problem on the free-column blocks, which enter as
    they are, reduced or not: the stack M = [A; sqrt(lam) A_pen] with target
    [y; 0], the rows G and the penalty ||M||_2 I, at weight 0.  Where
    cond(M) > 1 / RANK_TOL the weight is (sqrt(eps) ||A|| / ||M||)^2 instead,
    with a warning: the micro-ridge rows sqrt(eps) * ||A|| * I, that is
    eps * ||A||^2 on the normal matrix, the perturbation that forming A^T A
    in double precision already makes.  It damps only the directions whose
    singular value is below sqrt(eps) * ||A||.
    """
    parts = [A]
    if A_pen is not None and lam > 0.0:
        parts.append(math.sqrt(lam) * A_pen)
    M = np.vstack(parts)
    sv = np.linalg.svd(M, compute_uv=False)
    smin = sv[-1] if M.shape[0] >= M.shape[1] else 0.0  # a wide stack's zeros
    ridge = 0.0
    if sv.size and sv[0] > 0 and smin < RANK_TOL * sv[0]:
        anorm = np.linalg.norm(A, 2) if A.size else 0.0
        if anorm > 0.0:
            warnings.warn("rank-deficient stacked system; adding micro-ridge "
                          "(consider a positive penalty weight or a coarser grid)",
                          stacklevel=3)
            ridge = (RIDGE * anorm / sv[0]) ** 2
    return CalibrationProblem(M, np.concatenate([y, np.zeros(M.shape[0] - A.shape[0])]),
                              sv[0] * np.eye(M.shape[1]), ridge, G)


TRI_BLOCK = 24


def _triangular_inverse(T: np.ndarray) -> np.ndarray:
    """X = T^-1 of a nonsingular upper triangular T, by blocks J of TRI_BLOCK
    columns: X[J, J] inverts T[J, J] (an LU of a triangle needs no pivot)
    and X[:j, J] = -X[:j, :j] T[:j, J] X[J, J] uses the columns before it."""
    k = T.shape[0]
    X = np.zeros((k, k))
    for j in range(0, k, TRI_BLOCK):
        J = slice(j, min(j + TRI_BLOCK, k))
        X[J, J] = np.linalg.inv(T[J, J])
        if j:
            X[:j, J] = -(X[:j, :j] @ T[:j, J]) @ X[J, J]
    return X


class _Factor:
    """One problem's blocks (``_blocks``) and factor, shared by its weights
    (module docstring): [A; A_pen] = [Q_A; Q_P] R0, Q_A = U C W^T, and s
    the column norms of Q_P W, or with no penalty rows the QR alone, U = Q,
    C = W = I and s = 0.  As A^T A + lam A_pen^T A_pen = L^T L with
    L = D W^T R0, D = diag(sqrt(c^2 + lam s^2)), a weight's target is
    D^-1 C U^T y and its LDP rows G L^-1 = B D^-1.  The weight-independent
    B = G R0^-1 W, B * B and the stack [B; R0^-1 W] are kept, so a weight
    forms only d.  The LDP rules read cond(R0) through ``_holds``: first
    as its upper bound ||R0||_F ||R0^-1||_F, then, where a rule fails on
    the bound, as np.linalg.cond, so the factor is the one cond(R0) picks;
    cond is infinite where max |R0_ii| / min |R0_ii|, a lower bound,
    already exceeds FEAS_TOL / eps."""

    def __init__(self, problem: CalibrationProblem):
        self.free, self.A, self.y, self.A_pen, self.G = _blocks(problem)
        if self.free.size == 0:
            raise ValueError("all parameters are pinned")
        m, n = self.A.shape[0], self.free.size
        Q, R0 = np.linalg.qr(np.vstack([self.A] if self.A_pen is None else [self.A, self.A_pen]))
        limit = FEAS_TOL / np.finfo(float).eps
        self.R0, self.cond, self.cond_exact = R0, np.inf, True
        r = np.abs(np.diagonal(R0))
        if R0.shape[0] == n and 0.0 < r.max() <= limit * r.min():
            R0inv = _triangular_inverse(R0)
            self.cond, self.cond_exact = float(np.linalg.norm(R0) * np.linalg.norm(R0inv)), False
        self.ldp = self._holds(lambda cond: cond <= limit)
        if self.ldp:  # Q_A = Q is orthonormal where no penalty rows are stacked
            U, c, Wt = (Q, np.ones(n), np.eye(n)) if Q.shape[0] == m else np.linalg.svd(Q[:m])
            self.c, self.b = np.zeros(n), np.zeros(n)
            self.c[:c.size], self.b[:c.size] = c, c * (U[:, :c.size].T @ self.y)
            # a transposed view as a BLAS operand gives bits that depend on the thread count
            W = np.ascontiguousarray(Wt.T)
            self.s = np.linalg.norm(np.ascontiguousarray(Q[m:]) @ W, axis=0)
            self.WtR0, Rinv = Wt @ R0, R0inv @ W
            self.stack = np.vstack([self.G @ Rinv, Rinv])
            self.BB = self.stack[:self.G.shape[0]] ** 2

    def _holds(self, rule) -> bool:
        """rule(cond(R0)) for a rule that holds for every smaller cond."""
        if not rule(self.cond) and not self.cond_exact:  # the bound does not settle it
            self.cond, self.cond_exact = float(np.linalg.cond(self.R0)), True
        return bool(rule(self.cond))

    def at(self, lam: float, working=None):
        """(L, D^-1 C U^T y, working factor) at weight lam, the factor
        starting from the rows ``working`` where they are given.  Where a
        rule fails they come from the factor of the weight's own problem
        (``_stacked``) at its weight, L^T L = M^T M plus any micro-ridge:
        its R0 factors [M; ||M|| I], so cond(R0) <= sqrt(2), and its form
        is taken as it is, with no second fallback."""
        if self.ldp:
            d = np.sqrt(self.c ** 2 + lam * self.s ** 2)
            if self._holds(lambda cond: cond * d.max() * RANK_TOL <= d.min()):
                return self._form(d, working)
        own = _stacked(self.A, self.y, self.A_pen, lam, self.G)
        factor = _Factor(own)
        if not factor.ldp:  # only M = 0 leaves R0 singular
            raise np.linalg.LinAlgError("the stacked system is zero")
        return factor._form(np.sqrt(factor.c ** 2 + own.lambda_pen * factor.s ** 2), working)

    def _form(self, d: np.ndarray, working):
        return d[:, None] * self.WtR0, self.b / d, _WorkingFactor(self.stack, d, self.BB, working)


def _reflector(x: np.ndarray):
    """(beta, tau, v), H = I - tau v v^T, v[0] = 1, H x = beta e_1, scaled as
    LAPACK's dlarfg: H maps signed unit vectors to signed unit vectors, so on
    rows of -I every add and drop keeps Q a signed permutation, with exact
    zeros."""
    beta = -math.copysign(math.sqrt(float(x @ x)), x[0])
    v = x / (x[0] - beta)
    v[0] = 1.0
    return beta, (beta - x[0]) / beta, v


class _WorkingFactor:
    """The loop's rows F, their norms and the factor of its working rows
    (module docstring).  ``stack`` = [B; R0^-1 W] and ``BB`` = B * B, shared
    by a sweep, and the weight's scaling d give F = B D^-1 and
    L^-1 = R0^-1 W D^-1.  Qt = Q^T and Ti = T^-1 of F_W^T = Q[:, :k] T;
    ``rows`` and Ti's rows follow the adds.  The factor starts from the rows
    ``rows`` (``hand_over``) or, without them, from none."""

    def __init__(self, stack: np.ndarray, d: np.ndarray, BB: np.ndarray, rows=None):
        n = stack.shape[1]
        self.stack, self.d, self.Ti = stack, d, np.zeros((n, n))
        self.B, self.Rinv = stack[:-n], stack[-n:]
        self.norms = np.sqrt(BB @ (1.0 / d ** 2))
        self.rows, self.mask = [], np.zeros(self.B.shape[0], dtype=bool)
        if rows is None:
            self.Qt = np.eye(n)
        else:
            self.hand_over(rows)

    def row(self, j) -> np.ndarray:
        """Row j of F (rows j for a list)."""
        return self.B[j] / self.d

    def price(self, x: np.ndarray):
        """(F x, theta at x before refinement) from one product."""
        y = self.stack @ (x / self.d)
        return y[:self.B.shape[0]], y[self.B.shape[0]:]

    def add(self, j: int, w: np.ndarray | None = None) -> None:
        """Append row j, which lies outside the working span; w = Q^T F[j]
        where ``directions`` has formed it."""
        k = len(self.rows)
        w = self.Qt @ self.row(j) if w is None else w
        beta, tau, v = _reflector(w[k:])
        self.Qt[k:] -= v[:, None] * (tau * (v @ self.Qt[k:]))
        self.Ti[:k, k] = (self.Ti[:k, :k] @ w[:k]) / -beta
        self.Ti[k, k] = 1.0 / beta
        self.rows.append(j)
        self.mask[j] = True

    def hand_over(self, rows) -> None:
        """Start from independent rows (an earlier solve's working set) with
        one QR of their transpose.  Rows out of range, repeated or too many
        raise ValueError, rows the QR finds dependent RuntimeError."""
        rows, k = list(rows), len(rows)
        if rows and not (0 <= min(rows) and max(rows) < self.B.shape[0]):
            raise ValueError(f"working rows out of range 0..{self.B.shape[0] - 1}")
        if len(set(rows)) < k or k > self.B.shape[1]:
            raise ValueError("working rows repeat or outnumber the columns: they are dependent")
        Q, T = np.linalg.qr(self.row(rows).T, mode="complete")
        if np.any(np.abs(np.diag(T)) <= INDEP_TOL * self.norms[rows]):
            raise RuntimeError("handed-over working rows are numerically dependent")
        self.Qt, self.rows = np.ascontiguousarray(Q.T), rows
        self.Ti[:k, :k] = _triangular_inverse(T[:k])
        self.mask[rows] = True

    def drop(self, p: int) -> None:
        """Remove the working row at position p: with H the reflector taking
        row p of Ti to e_k, Q[:, :k] H turns its last column out of the other
        rows' span, and Ti H without row p and column k - 1 inverts the rest.
        H acts only from the first nonzero column a of row p: the entries
        left of a are exact zeros, which leave the reflector unchanged."""
        k = len(self.rows)
        a = int(np.flatnonzero(self.Ti[p, :k])[0])
        _, tau, v = _reflector(self.Ti[p, a:k][::-1])
        v = v[::-1]
        self.Qt[a:k] -= v[:, None] * (tau * (v @ self.Qt[a:k]))
        self.Ti[:k, a:k] -= (tau * (self.Ti[:k, a:k] @ v))[:, None] * v
        self.Ti[p:k - 1] = self.Ti[p + 1:k]
        self.Ti[k - 1] = self.Ti[:k, k - 1] = 0.0
        self.mask[self.rows.pop(p)] = False

    def step(self, c: np.ndarray) -> np.ndarray:
        """Minimise ||u - c|| subject to F_W u = 0: the projection Z Z^T c."""
        Zt = self.Qt[len(self.rows):]
        return (Zt @ c) @ Zt

    def theta(self, x: np.ndarray, R: np.ndarray | None = None) -> np.ndarray:
        """theta = L^-1 u at the loop's x = u, refined once given R = L."""
        t = self.Rinv @ (x / self.d)
        return t if R is None else t + self.Rinv @ ((x - R @ t) / self.d)

    def multipliers(self, c: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Working-row multipliers at x, F_W^T mu = -g, g = 2 (x - c)."""
        k = len(self.rows)
        return (self.Ti[:k, :k] @ (self.Qt[:k] @ (x - c))) * -2.0

    def directions(self, j: int):
        """Goldfarb & Idnani's directions for adding row j, f_j = z + F_W^T r
        with F_W z = 0: (z, r, f_j . z, Q^T f_j for ``add``, f_j), z None
        where f_j lies in the working span."""
        k, f = len(self.rows), self.row(j)
        qf = self.Qt @ f
        w = qf[k:]
        z, gz, ww = None, 0.0, float(w @ w)
        if ww > (INDEP_TOL * self.norms[j]) ** 2:
            z, gz = w @ self.Qt[k:], ww
        return z, self.Ti[:k, :k] @ qf[:k], gz, qf, f


def _dual_active_set(c, work, max_iter=None):
    """Goldfarb & Idnani's dual loop on ||x - c|| subject to F x <= 0, x = u,
    from the seeded factor ``work``: a step s towards adding row p moves x
    by -s z / 2, the multipliers mu by -s r and p's by s.  The cap is
    10 (columns + rows of F) + 100 unless ``max_iter`` is given.  Returns
    (x, working rows, mu, iterations, adds, drops)."""
    norms = work.norms
    m, n = work.B.shape
    if max_iter is None:
        max_iter = 10 * (n + m) + 100
    x = work.step(c)
    mu = work.multipliers(c, x)
    adds = drops = 0
    p, skip, skipped = -1, np.zeros(m, dtype=bool), False  # skip: rows violated by roundoff
    dist, ratio_buf = np.empty(m + 1), np.empty(n + 1)
    for it in range(max_iter):  # it: the steps taken so far
        if p < 0:
            if mu.size and mu.min() < -MULT_TOL:  # the start is not dual feasible
                work.drop(int((mu * norms[work.rows]).argmin()))
                drops += 1
                x = work.step(c)
                mu = work.multipliers(c, x)
                continue
            Fx, th = work.price(x)
            tol = ADD_TOL * max(1.0, float(np.abs(th).max()))
            dist.fill(-np.inf)  # the violated rows' distances
            blocked = (work.mask | skip) if skipped else work.mask
            np.divide(Fx, norms, out=dist[:-1], where=(Fx > tol) & ~blocked)
            p, mu_p = int(dist.argmax()), 0.0
            if dist[p] == -np.inf:  # no row is violated
                return x, work.rows, work.multipliers(c, x), it, adds, drops
        z, r, gz, qf, f = work.directions(p)
        ratios = ratio_buf[:r.size + 1]  # r.size where no working multiplier reaches zero
        ratios.fill(np.inf)
        np.divide(mu, r, out=ratios[:-1], where=r > 0.0)
        l = int(ratios.argmin())
        s1 = float(ratios[l])
        s2 = 2.0 * float(f @ x) / gz if gz > 0.0 else np.inf
        if s1 == s2 == np.inf:  # in the working span: violated only by roundoff
            skip[p], p, skipped = True, -1, True  # and back to the working rows' optimum
            x = work.step(c)
            mu = work.multipliers(c, x)
            continue
        s = min(s1, s2)
        if z is not None:
            x = x - 0.5 * s * z
        mu, mu_p = mu - s * r, mu_p + s
        if skipped:
            skip[:], skipped = False, False
        if s2 <= s1:
            work.add(p, qf)
            adds += 1
            mu, p = np.concatenate((mu, (mu_p,))), -1
            x = work.step(c)
        else:
            work.drop(l)
            drops += 1
            mu = np.concatenate((mu[:l], mu[l + 1:]))
    raise RuntimeError(f"active-set solver failed to converge in {max_iter} iterations")


def solve(problem: CalibrationProblem, max_iter: int | None = None, working=None, *,
          _factor=None) -> Solution:
    """Solve the calibration QP, from the unconstrained optimum or from the
    rows named by ``working``, e.g. the ``active_set`` of a solve at another
    weight (independence of rows does not depend on the weight).  ``lcurve``
    passes the ``_Factor`` of the problem it sweeps as ``_factor``; then only
    the problem's weight and parameter count are read."""
    factor = _Factor(problem) if _factor is None else _factor
    lam = problem.lambda_pen
    R, c, work = factor.at(lam, working)
    x, rows, mu, iters, adds, drops = _dual_active_set(c, work, max_iter)
    free, A, y, A_pen, G = factor.free, factor.A, factor.y, factor.A_pen, factor.G
    theta, th = np.zeros(problem.n_params), work.theta(x, R)
    theta[free] = th
    kkt = float(np.linalg.norm(2.0 * R.T @ (R @ th - c) + G[rows].T @ np.clip(mu, 0.0, None)))

    obj = float(np.sum((A @ th - y) ** 2))
    if A_pen is not None and lam > 0.0:
        obj += lam * float(np.sum((A_pen @ th) ** 2))
    return Solution(theta=theta, objective=obj, active_set=tuple(sorted(map(int, rows))),
                    kkt_residual=kkt, iterations=iters, adds=adds, drops=drops)


def _nnls(B: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimise ||B x - b|| over x >= 0: ``solve`` on the rows -I with the
    penalty ||B|| I at weight eps, the micro-ridge rows sqrt(eps) ||B|| I,
    which keep a degenerate set of columns (more near-active rows than the
    rank) well posed.  The entries its working rows hold are exactly 0.0;
    the others are one least-squares solve of [B; sqrt(eps) ||B|| I] on
    their columns, so the residual does not carry the roundoff of theta's
    map from the loop's variable."""
    k = B.shape[1]
    scale = max(float(np.linalg.norm(B, 2)), np.finfo(float).tiny)
    held = solve(CalibrationProblem(B, b, scale * np.eye(k), RIDGE ** 2, -np.eye(k))).active_set
    free = np.setdiff1d(np.arange(k), held)
    x = np.zeros(k)
    x[free] = np.linalg.lstsq(np.vstack([B[:, free], RIDGE * scale * np.eye(free.size)]),
                              np.concatenate([b, np.zeros(free.size)]))[0]
    return x


def kkt_check(problem: CalibrationProblem, theta: np.ndarray):
    """Residual norms (stationarity, feasibility, complementarity) at theta.
    The near-active rows' multipliers are the nonnegative least-squares fit
    of the negated gradient, so stationarity is the smallest residual that
    any admissible multipliers leave."""
    free, A, y, A_pen, G = _blocks(problem)
    own = _stacked(A, y, A_pen, problem.lambda_pen)
    th = np.asarray(theta, dtype=float).ravel()[free]
    g = 2.0 * own.A.T @ (own.A @ th - own.y)
    if own.lambda_pen > 0.0:  # the micro-ridge
        g += 2.0 * own.lambda_pen * (own.A_pen.T @ (own.A_pen @ th))
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
    """Sweep penalty weights (``problem.lambda_pen`` is not read) and pick
    the swept weight nearest, on a log scale, to one decade below the
    L-curve corner (the maximum discrete curvature of the log-log (misfit,
    seminorm) polyline); its swept solve is the fit.  All weights share one
    ``_Factor``.  Solves run from the largest weight down, each from the
    working rows of the one above it.  Misfit is ``||A theta - y||^2``,
    seminorm ``||A_pen theta||^2``.
    """
    if problem.A_pen is None:
        raise ValueError("lcurve requires a penalty operator")
    grid = default_lambda_grid() if lambda_grid is None else np.asarray(lambda_grid, dtype=float)
    if grid.size < 5:
        raise ValueError("need at least 5 penalty weights")
    if np.any(grid <= 0.0) or not np.all(np.diff(grid) > 0.0):
        raise ValueError("penalty weights must be positive and strictly increasing")

    factor = _Factor(problem)  # one factor for every weight
    sols: list = []
    for lam in grid[::-1]:  # each from the working rows of the one above it
        sols.insert(0, solve(replace(problem, lambda_pen=float(lam)),
                             working=sols[0].active_set if sols else None, _factor=factor))
    misfits = np.array([float(np.sum((problem.A @ s.theta - problem.y) ** 2)) for s in sols])
    seminorms = np.array([float(np.sum((problem.A_pen @ s.theta) ** 2)) for s in sols])

    kappas = discrete_curvature(*np.log10(np.maximum([misfits, seminorms], 1e-300)))
    corner = int(np.argmax(kappas))
    lam_corner = float(grid[corner])
    chosen = int(np.argmin(np.abs(np.log(grid / (lam_corner / 10.0)))))
    return LCurveResult(lambdas=grid, misfits=misfits, seminorms=seminorms,
                        kappas=kappas, corner_index=corner, lambda_corner=lam_corner,
                        lambda_chosen=float(grid[chosen]), solution=sols[chosen],
                        iterations=sum(s.iterations for s in sols))
