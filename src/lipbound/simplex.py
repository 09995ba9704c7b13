"""Dense two-phase primal simplex with Bland's anti-cycling rule.

Solves  max c.x  subject to rows  a_i.x (<=, >=, =) b_i  and optional
per-variable lower/upper bounds. Variables with a finite lower bound are
shifted, those with only an upper bound reflected, and free ones split,
so that x = x0 + M s with s >= 0. Every row is then put in <= form: a >=
row is negated, an = row becomes two <= rows, and a finite upper bound on
a shifted variable adds one more. Each row gets a slack, and the slack
basis is the start.

Phase 1 (Chvatal 1983, Linear Programming, ch. 3) adds one auxiliary
column with -1 on every row whose right-hand side is negative, pivots it
in on the most negative row, which makes the basis feasible, and then
minimizes it. At every feasible basis the auxiliary's value is the
largest violation of the <= rows, so the LP is infeasible when its
minimum exceeds FEAS_TOL. Otherwise the auxiliary is pivoted out of the
basis (its row is dropped if it has no other nonzero entry) and phase 2
maximizes the objective. Everything is floating point with fixed
tolerances; no exact arithmetic. Unbounded problems report an improving
ray together with the basic feasible point it emanates from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import SimplexBreakdownError

LE, GE, EQ = "<=", ">=", "="

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_TOL = 1e-9  # ratio-test threshold
PIVOT_MIN = 1e-12  # below this a pivot is numerically meaningless
_MAX_ITERS = 50_000


class LinearProgram:
    """max objective.x subject to rows and per-variable bounds.

    rows: list of (coeffs, relation, rhs); bounds: per-variable (lower,
    upper) with None meaning unbounded on that side. from_arrays takes the
    rows already stacked. Either way construction checks the input and
    keeps it as A (rows x n), rel and b, plus lo and up with None as -inf
    and +inf.
    """

    def __init__(self, objective, rows: Sequence[tuple[np.ndarray, str, float]], bounds):
        objective = np.atleast_1d(np.asarray(objective, dtype=float))
        n, m = objective.shape[0], len(rows)
        coeffs, rels, rhs = zip(*rows) if m else ((), (), ())
        try:
            A = np.array(coeffs, dtype=float).reshape(m, -1) if m else np.zeros((0, n))
        except ValueError:
            A = None  # ragged rows; the loop below names the first bad one
        if A is None or A.shape[1] != n:
            for i, a in enumerate(coeffs):
                a = np.atleast_1d(np.asarray(a, dtype=float))
                if a.shape != (n,):
                    raise ValueError(f"row {i}: {a.shape[0]} coefficients for {n} variables")
        self._set(objective, A, np.array(rels, dtype=object), np.array(rhs, dtype=float), bounds)

    @classmethod
    def from_arrays(cls, objective, A, rel, b, bounds) -> "LinearProgram":
        """The LP with row i reading A[i].x rel[i] b[i]."""
        objective = np.atleast_1d(np.asarray(objective, dtype=float))
        A = np.asarray(A, dtype=float)
        rel, b = np.asarray(rel, dtype=object), np.asarray(b, dtype=float)
        n = objective.shape[0]
        if A.ndim != 2 or A.shape[1] != n:
            raise ValueError(f"row 0: {A.shape[-1]} coefficients for {n} variables")
        m = A.shape[0]
        if rel.shape != (m,) or b.shape != (m,):
            raise ValueError(f"{m} rows, {rel.size} relations, {b.size} right-hand sides")
        lp = cls.__new__(cls)
        lp._set(objective, A, rel, b, bounds)
        return lp

    def _set(self, objective, A, rel, b, bounds) -> None:
        n = objective.shape[0]
        if len(bounds) != n:
            raise ValueError(f"{len(bounds)} bounds for {n} variables")
        if not np.isfinite(objective).all():
            raise ValueError("objective has non-finite entries")
        bad = [i for i, r in enumerate(rel.tolist()) if r not in (LE, GE, EQ)]
        if bad:
            raise ValueError(f"row {bad[0]}: unknown relation {rel[bad[0]]!r}")
        bad = ~(np.isfinite(A).all(axis=1) & np.isfinite(b))
        if bad.any():
            raise ValueError(f"row {int(bad.argmax())}: non-finite entry")
        lo = np.array([-np.inf if bd[0] is None else bd[0] for bd in bounds], dtype=float)
        up = np.array([np.inf if bd[1] is None else bd[1] for bd in bounds], dtype=float)
        bad = lo > up
        if bad.any():
            j = int(bad.argmax())
            raise ValueError(f"variable {j}: lower bound {lo[j]} exceeds upper bound {up[j]}")
        self.objective, self.bounds = objective, bounds
        self.A, self.rel, self.b, self.lo, self.up = A, rel, b, lo, up

    @property
    def rows(self) -> list[tuple[np.ndarray, str, float]]:
        """The rows as (coeffs, relation, rhs) tuples."""
        return list(zip(self.A, self.rel.tolist(), self.b.tolist()))

    @property
    def n(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Optional[float]
    x: Optional[np.ndarray]  # optimum, or the feasible point a ray emanates from
    ray: Optional[np.ndarray]  # improving direction when unbounded
    pivots: int = 0  # simplex pivots, phase 1 and phase 2


def _pivot(T: np.ndarray, r: int, c: int) -> None:
    row = T[r] / T[r, c]
    T -= T[:, c, None] * row  # zeroes column c: row[c] is exactly 1
    T[r] = row


def _run_simplex(T: np.ndarray, basis: np.ndarray, ncols: int):
    """Iterate to optimality. Returns (status, entering column or None, pivots)."""
    rhs = T[:-1, -1]
    for it in range(_MAX_ITERS):
        negative = T[-1, :ncols] < -OPT_TOL
        c = int(negative.argmax())  # Bland: lowest index
        if not negative[c]:
            return "optimal", None, it
        col = T[:-1, c]
        eligible = (col > PIVOT_TOL).nonzero()[0]
        if eligible.size == 0:
            eligible = (col > PIVOT_MIN).nonzero()[0]
            if eligible.size == 0:
                return "unbounded", c, it
        ratios = rhs[eligible] / col[eligible]
        ties = eligible[ratios <= ratios.min() + 1e-12]
        r = int(ties[basis[ties].argmin()])  # Bland: lowest basic index
        _pivot(T, r, c)
        basis[r] = c
    raise SimplexBreakdownError(f"simplex did not finish within {_MAX_ITERS} iterations")


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve the LP. Returned points satisfy every constraint within 1e-8."""
    n = lp.n
    has_lo, has_up = np.isfinite(lp.lo), np.isfinite(lp.up)
    free = ~(has_lo | has_up)
    # x = x0 + M s: one column per variable, a second (negated) one for a free variable.
    width = 1 + free
    start = np.cumsum(width) - width
    ns = n + int(free.sum())
    M = np.zeros((n, ns))
    M[np.arange(n), start] = np.where(has_up & ~has_lo, -1.0, 1.0)
    M[free, start[free] + 1] = -1.0
    x0 = np.where(has_lo, lp.lo, np.where(has_up, lp.up, 0.0))

    # <= form: >= rows negated, = rows doubled, a row per boxed variable.
    sign = np.where(lp.rel == GE, -1.0, 1.0)
    eq = (lp.rel == EQ).nonzero()[0]
    boxed = (has_lo & has_up).nonzero()[0]
    A_s = lp.A @ M
    b_s = lp.b - lp.A @ x0
    A = np.vstack([sign[:, None] * A_s, -A_s[eq], M[boxed]])
    b = np.concatenate([sign * b_s, -b_s[eq], (lp.up - lp.lo)[boxed]])

    # Tableau: structural columns, one slack per row, the auxiliary, the rhs.
    m = A.shape[0]
    aux = ns + m
    T = np.zeros((m + 1, aux + 2))
    T[:m, :ns] = A
    T[:m, ns:aux] = np.eye(m)
    T[:m, -1] = b
    basis = np.arange(ns, aux)
    pivots = 0

    violated = b < 0
    if violated.any():
        T[:m, aux] = np.where(violated, -1.0, 0.0)
        T[-1, aux] = 1.0  # phase-1 cost: minimize the auxiliary
        r = int(b.argmin())
        _pivot(T, r, aux)
        basis[r] = aux
        status, _, it = _run_simplex(T, basis, aux + 1)
        pivots += 1 + it
        if status != "optimal":
            raise SimplexBreakdownError("phase 1 reported unbounded; the auxiliary is bounded below")
        if -T[-1, -1] > FEAS_TOL:
            return LpSolution("infeasible", None, None, None, pivots)
        if (basis == aux).any():
            r = int((basis == aux).argmax())
            choices = (np.abs(T[r, :aux]) > PIVOT_MIN).nonzero()[0]
            if choices.size:
                _pivot(T, r, int(choices[0]))
                basis[r] = choices[0]
                pivots += 1
            else:
                T, basis = np.delete(T, r, axis=0), np.delete(basis, r)

    # Phase 2: minimize -c.x over the columns before the auxiliary, which stays at 0.
    T[-1] = 0.0
    T[-1, :ns] = -(lp.objective @ M)
    T[-1] -= T[-1, basis] @ T[:-1]
    status, enter, it = _run_simplex(T, basis, aux)
    pivots += it

    s = np.zeros(aux)
    s[basis] = np.maximum(T[:-1, -1], 0.0)
    x = x0 + M @ s[:ns]
    if status == "unbounded":
        ray_s = np.zeros(aux)
        ray_s[enter] = 1.0
        ray_s[basis] = -T[:-1, enter]
        ray_s[np.abs(ray_s) <= PIVOT_MIN] = 0.0
        return LpSolution("unbounded", None, x, M @ ray_s[:ns], pivots)
    return LpSolution("optimal", float(lp.objective @ x), x, None, pivots)
