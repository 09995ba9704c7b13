"""Dense two-phase primal simplex with Bland's anti-cycling rule.

Solves  max c.x  subject to the rows  A x <= b  and optional per-variable
lower/upper bounds. That is the one row form: every LP lipbound builds has
only <= rows (a >= row is stated negated, an = row as such a pair). Variables
with a finite lower bound are shifted, those with only an upper bound
reflected, and free ones split, so that x = x0 + M s with s >= 0. A finite
upper bound on a shifted variable adds one more row. Each row gets a slack,
and the slack basis is the start.

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

Warm starts (Chvatal 1983, ch. 10; Koberstein 2005, PhD thesis, TU
Berlin). lp_tableau is lp_solve that also keeps an optimal final tableau.
append_row adds one more <= row to a kept tableau, with its slack basic,
so the basis stays dual feasible, and dual_simplex re-optimizes it in
place: the leaving row is the infeasible one with the lowest basic index,
the entering column the lowest index that _ratio_ties, the primal loop's
ratio test too, returns for the cost row over the negated leaving row.
Every basis it visits is dual feasible, so its objective bounds the
optimum from above, and the caller's keep(bound) test can stop it early.

A symbolic right-hand side (the big-M method with M kept symbolic:
Bazaraa, Jarvis & Sherali, Linear Programming and Network Flows; Chvatal
1983, ch. 10, on parametric right-hand sides; the symbol is written W
here, as M names the column map). symbolic_rhs raises one <= row's
right-hand side from b_i to b_i + W, W a symbolic +infinity;
capping the objective this way (c.x <= W) leaves every LP bounded, and
the basis dual feasible. Each right-hand side is then a pair (constant,
coefficient of W): raising b_i moves the basic values along B^-1 e_i,
the tableau column of row i's slack, which is therefore the W part of
every right-hand side, the cost row's entry that of the objective. So
the W parts need no column of their own, and every pivot updates them.
Pairs compare lexicographically: a right-hand side is infeasible when
its W part is below -FEAS_TOL, or within FEAS_TOL of zero with a
constant below -FEAS_TOL, and the objective is +inf when its W part
exceeds OPT_TOL; such an optimum is reported with no point. The cap's
slack is basic exactly when the LP without the cap is bounded, and
append_row then drops the cap's row and column.

Stacks. lp_stack solves k LPs that share the objective and the bounds,
and differ only in their rows, as one array of k compact tableaus, the
dictionary form (Chvatal 1983, ch. 2-3): the rows and the cost row over
the structural columns, the auxiliary and the right-hand side, and an
array that names each column's variable. The m basic variables' unit
columns, which never change and fill most of a slack LP's full tableau,
are left out. One builder (_tableau) makes the compact tableaus of one LP or
of a stack, and _solve inserts the unit columns into one. The lockstep
loop (_run_compact) pivots every unfinished tableau once per pass and
drops it from the pass once it is done. Bland's entering rule takes the
lowest variable index; the leaving variable takes over the entering
one's column, which the pivot updates as the full tableau updates the
leaving variable's unit column: 1/piv in the pivot row, 0 - a_i * (1/piv)
elsewhere. Every entry sees the full tableau's floating-point operations
(a zero can differ in sign, which no comparison sees), so each LP's
status, optimum and pivot count are bit-identical to lp_solve's. The rare
LP whose phase-1 auxiliary ends basic is finished by lp_solve's own loop
(_solve), from its starting tableau. The 2^n enumeration oracle solves
its slack LPs this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import SimplexBreakdownError

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
PIVOT_TOL = 1e-9  # ratio-test threshold
PIVOT_MIN = 1e-12  # below this a pivot is numerically meaningless
_TIE_TOL = 1e-12  # ratios this close to the least tie, and Bland's rule picks among them
_MAX_ITERS = 50_000


class LinearProgram:
    """max objective.x subject to the rows A x <= b and per-variable bounds.

    bounds: per-variable (lower, upper) with None meaning unbounded on that
    side, kept as lo and up with None as -inf and +inf. Construction checks
    the shapes and that every entry is finite. A of shape (k, m, n) and b of
    shape (k, m) make a stack of k LPs for lp_stack, sharing the objective
    and the bounds.
    """

    def __init__(self, objective, A, b, bounds):
        objective = np.atleast_1d(np.asarray(objective, dtype=float))
        A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
        n = objective.shape[0]
        if A.ndim not in (2, 3) or A.shape[-1] != n:
            raise ValueError(f"row 0: {A.shape[-1]} coefficients for {n} variables")
        if b.shape != A.shape[:-1]:
            rhs = b.shape[-1] if b.ndim else b.size
            raise ValueError(f"{A.shape[-2]} rows, {rhs} right-hand sides")
        if len(bounds) != n:
            raise ValueError(f"{len(bounds)} bounds for {n} variables")
        if not np.isfinite(objective).all():
            raise ValueError("objective has non-finite entries")
        bad = ~(np.isfinite(A).all(axis=-1) & np.isfinite(b))
        if bad.any():
            raise ValueError(f"row {int(np.argwhere(bad)[0, -1])}: non-finite entry")
        lo = np.array([-np.inf if bd[0] is None else bd[0] for bd in bounds], dtype=float)
        up = np.array([np.inf if bd[1] is None else bd[1] for bd in bounds], dtype=float)
        bad = lo > up
        if bad.any():
            j = int(bad.argmax())
            raise ValueError(f"variable {j}: lower bound {lo[j]} exceeds upper bound {up[j]}")
        self.objective = objective
        self.A, self.b, self.lo, self.up = A, b, lo, up

    @property
    def rows(self) -> list[tuple[np.ndarray, float]]:
        """The rows as (coeffs, rhs) pairs."""
        return list(zip(self.A, self.b.tolist()))

    @property
    def n(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "unbounded" | "infeasible" | "stopped" (dual_simplex only)
    value: Optional[float]  # the optimum (+inf for a W part), or for "stopped" the bound keep rejected
    x: Optional[np.ndarray]  # finite optimum, or the feasible point a ray emanates from
    ray: Optional[np.ndarray]  # improving direction when unbounded
    pivots: int = 0  # simplex pivots: phase 1 and phase 2, or the dual simplex's


@dataclass(slots=True)
class Tableau:
    """A dual-feasible tableau kept for warm starts.

    T holds one row per basic variable and the reduced-cost row last; its
    first `width` columns can pivot and its last one is the right-hand
    side (a cold tableau still has phase 1's auxiliary column between
    them). x = x0 + M s maps the columns back to the LP's variables. cap,
    set by symbolic_rhs, is the column that holds the W part of every
    right-hand side; without it they have none.
    """

    T: np.ndarray
    basis: np.ndarray
    width: int
    M: np.ndarray
    x0: np.ndarray
    objective: np.ndarray
    cap: Optional[int] = None

    def infinite(self) -> bool:
        """Whether the objective's W part is positive, which makes it +inf."""
        return self.cap is not None and self.T[-1, self.cap] > OPT_TOL

    def point(self) -> np.ndarray:
        """The basic point of the current basis, in the LP's variables, W
        parts left out. Basic values are clipped at zero, which they can
        miss only by the feasibility tolerance."""
        s = np.zeros(self.width)
        s[self.basis] = np.maximum(self.T[:-1, -1], 0.0)
        return self.x0 + self.M @ s[: self.M.shape[1]]

    def solution(self, pivots: int) -> LpSolution:
        """The optimum at the current basis: +inf, with no point, when its W part is positive."""
        if self.infinite():
            return LpSolution("optimal", math.inf, None, None, pivots)
        x = self.point()
        return LpSolution("optimal", float(self.objective @ x), x, None, pivots)


def _pivot(T: np.ndarray, r: int, c: int) -> None:
    row = T[r] / T[r, c]
    T -= T[:, c, None] * row  # zeroes column c: row[c] is exactly 1
    T[r] = row


def _ratio_ties(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The single-LP ratio test: ascending indices whose den is above PIVOT_TOL
    (PIVOT_MIN when none is) and whose num/den is within _TIE_TOL of the least."""
    eligible = (den > PIVOT_TOL).nonzero()[0]
    if eligible.size == 0:
        eligible = (den > PIVOT_MIN).nonzero()[0]
    ratios = num[eligible] / den[eligible]
    return eligible[ratios <= ratios.min(initial=np.inf) + _TIE_TOL]


def _run_simplex(T: np.ndarray, basis: np.ndarray, ncols: int):
    """Iterate to optimality. Returns (status, entering column or None, pivots)."""
    rhs = T[:-1, -1]
    for it in range(_MAX_ITERS):
        negative = T[-1, :ncols] < -OPT_TOL
        c = int(negative.argmax())  # Bland: lowest index
        if not negative[c]:
            return "optimal", None, it
        ties = _ratio_ties(rhs, T[:-1, c])
        if ties.size == 0:
            return "unbounded", c, it
        r = int(ties[basis[ties].argmin()])  # Bland: lowest basic index
        _pivot(T, r, c)
        basis[r] = c
    raise SimplexBreakdownError(f"simplex did not finish within {_MAX_ITERS} iterations")


def _pivot_compact(T: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, r, p, col) -> None:
    """_pivot on every compact tableau of a stack, tableau i on row r[i] of
    column p[i], whose entries before the pivot are col[i]. That column's
    variable enters the basis; the leaving one takes the column over as
    its unit column, which the pivot then updates as the full tableau's."""
    i = np.arange(T.shape[0])
    T[i, :, p] = 0.0
    T[i, r, p] = 1.0
    row = T[i, r] / col[i, r][:, None]
    T -= col[:, :, None] * row[:, None, :]
    T[i, r] = row
    basis[i, r], nonbasic[i, p] = nonbasic[i, p], basis[i, r]


def _run_compact(T: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, ncols: int):
    """_run_simplex on a stack of compact tableaus in lockstep, each by its own pivots.

    Every pass pivots each unfinished tableau once by the same Bland rules
    over the variables below ncols, its ratio test _ratio_ties's
    vectorized, so each ends as _run_simplex would leave its full tableau.
    T, basis and nonbasic are updated in place. Returns (unbounded mask,
    pivots per tableau).
    """
    k = T.shape[0]
    unbounded = np.zeros(k, dtype=bool)
    pivots = np.zeros(k, dtype=int)
    live = np.arange(k)  # the unfinished tableaus; Tw, bw and nw hold them
    Tw, bw, nw = T, basis, nonbasic
    i = np.arange(k)
    for it in range(_MAX_ITERS):
        enter = np.where(Tw[:, -1, :-1] < -OPT_TOL, nw, ncols)
        p = enter.argmin(axis=1)  # Bland: lowest variable index
        col = Tw[i, :, p]
        eligible = col[:, :-1] > PIVOT_TOL
        pivotable = eligible.any(axis=1)
        if not pivotable.all():
            short = ~pivotable
            eligible[short] = col[short, :-1] > PIVOT_MIN
            pivotable = eligible.any(axis=1)
        optimal = enter[i, p] == ncols
        done = optimal | ~pivotable
        if done.any():
            T[live[done]], basis[live[done]], nonbasic[live[done]] = Tw[done], bw[done], nw[done]
            unbounded[live[done & ~optimal]] = True
            pivots[live[done]] = it
            go = ~done
            if not go.any():
                return unbounded, pivots
            live, Tw, bw, nw = live[go], Tw[go], bw[go], nw[go]
            i, p, col, eligible = i[: live.size], p[go], col[go], eligible[go]
        ratios = np.divide(Tw[:, :-1, -1], col[:, :-1], out=np.full(eligible.shape, np.inf), where=eligible)
        ties = eligible & (ratios <= ratios.min(axis=1, keepdims=True) + _TIE_TOL)
        r = np.where(ties, bw, ncols).argmin(axis=1)  # Bland: lowest basic index
        _pivot_compact(Tw, bw, nw, r, p, col)
    raise SimplexBreakdownError(f"simplex did not finish within {_MAX_ITERS} iterations")


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve the LP. Returned points satisfy every constraint within 1e-8."""
    return lp_tableau(lp)[0]


def _tableau(lp: LinearProgram):
    """Standard form and compact starting tableau of lp, or of a stack of LPs.

    lp.A has shape (..., m, n) and lp.b (..., m); the objective and the
    bounds are shared, so x = x0 + M s is too. Returns (T, basis, M, x0)
    with the slack basis and T of shape (..., m' + 1, ns + 2): the
    structural columns, the auxiliary and the rhs, without the slacks' unit
    columns.
    """
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

    # Tableau: the rows and a row per boxed variable, each with its slack basic.
    boxed = (has_lo & has_up).nonzero()[0]
    m1 = lp.b.shape[-1]
    m = m1 + boxed.size
    T = np.zeros((*lp.b.shape[:-1], m + 1, ns + 2))
    T[..., :m1, :ns] = lp.A @ M
    T[..., m1:m, :ns] = M[boxed]
    T[..., :m1, -1] = lp.b - lp.A @ x0
    T[..., m1:m, -1] = (lp.up - lp.lo)[boxed]
    basis = np.empty(T.shape[:-2] + (m,), dtype=int)
    basis[...] = np.arange(ns, ns + m)
    return T, basis, M, x0


def lp_tableau(lp: LinearProgram) -> tuple[LpSolution, Optional[Tableau]]:
    """lp_solve, also returning the final tableau when the LP is optimal."""
    if lp.A.ndim != 2:
        raise ValueError("lp_tableau solves one LP; lp_stack solves a stack")
    return _solve(*_tableau(lp), lp.objective)


def _solve(T, basis, M, x0, objective) -> tuple[LpSolution, Optional[Tableau]]:
    """Both phases on the full tableau of one compact starting tableau from _tableau."""
    m = basis.size
    ns = M.shape[1]
    aux = ns + m
    T = np.concatenate((T[:, :ns], np.eye(m + 1, m), T[:, ns:]), axis=1)  # the slacks' unit columns
    b = T[:m, -1]
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
            return LpSolution("infeasible", None, None, None, pivots), None
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
    T[-1, :ns] = -(objective @ M)
    T[-1] -= T[-1, basis] @ T[:-1]
    status, enter, it = _run_simplex(T, basis, aux)
    pivots += it

    tab = Tableau(T, basis, aux, M, x0, objective)
    if status == "unbounded":
        ray_s = np.zeros(aux)
        ray_s[enter] = 1.0
        ray_s[basis] = -T[:-1, enter]
        ray_s[np.abs(ray_s) <= PIVOT_MIN] = 0.0
        return LpSolution("unbounded", None, tab.point(), M @ ray_s[:ns], pivots), None
    return tab.solution(pivots), tab


def lp_stack(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve a stack of LPs, lp.A of shape (k, m, n), by one lockstep simplex.

    Returns (status, value, pivots), one entry per LP: status as lp_solve
    reports it, the optimum (NaN unless optimal) and the pivot count. Each
    LP is a compact tableau, nonbasic naming its columns' variables: the ns
    structural ones, then the m slacks, then the auxiliary. It takes the
    same pivots in the same arithmetic as lp_solve, so every entry is
    bit-identical to lp_solve's. An LP whose phase-1 auxiliary ends basic
    is solved again on its own, from its starting tableau, by lp_solve's
    loop, which pivots the auxiliary out or deletes its row.
    """
    if lp.A.ndim != 3:
        raise ValueError("lp_stack solves a stack of LPs, with rows of shape (k, m, n)")
    T, basis, M, x0 = _tableau(lp)
    k, m = basis.shape
    ns = M.shape[1]
    aux = ns + m
    nonbasic = np.tile([*range(ns), aux], (k, 1))
    status = np.full(k, "optimal", dtype=object)
    value = np.full(k, np.nan)
    pivots = np.zeros(k, dtype=int)
    phase2 = np.ones(k, dtype=bool)

    b = T[:, :m, -1]
    violated = b < 0
    one = violated.any(axis=1).nonzero()[0]
    if one.size:
        T1, b1, n1 = T[one], basis[one], nonbasic[one]
        T1[:, :m, ns] = np.where(violated[one], -1.0, 0.0)
        T1[:, -1, ns] = 1.0  # phase-1 cost: minimize the auxiliary
        _pivot_compact(T1, b1, n1, b[one].argmin(axis=1), np.full(one.size, ns), T1[:, :, ns].copy())
        unbounded, its = _run_compact(T1, b1, n1, aux + 1)
        if unbounded.any():
            raise SimplexBreakdownError("phase 1 reported unbounded; the auxiliary is bounded below")
        pivots[one] = 1 + its
        infeasible = -T1[:, -1, -1] > FEAS_TOL
        status[one[infeasible]] = "infeasible"
        phase2[one[infeasible]] = False
        for j in one[(b1 == aux).any(axis=1) & ~infeasible]:  # the auxiliary is still basic
            sol, _ = _solve(T[j], basis[j].copy(), M, x0, lp.objective)
            status[j], pivots[j] = sol.status, sol.pivots
            value[j] = np.nan if sol.value is None else sol.value
            phase2[j] = False
        T[one], basis[one], nonbasic[one] = T1, b1, n1

    # Phase 2: minimize -c.x over the variables before the auxiliary, which stays at 0.
    two = phase2.nonzero()[0]
    if two.size:
        T2, b2, n2 = T[two], basis[two], nonbasic[two]
        i = np.arange(two.size)
        cost = np.zeros(aux + 1)  # each variable's phase-2 cost
        cost[:ns] = -(lp.objective @ M)
        T2[:, -1, :-1] = cost[n2]
        T2[:, -1, -1] = 0.0
        T2[:, -1] -= (cost[b2][:, None, :] @ T2[:, :-1])[:, 0]
        unbounded, its = _run_compact(T2, b2, n2, aux)
        pivots[two] += its
        status[two[unbounded]] = "unbounded"
        s = np.zeros((two.size, aux))
        s[i[:, None], b2] = np.maximum(T2[:, :-1, -1], 0.0)
        x = x0 + (M @ s[:, :ns, None])[..., 0]
        value[two] = np.where(unbounded, np.nan, (x[:, None, :] @ lp.objective[:, None])[:, 0, 0])
    return status, value, pivots


def append_row(tab: Tableau, a: np.ndarray, b: float) -> Tableau:
    """A new tableau: tab plus the row a.x <= b, its slack basic.

    The row is rewritten in the current basis, and phase 1's auxiliary
    column is dropped. Reduced costs do not change, so the basis stays
    dual feasible; the new row's right-hand side is negative when tab's
    point violates it. tab itself is left as it was. Once the cap's slack
    is basic (a finite optimum), the other rows bound the objective and no
    W part is left but the slack's own, so its row and column are dropped
    too: the new tableau is an ordinary one, and pivots the same way.
    """
    old, basis, w, cap = tab.T, tab.basis, tab.width, tab.cap
    if cap is not None and not tab.infinite():
        r = int((basis == cap).argmax())
        old = np.delete(np.delete(old, r, axis=0), cap, axis=1)
        basis = np.delete(basis, r)
        basis[basis > cap] -= 1
        w, cap = w - 1, None
    m = basis.size
    T = np.zeros((m + 2, w + 2))
    T[:m, :w], T[:m, -1] = old[:m, :w], old[:m, -1]
    T[-1, :w], T[-1, -1] = old[-1, :w], old[-1, -1]
    row = T[m]
    row[: tab.M.shape[1]] = a @ tab.M
    row[w] = 1.0
    row[-1] = b - a @ tab.x0
    row -= row[basis] @ T[:m]
    return Tableau(T, np.concatenate((basis, [w])), w + 1, tab.M, tab.x0, tab.objective, cap)


def symbolic_rhs(tab: Tableau, i: int) -> Tableau:
    """tab with the right-hand side of its LP's row i raised from b_i to b_i + W.

    Row i must be a <= row that caps the objective, c.x <= b_i. W is a
    symbolic +infinity, so the tableau then solves the LP without row i,
    and reports its optimum as +inf when that LP is unbounded. The basis
    is left as it was: it stays dual feasible, and dual_simplex restores
    primal feasibility where the raise breaks it.
    """
    return replace(tab, cap=tab.M.shape[1] + i)


def dual_simplex(tab: Tableau, keep: Callable[[float], bool]) -> LpSolution:
    """Re-optimize a dual-feasible tableau in place, as left by append_row.

    Before each pivot the objective at the current basis, an upper bound
    on the optimum (+inf while its W part is positive), goes to keep; when
    keep rejects it the solve stops with status "stopped" and that bound
    as its value. A row that stays negative, lexicographically, with no
    negative entry to pivot on proves the LP infeasible.
    """
    T, basis, w, cap = tab.T, tab.basis, tab.width, tab.cap
    const = float(tab.objective @ tab.x0)
    for it in range(_MAX_ITERS):
        bound = math.inf if tab.infinite() else const + float(T[-1, -1])
        if not keep(bound):
            return LpSolution("stopped", bound, None, None, it)
        if cap is None:
            short = (T[:-1, -1] < -FEAS_TOL).nonzero()[0]
        else:  # a W part decides, unless it is zero
            omega = T[:-1, cap]
            short = np.where(np.abs(omega) > FEAS_TOL, omega < 0.0, T[:-1, -1] < -FEAS_TOL).nonzero()[0]
        if short.size == 0:
            return tab.solution(it)
        r = int(short[0]) if short.size == 1 else int(short[basis[short].argmin()])  # Bland: lowest basic index
        ties = _ratio_ties(T[-1, :w], -T[r, :w])
        if ties.size == 0:
            return LpSolution("infeasible", None, None, None, it)
        c = int(ties[0])  # Bland: lowest index
        _pivot(T, r, c)
        basis[r] = c
    raise SimplexBreakdownError(f"dual simplex did not finish within {_MAX_ITERS} iterations")
