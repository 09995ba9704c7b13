import numpy as np
import pytest
from scipy.optimize import linprog

from lipbound import LinearProgram, lp_solve
import lipbound.simplex as simplex
from lipbound.simplex import EQ, GE, LE, append_row, dual_simplex, lp_stack, lp_tableau, symbolic_rhs


def stacked(rows, n):
    """(A, rel, b) of (coeffs, relation, rhs) row tuples over n variables."""
    if not rows:
        return np.zeros((0, n)), np.array([], dtype=object), np.zeros(0)
    coeffs, rels, rhs = zip(*rows)
    return np.array(coeffs, dtype=float), np.array(rels, dtype=object), np.array(rhs)


def solve(objective, rows, bounds):
    objective = np.asarray(objective, float)
    return lp_solve(LinearProgram(objective, *stacked(rows, objective.size), bounds))


class TestBasics:
    def test_bounded_maximum(self):
        sol = solve([1.0], [([1.0], LE, 3.0)], [(0.0, None)])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(3.0)
        assert sol.x == pytest.approx([3.0])

    def test_unbounded(self):
        sol = solve([1.0], [], [(0.0, None)])
        assert sol.status == "unbounded"
        assert sol.ray is not None and sol.ray[0] > 0

    def test_infeasible(self):
        sol = solve([0.0], [([1.0], LE, -1.0)], [(0.0, None)])
        assert sol.status == "infeasible"

    def test_equality_constraint(self):
        sol = solve([1.0, 0.0], [([1.0, 1.0], EQ, 2.0)], [(0.0, None), (0.0, None)])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(2.0)

    def test_free_variable_negative_optimum(self):
        sol = solve([-1.0], [([1.0], GE, -5.0)], [(None, None)])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(5.0)
        assert sol.x == pytest.approx([-5.0])

    def test_upper_bound_only_variable(self):
        sol = solve([1.0], [], [(None, 4.0)])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(4.0)

    def test_double_bounded(self):
        sol = solve([-1.0], [], [(-2.0, 7.0)])
        assert sol.value == pytest.approx(2.0)
        assert sol.x == pytest.approx([-2.0])

    def test_fixed_variable(self):
        sol = solve([1.0, 1.0], [([1.0, 1.0], LE, 10.0)], [(3.0, 3.0), (0.0, None)])
        assert sol.value == pytest.approx(10.0)
        assert sol.x[0] == pytest.approx(3.0)

    def test_unbounded_ray_improves(self):
        sol = solve([1.0, -1.0], [([1.0, -1.0], GE, 1.0)], [(None, None), (None, None)])
        assert sol.status == "unbounded"
        assert np.dot([1.0, -1.0], sol.ray) > 0

    def test_inconsistent_bounds_rejected(self):
        with pytest.raises(ValueError):
            solve([1.0], [], [(2.0, 1.0)])

    def test_bad_row_shape_rejected(self):
        with pytest.raises(ValueError):
            solve([1.0], [([1.0, 2.0], LE, 0.0)], [(0.0, None)])

    def test_degenerate_many_ties(self):
        # several constraints active at the optimum; Bland must terminate
        rows = [([1.0, 1.0], LE, 1.0), ([1.0, 0.0], LE, 1.0), ([0.0, 1.0], LE, 1.0),
                ([2.0, 2.0], LE, 2.0)]
        sol = solve([1.0, 1.0], rows, [(0.0, None), (0.0, None)])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0)


class TestConstructor:
    ROWS = [([1.0, 2.0], LE, 4.0), ([1.0, -1.0], GE, -1.0), ([0.0, 1.0], EQ, 1.0)]
    BOUNDS = [(0.0, None), (None, 3.0)]

    def test_keeps_rows_as_arrays(self):
        lp = LinearProgram(np.array([1.0, 1.0]), *stacked(self.ROWS, 2), self.BOUNDS)
        assert lp.A.shape == (3, 2) and lp.rel.tolist() == [LE, GE, EQ]
        assert np.array_equal(lp.lo, [0.0, -np.inf]) and np.array_equal(lp.up, [np.inf, 3.0])
        assert len(lp.rows) == 3
        assert lp.rows[1][1:] == (GE, -1.0)
        sol = lp_solve(lp)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(3.0) and sol.x == pytest.approx([2.0, 1.0])

    @pytest.mark.parametrize(
        "rows, bounds, match",
        [
            ([([1.0, 0.0], "<", 1.0)], BOUNDS, "row 0: unknown relation"),
            ([([1.0, 0.0], LE, 1.0), ([np.nan, 0.0], LE, 1.0)], BOUNDS, "row 1: non-finite"),
            ([([1.0, 0.0], LE, np.inf)], BOUNDS, "row 0: non-finite"),
            ([([1.0, 0.0], LE, 1.0)], [(0.0, None)], "1 bounds for 2 variables"),
            ([([1.0, 0.0], LE, 1.0)], [(0.0, None), (2.0, 1.0)], "variable 1: lower bound"),
        ],
    )
    def test_rejects_bad_input(self, rows, bounds, match):
        with pytest.raises(ValueError, match=match):
            LinearProgram(np.array([1.0, 1.0]), *stacked(rows, 2), bounds)

    def test_nan_objective_rejected(self):
        with pytest.raises(ValueError, match="objective has non-finite entries"):
            LinearProgram(np.array([1.0, np.nan]), *stacked(self.ROWS, 2), self.BOUNDS)

    def test_shape_mismatch_rejected(self):
        A, rel, b = stacked(self.ROWS, 2)
        objective = np.array([1.0, 1.0])
        with pytest.raises(ValueError, match="row 0: 3 coefficients for 2 variables"):
            LinearProgram(objective, np.hstack([A, A[:, :1]]), rel, b, self.BOUNDS)
        with pytest.raises(ValueError, match="3 rows, 2 relations"):
            LinearProgram(objective, A, rel[:2], b, self.BOUNDS)
        with pytest.raises(ValueError, match="3 rows, 3 relations, 2 right-hand sides"):
            LinearProgram(objective, A, rel, b[:2], self.BOUNDS)


class TestPhaseOne:
    def test_duplicated_equality_rows(self):
        rows = [([1.0, 1.0], EQ, 2.0), ([1.0, 1.0], EQ, 2.0), ([2.0, 2.0], EQ, 4.0)]
        sol = solve([1.0, 0.0], rows, [(0.0, None), (0.0, None)])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(2.0)
        assert sol.x == pytest.approx([2.0, 0.0])

    def test_redundant_equalities_pin_the_point(self):
        rows = [([1.0, 1.0], EQ, 2.0), ([2.0, 2.0], EQ, 4.0), ([1.0, -1.0], EQ, 0.0)]
        sol = solve([1.0, 2.0], rows, [(0.0, None), (0.0, None)])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(3.0)
        assert sol.x == pytest.approx([1.0, 1.0])

    def test_auxiliary_ends_basic_at_zero(self):
        # x >= 1 brings the auxiliary in; x then enters with a ratio tie
        # between its row and x <= 1, Bland's rule lets the slack of x <= 1
        # leave, and the auxiliary stays basic at zero until it is pivoted
        # out: three pivots in all
        sol = solve([1.0], [([1.0], GE, 1.0), ([1.0], LE, 1.0)], [(0.0, None)])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0)
        assert sol.x == pytest.approx([1.0])
        assert sol.pivots == 3

    def test_every_row_violated_infeasible(self):
        # the slack basis violates both rows; the smallest violation is 1
        sol = solve([0.0], [([1.0], LE, -1.0), ([1.0], GE, 1.0)], [(None, None)])
        assert sol.status == "infeasible"
        assert sol.x is None and sol.pivots > 0

    def test_every_row_violated_feasible(self):
        rows = [([1.0, 0.0], GE, 1.0), ([0.0, 1.0], GE, 2.0), ([1.0, 1.0], GE, 4.0)]
        sol = solve([-1.0, -1.0], rows, [(0.0, None), (0.0, None)])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(-4.0)
        assert float(np.sum(sol.x)) == pytest.approx(4.0)
        assert sol.x[0] >= 1.0 - 1e-9 and sol.x[1] >= 2.0 - 1e-9

    def test_bounded_without_rows(self):
        sol = solve([1.0, -1.0], [], [(0.0, 2.0), (-1.0, 3.0)])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(3.0)
        assert sol.x == pytest.approx([2.0, -1.0])
        sol = solve([1.0, -1.0], [], [(None, 2.0), (-1.0, None)])
        assert (sol.status, sol.pivots) == ("optimal", 0)
        assert sol.x == pytest.approx([2.0, -1.0])

    def test_feasible_start_skips_phase_one(self):
        sol = solve([1.0, 1.0], [([1.0, 2.0], LE, 4.0), ([3.0, 1.0], LE, 6.0)], [(0.0, None)] * 2)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(2.8)
        assert sol.pivots == 2


class TestFeasibilityOfReturnedPoints:
    def test_points_satisfy_constraints(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 6))
            rows = []
            for _ in range(m):
                rel = (LE, GE, EQ)[rng.integers(0, 3)]
                rows.append((rng.normal(size=n), rel, float(rng.normal())))
            bounds = []
            for _ in range(n):
                kind = rng.integers(0, 4)
                lo = float(rng.uniform(-3, 0)) if kind in (1, 3) else None
                up = float(rng.uniform(0, 3)) if kind in (2, 3) else None
                bounds.append((lo, up))
            sol = solve(rng.normal(size=n), rows, bounds)
            if sol.status == "infeasible":
                continue
            x = sol.x
            for a, rel, b in rows:
                v = float(np.dot(a, x))
                if rel == LE:
                    assert v <= b + 1e-8
                elif rel == GE:
                    assert v >= b - 1e-8
                else:
                    assert v == pytest.approx(b, abs=1e-8)
            for j, (lo, up) in enumerate(bounds):
                if lo is not None:
                    assert x[j] >= lo - 1e-8
                if up is not None:
                    assert x[j] <= up + 1e-8


class TestAgainstScipy:
    def test_random_lps_match(self):
        rng = np.random.default_rng(42)
        statuses = {"optimal": 0, "unbounded": 0, "infeasible": 0}
        for _ in range(300):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 7))
            c = rng.normal(size=n)
            rows = []
            A_ub, b_ub, A_eq, b_eq = [], [], [], []
            for _ in range(m):
                a = rng.normal(size=n)
                b = float(rng.normal())
                kind = rng.integers(0, 3)
                if kind == 0:
                    rows.append((a, LE, b))
                    A_ub.append(a)
                    b_ub.append(b)
                elif kind == 1:
                    rows.append((a, GE, b))
                    A_ub.append(-a)
                    b_ub.append(-b)
                else:
                    rows.append((a, EQ, b))
                    A_eq.append(a)
                    b_eq.append(b)
            bounds = []
            for _ in range(n):
                kind = rng.integers(0, 4)
                lo = float(rng.uniform(-4, 0)) if kind in (1, 3) else None
                up = float(rng.uniform(0, 4)) if kind in (2, 3) else None
                bounds.append((lo, up))
            mine = solve(c, rows, bounds)

            def scipy_solve(obj):
                return linprog(
                    obj,
                    A_ub=np.array(A_ub) if A_ub else None,
                    b_ub=np.array(b_ub) if b_ub else None,
                    A_eq=np.array(A_eq) if A_eq else None,
                    b_eq=np.array(b_eq) if b_eq else None,
                    bounds=bounds,
                    method="highs",
                )

            ref = scipy_solve(-c)
            statuses[mine.status] += 1
            if ref.status == 0:
                assert mine.status == "optimal", (mine.status, ref.status)
                assert mine.value == pytest.approx(-ref.fun, abs=1e-6, rel=1e-6)
            elif mine.status == "unbounded":
                # HiGHS conflates infeasible/unbounded; verify the certificate
                x, ray = mine.x, mine.ray
                assert float(np.dot(c, ray)) > 1e-9
                for a, rel, b in rows:
                    v, d = float(np.dot(a, x)), float(np.dot(a, ray))
                    if rel == LE:
                        assert v <= b + 1e-8 and d <= 1e-9
                    elif rel == GE:
                        assert v >= b - 1e-8 and d >= -1e-9
                    else:
                        assert v == pytest.approx(b, abs=1e-8)
                        assert d == pytest.approx(0.0, abs=1e-9)
                for j, (lo, up) in enumerate(bounds):
                    if lo is not None:
                        assert x[j] >= lo - 1e-8 and ray[j] >= -1e-9
                    if up is not None:
                        assert x[j] <= up + 1e-8 and ray[j] <= 1e-9
            else:
                assert mine.status == "infeasible"
                # scipy must agree there is no feasible point at all
                probe = scipy_solve(np.zeros(n))
                assert probe.status == 2
        # the generator must actually exercise all three outcomes
        assert min(statuses.values()) > 5


# --- warm starts: append a row, re-optimize with the dual simplex ----------


def le_lp(c, A, b, bounds):
    """max c.x subject to A x <= b and the bounds."""
    rel = np.full(len(b), LE, dtype=object)
    return LinearProgram(np.asarray(c, float), np.asarray(A, float), rel, np.asarray(b, float), bounds)


def highs(c, A, b, bounds):
    """The same LP solved by HiGHS, as a minimization of -c.x."""
    return linprog(-np.asarray(c), A_ub=np.asarray(A), b_ub=np.asarray(b), bounds=bounds, method="highs")


def random_bounds(rng, n):
    """Free, lower-only, upper-only or boxed, one kind per variable."""
    bounds = []
    for _ in range(n):
        kind = rng.integers(0, 4)
        lo = float(rng.uniform(-3, 0)) if kind in (1, 3) else None
        up = float(rng.uniform(0, 3)) if kind in (2, 3) else None
        bounds.append((lo, up))
    return bounds


def random_case(rng):
    n = int(rng.integers(1, 6))
    k = int(rng.integers(1, 7))
    A, b = rng.normal(size=(k + 1, n)), rng.normal(size=k + 1)
    return rng.normal(size=n), A, b, random_bounds(rng, n)


def degenerate_case(rng):
    # small integer grid: ties in both ratio tests, zero right-hand sides and
    # repeated or scaled copies of earlier rows, the appended one included
    n = int(rng.integers(1, 5))
    k = int(rng.integers(1, 7))
    A = rng.integers(-1, 2, size=(k + 1, n)).astype(float)
    b = rng.integers(0, 2, size=k + 1).astype(float)
    for i in range(1, k + 1):
        if rng.random() < 0.3:
            j = int(rng.integers(0, i))
            scale = float(rng.choice([1.0, 2.0]))
            A[i], b[i] = scale * A[j], scale * b[j] - float(rng.integers(0, 2))
    return rng.integers(-1, 2, size=n).astype(float), A, b, random_bounds(rng, n)


def free_case(rng):
    # free variables, as in the slack LPs on AllSpace; the +-x_j <= 1 rows keep
    # the first k rows bounded
    n = int(rng.integers(1, 5))
    extra = int(rng.integers(0, 4))
    A = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(extra + 1, n))])
    b = np.concatenate([np.ones(2 * n), rng.normal(size=extra + 1)])
    return rng.normal(size=n), A, b, [(None, None)] * n


class TestWarmStart:
    @pytest.mark.parametrize("make", [random_case, degenerate_case, free_case])
    def test_append_matches_cold_and_highs(self, make):
        rng = np.random.default_rng(7)
        outcomes = {"optimal": 0, "infeasible": 0}
        for _ in range(300):
            c, A, b, bounds = make(rng)
            first, tab = lp_tableau(le_lp(c, A[:-1], b[:-1], bounds))
            if tab is None:
                assert first.status != "optimal"
                continue
            before = tab.T.copy()
            child = append_row(tab, A[-1], b[-1])
            warm = dual_simplex(child, lambda bound: True)
            assert np.array_equal(tab.T, before)  # the parent tableau is untouched
            cold = lp_solve(le_lp(c, A, b, bounds))
            assert warm.status == cold.status
            outcomes[warm.status] += 1
            ref = highs(c, A, b, bounds)
            if cold.status == "optimal":
                assert warm.value == pytest.approx(cold.value, abs=1e-9)
                assert warm.value == pytest.approx(-ref.fun, abs=1e-7)
                assert np.all(A @ warm.x <= b + 1e-8)
            else:
                assert ref.status == 2
        assert outcomes["optimal"] > 50 and outcomes["infeasible"] > 0, outcomes

    def test_rows_appended_one_at_a_time(self):
        # a path of appends, each re-optimized from the last tableau
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            A = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(6, n))])
            b = np.concatenate([np.ones(2 * n), rng.normal(size=6) + 0.5])
            c, bounds = rng.normal(size=n), [(None, None)] * n
            sol, tab = lp_tableau(le_lp(c, A[: 2 * n], b[: 2 * n], bounds))
            for m in range(2 * n + 1, A.shape[0] + 1):
                tab = append_row(tab, A[m - 1], b[m - 1])
                sol = dual_simplex(tab, lambda bound: True)
                cold = lp_solve(le_lp(c, A[:m], b[:m], bounds))
                assert sol.status == cold.status
                if cold.status != "optimal":
                    break
                assert sol.value == pytest.approx(cold.value, abs=1e-9)

    @pytest.mark.parametrize("make", [random_case, degenerate_case, free_case])
    def test_early_stop(self, make):
        # below the cold optimum the stop never fires; above it, it always
        # does, with an upper bound on the optimum
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(300):
            c, A, b, bounds = make(rng)
            _, tab = lp_tableau(le_lp(c, A[:-1], b[:-1], bounds))
            cold = lp_solve(le_lp(c, A, b, bounds))
            if tab is None or cold.status != "optimal":
                continue
            checked += 1
            for level in (cold.value - 1e-9, cold.value - 1.0):
                sol = dual_simplex(append_row(tab, A[-1], b[-1]), lambda bound: bound >= level)
                assert sol.status == "optimal" and sol.value == pytest.approx(cold.value, abs=1e-9)
            level = cold.value + 0.5
            sol = dual_simplex(append_row(tab, A[-1], b[-1]), lambda bound: bound >= level)
            assert sol.status == "stopped" and cold.value - 1e-9 <= sol.value < level
        assert checked > 100

    def test_infeasible_append(self):
        _, tab = lp_tableau(le_lp([1.0], [[1.0]], [1.0], [(None, None)]))
        sol = dual_simplex(append_row(tab, np.array([-1.0]), -2.0), lambda bound: True)
        assert sol.status == "infeasible"

    def test_lp_solve_is_lp_tableau(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c, A, b, bounds = random_case(rng)
            lp = le_lp(c, A, b, bounds)
            sol, tab = lp_tableau(lp)
            assert (tab is not None) == (sol.status == "optimal")
            again = lp_solve(lp)
            assert again.status == sol.status and again.pivots == sol.pivots
            if sol.status == "optimal":
                assert again.value == sol.value and np.array_equal(again.x, sol.x)


# --- a symbolic right-hand side: max t with t <= W, W -> +infinity -----------


def capped_root(A, b, bounds):
    """max t over (x, t) subject to A x <= b and t <= W: lp_tableau with t <= 0,
    then that row's right-hand side raised to W. None when A x <= b is empty."""
    n = A.shape[1]
    rows = np.vstack([np.hstack([A, np.zeros((A.shape[0], 1))]), np.eye(1, n + 1, n)])
    lp = le_lp(np.eye(1, n + 1, n)[0], rows, np.append(b, 0.0), [*bounds, (None, None)])
    sol, tab = lp_tableau(lp)
    return None if tab is None else symbolic_rhs(tab, A.shape[0])


class TestSymbolicRhs:
    @pytest.mark.parametrize("make", [random_case, degenerate_case, free_case])
    def test_warm_path_matches_cold_and_highs(self, make):
        # t <= c.x is appended warm to the capped root, then the last row:
        # each optimum is lp_solve's for max c.x, +inf exactly when lp_solve
        # reports the LP unbounded, and HiGHS agrees
        rng = np.random.default_rng(13)
        outcomes = dict.fromkeys(("optimal", "unbounded", "infeasible"), 0)
        for _ in range(300):
            c, A, b, bounds = make(rng)
            n = c.size
            root = capped_root(A[:-1], b[:-1], bounds)
            if root is None:
                assert lp_solve(le_lp(c, A[:-1], b[:-1], bounds)).status == "infeasible"
                continue
            assert root.infinite()
            tab = append_row(root, np.append(-c, 1.0), 0.0)  # t <= c.x
            for rows in (A[:-1], A):
                if rows is A:
                    tab = append_row(tab, np.append(A[-1], 0.0), b[-1])
                sol = dual_simplex(tab, lambda bound: True)
                cold = lp_solve(le_lp(c, rows, b[: len(rows)], bounds))
                ref = highs(c, rows, b[: len(rows)], bounds)
                outcomes[cold.status] += 1
                if cold.status == "infeasible":
                    assert sol.status == "infeasible" and ref.status == 2
                    break
                assert sol.status == "optimal" and sol.ray is None
                assert tab.infinite() == (cold.status == "unbounded")
                if cold.status == "unbounded":  # HiGHS may call it infeasible
                    assert sol.value == np.inf and sol.x is None and ref.status in (2, 3)
                else:
                    # 1e-9, or 1e-12 relative on the few optima far above 1
                    assert sol.value == pytest.approx(cold.value, abs=1e-9, rel=1e-12)
                    assert sol.value == pytest.approx(-ref.fun, abs=1e-7)
                    assert np.all(rows @ sol.x[:-1] <= b[: len(rows)] + 1e-8)
        assert outcomes["optimal"] > 50 and outcomes["infeasible"] > 0, outcomes
        # free_case's +-x_j <= 1 rows keep every LP bounded
        assert (outcomes["unbounded"] == 0) if make is free_case else (outcomes["unbounded"] > 100), outcomes

    def test_keep_sees_an_infinite_bound(self):
        # max t over t <= x on the line is +inf; appending t <= 1 - x makes it
        # 0.5. The first bound the dual simplex offers is +inf, which a keep
        # that asks for a level must accept and go on
        root = capped_root(np.zeros((0, 1)), np.zeros(0), [(None, None)])
        tab = append_row(root, np.array([-1.0, 1.0]), 0.0)
        sol = dual_simplex(tab, lambda bound: True)
        assert (sol.value, tab.infinite()) == (np.inf, True)
        for level, status in ((0.5, "optimal"), (0.75, "stopped")):
            seen = []
            child = append_row(tab, np.array([1.0, 1.0]), 1.0)
            sol = dual_simplex(child, lambda bound: seen.append(bound) or bound >= level)
            assert seen[0] == np.inf and np.isfinite(seen[-1]), seen
            assert sol.status == status and sol.value == pytest.approx(0.5)

    def test_bounded_tableau_drops_the_cap(self):
        # once the cap's slack is basic, an appended row leaves its row and
        # column out, and the path goes on as an ordinary tableau
        root = capped_root(np.zeros((0, 1)), np.zeros(0), [(None, None)])
        tab = append_row(root, np.array([-1.0, 1.0]), 0.0)
        dual_simplex(tab, lambda bound: True)
        tab = append_row(tab, np.array([1.0, 1.0]), 1.0)
        dual_simplex(tab, lambda bound: True)
        assert tab.cap is not None and not tab.infinite()
        child = append_row(tab, np.array([0.0, 1.0]), 0.25)
        assert child.cap is None and child.T.shape == (tab.T.shape[0], tab.T.shape[1])
        sol = dual_simplex(child, lambda bound: True)
        assert sol.status == "optimal" and sol.value == pytest.approx(0.25)


# --- stacks: many LPs in one lockstep simplex -------------------------------


def stack_lp(objective, rels, rows, rhs, bounds):
    """One LinearProgram holding a stack of LPs: rows (k, m, n), rhs (k, m)."""
    return LinearProgram(
        np.asarray(objective, float),
        np.asarray(rows, float).reshape(len(rhs), len(rels), len(objective)),
        np.array(rels, dtype=object),
        np.asarray(rhs, float).reshape(len(rhs), len(rels)),
        bounds,
    )


def bits(v):
    return np.float64(np.nan if v is None else v).tobytes()


def assert_stack_is_lp_solve(lp):
    """lp_stack agrees with lp_solve on every LP of the stack, bit for bit:
    status, optimum (NaN unless optimal) and pivot count. Returns the statuses."""
    status, value, pivots = lp_stack(lp)
    bounds = [(None if np.isinf(lo) else lo, None if np.isinf(up) else up) for lo, up in zip(lp.lo, lp.up)]
    for j in range(lp.A.shape[0]):
        one = lp_solve(LinearProgram(lp.objective, lp.A[j], lp.rel, lp.b[j], bounds))
        assert (status[j], pivots[j]) == (one.status, one.pivots), j
        assert bits(value[j]) == bits(one.value), (j, value[j], one.value)
    return list(status)


class TestStack:
    @pytest.mark.parametrize("pivot_tol", [simplex.PIVOT_TOL, 0.5])
    def test_random_stacks(self, monkeypatch, pivot_tol):
        # PIVOT_TOL at 0.5 sends many ratio tests to their PIVOT_MIN fallback
        monkeypatch.setattr(simplex, "PIVOT_TOL", pivot_tol)
        rng = np.random.default_rng(0)
        seen = {"optimal": 0, "unbounded": 0, "infeasible": 0}
        for _ in range(300):
            n, m, k = (int(v) for v in rng.integers(1, [6, 7, 9]))
            rels = [(LE, GE, EQ)[i] for i in rng.integers(0, 3, size=m)]
            if rng.random() < 0.3:  # integer grid: ties and degenerate vertices
                rows = rng.integers(-1, 2, size=(k, m, n))
                rhs = rng.integers(-1, 2, size=(k, m))
            else:
                rows, rhs = rng.normal(size=(k, m, n)), rng.normal(size=(k, m))
            lp = stack_lp(rng.normal(size=n), rels, rows, rhs, random_bounds(rng, n))
            for st in assert_stack_is_lp_solve(lp):
                seen[st] += 1
        assert min(seen.values()) > 100, seen

    def test_mixed_outcomes_in_one_stack(self, monkeypatch):
        # max x, x >= 0, rows x >= b0 and a x <= b1: the auxiliary ending
        # basic at zero (3 pivots, TestPhaseOne's LP), a feasible start, an
        # infeasible LP, an unbounded one and a phase-1 start, all in one
        # stack. Only the first goes to lp_solve's loop, which pivots its
        # auxiliary out.
        rows = [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]
        rhs = [[1.0, 1.0], [-1.0, 2.0], [2.0, 1.0], [1.0, 0.0], [0.5, 3.0]]
        lp = stack_lp([1.0], [GE, LE], rows, rhs, [(0.0, None)])
        calls = []
        solve_one = simplex._solve
        monkeypatch.setattr(simplex, "_solve", lambda *a: calls.append(1) or solve_one(*a))
        assert list(lp_stack(lp)[2])[0] == 3
        assert len(calls) == 1
        assert assert_stack_is_lp_solve(lp) == ["optimal", "optimal", "infeasible", "unbounded", "optimal"]

    @pytest.mark.parametrize(
        "objective, rels, rows, rhs, bounds",
        [
            # duplicated and scaled equality rows; the last LP is infeasible
            ([1.0, 0.0], [EQ, EQ, EQ], [[1, 1, 1, 1, 2, 2]] * 4,
             [[2, 2, 4], [1, 1, 2], [3, 3, 6], [2, 2, 5]], [(0.0, None)] * 2),
            ([1.0, 2.0], [EQ, EQ, EQ], [[1, 1, 2, 2, 1, -1]] * 3,
             [[2, 4, 0], [2, 4, 1], [1, 2, 0]], [(0.0, None)] * 2),
            # every row violated at the start, infeasible or not
            ([0.0], [LE, GE], [[1, 1]] * 3, [[-1, 1], [1, -1], [-1, -2]], [(None, None)]),
            ([-1.0, -1.0], [GE, GE, GE], [[1, 0, 0, 1, 1, 1], [1, 0, 0, 1, 2, 1]],
             [[1, 2, 4], [1, 2, 2]], [(0.0, None)] * 2),
            # a feasible start, phase 2 only
            ([1.0, 1.0], [LE, LE], [[1, 2, 3, 1], [2, 1, 1, 3]], [[4, 6], [4, 6]], [(0.0, None)] * 2),
            # unbounded along a free direction
            ([1.0, -1.0], [GE], [[1, -1], [1, 1], [-1, 1]], [[1], [1], [0]], [(None, None)] * 2),
            # boxed and one-sided bounds, no rows at all
            ([1.0, -1.0], [], np.zeros((3, 0, 2)), np.zeros((3, 0)), [(0.0, 2.0), (-1.0, 3.0)]),
            ([1.0, -1.0], [], np.zeros((2, 0, 2)), np.zeros((2, 0)), [(None, 2.0), (-1.0, None)]),
            # a fixed variable and a boxed one under a row
            ([1.0, 1.0], [LE], [[1, 1], [1, 2], [2, 1]], [[10], [4], [-10]], [(3.0, 3.0), (0.0, 5.0)]),
            # many ties at a degenerate optimum
            ([1.0, 1.0], [LE, LE, LE, LE], [[1, 1, 1, 0, 0, 1, 2, 2]] * 3,
             [[1, 1, 1, 2], [0, 0, 0, 0], [1, 0, 1, 2]], [(0.0, None)] * 2),
        ],
    )
    def test_hand_written_cases(self, objective, rels, rows, rhs, bounds):
        assert_stack_is_lp_solve(stack_lp(objective, rels, rows, rhs, bounds))

    def test_deleted_auxiliary_row(self, monkeypatch):
        # lp_solve deletes the row of an auxiliary that ends phase 1 basic
        # with no other entry above PIVOT_MIN. In exact arithmetic that row
        # cannot arise (its slack entries would all be zero, and so would its
        # auxiliary entry), so PIVOT_MIN is raised to force it: the stack must
        # then hand exactly those LPs to lp_solve's loop.
        monkeypatch.setattr(simplex, "PIVOT_MIN", 10.0)
        # the first, third and fourth LPs pin x with a >= and a <= row
        rows = [[1.0, 1.0], [1.0, 1.0], [2.0, 1.0], [1.0, 2.0], [1.0, 1.0], [1.0, 2.0]]
        rhs = [[1.0, 1.0], [2.0, 3.0], [2.0, 1.0], [1.0, 2.0], [-1.0, 2.0], [3.0, 1.0]]
        lp = stack_lp([1.0], [GE, LE], rows, rhs, [(0.0, None)])
        calls = []
        solve_one = simplex._solve
        monkeypatch.setattr(simplex, "_solve", lambda *a: calls.append(1) or solve_one(*a))
        lp_stack(lp)
        assert len(calls) == 3
        assert assert_stack_is_lp_solve(lp) == ["optimal"] * 5 + ["infeasible"]

    def test_shapes_checked(self):
        lp = LinearProgram([1.0], [[1.0]], [LE], [1.0], [(0.0, None)])
        with pytest.raises(ValueError, match="stack"):
            lp_stack(lp)
        stacked = stack_lp([1.0], [LE], [[1.0], [2.0]], [[1.0], [1.0]], [(0.0, None)])
        with pytest.raises(ValueError, match="one LP"):
            lp_tableau(stacked)
        with pytest.raises(ValueError, match="1 rows, 1 relations, 2 right-hand sides"):
            LinearProgram([1.0], np.ones((2, 1, 1)), [LE], np.ones((2, 2)), [(0.0, None)])
        with pytest.raises(ValueError, match="row 1: non-finite"):
            LinearProgram([1.0], np.ones((2, 2, 1)), [LE, LE], [[1.0, 1.0], [1.0, np.inf]], [(0.0, None)])
