import numpy as np
import pytest
from scipy.optimize import linprog

from lipbound import LinearProgram, lp_solve
from lipbound.simplex import EQ, GE, LE


def solve(objective, rows, bounds):
    return lp_solve(LinearProgram(np.asarray(objective, float), rows, bounds))


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
            LinearProgram(np.array([1.0]), [], [(2.0, 1.0)])

    def test_bad_row_shape_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(np.array([1.0]), [([1.0, 2.0], LE, 0.0)], [(0.0, None)])

    def test_degenerate_many_ties(self):
        # several constraints active at the optimum; Bland must terminate
        rows = [([1.0, 1.0], LE, 1.0), ([1.0, 0.0], LE, 1.0), ([0.0, 1.0], LE, 1.0),
                ([2.0, 2.0], LE, 2.0)]
        sol = solve([1.0, 1.0], rows, [(0.0, None), (0.0, None)])
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0)


class TestFromArrays:
    ROWS = [([1.0, 2.0], LE, 4.0), ([1.0, -1.0], GE, -1.0), ([0.0, 1.0], EQ, 1.0)]
    BOUNDS = [(0.0, None), (None, 3.0)]

    def stacked(self, rows=None):
        coeffs, rels, rhs = zip(*(rows or self.ROWS))
        return np.array(coeffs), np.array(rels, dtype=object), np.array(rhs)

    def test_same_lp_as_rows(self):
        by_rows = LinearProgram(np.array([1.0, 1.0]), self.ROWS, self.BOUNDS)
        by_arrays = LinearProgram.from_arrays(np.array([1.0, 1.0]), *self.stacked(), self.BOUNDS)
        for name in ("A", "rel", "b", "lo", "up"):
            assert np.array_equal(getattr(by_arrays, name), getattr(by_rows, name))
        assert len(by_arrays.rows) == 3
        assert by_arrays.rows[1][1:] == (GE, -1.0)
        a, b = lp_solve(by_rows), lp_solve(by_arrays)
        assert a.status == b.status == "optimal"
        assert np.array_equal(a.x, b.x) and a.pivots == b.pivots

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
    def test_same_errors_as_rows(self, rows, bounds, match):
        objective = np.array([1.0, 1.0])
        with pytest.raises(ValueError, match=match):
            LinearProgram(objective, rows, bounds)
        with pytest.raises(ValueError, match=match):
            LinearProgram.from_arrays(objective, *self.stacked(rows), bounds)

    def test_shape_mismatch_rejected(self):
        A, rel, b = self.stacked()
        objective = np.array([1.0, 1.0])
        with pytest.raises(ValueError, match="row 0: 3 coefficients for 2 variables"):
            LinearProgram.from_arrays(objective, np.hstack([A, A[:, :1]]), rel, b, self.BOUNDS)
        with pytest.raises(ValueError, match="3 rows, 2 relations"):
            LinearProgram.from_arrays(objective, A, rel[:2], b, self.BOUNDS)
        with pytest.raises(ValueError, match="3 rows, 3 relations, 2 right-hand sides"):
            LinearProgram.from_arrays(objective, A, rel, b[:2], self.BOUNDS)

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
