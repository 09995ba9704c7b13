import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from lipbound import (
    ActivationPattern,
    AllSpace,
    Box,
    DomainEmptyError,
    DomainFormatError,
    L2Ball,
    MlpNetwork,
    NonPolyhedralDomainError,
    Polytope,
    affine_preactivations,
    assignment_for_pattern,
    build_model,
    compute_report,
    forward,
    max_slack,
    pattern_of,
    region_feasible,
    witness_at_level,
    witness_from_bounds,
)
import lipbound.regions as regions
from lipbound.regions import TAU_CLOSED, TAU_STRICT, SlackResult, domain_nonempty, max_slacks, meets_level
from lipbound.simplex import LinearProgram, lp_solve

from conftest import prefix_max_slack, random_net, unit_box


def margins(net, sigma, x):
    _, preacts = forward(net, x)
    return np.concatenate(
        [(np.asarray(b, float) - 0.5) * t for t, b in zip(preacts, sigma.bits)]
    )


class TestMaxSlack:
    def test_example2_breakpoint_region(self, ex2):
        res = max_slack(ex2, ActivationPattern(((0, 1),)), AllSpace())
        assert res.status == "bounded"
        assert res.slack == pytest.approx(0.5, abs=1e-9)
        assert res.witness == pytest.approx([0.0], abs=1e-8)

    def test_example1_boundary_region(self, ex1):
        res = max_slack(ex1, ActivationPattern(((1, 1),)), AllSpace())
        assert res.status == "bounded"
        assert res.slack == pytest.approx(0.0, abs=1e-9)
        assert res.witness == pytest.approx([1.0], abs=1e-8)

    def test_example2_unbounded_region(self, ex2):
        res = max_slack(ex2, ActivationPattern(((1, 1),)), AllSpace())
        assert res.status == "unbounded"
        assert res.slack == math.inf
        assert res.ray_slack_rate > 0

    def test_ball_rejected(self, ex1):
        with pytest.raises(NonPolyhedralDomainError):
            max_slack(ex1, ActivationPattern(((1, 1),)), L2Ball([0.0], 1.0))

    def test_infeasible_domain(self, ex1):
        empty = Polytope([[1.0], [-1.0]], [-3.0, 2.0])  # x <= -3 and x >= -2
        assert not domain_nonempty(empty, 1)
        res = max_slack(ex1, ActivationPattern(((1, 1),)), empty)
        assert res.status == "infeasible"


class TestRegionFeasible:
    def test_example1_strict_false(self, ex1):
        assert not region_feasible(ex1, ActivationPattern(((1, 1),)), AllSpace(), "strict")

    def test_example1_closed_zero_true(self, ex1):
        assert region_feasible(ex1, ActivationPattern(((1, 1),)), AllSpace(), 0.0)

    def test_example2_level_thresholds(self, ex2):
        sigma = ActivationPattern(((0, 1),))
        assert region_feasible(ex2, sigma, AllSpace(), 0.5)
        assert not region_feasible(ex2, sigma, AllSpace(), 0.6)


class TestLevelChecked:
    @pytest.mark.parametrize("eps", [-3.0, math.nan, math.inf])
    def test_negative_or_non_finite_eps_rejected(self, ex1, eps):
        # the closed region misses this box (slack -1.25); a negative level
        # must not pass it as feasible nor return a point outside it
        sigma = ActivationPattern(((1, 1),))
        box = Box([-2.0], [-1.5])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            region_feasible(ex1, sigma, box, eps)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            witness_at_level(ex1, sigma, box, eps)

    @pytest.mark.parametrize("eps", [True, False, np.True_, "0.5", b"0.25", None])
    def test_boolean_eps_rejected(self, eps):
        # float(True) is 1.0, and float() reads strings and bytes as well
        with pytest.raises(ValueError, match="eps must be a number"):
            regions.check_eps(eps)

    @pytest.mark.parametrize("eps, value", [(np.float32(0.5), 0.5), (np.int64(1), 1.0), (0, 0.0)])
    def test_numpy_scalar_eps_accepted(self, eps, value):
        assert regions.check_eps(eps) == value

    @pytest.mark.parametrize("mode", ["bnb", "oracle"])
    def test_string_eps_rejected_everywhere(self, ex1, mode):
        box, sigma = Box([-2.0], [2.0]), ActivationPattern(((1, 0),))
        report = compute_report(ex1, box, 2, [0.5], mode=mode)
        calls = [
            lambda: compute_report(ex1, box, 2, ["0.5"], mode=mode),
            lambda: witness_from_bounds(ex1, box, 2, "0.5", report),
            lambda: assignment_for_pattern(ex1, box, 2, "0.5", sigma),
            lambda: build_model(ex1, box, 2, "0.5"),
            lambda: region_feasible(ex1, sigma, box, "0.5"),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="eps must be a number"):
                call()


class TestMeetsLevel:
    # (slack, level, meets): level None is the open region, a float the
    # closed eps-margin set
    CASES = [
        (TAU_STRICT, None, False),
        (float(np.nextafter(TAU_STRICT, 1)), None, True),
        (TAU_CLOSED, 0.0, True),
        (float(np.nextafter(TAU_CLOSED, -1)), 0.0, False),
        (0.0, None, False),
        (0.0, 0.0, True),
        (0.3, 0.3, True),
        (float(np.nextafter(0.3, -1)), 0.3, False),
        *((math.nan, level, False) for level in (None, 0.0, 0.3)),
        *((math.inf, level, True) for level in (None, 0.0, 0.3)),
    ]

    @pytest.mark.parametrize("slack, level, meets", CASES)
    def test_table(self, slack, level, meets):
        assert meets_level(slack, level) is meets
        status = "infeasible" if math.isnan(slack) else "unbounded" if slack == math.inf else "bounded"
        res = SlackResult(status, slack)
        assert (res.feasible_strict if level is None else res.feasible_closed(level)) is meets


class TestWitnesses:
    def test_bounded_witness_reaches_slack(self):
        # forward-evaluated margins reproduce the slack whenever the region
        # is actually feasible; the affine forms and the true network agree
        # exactly on nonnegative-margin points
        checked = 0
        for seed in range(12):
            net = random_net(seed)
            box = unit_box(net)
            rng = np.random.default_rng(seed)
            for _ in range(6):
                flat = tuple(int(b) for b in rng.integers(0, 2, net.total_hidden_bits))
                sigma = ActivationPattern.from_flat(net.hidden_widths, flat)
                res = max_slack(net, sigma, box)
                assert res.status == "bounded"  # box domains always bound the slack
                if res.slack < 0:
                    continue
                got = margins(net, sigma, res.witness)
                assert got.min() >= res.slack - 1e-7
                checked += 1
        assert checked > 10

    def test_witness_at_level_on_unbounded_region(self, ex2):
        sigma = ActivationPattern(((1, 1),))
        x = witness_at_level(ex2, sigma, AllSpace(), 7.0)
        assert margins(ex2, sigma, x).min() >= 7.0

    def test_witness_at_level_rejects_shallow_region(self, ex2):
        with pytest.raises(ValueError):
            witness_at_level(ex2, ActivationPattern(((0, 1),)), AllSpace(), 0.75)

    def test_witness_at_level_empty_domain(self, ex1):
        empty = Polytope([[1.0], [-1.0]], [-3.0, 2.0])
        with pytest.raises(DomainEmptyError):
            witness_at_level(ex1, ActivationPattern(((1, 1),)), empty, 0.0)


class TestConsistencyProperties:
    def test_monotone_in_eps(self):
        rng = np.random.default_rng(23)
        for seed in range(6):
            net = random_net(seed)
            box = unit_box(net)
            for _ in range(10):
                flat = tuple(int(b) for b in rng.integers(0, 2, net.total_hidden_bits))
                sigma = ActivationPattern.from_flat(net.hidden_widths, flat)
                e1, e2 = sorted(rng.uniform(0, 0.5, size=2))
                if region_feasible(net, sigma, box, float(e2)):
                    assert region_feasible(net, sigma, box, float(e1))

    def test_sampled_point_certifies_slack(self):
        rng = np.random.default_rng(29)
        for seed in range(6):
            net = random_net(seed)
            box = unit_box(net)
            xs = rng.uniform(-1, 1, size=(30, net.input_dim))
            for x in xs:
                _, preacts = forward(net, x)
                m = min(float(np.abs(t).min()) for t in preacts)
                if m <= 1e-6:
                    continue
                res = max_slack(net, pattern_of(net, x), box)
                assert res.slack >= m / 2 - 1e-7

    def test_grid_patterns_subset_of_lp_feasible(self):
        # every pattern seen on a fine grid must be strictly LP-feasible
        for seed in (0, 3):
            net = random_net(seed, n_hidden_layers=2, max_width=3)
            if net.input_dim > 2:
                continue
            box = unit_box(net)
            axes = [np.linspace(-1, 1, 41) for _ in range(net.input_dim)]
            grid_patterns = set()
            for point in itertools.product(*axes):
                x = np.array(point)
                _, preacts = forward(net, x)
                if min(float(np.abs(t).min()) for t in preacts) <= 1e-9:
                    continue
                grid_patterns.add(pattern_of(net, x).flat)
            for flat in grid_patterns:
                sigma = ActivationPattern.from_flat(net.hidden_widths, flat)
                assert region_feasible(net, sigma, box, "strict")


class TestNeuronPrefix:
    def test_non_increasing_in_prefix_length(self):
        for seed in range(8):
            net = random_net(seed)
            box = unit_box(net)
            rng = np.random.default_rng(seed)
            flat = tuple(int(b) for b in rng.integers(0, 2, net.total_hidden_bits))
            slacks = [
                prefix_max_slack(net, flat[:k], box).slack
                for k in range(1, net.total_hidden_bits + 1)
            ]
            assert all(b <= a + 1e-9 for a, b in zip(slacks, slacks[1:]))

    def test_layer_boundaries_match_layer_prefix_lp(self):
        # at a layer boundary the prefix LP imposes exactly the margins of
        # the complete layers: the same rows as a network cut after them,
        # whatever its output layer, and after the last one the full LP
        for seed in range(6):
            net = random_net(seed)
            box = unit_box(net)
            rng = np.random.default_rng(seed)
            flat = tuple(int(b) for b in rng.integers(0, 2, net.total_hidden_bits))
            sigma = ActivationPattern.from_flat(net.hidden_widths, flat)
            used = 0
            for j, w in enumerate(net.hidden_widths, start=1):
                used += w
                cut = MlpNetwork.from_arrays(
                    [(layer.weights, layer.bias) for layer in net.layers[: j + 1]]
                )
                expected = max_slack(cut, ActivationPattern(sigma.bits[:j]), box).slack
                assert prefix_max_slack(net, flat[:used], box).slack == expected
            assert expected == max_slack(net, sigma, box).slack


def zoo_style_nets():
    """Seeded nets of the benchmark zoo's four classes: one hidden layer of
    width 7-8, two of width 3-4, three of width 2-3, and degenerate nets
    (zero biases, a duplicated or negated first-layer neuron) whose closed
    regions touch and whose slack cones are unbounded on all of space."""
    def net(seed, widths, degenerate=None):
        rng = np.random.default_rng(seed)
        layers = [
            (rng.normal(size=(widths[k + 1], widths[k])) / np.sqrt(widths[k]), 0.5 * rng.normal(size=widths[k + 1]))
            for k in range(len(widths) - 1)
        ]
        if degenerate is not None:
            layers = [(w, np.zeros_like(b)) for w, b in layers]
            layers[0][0][1] = -layers[0][0][0] if degenerate else layers[0][0][0]
        return MlpNetwork.from_arrays(layers)

    return [
        net(41, (3, 7, 1)),
        net(42, (2, 8, 2)),
        net(43, (3, 4, 3, 1)),
        net(44, (2, 3, 2, 3, 1)),
        net(45, (3, 5, 3, 1), degenerate=False),
        net(46, (2, 4, 3, 2), degenerate=True),
    ]


def zoo_style_domains(net, seed):
    n0 = net.input_dim
    cuts = np.random.default_rng(seed).normal(size=(2, n0))
    polytope = Polytope(np.vstack([np.eye(n0), -np.eye(n0), cuts]), np.concatenate([np.ones(2 * n0), [0.3, 0.3]]))
    return unit_box(net), polytope, AllSpace()


def all_flats(net):
    n = net.total_hidden_bits
    return np.array(list(itertools.product((0, 1), repeat=n)))


class TestMaxSlacks:
    def test_every_slack_lp_of_zoo_style_nets(self, monkeypatch):
        # the stack's status, optimum and pivots equal lp_solve's on each of
        # its slack LPs, and max_slacks equals max_slack, bit for bit
        stacks = []
        stack_solve = regions.lp_stack
        monkeypatch.setattr(regions, "lp_stack", lambda lp: stacks.append((lp, stack_solve(lp))) or stacks[-1][1])
        seen = {"optimal": 0, "unbounded": 0}
        for seed, net in enumerate(zoo_style_nets()):
            flats = all_flats(net)
            for domain in zoo_style_domains(net, seed):
                slacks, pivots = max_slacks(net, flats, domain)
                lp, (status, value, lp_pivots) = stacks[-1]
                bounds = [(None if np.isinf(a) else a, None if np.isinf(b) else b) for a, b in zip(lp.lo, lp.up)]
                for j, flat in enumerate(flats):
                    one = lp_solve(LinearProgram(lp.objective, lp.A[j], lp.b[j], bounds))
                    assert (status[j], lp_pivots[j]) == (one.status, one.pivots)
                    assert np.float64(value[j]).tobytes() == np.float64(np.nan if one.value is None else one.value).tobytes()
                    seen[one.status] += 1
                    res = max_slack(net, ActivationPattern.from_flat(net.hidden_widths, tuple(flat)), domain)
                    assert np.float64(slacks[j]).tobytes() == np.float64(res.slack).tobytes()
                    assert pivots[j] == res.pivots
        assert min(seen.values()) > 100, seen

    def test_one_pattern_and_checks(self, ex2):
        slacks, pivots = max_slacks(ex2, np.array([[0, 1], [1, 1]]), AllSpace())
        assert slacks[0] == pytest.approx(0.5, abs=1e-9)
        assert slacks[1] == max_slack(ex2, ActivationPattern(((1, 1),)), AllSpace()).slack
        with pytest.raises(DomainFormatError):
            max_slacks(ex2, np.array([[0, 1]]), Box([-1.0, -1.0], [1.0, 1.0]))
        with pytest.raises(NonPolyhedralDomainError):
            max_slacks(ex2, np.array([[0, 1]]), L2Ball([0.0], 1.0))


def scipy_slack(net, sigma, domain):
    """HiGHS on max t s.t. (sigma - 1/2) * theta(x) >= t for every neuron, x in domain."""
    n0 = net.input_dim
    sgn = np.concatenate([np.asarray(b, float) for b in sigma.bits]) - 0.5
    forms = affine_preactivations(net, sigma)
    # -(sgn * coeffs) . x + t <= sgn * offset
    A_ub = [np.append(-g * f.coeffs, 1.0) for g, f in zip(sgn, forms)]
    b_ub = [g * f.offset for g, f in zip(sgn, forms)]
    bounds = [(None, None)] * n0
    if isinstance(domain, Box):
        bounds = list(zip(domain.lower, domain.upper))
    elif isinstance(domain, Polytope):
        A_ub += [np.append(a, 0.0) for a in domain.A]
        b_ub += list(domain.b)
    c = np.zeros(n0 + 1)
    c[-1] = -1.0
    return linprog(c, A_ub=np.array(A_ub), b_ub=np.array(b_ub), bounds=bounds + [(None, None)],
                   method="highs")


class TestAgainstScipy:
    def test_max_slack_matches_highs(self):
        statuses = {"bounded": 0, "unbounded": 0}
        for seed in range(8):
            for bias_scale in (0.5, 0.0):
                net = random_net(seed, bias_scale=bias_scale)
                n0 = net.input_dim
                cut = np.random.default_rng(seed).normal(size=(1, n0))
                polytope = Polytope(
                    np.vstack([np.eye(n0), -np.eye(n0), cut]),
                    np.concatenate([np.ones(2 * n0), [0.5 * np.abs(cut).sum()]]),
                )
                rng = np.random.default_rng(100 + seed)
                # random bit strings (mostly empty regions) and the patterns of
                # random points (realized, so unbounded without biases)
                flats = [tuple(rng.integers(0, 2, net.total_hidden_bits)) for _ in range(3)]
                flats += [pattern_of(net, rng.normal(size=n0)).flat for _ in range(3)]
                for flat in flats:
                    sigma = ActivationPattern.from_flat(net.hidden_widths, flat)
                    for domain in (unit_box(net), polytope, AllSpace()):
                        mine = max_slack(net, sigma, domain)
                        ref = scipy_slack(net, sigma, domain)
                        statuses[mine.status] += 1
                        if mine.status == "bounded":
                            assert ref.status == 0, (seed, flat, type(domain).__name__)
                            assert mine.slack == pytest.approx(-ref.fun, abs=1e-7)
                        else:
                            assert mine.status == "unbounded"
                            assert ref.status == 3, (seed, flat, type(domain).__name__)
        # both outcomes occur: zero-bias nets on all of space give unbounded slacks
        assert min(statuses.values()) > 10
