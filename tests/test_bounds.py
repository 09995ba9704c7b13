import itertools
import math

import numpy as np
import pytest

from lipbound import (
    ActivationPattern,
    AllSpace,
    Box,
    DomainEmptyError,
    EnumerationGuardError,
    MlpNetwork,
    Polytope,
    branch_and_bound,
    brute_force_bounds,
    compute_report,
    operator_norm,
    pattern_norm,
    pattern_of,
    report_to_dict,
    unconstrained_bound,
)

from conftest import assert_node_bound_sound, random_net, unit_box

PS = (1, 2, math.inf)


def curve_tuples(report):
    return [(seg.eps_end, seg.value, seg.empty) for seg in report.curve]


class TestBruteForce:
    @pytest.mark.parametrize("p", PS)
    def test_example1(self, ex1, p):
        r = brute_force_bounds(ex1, AllSpace(), p, [0.1, 1.0, 10.0])
        assert r.upper == pytest.approx(2.0, abs=1e-9)
        assert r.lower == pytest.approx(1.0, abs=1e-9)
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in r.eps_values.values())
        assert curve_tuples(r) == [(math.inf, pytest.approx(1.0), False)]
        assert r.argmax_upper.bits == ((1, 1),)

    @pytest.mark.parametrize("p", PS)
    def test_example2(self, ex2, p):
        r = brute_force_bounds(ex2, AllSpace(), p, [])
        assert r.upper == pytest.approx(1.0, abs=1e-9)
        assert r.lower == pytest.approx(1.0, abs=1e-9)
        assert curve_tuples(r) == [
            (pytest.approx(0.5, abs=1e-9), pytest.approx(1.0), False),
            (math.inf, pytest.approx(0.0), False),
        ]

    def test_zero_output_layer(self):
        net = MlpNetwork.from_arrays([([[1.0], [1.0]], [0.5, -0.5]), ([[0.0, 0.0]], [0.0])])
        r = brute_force_bounds(net, AllSpace(), 2, [0.1])
        assert r.upper == 0.0 and r.lower == 0.0 and r.eps_values[0.1] == 0.0

    def test_enumeration_guard(self):
        net = MlpNetwork.from_arrays(
            [(np.ones((25, 1)), np.zeros(25)), (np.ones((1, 25)), [0.0])]
        )
        with pytest.raises(EnumerationGuardError):
            brute_force_bounds(net, AllSpace(), 1)

    def test_empty_domain_raises(self, ex1):
        empty = Polytope([[1.0], [-1.0]], [-3.0, 2.0])
        with pytest.raises(DomainEmptyError):
            brute_force_bounds(ex1, empty, 2)

    @pytest.mark.parametrize("mode", ["oracle", "bnb"])
    def test_boolean_p_or_eps_rejected(self, ex1, mode):
        # True == 1 and float(True) == 1.0; neither may stand for p=1 or eps 1
        with pytest.raises(ValueError, match="is not a norm order"):
            compute_report(ex1, AllSpace(), True, mode=mode)
        with pytest.raises(ValueError, match="eps must be a number"):
            compute_report(ex1, AllSpace(), 1, [True], mode=mode)

    def test_eps_beyond_all_slacks_marked_empty(self, ex1):
        # box domain keeps every slack finite; a huge eps empties the set
        r = brute_force_bounds(ex1, Box([-2.0], [2.0]), 2, [50.0])
        assert r.eps_values[50.0] == 0.0
        assert 50.0 in r.eps_empty
        assert r.curve[-1].empty

    def test_deterministic_rerun(self):
        net = random_net(5)
        box = unit_box(net)
        a = brute_force_bounds(net, box, 2, [0.01])
        b = brute_force_bounds(net, box, 2, [0.01])
        assert report_to_dict(a) == report_to_dict(b)


class TestUnconstrainedBound:
    def test_example1(self, ex1):
        assert unconstrained_bound(ex1, math.inf) == pytest.approx(2.0)

    def test_example2_by_enumeration(self, ex2):
        values = [
            pattern_norm(ex2, ActivationPattern.from_flat((2,), flat), 2)
            for flat in itertools.product((0, 1), repeat=2)
        ]
        assert sorted(values) == pytest.approx([0.0, 0.0, 1.0, 1.0])
        assert unconstrained_bound(ex2, 2) == pytest.approx(1.0)

    def test_zero_output_layer(self):
        net = MlpNetwork.from_arrays([([[1.0], [1.0]], [0.0, 0.0]), ([[0.0, 0.0]], [0.0])])
        assert unconstrained_bound(net, 1) == 0.0

    @pytest.mark.parametrize("p", PS)
    def test_matches_enumeration_on_random_nets(self, p):
        # three hidden layers add prefixes that end inside a middle layer,
        # whose interval bound crosses two free hidden layers above it
        for seed, n_hidden_layers in itertools.product(range(5), (2, 3)):
            net = random_net(seed, n_hidden_layers=n_hidden_layers, max_width=3)
            expected = max(
                pattern_norm(net, ActivationPattern.from_flat(net.hidden_widths, flat), p)
                for flat in itertools.product((0, 1), repeat=net.total_hidden_bits)
            )
            assert unconstrained_bound(net, p) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("p", PS)
    def test_deeper_than_the_recursion_limit(self, p):
        # 1,200 bits on one path: with positive weights every entry of every
        # pattern Jacobian is nonnegative, so the all-on pattern is the max
        # and the value prune leaves about 2n + 1 nodes on a search deeper
        # than Python's recursion limit
        rng = np.random.default_rng(1200)
        w0 = np.abs(rng.standard_normal((1200, 2))) + 0.1
        w1 = np.abs(rng.standard_normal((1, 1200))) + 0.1
        net = MlpNetwork.from_arrays([(w0, rng.standard_normal(1200)), (w1, [0.0])])
        assert unconstrained_bound(net, p) == pytest.approx(operator_norm(w1 @ w0, p), rel=1e-12)


class TestBranchAndBound:
    @pytest.mark.parametrize("p", PS)
    def test_matches_oracle_on_random_nets(self, p):
        for seed in range(12):
            net = random_net(seed)
            box = unit_box(net)
            oracle = brute_force_bounds(net, box, p, [0.05])
            r = branch_and_bound(net, box, p, [0.05])
            assert r.upper == pytest.approx(oracle.upper, abs=1e-9)
            assert r.lower == pytest.approx(oracle.lower, abs=1e-9)
            assert r.lower_empty == oracle.lower_empty
            assert r.eps_values[0.05] == pytest.approx(oracle.eps_values[0.05], abs=1e-9)
            assert (0.05 in r.eps_empty) == (0.05 in oracle.eps_empty)

    def test_argmax_ties_lexicographic(self):
        # two symmetric hidden units give tied optima; both searches must
        # settle on the lexicographically smallest argmax
        net = MlpNetwork.from_arrays(
            [([[1.0], [1.0]], [0.3, 0.3]), ([[1.0, -1.0]], [0.0])]
        )
        oracle = brute_force_bounds(net, AllSpace(), math.inf, [])
        bnb = branch_and_bound(net, AllSpace(), math.inf)
        assert oracle.argmax_upper.bits == bnb.argmax_upper.bits

    def test_prunes_infeasible_first_layer(self):
        # first hidden layer demands x >= 1 and x <= -1 simultaneously
        net = MlpNetwork.from_arrays(
            [
                ([[1.0], [-1.0]], [-1.0, -1.0]),
                ([[1.0, 1.0], [1.0, -1.0]], [0.0, 0.0]),
                ([[1.0, 1.0]], [0.0]),
            ]
        )
        r = branch_and_bound(net, AllSpace(), 1)
        # the all-on prefix (1,1) dies at the first layer boundary, so the
        # four completions below it are never visited
        assert r.stats.nodes_explored < 2 ** (net.total_hidden_bits + 1) - 1
        assert r.upper is not None

    def test_example_targets(self, ex1, ex2):
        assert branch_and_bound(ex1, AllSpace(), 2).upper == pytest.approx(2.0)
        r = branch_and_bound(ex2, AllSpace(), 2, [0.5, 0.6])
        assert r.eps_values[0.5] == pytest.approx(1.0)
        assert r.eps_values[0.6] == pytest.approx(0.0)


class TestFullReports:
    def test_unknown_mode_rejected(self, ex1):
        with pytest.raises(ValueError, match="unknown mode 'fast'"):
            compute_report(ex1, AllSpace(), 2, mode="fast")

    @pytest.mark.parametrize("p", PS)
    def test_modes_agree_on_fixtures(self, ex1, ex2, p):
        for net in (ex1, ex2):
            a = report_to_dict(compute_report(net, AllSpace(), p, [0.1, 0.7], mode="oracle"))
            b = report_to_dict(compute_report(net, AllSpace(), p, [0.1, 0.7], mode="bnb"))
            a.pop("stats")
            b.pop("stats")
            assert a == b

    def test_modes_agree_on_random_nets(self):
        for seed in (1, 6, 9):
            net = random_net(seed)
            box = unit_box(net)
            a = report_to_dict(compute_report(net, box, 2, [0.02], mode="oracle"))
            b = report_to_dict(compute_report(net, box, 2, [0.02], mode="bnb"))
            a.pop("stats")
            b.pop("stats")
            assert a == b

    def test_curve_values_subset_of_pattern_norms(self):
        for seed in range(6):
            net = random_net(seed)
            box = unit_box(net)
            r = brute_force_bounds(net, box, 1, [])
            norms = {
                round(pattern_norm(net, ActivationPattern.from_flat(net.hidden_widths, f), 1), 12)
                for f in itertools.product((0, 1), repeat=net.total_hidden_bits)
            }
            for seg in r.curve:
                if not seg.empty:
                    assert round(seg.value, 12) in norms

    def test_curve_first_interval_equals_lower(self):
        for seed in range(6):
            net = random_net(seed)
            box = unit_box(net)
            r = brute_force_bounds(net, box, math.inf, [])
            if not r.lower_empty:
                assert r.curve[0].value == r.lower

    def test_infinity_serialized_as_string(self, ex1):
        d = report_to_dict(brute_force_bounds(ex1, AllSpace(), 2, []))
        assert d["curve"][-1]["eps"] == "inf"

    def test_sandwich_chain(self):
        from lipbound import pairwise_quotient_estimate, sampled_lower_bound

        for seed in range(5):
            net = random_net(seed)
            box = unit_box(net)
            for p in PS:
                r = brute_force_bounds(net, box, p, [])
                sampled = sampled_lower_bound(net, box, p, 100, seed).value
                quot = pairwise_quotient_estimate(net, box, p, 100, seed)
                ub = unconstrained_bound(net, p)
                assert sampled <= r.lower + 1e-9
                assert r.lower <= r.upper + 1e-9
                assert r.upper <= ub + 1e-9
                assert quot <= r.upper + 1e-6


class TestZeroBiasScaling:
    def test_strict_regions_unbounded_and_curve_flat(self):
        for seed in range(4):
            net = random_net(seed, bias_scale=0.0)
            r = brute_force_bounds(net, AllSpace(), 2, [0.01, 1.0, 100.0])
            vals = list(r.eps_values.values())
            assert max(vals) - min(vals) <= 1e-12
            assert vals[0] == pytest.approx(r.lower, abs=1e-12)
            from lipbound import max_slack

            for flat in itertools.product((0, 1), repeat=net.total_hidden_bits):
                sigma = ActivationPattern.from_flat(net.hidden_widths, flat)
                res = max_slack(net, sigma, AllSpace())
                if res.slack > 1e-9:
                    assert res.slack == math.inf


def _seeded_net(seed, widths):
    rng = np.random.default_rng(seed)
    return MlpNetwork.from_arrays(
        [
            (rng.normal(size=(widths[k + 1], widths[k])), 0.5 * rng.normal(size=widths[k + 1]))
            for k in range(len(widths) - 1)
        ]
    )


def _degenerate(net, negate):
    """Zero every bias and let the second first-layer neuron copy or negate the first."""
    layers = [(np.array(layer.weights), np.zeros_like(layer.bias)) for layer in net.layers]
    w0 = layers[0][0]
    w0[1] = -w0[0] if negate else w0[0]
    return MlpNetwork.from_arrays(layers)


def _domains(net, seed):
    n0 = net.input_dim
    cut = np.random.default_rng(seed).normal(size=(1, n0))
    polytope = Polytope(
        np.vstack([np.eye(n0), -np.eye(n0), cut]),
        np.concatenate([np.ones(2 * n0), [0.5 * np.abs(cut).sum()]]),
    )
    return (unit_box(net), polytope, AllSpace())


EQUIVALENCE_NETS = [
    _seeded_net(11, (2, 6, 1)),
    _seeded_net(12, (2, 3, 3, 2)),
    _seeded_net(13, (3, 2, 2, 2, 1)),
    _degenerate(_seeded_net(14, (2, 4, 3, 1)), negate=False),
    _degenerate(_seeded_net(15, (2, 4, 3, 1)), negate=True),
    _degenerate(_seeded_net(16, (3, 5, 1)), negate=True),
]


class TestOneSearch:
    @pytest.mark.parametrize("p", PS)
    def test_bnb_report_equals_oracle(self, p):
        for i, net in enumerate(EQUIVALENCE_NETS):
            for domain in _domains(net, i):
                a = report_to_dict(compute_report(net, domain, p, [0.05, 0.3], mode="oracle"))
                b = report_to_dict(compute_report(net, domain, p, [0.05, 0.3], mode="bnb"))
                a.pop("stats")
                b.pop("stats")
                assert a == b, (i, type(domain).__name__)

    @pytest.mark.parametrize("p", PS)
    def test_lower_witness_realizes_argmax(self, p):
        # the witness may move between optimal LP vertices, but it must lie
        # in the domain and in the open region of the lower argmax
        for i, net in enumerate(EQUIVALENCE_NETS):
            for domain in _domains(net, i):
                r = compute_report(net, domain, p, [0.05], mode="bnb")
                if r.lower_empty:
                    continue
                x = r.witness_x_lower
                assert pattern_of(net, x) == r.argmax_lower, (i, type(domain).__name__)
                if isinstance(domain, Box):
                    assert np.all(domain.lower - 1e-9 <= x) and np.all(x <= domain.upper + 1e-9)
                elif isinstance(domain, Polytope):
                    assert np.all(domain.A @ x <= domain.b + 1e-9)

    def test_prunes_within_one_hidden_layer(self):
        # one hidden layer has no interior layer boundary: only the
        # per-neuron prefix LPs can prune it
        net = _seeded_net(3, (4, 10, 1))
        r = compute_report(net, unit_box(net), 2, [0.05], mode="bnb")
        # the interval-Jacobian node bound visits exactly 495 nodes here, so a
        # looser prune shows as a failure. The root LP, a warm LP for each of
        # the 329 prefixes and leaves below the root that the value prune
        # keeps, the exact LPs of the 9 kept leaves that no other kept leaf
        # dominates and the witness LP make exactly 340 LPs and 500 pivots,
        # so an extra LP or a lost warm start fails too
        assert r.stats.nodes_explored <= 495
        assert (r.stats.lp_calls, r.stats.warm_lps, r.stats.patterns_feasible) == (340, 329, 9)
        assert r.stats.pivots == 500
        oracle = compute_report(net, unit_box(net), 2, [0.05], mode="oracle")
        # one LP per pattern, plus the lower argmax's max_slack for its witness
        assert oracle.stats.lp_calls == 2**10 + 1

    def test_one_search_per_report(self, monkeypatch):
        import lipbound.bounds as bounds_module

        calls = []
        original = bounds_module.branch_and_bound

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(bounds_module, "branch_and_bound", spy)
        net = random_net(1)
        r = compute_report(net, unit_box(net), 2, [0.05, 0.2], mode="bnb")
        assert len(calls) == 1
        assert set(r.eps_values) == {0.05, 0.2}


class TestLeaves:
    def test_leaves_below_unbounded_parents(self, monkeypatch):
        # x -> (x, 2x) -> h1 - h2 on all of R: every prefix region is a
        # half-line, so both prefix LPs reach a slack of +inf, with the
        # symbolic cap's slack nonbasic. Their children still start warm from
        # those tableaus: the root's LP over the domain with t <= W is the one
        # cold LP of the search
        import lipbound.bounds as bounds_module

        net = MlpNetwork.from_arrays([([[1.0], [2.0]], [0.0, 0.0]), ([[1.0, -1.0]], [0.0])])
        oracle = report_to_dict(compute_report(net, AllSpace(), 2, [0.05], mode="oracle"))
        rows = []
        cold = bounds_module.lp_tableau
        monkeypatch.setattr(bounds_module, "lp_tableau", lambda lp: rows.append(lp.A.shape[0]) or cold(lp))
        r = compute_report(net, AllSpace(), 2, [0.05], mode="bnb")
        assert rows == [1]  # the root: t <= 0, raised to t <= W
        # the root, warm LPs for prefixes (1) and (0) and leaves (1, 1),
        # (1, 0) and (0, 1), the exact LPs of those 3 kept leaves and the
        # witness LP; (0, 0), of norm 0, is pruned by value
        assert (r.stats.lp_calls, r.stats.warm_lps, r.stats.patterns_feasible) == (10, 5, 3)
        assert r.argmax_lower.flat == (1, 1) and r.argmax_upper.flat == (0, 1)
        got = report_to_dict(r)
        got.pop("stats")
        oracle.pop("stats")
        assert got == oracle

    @pytest.mark.parametrize("p", PS)
    def test_one_cold_lp_per_report(self, monkeypatch, p):
        # every search LP but the root's starts warm from its parent's
        # tableau, on every domain kind
        import lipbound.bounds as bounds_module

        calls = []
        cold = bounds_module.lp_tableau
        monkeypatch.setattr(bounds_module, "lp_tableau", lambda lp: calls.append(1) or cold(lp))
        for i, net in enumerate(EQUIVALENCE_NETS):
            for domain in _domains(net, i):
                calls.clear()
                r = compute_report(net, domain, p, [0.05], mode="bnb")
                assert len(calls) == 1, (i, type(domain).__name__)
                assert r.stats.warm_lps > 0

    def test_stacks_of_one(self, monkeypatch):
        # stacks capped at 3 tableau entries hold one leaf each; the report,
        # stats included, is the one of the default stacks
        import lipbound.bounds as bounds_module

        net = _seeded_net(3, (4, 10, 1))
        box = unit_box(net)
        want = report_to_dict(compute_report(net, box, 2, [0.05], mode="bnb"))
        oracle = report_to_dict(compute_report(net, box, 2, [0.05], mode="oracle"))
        sizes = []
        stack_slacks = bounds_module.max_slacks
        monkeypatch.setattr(
            bounds_module, "max_slacks", lambda n, flats, d: sizes.append(len(flats)) or stack_slacks(n, flats, d)
        )
        monkeypatch.setattr(bounds_module, "_STACK_ENTRIES", 3)
        got = report_to_dict(compute_report(net, box, 2, [0.05], mode="bnb"))
        assert len(sizes) > 1 and set(sizes) == {1}
        assert got == want
        got.pop("stats")
        oracle.pop("stats")
        assert got == oracle


# Two zoo-like nets on which a kept leaf's search slack lay a few ulps above
# its exact slack, and above the exact slack of a point of the curve, so a
# value prune at the plain envelope dropped that point.
LAST_BIT_NETS = [
    (
        [
            ([[0.2999040487738106, 0.2942759438677751], [-0.053927356647774906, 0.261326198546184]],
             [-0.12263404564350762, 0.6584126989612169]),
            ([[-0.15594441049655272, -0.7401497888807683], [0.5504932038979801, -1.1696609982612614],
              [-0.12724372509794776, -0.13668166368359058]],
             [-1.1352365203384098, 0.23666920805313887, -1.2361904129987735]),
            ([[-0.3619028573103673, -0.265328898894646, -0.5361385789016775],
              [-0.22416950927126786, 0.22502522141613565, 0.08320373046672508],
              [0.16950770970583215, 0.494915067670786, -0.9114398655771809]],
             [0.750928761525397, -0.15666999757109515, 0.4508266843616791]),
            ([[0.2833878298077849, 0.4094250914208498, 0.15476027457200894],
              [-1.0889711519304308, -0.5919332905675474, 0.2409237753130655]],
             [-0.30850242897081276, -0.6026291956659294]),
        ],
        None,
        math.inf,
    ),
    (
        [
            ([[0.864933023555366, 0.030882451472494354, -0.006632071792914515],
              [-0.2826956929872624, 0.5266458874633351, 0.9396171731758062],
              [0.5223594910215317, 0.8743141809130237, 0.6391942022631191]],
             [0.01822182663143655, -0.06498843245081797, 1.4805569377926349]),
            ([[0.8731246612721082, 0.7049916131101264, -0.833152128091472],
              [0.47661653590721126, -0.6991835374251268, -0.15096258201552373]],
             [0.2179058870712625, 0.5559370370344456]),
            ([[-0.43621752067532327, -1.1801258473603184], [0.1638841757140021, -0.16542316383786607]],
             [0.18514033841950445, -0.22453890437880714]),
            ([[0.1786273790736219, 0.5400441608589589]], [-0.28132079505300217]),
        ],
        (
            [[-0.29647694574157973, 0.4249340822328321, -1.9892416743119627],
             [0.7134456563873924, 0.8304290571264239, 0.45167525844734263]],
            [0.581982528911872, 1.4104032395615587],
        ),
        2,
    ),
]


@pytest.mark.parametrize("layers, cuts, p", LAST_BIT_NETS)
def test_value_prune_survives_last_bit_slack_noise(layers, cuts, p):
    net = MlpNetwork.from_arrays(layers)
    if cuts is None:
        domain = AllSpace()
    else:
        n0 = net.input_dim
        domain = Polytope(np.vstack([np.eye(n0), -np.eye(n0), cuts[0]]), np.concatenate([np.ones(2 * n0), cuts[1]]))
    oracle = report_to_dict(compute_report(net, domain, p, [0.05, 0.2], mode="oracle"))
    bnb = report_to_dict(compute_report(net, domain, p, [0.05, 0.2], mode="bnb"))
    oracle.pop("stats")
    bnb.pop("stats")
    assert bnb == oracle


class TestOracleStacks:
    def test_partial_last_stack(self, monkeypatch):
        # stacks of 3 over 1,024 patterns leave a last stack of 1; the
        # report, stats included, is the one of the default stacks
        import lipbound.bounds as bounds_module

        net = _seeded_net(3, (4, 10, 1))
        box = unit_box(net)
        want = report_to_dict(brute_force_bounds(net, box, 2, [0.05]))
        sizes = []
        stack_slacks = bounds_module.max_slacks
        monkeypatch.setattr(
            bounds_module, "max_slacks", lambda n, flats, d: sizes.append(len(flats)) or stack_slacks(n, flats, d)
        )
        monkeypatch.setattr(bounds_module, "_STACK_ENTRIES", 3 * bounds_module._lp_entries(net, box))
        got = report_to_dict(brute_force_bounds(net, box, 2, [0.05]))
        assert sizes == [3] * 341 + [1]
        assert got == want

    @pytest.mark.parametrize("domain", ["box", "polytope", "all"])
    def test_lp_entries_bounds_the_pivoted_tableau(self, monkeypatch, domain):
        # the stacks are sized by _lp_entries: it must bound the entries of
        # the tableau that lp_stack pivots for one pattern, and not loosely,
        # or a layout change would leave the stacks silently mis-sized
        import lipbound.bounds as bounds_module
        import lipbound.simplex as simplex

        net = _seeded_net(5, (3, 4, 4, 1))
        n0 = net.input_dim
        domain = {
            "box": unit_box(net),
            "polytope": Polytope(np.vstack([np.eye(n0), -np.eye(n0), np.ones((2, n0))]), np.ones(2 * n0 + 2)),
            "all": AllSpace(),
        }[domain]
        sizes = []
        build = simplex._tableau

        def spy(lp):
            out = build(lp)
            sizes.append(out[0][0].size)  # the first LP's starting tableau
            return out

        monkeypatch.setattr(simplex, "_tableau", spy)
        bounds_module.max_slacks(net, np.ones((1, net.total_hidden_bits), dtype=int), domain)
        entries = bounds_module._lp_entries(net, domain)
        assert len(sizes) == 1
        assert sizes[0] <= entries <= 1.5 * sizes[0]

    @pytest.mark.parametrize("name", ["max_slacks", "pattern_norms"])
    def test_stacked_values_rechecked(self, monkeypatch, name):
        # the lower argmax is solved and normed again on its own; a stacked
        # value one ulp off fails the report
        import lipbound.bounds as bounds_module

        stacked = getattr(bounds_module, name)

        def off_by_one_ulp(*args):
            out = stacked(*args)
            values = out[0] if name == "max_slacks" else out
            values[:] = np.nextafter(values, np.inf)
            return out

        monkeypatch.setattr(bounds_module, name, off_by_one_ulp)
        net = _seeded_net(11, (2, 6, 1))
        with pytest.raises(AssertionError, match="differs from its pattern's own"):
            brute_force_bounds(net, unit_box(net), 2, [])

    @pytest.mark.parametrize("i", range(len(EQUIVALENCE_NETS)))
    def test_norms_only_the_kept_patterns(self, monkeypatch, i):
        # a closed-infeasible pattern adds nothing to any target, so the
        # oracle forms and norms the Jacobians of the kept patterns alone
        import lipbound.bounds as bounds_module

        rows = []
        norms = bounds_module.pattern_norms
        monkeypatch.setattr(
            bounds_module, "pattern_norms", lambda n, flats, p: rows.append(len(flats)) or norms(n, flats, p)
        )
        net = EQUIVALENCE_NETS[i]
        for domain in _domains(net, i):
            for p in PS:
                rows.clear()
                r = brute_force_bounds(net, domain, p, [0.05])
                assert sum(rows) == r.stats.patterns_feasible, (type(domain).__name__, p)

    def test_no_kept_pattern(self, monkeypatch):
        # should every exact LP miss the closed level, both modes report no
        # upper bound and an empty lower set, with nothing to norm
        import lipbound.bounds as bounds_module

        stacked = bounds_module.max_slacks

        def closed_infeasible(*args):
            slacks, pivots = stacked(*args)
            return np.full_like(slacks, -np.inf), pivots

        monkeypatch.setattr(bounds_module, "max_slacks", closed_infeasible)
        net = _seeded_net(11, (2, 6, 1))
        reports = [report_to_dict(compute_report(net, unit_box(net), 2, [0.05], mode=m)) for m in ("oracle", "bnb")]
        for r in reports:
            assert r.pop("stats")["patterns_feasible"] == 0
        assert reports[0] == reports[1]
        assert reports[0]["upper"] is None and reports[0]["lower_empty"]

    # the Jacobian of every pattern with neurons (0,0) and (1,0) on is about
    # 1e320, and (0,0) needs x >= 10
    OVERFLOW_NET = MlpNetwork.from_arrays(
        [([[1.0], [1.0]], [-10.0, 0.0]), ([[1e160, 0.0], [0.0, 1.0]], [0.0, 0.0]), ([[1e160, 1.0]], [0.0])]
    )

    @pytest.mark.parametrize("p", PS)
    def test_overflowing_closed_infeasible_pattern(self, p):
        # the box ends at 1, so no kept pattern overflows and both modes
        # give one report
        box = Box([-1.0], [1.0])
        oracle = report_to_dict(compute_report(self.OVERFLOW_NET, box, p, [0.1], mode="oracle"))
        bnb = report_to_dict(compute_report(self.OVERFLOW_NET, box, p, [0.1], mode="bnb"))
        oracle.pop("stats")
        bnb.pop("stats")
        assert oracle == bnb
        assert oracle["upper"] == 1.0 and oracle["argmax_upper"] == [[0, 1], [0, 1]]

    @pytest.mark.parametrize("mode", ["oracle", "bnb"])
    @pytest.mark.parametrize("p", PS)
    def test_overflowing_kept_pattern_raises(self, p, mode):
        # on [-20, 20] the overflowing patterns meet the box: the checked
        # norms refuse them (the matmul's overflow warning is an error here)
        box = Box([-20.0], [20.0])
        with pytest.raises((ValueError, RuntimeWarning), match="non-finite|overflow"):
            compute_report(self.OVERFLOW_NET, box, p, [0.1], mode=mode)

    @pytest.mark.parametrize(
        "net, domain, p",
        [
            (_seeded_net(31, (3, 7, 7, 1)), "box", 2),
            (_degenerate(_seeded_net(32, (3, 7, 7, 1)), negate=True), "all", math.inf),
        ],
    )
    def test_fourteen_bits(self, net, domain, p):
        # beyond the benchmark zoo's 12 bits: the same report as the search,
        # from 2^14 pattern LPs plus the lower argmax's witness LP
        domain = unit_box(net) if domain == "box" else AllSpace()
        oracle = report_to_dict(compute_report(net, domain, p, [0.05], mode="oracle"))
        bnb = report_to_dict(compute_report(net, domain, p, [0.05], mode="bnb"))
        stats = oracle.pop("stats")
        bnb.pop("stats")
        assert oracle == bnb
        assert stats["nodes_explored"] == 2**14
        assert stats["lp_calls"] == 2**14 + 1


NODE_BOUND_NETS = [
    *EQUIVALENCE_NETS,
    _seeded_net(21, (3, 3, 3, 3)),
    _seeded_net(22, (2, 3, 2, 2, 2)),
    _degenerate(_seeded_net(23, (2, 3, 3, 2)), negate=False),
    _degenerate(_seeded_net(24, (2, 3, 2, 2, 3)), negate=True),
]


class TestNodeBound:
    @pytest.mark.parametrize("p", PS)
    def test_covers_every_completion(self, p):
        for net in NODE_BOUND_NETS:
            assert_node_bound_sound(net, p)
