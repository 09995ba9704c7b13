"""Property tests: the eps-curve as a staircase and the targets as the best
points meeting their levels, the pruned search against the 2^n oracle, its
warm prefix LPs against cold ones, its leaf decisions and stacked leaf
slacks against max_slack, one warm LP per appended margin row and its
node bound against every completion on degenerate networks, and the
batched sampling pass against the per-sample loop on the same networks."""

import importlib.util
import json
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import lipbound.bounds as bounds_module  # noqa: E402
from lipbound import (  # noqa: E402
    ActivationPattern,
    AllSpace,
    Box,
    MlpNetwork,
    Polytope,
    compute_report,
    report_to_dict,
)
from lipbound.bounds import SearchStats, _aggregate  # noqa: E402
from lipbound.network import _jacobian_from_bits, load_domain, load_network  # noqa: E402
from lipbound.norms import operator_norm  # noqa: E402
from lipbound.regions import TAU_STRICT, max_slack, max_slacks, meets_level  # noqa: E402
from lipbound.simplex import dual_simplex  # noqa: E402
from lipbound.sampling import pairwise_quotient_estimate, sampled_lower_bound  # noqa: E402

from conftest import (  # noqa: E402
    assert_node_bound_sound,
    assert_same_estimate,
    prefix_max_slack,
    reference_pairwise_quotient,
    reference_sampled_lower_bound,
)

PS = (1, 2, math.inf)
ZOO = Path(__file__).resolve().parents[1] / "perfbench" / "zoo.py"
GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)

# --- the curve -------------------------------------------------------------

CURVE_NET = MlpNetwork.from_arrays([(np.ones((4, 1)), np.zeros(4)), (np.ones((1, 4)), [0.0])])

slacks = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 1e-10, 0.25, 0.5, 1.0, math.inf, math.nan]),
    st.floats(0.0, 2.0),
)
norms = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 3.0))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(slacks, norms), max_size=16))
def test_curve_is_the_staircase_of_strict_points(points):
    # distinct 4-bit patterns, in order, with drawn slacks and norms; they
    # are not the net's, so the lower witness, which re-solves the argmax,
    # is left out
    depths, values = np.array(points, dtype=float).reshape(-1, 2).T
    flats = (np.arange(len(points))[:, None] >> np.arange(3, -1, -1)) & 1
    with mock.patch.object(bounds_module, "_lower_witness", lambda *args: None):
        report = _aggregate(CURVE_NET, None, 2, [], depths, values, flats, SearchStats())

    def target(level):
        """(value, argmax) by definition: the largest norm, then the lowest flat."""
        met = [(-v, tuple(f)) for (s, v), f in zip(points, flats.tolist()) if meets_level(s, level)]
        return None if not met else (-min(met)[0], min(met)[1])

    assert target(0.0) == (None if report.upper is None else (report.upper, report.argmax_upper.flat))
    assert target(None) == (None if report.lower_empty else (report.lower, report.argmax_lower.flat))
    strict = [(s, v) for s, v in points if meets_level(s, None)]

    def best(e):
        """The curve by definition: the best strict norm at depth >= e."""
        return max((v for s, v in strict if s >= e), default=None)

    # a segment ends where the value drops just after a strict depth
    ends = sorted(
        {s for s, _ in strict if s == math.inf or best(s) != best(np.nextafter(s, math.inf))}
    )
    curve = report.curve
    assert curve[-1].empty is (math.inf not in ends)
    if curve[-1].empty:
        assert (curve[-1].eps_end, curve[-1].value) == (math.inf, 0.0)
        assert best(np.nextafter(max(ends, default=0.0), math.inf)) is None
        curve = curve[:-1]
    assert [seg.eps_end for seg in curve] == ends
    prev = 0.0
    for seg in curve:
        assert not seg.empty
        # the value holds on all of (prev, end]: at both ends and at every
        # strict depth inside
        for e in [np.nextafter(prev, math.inf), seg.eps_end, *(s for s, _ in strict if prev < s)]:
            if e <= seg.eps_end:
                assert best(e) == seg.value, (e, seg)
        prev = seg.eps_end


env_slacks = st.one_of(
    st.sampled_from([-1e-9, -0.0, 0.0, 1e-10, 0.25, 0.5, 1.0, math.inf]),
    st.floats(-1.0, 2.0),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.tuples(env_slacks, norms), max_size=16), st.data())
def test_envelope_at_is_the_best_norm_at_least_as_deep(points, data):
    # the invariant the value prune and the kept-leaf dominance rule rest
    # on, whatever order the points arrive in
    order = data.draw(st.permutations(range(len(points))))
    env = bounds_module._Envelope()
    for i in order:
        env.add(*points[i])
    queries = [-math.inf, math.inf, *data.draw(st.lists(env_slacks, max_size=4))]
    for s, _ in points:
        queries += [s, np.nextafter(s, -math.inf), np.nextafter(s, math.inf), s + 2 * TAU_STRICT]
    for q in queries:
        assert env.at(q) == max((v for s, v in points if s >= q), default=-math.inf), q


# --- the search against the oracle -----------------------------------------


def grid_values(n):
    return st.lists(st.sampled_from(GRID), min_size=n, max_size=n)


@st.composite
def degenerate_cases(draw):
    """A net of at most 8 hidden bits on a small weight grid, with zero
    biases or duplicated, negated or zeroed neurons, plus a domain and p."""
    n0 = draw(st.integers(1, 3))
    hidden = draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(lambda w: sum(w) <= 8)
    )
    widths = [n0, *hidden, draw(st.integers(1, 2))]
    zero_bias = draw(st.booleans())
    layers = []
    for n_in, n_out in zip(widths, widths[1:]):
        w = np.array(draw(grid_values(n_in * n_out))).reshape(n_out, n_in)
        b = np.zeros(n_out) if zero_bias else np.array(draw(grid_values(n_out)))
        for i in range(1, n_out):
            j = draw(st.integers(0, i - 1))
            edit = draw(st.sampled_from(("keep", "copy", "negate", "zero")))
            if edit != "keep":
                sign = {"copy": 1.0, "negate": -1.0, "zero": 0.0}[edit]
                w[i], b[i] = sign * w[j], sign * b[j]
        layers.append((w, b))
    net = MlpNetwork.from_arrays(layers)
    kind = draw(st.sampled_from(("box", "polytope", "all")))
    if kind == "all":
        domain = AllSpace()
    elif kind == "box":
        domain = Box(-np.ones(n0), np.ones(n0))
    else:
        cut = np.array(draw(grid_values(n0)))
        domain = Polytope(
            np.vstack([np.eye(n0), -np.eye(n0), cut]),
            np.concatenate([np.ones(2 * n0), [draw(st.sampled_from((0.0, 0.5)))]]),
        )
    return net, domain, draw(st.sampled_from(PS))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(degenerate_cases())
def test_bnb_report_equals_oracle_on_degenerate_nets(case):
    net, domain, p = case
    a = report_to_dict(compute_report(net, domain, p, [0.05, 0.3], mode="oracle"))
    b = report_to_dict(compute_report(net, domain, p, [0.05, 0.3], mode="bnb"))
    a.pop("stats")
    b.pop("stats")
    assert a == b


@settings(max_examples=100, derandomize=True, deadline=None)
@given(degenerate_cases())
def test_warm_prefix_slacks_equal_cold_max_slack(case):
    # every prefix LP the search re-optimizes warm, against the cold LP of
    # the net cut after the prefix; the prefix is read off the search's frame
    net, domain, p = case
    seen = []

    def spy(tab, keep):
        sol = dual_simplex(tab, keep)
        frame = sys._getframe(1)
        while frame.f_code.co_name != "_search":
            frame = frame.f_back
        seen.append((tuple(frame.f_locals["bits"]), sol))
        return sol

    with mock.patch.object(bounds_module, "dual_simplex", spy):
        bounds_module.compute_report(net, domain, p)
    for prefix, sol in seen:
        cold = prefix_max_slack(net, prefix, domain).slack
        if sol.status == "optimal":
            assert sol.value == pytest.approx(cold, abs=1e-9), prefix
        else:
            assert sol.status == "stopped", prefix
            assert cold <= sol.value + 1e-9 and not meets_level(cold, 0.0), prefix


@settings(max_examples=100, derandomize=True, deadline=None)
@given(degenerate_cases())
def test_leaf_slacks_equal_max_slack(case):
    # every leaf the search decides, each by its own warm LP, and every
    # stacked exact LP, against max_slack of the leaf's pattern alone. A
    # closed-feasible leaf is stacked unless a stacked leaf dominates it: a
    # strictly larger norm at a search slack at least 2 TAU_STRICT deeper
    net, domain, p = case
    widths, nbits = net.hidden_widths, net.total_hidden_bits
    decided, stacked = {}, []

    def spy(tab, keep):
        sol = dual_simplex(tab, keep)
        frame = sys._getframe(1)
        while frame.f_code.co_name != "_search":
            frame = frame.f_back
        bits = tuple(frame.f_locals["bits"])
        if len(bits) == nbits:
            decided[bits] = math.nan if sol.status == "infeasible" else sol.value
        return sol

    def stack_spy(net_, flats, domain_):
        slacks, pivots = max_slacks(net_, flats, domain_)
        stacked.extend(zip(map(tuple, flats.tolist()), slacks.tolist(), pivots.tolist()))
        return slacks, pivots

    def norm(flat):
        return operator_norm(_jacobian_from_bits(net, ActivationPattern.from_flat(widths, flat).bits), p)

    with mock.patch.object(bounds_module, "dual_simplex", spy), \
            mock.patch.object(bounds_module, "max_slacks", stack_spy):
        bounds_module.compute_report(net, domain, p)
    for flat, slack, pivots in stacked:
        res = max_slack(net, ActivationPattern.from_flat(widths, flat), domain)
        assert (slack, pivots) == (res.slack, res.pivots), flat
        assert decided[flat] == pytest.approx(res.slack, abs=1e-9), flat
    kept = {flat for flat, _, _ in stacked}
    for flat, slack in decided.items():
        if not meets_level(slack, 0.0):
            assert flat not in kept, flat
            sigma = ActivationPattern.from_flat(widths, flat)
            assert not meets_level(max_slack(net, sigma, domain).slack, 0.0), flat
        elif flat not in kept:
            assert any(norm(o) > norm(flat) and decided[o] >= slack + 2 * TAU_STRICT for o in kept), flat


def row_and_solve_counts(cases):
    """(append_row calls, dual_simplex calls, summed warm_lps) over the bnb
    reports of (net, domain, p) cases."""
    calls = {"append_row": 0, "dual_simplex": 0}

    def counted(name):
        original = getattr(bounds_module, name)

        def spy(*args):
            calls[name] += 1
            return original(*args)

        return mock.patch.object(bounds_module, name, spy)

    warm = 0
    with counted("append_row"), counted("dual_simplex"):
        for net, domain, p in cases:
            warm += compute_report(net, domain, p, [0.05, 0.2], mode="bnb").stats.warm_lps
    return calls["append_row"], calls["dual_simplex"], warm


def test_every_appended_row_is_reoptimized_on_the_zoo():
    # no prefix takes its margin row without its own warm LP: on the
    # benchmark zoo at seed 0 (zoo.py imports only numpy, so it loads by path)
    spec = importlib.util.spec_from_file_location("perfbench_zoo", ZOO)
    zoo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(zoo)
    cases = []
    for i in range(zoo.ROTATION):
        inst = zoo.zoo_instance(0, i)
        net = load_network(json.dumps(inst["net"]))
        cases.append((net, load_domain(json.dumps(inst["domain"])), inst["p"]))
    rows, solves, warm = row_and_solve_counts(cases)
    assert rows == solves == warm > 0


@settings(max_examples=100, derandomize=True, deadline=None)
@given(degenerate_cases())
def test_every_appended_row_is_reoptimized_on_degenerate_nets(case):
    rows, solves, warm = row_and_solve_counts([case])
    assert rows == solves == warm


@settings(max_examples=100, derandomize=True, deadline=None)
@given(degenerate_cases())
def test_node_bound_covers_every_completion_on_degenerate_nets(case):
    net, _, p = case
    assert_node_bound_sound(net, p)


# --- the batched sampling pass ---------------------------------------------


@settings(max_examples=100, derandomize=True, deadline=None)
@given(degenerate_cases(), st.integers(0, 2**32 - 1), st.integers(1, 60))
def test_sampling_matches_per_sample_loop_on_degenerate_nets(case, seed, n):
    # grid weights and copied neurons make exact ties and boundary samples common
    net, domain, p = case
    got = sampled_lower_bound(net, domain, p, n, seed)
    assert_same_estimate(got, reference_sampled_lower_bound(net, domain, p, n, seed))
    want = reference_pairwise_quotient(net, domain, p, n, seed)
    assert pairwise_quotient_estimate(net, domain, p, n, seed) == pytest.approx(want, rel=1e-12, abs=0.0)
