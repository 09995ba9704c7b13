"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 3, 4, 6, 7 and 9 share the same 50 seeded random instances
(widths 1..4, two or three hidden layers, at most 12 hidden bits, box
domain [-1, 1]^n0); results are cached module-wide so each expensive
enumeration runs once regardless of test selection.
"""

import itertools
import math
import time

import numpy as np
import pytest

from lipbound import (
    ActivationPattern,
    AllSpace,
    Box,
    MlpNetwork,
    RelaxedPattern,
    branch_and_bound,
    brute_force_bounds,
    build_model,
    check_assignment,
    compute_bigM,
    max_slack,
    operator_norm,
    pairwise_quotient_estimate,
    pattern_norm,
    relaxed_jacobian,
    sampled_lower_bound,
    unconstrained_bound,
    witness_from_bounds,
)

PS = (1, 2, math.inf)
N_INSTANCES = 50
EPS_TARGET = 0.05

_CACHE = {}


def instances():
    if "instances" not in _CACHE:
        out = []
        for idx in range(N_INSTANCES):
            rng = np.random.default_rng(1000 + idx)
            n_hidden = int(rng.integers(2, 4))
            widths = (
                [int(rng.integers(1, 5))]
                + [int(rng.integers(1, 5)) for _ in range(n_hidden)]
                + [int(rng.integers(1, 5))]
            )
            layers = [
                (rng.normal(size=(widths[k + 1], widths[k])), 0.5 * rng.normal(size=widths[k + 1]))
                for k in range(len(widths) - 1)
            ]
            net = MlpNetwork.from_arrays(layers)
            assert net.total_hidden_bits <= 12
            out.append((net, Box(-np.ones(widths[0]), np.ones(widths[0]))))
        _CACHE["instances"] = out
    return _CACHE["instances"]


def oracle(idx, p):
    key = ("oracle", idx, p)
    if key not in _CACHE:
        net, box = instances()[idx]
        _CACHE[key] = brute_force_bounds(net, box, p, [EPS_TARGET])
    return _CACHE[key]


def example1():
    return MlpNetwork.from_arrays([([[1.0], [-1.0]], [-1.0, 1.0]), ([[1.0, -1.0]], [0.0])])


def example2():
    return MlpNetwork.from_arrays([([[1.0], [1.0]], [-1.0, 1.0]), ([[-1.0, 1.0]], [0.0])])


def announce(cid, detail):
    print(f"ACCEPTANCE {cid}: PASS ({detail})")


def test_criterion_1_example1_regression():
    t0 = time.perf_counter()
    net = example1()
    for p in PS:
        r = brute_force_bounds(net, AllSpace(), p, [1e-6, 0.5, 5.0])
        assert abs(r.upper - 2.0) <= 1e-9
        assert abs(r.lower - 1.0) <= 1e-9
        for eps in (1e-6, 0.5, 5.0):
            assert abs(r.eps_values[eps] - 1.0) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce("C1", f"example 1: upper=2 lower=1 L_eps=1 for all p, {elapsed:.3f}s")


def test_criterion_2_example2_regression():
    t0 = time.perf_counter()
    net = example2()
    for p in PS:
        r = brute_force_bounds(net, AllSpace(), p, [])
        assert abs(r.upper - 1.0) <= 1e-9
        assert abs(r.lower - 1.0) <= 1e-9
        assert len(r.curve) == 2
        assert abs(r.curve[0].eps_end - 0.5) <= 1e-9
        assert abs(r.curve[0].value - 1.0) <= 1e-9
        assert r.curve[1].eps_end == math.inf
        assert abs(r.curve[1].value) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce("C2", f"example 2: curve is 1 on (0,0.5], 0 beyond, {elapsed:.3f}s")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for idx in range(N_INSTANCES):
        net, box = instances()[idx]
        for p in PS:
            ora = oracle(idx, p)
            r = branch_and_bound(net, box, p, [EPS_TARGET])
            assert abs(r.upper - ora.upper) <= 1e-9
            assert r.lower_empty == ora.lower_empty
            assert abs(r.lower - ora.lower) <= 1e-9
            assert (EPS_TARGET in r.eps_empty) == (EPS_TARGET in ora.eps_empty)
            assert abs(r.eps_values[EPS_TARGET] - ora.eps_values[EPS_TARGET]) <= 1e-9
            checked += 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce("C3", f"{checked} targets on {N_INSTANCES} nets match the oracle, {elapsed:.1f}s")


def test_criterion_4_sandwich():
    for idx in range(N_INSTANCES):
        net, box = instances()[idx]
        for p in PS:
            ora = oracle(idx, p)
            sampled = sampled_lower_bound(net, box, p, 200, seed=idx).value
            quotient = pairwise_quotient_estimate(net, box, p, 200, seed=idx)
            unconstrained = unconstrained_bound(net, p)
            assert sampled <= ora.lower + 1e-9
            assert ora.lower <= ora.upper + 1e-9
            assert ora.upper <= unconstrained + 1e-9
            assert quotient <= ora.upper + 1e-6
    announce("C4", f"sampled <= lower <= upper <= unconstrained on {N_INSTANCES} nets, all p")


def test_criterion_5_zero_bias_scaling():
    eps_levels = (0.01, 1.0, 100.0)
    for idx in range(10):
        rng = np.random.default_rng(7000 + idx)
        n_hidden = int(rng.integers(2, 4))
        widths = (
            [int(rng.integers(1, 5))]
            + [int(rng.integers(1, 5)) for _ in range(n_hidden)]
            + [int(rng.integers(1, 5))]
        )
        layers = [
            (rng.normal(size=(widths[k + 1], widths[k])), np.zeros(widths[k + 1]))
            for k in range(len(widths) - 1)
        ]
        net = MlpNetwork.from_arrays(layers)
        r = brute_force_bounds(net, AllSpace(), 2, list(eps_levels))
        values = [r.eps_values[e] for e in eps_levels]
        assert max(values) - min(values) <= 1e-12
        assert abs(values[0] - r.lower) <= 1e-12
        for flat in itertools.product((0, 1), repeat=net.total_hidden_bits):
            sigma = ActivationPattern.from_flat(net.hidden_widths, flat)
            res = max_slack(net, sigma, AllSpace())
            if res.slack > 1e-9:
                assert res.slack == math.inf
    announce("C5", "zero-bias nets: L_eps constant in eps and equal to the strict lower bound")


def test_criterion_6_monotone_curve():
    for idx in range(N_INSTANCES):
        net, _ = instances()[idx]
        for p in PS:
            ora = oracle(idx, p)
            values = [seg.value for seg in ora.curve]
            assert all(a >= b for a, b in zip(values, values[1:]))
            norm_set = {
                pattern_norm(net, ActivationPattern.from_flat(net.hidden_widths, flat), p)
                for flat in itertools.product((0, 1), repeat=net.total_hidden_bits)
            }
            for seg in ora.curve:
                if not seg.empty:
                    assert any(abs(seg.value - v) <= 1e-12 for v in norm_set)
    announce("C6", f"curves non-increasing with values from the pattern-norm set, {N_INSTANCES} nets")


@pytest.mark.filterwarnings("ignore:zero matrix")
def test_criterion_7_model_engine_agreement():
    done = 0
    idx = 0
    while done < 10 and idx < N_INSTANCES:
        net, box = instances()[idx]
        p = PS[done % 3]
        ora = oracle(idx, p)
        if EPS_TARGET in ora.eps_empty:
            idx += 1
            continue
        model = build_model(net, box, p, EPS_TARGET)
        assignment = witness_from_bounds(net, box, p, EPS_TARGET, ora)
        result = check_assignment(model, assignment, tol=1e-7)
        assert result.violations == ()
        engine = ora.eps_values[EPS_TARGET]
        expected = engine**2 if p == 2 else engine
        assert abs(result.objective - expected) <= 1e-7
        done += 1
        idx += 1
    assert done == 10
    announce("C7", "10 witness assignments check out with matching objectives")


def test_criterion_8_linearization_units():
    rng = np.random.default_rng(88)
    a = rng.normal(scale=5.0, size=10_000)
    lam = (a >= 0).astype(float)
    encoded = (2.0 * lam - 1.0) * a
    assert np.array_equal(encoded, np.abs(a))
    assert np.all(encoded >= 0.0)

    y = rng.uniform(-1.0, 1.0, size=10_000)
    nu = (y <= 0).astype(float)
    u = np.abs(y)
    assert np.all(y <= u) and np.all(-y <= u)
    assert np.all(y <= 1.0 - nu) and np.all(y >= -nu)
    assert np.all(u <= -y + 2.0 * (1.0 - nu)) and np.all(u <= y + 2.0 * nu)

    chains = 0
    for idx in range(10):
        net, _ = instances()[idx]
        C = compute_bigM(net, 1)
        for _ in range(100):
            y0 = rng.normal(size=net.input_dim)
            y0 /= max(np.abs(y0).sum(), 1e-300)
            y0 *= rng.uniform(0.0, 1.0)
            v = net.layers[0].weights @ y0
            for k in range(1, net.depth):
                gate = rng.integers(0, 2, net.widths[k])
                v = net.layers[k].weights @ (gate * v)
            assert np.abs(v).max() <= C
            chains += 1
    assert chains == 1000
    announce("C8", "10k absolute-value encodings exact; big-M valid on 1000 chains")


def test_criterion_9_relaxation_dominance():
    rng = np.random.default_rng(99)
    for idx in range(N_INSTANCES):
        net, _ = instances()[idx]
        binary_max = {p: unconstrained_bound(net, p) for p in PS}
        for _ in range(1000):
            gates = RelaxedPattern(tuple(tuple(rng.uniform(0, 1, w)) for w in net.hidden_widths))
            J = relaxed_jacobian(net, gates)
            for p in PS:
                assert operator_norm(J, p) <= binary_max[p] + 1e-9
        for _ in range(3):
            base = [list(rng.uniform(0, 1, w)) for w in net.hidden_widths]
            k = int(rng.integers(0, len(net.hidden_widths)))
            i = int(rng.integers(0, net.hidden_widths[k]))
            lo, hi = sorted(rng.uniform(0, 1, 2))

            def value(t, p):
                g = [row[:] for row in base]
                g[k][i] = t
                return operator_norm(
                    relaxed_jacobian(net, RelaxedPattern(tuple(tuple(r) for r in g))), p
                )

            for p in PS:
                assert value((lo + hi) / 2, p) <= (value(lo, p) + value(hi, p)) / 2 + 1e-9
    announce("C9", f"1000 relaxed gates per net dominated; midpoint convexity holds, {N_INSTANCES} nets")
