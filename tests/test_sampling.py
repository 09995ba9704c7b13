import math

import numpy as np
import pytest

from lipbound import (
    AllSpace,
    Box,
    DomainEmptyError,
    L2Ball,
    MlpNetwork,
    Polytope,
    brute_force_bounds,
    forward,
    pairwise_quotient_estimate,
    pattern_norm,
    pattern_of,
    sampled_lower_bound,
)
from lipbound.sampling import _CHORD_CAP, _HIT_AND_RUN_STEPS, _hit_and_run, chebyshev_center, sample_domain

from conftest import (
    assert_same_estimate,
    random_net,
    reference_pairwise_quotient,
    reference_sampled_lower_bound,
    unit_box,
)

PS = (1, 2, math.inf)


def domains(n0):
    """One domain of each kind in dimension n0."""
    cut = np.ones(n0) / n0
    return {
        "all": AllSpace(),
        "box": Box(-np.ones(n0), np.ones(n0)),
        "ball": L2Ball(0.25 * np.ones(n0), 1.5),
        "polytope": Polytope(
            np.vstack([np.eye(n0), -np.eye(n0), cut]), np.concatenate([np.ones(2 * n0), [0.3]])
        ),
    }


def tied_net(seed):
    """A random net whose first hidden layer gains a copy of neuron 0 and a
    neuron with no outgoing weight: patterns that differ only in that
    neuron's bit have the same Jacobian, so their norms tie exactly."""
    rng = np.random.default_rng(seed)
    base = random_net(seed)
    (w0, b0), (w1, b1) = [(layer.weights, layer.bias) for layer in base.layers[:2]]
    fresh = rng.normal(size=w0.shape[1])
    w0 = np.vstack([w0, w0[:1], fresh])
    b0 = np.concatenate([b0, b0[:1], [0.1]])
    w1 = np.hstack([w1, w1[:, :1], np.zeros((w1.shape[0], 1))])
    rest = [(layer.weights, layer.bias) for layer in base.layers[2:]]
    return MlpNetwork.from_arrays([(w0, b0), (w1, b1), *rest])


class TestSampledLowerBound:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_example1_always_one(self, ex1, seed):
        est = sampled_lower_bound(ex1, AllSpace(), 2, 100, seed)
        assert est.value == pytest.approx(1.0)
        assert est.best_pattern is not None

    def test_example2_detects_central_region(self, ex2):
        est = sampled_lower_bound(ex2, AllSpace(), 2, 1000, 3)
        xs = sample_domain(AllSpace(), 1, 1000, np.random.default_rng(3))
        landed_inside = bool(np.any(np.abs(xs) < 1.0 - 1e-6))
        assert landed_inside  # 1000 draws at scale 10 hit (-1, 1) w.h.p.
        assert est.value == pytest.approx(1.0)

    def test_zero_samples_rejected(self, ex1):
        with pytest.raises(ValueError):
            sampled_lower_bound(ex1, AllSpace(), 2, 0, 0)

    def test_never_exceeds_strict_lower_bound(self):
        for seed in range(6):
            net = random_net(seed)
            box = unit_box(net)
            for p in (1, 2, math.inf):
                r = brute_force_bounds(net, box, p, [])
                est = sampled_lower_bound(net, box, p, 150, seed)
                assert est.value <= r.lower + 1e-9

    def test_deterministic_for_fixed_seed(self, ex2):
        a = sampled_lower_bound(ex2, AllSpace(), 1, 64, 11)
        b = sampled_lower_bound(ex2, AllSpace(), 1, 64, 11)
        assert a.value == b.value and a.n_valid == b.n_valid

    def test_all_samples_on_boundary_reported_as_zero(self):
        # identically-zero preactivations keep every sample on the boundary
        from lipbound import MlpNetwork

        net = MlpNetwork.from_arrays([([[0.0], [0.0]], [0.0, 0.0]), ([[1.0, 1.0]], [0.0])])
        est = sampled_lower_bound(net, AllSpace(), 2, 50, 0)
        assert est.value == 0.0
        assert est.n_valid == 0
        assert est.best_x is None
        assert_same_estimate(est, reference_sampled_lower_bound(net, AllSpace(), 2, 50, 0))


class TestBatchedAgainstPerSampleLoop:
    """The batched pass against the per-sample loop it replaced (conftest)."""

    @pytest.mark.parametrize("kind", ["all", "box", "ball", "polytope"])
    @pytest.mark.parametrize("p", PS)
    def test_sampled_lower_bound_bit_identical(self, kind, p):
        for seed in range(6):
            for net in (random_net(seed), random_net(seed, max_width=8), tied_net(seed)):
                domain = domains(net.input_dim)[kind]
                got = sampled_lower_bound(net, domain, p, 120, seed)
                assert_same_estimate(got, reference_sampled_lower_bound(net, domain, p, 120, seed))

    @pytest.mark.parametrize("p", PS)
    def test_first_of_tied_samples_wins(self, p):
        ties = 0
        for seed in range(6):
            net = tied_net(seed)
            domain = unit_box(net)
            got = sampled_lower_bound(net, domain, p, 200, seed)
            assert_same_estimate(got, reference_sampled_lower_bound(net, domain, p, 200, seed))
            xs = sample_domain(domain, net.input_dim, 200, np.random.default_rng(seed))
            winners = {
                pattern_of(net, x) for x in xs if pattern_norm(net, pattern_of(net, x), p) == got.value
            }
            ties += len(winners) > 1
        assert ties  # some maximum is reached by more than one pattern

    @pytest.mark.parametrize("p", PS)
    def test_all_dead_net(self, p):
        net = MlpNetwork.from_arrays([(np.zeros((3, 2)), -np.ones(3)), (np.ones((1, 3)), [0.0])])
        got = sampled_lower_bound(net, AllSpace(), p, 40, 0)
        assert_same_estimate(got, reference_sampled_lower_bound(net, AllSpace(), p, 40, 0))
        assert (got.value, got.best_x, got.n_valid) == (0.0, None, 40)

    def test_samples_inside_the_margin_do_not_count(self):
        # theta_1 = 1e-5 x is within the margin for |x| <= 0.1, a tenth of the box
        net = MlpNetwork.from_arrays([([[1e-5], [1.0]], [0.0, 0.5]), ([[1.0, 1.0]], [0.0])])
        box = Box([-1.0], [1.0])
        got = sampled_lower_bound(net, box, 2, 200, 4)
        assert_same_estimate(got, reference_sampled_lower_bound(net, box, 2, 200, 4))
        assert 150 < got.n_valid < 200

    @pytest.mark.parametrize("kind", ["all", "box", "ball", "polytope"])
    @pytest.mark.parametrize("p", PS)
    def test_pairwise_quotient_matches_per_pair_loop(self, kind, p):
        for seed in range(6):
            net = random_net(seed, max_width=8)
            domain = domains(net.input_dim)[kind]
            got = pairwise_quotient_estimate(net, domain, p, 150, seed)
            want = reference_pairwise_quotient(net, domain, p, 150, seed)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_batched_forward_rows_match_single_points(self):
        rng = np.random.default_rng(5)
        for seed in range(6):
            net = random_net(seed, max_width=8)
            xs = 3.0 * rng.standard_normal((40, net.input_dim))
            out, preacts = forward(net, xs)
            assert out.shape == (40, net.output_dim)
            assert [t.shape for t in preacts] == [(40, w) for w in net.hidden_widths]
            for i, x in enumerate(xs):
                out_i, pre_i = forward(net, x)
                np.testing.assert_allclose(out[i], out_i, rtol=1e-12, atol=1e-12)
                for t, t_i in zip(preacts, pre_i):
                    np.testing.assert_allclose(t[i], t_i, rtol=1e-12, atol=1e-12)

    def test_single_point_forward_unchanged(self):
        rng = np.random.default_rng(6)
        for seed in range(6):
            net = random_net(seed, max_width=8)
            x = rng.standard_normal(net.input_dim)
            v, want = x, []
            for layer in net.layers[:-1]:
                want.append(layer.weights @ v + layer.bias)
                v = np.maximum(want[-1], 0.0)
            out, preacts = forward(net, x)
            assert np.array_equal(out, net.layers[-1].weights @ v + net.layers[-1].bias)
            assert all(np.array_equal(a, b) for a, b in zip(preacts, want))

    def test_forward_rejects_other_shapes(self, ex1):
        for bad in (np.zeros((2, 2)), np.zeros((1, 1, 1))):
            with pytest.raises(ValueError):
                forward(ex1, bad)


def reference_hit_and_run(A, b, start, n_samples, rng):
    """The per-row chord loop that _hit_and_run's masked division replaced."""
    x = np.array(start, float)
    out = np.empty((n_samples, x.shape[0]))
    for s in range(n_samples):
        for _ in range(_HIT_AND_RUN_STEPS):
            d = rng.standard_normal(x.shape[0])
            d /= np.linalg.norm(d)
            Ad = A @ d
            resid = b - A @ x
            lo, hi = -_CHORD_CAP, _CHORD_CAP
            for a, r in zip(Ad, resid):
                if a > 1e-12:
                    hi = min(hi, r / a)
                elif a < -1e-12:
                    lo = max(lo, r / a)
            if hi <= lo:
                continue
            x = x + rng.uniform(lo, hi) * d
        out[s] = x
    return out


class TestHitAndRun:
    @pytest.mark.parametrize(
        "A, b",
        [
            ([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 1.0]),  # triangle
            ([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0]),  # slab: unbounded chords hit the cap
            ([[1.0, 1.0, 0.0]], [0.5]),  # one half-space
            (np.vstack([np.eye(3), -np.eye(3)]), np.full(6, 1e-9)),  # a tiny cube
            # a square whose first row is too short to bound any chord
            ([[1e-13, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1e-13, 1.0, 1.0, 1.0]),
        ],
    )
    def test_bit_identical_to_per_row_loop(self, A, b):
        A, b = np.asarray(A, float), np.asarray(b, float)
        start = chebyshev_center(A, b)[0]
        for seed in range(4):
            got = _hit_and_run(A, b, start, 60, np.random.default_rng(seed))
            want = reference_hit_and_run(A, b, start, 60, np.random.default_rng(seed))
            assert np.array_equal(got, want)


class TestPairwiseQuotient:
    def test_example1_affine_stretch(self, ex1):
        # f = x - 1 on [2, 3]: every quotient is exactly 1
        assert pairwise_quotient_estimate(ex1, Box([2.0], [3.0]), 2, 50, 0) == pytest.approx(1.0)

    def test_example2_central_slope(self, ex2):
        # f has slope 1 on (-1, 1), e.g. the pair (-0.5, 0.5)
        assert pairwise_quotient_estimate(
            ex2, Box([-0.5], [0.5]), 2, 50, 1
        ) == pytest.approx(1.0)

    def test_coincident_pairs_skipped(self, ex1):
        # a degenerate box makes every pair coincide; all skipped -> 0
        assert pairwise_quotient_estimate(ex1, Box([2.0], [2.0]), 2, 10, 0) == 0.0

    def test_zero_pairs_rejected(self, ex1):
        with pytest.raises(ValueError):
            pairwise_quotient_estimate(ex1, AllSpace(), 2, 0, 0)

    def test_below_upper_bound(self):
        for seed in range(4):
            net = random_net(seed)
            box = unit_box(net)
            r = brute_force_bounds(net, box, math.inf, [])
            q = pairwise_quotient_estimate(net, box, math.inf, 200, seed)
            assert q <= r.upper + 1e-6


class TestDomainSamplers:
    def test_box_inside(self):
        rng = np.random.default_rng(0)
        box = Box([-1.0, 0.0], [1.0, 2.0])
        xs = sample_domain(box, 2, 500, rng)
        assert np.all(xs >= box.lower - 1e-12) and np.all(xs <= box.upper + 1e-12)

    def test_ball_inside(self):
        rng = np.random.default_rng(1)
        ball = L2Ball([1.0, -1.0, 0.0], 2.5)
        xs = sample_domain(ball, 3, 500, rng)
        assert np.all(np.linalg.norm(xs - ball.center, axis=1) <= ball.radius + 1e-9)

    def test_polytope_inside(self):
        rng = np.random.default_rng(2)
        tri = Polytope([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 1.0])
        xs = sample_domain(tri, 2, 300, rng)
        assert np.all(xs @ tri.A.T <= tri.b + 1e-8)

    def test_chebyshev_center_of_square(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([1.0, 1.0, 1.0, 1.0])
        center, radius = chebyshev_center(A, b)
        assert center == pytest.approx([0.0, 0.0], abs=1e-9)
        assert radius == pytest.approx(1.0, abs=1e-9)

    def test_chebyshev_center_of_empty_polytope(self):
        with pytest.raises(DomainEmptyError, match="polytope is empty"):
            chebyshev_center([[1.0], [-1.0]], [-1.0, -1.0])  # x <= -1 and x >= 1

    def test_allspace_scale(self):
        rng = np.random.default_rng(3)
        xs = sample_domain(AllSpace(), 4, 2000, rng)
        assert np.std(xs) == pytest.approx(10.0, rel=0.1)
