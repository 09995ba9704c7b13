import itertools
import math
import warnings

import numpy as np
import pytest

from lipbound import (
    ActivationPattern,
    RelaxedPattern,
    norm_witness,
    operator_norm,
    pattern_norm,
    relaxed_jacobian,
)
from lipbound.network import _jacobian_from_bits, jacobian
from lipbound.norms import check_norm_kind, inf_to_str, operator_norms, pattern_norms

from conftest import random_net

PS = (1, 2, math.inf)


class TestOperatorNorm:
    @pytest.mark.parametrize("p", PS)
    def test_identity(self, p):
        assert operator_norm(np.eye(3), p) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", PS)
    def test_scalar_two(self, p):
        assert operator_norm([[2.0]], p) == pytest.approx(2.0)

    def test_row_vector_closed_forms(self):
        A = [[1.0, -1.0]]
        assert operator_norm(A, math.inf) == pytest.approx(2.0)
        assert operator_norm(A, 1) == pytest.approx(1.0)
        assert operator_norm(A, 2) == pytest.approx(math.sqrt(2.0))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            operator_norm(np.eye(2), 3)

    @pytest.mark.parametrize("p", [True, False, np.True_])
    def test_rejects_boolean_p(self, p):
        # True == 1, so a bare membership test would compute p=1
        with pytest.raises(ValueError, match="is not a norm order"):
            check_norm_kind(p)
        with pytest.raises(ValueError, match="is not a norm order"):
            operator_norm(np.eye(2), p)

    def test_inf_to_str_round_trips(self):
        assert [inf_to_str(p) for p in (1, 2, math.inf)] == [1, 2, "inf"]
        assert [check_norm_kind(inf_to_str(p)) for p in (1, 2, math.inf)] == [1, 2, math.inf]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            operator_norm([[math.inf]], 1)

    @pytest.mark.parametrize("p", PS)
    def test_homogeneity(self, p):
        rng = np.random.default_rng(7)
        for _ in range(50):
            A = rng.normal(size=(rng.integers(1, 6), rng.integers(1, 6)))
            alpha = float(rng.normal() * 10)
            got = operator_norm(alpha * A, p)
            want = abs(alpha) * operator_norm(A, p)
            assert got == pytest.approx(want, rel=1e-12)

    def test_duality_one_inf(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            A = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
            assert operator_norm(A, 1) == operator_norm(A.T, math.inf)

    def test_p2_grid_sandwich(self):
        # the spectral norm dominates every sampled direction and never exceeds
        # the sqrt(norm1 * norminf) interpolation bound
        rng = np.random.default_rng(9)
        for _ in range(20):
            m, n = rng.integers(1, 9, size=2)
            A = rng.normal(size=(m, n))
            s = operator_norm(A, 2)
            dirs = rng.normal(size=(10_000, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            grid = np.linalg.norm(dirs @ A.T, axis=1).max()
            assert s >= grid - 1e-9
            assert s <= math.sqrt(operator_norm(A, 1) * operator_norm(A, math.inf)) + 1e-9


    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (4, 6)])
    @pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
    def test_p2_nearly_equal_top_singular_values(self, shape, delta):
        # sigma = (1, 1 - delta, 1/2, 1/4, ...): the top pair is nearly tied
        m, n = shape
        rng = np.random.default_rng(19)
        U = np.linalg.qr(rng.normal(size=(m, m)))[0]
        V = np.linalg.qr(rng.normal(size=(n, n)))[0]
        k = min(m, n)
        S = np.zeros((m, n))
        S[range(k), range(k)] = [1.0, 1.0 - delta] + [0.5**i for i in range(1, k - 1)]
        A = U @ S @ V.T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(operator_norm(A, 2) - 1.0) <= 1e-14

    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("c", [1e160, -1e160, 1e-300])
    def test_extreme_scales(self, p, c):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(3, 4))
        want = abs(c) * operator_norm(A, p)
        assert operator_norm(c * A, p) == pytest.approx(want, rel=1e-12, abs=0.0)

class TestStackedNorms:
    @pytest.mark.parametrize("p", PS)
    def test_each_value_bit_identical_to_one_matrix(self, p):
        rng = np.random.default_rng(13)
        for _ in range(40):
            k, m, n = (int(v) for v in rng.integers(1, 9, 3))
            stack = rng.normal(size=(k, m, n)) * 10.0 ** rng.integers(-3, 4, (k, 1, 1))
            got = operator_norms(stack, p)
            assert got.shape == (k,)
            for A, v in zip(stack, got):
                # the formulas operator_norm applies to one matrix
                one = {
                    1: lambda: np.abs(A).sum(axis=0).max(),
                    2: lambda: np.linalg.svd(A, compute_uv=False)[0],
                    math.inf: lambda: np.abs(A).sum(axis=1).max(),
                }[p]()
                assert v == one == operator_norm(A, p)

    def test_rejects_non_finite(self):
        stack = np.ones((3, 2, 2))
        stack[2, 1, 0] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            operator_norms(stack, 2)

    def test_jacobian_stack_bit_identical_to_one_pattern(self):
        rng = np.random.default_rng(14)
        for seed in range(8):
            net = random_net(seed, max_width=8)
            flat = rng.integers(0, 2, size=(25, net.total_hidden_bits))
            cuts = np.cumsum(net.hidden_widths)[:-1]
            stack = _jacobian_from_bits(net, np.hsplit(flat, cuts))
            assert stack.shape == (25, net.output_dim, net.input_dim)
            for bits, J in zip(flat, stack):
                sigma = ActivationPattern.from_flat(net.hidden_widths, tuple(bits))
                assert np.array_equal(J, jacobian(net, sigma))

    @pytest.mark.parametrize("p", PS)
    def test_pattern_norms_of_no_patterns(self, p):
        net = random_net(3)
        norms = pattern_norms(net, np.empty((0, net.total_hidden_bits), dtype=int), p)
        assert norms.shape == (0,) and norms.dtype == float


class TestPatternNorm:
    @pytest.mark.parametrize("p", PS)
    def test_example2_on_region(self, ex2, p):
        assert pattern_norm(ex2, ActivationPattern(((0, 1),)), p) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", PS)
    def test_example2_cancelling(self, ex2, p):
        assert pattern_norm(ex2, ActivationPattern(((1, 1),)), p) == pytest.approx(0.0)

    @pytest.mark.parametrize("p", PS)
    def test_all_off(self, ex1, p):
        assert pattern_norm(ex1, ActivationPattern(((0, 0),)), p) == 0.0


class TestNormWitness:
    def test_identity_p1_tie_rule(self):
        assert norm_witness(np.eye(2), 1) == pytest.approx([1.0, 0.0])

    def test_row_vector_pinf_signs(self):
        assert norm_witness([[1.0, -1.0]], math.inf) == pytest.approx([1.0, -1.0])

    def test_diagonal_p2_dominant_direction(self):
        y = norm_witness([[3.0, 0.0], [0.0, 4.0]], 2)
        assert abs(y[1]) == pytest.approx(1.0, abs=1e-6)

    def test_nan_entry_rejected(self):
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            norm_witness([[1.0, math.nan]], 2)

    @pytest.mark.filterwarnings("error")
    def test_zero_matrix_flagged(self):
        # e_1 attains the zero matrix's norm 0 exactly, with no warning
        for p in PS:
            assert norm_witness(np.zeros((2, 2)), p).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("p", PS)
    def test_witness_consistency(self, p):
        rng = np.random.default_rng(11)
        for _ in range(100):
            A = rng.normal(size=(rng.integers(1, 6), rng.integers(1, 6)))
            y = norm_witness(A, p)
            assert np.linalg.norm(y, p) == pytest.approx(1.0, abs=1e-12)
            achieved = np.linalg.norm(A @ y, p)
            target = operator_norm(A, p)
            assert target - 1e-8 <= achieved <= target + 1e-8


    def test_p2_sign_convention(self):
        # the largest-magnitude entry is positive; near-ties go to the lowest index
        assert norm_witness([[1.0, -1.0]], 2) == pytest.approx([math.sqrt(0.5), -math.sqrt(0.5)])
        assert norm_witness([[-1.0, 1.0]], 2) == pytest.approx([math.sqrt(0.5), -math.sqrt(0.5)])
        assert norm_witness([[3.0, 0.0], [0.0, -4.0]], 2) == pytest.approx([0.0, 1.0])
        rng = np.random.default_rng(29)
        for _ in range(100):
            A = rng.normal(size=(rng.integers(1, 6), rng.integers(1, 6)))
            y = norm_witness(A, 2)
            assert y[np.abs(y).argmax()] > 0.0
            assert norm_witness(-A, 2) == pytest.approx(y, abs=1e-12)

class TestRelaxationProperties:
    @pytest.mark.parametrize("p", PS)
    def test_per_coordinate_midpoint_convexity(self, p):
        rng = np.random.default_rng(13)
        for seed in range(6):
            net = random_net(seed)
            g0 = [list(rng.uniform(0, 1, w)) for w in net.hidden_widths]
            for k, w in enumerate(net.hidden_widths):
                for i in range(w):
                    a, b = sorted(rng.uniform(0, 1, 2))

                    def value(t):
                        g = [row[:] for row in g0]
                        g[k][i] = t
                        gates = RelaxedPattern(tuple(tuple(r) for r in g))
                        return operator_norm(relaxed_jacobian(net, gates), p)

                    mid = value((a + b) / 2)
                    assert mid <= (value(a) + value(b)) / 2 + 1e-9

    @pytest.mark.parametrize("p", PS)
    def test_relaxed_never_beats_binary_max(self, p):
        rng = np.random.default_rng(17)
        for seed in range(4):
            net = random_net(seed, n_hidden_layers=2, max_width=3)
            binary_max = max(
                pattern_norm(net, ActivationPattern.from_flat(net.hidden_widths, flat), p)
                for flat in itertools.product((0, 1), repeat=net.total_hidden_bits)
            )
            for _ in range(250):
                gates = RelaxedPattern(
                    tuple(tuple(rng.uniform(0, 1, w)) for w in net.hidden_widths)
                )
                assert operator_norm(relaxed_jacobian(net, gates), p) <= binary_max + 1e-9
