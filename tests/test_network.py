import json
import math

import numpy as np
import pytest

from lipbound import (
    ActivationPattern,
    AllSpace,
    Box,
    L2Ball,
    MlpNetwork,
    ModelFormatError,
    NetworkFormatError,
    Polytope,
    RelaxedPattern,
    affine_preactivations,
    assignment_for_pattern,
    build_model,
    compute_report,
    forward,
    jacobian,
    load_domain,
    load_network,
    max_slack,
    parse_json,
    pattern_of,
    region_feasible,
    relaxed_jacobian,
    sampled_lower_bound,
    witness_at_level,
)
from lipbound.errors import DomainFormatError
from lipbound.miqcqp import parse_assignment_json

from conftest import random_net


def net_json(layers):
    return json.dumps({"layers": layers})


class TestLoadNetwork:
    def test_example1_shapes(self):
        net = load_network(
            net_json(
                [
                    {"weights": [[1.0], [-1.0]], "bias": [-1.0, 1.0]},
                    {"weights": [[1.0, -1.0]], "bias": [0.0]},
                ]
            )
        )
        assert net.depth == 2
        assert net.widths == (1, 2, 1)

    def test_empty_layers_rejected(self):
        with pytest.raises(NetworkFormatError):
            load_network(net_json([]))

    def test_bias_mismatch_reports_layer(self):
        with pytest.raises(NetworkFormatError, match="layer 0"):
            load_network(
                net_json(
                    [
                        {"weights": [[1.0], [1.0]], "bias": [0.0, 0.0, 0.0]},
                        {"weights": [[1.0, 1.0]], "bias": [0.0]},
                    ]
                )
            )

    def test_chain_mismatch_reports_layer(self):
        with pytest.raises(NetworkFormatError, match="layer 1"):
            load_network(
                net_json(
                    [
                        {"weights": [[1.0], [1.0]], "bias": [0.0, 0.0]},
                        {"weights": [[1.0, 1.0, 1.0]], "bias": [0.0]},
                    ]
                )
            )

    def test_non_finite_rejected(self):
        with pytest.raises(NetworkFormatError, match="non-finite"):
            MlpNetwork.from_arrays([([[math.nan]], [0.0]), ([[1.0]], [0.0])])

    def test_single_layer_rejected(self):
        with pytest.raises(NetworkFormatError):
            MlpNetwork.from_arrays([([[1.0]], [0.0])])

    @pytest.mark.parametrize(
        "weights, bias, message",
        [
            ([["1.5", True]], [0.0], r"layer 0: weights: '1\.5' is not a number"),
            ([[1.5, True]], [0.0], "layer 0: weights: True is not a number"),
            ([[1.5, 1.0]], [None], "layer 0: bias: None is not a number"),
            ([[1.5], [1.0, 2.0]], [0.0], "layer 0: weights"),
            ([[1.5, 1.0]], [10**400], "layer 0: bias: not finite"),
        ],
    )
    def test_non_number_entries_rejected(self, weights, bias, message):
        # float() would read "1.5" as 1.5 and true as 1.0
        text = net_json([{"weights": weights, "bias": bias}, {"weights": [[1.0]], "bias": [0.0]}])
        with pytest.raises(NetworkFormatError, match=message):
            load_network(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"nets": []}', 'missing top-level "layers" list'),
            (net_json([{"weights": [[1.0]]}]), 'layer 0: needs "weights" and "bias"'),
            (
                net_json([{"weights": [1.0], "bias": [0.0]}, {"weights": [[1.0]], "bias": [0.0]}]),
                "layer 0: weights must be 2-D",
            ),
            (
                net_json([{"weights": [[]], "bias": [0.0]}, {"weights": [[1.0]], "bias": [0.0]}]),
                r"layer 0: empty weight matrix \(1, 0\)",
            ),
        ],
    )
    def test_malformed_structure_rejected(self, text, message):
        with pytest.raises(NetworkFormatError, match=message):
            load_network(text)

    def test_integer_entries_still_numbers(self):
        net = load_network(net_json([{"weights": [[1, -2]], "bias": [0]}, {"weights": [[3]], "bias": [1]}]))
        assert net.layers[0].weights.tolist() == [[1.0, -2.0]] and net.layers[1].bias.tolist() == [1.0]


class TestForward:
    def test_example1_at_zero(self, ex1):
        out, preacts = forward(ex1, [0.0])
        assert out == pytest.approx([-1.0])
        assert preacts[0] == pytest.approx([-1.0, 1.0])

    def test_example2_at_zero(self, ex2):
        out, _ = forward(ex2, [0.0])
        assert out == pytest.approx([1.0])

    def test_wrong_length(self, ex1):
        with pytest.raises(ValueError):
            forward(ex1, [0.0, 1.0])


class TestPatternOf:
    def test_example1(self, ex1):
        assert pattern_of(ex1, [2.0]).bits == ((1, 0),)

    def test_tie_maps_to_zero(self, ex1):
        # theta = (0, 0) exactly at x = 1
        assert pattern_of(ex1, [1.0]).bits == ((0, 0),)

    def test_example2(self, ex2):
        assert pattern_of(ex2, [0.0]).bits == ((0, 1),)

    @pytest.mark.parametrize("shape", [(3, 1), (1, 1), (2,), (0,)])
    def test_one_point_only(self, ex1, shape):
        # forward takes a batch, but a pattern is the pattern of one point
        with pytest.raises(ValueError, match=rf"shape \({shape[0]},"):
            pattern_of(ex1, np.zeros(shape))


class TestActivationPattern:
    def test_non_binary_bit_rejected(self):
        with pytest.raises(ValueError, match="pattern bit 2 is not binary"):
            ActivationPattern(((1, 2),))

    def test_from_flat_counts_bits(self):
        with pytest.raises(ValueError, match="expected 2 bits, got 3"):
            ActivationPattern.from_flat((2,), (1, 0, 1))


class TestAffinePreactivations:
    def test_example1_all_on(self, ex1):
        forms = affine_preactivations(ex1, ActivationPattern(((1, 1),)))
        assert forms[0].coeffs == pytest.approx([1.0]) and forms[0].offset == -1.0
        assert forms[1].coeffs == pytest.approx([-1.0]) and forms[1].offset == 1.0

    def test_example2(self, ex2):
        forms = affine_preactivations(ex2, ActivationPattern(((0, 1),)))
        assert forms[0](np.array([3.0])) == pytest.approx(2.0)  # x - 1
        assert forms[1](np.array([3.0])) == pytest.approx(4.0)  # x + 1

    def test_zero_weights_offsets_are_biases(self):
        net = MlpNetwork.from_arrays(
            [
                (np.zeros((2, 1)), [0.5, -0.5]),
                (np.zeros((2, 2)), [2.0, 3.0]),
                (np.zeros((1, 2)), [0.0]),
            ]
        )
        sigma = ActivationPattern(((1, 1), (1, 1)))
        forms = affine_preactivations(net, sigma)
        assert all(np.all(f.coeffs == 0.0) for f in forms)
        assert [f.offset for f in forms] == [0.5, -0.5, 2.0, 3.0]

    def test_shape_mismatch(self, ex1):
        with pytest.raises(ValueError):
            affine_preactivations(ex1, ActivationPattern(((1, 1, 1),)))

    def test_matches_forward_on_own_region(self):
        # forms of pattern_of(x) must reproduce the true preactivations at x
        checked = 0
        for seed in range(5):
            net = random_net(seed)
            rng = np.random.default_rng(seed + 100)
            xs = rng.normal(scale=3.0, size=(200, net.input_dim))
            for x in xs:
                sigma = pattern_of(net, x)
                forms = affine_preactivations(net, sigma)
                _, preacts = forward(net, x)
                flat = np.concatenate(preacts)
                got = np.array([f(x) for f in forms])
                assert np.allclose(got, flat, rtol=1e-10, atol=1e-12)
                checked += 1
        assert checked == 1000


class TestJacobian:
    def test_example1_values(self, ex1):
        assert jacobian(ex1, ActivationPattern(((1, 1),))).item() == pytest.approx(2.0)
        assert jacobian(ex1, ActivationPattern(((1, 0),))).item() == pytest.approx(1.0)

    def test_all_zero_pattern(self, ex1):
        assert np.all(jacobian(ex1, ActivationPattern(((0, 0),))) == 0.0)

    def test_matches_finite_differences(self):
        h = 1e-6
        for seed in range(6):
            net = random_net(seed)
            rng = np.random.default_rng(seed + 500)
            tested = 0
            for x in rng.normal(scale=2.0, size=(40, net.input_dim)):
                _, preacts = forward(net, x)
                if min(float(np.abs(t).min()) for t in preacts) <= 1e-3:
                    continue
                J = jacobian(net, pattern_of(net, x))
                fd = np.zeros_like(J)
                for j in range(net.input_dim):
                    e = np.zeros(net.input_dim)
                    e[j] = h
                    fd[:, j] = (forward(net, x + e)[0] - forward(net, x - e)[0]) / (2 * h)
                assert np.allclose(J, fd, atol=1e-4)
                tested += 1
            assert tested > 0

    def test_independent_of_x_bitwise(self, ex2):
        sigma = ActivationPattern(((0, 1),))
        a = jacobian(ex2, sigma)
        b = jacobian(ex2, sigma)
        assert np.array_equal(a, b)


# Each function that takes a pattern or gates, called on ex1 (hidden widths
# (2,)) with three entries in its one hidden layer.
SHAPE_CALLS = {
    "jacobian": lambda net, bits: jacobian(net, ActivationPattern(bits)),
    "max_slack": lambda net, bits: max_slack(net, ActivationPattern(bits), AllSpace()),
    "region_feasible": lambda net, bits: region_feasible(net, ActivationPattern(bits), AllSpace()),
    "witness_at_level": lambda net, bits: witness_at_level(net, ActivationPattern(bits), AllSpace(), 0.0),
    "assignment_for_pattern": lambda net, bits: assignment_for_pattern(
        net, AllSpace(), 2, 0.0, ActivationPattern(bits)
    ),
    "affine_preactivations": lambda net, bits: affine_preactivations(net, ActivationPattern(bits)),
    "relaxed_jacobian": lambda net, bits: relaxed_jacobian(net, RelaxedPattern(bits)),
}


@pytest.mark.parametrize("name", SHAPE_CALLS)
def test_wrong_pattern_shape_rejected(ex1, name):
    what = "gate" if name == "relaxed_jacobian" else "pattern"
    with pytest.raises(ValueError, match=rf"^{what} shape \(3,\) does not match hidden widths \(2,\)$"):
        SHAPE_CALLS[name](ex1, ((1, 0, 1),))


@pytest.mark.parametrize(
    "reader, error",
    [
        (load_network, NetworkFormatError),
        (load_domain, DomainFormatError),
        (parse_json, ModelFormatError),
        (parse_assignment_json, ModelFormatError),
    ],
    ids=["load_network", "load_domain", "parse_json", "parse_assignment_json"],
)
def test_invalid_json_rejected(reader, error):
    with pytest.raises(error, match="^invalid JSON: "):
        reader("{not json")


class TestRelaxedJacobian:
    def test_binary_endpoints_exact(self):
        for seed in range(4):
            net = random_net(seed)
            rng = np.random.default_rng(seed)
            flat = tuple(int(b) for b in rng.integers(0, 2, net.total_hidden_bits))
            sigma = ActivationPattern.from_flat(net.hidden_widths, flat)
            gates = RelaxedPattern(tuple(tuple(float(b) for b in layer) for layer in sigma.bits))
            assert np.array_equal(relaxed_jacobian(net, gates), jacobian(net, sigma))

    def test_example1_half_gates(self, ex1):
        assert relaxed_jacobian(ex1, RelaxedPattern(((0.5, 0.5),))).item() == pytest.approx(1.0)

    def test_all_zero_gates(self, ex1):
        assert np.all(relaxed_jacobian(ex1, RelaxedPattern(((0.0, 0.0),))) == 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RelaxedPattern(((1.5, 0.0),))

    def test_nested_lists_taken_as_gates(self, ex1):
        want = relaxed_jacobian(ex1, RelaxedPattern(((0.5, 0.25),)))
        assert np.array_equal(relaxed_jacobian(ex1, [[0.5, 0.25]]), want)

    def test_wrong_gate_shape_rejected(self, ex1):
        with pytest.raises(ValueError, match=r"gate shape \(1,\) does not match hidden widths \(2,\)"):
            relaxed_jacobian(ex1, [[0.5]])


class TestDomains:
    def test_load_all(self):
        assert isinstance(load_domain('{"type":"all"}'), AllSpace)

    def test_load_box(self):
        d = load_domain('{"type":"box","lower":[-1,0],"upper":[1,2]}')
        assert isinstance(d, Box) and d.dim == 2

    def test_load_polytope(self):
        d = load_domain('{"type":"polytope","A":[[1,0],[0,1]],"b":[1,1]}')
        assert isinstance(d, Polytope)

    def test_load_ball(self):
        d = load_domain('{"type":"l2ball","center":[0,0],"radius":2}')
        assert isinstance(d, L2Ball) and d.radius == 2.0

    def test_box_inverted_bounds(self):
        with pytest.raises(DomainFormatError):
            Box([1.0], [0.0])

    def test_ball_bad_radius(self):
        with pytest.raises(DomainFormatError):
            L2Ball([0.0], 0.0)

    def test_polytope_shape(self):
        with pytest.raises(DomainFormatError):
            Polytope([[1.0, 0.0]], [1.0, 2.0])

    def test_unknown_type(self):
        with pytest.raises(DomainFormatError):
            load_domain('{"type":"simplex"}')

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"type":"box","lower":["-1",false],"upper":[1,1]}', "lower: '-1' is not a number"),
            ('{"type":"box","lower":[-1,false],"upper":[1,1]}', "lower: False is not a number"),
            ('{"type":"polytope","A":[[1,0]],"b":[true]}', "b: True is not a number"),
            ('{"type":"polytope","A":[[1,"0"]],"b":[1]}', "A: '0' is not a number"),
            ('{"type":"l2ball","center":[0,0],"radius":"2"}', "radius: '2' is not a number"),
            ('{"type":"l2ball","center":[0,null],"radius":2}', "center: None is not a number"),
            # json.loads reads the NaN and Infinity literals as floats
            ('{"type":"box","lower":[NaN],"upper":[1]}', "box bounds must be finite"),
            ('{"type":"polytope","A":[[Infinity]],"b":[1]}', "polytope has non-finite entries"),
            ('{"type":"l2ball","center":[-Infinity],"radius":1}', "ball center must be a finite vector"),
        ],
    )
    def test_non_number_entries_rejected(self, text, message):
        with pytest.raises(DomainFormatError, match=message):
            load_domain(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"lower": [0]}', 'missing "type" field'),
            ('{"type":"box","lower":[0]}', "domain type 'box': missing field 'upper'"),
            ('{"type":"box","lower":[0,0],"upper":[1]}', "vectors of equal length"),
            ('{"type":"l2ball","center":[0.0],"radius":[1.0]}', r"ball radius must be a number, got \[1.0\]"),
            ('{"type":"l2ball","center":[0.0],"radius":[]}', r"ball radius must be a number, got \[\]"),
            ('{"type":"l2ball","center":[0.0],"radius":[1.0, 2.0]}', "ball radius must be a number"),
        ],
    )
    def test_malformed_domain_rejected(self, text, message):
        with pytest.raises(DomainFormatError, match=message):
            load_domain(text)

    @pytest.mark.parametrize(
        "call",
        [
            lambda net, d: compute_report(net, d, 2, mode="bnb"),
            lambda net, d: compute_report(net, d, 2, mode="oracle"),
            lambda net, d: build_model(net, d, 2, 0.0),
            lambda net, d: sampled_lower_bound(net, d, 2, 10, 0),
        ],
        ids=["bnb", "oracle", "build_model", "sampled_lower_bound"],
    )
    def test_unknown_domain_is_a_type_error(self, ex1, call):
        with pytest.raises(TypeError, match="unknown domain dict"):
            call(ex1, {"type": "box", "lower": [-1.0], "upper": [1.0]})
