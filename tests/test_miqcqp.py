import itertools
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
    WitnessUnavailableError,
    assignment_for_pattern,
    brute_force_bounds,
    build_model,
    check_assignment,
    compute_bigM,
    emit_json,
    emit_lp_text,
    max_slack,
    parse_json,
    witness_from_bounds,
)
from lipbound.miqcqp import (
    BINARY,
    LinearConstraint,
    MiqcqpModel,
    Objective,
    QuadraticConstraint,
    Variable,
)

from conftest import random_net, unit_box

PS = (1, 2, math.inf)


class TestBuildModel:
    def test_example1_p2_structure(self, ex1):
        m = build_model(ex1, AllSpace(), 2, 0.0)
        names = [v.name for v in m.variables]
        assert names == [
            "x0_1", "x1_1", "x1_2", "sigma1_1", "sigma1_2",
            "y0_1", "y1_1", "y1_2", "y2_1",
        ]
        by_prefix = lambda s: [c for c in m.quadratic_constraints if c.cid.startswith(s)]
        assert len(by_prefix("xrec")) == 2
        assert len(by_prefix("slack")) == 2
        assert len(by_prefix("ynorm")) == 1
        assert len(m.linear_constraints) == 2  # y1 = M1 y0
        assert m.objective.quad and not m.objective.lin

    def test_p1_variable_count_template(self):
        n0, n1, nL = 2, 3, 2
        rng = np.random.default_rng(0)
        net = MlpNetwork.from_arrays(
            [(rng.normal(size=(n1, n0)), rng.normal(size=n1)),
             (rng.normal(size=(nL, n1)), rng.normal(size=nL))]
        )
        m = build_model(net, AllSpace(), 1, 0.01)
        expected = (n0 + n1) + n1 + (n0 + n1 + nL) + n0 + n0 + nL + nL
        assert len(m.variables) == expected
        assert len(m.groups["u"]) == n0
        assert len(m.groups["nu"]) == n0
        assert len(m.groups["w"]) == nL
        assert len(m.groups["mu"]) == nL

    def test_negative_eps_rejected(self, ex1):
        for eps in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                build_model(ex1, AllSpace(), 2, eps)

    def test_binaries_have_unit_bounds(self, ex2):
        m = build_model(ex2, AllSpace(), math.inf, 0.0)
        for v in m.variables:
            if v.kind == BINARY:
                assert (v.lower, v.upper) == (0.0, 1.0)

    def test_box_domain_bounds_x0(self, ex1):
        m = build_model(ex1, Box([-2.0], [3.0]), 2, 0.0)
        v = next(v for v in m.variables if v.name == "x0_1")
        assert (v.lower, v.upper) == (-2.0, 3.0)

    def test_ball_domain_quadratic_row(self, ex1):
        m = build_model(ex1, L2Ball([0.5], 2.0), 2, 0.0)
        ball = next(c for c in m.quadratic_constraints if c.cid == "dom_ball")
        assert ball.rel == "<="
        assert ball.rhs == pytest.approx(2.0**2 - 0.25)

    def test_quad_terms_lower_triangular(self):
        for p in PS:
            net = random_net(1)
            m = build_model(net, unit_box(net), p, 0.05)
            index = m.variable_index
            for c in m.quadratic_constraints:
                for a, b, _ in c.quad:
                    assert index[a] >= index[b]


class TestBigM:
    def test_example1_column_norms(self, ex1):
        assert compute_bigM(ex1, 1) == pytest.approx(2.0 * 1.0 * 1.01)

    def test_identity_layers(self):
        net = MlpNetwork.from_arrays([(np.eye(2), np.zeros(2)), (np.eye(2), np.zeros(2))])
        assert compute_bigM(net, 1) == pytest.approx(1.01)

    def test_zero_output_floor(self):
        net = MlpNetwork.from_arrays([([[1.0], [1.0]], [0.0, 0.0]), ([[0.0, 0.0]], [0.0])])
        assert compute_bigM(net, 1) == 1.0

    def test_validity_on_random_chains(self):
        rng = np.random.default_rng(5)
        total = 0
        for seed in range(10):
            net = random_net(seed)
            C = compute_bigM(net, 1)
            for _ in range(100):
                y = rng.normal(size=net.input_dim)
                y /= max(np.abs(y).sum(), 1e-12)  # ||y||_1 <= 1
                y = y * rng.uniform(0, 1)
                gates = [rng.integers(0, 2, w) for w in net.hidden_widths]
                v = net.layers[0].weights @ y
                for k in range(1, net.depth):
                    v = net.layers[k].weights @ (gates[k - 1] * v)
                assert np.abs(v).max() <= C
                total += 1
        assert total == 1000


class TestRoundTrip:
    @pytest.mark.parametrize("p", PS)
    def test_built_models(self, p, ex1, ex2):
        for net, domain in ((ex1, AllSpace()), (ex2, Box([-1.0], [1.0]))):
            m = build_model(net, domain, p, 0.125)
            assert parse_json(emit_json(m)) == m

    def test_ball_and_linearized_variants(self, ex2):
        m1 = build_model(ex2, L2Ball([0.0], 1.5), 2, 0.0)
        m2 = build_model(ex2, AllSpace(), math.inf, 0.25, linearize_inf_objective=True)
        assert parse_json(emit_json(m1)) == m1
        assert parse_json(emit_json(m2)) == m2

    def test_random_generated_models(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            nv = int(rng.integers(1, 7))
            variables = []
            for i in range(nv):
                if rng.random() < 0.3:
                    variables.append(Variable(f"v{i}", BINARY, 0.0, 1.0))
                else:
                    lo = float(rng.normal()) if rng.random() < 0.5 else None
                    up = (lo if lo is not None else 0.0) + 2.0 if rng.random() < 0.5 else None
                    variables.append(Variable(f"v{i}", "continuous", lo, up))
            names = [v.name for v in variables]

            def rand_lin():
                k = int(rng.integers(0, nv + 1))
                return tuple((names[j], float(rng.normal())) for j in rng.choice(nv, k, replace=False))

            def rand_quad():
                k = int(rng.integers(0, 4))
                out = []
                for _ in range(k):
                    i, j = sorted(rng.integers(0, nv, 2))
                    out.append((names[j], names[i], float(rng.normal())))
                return tuple(out)

            lin_cons = tuple(
                LinearConstraint(f"lc{i}", rand_lin(), ("<=", ">=", "=")[rng.integers(0, 3)], float(rng.normal()))
                for i in range(rng.integers(0, 4))
            )
            quad_cons = tuple(
                QuadraticConstraint(f"qc{i}", rand_quad(), rand_lin(), "<=", float(rng.normal()))
                for i in range(rng.integers(0, 3))
            )
            model = MiqcqpModel(
                format_version=1,
                p=(1, 2, math.inf)[rng.integers(0, 3)],
                eps=float(rng.uniform(0, 1)),
                big_m=float(rng.uniform(1, 10)) if rng.random() < 0.5 else None,
                groups={"x": (), "sigma": (), "y": (), "u": (), "w": (), "nu": (), "mu": (), "eta": tuple()},
                variables=tuple(variables),
                linear_constraints=lin_cons,
                quadratic_constraints=quad_cons,
                objective=Objective("max", rand_quad(), rand_lin(), float(rng.normal())),
            )
            assert parse_json(emit_json(model)) == model

    def test_undeclared_variable_named_in_error(self):
        import json

        text = emit_json(
            MiqcqpModel(
                1, 2, 0.0, None, {},
                (Variable("a"),),
                (LinearConstraint("row", (("a", 1.0),), "<=", 1.0),),
                (),
                Objective("max", (), (("a", 1.0),), 0.0),
            )
        )
        doc = json.loads(text)
        doc["linear_constraints"][0]["coeffs"][0][0] = "ghost"
        with pytest.raises(ModelFormatError, match="ghost"):
            parse_json(json.dumps(doc))

    def test_minimal_handwritten_model(self):
        text = """
        {
          "format_version": 1,
          "metadata": {"p": 1, "eps": 0.0, "big_m": null, "groups": {}},
          "variables": [{"name": "z", "kind": "continuous", "lower": 0.0, "upper": null}],
          "linear_constraints": [{"id": "cap", "coeffs": [["z", 1.0]], "rel": "<=", "rhs": 5.0}],
          "quadratic_constraints": [],
          "objective": {"sense": "max", "quad": [], "lin": [["z", 1.0]], "constant": 0.0}
        }
        """
        model = parse_json(text)
        assert model.variables[0].name == "z"
        assert check_assignment(model, {"z": 5.0}).feasible


class TestLpText:
    def test_squared_objective_term(self, ex1):
        text = emit_lp_text(build_model(ex1, AllSpace(), 2, 0.0))
        assert "y2_1 ^ 2" in text
        assert "Quadratic Constraints" in text

    def test_no_quadratic_section_without_quadratics(self):
        model = MiqcqpModel(
            1, 1, 0.0, None, {},
            (Variable("z", "continuous", 0.0, None),),
            (LinearConstraint("cap", (("z", 1.0),), "<=", 5.0),),
            (),
            Objective("max", (), (("z", 1.0),), 0.0),
        )
        assert "Quadratic Constraints" not in emit_lp_text(model)

    def test_byte_deterministic(self, ex2):
        m = build_model(ex2, AllSpace(), math.inf, 0.1)
        assert emit_lp_text(m) == emit_lp_text(m)
        assert emit_json(m) == emit_json(m)


class TestCheckAssignment:
    def test_witness_feasible_with_objective(self, ex2):
        report = brute_force_bounds(ex2, AllSpace(), math.inf, [0.1])
        model = build_model(ex2, AllSpace(), math.inf, 0.1)
        a = witness_from_bounds(ex2, AllSpace(), math.inf, 0.1, report)
        res = check_assignment(model, a)
        assert res.feasible
        assert res.objective == pytest.approx(1.0, abs=1e-9)

    def test_flipped_bit_violates_slack(self, ex2):
        report = brute_force_bounds(ex2, AllSpace(), math.inf, [0.1])
        model = build_model(ex2, AllSpace(), math.inf, 0.1)
        a = witness_from_bounds(ex2, AllSpace(), math.inf, 0.1, report)
        flipped = dict(a)
        flipped["sigma1_1"] = 1.0 - flipped["sigma1_1"]
        res = check_assignment(model, flipped)
        assert any(v.cid.startswith(("slack", "xrec")) for v in res.violations)

    def test_all_zero_assignment_hits_selector(self, ex2):
        model = build_model(ex2, AllSpace(), math.inf, 0.0)
        zeros = {v.name: 0.0 for v in model.variables}
        res = check_assignment(model, zeros)
        assert any(v.cid == "selector" for v in res.violations)

    def test_missing_variable_raises(self, ex1):
        model = build_model(ex1, AllSpace(), 2, 0.0)
        with pytest.raises(ModelFormatError, match="missing"):
            check_assignment(model, {"x0_1": 0.0})


class TestWitnessFromBounds:
    def test_example1_p2_objective_is_squared_upper(self, ex1):
        report = brute_force_bounds(ex1, AllSpace(), 2, [])
        model = build_model(ex1, AllSpace(), 2, 0.0)
        a = witness_from_bounds(ex1, AllSpace(), 2, 0.0, report)
        res = check_assignment(model, a)
        assert res.feasible
        assert res.objective == pytest.approx(4.0, abs=1e-7)
        assert a["sigma1_1"] == 1.0 and a["sigma1_2"] == 1.0
        assert a["x0_1"] == pytest.approx(1.0, abs=1e-8)

    def test_example2_p1_objective(self, ex2):
        report = brute_force_bounds(ex2, AllSpace(), 1, [0.4])
        model = build_model(ex2, AllSpace(), 1, 0.4)
        a = witness_from_bounds(ex2, AllSpace(), 1, 0.4, report)
        res = check_assignment(model, a)
        assert res.feasible
        assert res.objective == pytest.approx(1.0, abs=1e-7)

    def test_infeasible_level_raises(self, ex2):
        report = brute_force_bounds(ex2, Box([-3.0], [3.0]), 1, [10.0])
        assert 10.0 in report.eps_empty
        with pytest.raises(WitnessUnavailableError):
            witness_from_bounds(ex2, Box([-3.0], [3.0]), 1, 10.0, report)

    @pytest.mark.filterwarnings("ignore:zero matrix")
    @pytest.mark.parametrize("p", PS)
    def test_engine_agreement_on_random_nets(self, p):
        # scoring every feasible pattern through the checker reproduces the
        # enumeration optimum: the transcription and the engine agree
        for seed in (0, 2, 4):
            net = random_net(seed, n_hidden_layers=2, max_width=3)
            box = unit_box(net)
            for eps in (0.0, 0.01, 0.1):
                oracle = brute_force_bounds(net, box, p, [eps])
                target = oracle.upper if eps == 0.0 else oracle.eps_values[eps]
                model = build_model(net, box, p, eps)
                best = None
                for flat in itertools.product((0, 1), repeat=net.total_hidden_bits):
                    sigma = ActivationPattern.from_flat(net.hidden_widths, flat)
                    res = max_slack(net, sigma, box)
                    if res.status == "infeasible" or not res.feasible_closed(eps):
                        continue
                    a = assignment_for_pattern(net, box, p, eps, sigma)
                    checked = check_assignment(model, a)
                    assert checked.feasible, (seed, eps, flat, checked.violations[:3])
                    value = math.sqrt(max(checked.objective, 0.0)) if p == 2 else checked.objective
                    best = value if best is None else max(best, value)
                assert best == pytest.approx(target, abs=1e-7)


class TestLinearizationBlocks:
    def test_absolute_value_identity(self):
        rng = np.random.default_rng(31)
        a = rng.normal(scale=3.0, size=10_000)
        lam = (a >= 0).astype(float)
        encoded = (2 * lam - 1) * a
        assert np.array_equal(encoded, np.abs(a))
        assert np.all(encoded >= 0)

    def test_six_inequality_block_reproduces_abs(self):
        rng = np.random.default_rng(37)
        y = rng.uniform(-1, 1, size=10_000)
        nu = (y <= 0).astype(float)
        u = np.abs(y)
        B = 1.0
        assert np.all(y <= u + 1e-15)
        assert np.all(-y <= u + 1e-15)
        assert np.all(y <= B * (1 - nu) + 1e-15)
        assert np.all(y >= -B * nu - 1e-15)
        assert np.all(u <= -y + 2 * B * (1 - nu) + 1e-15)
        assert np.all(u <= y + 2 * B * nu + 1e-15)

    def test_linearized_inf_matches_bilinear_objective(self, ex2):
        report = brute_force_bounds(ex2, AllSpace(), math.inf, [0.2])
        for flag in (False, True):
            model = build_model(ex2, AllSpace(), math.inf, 0.2, linearize_inf_objective=flag)
            a = witness_from_bounds(
                ex2, AllSpace(), math.inf, 0.2, report, linearize_inf_objective=flag
            )
            res = check_assignment(model, a)
            assert res.feasible
            assert res.objective == pytest.approx(1.0, abs=1e-7)
