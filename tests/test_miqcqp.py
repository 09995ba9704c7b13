import hashlib
import itertools
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
    Polytope,
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
    pattern_of,
    witness_from_bounds,
)
from lipbound.miqcqp import (
    BINARY,
    Constraint,
    MiqcqpModel,
    Objective,
    Variable,
    _fmt,
    emit_assignment_json,
    parse_assignment_json,
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
                Constraint(f"lc{i}", (), rand_lin(), ("<=", ">=", "=")[rng.integers(0, 3)], float(rng.normal()))
                for i in range(rng.integers(0, 4))
            )
            quad_cons = tuple(
                Constraint(f"qc{i}", rand_quad(), rand_lin(), "<=", float(rng.normal()))
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
                (Constraint("row", (), (("a", 1.0),), "<=", 1.0),),
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
        with pytest.raises(ModelFormatError, match=r"linear_constraints\[0\]: linear term must be"):
            parse_json(text.replace('[["z", 1.0]], "rel"', '["z5"], "rel"'))


class TestJsonNumbers:
    """JSON true/false and numeric strings are not numbers: float() would
    read true as 1.0 and "5" as 5.0."""

    TEXT = (
        '{"format_version": 1, "metadata": {"p": 1, "eps": 0.0, "big_m": null},'
        ' "variables": [{"name": "z", "kind": "continuous", "lower": 0.0, "upper": null}],'
        ' "linear_constraints": [{"id": "cap", "coeffs": [["z", 1.0]], "rel": "<=", "rhs": 5.0}],'
        ' "objective": {"sense": "max", "lin": [["z", 1.0]], "constant": 0.0}}'
    )

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"format_version": 1', '"format_version": true', "format_version True"),
            ('"p": 1', '"p": true', r"metadata\.p: True"),
            ('"eps": 0.0', '"eps": false', "metadata: eps is not a number"),
            ('"big_m": null', '"big_m": "2"', "metadata: big_m is not a number"),
            ('"lower": 0.0', '"lower": true', r"variables\[0\]: lower is not a number"),
            ('"rhs": 5.0', '"rhs": "5"', r"linear_constraints\[0\]: rhs is not a number"),
            ('[["z", 1.0]], "rel"', '[["z", true]], "rel"', r"linear_constraints\[0\]: linear term"),
            ('"lin": [["z", 1.0]]', '"lin": [["z", "1"]]', "objective: linear term"),
            ('"constant": 0.0', '"constant": false', "objective: constant is not a number"),
            ('"constant": 0.0', '"constant": 1' + "0" * 400, "objective: constant is not finite"),
            ('"lin": [["z", 1.0]]', '"lin": [["z"]]', "objective: linear term"),
        ],
    )
    def test_rejected_with_path(self, old, new, message):
        assert parse_json(self.TEXT).linear_constraints[0].rhs == 5.0
        with pytest.raises(ModelFormatError, match=message):
            parse_json(self.TEXT.replace(old, new))

    def test_integers_still_numbers(self):
        model = parse_json(self.TEXT.replace('"rhs": 5.0', '"rhs": 5'))
        assert model.linear_constraints[0].rhs == 5.0

    @pytest.mark.parametrize("raw", ["true", "false", '"5"'])
    def test_assignment_value_rejected(self, raw):
        with pytest.raises(ModelFormatError, match=r"values\['z'\] is not a number"):
            parse_assignment_json('{"format_version": 1, "values": {"z": %s}}' % raw)

    def test_assignment_format_version_bool_rejected(self):
        with pytest.raises(ModelFormatError, match="format_version"):
            parse_assignment_json('{"format_version": true, "values": {"z": 1.0}}')

    def test_not_json_rejected(self):
        with pytest.raises(ModelFormatError, match="invalid JSON"):
            parse_json(self.TEXT[:-1])


class TestLpText:
    @pytest.mark.parametrize(
        "x",
        [0.0, -0.0, -3.0, 0.1, 2.5e-7, 123456789012345.0, 999999999999999.0, 1e15, 1e16, 1e17, -1e300],
    )
    def test_number_text_matches_integer_rule(self, x):
        # the reference rule: an integer below 1e15 as str(int(x)), all else as .17g
        want = str(int(x)) if x == int(x) and abs(x) < 1e15 else format(x, ".17g")
        assert _fmt(x) == want

    def test_upper_bound_only_variable(self):
        model = MiqcqpModel(
            1, 1, 0.0, None, {},
            (Variable("z", "continuous", None, 5.0),),
            (),
            (),
            Objective("max", (), (("z", 1.0),), 0.0),
        )
        assert "Bounds\n z <= 5\n" in emit_lp_text(model)

    def test_squared_objective_term(self, ex1):
        text = emit_lp_text(build_model(ex1, AllSpace(), 2, 0.0))
        assert "y2_1 ^ 2" in text
        assert "Quadratic Constraints" in text

    def test_no_quadratic_section_without_quadratics(self):
        model = MiqcqpModel(
            1, 1, 0.0, None, {},
            (Variable("z", "continuous", 0.0, None),),
            (Constraint("cap", (), (("z", 1.0),), "<=", 5.0),),
            (),
            Objective("max", (), (("z", 1.0),), 0.0),
        )
        assert "Quadratic Constraints" not in emit_lp_text(model)

    def test_term_signs_units_and_constant(self):
        quad, lin = (("b", "a", -1.0), ("a", "a", 0.5)), (("a", 0.0), ("b", -2.5), ("a", 1.0))
        model = MiqcqpModel(
            1, 2, 0.0, None, {},
            (Variable("a"), Variable("b")),
            (Constraint("zero", (), (("a", 0.0),), "<=", 1.0),),
            (Constraint("q", quad, lin, "<=", 1.0),),
            Objective("max", quad, lin, -3.0),
        )
        lines = emit_lp_text(model).splitlines()
        assert " obj: - 2.5 b + a - b * a + 0.5 a ^ 2 - 3" in lines
        assert " q: - 2.5 b + a - b * a + 0.5 a ^ 2 <= 1" in lines
        assert " zero: 0 <= 1" in lines

    def test_byte_deterministic(self, ex2):
        m = build_model(ex2, AllSpace(), math.inf, 0.1)
        assert emit_lp_text(m) == emit_lp_text(m)
        assert emit_json(m) == emit_json(m)


PIN_DOMAINS = {
    "all": AllSpace(),
    "box": Box([-2.0], [3.0]),
    "poly": Polytope([[1.0], [-1.0]], [2.5, 1.5]),
    "ball": L2Ball([0.5], 2.0),
}
PIN_NORMS = {
    "1": (1, False), "2": (2, False), "inf": (math.inf, False), "inf-lin": (math.inf, True)
}

# sha256 prefixes of emit_json, emit_lp_text and (except for the ball, which
# emits the model only) emit_assignment_json at eps 0.1. Any change here is a
# change of the file formats that solvers and stored files depend on.
PINNED = {
    "ex1-all-1": ('6c5b0d28dbf5f997', '36a77e0349826f9b', 'b100f318b6e3889b'),
    "ex1-all-2": ('810e742f6f1cbd07', 'ec5e681ba84ed842', 'fbc1d950bfd66809'),
    "ex1-all-inf": ('56bf2f798a246378', '812cf765b8e7427b', '059f3030197f49af'),
    "ex1-all-inf-lin": ('9f1da10bb1d3aa5c', '0991e85743f4b305', '8db7f0812d90a71b'),
    "ex1-box-1": ('764722e62a0a7d23', '23b62860b476a0c4', '6cadd9ed1e575e9c'),
    "ex1-box-2": ('ac23018c28b38a9c', '6e17aba5fb773490', '15e977bce138482b'),
    "ex1-box-inf": ('2a5ed20692c3e3b4', 'a76e3f61690e8330', '269cf00500e38404'),
    "ex1-box-inf-lin": ('d4ee63ba209864ce', '57c152e0d88f8c3e', 'ab659d1d4ef75f55'),
    "ex1-poly-1": ('fd9f79e843ea9592', '06408fa361f2f628', 'cbcb78650c71bfbb'),
    "ex1-poly-2": ('b4e5cec855f0673c', 'e67c286305aac97e', '7f20c710dd27cd97'),
    "ex1-poly-inf": ('9dab9da5c62c93d1', 'b3e7aa4541833091', 'e94a5785b4f702d2'),
    "ex1-poly-inf-lin": ('cd3a15a4af1a225f', '182b21ebe5130ceb', 'b0bc9b84aa3f2364'),
    "ex1-ball-1": ('f1e240745a95f20e', 'a30f7758dda9ce71'),
    "ex1-ball-2": ('aa20fcd65ad34bb7', '617a09e125d9b3d9'),
    "ex1-ball-inf": ('7407caa48afcaee7', '3df67ac38b93c5b8'),
    "ex1-ball-inf-lin": ('df794b7b65b5f84f', '9018979cbd3c3d18'),
    "ex2-all-1": ('0c5d073ea18fc44d', '7e6a40239e183b47', '7f138ebe218ac4e5'),
    "ex2-all-2": ('cf875fc2d3a64794', 'fc6e7ac2d400f3ff', '64bac9690ef0e905'),
    "ex2-all-inf": ('ecdfbf14bc461bef', '157e1c22d95a9931', 'a78a982e54c9b61e'),
    "ex2-all-inf-lin": ('cbc5d271d30c8f4f', '7fb49ef70e1f755a', '5a591120408fad88'),
    "ex2-box-1": ('ba5f5f7f12ae6caf', 'f74d0c8aec31cbff', '7f138ebe218ac4e5'),
    "ex2-box-2": ('e8fdf7a99f0a9aed', 'e1f24d833b8effb6', '64bac9690ef0e905'),
    "ex2-box-inf": ('074e3a21bee9b050', 'db648e91fa64f139', 'a78a982e54c9b61e'),
    "ex2-box-inf-lin": ('6446588601185026', '2f3b87ea9e6ac86f', '5a591120408fad88'),
    "ex2-poly-1": ('e672a5179a08f041', 'b6f68dbb1ecb6a23', '7f138ebe218ac4e5'),
    "ex2-poly-2": ('e9a036c989e00a5a', '924a0634a2765e1f', '64bac9690ef0e905'),
    "ex2-poly-inf": ('9917951b9616bf24', 'f4734885fc4f1816', 'a78a982e54c9b61e'),
    "ex2-poly-inf-lin": ('0f12cb079a411134', 'a5f2a14926a4aaac', '5a591120408fad88'),
    "ex2-ball-1": ('b31e55a38003605a', 'fe94bfc987e6ebf2'),
    "ex2-ball-2": ('8ba1c494e28694f4', '6cea45f9c8a02ba2'),
    "ex2-ball-inf": ('95174ef2890eb11a', '8a2387be9cd397ad'),
    "ex2-ball-inf-lin": ('297b5725af041ed2', '87d3b1da0691eb29'),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestPinnedBytes:
    @pytest.mark.parametrize("case", list(PINNED))
    def test_emitted_bytes_unchanged(self, case, ex1, ex2):
        name, dom, norm = case.split("-", 2)
        net, domain = {"ex1": ex1, "ex2": ex2}[name], PIN_DOMAINS[dom]
        p, lin = PIN_NORMS[norm]
        model = build_model(net, domain, p, 0.1, linearize_inf_objective=lin)
        got = [_sha(emit_json(model)), _sha(emit_lp_text(model))]
        if dom != "ball":
            report = brute_force_bounds(net, domain, p, [0.1])
            a = witness_from_bounds(net, domain, p, 0.1, report, linearize_inf_objective=lin)
            got.append(_sha(emit_assignment_json(a)))
        assert tuple(got) == PINNED[case]


def _large_net():
    """A seeded net of the size the large-net benchmark exports."""
    rng = np.random.default_rng(12)
    widths = (12, 20, 20, 4)
    return MlpNetwork.from_arrays([
        (rng.normal(size=(m, n)) / math.sqrt(n), 0.5 * rng.normal(size=m))
        for n, m in zip(widths, widths[1:])
    ])


LARGE_DOMAINS = {"box": Box(-np.ones(12), np.ones(12)), "all": AllSpace()}

# sha256 prefixes of emit_json and emit_lp_text at eps 0.1 for _large_net;
# each JSON file is 270-295 kB.
PINNED_LARGE = {
    "box-1": ('9a079a25f6cdc990', '950706b719d3dbb5'),
    "box-2": ('7dd632fe29f25917', 'ac3b885e59b6acf1'),
    "box-inf": ('f6ebe92273ce9721', 'ec29ce8fa595f9bc'),
    "box-inf-lin": ('356b07e64592a9a2', 'c17896f06b325bca'),
    "all-1": ('fc3a3f36ee3cd4ac', 'ad02a1769b010997'),
    "all-2": ('8a6d9c4629b96a0e', '6a5758b944773e3d'),
    "all-inf": ('7a7ac5bbbe45be3c', 'c49187f2680eb659'),
    "all-inf-lin": ('3d6e679dc5e5dc5f', '1418de8299656fdf'),
}


@pytest.fixture(scope="module")
def large_models():
    net = _large_net()
    models = {}
    for case in PINNED_LARGE:
        dom, norm = case.split("-", 1)
        p, lin = PIN_NORMS[norm]
        models[case] = build_model(net, LARGE_DOMAINS[dom], p, 0.1, linearize_inf_objective=lin)
    return models


class TestLargeModels:
    @pytest.mark.parametrize("case", list(PINNED_LARGE))
    def test_emitted_bytes_unchanged(self, case, large_models):
        model = large_models[case]
        assert (_sha(emit_json(model)), _sha(emit_lp_text(model))) == PINNED_LARGE[case]

    @pytest.mark.parametrize("case", list(PINNED_LARGE))
    def test_round_trip_is_byte_stable(self, case, large_models):
        model = large_models[case]
        text = emit_json(model)
        back = parse_json(text)
        assert back == model
        assert emit_json(back) == text
        assert emit_lp_text(back) == emit_lp_text(model)


def _stdlib_json(model):
    """The referee: the model document, written by json.dumps."""
    obj = model.objective
    doc = {
        "format_version": model.format_version,
        "metadata": {
            "p": "inf" if model.p == math.inf else model.p,
            "eps": model.eps,
            "big_m": model.big_m,
            "groups": model.groups,
        },
        "variables": [
            {"name": v.name, "kind": v.kind, "lower": v.lower, "upper": v.upper}
            for v in model.variables
        ],
        "linear_constraints": [
            {"id": c.cid, "coeffs": c.lin, "rel": c.rel, "rhs": c.rhs}
            for c in model.linear_constraints
        ],
        "quadratic_constraints": [
            {"id": c.cid, "quad": c.quad, "lin": c.lin, "rel": c.rel, "rhs": c.rhs}
            for c in model.quadratic_constraints
        ],
        "objective": {
            "sense": obj.sense, "quad": obj.quad, "lin": obj.lin, "constant": obj.constant
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _hand_model(p=2, big_m=None, names=("a", "b"), groups=None, lin=(), quad=(), obj_lin=(),
                obj_quad=(), lower=None, upper=None, eps=0.0, rhs=1.0, constant=0.0,
                with_rows=True):
    """Continuous a and binary b, with one linear and one quadratic row
    unless with_rows is False."""
    a, b = names
    rows = (Constraint(f"row {a}", (), lin or ((a, 1.0),), "<=", rhs),) if with_rows else ()
    qrows = (Constraint(f"q {b}", quad or ((b, a, 1.0),), lin, ">=", rhs),) if with_rows else ()
    return MiqcqpModel(
        1, p, eps, big_m, {"x": ((a,), (b,))} if groups is None else groups,
        (Variable(a, "continuous", lower, upper), Variable(b, BINARY, 0.0, 1.0)),
        rows, qrows, Objective("max", obj_quad, obj_lin, constant),
    )


class TestWriterAgainstStdlib:
    """emit_json writes exactly what json.dumps(doc, indent=2) wrote."""

    @pytest.mark.parametrize("seed", range(4))
    def test_built_models(self, seed):
        net = random_net(seed, max_width=3)
        n0 = net.input_dim
        domains = (
            unit_box(net),
            Polytope(np.vstack([np.eye(n0), -np.eye(n0)]), np.ones(2 * n0)),
            AllSpace(),
            L2Ball(np.full(n0, 0.25), 1.5),
        )
        for domain in domains:
            for p, lin in PIN_NORMS.values():
                m = build_model(net, domain, p, 0.125 * seed, linearize_inf_objective=lin)
                assert emit_json(m) == _stdlib_json(m)

    @pytest.mark.parametrize(
        "model",
        [
            _hand_model(with_rows=False),
            _hand_model(p=1, big_m=3.0, obj_lin=(("a", 1.0),)),
            _hand_model(p=math.inf, obj_quad=(("b", "a", 2.0),), constant=-0.0),
            _hand_model(lin=(("a", -0.0), ("b", 5e-324)), rhs=1e308, lower=-1e308),
            _hand_model(lin=(("a", 3),), quad=(("b", "b", -2),), rhs=7, lower=0, upper=2),
            _hand_model(
                lin=(("a", np.float64(1.5)),), quad=(("b", "a", np.float64(-0.1)),),
                eps=np.float64(0.25), big_m=np.float64(2.0), rhs=np.float64(1e-17),
                lower=np.float64(-2.0), constant=np.float64(0.5), obj_lin=(("a", np.float64(3.0)),),
            ),
            _hand_model(groups={}),
            _hand_model(groups={"u": (), "odd": ((), (("a",),), 1, 2.5, None, True, math.nan)}),
        ],
        ids=["no-rows", "p1-big_m", "pinf-neg-zero", "extremes", "ints", "np-float64",
             "no-groups", "odd-groups"],
    )
    def test_hand_built_models(self, model):
        assert emit_json(model) == _stdlib_json(model)

    @pytest.mark.parametrize("names", [('q"1', "back\\slash"), ("\u00e9t\u00e9", "\U0001d465"),
                                       ("ctl\x01", "tab\tnew\nline")])
    def test_names_that_need_escapes(self, names):
        model = _hand_model(names=names, obj_lin=((names[0], 1.0),),
                            groups={names[1]: (names[0],)})
        text = emit_json(model)
        assert text == _stdlib_json(model)
        assert text.isascii()
        assert parse_json(text) == model


class TestJsonStrings:
    """Names, ids, kind, rel and sense must be JSON strings: str() would
    read a name 7 as "7", and the model would no longer emit its own bytes."""

    def _doc(self, ex2):
        return json.loads(emit_json(build_model(ex2, AllSpace(), 1, 0.1)))

    @pytest.mark.parametrize("value", [7, None])
    @pytest.mark.parametrize(
        "keys, message",
        [
            (("variables", 0, "name"), r"variables\[0\]: name is not a string"),
            (("variables", 2, "kind"), r"variables\[2\]: kind is not a string"),
            (("linear_constraints", 1, "id"), r"linear_constraints\[1\]: id is not a string"),
            (("linear_constraints", 0, "rel"), r"linear_constraints\[0\]: rel is not a string"),
            (("quadratic_constraints", 0, "id"), r"quadratic_constraints\[0\]: id is not"),
            (("quadratic_constraints", 2, "rel"), r"quadratic_constraints\[2\]: rel is not"),
            (("objective", "sense"), "objective: sense is not a string"),
            (("linear_constraints", 0, "coeffs", 0, 0), r"linear_constraints\[0\]: linear term"),
            (("quadratic_constraints", 1, "quad", 0, 0), r"quadratic_constraints\[1\]: quadratic"),
            (("quadratic_constraints", 1, "quad", 0, 1), r"quadratic_constraints\[1\]: quadratic"),
            (("quadratic_constraints", 0, "lin", 0, 0), r"quadratic_constraints\[0\]: linear term"),
            (("objective", "lin", 0, 0), "objective: linear term"),
        ],
    )
    def test_rejected_with_path(self, ex2, keys, message, value):
        doc = self._doc(ex2)
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        with pytest.raises(ModelFormatError, match=message):
            parse_json(json.dumps(doc))

    def test_numeric_variable_name(self, ex1):
        """A variable named 7, referenced as 7, used to parse as "7"."""
        doc = json.loads(emit_json(build_model(ex1, AllSpace(), 2, 0.0)))
        text = json.dumps(doc).replace('"x0_1"', "7")
        with pytest.raises(ModelFormatError, match=r"variables\[0\]: name is not a string"):
            parse_json(text)
        assert parse_json(json.dumps(doc).replace('"x0_1"', '"7"')).variables[0].name == "7"


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

    @staticmethod
    def _cap_model():
        return MiqcqpModel(
            1, 1, 0.0, None, {},
            (Variable("z"), Variable("s", BINARY, 0.0, 1.0)),
            (Constraint("cap", (), (("z", 1.0),), "<=", 5.0),),
            (),
            Objective("max", (), (("z", 1.0),), 0.0),
        )

    def test_nan_value_is_a_violation(self):
        res = check_assignment(self._cap_model(), {"z": math.nan, "s": 0.0})
        assert [v.cid for v in res.violations] == ["cap"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_binary_is_a_violation(self, bad):
        res = check_assignment(self._cap_model(), {"z": 0.0, "s": bad})
        assert "integrality[s]" in {v.cid for v in res.violations}

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            check_assignment(self._cap_model(), {"z": 0.0, "s": 0.0}, tol=tol)

    @pytest.mark.parametrize("field", ["coeff", "rhs", "bound", "eps", "big_m", "objective"])
    def test_non_finite_model_numbers_rejected(self, field):
        z = Variable("z", "continuous", math.inf if field == "bound" else 0.0, None)
        coef = math.nan if field == "coeff" else 1.0
        with pytest.raises(ModelFormatError, match="not finite"):
            MiqcqpModel(
                1, 1, math.nan if field == "eps" else 0.0, math.inf if field == "big_m" else None,
                {}, (z,),
                (Constraint("cap", (), (("z", coef),), "<=", math.nan if field == "rhs" else 5.0),),
                (),
                Objective("max", (), (("z", math.inf if field == "objective" else 1.0),), 0.0),
            )

    @pytest.mark.parametrize(
        "variables, quad, rel, sense, message",
        [
            ((Variable("z"), Variable("z")), (), "<=", "max", "duplicate variable names"),
            ((Variable("z", "integer"),), (), "<=", "max", "variable z: unknown kind 'integer'"),
            ((Variable("z", BINARY, 0.0, 2.0),), (), "<=", "max", r"binary variable z must carry bounds \[0, 1\]"),
            ((Variable("z"),), (("z", "w", 1.0),), "<=", "max", "q: unknown variable 'w'"),
            ((Variable("z"), Variable("a")), (("z", "a", 1.0),), "<=", "max", r"q: quadratic term \(z,a\) is not lower"),
            ((Variable("z"),), (("z", "z", math.nan),), "<=", "max", r"q: coefficient of z\*z is not finite"),
            ((Variable("z"),), (), "<", "max", "cap: unknown relation '<'"),
            ((Variable("z"),), (), "<=", "min", "objective sense must be 'max', got 'min'"),
        ],
    )
    def test_malformed_model_rejected(self, variables, quad, rel, sense, message):
        with pytest.raises(ModelFormatError, match=message):
            MiqcqpModel(
                1, 1, 0.0, None, {}, variables,
                (Constraint("cap", (), (("z", 1.0),), rel, 5.0),),
                (Constraint("q", quad, (), "<=", 1.0),),
                Objective(sense, (), (("z", 1.0),), 0.0),
            )

    def test_linear_constraint_with_quad_terms_rejected(self):
        with pytest.raises(ModelFormatError, match="linear constraint"):
            MiqcqpModel(
                1, 2, 0.0, None, {}, (Variable("a"),),
                (Constraint("row", (("a", "a", 1.0),), (), "<=", 1.0),),
                (),
                Objective("max", (), (), 0.0),
            )


class TestAssignmentFile:
    @pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_value_rejected(self, raw):
        text = '{"format_version": 1, "values": {"z": %s}}' % raw
        with pytest.raises(ModelFormatError, match="not finite"):
            parse_assignment_json(text)

    @pytest.mark.parametrize("head", ['', '"format_version": 2, '])
    def test_format_version_checked(self, head):
        with pytest.raises(ModelFormatError, match="format_version"):
            parse_assignment_json('{%s"values": {"z": 1.0}}' % head)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1.0]", 'needs a "values" object'),
            ('{"format_version": 1}', 'needs a "values" object'),
            ('{"format_version": 1, "values": [1.0]}', '"values" must map variable names'),
        ],
    )
    def test_malformed_file_rejected(self, text, message):
        with pytest.raises(ModelFormatError, match=message):
            parse_assignment_json(text)


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

    def test_eps_outside_report_raises(self, ex2):
        report = brute_force_bounds(ex2, AllSpace(), 1, [0.1])
        with pytest.raises(WitnessUnavailableError, match="no argmax pattern for eps=0.3"):
            witness_from_bounds(ex2, AllSpace(), 1, 0.3, report)

    def test_infeasible_level_raises(self, ex2):
        report = brute_force_bounds(ex2, Box([-3.0], [3.0]), 1, [10.0])
        assert 10.0 in report.eps_empty
        with pytest.raises(WitnessUnavailableError):
            witness_from_bounds(ex2, Box([-3.0], [3.0]), 1, 10.0, report)

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


def _p1_witnesses():
    """(model, assignment, depth) at one pattern of each of ten seeded nets, p=1."""
    rng = np.random.default_rng(31)
    for seed in range(10):
        net = random_net(seed)
        box = unit_box(net)
        sigma = pattern_of(net, rng.uniform(-1.0, 1.0, net.input_dim))
        yield build_model(net, box, 1, 0.0), assignment_for_pattern(net, box, 1, 0.0, sigma), net.depth


def _violated(model, assignment, name, value):
    return {v.cid for v in check_assignment(model, {**assignment, name: value}).violations}


class TestLinearizationBlocks:
    # The emitted u/nu (input) and w/mu (output) rows, evaluated by the checker.

    def test_absolute_value_identity(self):
        # mag = |y| holds all rows; any other mag breaks a named abs row
        for model, a, depth in _p1_witnesses():
            assert check_assignment(model, a).feasible
            for tag, y in (("u", "y0"), ("w", f"y{depth}")):
                for i in range(1, len(model.groups[tag]) + 1):
                    mag = abs(a[f"{y}_{i}"])
                    assert a[f"{tag}_{i}"] == mag
                    hi = _violated(model, a, f"{tag}_{i}", mag + 0.5)
                    assert hi & {f"{tag}_abs_hi1[{i}]", f"{tag}_abs_hi2[{i}]"}
                    lo = _violated(model, a, f"{tag}_{i}", mag - 0.5)
                    assert lo & {f"{tag}_abs_lo1[{i}]", f"{tag}_abs_lo2[{i}]"}

    def test_six_inequality_block_reproduces_abs(self):
        # the sign binary is [y <= 0]; flipping it at a nonzero y breaks a sign row
        flipped = 0
        for model, a, depth in _p1_witnesses():
            for tag, neg, y in (("u", "nu", "y0"), ("w", "mu", f"y{depth}")):
                for i in range(1, len(model.groups[neg]) + 1):
                    yi, bit = a[f"{y}_{i}"], a[f"{neg}_{i}"]
                    assert bit == float(yi <= 0.0)
                    if abs(yi) < 1e-6:
                        continue
                    hit = _violated(model, a, f"{neg}_{i}", 1.0 - bit)
                    assert hit & {f"{tag}_sign_hi[{i}]", f"{tag}_sign_lo[{i}]"}
                    flipped += 1
        assert flipped >= 10

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
