import itertools
import json
from importlib import resources
from pathlib import Path

import pytest

from lipbound import parse_json
from lipbound.cli import build_parser, main


@pytest.fixture
def fix_dir():
    return Path(str(resources.files("lipbound") / "fixtures"))


@pytest.fixture
def ex1_path(fix_dir):
    return str(fix_dir / "example1.json")


@pytest.fixture
def ex2_path(fix_dir):
    return str(fix_dir / "example2.json")


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestBounds:
    def test_example1_summary(self, capsys, ex1_path):
        rc, out, _ = run(capsys, "bounds", "--net", ex1_path, "--p", "inf", "--eps", "0.1")
        assert rc == 0
        assert "upper=2 lower=1 L_0.1=1" in out

    def test_example2_two_eps(self, capsys, ex2_path):
        rc, out, _ = run(
            capsys, "bounds", "--net", ex2_path, "--p", "1", "--eps", "0.4", "--eps", "0.6"
        )
        assert rc == 0
        assert "L_0.4=1" in out and "L_0.6=0" in out

    def test_repeated_eps_printed_once(self, capsys, ex1_path):
        # the report holds one value per distinct eps, and so does the summary
        rc, out, _ = run(capsys, "bounds", "--net", ex1_path, "--p", "inf", "--eps", "0.1", "--eps", "0.1")
        assert rc == 0
        assert out == "upper=2 lower=1 L_0.1=1\n"

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "bounds", "--net", "/no/such/file.json", "--p", "2")
        assert rc == 1
        assert "error" in err

    def test_negative_eps_usage_error(self, capsys, ex1_path, tmp_path):
        # negative and non-finite levels fail in the library, before any file is written
        for command, eps in itertools.product(("bounds", "emit"), ("-1", "nan", "inf")):
            out = tmp_path / f"{command}{eps}.json"
            rc, _, err = run(
                capsys, command, "--net", ex1_path, "--p", "2", "--eps", eps, "--out", str(out)
            )
            assert rc == 1, (command, eps)
            assert "finite and nonnegative" in err
        assert list(tmp_path.iterdir()) == []

    def test_removed_flags_exit_1(self, capsys, ex1_path):
        # only sample takes --seed, only bounds and curve --relax-ball-to-box
        for command, *flag in (
            ("bounds", "--seed", "3"),
            ("curve", "--seed", "3"),
            ("emit", "--seed", "3"),
            ("emit", "--relax-ball-to-box"),
            ("sample", "--relax-ball-to-box"),
        ):
            rc, _, err = run(capsys, command, "--net", ex1_path, "--p", "2", *flag)
            assert rc == 1, (command, flag)
            assert "unrecognized arguments" in err

    def test_non_number_in_net_or_domain_exit_1(self, capsys, ex1_path, tmp_path):
        net = tmp_path / "net.json"
        net.write_text('{"layers":[{"weights":[["1.5"]],"bias":[0]},{"weights":[[1]],"bias":[0]}]}')
        dom = tmp_path / "ball.json"
        dom.write_text('{"type":"l2ball","center":[0],"radius":"2"}')
        for paths in (("--net", str(net)), ("--net", ex1_path, "--domain", str(dom))):
            rc, out, err = run(capsys, "bounds", *paths, "--p", "2")
            assert rc == 1, paths
            assert err.startswith("error: ") and "is not a number" in err
            assert out == ""

    @pytest.mark.parametrize("radius", ["[1.0]", "[]", "[1.0, 2.0]"])
    def test_list_radius_exit_1(self, capsys, ex1_path, tmp_path, radius):
        dom = tmp_path / "ball.json"
        dom.write_text(f'{{"type":"l2ball","center":[0.0],"radius":{radius}}}')
        rc, out, err = run(capsys, "bounds", "--net", ex1_path, "--p", "2", "--domain", str(dom))
        assert (rc, out) == (1, "")
        assert err.startswith("error: ball radius must be a number") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_zero_output_net_witness_is_silent(self, capsys, tmp_path):
        # every pattern Jacobian is zero; e_1 is an exact witness, and nothing is warned
        net = tmp_path / "net.json"
        net.write_text('{"layers":[{"weights":[[1.0],[-1.0]],"bias":[0.5,0.5]},'
                       '{"weights":[[0.0,0.0]],"bias":[1.0]}]}')
        for p in ("1", "2", "inf"):
            witness = tmp_path / f"w{p}.json"
            rc, out, err = run(capsys, "bounds", "--net", str(net), "--p", p, "--eps", "0.1",
                               "--emit-witness", str(witness))
            assert (rc, out, err) == (0, "upper=0 lower=0 L_0.1=0\n", ""), p
            assert witness.exists()

    def test_empty_domain_exit_2(self, capsys, ex1_path, tmp_path):
        dom = tmp_path / "empty.json"
        dom.write_text('{"type":"polytope","A":[[1.0],[-1.0]],"b":[-3.0,2.0]}')
        rc, _, err = run(capsys, "bounds", "--net", ex1_path, "--p", "2", "--domain", str(dom))
        assert rc == 2

    def test_report_bytes_deterministic(self, capsys, ex2_path, tmp_path):
        out = tmp_path / "report.json"
        blobs = []
        for _ in range(2):
            rc, _, _ = run(
                capsys, "bounds", "--net", ex2_path, "--p", "2", "--eps", "0.4", "--out", str(out),
            )
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_oracle_and_bnb_differ_only_in_stats(self, capsys, ex1_path, ex2_path, tmp_path):
        for i, net in enumerate((ex1_path, ex2_path)):
            docs = []
            for mode in ("oracle", "bnb"):
                out = tmp_path / f"{i}-{mode}.json"
                rc, _, _ = run(
                    capsys, "bounds", "--net", net, "--p", "inf", "--eps", "0.3",
                    "--mode", mode, "--out", str(out),
                )
                assert rc == 0
                doc = json.loads(out.read_text())
                doc.pop("stats")
                doc["config"].pop("out")
                doc["config"].pop("mode")
                docs.append(doc)
            assert docs[0] == docs[1]


class TestCurve:
    def test_example2_csv_steps(self, capsys, ex2_path, tmp_path):
        csv = tmp_path / "curve.csv"
        rc, out, _ = run(capsys, "curve", "--net", ex2_path, "--p", "2", "--csv", str(csv))
        assert rc == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "eps,value"
        assert lines[1:] == ["0,1.0", "0.5,1.0", "0.5,0.0", "inf,0.0"]

    def test_zero_bias_single_segment(self, capsys, tmp_path):
        net = tmp_path / "zb.json"
        net.write_text(
            '{"layers":[{"weights":[[1.0],[-2.0]],"bias":[0.0,0.0]},'
            '{"weights":[[1.0,1.0]],"bias":[0.0]}]}'
        )
        out = tmp_path / "curve.json"
        rc, _, _ = run(capsys, "curve", "--net", str(net), "--p", "inf", "--out", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["curve"]) == 1
        assert doc["curve"][0]["eps"] == "inf"
        assert doc["curve"][0]["value"] == doc["lower"]


class TestEmitAndCheck:
    def test_emit_roundtrip(self, capsys, ex1_path, tmp_path):
        model_path = tmp_path / "m.json"
        rc, out, _ = run(
            capsys, "emit", "--net", ex1_path, "--p", "2", "--eps", "0",
            "--format", "json", "--out", str(model_path),
        )
        assert rc == 0
        assert "variables=9" in out
        model = parse_json(model_path.read_text())
        assert parse_json(model_path.read_text()) == model

    def test_two_eps_exit_1(self, capsys, ex1_path, tmp_path):
        model_path = tmp_path / "m.json"
        rc, _, err = run(
            capsys, "emit", "--net", ex1_path, "--p", "2", "--eps", "0", "--eps", "0.1",
            "--out", str(model_path),
        )
        assert rc == 1
        assert "emit expects exactly one --eps level" in err
        assert not model_path.exists()

    def test_emit_lp_text_file(self, capsys, ex1_path, tmp_path):
        model_path = tmp_path / "m.json"
        rc, _, _ = run(
            capsys, "emit", "--net", ex1_path, "--p", "2", "--eps", "0",
            "--format", "both", "--out", str(model_path),
        )
        assert rc == 0
        assert "y2_1 ^ 2" in (tmp_path / "m.lp").read_text()

    def test_witness_pipeline_exit_zero(self, capsys, ex2_path, tmp_path):
        model_path = tmp_path / "m.json"
        witness_path = tmp_path / "w.json"
        report_path = tmp_path / "r.json"
        rc, _, _ = run(
            capsys, "emit", "--net", ex2_path, "--p", "1", "--eps", "0.4",
            "--out", str(model_path),
        )
        assert rc == 0
        rc, _, _ = run(
            capsys, "bounds", "--net", ex2_path, "--p", "1", "--eps", "0.4",
            "--out", str(report_path), "--emit-witness", str(witness_path),
        )
        assert rc == 0
        rc, out, _ = run(capsys, "check", str(model_path), str(witness_path))
        assert rc == 0
        assert "feasible" in out
        reported = json.loads(report_path.read_text())["eps_values"]["0.4"]
        objective = float(out.split("objective=")[1].splitlines()[0])
        assert objective == pytest.approx(reported, abs=1e-7)

    def test_corrupted_assignment_exit_3(self, capsys, ex2_path, tmp_path):
        model_path = tmp_path / "m.json"
        witness_path = tmp_path / "w.json"
        run(capsys, "emit", "--net", ex2_path, "--p", "1", "--eps", "0.4", "--out", str(model_path))
        run(
            capsys, "bounds", "--net", ex2_path, "--p", "1", "--eps", "0.4",
            "--emit-witness", str(witness_path),
        )
        doc = json.loads(witness_path.read_text())
        doc["values"]["sigma1_1"] = 1.0 - doc["values"]["sigma1_1"]
        witness_path.write_text(json.dumps(doc))
        rc, out, _ = run(capsys, "check", str(model_path), str(witness_path))
        assert rc == 3
        assert "violations" in out

    def test_missing_variable_exit_1(self, capsys, ex2_path, tmp_path):
        model_path = tmp_path / "m.json"
        witness_path = tmp_path / "w.json"
        run(capsys, "emit", "--net", ex2_path, "--p", "1", "--eps", "0.4", "--out", str(model_path))
        run(
            capsys, "bounds", "--net", ex2_path, "--p", "1", "--eps", "0.4",
            "--emit-witness", str(witness_path),
        )
        doc = json.loads(witness_path.read_text())
        doc["values"].pop("u_1")
        witness_path.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "check", str(model_path), str(witness_path))
        assert rc == 1


def _nan_coefficient(doc):
    doc["linear_constraints"][0]["coeffs"][0][1] = float("nan")


def _set(*keys, value):
    def mutate(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return mutate


MALFORMED_MODELS = {
    "eps-null": _set("metadata", "eps", value=None),
    "big_m-inf": _set("metadata", "big_m", value=float("inf")),
    "groups-list": _set("metadata", "groups", value=[]),
    "rhs-null": _set("linear_constraints", 0, "rhs", value=None),
    "rhs-string": _set("linear_constraints", 0, "rhs", value="five"),
    "coeff-nan": _nan_coefficient,
    "coeffs-number": _set("linear_constraints", 0, "coeffs", value=3),
    "quad-term-number": _set("quadratic_constraints", 0, "quad", 0, value=3),
    "variables-number": _set("variables", value=5),
    "variable-entry-number": _set("variables", 0, value=5),
    "bound-nan": _set("variables", 0, "lower", value=float("nan")),
    "objective-number": _set("objective", value=5),
    "format_version-bool": _set("format_version", value=True),
    "p-bool": _set("metadata", "p", value=True),
    "eps-bool": _set("metadata", "eps", value=False),
    "lower-bool": _set("variables", 0, "lower", value=True),
    "rhs-numeric-string": _set("linear_constraints", 0, "rhs", value="5"),
    "name-number": _set("variables", 0, "name", value=7),
    "kind-null": _set("variables", 0, "kind", value=None),
    "id-number": _set("linear_constraints", 0, "id", value=12),
    "quadratic-id-number": _set("quadratic_constraints", 0, "id", value=12),
    "rel-number": _set("linear_constraints", 0, "rel", value=1),
    "sense-null": _set("objective", "sense", value=None),
    "term-name-number": _set("linear_constraints", 0, "coeffs", 0, 0, value=7),
    "quad-term-name-number": _set("quadratic_constraints", 0, "quad", 0, 1, value=7),
}


class TestCheckInputs:
    @pytest.fixture
    def files(self, capsys, ex2_path, tmp_path):
        model_path, witness_path = tmp_path / "m.json", tmp_path / "w.json"
        run(capsys, "emit", "--net", ex2_path, "--p", "1", "--eps", "0.4", "--out", str(model_path))
        run(
            capsys, "bounds", "--net", ex2_path, "--p", "1", "--eps", "0.4",
            "--emit-witness", str(witness_path),
        )
        return model_path, witness_path

    @pytest.mark.parametrize("mutation", list(MALFORMED_MODELS))
    def test_malformed_model_exit_1(self, capsys, files, mutation):
        model_path, witness_path = files
        doc = json.loads(model_path.read_text())
        MALFORMED_MODELS[mutation](doc)
        model_path.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "check", str(model_path), str(witness_path))
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exit_1(self, capsys, files, tol):
        rc, _, err = run(capsys, "check", *map(str, files), "--tol", tol)
        assert rc == 1
        assert "tol must be finite and nonnegative" in err

    def test_nan_assignment_value_exit_1(self, capsys, files):
        model_path, witness_path = files
        witness_path.write_text(witness_path.read_text().replace('"u_1": ', '"u_1": NaN, "_": '))
        rc, _, err = run(capsys, "check", str(model_path), str(witness_path))
        assert rc == 1
        assert "not finite" in err

    @pytest.mark.parametrize("raw", ["true", '"5"'])
    def test_non_number_assignment_value_exit_1(self, capsys, files, raw):
        model_path, witness_path = files
        witness_path.write_text(witness_path.read_text().replace('"u_1": ', f'"u_1": {raw}, "_": '))
        rc, out, err = run(capsys, "check", str(model_path), str(witness_path))
        assert rc == 1
        assert "values['u_1'] is not a number" in err
        assert out == ""

    def test_nan_coefficient_handwritten_model_exit_1(self, capsys, tmp_path):
        model_path, witness_path = tmp_path / "m.json", tmp_path / "w.json"
        model_path.write_text(
            '{"format_version": 1, "metadata": {"p": 1, "eps": 0.0, "big_m": null},'
            ' "variables": [{"name": "z", "kind": "continuous", "lower": 0.0, "upper": null}],'
            ' "linear_constraints": [{"id": "cap", "coeffs": [["z", NaN]], "rel": "<=", "rhs": 5.0}],'
            ' "objective": {"sense": "max", "lin": [["z", 1.0]]}}'
        )
        witness_path.write_text('{"format_version": 1, "values": {"z": 10.0}}')
        rc, out, err = run(capsys, "check", str(model_path), str(witness_path))
        assert rc == 1
        assert "cap: coefficient of z is not finite" in err
        assert "feasible" not in out


class TestSample:
    def test_example1(self, capsys, ex1_path):
        rc, out, _ = run(
            capsys, "sample", "--net", ex1_path, "--p", "2", "--samples", "100", "--seed", "7"
        )
        assert rc == 0
        assert "sampled_lower_bound=1" in out
        assert "heuristic" in out

    def test_zero_samples_usage_error(self, capsys, ex1_path):
        rc, _, err = run(capsys, "sample", "--net", ex1_path, "--p", "2", "--samples", "0")
        assert rc == 1

    def test_zero_pairs_exit_1(self, capsys, ex1_path):
        rc, _, err = run(capsys, "sample", "--net", ex1_path, "--p", "2", "--pairs", "0")
        assert rc == 1
        assert "--pairs must be positive" in err

    def test_all_samples_on_a_boundary_write_null_pattern(self, capsys, tmp_path):
        # the hidden neuron's pre-activation is 0 everywhere, so no sample counts
        net = tmp_path / "net.json"
        layers = [{"weights": [[0.0]], "bias": [0.0]}, {"weights": [[1.0]], "bias": [0.0]}]
        net.write_text(json.dumps({"layers": layers}))
        out = tmp_path / "sample.json"
        rc, stdout, _ = run(capsys, "sample", "--net", str(net), "--p", "2", "--samples", "20", "--out", str(out))
        assert rc == 0
        assert "valid_samples=0" in stdout
        doc = json.loads(out.read_text())
        assert doc["valid_samples"] == 0
        assert doc["best_pattern"] is None and doc["best_x"] is None


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--p", "1", "--eps", "0.1", "--eps", "0.4"],
            ["curve", "--p", "inf"],
            ["emit", "--p", "2", "--eps", "0.2"],
            ["sample", "--p", "2", "--samples", "50", "--seed", "3"],
        ],
    )
    def test_repeated_calls_identical(self, capsys, ex2_path, tmp_path, argv):
        out_path = tmp_path / "out.json"
        runs = []
        for _ in range(2):
            rc, out, err = run(capsys, *argv, "--net", ex2_path, "--out", str(out_path))
            runs.append((rc, out, err, out_path.read_text()))
            out_path.unlink()
        assert runs[0] == runs[1]
        assert runs[0][0] == 0


class TestBallRelaxation:
    def test_ball_rejected_without_flag(self, capsys, ex1_path, tmp_path):
        dom = tmp_path / "ball.json"
        dom.write_text('{"type":"l2ball","center":[0.0],"radius":2.0}')
        rc, _, err = run(capsys, "bounds", "--net", ex1_path, "--p", "2", "--domain", str(dom))
        assert rc == 1

    def test_ball_relaxed_with_flag(self, capsys, ex1_path, tmp_path):
        dom = tmp_path / "ball.json"
        dom.write_text('{"type":"l2ball","center":[0.0],"radius":2.0}')
        out = tmp_path / "r.json"
        rc, text, _ = run(
            capsys, "bounds", "--net", ex1_path, "--p", "2", "--domain", str(dom),
            "--relax-ball-to-box", "--out", str(out),
        )
        assert rc == 0
        assert "widened" in text
        assert json.loads(out.read_text())["domain_relaxed"] is True
