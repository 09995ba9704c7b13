import itertools
import math

import pytest

import checks
import run
import tracing
import zoo
from workloads import WORKLOADS, large_reference, load_instance


def test_generator_is_deterministic_per_seed():
    for i in range(8):
        assert zoo.zoo_instance(3, i) == zoo.zoo_instance(3, i)
        assert zoo.large_instance(3, i) == zoo.large_instance(3, i)
        assert zoo.zoo_instance(3, i)["net"] != zoo.zoo_instance(4, i)["net"]
        assert zoo.large_instance(3, i)["net"] != zoo.large_instance(4, i)["net"]
    first = [zoo.zoo_instance(5, i) for i in range(zoo.ROTATION)]
    assert zoo.fingerprint(first) == zoo.fingerprint([zoo.zoo_instance(5, i) for i in range(zoo.ROTATION)])


def test_zoo_bits_and_shapes():
    for i in range(4 * zoo.ROTATION):
        inst = zoo.zoo_instance(0, i)
        assert sum(inst["widths"][1:-1]) <= zoo.MAX_ZOO_BITS
        if inst["cls"] == "one_hidden":
            assert 7 <= inst["widths"][1] <= 10
    for i in range(63):
        n0, h1, h2, n_out = zoo.large_instance(0, i)["widths"]
        assert 8 <= n0 <= 16 and 12 <= h1 <= 24 and 12 <= h2 <= 24 and 2 <= n_out <= 8


def test_rotation_covers_every_combination():
    every = set(itertools.product(zoo.CLASSES, zoo.DOMAINS, zoo.P_VALUES))
    assert {zoo.combo(i) for i in range(zoo.ROTATION)} == every
    for start in range(zoo.ROTATION):
        window = [zoo.combo(i) for i in range(start, start + 12)]
        assert {c[0] for c in window} == set(zoo.CLASSES)
        assert {c[1:] for c in window} == set(itertools.product(zoo.DOMAINS, zoo.P_VALUES))


def test_degenerate_class_has_zero_bias_and_tied_neurons():
    inst = zoo.zoo_instance(0, 3)
    assert inst["cls"] == "degenerate"
    layers = inst["net"]["layers"]
    assert all(b == 0.0 for layer in layers for b in layer["bias"])
    w = layers[0]["weights"]
    assert w[1] == w[0] or w[1] == [-v for v in w[0]]


def _targets(lb):
    return {(m, a): getattr(getattr(lb, m), a) for m, a, _ in tracing.TARGETS}


def test_wrappers_fire_and_restore_originals(lb):
    before = _targets(lb)
    net, dom = load_instance(lb, zoo.zoo_instance(0, 2))
    tr = tracing.Tracer()

    def body():
        assert all(_targets(lb)[k] is not f for k, f in before.items())
        return lb.bounds.compute_report(net, dom, 2, [0.1], mode="oracle")

    with tr.installed(lb):
        body()
    assert _targets(lb) == before
    assert tr.missing("oracle") == []
    assert tr.calls["simplex.lp_solve"] > 0
    layer_self = tr.layer_self()
    root = tr.total["bounds.compute_report"]
    assert sum(layer_self.values()) == pytest.approx(root, rel=1e-9)


def test_missing_attribute_fails_and_restores(lb, monkeypatch):
    before = _targets(lb)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("bounds", "no_such_fn", "bounds.x"),))
    with pytest.raises(RuntimeError, match="no_such_fn"):
        tracing.Tracer().install(lb)
    monkeypatch.undo()
    assert _targets(lb) == before


def test_unfired_wrappers_are_reported():
    assert tracing.Tracer().missing("bnb") == list(tracing.EXPECTED["bnb"])


def _oracle_canon(lb, index):
    inst = zoo.zoo_instance(0, index)
    net, dom = load_instance(lb, inst)
    report = lb.bounds.compute_report(net, dom, inst["p"], checks.EPS_LIST, mode="oracle")
    return checks.canon_from_report(report)


def test_check_rejects_perturbed_reports(lb):
    ref = _oracle_canon(lb, 0)
    assert checks.compare(ref, ref) == []
    assert checks.compare(checks.from_jsonable(checks.to_jsonable(ref)), ref) == []

    bumped = dict(ref, upper=ref["upper"] + 1e-6)
    assert checks.compare(bumped, ref)

    flipped = [list(layer) for layer in ref["argmax_upper"]]
    flipped[0][0] = 1 - flipped[0][0]
    assert checks.compare(dict(ref, argmax_upper=flipped), ref)

    curve = [list(seg) for seg in ref["curve"]]
    curve[0][1] += 1e-6
    assert checks.compare(dict(ref, curve=curve), ref)

    key = repr(checks.EPS_LIST[0])
    value, empty, argmax = ref["eps"][key]
    assert checks.compare(dict(ref, eps={**ref["eps"], key: [value, not empty, argmax]}), ref)


class _Perturbed:
    """The oracle workload with every report's upper bound nudged by 1e-6."""

    def __init__(self):
        self.inner = WORKLOADS["oracle"]

    def op(self, lb, item):
        report = self.inner.op(lb, item)
        report.upper += 1e-6
        return report

    def check(self, item, out, stdout):
        return self.inner.check(item, out, stdout)


def test_perturbed_ops_count_as_failures_without_aborting(lb, tmp_path):
    items, _, _ = WORKLOADS["oracle"].prepare(lb, 1, tmp_path, count=3)
    phase = run.run_phase(lb, _Perturbed(), items, 0)
    assert phase.attempted == 3
    assert phase.failed == 3
    assert "upper" in phase.failures[0]

    clean = run.run_phase(lb, WORKLOADS["oracle"], items, 0)
    assert (clean.attempted, clean.failed) == (3, 0)


def test_large_net_check_rejects_wrong_objective_and_estimates():
    inst = zoo.large_instance(0, 1)
    ref = large_reference(inst)
    want = ref["pattern_norm"] ** 2 if ref["p"] == 2 else ref["pattern_norm"]
    ok_sample = {"sampled_lower_bound": 0.0, "pairwise_quotient": 0.0}
    rc = {"emit": 0, "check": 0, "sample": 0}
    assert checks.check_large(ref, rc, want, ok_sample) == []
    assert checks.check_large(ref, rc, want + 1e-5 * max(1.0, want), ok_sample)
    assert checks.check_large(ref, dict(rc, check=3), want, ok_sample)
    too_big = {"sampled_lower_bound": 2 * ref["norm_product"], "pairwise_quotient": 0.0}
    assert checks.check_large(ref, rc, want, too_big)


def test_tail_percentile_leaves_ten_ops_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)
    assert math.isclose(run.tail([float(i) for i in range(11)])[1], 100 / 11)
