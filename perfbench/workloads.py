"""The three workloads: inputs, one op, and the op's check.

Each op calls lipbound through a module attribute looked up at call time
(`lb.cli.main`, `lb.bounds.compute_report`, ...), so the traced run's
wrappers see the calls.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

import numpy as np

import checks
import zoo

HERE = Path(__file__).resolve().parent
REFERENCE_SEED = 0
REFERENCE_FILE = HERE / "reference_seed0.json"
LIPBOUND_MODULES = ("bounds", "cli", "miqcqp", "network", "norms", "regions", "sampling", "simplex")

ZOO_COUNT = zoo.ROTATION  # every class x domain x p combination once per pass
# Three of every p x output-width combination per pass: the p=2 power
# iteration's cost depends on each net's spectrum, so a pass averages it
# over 21 p=2 nets.
LARGE_COUNT = 63
LARGE_SAMPLES = 300


def load_lipbound(root: Path):
    """Import lipbound from `root`/src and every module the benchmark drives."""
    src = root / "src"
    if not (src / "lipbound" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lipbound sources under {src}")
    sys.path.insert(0, str(src))
    lb = importlib.import_module("lipbound")
    if Path(lb.__file__).resolve().parent != (src / "lipbound").resolve():
        raise SystemExit(f"perfbench: imported lipbound from {lb.__file__}, not from {src}")
    for name in LIPBOUND_MODULES:
        importlib.import_module(f"lipbound.{name}")
    return lb


def _write(path: Path, doc) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return str(path)


def load_instance(lb, inst):
    net = lb.network.load_network(json.dumps(inst["net"]))
    dom = lb.network.load_domain(json.dumps(inst["domain"]))
    return net, dom


def zoo_references(lb, seed: int, instances: list) -> tuple[list, str]:
    """Oracle values for each zoo instance: stored for the reference seed,
    computed here (outside any timed phase) for every other seed."""
    if seed == REFERENCE_SEED and REFERENCE_FILE.is_file():
        doc = json.loads(REFERENCE_FILE.read_text())
        if doc["fingerprint"] != zoo.fingerprint(instances) or len(doc["reports"]) != len(instances):
            raise SystemExit(
                "perfbench: stored references do not match the generated zoo; "
                "rerun perfbench/make_reference.py"
            )
        return [checks.from_jsonable(r) for r in doc["reports"]], "stored"
    refs = []
    for inst in instances:
        net, dom = load_instance(lb, inst)
        report = lb.bounds.compute_report(net, dom, inst["p"], checks.EPS_LIST, mode="oracle")
        refs.append(checks.canon_from_report(report))
    return refs, "computed"


def _zoo(lb, seed: int, count: int, references: bool):
    instances = [zoo.zoo_instance(seed, i) for i in range(count)]
    if not references:
        return instances, [None] * count, "none"
    return (instances, *zoo_references(lb, seed, instances))


class Oracle:
    """compute_report(mode="oracle") in process on the zoo."""

    name = "oracle"
    count = ZOO_COUNT

    def prepare(self, lb, seed, workdir, count=None, references=True):
        instances, refs, source = _zoo(lb, seed, count or self.count, references)
        items = []
        for inst, ref in zip(instances, refs):
            net, dom = load_instance(lb, inst)
            items.append({"inst": inst, "net": net, "domain": dom, "ref": ref, "outputs": []})
        return items, instances, source

    def op(self, lb, item):
        inst = item["inst"]
        return lb.bounds.compute_report(
            item["net"], item["domain"], inst["p"], checks.EPS_LIST, mode="oracle"
        )

    def check(self, item, report, stdout):
        return checks.compare(checks.canon_from_report(report), item["ref"])


class Bnb:
    """`lipbound bounds` (default mode bnb) through cli.main on zoo files."""

    name = "bnb"
    count = ZOO_COUNT

    def prepare(self, lb, seed, workdir, count=None, references=True):
        instances, refs, source = _zoo(lb, seed, count or self.count, references)
        items = []
        for inst, ref in zip(instances, refs):
            d = Path(workdir) / f"zoo-{inst['index']}"
            out = str(d / "report.json")
            argv = [
                "bounds",
                "--net", _write(d / "net.json", inst["net"]),
                "--domain", _write(d / "domain.json", inst["domain"]),
                "--p", zoo.p_label(inst["p"]),
            ]
            for e in checks.EPS_LIST:
                argv += ["--eps", repr(e)]
            argv += ["--out", out]
            items.append(
                {"inst": inst, "argv": argv, "out": out, "ref": ref, "outputs": [out], "reports": [out]}
            )
        return items, instances, source

    def op(self, lb, item):
        return lb.cli.main(item["argv"])

    def check(self, item, rc, stdout):
        if rc != 0:
            return [f"bounds exited {rc}"]
        doc = json.loads(Path(item["out"]).read_text())
        return checks.compare(checks.canon_from_json(doc), item["ref"])


_NP_ORD = {1: 1, 2: 2, zoo.P_VALUES[2]: np.inf}
_OBJECTIVE = re.compile(r"^objective=(\S+)$", re.MULTILINE)


def large_reference(inst: dict) -> dict:
    """Norms computed with numpy alone, independent of lipbound."""
    ws = [np.array(layer["weights"]) for layer in inst["net"]["layers"]]
    bs = [np.array(layer["bias"]) for layer in inst["net"]["layers"]]
    v = np.array(inst["point"])
    J = np.eye(v.shape[0])
    for w, b in zip(ws[:-1], bs[:-1]):
        theta = w @ v + b
        gate = (theta > 0.0).astype(float)
        v = gate * theta
        J = gate[:, None] * (w @ J)
    J = ws[-1] @ J
    order = _NP_ORD[inst["p"]]
    return {
        "p": inst["p"],
        "pattern_norm": float(np.linalg.norm(J, order)),
        "norm_product": float(np.prod([np.linalg.norm(w, order) for w in ws])),
    }


class LargeNet:
    """emit -> witness -> check -> sample on nets too large to enumerate."""

    name = "large-net"
    count = LARGE_COUNT

    def prepare(self, lb, seed, workdir, count=None, references=True):
        instances = [zoo.large_instance(seed, i) for i in range(count or self.count)]
        items = []
        for inst in instances:
            d = Path(workdir) / f"large-{inst['index']}"
            net_path = _write(d / "net.json", inst["net"])
            box_path = _write(d / "box.json", inst["domain"])
            p = zoo.p_label(inst["p"])
            model, witness, sample = (str(d / n) for n in ("model.json", "witness.json", "sample.json"))
            net, dom = load_instance(lb, inst)
            items.append({
                "inst": inst,
                "net": net,
                "domain": dom,
                "point": np.array(inst["point"]),
                "witness": witness,
                "sample_out": sample,
                "emit": ["emit", "--net", net_path, "--domain", box_path, "--p", p,
                         "--eps", "0", "--format", "both", "--out", model],
                "check": ["check", model, witness],
                "sample": ["sample", "--net", net_path, "--domain", box_path, "--p", p,
                           "--samples", str(LARGE_SAMPLES), "--seed", str(inst["sample_seed"]),
                           "--out", sample],
                "ref": large_reference(inst) if references else None,
                "outputs": [model, str(d / "model.lp"), witness, sample],
                "reports": [sample],
            })
        return items, instances, "numpy" if references else "none"

    def op(self, lb, item):
        rc = {"emit": lb.cli.main(item["emit"])}
        sigma = lb.network.pattern_of(item["net"], item["point"])
        assignment = lb.miqcqp.assignment_for_pattern(
            item["net"], item["domain"], item["inst"]["p"], 0.0, sigma
        )
        Path(item["witness"]).write_text(lb.miqcqp.emit_assignment_json(assignment))
        rc["check"] = lb.cli.main(item["check"])
        rc["sample"] = lb.cli.main(item["sample"])
        return rc

    def check(self, item, rc, stdout):
        found = _OBJECTIVE.findall(stdout)
        objective = float(found[-1]) if found else None
        path = Path(item["sample_out"])
        sample = json.loads(path.read_text()) if path.is_file() else None
        return checks.check_large(item["ref"], rc, objective, sample)


WORKLOADS = {w.name: w for w in (Oracle(), Bnb(), LargeNet())}
