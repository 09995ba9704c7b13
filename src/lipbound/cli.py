"""Command-line interface.

Subcommands: bounds (certified bounds + report file), curve (exact
eps-curve + CSV), emit (MIQCQP model files), check (assignment
verification), sample (heuristic sampled estimates).

Exit codes: 0 success, 1 error or bad usage, 2 empty input domain,
3 assignment check found violations.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .bounds import compute_report, report_to_dict
from .errors import DomainEmptyError, LipboundError
from .miqcqp import (
    build_model,
    check_assignment,
    emit_assignment_json,
    emit_json,
    emit_lp_text,
    parse_assignment_json,
    parse_json,
    witness_from_bounds,
)
from .network import AllSpace, Box, L2Ball, load_domain, load_network
from .norms import INF, inf_to_str
from .sampling import pairwise_quotient_estimate, sampled_lower_bound


def _fmt_value(v) -> str:
    if v is None:
        return "n/a"
    return f"{v:g}"


def _parse_p(raw: str):
    if raw == "inf":
        return INF
    return int(raw)


def _load_net(path: str):
    return load_network(Path(path).read_text())


def _load_domain_arg(path):
    if path is None:
        return AllSpace()
    return load_domain(Path(path).read_text())


def _write_json(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once; parse_args returns a fresh
    Namespace on every call, so one parser serves every main() call."""
    parser = argparse.ArgumentParser(prog="lipbound", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lipbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_eps=True):
        sp.add_argument("--net", required=True, help="network JSON file")
        sp.add_argument("--domain", default=None, help="domain JSON file (default: all of R^n)")
        sp.add_argument("--p", required=True, choices=["1", "2", "inf"], help="norm order")
        if with_eps:
            sp.add_argument(
                "--eps",
                action="append",
                type=float,
                default=None,
                help="margin level (repeatable)",
            )

    def add_report(sp):
        sp.add_argument("--relax-ball-to-box", action="store_true")
        sp.add_argument("--mode", choices=["bnb", "oracle"], default="bnb")

    b = sub.add_parser("bounds", help="certified upper/lower bounds and eps values")
    add_common(b)
    add_report(b)
    b.add_argument("--out", default=None, help="report JSON path")
    b.add_argument("--emit-witness", default=None, help="assignment JSON path")
    b.add_argument("--linearize-inf-objective", action="store_true")

    c = sub.add_parser("curve", help="exact eps-curve")
    add_common(c, with_eps=False)
    add_report(c)
    c.add_argument("--out", default=None, help="curve report JSON path")
    c.add_argument("--csv", default=None, help="step-rendering CSV path")

    e = sub.add_parser("emit", help="write MIQCQP model files")
    add_common(e)
    e.add_argument("--format", choices=["json", "lp", "both"], default="json")
    e.add_argument("--out", default="model.json", help="model JSON path")
    e.add_argument("--lp-out", default=None, help="algebraic text path")
    e.add_argument("--linearize-inf-objective", action="store_true")

    k = sub.add_parser("check", help="verify an assignment against a model")
    k.add_argument("model", help="model JSON file")
    k.add_argument("assignment", help="assignment JSON file")
    k.add_argument("--tol", type=float, default=1e-7)

    s = sub.add_parser("sample", help="heuristic sampled lower estimates")
    add_common(s, with_eps=False)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--samples", type=int, default=100)
    s.add_argument("--pairs", type=int, default=None)
    s.add_argument("--out", default=None)
    return parser


def _resolved_config(args) -> dict:
    return {**vars(args), "version": __version__}


def _report(args, eps_list, summary):
    """Compute a bounds or curve report, print summary(report) and the
    relaxation note, and write the report JSON to --out.

    L2 balls are not polyhedral; --relax-ball-to-box widens them to the
    circumscribed box. Widening keeps upper bounds valid but voids lower
    certificates, so the report is flagged."""
    net = _load_net(args.net)
    domain = _load_domain_arg(args.domain)
    relaxed = args.relax_ball_to_box and isinstance(domain, L2Ball)
    if relaxed:
        domain = Box(domain.center - domain.radius, domain.center + domain.radius)
    report = compute_report(net, domain, _parse_p(args.p), eps_list, mode=args.mode)
    print(summary(report))
    if relaxed:
        print("note: domain widened to circumscribed box; lower bounds are not certificates")
    doc = report_to_dict(report)
    doc.update(version=__version__, config=_resolved_config(args), domain_relaxed=relaxed)
    if args.out:
        _write_json(args.out, doc)
    return net, domain, report


def _cmd_bounds(args) -> int:
    eps_list = args.eps or []

    def summary(report):
        parts = [f"upper={_fmt_value(report.upper)}", f"lower={_fmt_value(report.lower)}"]
        parts += [f"L_{e:g}={_fmt_value(v)}" for e, v in report.eps_values.items()]
        return " ".join(parts)

    net, domain, report = _report(args, eps_list, summary)
    if args.emit_witness:
        level = eps_list[0] if eps_list else 0.0
        assignment = witness_from_bounds(
            net, domain, report.p, level, report, linearize_inf_objective=args.linearize_inf_objective
        )
        Path(args.emit_witness).write_text(emit_assignment_json(assignment))
    return 0


def _cmd_curve(args) -> int:
    def summary(report):
        lines = [f"curve segments: {len(report.curve)}"]
        for seg in report.curve:
            suffix = " [empty]" if seg.empty else ""
            lines.append(f"  value {seg.value:g} up to eps {seg.eps_end:g}{suffix}")
        return "\n".join(lines)

    _, _, report = _report(args, [], summary)
    if args.csv:
        segments = report.curve
        rows = ["eps,value", f"0,{segments[0].value!r}"]
        for i, seg in enumerate(segments):
            end = repr(seg.eps_end)
            rows.append(f"{end},{seg.value!r}")
            if i + 1 < len(segments):
                rows.append(f"{end},{segments[i + 1].value!r}")
        Path(args.csv).write_text("\n".join(rows) + "\n")
    return 0


def _cmd_emit(args) -> int:
    eps_list = args.eps if args.eps is not None else [0.0]
    if len(eps_list) != 1:
        raise ValueError("emit expects exactly one --eps level")
    net = _load_net(args.net)
    domain = _load_domain_arg(args.domain)  # L2 balls are fine here
    p = _parse_p(args.p)
    model = build_model(
        net, domain, p, eps_list[0], linearize_inf_objective=args.linearize_inf_objective
    )
    if args.format in ("json", "both"):
        Path(args.out).write_text(emit_json(model))
    if args.format in ("lp", "both"):
        lp_path = args.lp_out or str(Path(args.out).with_suffix(".lp"))
        Path(lp_path).write_text(emit_lp_text(model))
    big_m = "none" if model.big_m is None else f"{model.big_m:g}"
    print(
        f"p={inf_to_str(model.p)} eps={model.eps:g} variables={len(model.variables)} "
        f"linear={len(model.linear_constraints)} quadratic={len(model.quadratic_constraints)} "
        f"big_m={big_m}"
    )
    return 0


def _cmd_check(args) -> int:
    model = parse_json(Path(args.model).read_text())
    assignment = parse_assignment_json(Path(args.assignment).read_text())
    result = check_assignment(model, assignment, tol=args.tol)
    print(f"objective={result.objective:.12g}")
    if result.feasible:
        print("feasible: all constraints satisfied")
        return 0
    print(f"violations: {len(result.violations)}")
    for v in result.violations:
        print(f"  {v.cid}: lhs={v.lhs:.6g} rhs={v.rhs:.6g} slack={v.slack:.3g}")
    return 3


def _cmd_sample(args) -> int:
    if args.samples <= 0:
        raise ValueError("--samples must be positive")
    pairs = args.pairs if args.pairs is not None else args.samples
    if pairs <= 0:
        raise ValueError("--pairs must be positive")
    net = _load_net(args.net)
    domain = _load_domain_arg(args.domain)
    p = _parse_p(args.p)
    est = sampled_lower_bound(net, domain, p, args.samples, args.seed)
    quot = pairwise_quotient_estimate(net, domain, p, pairs, args.seed)
    print(f"sampled_lower_bound={est.value:g} (valid_samples={est.n_valid})")
    print(f"pairwise_quotient={quot:g}")
    print("note: heuristic lower estimates only; not certified bounds")
    if args.out:
        doc = {
            "config": _resolved_config(args),
            "sampled_lower_bound": est.value,
            "valid_samples": est.n_valid,
            "pairwise_quotient": quot,
            "best_x": None if est.best_x is None else [float(v) for v in est.best_x],
            "best_pattern": None
            if est.best_pattern is None
            else [list(layer) for layer in est.best_pattern.bits],
            "version": __version__,
        }
        _write_json(args.out, doc)
    return 0


_COMMANDS = {
    "bounds": _cmd_bounds,
    "curve": _cmd_curve,
    "emit": _cmd_emit,
    "check": _cmd_check,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage; 2 means an empty domain here
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except DomainEmptyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LipboundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
