"""Outside-in tracing of lipbound: wrap each module's public functions.

The package imports with `from .x import f`, so a function is wrapped on
every module attribute its callers look up (TARGETS). Each call records a
span (name, start, end, parent span, op id) in memory; self time is the
span's duration minus the time its child spans cover. Functions private
to a module (`_run_simplex`, `_prefix_matrix`, ...) are not visible here
and count toward the self time of the public function that calls them.
"""

from __future__ import annotations

import contextlib
import json
import warnings
from collections import Counter
from time import perf_counter

# (module, attribute, span name). The span name's prefix is the layer.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "compute_report", "bounds.compute_report"),
    ("bounds", "compute_report", "bounds.compute_report"),
    ("bounds", "brute_force_bounds", "bounds.brute_force_bounds"),
    ("bounds", "branch_and_bound", "bounds.branch_and_bound"),
    ("cli", "report_to_dict", "bounds.report_to_dict"),
    ("bounds", "max_slack", "regions.max_slack"),
    ("regions", "max_slack", "regions.max_slack"),
    ("bounds", "witness_at_level", "regions.witness_at_level"),
    ("miqcqp", "witness_at_level", "regions.witness_at_level"),
    ("bounds", "domain_nonempty", "regions.domain_nonempty"),
    ("regions", "lp_solve", "simplex.lp_solve"),
    ("sampling", "lp_solve", "simplex.lp_solve"),
    ("bounds", "operator_norm", "norms.operator_norm"),
    ("norms", "operator_norm", "norms.operator_norm"),
    ("miqcqp", "operator_norm", "norms.operator_norm"),
    ("sampling", "pattern_norm", "norms.pattern_norm"),
    ("miqcqp", "norm_witness", "norms.norm_witness"),
    ("network", "forward", "network.forward"),
    ("regions", "forward", "network.forward"),
    ("sampling", "forward", "network.forward"),
    ("network", "pattern_of", "network.pattern_of"),
    ("sampling", "pattern_of", "network.pattern_of"),
    ("norms", "jacobian", "network.jacobian"),
    ("miqcqp", "jacobian", "network.jacobian"),
    ("cli", "load_network", "network.load_network"),
    ("cli", "load_domain", "network.load_domain"),
    ("cli", "sampled_lower_bound", "sampling.sampled_lower_bound"),
    ("cli", "pairwise_quotient_estimate", "sampling.pairwise_quotient_estimate"),
    ("cli", "build_model", "miqcqp.build_model"),
    ("miqcqp", "compute_bigM", "miqcqp.compute_bigM"),
    ("cli", "emit_json", "miqcqp.emit_json"),
    ("cli", "emit_lp_text", "miqcqp.emit_lp_text"),
    ("cli", "parse_json", "miqcqp.parse_json"),
    ("cli", "parse_assignment_json", "miqcqp.parse_assignment_json"),
    ("cli", "check_assignment", "miqcqp.check_assignment"),
    ("miqcqp", "assignment_for_pattern", "miqcqp.assignment_for_pattern"),
    ("miqcqp", "emit_assignment_json", "miqcqp.emit_assignment_json"),
)

LAYERS = ("cli", "bounds", "regions", "simplex", "norms", "network", "sampling", "miqcqp")
OP_SPAN = "bench.op"

# Spans that must fire during a traced run of each workload. A refactor
# that renames or inlines one of them fails the run instead of silently
# reporting zero for its layer.
EXPECTED = {
    "oracle": (
        "bounds.compute_report", "bounds.brute_force_bounds", "regions.domain_nonempty",
        "regions.max_slack", "simplex.lp_solve", "norms.operator_norm",
    ),
    "bnb": (
        "cli.main", "network.load_network", "network.load_domain", "bounds.compute_report",
        "bounds.branch_and_bound", "bounds.report_to_dict", "regions.domain_nonempty",
        "regions.max_slack", "simplex.lp_solve", "norms.operator_norm",
    ),
    "large-net": (
        "cli.main", "network.load_network", "network.load_domain", "network.pattern_of",
        "network.forward", "network.jacobian", "miqcqp.build_model", "miqcqp.compute_bigM",
        "miqcqp.emit_json", "miqcqp.emit_lp_text", "miqcqp.parse_json",
        "miqcqp.parse_assignment_json", "miqcqp.check_assignment",
        "miqcqp.assignment_for_pattern", "miqcqp.emit_assignment_json",
        "regions.witness_at_level", "regions.max_slack", "simplex.lp_solve",
        "norms.operator_norm", "norms.pattern_norm", "norms.norm_witness",
        "sampling.sampled_lower_bound", "sampling.pairwise_quotient_estimate",
    ),
}


class Tracer:
    """Span recorder; `install` wraps TARGETS and `restore` puts the originals back."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent span index, op id)
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.errors: Counter = Counter()  # (span name, exception type) -> count
        self.extra: Counter = Counter()  # counters taken from arguments and results
        self.op_id = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self._saved: list = []
        self._hooks = {
            "bounds.compute_report": self._on_report,
            "regions.max_slack": self._on_slack,
            "simplex.lp_solve": self._on_lp,
            "norms.operator_norm": self._on_norm,
            "sampling.sampled_lower_bound": self._on_sample,
            "miqcqp.emit_json": self._on_model_text,
            "miqcqp.emit_lp_text": self._on_model_text,
        }

    def wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        spans, stack, child = self.spans, self._stack, self._child

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                covered = child.pop()
                d = t1 - t0
                if child:
                    child[-1] += d
                spans[idx] = (name, t0, t1, parent, self.op_id)
                self.calls[name] += 1
                self.total[name] += d
                self.self_time[name] += d - covered
            if hook is not None:
                hook(args, kwargs, result, d)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, lb) -> None:
        """Wrap every target; a missing attribute is an error, never a skip."""
        for module_name, attr, name in TARGETS:
            module = getattr(lb, module_name)
            if not hasattr(module, attr):
                self.restore()
                raise RuntimeError(f"trace target lipbound.{module_name}.{attr} is missing")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self, lb):
        """Wrappers installed, every PowerIterationWarning counted; originals restored on exit."""
        self.install(lb)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield self
        finally:
            self.restore()
        self.extra["power_cap_warnings"] += sum(
            1 for w in caught if w.category.__name__ == "PowerIterationWarning"
        )

    def missing(self, workload: str) -> list[str]:
        return [name for name in EXPECTED[workload] if self.calls[name] == 0]

    # --- counters from arguments and results -------------------------------

    def _on_report(self, args, kwargs, report, d):
        self.extra["lp_calls"] += report.stats.lp_calls
        self.extra["nodes"] += report.stats.nodes_explored
        self.extra["patterns_feasible"] += report.stats.patterns_feasible

    def _on_slack(self, args, kwargs, res, d):
        layers = kwargs.get("layers")
        self.extra["full" if layers is None else f"prefix_l{layers}"] += 1
        if res.feasible_strict:
            self.extra["open"] += 1
        if res.status == "unbounded":
            self.extra["unbounded"] += 1

    def _on_lp(self, args, kwargs, sol, d):
        lp = args[0]
        self.extra["lp_rows"] += len(lp.rows)
        self.extra["lp_vars"] += lp.n

    def _on_norm(self, args, kwargs, value, d):
        p = args[1] if len(args) > 1 else kwargs["p"]
        if p == 2:
            self.extra["p2_calls"] += 1
            self.extra["p2_s"] += d

    def _on_sample(self, args, kwargs, est, d):
        self.extra["samples"] += args[3]
        self.extra["valid_samples"] += est.n_valid

    def _on_model_text(self, args, kwargs, text, d):
        self.extra["model_bytes"] += len(text.encode())

    # --- output ---------------------------------------------------------------

    def layer_self(self) -> dict:
        out = Counter()
        for name, s in self.self_time.items():
            out[name.split(".", 1)[0]] += s
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON: a name table and one row per span."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [[ids[n], round(t0, 7), round(t1, 7), parent, op] for n, t0, t1, parent, op in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                    "names": names, "spans": rows}, separators=(",", ":")))


def per_layer_metrics(tr: Tracer, ops: int, op_s: float, report_bytes: int, overhead: float) -> dict:
    """Every per-layer metric, normalised per op (counts and seconds) or as a ratio."""
    n = max(ops, 1)
    e = tr.extra
    c, t, st = tr.calls, tr.total, tr.self_time
    layer_self = tr.layer_self()

    def frac(a, b):
        return a / b if b else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("bounds.lp_calls", e["lp_calls"] / n, "calls/op")
    put("bounds.nodes", e["nodes"] / n, "nodes/op")
    put("bounds.patterns_feasible", e["patterns_feasible"] / n, "patterns/op")
    put("bounds.useful_frac", frac(e["patterns_feasible"], e["lp_calls"]), "frac")
    put("regions.max_slack.calls", c["regions.max_slack"] / n, "calls/op")
    put("regions.max_slack.self_s", st["regions.max_slack"] / n, "s/op")
    put("regions.prefix_calls.l1", e["prefix_l1"] / n, "calls/op")
    put("regions.prefix_calls.l2", e["prefix_l2"] / n, "calls/op")
    put("regions.full_calls", e["full"] / n, "calls/op")
    put("regions.open_frac", frac(e["open"], c["regions.max_slack"]), "frac")
    put("regions.unbounded", e["unbounded"] / n, "calls/op")
    lp_calls = c["simplex.lp_solve"]
    put("simplex.lp_solve.calls", lp_calls / n, "calls/op")
    put("simplex.lp_solve.s", t["simplex.lp_solve"] / n, "s/op")
    put("simplex.lp_solve.us_per_call", 1e6 * frac(t["simplex.lp_solve"], lp_calls), "us")
    put("simplex.rows_mean", frac(e["lp_rows"], lp_calls), "rows")
    put("simplex.vars_mean", frac(e["lp_vars"], lp_calls), "vars")
    put("simplex.breakdowns", tr.errors[("simplex.lp_solve", "SimplexBreakdownError")] / n, "calls/op")
    put("norms.operator_norm.calls", c["norms.operator_norm"] / n, "calls/op")
    put("norms.operator_norm.s", t["norms.operator_norm"] / n, "s/op")
    put("norms.p2.calls", e["p2_calls"] / n, "calls/op")
    put("norms.p2.s", e["p2_s"] / n, "s/op")
    put("norms.power_cap_warnings", e["power_cap_warnings"] / n, "warnings/op")
    put("network.forward.calls", c["network.forward"] / n, "calls/op")
    put("network.forward.s", t["network.forward"] / n, "s/op")
    put("network.pattern_of.calls", c["network.pattern_of"] / n, "calls/op")
    put("network.load.s", (t["network.load_network"] + t["network.load_domain"]) / n, "s/op")
    put("sampling.sampled_lower_bound.s", t["sampling.sampled_lower_bound"] / n, "s/op")
    put("sampling.pairwise_quotient_estimate.s", t["sampling.pairwise_quotient_estimate"] / n, "s/op")
    put("sampling.valid_frac", frac(e["valid_samples"], e["samples"]), "frac")
    for fn in ("build_model", "emit_json", "emit_lp_text", "parse_json",
               "assignment_for_pattern", "check_assignment"):
        put(f"miqcqp.{fn}.s", t[f"miqcqp.{fn}"] / n, "s/op")
    put("miqcqp.model_bytes", e["model_bytes"] / n, "B/op")
    put("cli.report_bytes", report_bytes / n, "B/op")
    for layer in LAYERS:
        put(f"{layer}.self_s", layer_self[layer] / n, "s/op")
    put("trace.op_s", op_s / n, "s/op")
    put("trace.attributed_frac", frac(sum(layer_self[layer] for layer in LAYERS), op_s), "frac")
    put("trace.overhead_frac", overhead, "frac")
    return m
