"""The public names and the module attributes the benchmark tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import lipbound
from lipbound import Box

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # tracing.py imports only the standard library, so it loads by path
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_all_names_resolve_once():
    assert len(lipbound.__all__) == len(set(lipbound.__all__))
    missing = [name for name in lipbound.__all__ if not hasattr(lipbound, name)]
    assert missing == []


def test_traced_attributes_exist():
    tracing = load_tracing()
    assert tracing.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if not hasattr(importlib.import_module(f"lipbound.{module}"), attr)
    ]
    assert missing == []


def test_tracer_hooks_read_live_attributes(ex2):
    # the hooks read LinearProgram.rows, LinearProgram.n and the SlackResult
    # fields; both modes under the tracer must reach them and count something
    tracer = load_tracing().Tracer()
    with tracer.installed(lipbound):
        for mode in ("oracle", "bnb"):
            lipbound.bounds.compute_report(ex2, Box([-3.0], [3.0]), 2, [0.4], mode=mode)
    assert tracer.missing("oracle") == []
    assert tracer.extra["lp_rows"] > 0 and tracer.extra["full"] > 0
    assert not tracer.errors
