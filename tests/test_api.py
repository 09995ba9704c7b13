"""The public names and the module attributes the benchmark tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import lipbound

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_all_names_resolve_once():
    assert len(lipbound.__all__) == len(set(lipbound.__all__))
    missing = [name for name in lipbound.__all__ if not hasattr(lipbound, name)]
    assert missing == []


def test_traced_attributes_exist():
    # tracing.py imports only the standard library, so it loads by path
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.TARGETS
        if not hasattr(importlib.import_module(f"lipbound.{module}"), attr)
    ]
    assert missing == []
