"""The benchmark's tracer wraps noppa functions at the bindings listed in
``benchmark/spans.py``; a binding that no longer resolves silently drops its
spans from every benchmark run, so each one is checked here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves_to_a_callable():
    bindings = load_spans().BINDINGS
    assert bindings
    missing = []
    for module_name, attr, _, _ in bindings:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
