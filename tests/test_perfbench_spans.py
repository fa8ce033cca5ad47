"""Every function the benchmark's tracer wraps (``perfbench/run.py``
``SPANS``) must exist in the program. ``SPANS`` is read with ``ast`` so
this test does not import the benchmark."""
import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _spans():
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS in {RUN_PY}")


def test_every_span_resolves_to_a_callable():
    spans = _spans()
    assert spans
    for module, attr, name in spans:
        obj = getattr(importlib.import_module(module), attr, None)
        assert callable(obj), f"{name}: {module}.{attr} is not a callable"
