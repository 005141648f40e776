"""The benchmark's traced mode wraps and counts ``qnets`` functions by name;
each name it lists must still resolve, or a traced run would fail or count
nothing. ``perfbench/tracer.py`` is read as text, not imported."""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _table(name):
    """The literal list bound to ``name`` at the top of the tracer module."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} binds no {name}")


@pytest.mark.parametrize("table", ["SPANS", "COUNTED"])
def test_every_traced_name_resolves(table):
    entries = _table(table)
    assert entries
    for module, attr, _ in entries:
        assert callable(getattr(importlib.import_module(f"qnets.{module}"), attr, None)), \
            f"{table} names qnets.{module}.{attr}, which does not exist"
