"""Every layer the benchmark's tracer wraps still exists under its name.

perfbench/spans.py lists its targets as (module, attribute, span name). A
target that no longer resolves is only reported as "not traced" when the
benchmark runs, and its metrics read 0; this test catches it here. The
file is parsed, not imported or changed.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets() -> tuple:
    for node in ast.parse(SPANS.read_text(), filename=str(SPANS)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS")


TARGETS = _targets()


def _resolve(modname: str, attr: str):
    module = importlib.import_module(modname)
    owner_name, _, member = attr.rpartition(".")
    if not owner_name:
        return getattr(module, member)
    return vars(getattr(module, owner_name))[member]  # a method or property, read as the tracer reads it


@pytest.mark.parametrize("modname, attr, span", TARGETS, ids=[f"{m}.{a}" for m, a, _ in TARGETS])
def test_target_resolves(modname, attr, span):
    target = _resolve(modname, attr)
    assert callable(target) or isinstance(target, property)


def test_map_constants_takes_p_third():
    # The tracer labels each map_constants span by p, read as args[2].
    params = list(inspect.signature(_resolve("framelift.coorbit", "map_constants")).parameters)
    assert params[2] == "p"
