"""The package's modules form layers: each imports only modules below it,
and the runtime needs numpy alone.

Every import is read from the source with ast, including imports inside
functions, so a function-local import cannot hide an upward dependency.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "framelift"

# Bottom to top; a module may import only modules listed before it.
LAYERS = ("kernels", "weights", "matalg", "frames", "multipliers", "coorbit", "gabor", "fock", "cli")


def _package_imports(path: Path) -> set:
    """Names of the framelift modules the source file imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "framelift" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.split(".")[0] == "framelift":
                parts = node.module.split(".")[1:]
            elif node.level == 1:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            if parts:
                found.add(parts[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
    return found


def _modules() -> list:
    return sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_every_module_has_a_layer():
    assert set(_modules()) == set(LAYERS)


@pytest.mark.parametrize("name", _modules())
def test_imports_only_lower_layers(name):
    below = set(LAYERS[: LAYERS.index(name)])
    upward = _package_imports(PACKAGE / f"{name}.py") - below
    assert not upward, f"{name} imports {sorted(upward)}, which are not below it in {LAYERS}"


def test_reader_sees_function_local_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from . import matalg\n"
        "from .frames import Frame\n"
        "import framelift.weights\n"
        "def f():\n"
        "    from .coorbit import map_constants\n"
    )
    assert _package_imports(src) == {"matalg", "frames", "weights", "coorbit"}


def _third_party_roots(path: Path) -> set:
    """Top-level names of the absolute imports in a source file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("name", _modules() + ["__init__"])
def test_no_module_imports_scipy(name):
    assert "scipy" not in _third_party_roots(PACKAGE / f"{name}.py")


def test_cli_import_loads_no_scipy():
    # A fresh interpreter, so modules this test process already loaded do not count.
    code = "import sys, framelift.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"



def _pipeline_calls(node) -> list:
    return [
        call
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) == "lifting_theorem_pipeline"
    ]


def test_one_call_site_runs_the_pipeline():
    # Every lift goes through coorbit.sweep; no second loop calls the pipeline.
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE.glob("*.py")}
    sites = {name: len(_pipeline_calls(tree)) for name, tree in trees.items()}
    assert {name: count for name, count in sites.items() if count} == {"coorbit": 1}
    [sweep] = [node for node in trees["coorbit"].body if getattr(node, "name", None) == "sweep"]
    assert len(_pipeline_calls(sweep)) == 1
