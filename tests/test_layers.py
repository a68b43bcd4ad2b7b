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
from tests.test_perfbench_targets import TARGETS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "framelift"

# Bottom to top; a module may import only modules listed before it.
LAYERS = ("kernels", "weights", "verified", "matalg", "frames", "multipliers", "coorbit", "gabor", "fock", "cli")


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


def _writing_opens(tree) -> list:
    """Line numbers of the open calls under the ast node ``tree`` whose mode
    may write: one with w, a, x or +, or one not given as a string literal.
    The mode is the second argument of the builtin open and the first of a
    method ``.open`` (Path.open); the default mode reads."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        builtin = isinstance(node.func, ast.Name) and node.func.id == "open"
        if not (builtin or (isinstance(node.func, ast.Attribute) and node.func.attr == "open")):
            continue
        at = 1 if builtin else 0
        mode = node.args[at] if len(node.args) > at else next((k.value for k in node.keywords if k.arg == "mode"), None)
        if mode is None:
            continue
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wax+"):
            lines.append(node.lineno)
    return sorted(lines)


def _tree(name: str):
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("name", [m for m in _modules() + ["__init__"] if m != "cli"])
def test_only_cli_opens_files_to_write(name):
    assert _writing_opens(_tree(name)) == []


def test_cli_writes_only_through_write_atomic():
    tree = _tree("cli")
    [write_atomic] = [node for node in tree.body if getattr(node, "name", None) == "write_atomic"]
    assert _writing_opens(tree) == _writing_opens(write_atomic) != []


def test_reader_sees_every_writing_open():
    src = (
        "open(p)\n"
        "open(p, 'r')\n"
        "open(p, mode='rb')\n"
        "open(p, 'w')\n"
        "open(p, mode='a')\n"
        "p.open('x')\n"
        "p.open()\n"
        "open(p, 'r+')\n"
        "open(p, m)\n"
        "def f():\n"
        "    with open(p, 'wb', newline='') as fh:\n"
        "        pass\n"
    )
    assert _writing_opens(ast.parse(src)) == [4, 5, 6, 8, 9, 11]


# The rounding model and the certificates built on it have one home:
# framelift.verified. No other module defines these names (as a def, a class
# or an assignment, at any depth) or reads a float format by np.finfo.
ROUNDING_MODEL = (
    "UNIT_ROUNDOFF",
    "gamma",
    "gamma_c",
    "certified_bound",
    "abs_chain",
    "left_product_error",
    "dense_certificate",
    "woodbury_certificate",
)


def _rounding_model_sites(tree) -> list:
    """The names of ROUNDING_MODEL that the ast ``tree`` defines, and
    "finfo" for each call of a ``finfo``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.Call):
            name = "finfo" if (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "finfo" else None
        else:
            continue
        if name in ROUNDING_MODEL or name == "finfo":
            found.append(name)
    return found


@pytest.mark.parametrize("name", [m for m in _modules() + ["__init__"] if m != "verified"])
def test_only_verified_holds_the_rounding_model(name):
    assert _rounding_model_sites(_tree(name)) == []


def test_verified_holds_the_whole_rounding_model():
    assert set(_rounding_model_sites(_tree("verified"))) == {*ROUNDING_MODEL, "finfo"}


def test_reader_sees_every_rounding_model_site():
    src = (
        "import numpy as np\n"
        "from .verified import gamma, UNIT_ROUNDOFF\n"
        "EPS = np.finfo(float).eps\n"
        "def f():\n"
        "    def gamma_c(k):\n"
        "        return k\n"
        "    abs_chain = lambda v: v\n"
        "    return finfo(float), gamma(1) * UNIT_ROUNDOFF\n"
        "class C:\n"
        "    certified_bound = 1\n"
    )
    assert sorted(_rounding_model_sites(ast.parse(src))) == ["abs_chain", "certified_bound", "finfo", "finfo", "gamma_c"]


# Every name in the package feeds a command: a top-level def, a class or a
# method stays only if `framelift.cli.main`, or a layer that
# perfbench/spans.py traces, reaches it through name references.


def _module_table(package: Path) -> dict:
    """Per module: its defs and classes by name, the package names it binds by
    import (local name -> (module, attribute or None for a module)), the local
    names of its absolute imports, and its other top-level statements."""
    table = {}
    for path in package.glob("*.py"):
        defs, imports, external, rest = {}, {}, set(), []
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    imports[local] = (node.module, alias.name) if node.module else (alias.name, None)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                external.update((a.asname or a.name).split(".")[0] for a in node.names)
            else:
                rest.append(node)
        table[path.stem] = {"defs": defs, "imports": imports, "external": external, "rest": rest}
    return table


def _resolve_name(table: dict, module: str, name: str):
    """(module, name) of the def that ``name`` means in ``module``, or None."""
    while module in table:
        entry = table[module]
        if name in entry["defs"]:
            return module, name
        if entry["imports"].get(name, (None, None))[1] is None:
            return None
        module, name = entry["imports"][name]
    return None


def _methods(cls: ast.ClassDef) -> dict:
    return {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}


def reached_names(package: Path, roots) -> set:
    """Every (module, name) the roots reach; a method is (module, "Class.meth").

    A def's body reaches each package def it names, directly or as
    ``module.attr`` through a ``from . import module``. A reached class
    reaches its dunder methods, and any other method once some reached code
    reads an attribute of that name (on anything but an imported module).
    Top-level statements other than defs and imports run on import, so they
    are walked too. Names are not told apart by scope, so a local variable
    that shadows a def keeps it: the walk may keep too much, never too little.
    """
    table = _module_table(package)
    reached, attrs, todo = set(), set(), []

    def reach(key):
        if key is not None and key not in reached:
            reached.add(key)
            todo.append(key)

    def scan(module: str, node):
        entry = table[module]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                reach(_resolve_name(table, module, sub.id))
            elif isinstance(sub, ast.Attribute):
                base = getattr(sub.value, "id", None)
                target = entry["imports"].get(base)
                if target is not None and target[1] is None:
                    reach(_resolve_name(table, target[0], sub.attr))
                elif base not in entry["external"]:
                    attrs.add(sub.attr)

    for module, entry in table.items():
        if module != "__init__":
            for node in entry["rest"]:
                scan(module, node)
    for key in roots:
        reach(key)
    while todo:
        while todo:
            module, name = todo.pop()
            owner, _, method = name.partition(".")
            node = table[module]["defs"][owner]
            if method:
                scan(module, _methods(node)[method])
                continue
            if isinstance(node, ast.ClassDef):
                for part in node.bases + node.keywords + node.decorator_list:
                    scan(module, part)
                for stmt in node.body:
                    if not isinstance(stmt, ast.FunctionDef):
                        scan(module, stmt)
                    elif stmt.name.startswith("__"):
                        reach((module, f"{owner}.{stmt.name}"))
            else:
                scan(module, node)
        for module, entry in table.items():
            for owner, node in entry["defs"].items():
                if (module, owner) in reached and isinstance(node, ast.ClassDef):
                    for method in _methods(node).keys() & attrs:
                        reach((module, f"{owner}.{method}"))
    return reached


def unreached_names(package: Path, roots) -> list:
    """Top-level defs, classes and methods of the package that no root reaches."""
    reached = reached_names(package, roots)
    out = []
    for module, entry in _module_table(package).items():
        for owner, node in entry["defs"].items():
            methods = _methods(node) if isinstance(node, ast.ClassDef) else {}
            names = [owner] + [f"{owner}.{m}" for m in methods]
            out.extend(f"{module}.{name}" for name in names if (module, name) not in reached)
    return sorted(out)


def _command_roots(package: Path) -> list:
    """cli.main and every target of perfbench/spans.py, as (module, name)."""
    table = _module_table(package)
    roots = [("cli", "main")]
    for modname, attr, _ in TARGETS:
        module = modname.split(".")[1]
        owner, _, method = attr.partition(".")
        roots.append(_resolve_name(table, module, owner))
        if method:
            roots.append((module, attr))
    return roots


def test_every_name_feeds_a_command():
    assert unreached_names(PACKAGE, _command_roots(PACKAGE)) == []


def test_all_lists_only_reached_names():
    table, reached = _module_table(PACKAGE), reached_names(PACKAGE, _command_roots(PACKAGE))
    [names] = [
        ast.literal_eval(node.value)
        for node in table["__init__"]["rest"]
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    ]
    imported = [name for name in names if name in table["__init__"]["imports"]]
    assert [name for name in imported if _resolve_name(table, "__init__", name) not in reached] == []


def test_walk_reports_a_dead_def_and_a_dead_method(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from . import util\n"
        "from .util import used\n"
        "def main():\n"
        "    return used() + util.also()\n"
        "def dead():\n"
        "    return 0\n"
    )
    (tmp_path / "util.py").write_text(
        "import numpy as np\n"
        "def used():\n"
        "    return np.sqrt(1.0)\n"
        "def also():\n"
        "    return Box().get()\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.x = 1\n"
        "    def get(self):\n"
        "        return self.x\n"
        "    def sqrt(self):\n"
        "        return 2\n"
    )
    assert unreached_names(tmp_path, [("cli", "main")]) == ["cli.dead", "util.Box.sqrt"]
