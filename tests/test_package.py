"""Package guards: numpy is the only third-party import, no function body
imports, every name in psdrank.__all__ resolves, every public
psdrank.linalg function has a caller in the package, every module-level
private function is used in its module, no module re-stacks a factor list,
and the README documents exactly the environment variables the CLI reads."""
import ast
import inspect
import re
import sys
from pathlib import Path

import psdrank
from psdrank import linalg

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "psdrank"
ENV_VAR = re.compile(r"PSDRANK_[A-Z_]+")


def test_imports_are_relative_numpy_or_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno} {name}")
    assert not foreign


def test_exports_resolve():
    assert [name for name in psdrank.__all__ if not hasattr(psdrank, name)] == []


def test_every_public_linalg_function_is_called_in_the_package():
    public = {name for name, fn in inspect.getmembers(linalg, inspect.isfunction)
              if fn.__module__ == linalg.__name__ and not name.startswith("_")}
    called = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        # bare names count only where they are linalg's: inside linalg.py
        # or imported from it; np.kron and the like never count
        bare = public if path.name == "linalg.py" else {
            alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module == "linalg"
            for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) \
                    and fn.value.id == "linalg":
                called.add(fn.attr)
            elif isinstance(fn, ast.Name) and fn.id in bare:
                called.add(fn.id)
    assert sorted(public - called) == []


def test_readme_lists_the_environment_variables_the_cli_reads():
    documented = set(ENV_VAR.findall((ROOT / "README.md").read_text()))
    read = set(ENV_VAR.findall((SRC / "cli.py").read_text()))
    assert read
    assert documented == read


def _module_trees():
    files = sorted(SRC.glob("*.py"))
    assert files
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in files]


def test_no_import_inside_a_function():
    inner = [f"{name}:{node.lineno}"
             for name, tree in _module_trees()
             for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == []


FACTOR_LISTS = {"row_factors", "col_factors", "elements", "factors"}
RESTACKERS = {"stack", "array", "list", "tuple"}


def test_factor_lists_are_never_restacked():
    # factor lists, POVM elements and Gram factors are (n, k, k) arrays
    # already; converting them again is a second format
    restacked = []
    for name, tree in _module_trees():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            fn = call.func
            if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) \
                    and fn.value.id in ("np", "numpy"):
                callee = fn.attr
            elif isinstance(fn, ast.Name) and fn.id in ("list", "tuple"):
                callee = fn.id
            else:
                continue
            if callee in RESTACKERS and any(
                    isinstance(node, ast.Attribute) and node.attr in FACTOR_LISTS
                    for arg in call.args for node in ast.walk(arg)):
                restacked.append(f"{name}:{call.lineno}")
    assert restacked == []


def test_every_private_module_function_is_used_in_its_module():
    unused = []
    for name, tree in _module_trees():
        private = {node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                   and not node.name.startswith("__")}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name} {fn}" for fn in sorted(private - used)]
    assert unused == []
