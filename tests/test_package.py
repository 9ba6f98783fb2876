"""Package guards: numpy is the only third-party import, no function body
imports, every name in psdrank.__all__ resolves, every public function
that is not exported has a reference in the package, every module-level
private function is used in its module, no module re-stacks a factor list,
and the README documents exactly the environment variables the CLI reads."""
import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import psdrank

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


def _module_trees():
    files = sorted(SRC.glob("*.py"))
    assert files
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in files]


# public functions no package code reaches that are kept all the same
UNREFERENCED_KEPT = {
    # rescales derangement factorizations in the acceptance tests
    ("factors", "scale_rows"),
}


def test_every_public_function_is_used_in_the_package():
    # a reference counts where it names the module's own function: a bare
    # name inside the module or imported from it, or module.name elsewhere;
    # np.kron and the like never count, nor do the re-exports in __init__
    trees = {name[:-3]: tree for name, tree in _module_trees() if name != "__init__.py"}
    public = set()
    for module in trees:
        mod = importlib.import_module(f"psdrank.{module}")
        public |= {(module, name) for name, fn in inspect.getmembers(mod, inspect.isfunction)
                   if fn.__module__ == mod.__name__ and not name.startswith("_")}
    used = set()
    for module, tree in trees.items():
        imported = {alias.asname or alias.name: (node.module, alias.name)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level and node.module
                    for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in trees:
                used.add((node.value.id, node.attr))
            elif isinstance(node, ast.Name):
                used.add(imported.get(node.id, (module, node.id)))
    exported = {(module, name) for module, name in public if name in psdrank.__all__}
    assert sorted(public - used - exported - UNREFERENCED_KEPT) == []
    # every kept name still exists and still has no reference
    assert UNREFERENCED_KEPT <= public - used


def test_readme_lists_the_environment_variables_the_cli_reads():
    documented = set(ENV_VAR.findall((ROOT / "README.md").read_text()))
    read = set(ENV_VAR.findall((SRC / "cli.py").read_text()))
    assert read
    assert documented == read


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
