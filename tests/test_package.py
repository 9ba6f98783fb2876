"""Package guards: numpy is the only third-party import, every name in
psdrank.__all__ resolves, and the README documents exactly the environment
variables the CLI reads."""
import ast
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


def test_readme_lists_the_environment_variables_the_cli_reads():
    documented = set(ENV_VAR.findall((ROOT / "README.md").read_text()))
    read = set(ENV_VAR.findall((SRC / "cli.py").read_text()))
    assert read
    assert documented == read
