"""Package guards: numpy is the only third-party import, and every name in
psdrank.__all__ resolves."""
import ast
import sys
from pathlib import Path

import psdrank

SRC = Path(__file__).resolve().parents[1] / "src" / "psdrank"


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
