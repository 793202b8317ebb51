"""Module boundaries inside the package, checked on the source."""

import ast
from pathlib import Path

import voltlab

SRC = Path(voltlab.__file__).resolve().parent


def _private_imports(path: Path) -> list[str]:
    """`from <voltlab module> import _name` statements in `path`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "voltlab"
        for alias in node.names:
            if internal and alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} {node.module} {alias.name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in _private_imports(path)] == []
