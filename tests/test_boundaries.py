"""Module boundaries inside the package, checked on the source."""

import ast
from importlib import import_module
from pathlib import Path

import voltlab

SRC = Path(voltlab.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


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


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every name, attribute and imported name `tree` mentions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_every_public_module_name_is_used_or_exported():
    # A public function or class that no code in the package reads, and
    # that `voltlab._EXPORTS` does not export, is dead weight.  So is a
    # private one that no code in the package reads, whatever tests do.
    # `_EXPORTS` is the one list of public names: no submodule keeps its own.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    referenced = set().union(*map(_referenced_names, trees.values()))
    exported = {name for names in voltlab._EXPORTS.values() for name in names}
    kept = referenced | exported
    unused = []
    for stem, tree in sorted(trees.items()):
        if stem != "__init__":
            assert not hasattr(import_module(f"voltlab.{stem}"), "__all__"), stem
        unused += [
            f"{stem}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("__")
            and node.name not in (referenced if node.name.startswith("_") else kept)
        ]
    assert unused == []


def _unused_imports(path: Path) -> list[tuple[str, bool]]:
    """(name, marked) for each name `path` imports, at any nesting level,
    and never reads; `marked` when its line carries `# noqa: F401`, the
    mark of a name bound only so that another module can reach it."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                found.append((f"{path.stem}.{name}", "# noqa: F401" in lines[alias.lineno - 1]))
    return found


def test_every_imported_name_is_read():
    # An import a submodule or a test file never reads is a leftover.  The
    # only ones kept are the `draw_flip_pattern` bindings `bench/spans.py`
    # patches, each marked `# noqa: F401`.
    paths = [path for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    paths += sorted(TESTS.glob("*.py"))
    assert len(paths) > 25
    found = [hit for path in paths for hit in _unused_imports(path)]
    assert [name for name, marked in found if not marked] == []
    assert sorted(name for name, marked in found if marked) == [
        "orchestrator.draw_flip_pattern", "victims.draw_flip_pattern",
    ]
