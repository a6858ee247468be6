"""Every name a module of the package imports is used in that module, so a
deletion leaves no stale import behind. Names listed in __all__ count as
used."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "symqaoa"


def imported_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_unused_imports():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = used_names(tree)
        unused += [f"{path.name}: {name}" for name in imported_names(tree) if name not in used]
    assert unused == []
