"""Every name a module of the package imports is used in that module, so a
deletion leaves no stale import behind. Names listed in __all__ count as
used. Nothing in the package imports scipy, and a depth search loads none of
it."""

import ast
import os
import subprocess
import sys
import textwrap
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


def test_package_does_not_import_scipy():
    # scipy is a test dependency only (tests/oracles.py holds its Nelder-Mead)
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names if n.partition(".")[0] == "scipy"]
    assert offenders == []


def test_pmin_loads_no_scipy(tmp_path):
    # a whole depth search in a fresh interpreter, then the modules it loaded
    script = textwrap.dedent(
        f"""
        import sys
        from symqaoa.cli import main
        path = {str(tmp_path / "c5.edges")!r}
        assert main(["gen-graphs", "--family", "cycle", "--n", "5", "--out", path]) == 0
        assert main(["--p-start", "1", "--p-cap", "3", "--restarts", "2", "pmin", path]) == 0
        print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
        """
    )
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
