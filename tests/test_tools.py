"""The repository tools' per-item checks, on small inputs."""

import ast
import importlib.util
import json
import pathlib
import re

from acceptance_profile import DATASET_PATH

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_audit_cache_relabels_small_records_exactly():
    audit = load_tool("audit_cache")
    with open(DATASET_PATH, encoding="utf-8") as fh:
        lines = {json.loads(line)["id"]: line for line in fh}
    for iid in ("complete-n3", "cycle-n4"):
        assert audit.audit_line(lines[iid]) == (iid, True, 0.0)
    # a record whose stored label disagrees with the relabelling is reported
    tampered = json.loads(lines["cycle-n4"])
    tampered["ratio_achieved"] += 1e-3
    iid, same, diff = audit.audit_line(json.dumps(tampered, sort_keys=True, separators=(",", ":")))
    assert (iid, same) == ("cycle-n4", False) and abs(diff - 1e-3) < 1e-12


def test_readme_caps_table_matches_code():
    # every `module.NAME` row of the README's caps table states the constant's
    # value (commas separate thousands, "3 GiB" is 3 << 30), and every
    # module-level *_CAP constant of the package has a row
    root = TOOLS.parent
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| ([^|]+?) \|", (root / "README.md").read_text(),
                      re.MULTILINE)
    assert rows
    for module, name, text in rows:
        number, _, unit = text.partition(" ")
        value = int(number.replace(",", "")) << {"": 0, "GiB": 30}[unit]
        assert getattr(importlib.import_module(f"symqaoa.{module}"), name) == value, name
    caps = {
        (path.stem, target.id)
        for path in (root / "src" / "symqaoa").glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_CAP")
    }
    assert caps and caps <= {(module, name) for module, name, _ in rows}
