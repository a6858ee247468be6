"""The repository tools' per-item checks, on small inputs."""

import importlib.util
import json
import pathlib

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
