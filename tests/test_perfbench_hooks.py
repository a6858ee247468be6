"""The traced benchmark wraps package functions by name; a refactor that
renames or moves one must fail here rather than break the traced run."""

import importlib
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_patch_points_name_existing_attributes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    pkg = SimpleNamespace(
        **{m: importlib.import_module(f"symqaoa.{m}") for m in workloads.MODULES}
    )
    points = tracing.patch_points(pkg)
    assert points
    for owner, attr, span, _ in points:
        assert attr in owner.__dict__, (span, owner, attr)
