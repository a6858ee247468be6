"""The traced benchmark wraps package functions by name; a refactor that
renames or moves one must fail here rather than break the traced run."""

import importlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    pkg = SimpleNamespace(
        **{m: importlib.import_module(f"symqaoa.{m}") for m in workloads.MODULES}
    )
    return tracing, pkg


def test_patch_points_name_existing_attributes(monkeypatch):
    tracing, pkg = load_tracing(monkeypatch)
    points = tracing.patch_points(pkg)
    assert points
    for owner, attr, span, _ in points:
        assert attr in owner.__dict__, (span, owner, attr)


def test_tracer_install_round_trip(monkeypatch):
    # install wraps every patch point and swaps schedules.optimize for a proxy;
    # uninstall must put back the original object of each, and touch nothing else
    tracing, pkg = load_tracing(monkeypatch)
    points = tracing.patch_points(pkg)
    owners = {id(o): o for o in list(vars(pkg).values()) + [o for o, *_ in points]}
    before = {key: dict(vars(o)) for key, o in owners.items()}
    tracer = tracing.Tracer()
    tracer.install(pkg)
    try:
        patched = {
            (key, attr)
            for key, attrs in before.items()
            for attr, value in attrs.items()
            if vars(owners[key])[attr] is not value
        }
    finally:
        tracer.uninstall()
    wanted = {(id(o), attr) for o, attr, *_ in points} | {(id(pkg.schedules), "optimize")}
    assert patched == wanted
    assert len(wanted) == len(points) + 1
    for key, attrs in before.items():
        now = vars(owners[key])
        assert now.keys() == attrs.keys()
        assert all(now[attr] is value for attr, value in attrs.items())


def test_workloads_build_and_label(monkeypatch, tmp_path):
    # the benchmark's calls into the package (DatasetConfig, run_generation,
    # load_dataset, ...) run only when it builds and runs its operations
    _, pkg = load_tracing(monkeypatch)
    workloads = importlib.import_module("workloads")
    ctx = workloads.Context(PERFBENCH.parent, workloads.CACHE_SEED, tmp_path)
    ops = {name: build(pkg, ctx) for name, build in workloads.WORKLOADS.items()}
    assert all(ops.values()), ops
    op = next(op for op in ops["label-sym"] if op.name == "complete-n3")
    op.prepare()
    assert op.check(op.run()) == []


def test_symmetry_operations_pass_their_checks_traced(monkeypatch, tmp_path):
    # every symmetry operation, traced, on the cached graphs (seed 7) and on
    # relabelled ones (seed 8); the quotient spans' extras are the Burnside
    # elements walked, which do not depend on the labels
    tracing, pkg = load_tracing(monkeypatch)
    workloads = importlib.import_module("workloads")
    tracer = tracing.Tracer()
    tracer.install(pkg)
    try:
        for seed in (workloads.CACHE_SEED, 8):
            ops = workloads.symmetry(pkg, workloads.Context(PERFBENCH.parent, seed, tmp_path))
            assert len(ops) == 12
            tracer.spans.clear()
            tracer.enabled = True
            try:
                for op in ops:
                    op.prepare()
                    assert op.check(op.run()) == [], (seed, op.name)
            finally:
                tracer.enabled = False
            quotient = [s for s in tracer.spans if s[0] == "reduced.quotient_dimension"]
            assert len(quotient) == 8
            assert sum(s[4] for s in quotient) == 1_210_044, seed
    finally:
        tracer.uninstall()


def test_label_sym_round_evaluates_the_same_rows(monkeypatch, tmp_path):
    # the lockstep driver evaluates the points each restart visits alone, so a
    # label-sym round at dataset seed 7 sends 13,363 schedules through
    # ReducedEngine.run, the count of ratio_of calls when the restarts ran one
    # by one; the records stay the cached ones
    _, pkg = load_tracing(monkeypatch)
    workloads = importlib.import_module("workloads")
    ctx = workloads.Context(PERFBENCH.parent, workloads.CACHE_SEED, tmp_path)
    ops = workloads.label_sym(pkg, ctx)
    assert len(ops) == 12
    engine = pkg.reduced.ReducedEngine
    run = engine.run
    rows = []

    def counted(self, betas, gammas):
        rows.append(len(betas) if np.ndim(betas) == 2 else 1)
        return run(self, betas, gammas)

    total = 0
    for op in ops:
        op.prepare()
        monkeypatch.setattr(engine, "run", counted)
        written = op.run()
        monkeypatch.setattr(engine, "run", run)
        total += sum(rows)
        rows.clear()
        assert op.check(written) == [], op.name
    assert total == 13_363
    assert ctx.quality["exact_lines"] == 12
