"""In-memory spans around the public functions of each symqaoa layer.

The tracer replaces a function at the place its caller looks it up (a module
attribute such as ``symqaoa.dataset.feature_vector``, which ``dataset``
imported by name, or a method on a class) with a wrapper that records
``(name, start, end, parent, extra)``. Nothing under ``src/`` changes. Spans
stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time

from workloads import MODULES as LAYERS

MAXFEV = 500  # schedules.optimize_linear passes maxfev=500 to Nelder-Mead


def _depth(args, kwargs, result):
    return len(args[1])  # run(self, betas, gammas): one layer per beta


def _burnside(args, kwargs, result):
    return len(result.fixed_counts) if result.fixed_counts is not None else 0


def _nfev(args, kwargs, result):
    return int(result.nfev)


def patch_points(pkg):
    """(owner, attribute, span name, extra) for every function the tracer wraps.

    A function imported by name into another module is wrapped there as well,
    because that module's global is what its callers read.
    """
    ds, ml, sch, red, sim, feat, aut, gr = (
        pkg.dataset, pkg.mlmodel, pkg.schedules, pkg.reduced,
        pkg.simulator, pkg.features, pkg.autgroup, pkg.graphs,
    )
    return [
        (gr, "generate", "graphs.generate", None),
        (ds, "generate", "graphs.generate", None),
        (feat, "automorphism_generators", "autgroup.automorphism_generators", None),
        (red, "automorphism_generators", "autgroup.automorphism_generators", None),
        (aut, "automorphism_generators", "autgroup.automorphism_generators", None),
        (red, "bitstring_orbits", "autgroup.bitstring_orbits", None),
        (feat, "feature_vector", "features.feature_vector", None),
        (ds, "feature_vector", "features.feature_vector", None),
        (feat, "approx_features", "features.approx_features", None),
        (feat, "exact_features", "features.exact_features", None),
        (sch, "maxcut_diagonal", "simulator.maxcut_diagonal", None),
        (sim.Engine, "__init__", "simulator.Engine.init", None),
        (sim.Engine, "run", "simulator.Engine.run", _depth),
        (red.ReducedEngine, "__init__", "reduced.ReducedEngine.init", None),
        (red.ReducedEngine, "run", "reduced.ReducedEngine.run", _depth),
        (sch, "build_orbit_basis", "reduced.build_orbit_basis", None),
        (sch, "reduce_operators", "reduced.reduce_operators", None),
        (sch, "hamming_reduced_ops", "reduced.hamming_reduced_ops", None),
        (red, "symmetry_group", "reduced.symmetry_group", None),
        (red, "quotient_dimension", "reduced.quotient_dimension", _burnside),
        (ds, "find_pmin", "schedules.find_pmin", None),
        (sch, "optimize_linear", "schedules.optimize_linear", None),
        (sch.ScheduleEvaluator, "ratio_of", "schedules.ratio_of", None),
        (sch, "max_cut_brute", "schedules.max_cut_brute", None),
        (sch, "make_engine", "schedules.make_engine", None),
        (ds, "run_generation", "dataset.run_generation", None),
        (ds, "generate_instance", "dataset.generate_instance", None),
        (ds, "record_line", "dataset.record_line", None),
        (ds, "load_dataset", "dataset.load_dataset", None),
        (ml, "cross_validate", "mlmodel.cross_validate", None),
        (ml, "cross_validate_ordinal", "mlmodel.cross_validate_ordinal", None),
        (ds, "train_ordinal", "mlmodel.train_ordinal", None),
        (ml, "train_ordinal", "mlmodel.train_ordinal", None),
        (ds, "train_regressor", "mlmodel.train_regressor", None),
        (ml, "train_regressor", "mlmodel.train_regressor", None),
        (ml, "kernel_matrix", "mlmodel.kernel_matrix", None),
        (ml, "predict_regressor", "mlmodel.predict_regressor", None),
        (ml, "predict_ordinal", "mlmodel.predict_ordinal", None),
        (ml, "save_model", "mlmodel.save_model", None),
        (ml, "load_model", "mlmodel.load_model", None),
    ]


class _OptimizeProxy:
    """Stands in for the ``scipy.optimize`` module that ``schedules`` imported,
    so each Nelder-Mead restart becomes a span that keeps its ``nfev``."""

    def __init__(self, module, minimize):
        self._module = module
        self.minimize = minimize

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, extra=None):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, 0)
            if extra is not None:
                spans[idx] = (name, start, end, parent, extra(args, kwargs, result))
            return result

        return traced

    def install(self, pkg):
        for owner, attr, name, extra in patch_points(pkg):
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, extra))
        sch = pkg.schedules
        self._undo.append((sch, "optimize", sch.optimize))
        sch.optimize = _OptimizeProxy(
            sch.optimize, self.wrap("schedules.minimize", sch.optimize.minimize, _nfev)
        )

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, extra in self.spans:
                fh.write(json.dumps([name, start, end, parent, extra]) + "\n")


def _totals(spans):
    """Per span name: count, summed duration, summed extra; plus self time per
    layer (a span's duration minus the part its child spans cover)."""
    count: dict[str, int] = {}
    dur: dict[str, float] = {}
    extra: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, x in spans:
        d = end - start
        count[name] = count.get(name, 0) + 1
        dur[name] = dur.get(name, 0.0) + d
        extra[name] = extra.get(name, 0) + x
        if parent >= 0:
            child_time[parent] += d
    self_time = {layer: 0.0 for layer in LAYERS}
    top_level = 0.0
    for (name, start, end, parent, _), children in zip(spans, child_time):
        self_time[name.split(".", 1)[0]] += (end - start) - children
        if parent < 0:
            top_level += end - start
    return count, dur, extra, self_time, top_level


def _outermost(spans, names):
    """Time covered by spans named in ``names`` that have no ancestor of the same group."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def layer_metrics(spans, rounds: int, round_wall: float):
    """Per-layer values per traced round (totals divided by ``rounds``)."""
    count, dur, extra, self_time, top_level = _totals(spans)
    c = lambda n: count.get(n, 0) / rounds  # noqa: E731
    d = lambda n: dur.get(n, 0.0) / rounds  # noqa: E731
    x = lambda n: extra.get(n, 0) / rounds  # noqa: E731

    def per_layer_us(name):
        layers = extra.get(name, 0)
        return dur[name] / layers * 1e6 if layers else 0.0

    engine_run = d("simulator.Engine.run") + d("reduced.ReducedEngine.run")
    restarts = count.get("schedules.minimize", 0)
    maxfev_hits = sum(1 for s in spans if s[0] == "schedules.minimize" and s[4] >= MAXFEV)
    evals = c("schedules.ratio_of")
    depths = c("schedules.optimize_linear")
    out = {
        "simulator.engine_run_s": (d("simulator.Engine.run"), "s"),
        "simulator.engine_evals": (c("simulator.Engine.run"), "count"),
        "simulator.engine_layers": (x("simulator.Engine.run"), "count"),
        "simulator.layer_us": (per_layer_us("simulator.Engine.run"), "us"),
        "simulator.maxcut_diagonal_s": (d("simulator.maxcut_diagonal"), "s"),
        "reduced.engine_run_s": (d("reduced.ReducedEngine.run"), "s"),
        "reduced.engine_evals": (c("reduced.ReducedEngine.run"), "count"),
        "reduced.engine_layers": (x("reduced.ReducedEngine.run"), "count"),
        "reduced.layer_us": (per_layer_us("reduced.ReducedEngine.run"), "us"),
        "reduced.engine_init_s": (d("reduced.ReducedEngine.init"), "s"),
        "reduced.build_orbit_basis_s": (d("reduced.build_orbit_basis"), "s"),
        "reduced.reduce_operators_s": (d("reduced.reduce_operators"), "s"),
        "reduced.quotient_dimension_s": (d("reduced.quotient_dimension"), "s"),
        "reduced.burnside_elements": (x("reduced.quotient_dimension"), "count"),
        "schedules.evals": (evals, "count"),
        "schedules.depths": (depths, "count"),
        "schedules.evals_per_depth": (evals / depths if depths else 0.0, "count"),
        "schedules.restarts": (restarts / rounds, "count"),
        "schedules.maxfev_share": (maxfev_hits / restarts if restarts else 0.0, "ratio"),
        "schedules.optimizer_self_s": (d("schedules.optimize_linear") - d("schedules.ratio_of"), "s"),
        "schedules.objective_self_s": (d("schedules.ratio_of") - engine_run, "s"),
        "schedules.max_cut_brute_s": (d("schedules.max_cut_brute"), "s"),
        "schedules.make_engine_s": (d("schedules.make_engine"), "s"),
        "features.feature_vector_s": (d("features.feature_vector"), "s"),
        "features.variants": (c("features.exact_features"), "count"),
        "autgroup.automorphism_generators_calls": (c("autgroup.automorphism_generators"), "count"),
        "autgroup.automorphism_generators_s": (d("autgroup.automorphism_generators"), "s"),
        "graphs.generate_s": (d("graphs.generate"), "s"),
        "dataset.generate_instance_s": (d("dataset.generate_instance"), "s"),
        "dataset.record_line_s": (d("dataset.record_line"), "s"),
        "dataset.load_dataset_s": (d("dataset.load_dataset"), "s"),
        "mlmodel.cross_validate_s": (d("mlmodel.cross_validate"), "s"),
        "mlmodel.cross_validate_ordinal_s": (d("mlmodel.cross_validate_ordinal"), "s"),
        "mlmodel.train_ordinal_calls": (c("mlmodel.train_ordinal"), "count"),
        "mlmodel.train_ordinal_s": (d("mlmodel.train_ordinal"), "s"),
        "mlmodel.train_regressor_calls": (c("mlmodel.train_regressor"), "count"),
        "mlmodel.kernel_matrix_calls": (c("mlmodel.kernel_matrix"), "count"),
        "mlmodel.kernel_matrix_s": (d("mlmodel.kernel_matrix"), "s"),
        "mlmodel.predict_s": (
            _outermost(spans, {"mlmodel.predict_regressor", "mlmodel.predict_ordinal"}) / rounds,
            "s",
        ),
        "mlmodel.save_load_s": (d("mlmodel.save_model") + d("mlmodel.load_model"), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_time[layer] / rounds, "s")
    out["bench.self_s"] = (round_wall - top_level / rounds, "s")
    out["trace.spans"] = (len(spans) / rounds, "count")
    return out
