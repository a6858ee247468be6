"""Command-line surface: single-instance analysis verbs plus the dataset,
training, and prediction pipeline.

Exit codes: 0 ok, else the failing error class's exit_code: 2 invalid input,
3 size or search budget exceeded, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from symqaoa import __version__
from symqaoa.autgroup import (
    BITSTRING_N_CAP,
    DEGREE_CAP,
    BitstringGroup,
    automorphism_generators,
    bitstring_orbits,
)
from symqaoa.dataset import (
    DatasetConfig,
    SplitSpec,
    dataset_report,
    instance_seed,
    load_dataset,
    run_generation,
    standard_profile,
    train_models,
)
from symqaoa.errors import InvalidParamsError, SizeLimitError, WorkbenchError
from symqaoa.features import FEATURE_NAMES, feature_vector
from symqaoa.graphs import (
    FAMILY_NAMES,
    NAMED_GRAPHS,
    GraphFamily,
    format_edge_list,
    generate,
    read_edge_list,
    write_edge_list,
)
from symqaoa.mlmodel import load_model, save_model
from symqaoa.reduced import quotient_dimension
from symqaoa.schedules import (
    BETA_MAX,
    GAMMA_MAX,
    LinearSchedule,
    ScheduleEvaluator,
    SearchSettings,
    check_depth,
    find_pmin,
    trace_csv,
)
from symqaoa.simulator import (
    CONDITION_N_CAP,
    Angles,
    Engine,
    check_symmetry_conditions,
    maxcut_diagonal,
    orbit_spread,
    probability_rows,
)

SPREAD_TOLERANCE = 1e-8


def non_negative_int(text: str) -> int:
    """The type of --seed and --graph-seed: numpy's generators need seeds >= 0."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symqaoa",
        description="Graph-symmetry analysis and minimum-depth prediction for "
        "MaxCut schedules.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    ap.add_argument("--seed", type=non_negative_int, default=0, help="base seed for every verb")
    ap.add_argument("--threads", type=int, default=1, help="worker processes for gen-dataset")
    for f in dataclasses.fields(SearchSettings):
        ap.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    sub = ap.add_subparsers(dest="verb", required=True)

    gg = sub.add_parser("gen-graphs", help="write an edge-list file for a graph family")
    gg.add_argument("--family", required=True, choices=FAMILY_NAMES)
    gg.add_argument("--n", type=int)
    gg.add_argument("--k", type=int)
    gg.add_argument("--rows", type=int)
    gg.add_argument("--cols", type=int)
    gg.add_argument("--periodic", action="store_true")
    gg.add_argument("--name", choices=NAMED_GRAPHS, help="hand-picked graph name")
    gg.add_argument("--graph-seed", type=non_negative_int, help="seed for the random families")
    gg.add_argument("--out", help="output path (default: stdout)")
    gg.set_defaults(handler=cmd_gen_graphs)

    fe = sub.add_parser("features", help="the ten symmetry features of a graph")
    fe.add_argument("graph", help="edge-list file")
    fe.add_argument("--json", action="store_true")
    fe.set_defaults(handler=cmd_features)

    pm = sub.add_parser("pmin", help="smallest depth reaching the target ratio")
    pm.add_argument("graph")
    pm.add_argument("--trace", help="write the per-depth search trace CSV here")
    pm.add_argument("--json", action="store_true")
    pm.set_defaults(handler=cmd_pmin)

    si = sub.add_parser("simulate", help="evaluate one linear schedule")
    si.add_argument("graph")
    si.add_argument("--depth", type=int, required=True)
    si.add_argument("--schedule", required=True,
                    help="beta_start,beta_end,gamma_start,gamma_end")
    si.add_argument("--probs", help="write the full outcome distribution CSV here")
    si.add_argument("--json", action="store_true")
    si.set_defaults(handler=cmd_simulate)

    re_ = sub.add_parser("reduce", help="symmetry-reduced dimensions of a graph")
    re_.add_argument("graph")
    re_.add_argument("--json", action="store_true")
    re_.set_defaults(handler=cmd_reduce)

    ve = sub.add_parser("verify", help="check orbit invariance at random angles")
    ve.add_argument("graph")
    ve.add_argument("--depth", type=int, default=2)
    ve.add_argument("--json", action="store_true")
    ve.set_defaults(handler=cmd_verify)

    gd = sub.add_parser("gen-dataset", help="generate the instance dataset (resumable)")
    gd.add_argument("--out", required=True, help="JSONL output path, appended to")
    gd.add_argument("--max-n", type=int, default=14)
    gd.set_defaults(handler=cmd_gen_dataset)

    tr = sub.add_parser("train", help="fit both depth predictors on a dataset")
    tr.add_argument("--dataset", required=True)
    tr.add_argument("--model-out", required=True)
    tr.add_argument("--report-out", help="write the text report here (default: stdout)")
    tr.add_argument("--scatter-out", help="write test-set predictions CSV here")
    tr.add_argument("--test-fraction", type=float, default=0.30)
    tr.set_defaults(handler=cmd_train)

    pr = sub.add_parser("predict", help="predict the minimum depth of a graph")
    pr.add_argument("--model", required=True)
    pr.add_argument("--graph", help="edge-list file")
    pr.add_argument("--features", help="10 comma-separated feature values instead")
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(handler=cmd_predict)

    rp = sub.add_parser("report", help="per-family summary of a dataset")
    rp.add_argument("--dataset", required=True)
    rp.set_defaults(handler=cmd_report)
    return ap


def _emit(data: dict, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _vertex_count(args) -> int:
    """Vertices of the graph gen-graphs is asked for, from its flags alone; 0 for
    the named graphs (all small) and for a missing size, which generate reports."""
    if args.family == "grid2d":
        return (args.rows or 0) * (args.cols or 0)
    if args.family in ("ladder", "circular-ladder", "antiprism"):
        return 2 * (args.k or 0)
    return 0 if args.family == "hand-picked" else args.n or 0


def cmd_gen_graphs(args) -> int:
    if (n := _vertex_count(args)) > DEGREE_CAP:
        raise SizeLimitError(f"gen-graphs supports n <= {DEGREE_CAP}, got {n}")
    params = {}
    for key in ("n", "k", "rows", "cols"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if args.periodic:
        params["periodic"] = True
    if args.name is not None:
        params["graph"] = args.name
    g = generate(GraphFamily(args.family, params, args.graph_seed))
    if args.out:
        write_edge_list(g, args.out)
        print(f"wrote {args.family} graph (n={g.n}, m={g.m}) to {args.out}")
    else:
        sys.stdout.write(format_edge_list(g))
    return 0


def _features(args, g) -> np.ndarray:
    """The feature array of a graph, its pair sample (if any) drawn from --seed."""
    return feature_vector(g, instance_seed(args.seed, "cli", "features")).as_array()


def cmd_features(args) -> int:
    g = read_edge_list(args.graph)
    values = _features(args, g)
    data = {name: float(v) for name, v in zip(FEATURE_NAMES, values)}
    data.update({"n": g.n, "m": g.m})
    _emit(data, args.json,
          [f"{name} = {float(v):.6f}" for name, v in zip(FEATURE_NAMES, values)])
    return 0


def _search(args) -> SearchSettings:
    """The search settings given by the global flags."""
    return SearchSettings(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(SearchSettings)}
    )


def cmd_pmin(args) -> int:
    search = _search(args)
    result = find_pmin(read_edge_list(args.graph), search, seed=args.seed)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace_csv(result))
    s = result.best_schedule
    data = dataclasses.asdict(result)
    del data["trace"]
    headline = (
        f"censored at p_cap={args.p_cap} (best ratio {result.ratio_achieved:.4f})"
        if result.censored
        else f"p_min = {result.p_min} (ratio {result.ratio_achieved:.4f})"
    )
    _emit(data, args.json, [
        headline,
        f"optimum cut {result.optimum_cut}",
        f"best schedule p={s.p}: beta {s.beta_start:.4f} -> {s.beta_end:.4f}, "
        f"gamma {s.gamma_start:.4f} -> {s.gamma_end:.4f}",
    ])
    return 0


def _parse_numbers(text: str, count: int, what: str) -> list[float]:
    """count comma-separated finite numbers, else InvalidParamsError."""
    parts = text.split(",")
    if len(parts) != count:
        raise InvalidParamsError(f"{what} needs {count} comma-separated values, got {len(parts)}")
    try:
        vals = [float(v) for v in parts]
    except ValueError as exc:
        raise InvalidParamsError(f"bad {what} value: {exc}") from exc
    if not all(map(math.isfinite, vals)):
        raise InvalidParamsError(f"{what} values must be finite, got {text!r}")
    return vals


def cmd_simulate(args) -> int:
    g = read_edge_list(args.graph)
    schedule = LinearSchedule(args.depth, *_parse_numbers(args.schedule, 4, "schedule"))
    ev = ScheduleEvaluator(g)
    optimum = ev.optimum
    angles = schedule.expand()
    expect = ev.engine.expectation(angles.betas, angles.gammas)
    ratio = expect / optimum
    if args.probs:
        engine = ev.engine if isinstance(ev.engine, Engine) else Engine(maxcut_diagonal(g))
        state = engine.statevector(angles)
        with open(args.probs, "w", encoding="utf-8") as fh:
            fh.writelines(probability_rows(state))
    data = {"expectation": expect, "optimum_cut": optimum, "ratio": ratio}
    _emit(data, args.json, [
        f"expected cut {expect:.6f} of optimum {optimum} (ratio {ratio:.6f})",
    ])
    return 0


def cmd_reduce(args) -> int:
    g = read_edge_list(args.graph)
    data = {}
    lines = []
    perm_group = automorphism_generators(g)  # both groups share one search
    for flip in (False, True):
        qc = quotient_dimension(BitstringGroup(perm_group, flip))
        key = "flip_on" if flip else "flip_off"
        data[key] = {
            "dim": qc.dim,
            "group_order": qc.group_order,
            "routes_agree": qc.routes_agree,
        }
        lines.append(
            f"flip {'on' if flip else 'off'}: dim {qc.dim} "
            f"(group order {qc.group_order}, full space {2 ** g.n})"
        )
    _emit(data, args.json, lines)
    return 0


def cmd_verify(args) -> int:
    g = read_edge_list(args.graph)
    if g.n > BITSTRING_N_CAP:
        raise SizeLimitError(f"verify needs n <= {BITSTRING_N_CAP}, got {g.n}")
    check_depth(args.depth)
    rng = np.random.default_rng(args.seed)
    betas = tuple(rng.uniform(0.0, BETA_MAX, args.depth))
    gammas = tuple(rng.uniform(0.0, GAMMA_MAX, args.depth))
    diag = maxcut_diagonal(g)
    state = Engine(diag).statevector(Angles(betas, gammas))
    grp = BitstringGroup(automorphism_generators(g), include_flip=True)
    orbits = bitstring_orbits(grp)
    spread = orbit_spread(state, orbits)

    mappings = grp.actions() if g.n <= CONDITION_N_CAP else []
    checked = len(mappings)
    flags = [check_symmetry_conditions(m, diag) for m in mappings]
    conditions_ok = all(f.cost_commutes and f.mixer_commutes for f in flags)

    ok = (
        spread.probability <= SPREAD_TOLERANCE
        and spread.amplitude <= SPREAD_TOLERANCE
        and conditions_ok
    )
    data = {
        "probability_spread": spread.probability,
        "amplitude_spread": spread.amplitude,
        "orbits": orbits.n_orbits,
        "group_order": grp.order(),
        "conditions_checked": checked,
        "conditions_ok": conditions_ok,
        "ok": ok,
    }
    _emit(data, args.json, [
        f"{orbits.n_orbits} orbits under the automorphism group with global flip",
        f"probability spread {spread.probability:.3e}, "
        f"amplitude spread {spread.amplitude:.3e}",
        f"commutation checks: {checked} mappings, "
        f"{'all passed' if conditions_ok else 'FAILED'}",
        "verify: OK" if ok else "verify: FAILED",
    ])
    return 0 if ok else 4


def cmd_gen_dataset(args) -> int:
    config = DatasetConfig(
        standard_profile(args.max_n), seed=args.seed, **dataclasses.asdict(_search(args))
    )

    def progress(done: int, total: int, iid: str):
        print(f"[{done}/{total}] {iid}", file=sys.stderr)

    written = run_generation(config, args.out, workers=max(args.threads, 1), progress=progress)
    print(f"wrote {written} new records to {args.out}")
    return 0


def cmd_train(args) -> int:
    records = load_dataset(args.dataset)
    predictor, report = train_models(records, SplitSpec(args.test_fraction, args.seed))
    save_model(predictor, args.model_out)
    text = report.to_text()
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.scatter_out:
        with open(args.scatter_out, "w", encoding="utf-8") as fh:
            fh.write(report.scatter_csv())
    print(f"model written to {args.model_out}")
    return 0


def cmd_predict(args) -> int:
    if (args.graph is None) == (args.features is None):
        raise InvalidParamsError("predict needs exactly one of --graph or --features")
    predictor = load_model(args.model)
    if args.graph:
        feats = _features(args, read_edge_list(args.graph))
    else:
        feats = np.array(_parse_numbers(args.features, len(FEATURE_NAMES), "--features"))
    reg = predictor.predict_regression(feats)
    ens = predictor.predict_ensemble(feats)
    _emit({"regression": reg, "ensemble": ens}, args.json, [
        f"regression predicts p_min {reg:.2f}",
        f"ordinal ensemble predicts p_min {ens:.2f}",
    ])
    return 0


def cmd_report(args) -> int:
    sys.stdout.write(dataset_report(load_dataset(args.dataset)))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
