"""Dataset pipeline: instance profiles, depth-search records, JSONL persistence,
train/test splits, model training, and text reports."""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field

import numpy as np

from symqaoa import __version__
from symqaoa.errors import ConstantInputError, InsufficientDataError, InvalidParamsError, ParseError
from symqaoa.features import FEATURE_NAMES, feature_vector
from symqaoa.graphs import Graph, GraphFamily, generate
from symqaoa.mlmodel import (
    DEFAULT_CUTOFFS,
    PminPredictor,
    Standardizer,
    cross_validate,
    cross_validate_ordinal,
    median_abs_err,
    pearson_r,
    train_ordinal,
    train_regressor,
)
from symqaoa.schedules import LinearSchedule, find_pmin

SCHEMA_VERSION = 1

# Two-edge deletion pairs are subsampled once a graph has more edges than this.
PAIR_CAP_EDGES = 60

# Direction each feature is expected to correlate with the minimum depth:
# highly symmetric instances need shallower circuits, so the symmetry
# magnitudes (log group orders, entropy) run negative while the orbit counts
# and the vertex count run positive.
EXPECTED_SIGNS = {
    "log_aut": -1,
    "avg_log_aut_1": -1,
    "avg_log_aut_2": -1,
    "n_vertices": 1,
    "n_orbits": 1,
    "avg_orbits_1": 1,
    "avg_orbits_2": 1,
    "entropy": -1,
    "avg_entropy_1": -1,
    "avg_entropy_2": -1,
}


@dataclass(frozen=True)
class InstanceRecord:
    """One dataset row: a graph, its feature vector, and the depth-search outcome."""

    id: str
    family: str
    params: dict
    graph_seed: int | None
    n: int
    edges: tuple[tuple[int, int], ...]
    optimum_cut: int
    features: tuple[float, ...]
    p_min: int | None
    censored: bool
    ratio_achieved: float
    best_schedule: dict
    target_ratio: float
    p_start: int
    p_cap: int
    restarts: int
    pmin_seed: int
    feature_seed: int | None
    software_version: str
    schema_version: int = SCHEMA_VERSION
    seconds: float | None = None

    def __post_init__(self):
        if len(self.features) != len(FEATURE_NAMES):
            raise InvalidParamsError(
                f"record {self.id!r} has {len(self.features)} features, "
                f"expected {len(FEATURE_NAMES)}"
            )
        if not all(math.isfinite(v) for v in self.features):
            raise InvalidParamsError(f"record {self.id!r} has non-finite features")
        if self.censored != (self.p_min is None):
            raise InvalidParamsError(f"record {self.id!r}: censored flag contradicts p_min")

    def graph(self) -> Graph:
        return Graph.from_edges(self.n, self.edges)

    def schedule(self) -> LinearSchedule:
        return LinearSchedule(**self.best_schedule)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "family": self.family,
            "params": dict(self.params),
            "graph_seed": self.graph_seed,
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "optimum_cut": self.optimum_cut,
            "features": list(self.features),
            "p_min": self.p_min,
            "censored": self.censored,
            "ratio_achieved": self.ratio_achieved,
            "best_schedule": dict(self.best_schedule),
            "target_ratio": self.target_ratio,
            "p_start": self.p_start,
            "p_cap": self.p_cap,
            "restarts": self.restarts,
            "pmin_seed": self.pmin_seed,
            "feature_seed": self.feature_seed,
            "software_version": self.software_version,
            "schema_version": self.schema_version,
            "seconds": self.seconds,
        }

    @staticmethod
    def from_dict(data: dict) -> "InstanceRecord":
        try:
            if data["schema_version"] != SCHEMA_VERSION:
                raise ParseError(f"unsupported schema version {data['schema_version']}")
            return InstanceRecord(
                id=data["id"],
                family=data["family"],
                params=dict(data["params"]),
                graph_seed=data["graph_seed"],
                n=data["n"],
                edges=tuple((int(u), int(v)) for u, v in data["edges"]),
                optimum_cut=data["optimum_cut"],
                features=tuple(float(v) for v in data["features"]),
                p_min=data["p_min"],
                censored=data["censored"],
                ratio_achieved=data["ratio_achieved"],
                best_schedule=dict(data["best_schedule"]),
                target_ratio=data["target_ratio"],
                p_start=data["p_start"],
                p_cap=data["p_cap"],
                restarts=data["restarts"],
                pmin_seed=data["pmin_seed"],
                feature_seed=data["feature_seed"],
                software_version=data["software_version"],
                schema_version=data["schema_version"],
                seconds=data["seconds"],
            )
        except KeyError as exc:
            raise ParseError(f"record missing field {exc}") from exc


def record_line(record: InstanceRecord) -> str:
    """Serialize one record as a canonical JSON line (sorted keys, no spaces)."""
    return json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))


def parse_record(line: str) -> InstanceRecord:
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON record: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("record line is not a JSON object")
    return InstanceRecord.from_dict(data)


def load_dataset(path) -> list[InstanceRecord]:
    """Read a JSONL dataset file, skipping blank lines."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(parse_record(line))
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return records


def family_label(fam: GraphFamily) -> str:
    """Stable instance id: family name, sorted params, and seed if present."""
    parts = [fam.name]
    for key, value in sorted(fam.params.items()):
        parts.append(str(value) if key == "graph" else f"{key}{value}")
    if fam.seed is not None:
        parts.append(f"s{fam.seed}")
    return "-".join(parts)


@dataclass(frozen=True)
class DatasetConfig:
    """Instance list plus the knobs shared by every depth search in a run."""

    families: tuple[GraphFamily, ...]
    target_ratio: float = 0.95
    p_start: int = 2
    p_cap: int = 25
    restarts: int = 50
    seed: int = 0
    max_pairs: int = 2000

    def __post_init__(self):
        labels = [family_label(f) for f in self.families]
        if len(set(labels)) != len(labels):
            dupes = sorted({x for x in labels if labels.count(x) > 1})
            raise InvalidParamsError(f"duplicate instance ids in config: {dupes}")


def standard_profile(max_n: int = 14) -> tuple[GraphFamily, ...]:
    """The shipped instance mix: structured families swept over n, random-regular
    and near-asymmetric graphs at several seeds, and a few hand-picked graphs.
    At max_n = 14 this yields 130 instances."""
    if max_n < 6:
        raise InvalidParamsError(f"profile needs max_n >= 6, got {max_n}")
    fams: list[GraphFamily] = []
    fams += [GraphFamily("complete", {"n": n}) for n in range(3, max_n + 1)]
    fams += [GraphFamily("cycle", {"n": n}) for n in range(3, max_n + 1)]
    fams += [GraphFamily("star", {"n": n}) for n in range(4, max_n + 1)]
    fams += [GraphFamily("wheel", {"n": n}) for n in range(5, max_n + 1)]
    for name in ("ladder", "circular-ladder", "antiprism"):
        fams += [GraphFamily(name, {"k": k}) for k in range(3, 8) if 2 * k <= max_n]
    grids = [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]
    fams += [
        GraphFamily("grid2d", {"rows": r, "cols": c})
        for r, c in grids
        if r * c <= max_n
    ]
    regular_sizes = [n for n in (8, 10, 12, 14) if n <= max_n]
    for k, copies in ((3, 5), (4, 4), (5, 4)):
        for n in regular_sizes:
            fams += [
                GraphFamily("random-regular", {"n": n, "k": k}, seed=100 * k + s)
                for s in range(copies)
            ]
    for n in (12, 14):
        if n <= max_n:
            fams += [
                GraphFamily("trivial-aut", {"n": n, "k": 3}, seed=700 + s)
                for s in range(5)
            ]
    picks = [("petersen", 10), ("icosahedron", 12), ("heawood", 14)]
    fams += [GraphFamily("hand-picked", {"graph": name}) for name, n in picks if n <= max_n]
    return tuple(fams)


def instance_seed(base_seed: int, instance_id: str, purpose: str) -> int:
    """Deterministic per-instance seed, independent of generation order."""
    text = f"{base_seed}:{purpose}:{instance_id}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def generate_instance(
    fam: GraphFamily, config: DatasetConfig, timing: bool = False
) -> InstanceRecord:
    """Build one graph, compute its features, and run the depth search."""
    start = time.perf_counter()
    iid = family_label(fam)
    g = generate(fam)
    if g.m > PAIR_CAP_EDGES:
        feature_seed = instance_seed(config.seed, iid, "features")
        fv = feature_vector(g, max_pairs=config.max_pairs, seed=feature_seed)
    else:
        feature_seed = None
        fv = feature_vector(g)
    pmin_seed = instance_seed(config.seed, iid, "pmin")
    result = find_pmin(
        g,
        target_ratio=config.target_ratio,
        p_start=config.p_start,
        p_cap=config.p_cap,
        restarts=config.restarts,
        seed=pmin_seed,
    )
    sched = result.best_schedule
    return InstanceRecord(
        id=iid,
        family=fam.name,
        params=dict(fam.params),
        graph_seed=fam.seed,
        n=g.n,
        edges=g.edges,
        optimum_cut=result.optimum_cut,
        features=tuple(float(v) for v in fv.as_array()),
        p_min=result.p_min,
        censored=result.censored,
        ratio_achieved=result.ratio_achieved,
        best_schedule={
            "p": sched.p,
            "beta_start": sched.beta_start,
            "beta_end": sched.beta_end,
            "gamma_start": sched.gamma_start,
            "gamma_end": sched.gamma_end,
        },
        target_ratio=config.target_ratio,
        p_start=config.p_start,
        p_cap=config.p_cap,
        restarts=config.restarts,
        pmin_seed=pmin_seed,
        feature_seed=feature_seed,
        software_version=__version__,
        seconds=round(time.perf_counter() - start, 3) if timing else None,
    )


def _generation_task(args) -> tuple[str, str]:
    fam, config, timing = args
    record = generate_instance(fam, config, timing=timing)
    return record.id, record_line(record)


def _drop_torn_tail(path) -> None:
    """Cut off an unterminated last line that does not parse, as a killed run
    leaves it, so that its instance is generated again; end one that parses."""
    with open(path, "rb+") as fh:
        data = fh.read()
        tail = data[data.rfind(b"\n") + 1 :]
        if not tail:
            return
        try:
            parse_record(tail.decode("utf-8"))
        except (ParseError, UnicodeDecodeError):
            fh.truncate(len(data) - len(tail))
        else:
            fh.write(b"\n")


def run_generation(
    config: DatasetConfig, path, workers: int = 1, timing: bool = False, progress=None
) -> int:
    """Append records for every configured instance not already in the file.

    Records land in config order regardless of worker count, one flushed line
    each, so an interrupted run resumes cleanly. Returns the number written.
    """
    done = set()
    if os.path.exists(path):
        _drop_torn_tail(path)
        done = {rec.id for rec in load_dataset(path)}
    pending = [f for f in config.families if family_label(f) not in done]
    tasks = [(f, config, timing) for f in pending]
    written = 0
    with open(path, "a", encoding="utf-8") as out:

        def emit(iid: str, line: str):
            nonlocal written
            out.write(line + "\n")
            out.flush()
            written += 1
            if progress is not None:
                progress(written, len(pending), iid)

        if workers > 1 and len(tasks) > 1:
            with multiprocessing.Pool(workers) as pool:
                for iid, line in pool.imap(_generation_task, tasks):
                    emit(iid, line)
        else:
            for task in tasks:
                emit(*_generation_task(task))
    return written


@dataclass(frozen=True)
class SplitSpec:
    """Stratified test split: the fraction held out from each family."""

    test_fraction: float = 0.30
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise InvalidParamsError(
                f"test fraction must be in (0, 1), got {self.test_fraction}"
            )


def split_dataset(
    records: list[InstanceRecord], spec: SplitSpec
) -> tuple[list[InstanceRecord], list[InstanceRecord]]:
    """Seeded per-family holdout; every family with >= 2 members lands in both
    splits. Returns (train, test) in the original record order."""
    by_family: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        by_family.setdefault(rec.family, []).append(i)
    rng = np.random.default_rng(spec.seed)
    test_idx: set[int] = set()
    for fam in sorted(by_family):
        idx = np.array(by_family[fam])
        rng.shuffle(idx)
        count = len(idx)
        want = int(round(spec.test_fraction * count))
        want = min(max(want, 1), count - 1) if count >= 2 else 0
        test_idx.update(int(i) for i in idx[:want])
    train = [rec for i, rec in enumerate(records) if i not in test_idx]
    test = [rec for i, rec in enumerate(records) if i in test_idx]
    return train, test


@dataclass(frozen=True)
class TrainReport:
    """Everything cmd_train prints: CV choice, per-feature correlations against
    the observed depth, and both models' errors on each split."""

    n_train: int
    n_test: int
    censored_train: int
    censored_test: int
    gamma: float
    lam: float
    cv_err: float
    ens_gamma: float
    ens_lam: float
    ens_cv_err: float
    correlations: tuple[tuple[str, float], ...]
    reg_train_err: float
    reg_test_err: float
    ens_train_err: float
    ens_test_err: float
    reg_test_pearson: float
    ens_test_pearson: float
    scatter: tuple[tuple, ...] = field(repr=False, default=())

    def to_text(self) -> str:
        lines = [
            f"trained on {self.n_train} records ({self.censored_train} censored), "
            f"tested on {self.n_test} ({self.censored_test} censored)",
            f"regressor gamma={self.gamma:g}, lambda={self.lam:g} "
            f"(5-fold CV median |err| {self.cv_err:.3f})",
            f"ensemble gamma={self.ens_gamma:g}, lambda={self.ens_lam:g} "
            f"(5-fold CV median |err| {self.ens_cv_err:.3f})",
            "",
            f"{'feature':<16} {'pearson r':>10} {'expected':>9} {'match':>6}",
        ]
        for name, r in self.correlations:
            expected = EXPECTED_SIGNS[name]
            if math.isnan(r):
                mark = "n/a"
            else:
                mark = "yes" if (r < 0) == (expected < 0) else "NO"
            lines.append(f"{name:<16} {r:>10.3f} {'+' if expected > 0 else '-':>9} {mark:>6}")
        lines += [
            "",
            f"{'model':<12} {'train median |err|':>19} {'test median |err|':>18} "
            f"{'test pearson':>13}",
            f"{'regression':<12} {self.reg_train_err:>19.3f} {self.reg_test_err:>18.3f} "
            f"{self.reg_test_pearson:>13.3f}",
            f"{'ensemble':<12} {self.ens_train_err:>19.3f} {self.ens_test_err:>18.3f} "
            f"{self.ens_test_pearson:>13.3f}",
        ]
        return "\n".join(lines) + "\n"

    def scatter_csv(self) -> str:
        """Per-test-instance predictions for external plotting; censored rows
        have an empty true column."""
        lines = ["id,family,n,true_pmin,pred_regression,pred_ensemble"]
        for iid, family, n, true, reg, ens in self.scatter:
            true_text = "" if true is None else str(true)
            lines.append(f"{iid},{family},{n},{true_text},{reg!r},{ens!r}")
        return "\n".join(lines) + "\n"


def _design(records: list[InstanceRecord]):
    x = np.array([rec.features for rec in records], dtype=np.float64)
    y = np.array(
        [math.inf if rec.censored else float(rec.p_min) for rec in records]
    )
    families = [rec.family for rec in records]
    return x, y, families


def feature_correlations(
    records: list[InstanceRecord],
) -> tuple[tuple[str, float], ...]:
    """Pearson r of each feature against p_min over the non-censored records.
    Features that are constant on the dataset report nan."""
    x, y, _ = _design(records)
    finite = np.isfinite(y)
    return tuple(
        (name, _pearson_or_nan(x[finite, j], y[finite])) for j, name in enumerate(FEATURE_NAMES)
    )


def _pearson_or_nan(a, b) -> float:
    """pearson_r, or nan for a constant input or fewer than two rows."""
    try:
        return pearson_r(a, b)
    except (ConstantInputError, InvalidParamsError):
        return math.nan


def train_models(
    records: list[InstanceRecord],
    split: SplitSpec = SplitSpec(),
    cv_seed: int = 0,
    cutoffs=DEFAULT_CUTOFFS,
) -> tuple[PminPredictor, TrainReport]:
    """Fit the regressor and the ordinal ensemble on a stratified train split.

    Each model gets its own cross-validated (gamma, lambda): the regressor over
    the finite-depth training rows, the ensemble over all training rows with
    censored depths excluded from the error pool. Requires at least 30
    non-censored records overall.
    """
    finite_total = sum(1 for rec in records if not rec.censored)
    if finite_total < 30:
        raise InsufficientDataError(
            f"need >= 30 non-censored records to train, got {finite_total}"
        )
    train_recs, test_recs = split_dataset(records, split)
    x_train, y_train, fam_train = _design(train_recs)
    x_test, y_test, _ = _design(test_recs)
    fin_train = np.isfinite(y_train)
    fin_test = np.isfinite(y_test)

    fams_finite = [f for f, keep in zip(fam_train, fin_train) if keep]
    gamma, lam, cv_err = cross_validate(
        x_train[fin_train], y_train[fin_train], fams_finite, seed=cv_seed
    )
    ens_gamma, ens_lam, ens_cv_err = cross_validate_ordinal(
        x_train, y_train, fam_train, seed=cv_seed, cutoffs=cutoffs
    )
    standardizer = Standardizer.fit(x_train)
    xs_train = standardizer.apply(x_train)
    regressor = train_regressor(xs_train[fin_train], y_train[fin_train], gamma, lam)
    ensemble = train_ordinal(xs_train, y_train, ens_gamma, ens_lam, cutoffs=cutoffs)
    predictor = PminPredictor(standardizer, regressor, ensemble, gamma, lam)

    def predictions(recs):
        reg = np.array([predictor.predict_regression(r.features) for r in recs])
        ens = np.array([predictor.predict_ensemble(r.features) for r in recs])
        return reg, ens

    reg_train, ens_train = predictions(train_recs)
    reg_test, ens_test = predictions(test_recs)

    scatter = tuple(
        (rec.id, rec.family, rec.n, rec.p_min, float(reg), float(ens))
        for rec, reg, ens in zip(test_recs, reg_test, ens_test)
    )
    report = TrainReport(
        n_train=len(train_recs),
        n_test=len(test_recs),
        censored_train=int((~fin_train).sum()),
        censored_test=int((~fin_test).sum()),
        gamma=gamma,
        lam=lam,
        cv_err=cv_err,
        ens_gamma=ens_gamma,
        ens_lam=ens_lam,
        ens_cv_err=ens_cv_err,
        correlations=feature_correlations(records),
        reg_train_err=median_abs_err(y_train[fin_train], reg_train[fin_train]),
        reg_test_err=median_abs_err(y_test[fin_test], reg_test[fin_test]),
        ens_train_err=median_abs_err(y_train[fin_train], ens_train[fin_train]),
        ens_test_err=median_abs_err(y_test[fin_test], ens_test[fin_test]),
        reg_test_pearson=_pearson_or_nan(y_test[fin_test], reg_test[fin_test]),
        ens_test_pearson=_pearson_or_nan(y_test[fin_test], ens_test[fin_test]),
        scatter=scatter,
    )
    return predictor, report


def dataset_report(records: list[InstanceRecord]) -> str:
    """Per-family summary table: sizes, symmetry range, and observed depths."""
    if not records:
        return "empty dataset\n"
    by_family: dict[str, list[InstanceRecord]] = {}
    for rec in records:
        by_family.setdefault(rec.family, []).append(rec)
    lines = [
        f"{'family':<16} {'count':>5} {'n':>7} {'ln|Aut|':>13} {'mean p_min':>11} "
        f"{'censored':>9}"
    ]
    for fam in sorted(by_family):
        rows = by_family[fam]
        ns = [r.n for r in rows]
        logs = [r.features[0] for r in rows]
        depths = [r.p_min for r in rows if r.p_min is not None]
        censored = sum(1 for r in rows if r.censored)
        n_range = f"{min(ns)}-{max(ns)}" if min(ns) != max(ns) else str(ns[0])
        log_range = f"{min(logs):.1f}-{max(logs):.1f}"
        mean_depth = f"{sum(depths) / len(depths):.2f}" if depths else "-"
        lines.append(
            f"{fam:<16} {len(rows):>5} {n_range:>7} {log_range:>13} {mean_depth:>11} "
            f"{censored:>9}"
        )
    total_censored = sum(1 for r in records if r.censored)
    lines.append(f"total {len(records)} records, {total_censored} censored")
    return "\n".join(lines) + "\n"
