"""Dataset pipeline: instance profiles, depth-search records, JSONL persistence,
train/test splits, model training, and text reports."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from symqaoa import __version__
from symqaoa.errors import (
    ConstantInputError,
    InsufficientDataError,
    InvalidParamsError,
    ParseError,
    SizeLimitError,
)
from symqaoa.features import EXPECTED_SIGNS, FEATURE_NAMES, feature_vector, samples_pairs
from symqaoa.graphs import Graph, GraphFamily, generate
from symqaoa.mlmodel import (
    N_FOLDS,
    PminPredictor,
    Standardizer,
    cross_validate,
    cross_validate_ordinal,
    median_abs_err,
    pearson_r,
    shuffle_within_families,
    train_ordinal,
    train_regressor,
)
from symqaoa.schedules import LinearSchedule, PminOutcome, SearchSettings, find_pmin
from symqaoa.simulator import MAX_QUBITS

SCHEMA_VERSION = 1


# The types of the JSON values InstanceRecord.from_dict accepts for each field
# annotation, matched exactly, so that true and false are not numbers.
_JSON_TYPES = {"int": (int,), "int | None": (int, type(None)), "float": (int, float),
               "float | None": (int, float, type(None)), "str": (str,), "bool": (bool,),
               "dict": (dict,), "LinearSchedule": (dict,), "tuple": (list,)}


@dataclass(frozen=True)
class InstanceRecord(SearchSettings, PminOutcome):
    """One dataset row: a graph, its feature vector, and the depth-search outcome
    with the settings it ran under."""

    id: str
    family: str
    params: dict
    graph_seed: int | None
    n: int
    edges: tuple[tuple[int, int], ...]
    features: tuple[float, ...]
    pmin_seed: int
    feature_seed: int | None
    software_version: str
    schema_version: int = SCHEMA_VERSION
    seconds: float | None = None  # written as null; lines holding a float still load

    def __post_init__(self):
        SearchSettings.__post_init__(self)
        PminOutcome.__post_init__(self)
        if len(self.features) != len(FEATURE_NAMES):
            raise InvalidParamsError(
                f"record {self.id!r} has {len(self.features)} features, "
                f"expected {len(FEATURE_NAMES)}"
            )
        if not all(math.isfinite(v) for v in self.features):
            raise InvalidParamsError(f"record {self.id!r} has non-finite features")

    def graph(self) -> Graph:
        return Graph.from_edges(self.n, self.edges)

    @staticmethod
    def from_dict(data: dict) -> "InstanceRecord":
        try:
            if data["schema_version"] != SCHEMA_VERSION:
                raise ParseError(f"unsupported schema version {data['schema_version']}")
            values = {}
            for f in dataclasses.fields(InstanceRecord):
                value = values[f.name] = data[f.name]
                if type(value) not in _JSON_TYPES[f.type.partition("[")[0]]:
                    raise TypeError(f"field {f.name!r} is not {f.type}: {value!r}")
            edges, feats = values["edges"], values["features"]
            if not all(type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int
                       for e in edges):
                raise TypeError(f"edges are not pairs of integers: {edges!r}")
            if not all(type(v) in _JSON_TYPES["float"] for v in feats):
                raise TypeError(f"features are not numbers: {feats!r}")
            values["edges"] = tuple(map(tuple, edges))
            values["features"] = tuple(map(float, feats))
            values["best_schedule"] = LinearSchedule(**values["best_schedule"])
            return InstanceRecord(**values)
        except KeyError as exc:
            raise ParseError(f"record missing field {exc}") from exc
        except (TypeError, ValueError, InvalidParamsError, SizeLimitError) as exc:
            raise ParseError(f"record is malformed: {exc}") from exc


def record_line(record: InstanceRecord) -> str:
    """Serialize one record as a canonical JSON line (sorted keys, no spaces)."""
    return json.dumps(dataclasses.asdict(record), sort_keys=True, separators=(",", ":"))


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
    with open(path, encoding="utf-8") as fh:
        try:
            return _parse_lines(fh, path)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _parse_lines(lines, path) -> list[InstanceRecord]:
    records = []
    for lineno, line in enumerate(lines, start=1):
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
class DatasetConfig(SearchSettings):
    """Instance list plus the search settings shared by every depth search in a run."""

    families: tuple[GraphFamily, ...]
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        labels = [family_label(f) for f in self.families]
        if len(set(labels)) != len(labels):
            dupes = sorted({x for x in labels if labels.count(x) > 1})
            raise InvalidParamsError(f"duplicate instance ids in config: {dupes}")


def standard_profile(max_n: int = 14) -> tuple[GraphFamily, ...]:
    """The shipped instance mix: structured families swept over n, random-regular
    and near-asymmetric graphs at several seeds, and a few hand-picked graphs.
    At max_n = 14 this yields 130 instances. Its largest graph has max_n
    vertices, so max_n above MAX_QUBITS raises SizeLimitError."""
    if max_n < 6:
        raise InvalidParamsError(f"profile needs max_n >= 6, got {max_n}")
    if max_n > MAX_QUBITS:
        raise SizeLimitError(f"profile needs max_n <= {MAX_QUBITS}, got {max_n}")
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


def generate_instance(fam: GraphFamily, config: DatasetConfig) -> InstanceRecord:
    """Build one graph, compute its features, and run the depth search."""
    iid = family_label(fam)
    g = generate(fam)
    feature_seed = instance_seed(config.seed, iid, "features")
    fv = feature_vector(g, feature_seed)
    pmin_seed = instance_seed(config.seed, iid, "pmin")
    search = config.search
    result = find_pmin(g, search, seed=pmin_seed)
    return InstanceRecord(
        id=iid,
        family=fam.name,
        params=dict(fam.params),
        graph_seed=fam.seed,
        n=g.n,
        edges=g.edges,
        features=tuple(float(v) for v in fv.as_array()),
        **{f.name: getattr(result, f.name) for f in dataclasses.fields(PminOutcome)},
        **dataclasses.asdict(search),
        pmin_seed=pmin_seed,
        feature_seed=feature_seed if samples_pairs(g) else None,
        software_version=__version__,
    )


def _generation_task(args) -> tuple[str, str]:
    record = generate_instance(*args)
    return record.id, record_line(record)


def _resume_ids(path, config: DatasetConfig) -> set[str]:
    """Ids of the records in a file being resumed.

    Every record must carry this config's search settings, or the file would
    mix labels of different targets; otherwise InvalidParamsError is raised
    before the file changes. An unterminated last line, as a killed run leaves
    it, is cut off if it does not parse, so that its instance is generated
    again, and ended with its newline if it does.
    """
    with open(path, "rb+") as fh:
        data = fh.read()
        body = data[: data.rfind(b"\n") + 1]
        tail = data[len(body) :]
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
        records = _parse_lines(text.split("\n"), path)
        torn = False
        if tail:
            try:
                records.append(parse_record(tail.decode("utf-8")))
            except (ParseError, UnicodeDecodeError):
                torn = True
        settings = dataclasses.astuple(config.search)
        names = ", ".join([f.name for f in dataclasses.fields(SearchSettings)] + ["pmin_seed"])
        for rec in records:
            stored = (*dataclasses.astuple(rec.search), rec.pmin_seed)
            wanted = (*settings, instance_seed(config.seed, rec.id, "pmin"))
            if stored != wanted:
                raise InvalidParamsError(
                    f"{path}: record {rec.id!r} has ({names}) = {stored}, "
                    f"this run would use {wanted}"
                )
        if torn:
            fh.truncate(len(body))
        elif tail:
            fh.write(b"\n")
    return {rec.id for rec in records}


def run_generation(config: DatasetConfig, path, workers: int = 1, progress=None) -> int:
    """Append records for every configured instance not already in the file.

    Records land in config order regardless of worker count, one flushed line
    each, so an interrupted run resumes cleanly. Resuming a file made under
    other search settings raises InvalidParamsError. Returns the number written.
    """
    done = _resume_ids(path, config) if os.path.exists(path) else set()
    pending = [f for f in config.families if family_label(f) not in done]
    tasks = [(f, config) for f in pending]
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
            with multiprocessing.Pool(min(workers, len(tasks))) as pool:
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
    test_idx: set[int] = set()
    for idx in shuffle_within_families([rec.family for rec in records], spec.seed):
        count = len(idx)
        want = int(round(spec.test_fraction * count))
        want = min(max(want, 1), count - 1) if count >= 2 else 0
        test_idx.update(int(i) for i in idx[:want])
    train = [rec for i, rec in enumerate(records) if i not in test_idx]
    test = [rec for i, rec in enumerate(records) if i in test_idx]
    return train, test


class ModelScores(NamedTuple):
    """One predictor's cross-validated (gamma, lambda) and CV error, its median
    |err| on each split, and its Pearson r on the test split."""

    gamma: float
    lam: float
    cv_err: float
    train_err: float
    test_err: float
    test_pearson: float


@dataclass(frozen=True)
class TrainReport:
    """Everything cmd_train prints: per-feature correlations against the observed
    depth, and each model's scores."""

    n_train: int
    n_test: int
    censored_train: int
    censored_test: int
    correlations: tuple[tuple[str, float], ...]
    regression: ModelScores
    ensemble: ModelScores
    scatter: tuple[tuple, ...] = field(repr=False)

    def to_text(self) -> str:
        models = (("regressor", "regression", self.regression),
                  ("ensemble", "ensemble", self.ensemble))
        lines = [
            f"trained on {self.n_train} records ({self.censored_train} censored), "
            f"tested on {self.n_test} ({self.censored_test} censored)",
        ]
        for name, _, s in models:
            lines.append(f"{name} gamma={s.gamma:g}, lambda={s.lam:g} "
                         f"({N_FOLDS}-fold CV median |err| {s.cv_err:.3f})")
        lines += ["", f"{'feature':<16} {'pearson r':>10} {'expected':>9} {'match':>6}"]
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
        ]
        for _, label, s in models:
            lines.append(f"{label:<12} {s.train_err:>19.3f} {s.test_err:>18.3f} "
                         f"{s.test_pearson:>13.3f}")
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
) -> tuple[PminPredictor, TrainReport]:
    """Fit the regressor and the ordinal ensemble on a stratified train split.

    Each model gets its own cross-validated (gamma, lambda): the regressor over
    the finite-depth training rows, the ensemble over all training rows with
    censored depths excluded from the error pool. split.seed seeds the split
    and both cross-validations' folds. Requires at least 30 non-censored
    records overall.
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
    # each cross-validation returns (gamma, lambda, CV error)
    reg_cv = cross_validate(x_train[fin_train], y_train[fin_train], fams_finite, seed=split.seed)
    ens_cv = cross_validate_ordinal(x_train, y_train, fam_train, seed=split.seed)
    standardizer = Standardizer.fit(x_train)
    xs_train = standardizer.apply(x_train)
    regressor = train_regressor(xs_train[fin_train], y_train[fin_train], *reg_cv[:2])
    ensemble = train_ordinal(xs_train, y_train, *ens_cv[:2])
    predictor = PminPredictor(standardizer, regressor, ensemble, *reg_cv[:2])

    def score(cv, predict) -> tuple[ModelScores, np.ndarray]:
        """One model's scores from its CV triple, and its test predictions."""
        pred_train, pred_test = (
            np.array([predict(r.features) for r in recs]) for recs in (train_recs, test_recs)
        )
        fit = (y_train[fin_train], pred_train[fin_train])
        held = (y_test[fin_test], pred_test[fin_test])
        return ModelScores(*cv, median_abs_err(*fit), median_abs_err(*held),
                           _pearson_or_nan(*held)), pred_test

    regression, reg_test = score(reg_cv, predictor.predict_regression)
    ens_scores, ens_test = score(ens_cv, predictor.predict_ensemble)
    scatter = tuple(
        (rec.id, rec.family, rec.n, rec.p_min, float(reg), float(ens))
        for rec, reg, ens in zip(test_recs, reg_test, ens_test)
    )
    return predictor, TrainReport(
        n_train=len(train_recs),
        n_test=len(test_recs),
        censored_train=int((~fin_train).sum()),
        censored_test=int((~fin_test).sum()),
        correlations=feature_correlations(records),
        regression=regression,
        ensemble=ens_scores,
        scatter=scatter,
    )


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
