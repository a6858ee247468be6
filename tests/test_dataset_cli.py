"""Dataset pipeline and command-line behavior, including spec'd exit codes."""

import dataclasses
import json
import math

import numpy as np
import pytest

from acceptance_profile import DATASET_PATH, acceptance_config
from symqaoa import autgroup, cli, dataset, errors, features, reduced, simulator
from symqaoa.cli import main
from symqaoa.dataset import (
    DatasetConfig,
    InstanceRecord,
    SplitSpec,
    dataset_report,
    family_label,
    instance_seed,
    load_dataset,
    parse_record,
    record_line,
    run_generation,
    split_dataset,
    standard_profile,
    train_models,
)
from symqaoa.errors import (
    InsufficientDataError,
    InvalidParamsError,
    NotInvariantError,
    ParseError,
    SearchBudgetError,
    SizeLimitError,
)
from symqaoa.features import feature_vector
from symqaoa.graphs import (
    Graph,
    GraphFamily,
    complete,
    cycle,
    generate,
    named,
    read_edge_list,
    trivial_aut_graph,
    write_edge_list,
)
from symqaoa.mlmodel import load_model
from symqaoa.schedules import (
    DEPTH_CAP,
    LinearSchedule,
    PminOutcome,
    ScheduleEvaluator,
    SearchSettings,
)
from symqaoa.simulator import Engine, maxcut_diagonal, probability_rows

TINY = DatasetConfig(
    families=(
        GraphFamily("complete", {"n": 3}),
        GraphFamily("complete", {"n": 4}),
        GraphFamily("cycle", {"n": 4}),
        GraphFamily("star", {"n": 5}),
    ),
    target_ratio=0.9,
    p_start=1,
    p_cap=3,
    restarts=2,
    seed=11,
)


SCHEDULE = {"p": 2, "beta_start": 0.1, "beta_end": 0.2, "gamma_start": 0.3, "gamma_end": 0.4}


def make_record(i: int, family: str, p_min, **overrides) -> InstanceRecord:
    feats = tuple(float(v) for v in np.sin(np.arange(10) * 0.7 + i))
    fields = dict(
        id=f"{family}-{i}",
        family=family,
        params={"n": 4},
        graph_seed=None,
        n=4,
        edges=((0, 1), (1, 2)),
        optimum_cut=2,
        features=feats,
        p_min=p_min,
        censored=p_min is None,
        ratio_achieved=0.96,
        best_schedule=LinearSchedule(**SCHEDULE),
        target_ratio=0.95,
        p_start=2,
        p_cap=15,
        restarts=8,
        pmin_seed=123,
        feature_seed=None,
        software_version="0.1.0",
    )
    fields.update(overrides)
    return InstanceRecord(**fields)


def learnable_records(count=48, censor_every=16):
    """Records whose depth follows the first feature, a few censored."""
    records = []
    for i in range(count):
        family = f"fam{i % 4}"
        depth = 2 + (i * 7) % 11  # 2..12
        censored = i % censor_every == censor_every - 1
        feats = [depth / 3.0 + 0.01 * j for j in range(10)]
        records.append(
            make_record(
                i,
                family,
                None if censored else depth,
                features=tuple(feats),
                ratio_achieved=0.9 if censored else 0.96,
            )
        )
    return records


def test_record_round_trip():
    rec = make_record(0, "complete", 4)
    line = record_line(rec)
    assert parse_record(line) == rec
    # canonical form: sorted keys, no whitespace
    assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
    assert rec.graph().edges == ((0, 1), (1, 2))
    assert rec.best_schedule.p == 2


def test_record_validation():
    with pytest.raises(InvalidParamsError):
        make_record(0, "x", 4, features=(1.0, 2.0))
    with pytest.raises(InvalidParamsError):
        make_record(0, "x", 4, features=(math.nan,) * 10)
    with pytest.raises(InvalidParamsError):
        make_record(0, "x", None, censored=False)
    with pytest.raises(ParseError):
        parse_record("{not json")
    with pytest.raises(ParseError):
        parse_record("[1,2]")
    data = json.loads(record_line(make_record(0, "x", 4)))
    del data["edges"]
    with pytest.raises(ParseError, match="missing"):
        InstanceRecord.from_dict(data)
    data = json.loads(record_line(make_record(0, "x", 4)))
    data["schema_version"] = 99
    with pytest.raises(ParseError, match="schema"):
        InstanceRecord.from_dict(data)


@pytest.mark.parametrize(
    "field,value",
    [("edges", 5), ("edges", [[0, "a"]]), ("edges", [[0, 1, 2]]),
     ("features", ["x"] * 10), ("features", 5), ("features", [[1.0]] * 10),
     ("p_min", "x"), ("n", "abc"), ("family", None),
     ("edges", [[0, 1.7]]), ("edges", [[True, 2]]), ("edges", [["1", "2"]]), ("edges", [[0]]),
     ("edges", [5]), ("features", ["1.5"] * 10), ("features", [True] * 10),
     ("features", [None] * 10), ("p_start", 0), ("restarts", 0), ("p_cap", -3),
     ("target_ratio", -1.0), ("best_schedule", {}), ("best_schedule", {**SCHEDULE, "p": "x"}),
     ("best_schedule", {**SCHEDULE, "p": 0}), ("best_schedule", {**SCHEDULE, "p": 2.0}),
     ("best_schedule", {**SCHEDULE, "p": True}), ("best_schedule", {**SCHEDULE, "beta_end": "x"}),
     ("best_schedule", {**SCHEDULE, "gamma_start": math.nan}),
     ("best_schedule", {**SCHEDULE, "extra": 1})],
)
def test_record_rejects_malformed_fields(tmp_path, capsys, field, value):
    data = json.loads(record_line(make_record(0, "x", 4)))
    data[field] = value
    line = json.dumps(data)
    with pytest.raises(ParseError, match="malformed"):
        parse_record(line)
    path = tmp_path / "d.jsonl"
    path.write_text(line + "\n")
    assert main(["report", "--dataset", str(path)]) == 2
    assert "malformed" in capsys.readouterr().err


ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, errors.WorkbenchError)]
NON_INPUT_CODES = {SizeLimitError: 3, SearchBudgetError: 3, NotInvariantError: 4}


@pytest.mark.parametrize("error, code",
                         [(e, NON_INPUT_CODES.get(e, 2)) for e in ERROR_CLASSES + [OSError]],
                         ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_cli_maps_each_error_to_its_exit_code(tmp_path, capsys, monkeypatch, error, code):
    def handler(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_report", handler)
    assert main(["report", "--dataset", str(tmp_path / "d.jsonl")]) == code
    assert capsys.readouterr().err == "error: boom\n"


@pytest.mark.parametrize("verb", [["report", "--dataset"], ["gen-dataset", "--max-n", "6", "--out"],
                                  ["train", "--model-out", "model.txt", "--dataset"]],
                         ids=["report", "gen-dataset", "train"])
def test_cli_rejects_non_utf8_dataset(tmp_path, capsys, monkeypatch, verb):
    # a byte that is not UTF-8 in a complete line exits 2 naming the file, and
    # changes no file: a resumed gen-dataset builds no graph, train writes no model
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.jsonl"
    lines = "".join(record_line(make_record(i, "x", 4)) + "\n" for i in range(2))
    data = lines.encode() + b'{"id": "\xff"}\n'
    path.write_bytes(data)
    with pytest.raises(ParseError, match="bad.jsonl"):
        load_dataset(path)
    calls = []
    monkeypatch.setattr(dataset, "feature_vector", lambda *a: calls.append(a))
    assert main([*verb, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.jsonl" in err and "UTF-8" in err
    assert calls == [] and [f.name for f in tmp_path.iterdir()] == ["bad.jsonl"]
    assert path.read_bytes() == data


def test_load_dataset_reports_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(record_line(make_record(0, "x", 4)) + "\n\nbroken\n")
    with pytest.raises(ParseError, match=r"d\.jsonl:3"):
        load_dataset(path)


def test_family_label_formats():
    assert family_label(GraphFamily("complete", {"n": 3})) == "complete-n3"
    assert (
        family_label(GraphFamily("random-regular", {"n": 8, "k": 3}, seed=300))
        == "random-regular-k3-n8-s300"
    )
    assert family_label(GraphFamily("hand-picked", {"graph": "petersen"})) == "hand-picked-petersen"
    assert family_label(GraphFamily("grid2d", {"rows": 2, "cols": 4})) == "grid2d-cols4-rows2"


def test_search_defaults_stated_once():
    args = cli.build_parser().parse_args(["report", "--dataset", "d.jsonl"])
    assert cli._search(args) == SearchSettings()
    assert DatasetConfig(TINY.families).search == SearchSettings()


def test_config_rejects_duplicate_ids():
    fam = GraphFamily("complete", {"n": 3})
    with pytest.raises(InvalidParamsError, match="duplicate"):
        DatasetConfig(families=(fam, fam))


def test_standard_profile_counts():
    full = standard_profile(14)
    assert len(full) == 130
    labels = [family_label(f) for f in full]
    assert len(set(labels)) == len(labels)
    assert len(standard_profile(10)) == 68
    with pytest.raises(InvalidParamsError):
        standard_profile(5)
    for fam in full:
        if "n" in fam.params:
            assert fam.params["n"] <= 14
    assert len(standard_profile(simulator.MAX_QUBITS)) > 130
    with pytest.raises(SizeLimitError, match=f"max_n <= {simulator.MAX_QUBITS}"):
        standard_profile(simulator.MAX_QUBITS + 1)


def test_instance_seed_stable():
    a = instance_seed(7, "complete-n3", "pmin")
    assert a == instance_seed(7, "complete-n3", "pmin")
    assert a != instance_seed(7, "complete-n3", "features")
    assert a != instance_seed(8, "complete-n3", "pmin")
    assert 0 <= a < 2**63


def test_generation_resume_and_determinism(tmp_path):
    path = tmp_path / "tiny.jsonl"
    assert run_generation(TINY, path) == 4
    first = path.read_bytes()
    # resume: nothing new to do
    assert run_generation(TINY, path) == 0
    assert path.read_bytes() == first
    # regeneration from scratch is byte-identical
    path2 = tmp_path / "again.jsonl"
    run_generation(TINY, path2)
    assert path2.read_bytes() == first
    records = load_dataset(path)
    by_id = {r.id: r for r in records}
    assert by_id["complete-n4"].optimum_cut == 4
    assert by_id["complete-n4"].p_min is not None
    for rec in records:
        assert rec.features == tuple(feature_vector(rec.graph()).as_array())
        assert rec.seconds is None


def test_generation_resumes_after_torn_tail(tmp_path):
    path = tmp_path / "tiny.jsonl"
    run_generation(TINY, path)
    whole = path.read_bytes()
    last = whole[whole.rstrip(b"\n").rfind(b"\n") + 1 :]
    # a kill mid-write leaves part of the last record and no newline: that
    # line is cut off and its instance generated again, UTF-8 or not
    for torn in (last[: len(last) // 2], b'{"id": "\xff'):
        path.write_bytes(whole[: -len(last)] + torn)
        assert run_generation(TINY, path) == 1
        assert path.read_bytes() == whole
    # a whole record that lost only its newline is kept and terminated
    path.write_bytes(whole[:-1])
    assert run_generation(TINY, path) == 0
    assert path.read_bytes() == whole


def test_generation_rejects_corrupt_middle_line(tmp_path):
    path = tmp_path / "tiny.jsonl"
    run_generation(TINY, path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][: len(lines[1]) // 2] + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError, match=r"tiny\.jsonl:2"):
        run_generation(TINY, path)


def test_generation_refuses_other_settings(tmp_path):
    path = tmp_path / "tiny.jsonl"
    run_generation(TINY, path)
    whole = path.read_bytes()
    last = whole[whole.rstrip(b"\n").rfind(b"\n") + 1 :]
    # one instance is still missing, and the last file also has a torn tail
    for partial in (whole[: -len(last)], whole[: -len(last) // 2]):
        path.write_bytes(partial)
        for change in ({"target_ratio": 0.99}, {"p_start": 2}, {"p_cap": 4},
                       {"restarts": 3}, {"seed": 12}):
            with pytest.raises(InvalidParamsError, match="complete-n3"):
                run_generation(dataclasses.replace(TINY, **change), path)
            assert path.read_bytes() == partial
    assert run_generation(TINY, path) == 1
    assert path.read_bytes() == whole


def test_resume_error_names_every_search_setting(tmp_path):
    # the message lists the settings it compares, read off SearchSettings, so
    # a new setting cannot leave it stale
    path = tmp_path / "tiny.jsonl"
    run_generation(dataclasses.replace(TINY, families=TINY.families[:1]), path)
    names = [f.name for f in dataclasses.fields(SearchSettings)] + ["pmin_seed"]
    with pytest.raises(InvalidParamsError) as caught:
        run_generation(dataclasses.replace(TINY, p_cap=4), path)
    assert f"({', '.join(names)}) = " in str(caught.value)


def test_generation_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    run_generation(TINY, serial, workers=1)
    run_generation(TINY, parallel, workers=2)
    assert serial.read_bytes() == parallel.read_bytes()


def test_generation_rejects_non_finite_target(tmp_path):
    path = tmp_path / "tiny.jsonl"
    for target in (math.nan, math.inf):
        with pytest.raises(InvalidParamsError, match="finite"):
            run_generation(dataclasses.replace(TINY, target_ratio=target), path)
        assert not path.exists()


@pytest.mark.parametrize(
    "bad",
    [{"target_ratio": math.nan}, {"target_ratio": math.inf}, {"target_ratio": 0.0},
     {"p_start": 0}, {"p_start": 4, "p_cap": 3}, {"restarts": 0}],
    ids=["nan-target", "inf-target", "zero-target", "p-start-0", "p-cap-below-start",
         "restarts-0"],
)
def test_config_rejects_bad_search_settings(tmp_path, capsys, monkeypatch, bad):
    # the settings fail when the config is built, before any graph or feature
    with pytest.raises(InvalidParamsError):
        dataclasses.replace(TINY, **bad)
    calls = []
    monkeypatch.setattr(dataset, "feature_vector", lambda *a: calls.append(a))
    flags = {"target_ratio": "--target-ratio", "p_start": "--p-start", "p_cap": "--p-cap",
             "restarts": "--restarts"}
    argv = [f"{flags[k]}={v}" for k, v in bad.items()]
    out = tmp_path / "d.jsonl"
    assert main(argv + ["gen-dataset", "--out", str(out), "--max-n", "6"]) == 2
    assert calls == [] and not out.exists()
    assert "Traceback" not in capsys.readouterr().err


def test_generation_starts_no_more_workers_than_tasks(tmp_path, monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, tasks):
            return map(func, tasks)

    monkeypatch.setattr(dataset.multiprocessing, "Pool", RecordingPool)
    path = tmp_path / "tiny.jsonl"
    two_left = dataclasses.replace(TINY, families=TINY.families[:2])
    assert run_generation(two_left, path) == 2
    assert run_generation(TINY, path, workers=64) == 2
    assert started == [2]
    serial = tmp_path / "serial.jsonl"
    run_generation(TINY, serial)
    assert path.read_bytes() == serial.read_bytes()


def test_split_dataset_stratified():
    records = (
        [make_record(i, "a", 3) for i in range(6)]
        + [make_record(10 + i, "b", 4) for i in range(5)]
        + [make_record(20 + i, "c", 5) for i in range(2)]
    )
    train, test = split_dataset(records, SplitSpec(test_fraction=0.3, seed=0))
    assert len(train) + len(test) == 13
    test_by_family = {}
    for rec in test:
        test_by_family[rec.family] = test_by_family.get(rec.family, 0) + 1
    assert test_by_family == {"a": 2, "b": 2, "c": 1}
    # splits preserve input order
    ids = [r.id for r in records]
    assert [r.id for r in train] == [i for i in ids if i in {r.id for r in train}]
    again = split_dataset(records, SplitSpec(test_fraction=0.3, seed=0))
    assert [r.id for r in again[1]] == [r.id for r in test]
    with pytest.raises(InvalidParamsError):
        SplitSpec(test_fraction=0.0)
    with pytest.raises(InvalidParamsError):
        SplitSpec(test_fraction=1.0)


def test_train_models_needs_enough_depths():
    with pytest.raises(InsufficientDataError):
        train_models(learnable_records(20), SplitSpec(seed=0))


def test_train_models_synthetic():
    records = learnable_records(48)
    predictor, report = train_models(records, SplitSpec(seed=0))
    assert report.n_train + report.n_test == 48
    assert report.censored_train + report.censored_test == 3
    assert math.isfinite(report.regression.test_err)
    assert len(report.correlations) == 10
    # depth was built from feature 0, so the regressor must track it closely
    assert report.regression.test_err < 1.5
    text = report.to_text()
    assert "pearson r" in text and "ensemble" in text
    assert text == (
        "trained on 32 records (3 censored), tested on 16 (0 censored)\n"
        "regressor gamma=1, lambda=0.0001 (5-fold CV median |err| 0.000)\n"
        "ensemble gamma=0.01, lambda=0.0001 (5-fold CV median |err| 0.554)\n"
        "\n"
        "feature           pearson r  expected  match\n"
        "log_aut               1.000         -     NO\n"
        "avg_log_aut_1         1.000         -     NO\n"
        "avg_log_aut_2         1.000         -     NO\n"
        "n_vertices            1.000         +    yes\n"
        "n_orbits              1.000         +    yes\n"
        "avg_orbits_1          1.000         +    yes\n"
        "avg_orbits_2          1.000         +    yes\n"
        "entropy               1.000         -     NO\n"
        "avg_entropy_1         1.000         -     NO\n"
        "avg_entropy_2         1.000         -     NO\n"
        "\n"
        "model         train median |err|  test median |err|  test pearson\n"
        "regression                 0.000              0.000         1.000\n"
        "ensemble                   0.429              0.653         0.993\n"
    )
    lines = report.scatter_csv().splitlines()
    assert lines[0] == "id,family,n,true_pmin,pred_regression,pred_ensemble"
    assert len(lines) == report.n_test + 1
    # training twice is bit-for-bit reproducible
    predictor2, _ = train_models(records, SplitSpec(seed=0))
    q = np.array(records[5].features)
    assert predictor.predict_regression(q) == predictor2.predict_regression(q)
    assert predictor.predict_ensemble(q) == predictor2.predict_ensemble(q)


def test_dataset_report_text():
    text = dataset_report(learnable_records(12))
    assert "fam0" in text
    assert "total" in text


def petersen_file(tmp_path):
    path = tmp_path / "petersen.edges"
    code = main(["gen-graphs", "--family", "hand-picked", "--name", "petersen",
                 "--out", str(path)])
    assert code == 0
    return path


def test_cli_gen_graphs_and_features(tmp_path, capsys):
    path = tmp_path / "k4.edges"
    assert main(["gen-graphs", "--family", "complete", "--n", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["features", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 4 and data["m"] == 6
    assert data["log_aut"] == pytest.approx(math.log(24), abs=1e-9)
    assert data["n_orbits"] == 1


def test_cli_features_max_pairs_samples_small_graphs(tmp_path, capsys, monkeypatch):
    # one rule for every graph: more than features.MAX_PAIRS two-edge deletion
    # pairs means a sample of that many, whatever the edge count
    path = tmp_path / "petersen.edges"
    main(["gen-graphs", "--family", "hand-picked", "--name", "petersen", "--out", str(path)])
    capsys.readouterr()
    out = {}
    for cap in (None, 105, 40):
        if cap:
            monkeypatch.setattr(features, "MAX_PAIRS", cap)
        assert main(["features", str(path), "--json"]) == 0
        out[cap] = json.loads(capsys.readouterr().out)
    assert out[105] == out[None]  # C(15, 2) = 105 pairs: no sample
    assert out[40]["avg_orbits_2"] != out[None]["avg_orbits_2"]
    assert out[40]["avg_orbits_1"] == out[None]["avg_orbits_1"]


def test_cli_gen_graphs_stdout(capsys):
    assert main(["gen-graphs", "--family", "cycle", "--n", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "5"
    assert len(out) == 6


def test_cli_simulate_single_edge(tmp_path, capsys):
    path = tmp_path / "k2.edges"
    main(["gen-graphs", "--family", "complete", "--n", "2", "--out", str(path)])
    capsys.readouterr()
    probs = tmp_path / "probs.csv"
    sched = f"{math.pi / 8},0,{math.pi / 2},0"
    code = main(["simulate", str(path), "--depth", "1", "--schedule", sched,
                 "--probs", str(probs), "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["optimum_cut"] == 1
    assert data["ratio"] == pytest.approx(1.0, abs=1e-12)
    lines = probs.read_text().splitlines()
    assert lines[0] == "bitstring,probability"
    assert len(lines) == 5


def test_cli_simulate_reports_the_engine_expectation(tmp_path, capsys):
    # ratio * optimum missed the engine's expectation by one bit on this
    # schedule; the expectation is printed as the engine gives it and the
    # ratio is divided from it, with the bits ratio_of gives
    path = petersen_file(tmp_path)
    capsys.readouterr()
    x = [1.66, 1.44, 0.39, 4.03]
    assert main(["simulate", str(path), "--depth", "3", "--schedule", ",".join(map(str, x)),
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    ev = ScheduleEvaluator(named("petersen"))
    angles = LinearSchedule(3, *x).expand()
    want = ev.engine.expectation(angles.betas, angles.gammas)
    assert want != ev.ratio_of(3, x) * ev.optimum
    assert data["expectation"].hex() == want.hex()
    assert data["ratio"].hex() == ev.ratio_of(3, x).hex()


@pytest.mark.parametrize("sched", ["nan,0,0,0", "0,inf,0,0", "0,0,-inf,0", "0,0,0,NaN"])
def test_cli_simulate_rejects_non_finite_schedule(tmp_path, capsys, sched):
    path = tmp_path / "k2.edges"
    write_edge_list(complete(2), path)
    assert main(["simulate", str(path), "--depth", "1", "--schedule", sched]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err and "expected cut" not in captured.out


def test_cli_rejects_non_utf8_graph_file(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_bytes(b"2\n0 1\xff\n")
    with pytest.raises(ParseError, match="bad.edges"):
        read_edge_list(path)
    for verb in (["features"], ["reduce"], ["verify"], ["pmin"]):
        assert main([*verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.edges" in err and "Traceback" not in err


@pytest.mark.parametrize("graph", [complete(2), trivial_aut_graph(12, 3, seed=2)])
def test_cli_simulate_probs_match_engine(tmp_path, capsys, graph):
    # K2 is evaluated in its orbit basis, the n = 12 graph by the statevector
    # engine that --probs reuses; both must write the statevector's CSV bytes
    path = tmp_path / "g.edges"
    write_edge_list(graph, path)
    probs = tmp_path / "probs.csv"
    assert main(["simulate", str(path), "--depth", "3", "--schedule", "0.3,0.1,0.2,0.6",
                 "--probs", str(probs)]) == 0
    schedule = LinearSchedule(3, 0.3, 0.1, 0.2, 0.6)
    state = Engine(maxcut_diagonal(graph)).statevector(schedule.expand())
    assert probs.read_bytes() == "".join(probability_rows(state)).encode()


def test_cli_simulate_over_memory_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", 1 << 20)
    path = tmp_path / "c17.edges"
    write_edge_list(cycle(17), path)
    assert main(["simulate", str(path), "--depth", "1", "--schedule", "0.3,0.1,0.2,0.6"]) == 3
    assert "budget" in capsys.readouterr().err


def test_cli_reduce_complete8(tmp_path, capsys):
    path = tmp_path / "k8.edges"
    main(["gen-graphs", "--family", "complete", "--n", "8", "--out", str(path)])
    capsys.readouterr()
    assert main(["reduce", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["flip_off"]["dim"] == 9
    assert data["flip_on"]["dim"] == 5
    assert data["flip_on"]["routes_agree"] is True
    assert data["flip_on"]["group_order"] == 2 * math.factorial(8)


def test_cli_reduce_searches_once(tmp_path, capsys, monkeypatch):
    # both flip settings share one automorphism search
    calls = []

    def counting(g, *args, **kwargs):
        calls.append(g.n)
        return autgroup.automorphism_generators(g, *args, **kwargs)

    for module in (cli, reduced):
        monkeypatch.setattr(module, "automorphism_generators", counting)
    path = petersen_file(tmp_path)
    capsys.readouterr()
    assert main(["reduce", str(path), "--json"]) == 0
    assert calls == [10]
    data = json.loads(capsys.readouterr().out)
    assert (data["flip_off"]["dim"], data["flip_on"]["dim"]) == (34, 18)


def _reduce_json(off: tuple[int, int], on: tuple[int, int]) -> dict:
    """reduce --json for (dim, group_order) without and with the flip."""
    return {key: {"dim": dim, "group_order": order, "routes_agree": True}
            for key, (dim, order) in (("flip_off", off), ("flip_on", on))}


def test_cli_symmetry_output_pinned(tmp_path, capsys):
    # every integer and boolean field of reduce --json and verify --json; the
    # spreads depend on numpy's SIMD loops, so only their bound is checked
    cases = [
        (GraphFamily("hand-picked", {"graph": "petersen"}), (34, 120), (18, 240), (18, 240, 5)),
        (GraphFamily("cycle", {"n": 14}), (687, 28), (362, 56), (362, 56, 3)),
        (GraphFamily("complete", {"n": 9}), (10, 362880), (5, 725760), (5, 725760, 9)),
        (GraphFamily("wheel", {"n": 13}), (448, 24), (224, 48), (224, 48, 3)),
    ]
    path = tmp_path / "g.edges"
    for family, off, on, (orbits, order, checked) in cases:
        write_edge_list(generate(family), path)
        capsys.readouterr()
        assert main(["reduce", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == _reduce_json(off, on)
        assert main(["verify", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert max(data.pop("probability_spread"), data.pop("amplitude_spread")) <= 1e-12
        assert data == {"orbits": orbits, "group_order": order, "conditions_checked": checked,
                        "conditions_ok": True, "ok": True}


@pytest.mark.parametrize("family, off, on", [
    (GraphFamily("complete", {"n": 9}), (10, 362880), (5, 725760)),
    (GraphFamily("cycle", {"n": 14}), (687, 28), (362, 56)),
], ids=["complete-n9", "cycle-n14"])
def test_cli_reduce_json_bytes(tmp_path, capsys, family, off, on):
    path = tmp_path / "g.edges"
    write_edge_list(generate(family), path)
    capsys.readouterr()
    assert main(["reduce", str(path), "--json"]) == 0
    blocks = [
        f'  "{key}": {{\n    "dim": {dim},\n    "group_order": {order},\n'
        f'    "routes_agree": true\n  }}'
        for key, (dim, order) in (("flip_off", off), ("flip_on", on))
    ]
    assert capsys.readouterr().out == "{\n" + ",\n".join(blocks) + "\n}\n"


def test_cli_reduce_at_the_bitstring_cap(tmp_path, capsys):
    # n = 20 is the largest n whose 2^n bitstrings are labelled, and the
    # group is trivial, so every string is its own orbit (half, with the flip)
    path = tmp_path / "g.edges"
    write_edge_list(trivial_aut_graph(20, 3, seed=2), path)
    capsys.readouterr()
    assert main(["reduce", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == _reduce_json((1 << 20, 1), (1 << 19, 2))


def test_cli_verify(tmp_path, capsys):
    path = petersen_file(tmp_path)
    capsys.readouterr()
    assert main(["verify", str(path), "--depth", "2"]) == 0
    out = capsys.readouterr().out
    assert "verify: OK" in out


def test_cli_verify_size_limit(tmp_path, capsys):
    path = tmp_path / "c22.edges"
    main(["gen-graphs", "--family", "cycle", "--n", "22", "--out", str(path)])
    assert main(["verify", str(path)]) == 3


def test_cli_verify_condition_cap(tmp_path, capsys):
    # the commutation checks run up to simulator.CONDITION_N_CAP and are
    # skipped above it, while the orbit-spread check still runs
    cap = simulator.CONDITION_N_CAP
    for n, want_checked in ((cap, True), (cap + 1, False)):
        path = tmp_path / f"c{n}.edges"
        main(["gen-graphs", "--family", "cycle", "--n", str(n), "--out", str(path)])
        capsys.readouterr()
        assert main(["verify", str(path), "--depth", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["conditions_checked"] > 0) == want_checked
        assert data["ok"] is True


def test_cli_pmin(tmp_path, capsys):
    path = tmp_path / "k2.edges"
    main(["gen-graphs", "--family", "complete", "--n", "2", "--out", str(path)])
    capsys.readouterr()
    trace = tmp_path / "trace.csv"
    code = main(["--p-start", "1", "--p-cap", "2", "--restarts", "2",
                 "pmin", str(path), "--trace", str(trace), "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {f.name for f in dataclasses.fields(PminOutcome)}
    assert set(data["best_schedule"]) == {f.name for f in dataclasses.fields(LinearSchedule)}
    assert data["p_min"] == 1
    assert data["censored"] is False
    assert data["ratio_achieved"] >= 0.95
    assert trace.read_text().startswith("p,best_ratio,")


def test_cli_pmin_refuses_restarts_above_budget(tmp_path, capsys, monkeypatch):
    # a start table over the memory budget exits 3 with a message, where it
    # raised an uncaught MemoryError; the budget is lowered so that nothing
    # large is ever asked for
    path = tmp_path / "k2.edges"
    main(["gen-graphs", "--family", "complete", "--n", "2", "--out", str(path)])
    monkeypatch.setattr(simulator, "MEMORY_BUDGET", 64 * 99)
    capsys.readouterr()
    assert main(["--p-start", "1", "--p-cap", "1", "--restarts", "100", "pmin", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the start points of 100 restarts") and "Traceback" not in err


@pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
def test_cli_pmin_rejects_non_finite_target(tmp_path, capsys, target):
    path = petersen_file(tmp_path)
    capsys.readouterr()
    code = main([f"--target-ratio={target}", "--p-cap", "3", "--restarts", "1", "pmin", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err and "Traceback" not in captured.err


def test_cli_rejects_graphs_above_255_vertices(tmp_path, capsys):
    # the automorphism search stops before it starts, not in a RecursionError
    path = tmp_path / "big.edges"
    write_edge_list(Graph.from_edges(3000, [(0, 1), (2, 3)]), path)
    for verb in ("features", "reduce"):
        capsys.readouterr()
        assert main([verb, str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "255" in err and "Traceback" not in err


def test_cli_refuses_depth_above_cap(tmp_path, capsys, monkeypatch):
    # each depth input above DEPTH_CAP exits 3 before it builds an angle array,
    # and a search cap above it before any graph is built or file opened
    path = tmp_path / "path3.edges"
    write_edge_list(Graph.from_edges(3, [(0, 1), (1, 2)]), path)
    calls = []
    read = cli.read_edge_list
    monkeypatch.setattr(cli, "read_edge_list", lambda p: calls.append("read") or read(p))
    for name in ("Engine", "ScheduleEvaluator"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: calls.append(name))
    monkeypatch.setattr(dataset, "feature_vector", lambda *a: calls.append("features"))
    over = str(DEPTH_CAP + 1)
    out = tmp_path / "d.jsonl"
    for argv in (["verify", str(path), "--depth", over],
                 ["simulate", str(path), "--depth", over, "--schedule", "0.1,0.2,0.3,0.4"],
                 ["--p-cap", over, "--restarts", "1", "--target-ratio", "0.5", "pmin", str(path)],
                 ["--p-cap", over, "gen-dataset", "--out", str(out), "--max-n", "6"]):
        capsys.readouterr()
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert f"depth must be <= {DEPTH_CAP}, got {over}" in err and "Traceback" not in err
    assert not out.exists()
    assert calls == ["read", "read"]  # verify and simulate read the graph first


@pytest.mark.parametrize(
    "flags,vertices",
    [(["--family", "complete", "--n"], (256, 255)), (["--family", "ladder", "--k"], (128, 127)),
     (["--family", "random-regular", "--k", "3", "--graph-seed", "1", "--n"], (258, 254)),
     (["--family", "grid2d", "--rows", "16", "--cols"], (16, 15))],
    ids=["complete", "ladder", "random-regular", "grid2d"],
)
def test_cli_gen_graphs_degree_cap(tmp_path, capsys, monkeypatch, flags, vertices):
    # a graph above DEGREE_CAP vertices is refused before any edge is built
    over, under = vertices
    out = tmp_path / "g.edges"
    built = []
    monkeypatch.setattr(cli, "generate", lambda fam: built.append(fam))
    assert main(["gen-graphs", *flags, str(over), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"n <= {autgroup.DEGREE_CAP}" in err and "Traceback" not in err
    assert built == [] and not out.exists()
    monkeypatch.undo()
    assert main(["gen-graphs", *flags, str(under), "--out", str(out)]) == 0
    assert read_edge_list(out).n <= autgroup.DEGREE_CAP


@pytest.mark.parametrize("argv", [
    ["--seed", "-1", "verify", "g.edges"],
    ["--seed", "-1", "pmin", "g.edges"],
    ["--seed", "-1", "train", "--dataset", "d.jsonl", "--model-out", "m.txt"],
    ["gen-graphs", "--family", "random-regular", "--n", "8", "--k", "3", "--graph-seed", "-1"],
], ids=["verify", "pmin", "train", "gen-graphs"])
def test_cli_refuses_negative_seeds(capsys, argv):
    # numpy's generators refuse a negative seed; argparse refuses it first
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    flag = "--graph-seed" if "--graph-seed" in argv else "--seed"
    assert f"argument {flag}: must be >= 0, got -1" in err and "Traceback" not in err


def test_cached_feature_seeds_follow_the_sampling_rule():
    # a record stores its pair-sample seed exactly when its graph samples pairs
    records = load_dataset(DATASET_PATH)
    sampled = {rec.id for rec in records if features.samples_pairs(rec.graph())}
    assert len(records) == 130
    assert sampled == {"complete-n12", "complete-n13", "complete-n14"}
    seed = acceptance_config().seed
    for rec in records:
        want = instance_seed(seed, rec.id, "features") if rec.id in sampled else None
        assert rec.feature_seed == want, rec.id


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["features", str(tmp_path / "missing.edges")]) == 2
    bad = tmp_path / "bad.edges"
    bad.write_text("not an edge list\n")
    assert main(["features", str(bad)]) == 2
    k2 = tmp_path / "k2.edges"
    main(["gen-graphs", "--family", "complete", "--n", "2", "--out", str(k2)])
    assert main(["simulate", str(k2), "--depth", "1", "--schedule", "1,2,3"]) == 2
    assert main(["gen-graphs", "--family", "grid2d", "--rows", "2"]) == 2
    assert main(["gen-graphs", "--family", "random-regular", "--n", "8", "--k", "3"]) == 2
    with pytest.raises(SystemExit, match="2"):
        main(["gen-graphs", "--family", "custom", "--n", "4"])
    for depth in ("0", "-1", "-2"):
        capsys.readouterr()
        assert main(["verify", str(k2), "--depth", depth]) == 2
        assert "depth" in capsys.readouterr().err


def test_cli_train_predict_report(tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    with open(dataset, "w", encoding="utf-8") as fh:
        for rec in learnable_records(48):
            fh.write(record_line(rec) + "\n")
    model = tmp_path / "model.txt"
    report = tmp_path / "report.txt"
    scatter = tmp_path / "scatter.csv"
    code = main(["train", "--dataset", str(dataset), "--model-out", str(model),
                 "--report-out", str(report), "--scatter-out", str(scatter)])
    assert code == 0
    capsys.readouterr()
    assert "pearson r" in report.read_text()
    assert scatter.read_text().startswith("id,family,n,")
    loaded = load_model(model)

    feats = ",".join(str(v) for v in learnable_records(48)[5].features)
    assert main(["predict", "--model", str(model), "--features", feats, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["regression"] == pytest.approx(
        loaded.predict_regression(np.array(learnable_records(48)[5].features))
    )
    assert "ensemble" in data

    k4 = tmp_path / "k4.edges"
    main(["gen-graphs", "--family", "complete", "--n", "4", "--out", str(k4)])
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--graph", str(k4)]) == 0
    assert "regression predicts" in capsys.readouterr().out

    assert main(["predict", "--model", str(model), "--graph", str(k4),
                 "--features", feats]) == 2
    assert main(["predict", "--model", str(model), "--features", "1,2"]) == 2

    assert main(["report", "--dataset", str(dataset)]) == 0
    out = capsys.readouterr().out
    assert "fam0" in out and "total" in out


def test_cli_gen_dataset_tiny(tmp_path, capsys):
    out = tmp_path / "tiny.jsonl"
    args = ["--p-start", "1", "--p-cap", "3", "--restarts", "2",
            "--target-ratio", "0.7", "gen-dataset", "--out", str(out), "--max-n", "6"]
    assert main(args) == 0
    stdout = capsys.readouterr().out
    records = load_dataset(out)
    assert f"wrote {len(records)} new records" in stdout
    assert len(records) == len(standard_profile(6))
    assert main(args) == 0
    assert "wrote 0 new records" in capsys.readouterr().out
    assert complete(3).edges == records[0].graph().edges


def test_cli_gen_dataset_refuses_max_n_above_statevector_cap(tmp_path, capsys):
    out = tmp_path / "big.jsonl"
    assert main(["gen-dataset", "--out", str(out), "--max-n", "27"]) == 3
    assert not out.exists()
    assert f"max_n <= {simulator.MAX_QUBITS}" in capsys.readouterr().err
