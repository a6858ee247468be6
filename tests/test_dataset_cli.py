"""Dataset pipeline and command-line behavior, including spec'd exit codes."""

import json
import math

import numpy as np
import pytest

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
from symqaoa.errors import InsufficientDataError, InvalidParamsError, ParseError
from symqaoa.features import feature_vector
from symqaoa.graphs import GraphFamily, complete
from symqaoa.mlmodel import load_model

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
        best_schedule={"p": 2, "beta_start": 0.1, "beta_end": 0.2,
                       "gamma_start": 0.3, "gamma_end": 0.4},
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
    assert rec.schedule().p == 2


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
    # line is cut off and its instance generated again
    path.write_bytes(whole[: -len(last) // 2])
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


def test_generation_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    run_generation(TINY, serial, workers=1)
    run_generation(TINY, parallel, workers=2)
    assert serial.read_bytes() == parallel.read_bytes()


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
    assert math.isfinite(report.reg_test_err)
    assert len(report.correlations) == 10
    # depth was built from feature 0, so the regressor must track it closely
    assert report.reg_test_err < 1.5
    text = report.to_text()
    assert "pearson r" in text and "ensemble" in text
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


def test_cli_pmin(tmp_path, capsys):
    path = tmp_path / "k2.edges"
    main(["gen-graphs", "--family", "complete", "--n", "2", "--out", str(path)])
    capsys.readouterr()
    trace = tmp_path / "trace.csv"
    code = main(["--p-start", "1", "--p-cap", "2", "--restarts", "2",
                 "pmin", str(path), "--trace", str(trace), "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["p_min"] == 1
    assert data["censored"] is False
    assert data["ratio_achieved"] >= 0.95
    assert trace.read_text().startswith("p,best_ratio,")


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
