"""Property tests: the vectorised Burnside tally and the block enumerator
against the one-element-at-a-time oracles, on random generator sets and on
the automorphism groups of random graphs, n <= 8, with the flip on and off;
and the model-file and record-line parsers on damaged input, which they must
reject with ParseError alone."""

import json
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from acceptance_profile import DATASET_PATH
from symqaoa.autgroup import PermGroup, automorphism_generators, iter_elements
from symqaoa.cli import main
from symqaoa.dataset import parse_record
from symqaoa.errors import ParseError
from symqaoa.features import FEATURE_NAMES
from symqaoa.graphs import Graph
from symqaoa.mlmodel import (
    PminPredictor,
    Standardizer,
    load_model,
    save_model,
    train_ordinal,
    train_regressor,
)
from symqaoa.reduced import BitstringGroup, quotient_dimension

N_MAX = 8
# oracles.burnside_count walks every bitstring of every element in Python
BRUTE_BURNSIDE_STEPS = 1 << 16


@st.composite
def generator_sets(draw):
    n = draw(st.integers(1, N_MAX))
    gens = draw(st.lists(st.permutations(range(n)), max_size=3))
    return PermGroup(n, tuple(gens))


@st.composite
def graph_groups(draw):
    n = draw(st.integers(1, N_MAX))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return automorphism_generators(Graph.from_edges(n, edges))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(grp=st.one_of(generator_sets(), graph_groups()), flip=st.booleans())
def test_burnside_tally_matches_oracles(grp, flip):
    elements = oracles.chain_product_elements(grp)
    assert list(iter_elements(grp)) == elements
    q = quotient_dimension(BitstringGroup(grp.n, grp, flip))
    assert q.fixed_counts == oracles.burnside_fixed_counts(grp, flip)
    if len(elements) << grp.n <= BRUTE_BURNSIDE_STEPS:
        assert q.burnside_avg == oracles.burnside_count(grp.n, elements, flip)


def saved_model_lines(tmp_dir) -> list[str]:
    """A small predictor over the ten features, saved and read back as lines."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(12, len(FEATURE_NAMES)))
    y = np.clip(np.round(5.0 + 2.0 * x[:, 0]), 2, 9)
    std = Standardizer.fit(x)
    z = std.apply(x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ens = train_ordinal(z, y, 0.5, 0.01, cutoffs=(4, 5, 6, 7))
    pred = PminPredictor(std, train_regressor(z, y, 0.5, 0.01), ens, 0.5, 0.01)
    path = tmp_dir / "model.txt"
    save_model(pred, path)
    return path.read_text().splitlines()


@st.composite
def damaged_models(draw, lines):
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["delete", "truncate", "duplicate", "token"]))
    lines = list(lines)
    if how == "delete":
        del lines[i]
    elif how == "truncate":
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i]) - 1))]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    else:
        tokens = lines[i].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.text(max_size=12))
        lines[i] = " ".join(tokens)
    return how, "\n".join(lines) + "\n"


def test_damaged_model_files_raise_parse_error(tmp_path_factory):
    work = tmp_path_factory.mktemp("models")
    lines = saved_model_lines(work)
    path = work / "damaged.txt"
    feats = ",".join(["0.5"] * len(FEATURE_NAMES))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(damage=damaged_models(lines))
    def check(damage):
        how, text = damage
        path.write_text(text, encoding="utf-8")
        try:
            load_model(path)
        except ParseError:
            assert main(["predict", "--model", str(path), "--features", feats]) == 2
        else:
            # a lost or repeated line never passes; a shortened line or a new
            # token can still spell a valid number
            assert how in ("truncate", "token")
            assert main(["predict", "--model", str(path), "--features", feats]) == 0

    check()


def json_kind(value) -> str:
    if value is None or isinstance(value, (bool, str, list, dict)):
        return type(value).__name__
    return "number"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=11) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_retyped_record_fields_raise_parse_error(data):
    with open(DATASET_PATH, encoding="utf-8") as fh:
        record = json.loads(fh.readline())  # complete-n3
    field = data.draw(st.sampled_from(sorted(record)))
    was = record[field]
    record[field] = data.draw(JSON_VALUES.filter(lambda v: json_kind(v) != json_kind(was)))
    try:
        parse_record(json.dumps(record))
    except ParseError:
        return
    # only a null field (graph_seed, feature_seed, seconds) takes another
    # type, a number
    assert was is None and json_kind(record[field]) == "number"
