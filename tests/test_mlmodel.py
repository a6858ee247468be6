"""Kernel models, the ordinal ensemble, metrics, and model persistence."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from acceptance_profile import DATASET_PATH
from symqaoa.cli import main
from symqaoa.dataset import SplitSpec, load_dataset, split_dataset
from symqaoa.errors import (
    ConstantInputError,
    DegenerateLabelsError,
    InvalidParamsError,
    ParseError,
    SingularSystemError,
    SizeLimitError,
)
from symqaoa.features import FEATURE_NAMES
from symqaoa.mlmodel import (
    LAMBDA_GRID,
    LOGISTIC_ITERS,
    LOGISTIC_STEP,
    OrdinalEnsemble,
    PminPredictor,
    Standardizer,
    cross_validate,
    cross_validate_ordinal,
    kernel_matrix,
    ordinal_scores,
    load_model,
    median_abs_err,
    pearson_r,
    predict_ordinal,
    predict_regressor,
    save_model,
    stratified_folds,
    train_ordinal,
    train_regressor,
    _train_stacked,
)


def test_standardizer_basics():
    x = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 20.0]])
    std = Standardizer.fit(x)
    assert std.means == pytest.approx([3.0, 20.0])
    assert std.stds == pytest.approx([math.sqrt(8 / 3), math.sqrt(200 / 3)])
    z = std.apply(x)
    assert z.mean(axis=0) == pytest.approx([0.0, 0.0], abs=1e-15)
    assert z.std(axis=0) == pytest.approx([1.0, 1.0])


def test_standardizer_constant_column():
    x = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
    with pytest.warns(UserWarning, match=r"^1 constant feature column\(s\); leaving scale 1$"):
        std = Standardizer.fit(x)
    assert std.stds[0] == pytest.approx(math.sqrt(2 / 3))
    assert std.stds[1] == 1.0
    assert std.apply(x)[:, 1] == pytest.approx([0.0, 0.0, 0.0])
    with pytest.raises(InvalidParamsError):
        Standardizer.fit(np.array([1.0, 2.0]))


def test_rbf_values():
    assert oracles.rbf([0.0, 0.0], [0.0, 0.0], 1.0) == 1.0
    assert oracles.rbf([1.0, 0.0], [0.0, 0.0], 0.5) == pytest.approx(math.exp(-0.5))
    assert oracles.rbf([1.0, 2.0], [4.0, 6.0], 0.1) == pytest.approx(math.exp(-2.5))
    with pytest.raises(InvalidParamsError):
        kernel_matrix(np.ones((1, 1)), np.ones((1, 1)), 0.0)


def test_kernel_matrix_matches_pairwise():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(4, 3))
    k = kernel_matrix(a, b, 0.7)
    for i in range(5):
        for j in range(4):
            assert k[i, j] == pytest.approx(oracles.rbf(a[i], b[j], 0.7), abs=1e-14)


def test_regressor_interpolates_at_zero_ridge():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 2))
    y = rng.normal(size=8)
    model = train_regressor(x, y, gamma=0.5, lam=0.0)
    assert predict_regressor(model, x) == pytest.approx(y, abs=1e-8)


def test_regressor_matches_ridge_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 4))
    y = rng.normal(size=10)
    q = rng.normal(size=(6, 4))
    want = oracles.ridge_fit_predict(x, y, q, gamma=0.3, lam=0.01)
    got = predict_regressor(train_regressor(x, y, 0.3, 0.01), q)
    assert got == pytest.approx(want, abs=1e-10)


def test_regressor_validation():
    x = np.zeros((3, 2))
    with pytest.raises(SingularSystemError):
        # duplicate rows make the kernel matrix exactly singular at lam = 0
        train_regressor(np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([1.0, 2.0]), 1.0, 0.0)
    with pytest.raises(InvalidParamsError):
        train_regressor(x, np.zeros(2), 1.0, 0.1)
    with pytest.raises(InvalidParamsError):
        train_regressor(x, np.zeros(3), 1.0, -0.1)
    model = train_regressor(np.eye(3), np.arange(3.0), 1.0, 0.1)
    with pytest.raises(InvalidParamsError):
        predict_regressor(model, np.zeros(4))


def test_batched_logistic_matches_per_classifier_oracle():
    # every (lambda, cutoff) column of one batched descent must reproduce its
    # own one-classifier descent on the same kernel
    rng = np.random.default_rng(11)
    y = rng.integers(2, 12, size=24).astype(np.float64)
    y[[3, 17]] = math.inf  # censored rows fall above every cutoff
    x = y[:, None] / 4.0 + rng.normal(0.0, 0.3, size=(24, 3))
    x[[3, 17]] = rng.normal(3.0, 0.3, size=(2, 3))
    k = kernel_matrix(x, x, 0.5)
    lams = LAMBDA_GRID[:2] + LAMBDA_GRID[-2:]
    with pytest.warns(UserWarning, match="cutoff 1 does not split"):
        retained, alpha, bias, sigmas = _train_stacked([k], [y], (1, 4, 7, 10), lams)[0]
    assert retained == (4, 7, 10)
    assert alpha.shape == (24, len(lams) * len(retained))
    for j in range(alpha.shape[1]):
        lam, cutoff = lams[j // len(retained)], retained[j % len(retained)]
        t = (y < cutoff).astype(np.float64)
        want_w, want_b = oracles.logistic_fit(k, t, lam, LOGISTIC_ITERS, LOGISTIC_STEP)
        assert np.max(np.abs(alpha[:, j] - want_w)) <= 1e-12
        assert abs(bias[j] - want_b) <= 1e-12
        assert sigmas[j] == pytest.approx((k @ want_w + want_b).std(), abs=1e-12)


def test_stacked_descent_matches_each_kernel_trained_alone():
    # kernels of 17, 24 and 20 rows descend together, zero-padded to 24; each
    # must come out bit for bit as its own descent, and the 19-row kernel,
    # whose labels keep other cutoffs, descends in a stack of its own
    rng = np.random.default_rng(29)
    kernels, labels = [], []
    for rows, top in ((17, 12), (24, 12), (19, 9), (20, 12)):
        y = rng.integers(2, top, size=rows).astype(np.float64)
        y[rng.choice(rows, 2, replace=False)] = math.inf
        x = y[:, None] / 4.0 + rng.normal(0.0, 0.3, size=(rows, 3))
        x[np.isinf(y)] = rng.normal(3.0, 0.3, size=(2, 3))
        kernels.append(kernel_matrix(x, x, 0.5))
        labels.append(y)
    labels[2][labels[2] > 8] = 8.0  # no finite label reaches 10
    lams = LAMBDA_GRID[:2] + LAMBDA_GRID[-2:]
    cutoffs = (3, 5, 7, 10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fits = _train_stacked(kernels, labels, cutoffs, lams)
    assert [str(w.message) for w in caught] == ["cutoff 10 does not split the labels; dropped"]
    assert [fit[0] for fit in fits] == [(3, 5, 7, 10)] * 2 + [(3, 5, 7), (3, 5, 7, 10)]
    for k, y, fit in zip(kernels, labels, fits):
        want = oracles.train_classifiers_alone(k, y, cutoffs, lams, LOGISTIC_ITERS, LOGISTIC_STEP)
        assert fit[0] == want[0]
        for got, alone in zip(fit[1:], want[1:]):
            assert got.shape == alone.shape and np.array_equal(got, alone)
    # one kernel alone is the same descent
    one = _train_stacked([kernels[1]], [labels[1]], cutoffs, lams)[0]
    assert all(np.array_equal(a, b) for a, b in zip(one[1:], fits[1][1:]))


def test_stacked_descent_refuses_degenerate_folds():
    # every fold needs 3 splitting cutoffs, as when each trained alone
    y = np.arange(2.0, 14.0)
    k = kernel_matrix(y[:, None], y[:, None], 0.5)
    with pytest.warns(UserWarning, match="does not split"):
        with pytest.raises(DegenerateLabelsError, match="only 2 cutoff"):
            _train_stacked([k, k[:4, :4]], [y, y[:4]], (3, 4, 7, 10), (1e-3,))


def test_cross_validate_ordinal_picks_equal_per_fold_oracle():
    # on the cached acceptance split, stacking the folds of a gamma must leave
    # the grid search's (gamma, lambda, error) exactly as fold-by-fold training
    train_recs, _ = split_dataset(load_dataset(DATASET_PATH), SplitSpec())
    x = np.array([r.features for r in train_recs])
    y = np.array([math.inf if r.censored else float(r.p_min) for r in train_recs])
    families = [r.family for r in train_recs]
    for gamma in (0.01, 0.1, 1.0, 10.0):
        got = cross_validate_ordinal(x, y, families, seed=0, gammas=(gamma,), cutoffs=(4, 7, 10))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = oracles.per_fold_cross_validate_ordinal(
                x, y, families, 0, (gamma,), LAMBDA_GRID, (4, 7, 10)
            )
        assert got == want


def test_training_refuses_oversized_inputs_before_allocating():
    # 20,000 rows: every kernel matrix, and the stack of five 16,000-row fold
    # kernels, exceeds MEMORY_BUDGET; each refusal comes before the allocation
    rng = np.random.default_rng(0)
    rows = 20_000
    x = rng.normal(size=(rows, len(FEATURE_NAMES)))
    y = rng.integers(2, 12, size=rows).astype(np.float64)
    families = [f"f{i % 4}" for i in range(rows)]
    zero = np.broadcast_to(np.float64(0.0), (16_000, 16_000))  # no memory behind it
    calls = [
        lambda: kernel_matrix(x, x, 0.1),
        lambda: train_ordinal(x, y, 0.1, 1e-3),
        lambda: train_regressor(x, y, 0.1, 1e-3),
        lambda: cross_validate(x, y, families, seed=0),
        lambda: cross_validate_ordinal(x, y, families, seed=0),
        lambda: _train_stacked([zero] * 5, [y[:16_000]] * 5, (4, 7, 10), LAMBDA_GRID),
    ]
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(SizeLimitError, match="GiB budget"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def two_cluster_data():
    lo = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1]])
    hi = lo + 5.0
    x = np.vstack([lo, hi])
    y = np.array([2.0] * 4 + [9.0] * 4)
    return x, y


def test_ordinal_two_clusters():
    x, y = two_cluster_data()
    with pytest.warns(UserWarning, match="dropped"):
        ens = train_ordinal(x, y, gamma=1.0, lam=1e-3)
    # y < c splits only for c in 3..9
    assert ens.cutoffs == tuple(range(3, 10))
    assert ens.y_min == 2.0
    assert ens.top_class == 9.0
    # deep inside each cluster every classifier agrees, so majority fallbacks fire
    assert predict_ordinal(ens, np.array([0.05, 0.05])) == 2.0
    assert predict_ordinal(ens, np.array([5.05, 5.05])) == 9.0


def test_ordinal_crossing_tracks_label():
    # 1-d feature equal to the depth: the score sign change should land near
    # the query's own label
    y = np.array([2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0])
    x = y[:, None] / 4.0
    ens = train_ordinal(x, y, gamma=2.0, lam=1e-3)
    for true in (4.0, 7.0, 10.0):
        got = predict_ordinal(ens, np.array([true / 4.0]))
        assert abs(got - true) < 1.5


def test_ordinal_censored_labels():
    x, y = two_cluster_data()
    far = np.array([[10.0, 10.0], [10.1, 10.0]])
    x = np.vstack([x, far])
    y = np.append(y, [math.inf, math.inf])  # censored: above every cutoff
    ens = train_ordinal(x, y, gamma=1.0, lam=1e-3)
    # the censored rows keep even cutoff 15 split, so nothing is dropped
    assert ens.cutoffs == tuple(range(3, 16))
    assert ens.top_class == 15.0
    # in the all-censored cluster every classifier votes "not below", which
    # falls back to the top-class marker
    assert predict_ordinal(ens, np.array([10.05, 10.0])) == ens.top_class
    with pytest.raises(DegenerateLabelsError):
        train_ordinal(x, np.full(10, math.inf), 1.0, 1e-3)
    with pytest.raises(DegenerateLabelsError):
        # a single splitting cutoff cannot support the quadratic fit
        train_ordinal(x, y, 1.0, 1e-3, cutoffs=(3,))
    with pytest.raises(InvalidParamsError):
        train_ordinal(x[:1], y[:1], 1.0, 1e-3)


def test_ordinal_refuses_cutoffs_that_do_not_increase():
    # the crossing is searched between the first and the last cutoff, so a
    # shuffled or repeated list would bound the search wrongly
    y = np.arange(2.0, 14.0)
    x = y[:, None] / 4.0
    families = [f"f{i % 3}" for i in range(len(y))]
    for bad in ((9, 3, 11, 5, 7), (3, 5, 5, 7)):
        with pytest.raises(InvalidParamsError, match="cutoffs must increase strictly"):
            train_ordinal(x, y, 2.0, 1e-3, cutoffs=bad)
        with pytest.raises(InvalidParamsError, match="cutoffs must increase strictly"):
            cross_validate_ordinal(x, y, families, seed=1, cutoffs=bad)
    assert train_ordinal(x, y, 2.0, 1e-3, cutoffs=(3, 5, 7, 9, 11)).cutoffs == (3, 5, 7, 9, 11)


def test_grid_searches_refuse_an_empty_grid():
    y = np.arange(2.0, 14.0)
    x = y[:, None] / 4.0
    families = [f"f{i % 3}" for i in range(len(y))]
    for search in (cross_validate, cross_validate_ordinal):
        for grid in ({"gammas": ()}, {"lams": ()}):
            with pytest.raises(InvalidParamsError, match="non-empty grids"):
                search(x, y, families, seed=1, **grid)


def test_ordinal_quality_floor():
    # when every classifier is right about a training point, the quadratic
    # crossing should land within 1 of its depth for at least 80% of them
    rng = np.random.default_rng(42)
    for _ in range(3):
        y = rng.integers(2, 13, size=40).astype(np.float64)
        x = y[:, None] / 4.0 + rng.normal(0.0, 0.05, size=(40, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ens = train_ordinal(x, y, gamma=1.0, lam=1e-3)
        hits = total = 0
        for row, true in zip(x, y):
            d = ordinal_scores(ens, row)
            if not all((s > 0) == (true < c) for s, c in zip(d, ens.cutoffs)):
                continue
            total += 1
            hits += abs(predict_ordinal(ens, row) - true) <= 1.0
        assert total > 10
        assert hits >= 0.8 * total


def test_pearson():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson_r(x, [2.0, 4.0, 6.0, 8.0]) == pytest.approx(1.0)
    assert pearson_r(x, [5.0, 4.0, 3.0, 2.0]) == pytest.approx(-1.0)
    y = [1.0, 3.0, 2.0, 5.0]
    assert pearson_r(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-14)
    with pytest.raises(ConstantInputError):
        pearson_r(x, [7.0] * 4)
    with pytest.raises(InvalidParamsError):
        pearson_r(x, [1.0, 2.0])


def test_median_abs_err():
    assert median_abs_err([1.0, 2.0, 3.0], [1.0, 4.0, 0.0]) == 2.0
    assert median_abs_err([5.0], [3.5]) == 1.5
    with pytest.raises(InvalidParamsError):
        median_abs_err([], [])


def test_stratified_folds():
    families = ["a"] * 8 + ["b"] * 6 + ["c"] * 4
    folds = stratified_folds(families, 5, seed=0)
    assert sorted(len(f) for f in folds) == [3, 3, 4, 4, 4]
    assert sorted(np.concatenate(folds)) == list(range(18))
    # family "a" has 8 members, so every fold sees at least one
    for fold in folds:
        assert any(families[i] == "a" for i in fold)
    again = stratified_folds(families, 5, seed=0)
    for f1, f2 in zip(folds, again):
        assert np.array_equal(f1, f2)


def test_cross_validate_picks_from_grid():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(25, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(scale=0.1, size=25)
    families = [f"f{i % 5}" for i in range(25)]
    gamma, lam, err = cross_validate(x, y, families, seed=1)
    assert gamma in (0.01, 0.1, 1.0, 10.0)
    assert lam in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)
    assert math.isfinite(err) and err >= 0
    assert cross_validate(x, y, families, seed=1) == (gamma, lam, err)
    from symqaoa.errors import InsufficientDataError

    with pytest.raises(InsufficientDataError):
        cross_validate(x[:3], y[:3], families[:3], seed=1)


def test_cross_validate_ordinal():
    rng = np.random.default_rng(3)
    y = rng.integers(2, 13, size=30).astype(np.float64)
    x = y[:, None] / 4.0 + rng.normal(0.0, 0.05, size=(30, 2))
    y[-2:] = math.inf  # censored rows train but are not scored
    families = [f"f{i % 3}" for i in range(30)]
    gamma, lam, err = cross_validate_ordinal(x, y, families, seed=1)
    assert gamma in (0.01, 0.1, 1.0, 10.0)
    assert lam in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)
    # the depth is readable straight off the feature, so held-out predictions
    # should be good; heavy shrinkage would flatten them toward the median
    assert err < 1.5
    assert cross_validate_ordinal(x, y, families, seed=1) == (gamma, lam, err)
    with pytest.raises(DegenerateLabelsError):
        cross_validate_ordinal(x, np.full(30, math.inf), families, seed=1)


def test_cross_validate_ordinal_matches_separate_fits():
    # the batched fold loop must score each (gamma, lambda) as separate
    # train_ordinal fits and predict_ordinal calls per fold do
    rng = np.random.default_rng(4)
    y = rng.integers(2, 13, size=25).astype(np.float64)
    x = y[:, None] / 4.0 + rng.normal(0.0, 0.4, size=(25, 2))
    y[-2:] = math.inf
    families = [f"f{i % 3}" for i in range(25)]
    gammas, lams, cutoffs = (0.1, 1.0), (1e-3, 0.1, 10.0), (4, 7, 10)
    finite = np.isfinite(y)
    errs = {}
    for gamma in gammas:
        for lam in lams:
            preds = np.empty(len(y))
            for fold in stratified_folds(families, 5, seed=2):
                train = np.setdiff1d(np.arange(len(y)), fold)
                std = Standardizer.fit(x[train])
                ens = train_ordinal(std.apply(x[train]), y[train], gamma, lam, cutoffs=cutoffs)
                preds[fold] = [predict_ordinal(ens, q) for q in std.apply(x[fold])]
            errs[gamma, lam] = median_abs_err(preds[finite], y[finite])
    gamma, lam, err = cross_validate_ordinal(
        x, y, families, seed=2, gammas=gammas, lams=lams, cutoffs=cutoffs
    )
    assert errs[gamma, lam] == pytest.approx(err, abs=1e-9)
    assert err <= min(errs.values()) + 1e-9


def build_predictor(dim=3):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, dim))
    y = np.clip(np.round(4.0 + 2.0 * x[:, 0] + rng.normal(scale=0.3, size=20)), 2, 12)
    std = Standardizer.fit(x)
    z = std.apply(x)
    reg = train_regressor(z, y, gamma=0.5, lam=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some cutoffs do not split this tiny y
        ens = train_ordinal(z, y, gamma=0.5, lam=0.01, cutoffs=tuple(range(3, 12)))
    return PminPredictor(std, reg, ens, 0.5, 0.01), rng.normal(size=(7, dim))


def test_persistence_round_trip(tmp_path):
    pred, queries = build_predictor()
    path = tmp_path / "model.txt"
    save_model(pred, path)
    loaded = load_model(path)
    for q in queries:
        assert loaded.predict_regression(q) == pred.predict_regression(q)
        assert loaded.predict_ensemble(q) == pred.predict_ensemble(q)
    # saving the loaded model must reproduce the file byte for byte
    path2 = tmp_path / "model2.txt"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_ensemble_is_one_kernel_model(tmp_path):
    pred, queries = build_predictor()
    ens = pred.ensemble
    assert ens.model.weights.shape == (20, len(ens.cutoffs))
    assert ens.model.bias.shape == ens.sigmas.shape == (len(ens.cutoffs),)
    # the regressor is the one-column case of the same model
    assert pred.regressor.weights.shape == (20, 1) and pred.regressor.bias.shape == (1,)
    for q in queries:
        # column j of the one weight matrix is the classifier of cutoff j
        z = pred.standardizer.apply(q)
        row = kernel_matrix(z[None, :], ens.model.support, ens.model.gamma)[0]
        want = [(row @ ens.model.weights[:, j] + ens.model.bias[j]) / ens.sigmas[j]
                for j in range(len(ens.cutoffs))]
        assert ordinal_scores(ens, z) == pytest.approx(want, abs=1e-12)
    path = tmp_path / "model.txt"
    save_model(pred, path)
    names = [line.split()[0] for line in path.read_text().splitlines()]
    # each model states its gamma and lambda once
    assert names.count("gamma") == names.count("lambda") == 2
    assert names.count("row") == 2 * 20


def _edit_line(lines, name, edit):
    i = next(i for i, line in enumerate(lines) if line.split()[0] == name)
    lines[i] = edit(lines[i])


MALFORMED_MODELS = {
    "gamma-not-a-number": lambda lines: _edit_line(lines, "gamma", lambda _: "gamma abc"),
    "row-one-value-short": lambda lines: _edit_line(
        lines, "row", lambda line: line.rsplit(" ", 1)[0]
    ),
    "negative-row-count": lambda lines: _edit_line(lines, "regressor", lambda _: "regressor -3"),
    "means-one-value": lambda lines: _edit_line(
        lines, "means", lambda line: " ".join(line.split()[:2])
    ),
    "format-1": lambda lines: lines.__setitem__(0, "symqaoa-model 1"),
    "format-2": lambda lines: lines.__setitem__(0, "symqaoa-model 2"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_load_model_rejects_malformed(tmp_path, capsys, case):
    pred, queries = build_predictor(dim=len(FEATURE_NAMES))
    path = tmp_path / "model.txt"
    save_model(pred, path)
    feats = ",".join(repr(float(v)) for v in queries[0])
    assert main(["predict", "--model", str(path), "--features", feats]) == 0
    lines = path.read_text().splitlines()
    MALFORMED_MODELS[case](lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"model\.txt:\d+: "):
        load_model(path)
    capsys.readouterr()
    assert main(["predict", "--model", str(path), "--features", feats]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if case.startswith("format-"):
        assert "retrained" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_predict_rejects_non_finite_features(tmp_path, capsys, bad):
    pred, queries = build_predictor(dim=len(FEATURE_NAMES))
    path = tmp_path / "model.txt"
    save_model(pred, path)
    feats = [repr(float(v)) for v in queries[0]]
    feats[3] = bad
    assert main(["predict", "--model", str(path), "--features", ",".join(feats)]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err


def test_load_model_rejects_cutoffs_that_do_not_increase(tmp_path):
    pred, _ = build_predictor()
    path = tmp_path / "model.txt"
    save_model(pred, path)
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("cutoffs "))
    values = lines[at].split()[1:]
    for bad in (values[::-1], values[:1] * len(values)):
        lines[at] = " ".join(["cutoffs", *bad])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf"model\.txt:{at + 1}: 'cutoffs' line: .* increase"):
            load_model(path)


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a model\n")
    with pytest.raises(InvalidParamsError):
        load_model(path)
    pred, _ = build_predictor()
    good = tmp_path / "good.txt"
    save_model(pred, good)
    truncated = good.read_text().splitlines()[:3]
    bad2 = tmp_path / "trunc.txt"
    bad2.write_text("\n".join(truncated) + "\n")
    with pytest.raises(InvalidParamsError):
        load_model(bad2)
