"""Kernel models, the ordinal ensemble, metrics, and model persistence."""

import math
import warnings

import numpy as np
import pytest

import oracles
from symqaoa.errors import (
    ConstantInputError,
    DegenerateLabelsError,
    InvalidParamsError,
    SingularSystemError,
)
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
    _train_classifiers,
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
    with pytest.warns(UserWarning, match="constant"):
        std = Standardizer.fit(x)
    assert list(std.constant_mask) == [False, True]
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
        retained, alpha, bias, sigmas = _train_classifiers(k, y, (1, 4, 7, 10), lams)
    assert retained == (4, 7, 10)
    assert alpha.shape == (24, len(lams) * len(retained))
    for j in range(alpha.shape[1]):
        lam, cutoff = lams[j // len(retained)], retained[j % len(retained)]
        t = (y < cutoff).astype(np.float64)
        want_w, want_b = oracles.logistic_fit(k, t, lam, LOGISTIC_ITERS, LOGISTIC_STEP)
        assert np.max(np.abs(alpha[:, j] - want_w)) <= 1e-12
        assert abs(bias[j] - want_b) <= 1e-12
        assert sigmas[j] == pytest.approx((k @ want_w + want_b).std(), abs=1e-12)


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


def build_predictor():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 3))
    y = np.clip(np.round(4.0 + 2.0 * x[:, 0] + rng.normal(scale=0.3, size=20)), 2, 12)
    std = Standardizer.fit(x)
    z = std.apply(x)
    reg = train_regressor(z, y, gamma=0.5, lam=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some cutoffs do not split this tiny y
        ens = train_ordinal(z, y, gamma=0.5, lam=0.01, cutoffs=tuple(range(3, 12)))
    return PminPredictor(std, reg, ens, 0.5, 0.01), rng.normal(size=(7, 3))


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
