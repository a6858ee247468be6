"""Minimum-depth prediction from symmetry features.

Two predictors trained on (features, p_min) pairs: an RBF kernel ridge
regressor, and an ordinal ensemble of binary "is p_min below c?" kernel
logistic classifiers whose standardized decision scores are quadratically
fit against the cutoffs to locate the sign change. Censored depths enter the
ensemble as the top class and are excluded from regression.
The classifiers of one (gamma, fold) share one kernel and train together in
one batched descent, as do the classifiers of a final ensemble.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantInputError,
    DegenerateLabelsError,
    InsufficientDataError,
    InvalidParamsError,
    SingularSystemError,
)

DEFAULT_CUTOFFS = tuple(range(3, 16))
GAMMA_GRID = (0.01, 0.1, 1.0, 10.0)
LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)

LOGISTIC_ITERS = 2000
LOGISTIC_STEP = 0.1


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Per-column shift/scale fitted on training data; constant columns keep
    scale 1 so they pass through as zeros."""

    means: np.ndarray
    stds: np.ndarray
    constant_mask: np.ndarray

    @staticmethod
    def fit(x: np.ndarray) -> "Standardizer":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise InvalidParamsError("standardizer needs a non-empty 2-d array")
        means = x.mean(axis=0)
        stds = x.std(axis=0)
        constant = stds == 0.0
        if constant.any():
            warnings.warn(
                f"{int(constant.sum())} constant feature column(s); leaving scale 1",
                stacklevel=2,
            )
        stds = np.where(constant, 1.0, stds)
        return Standardizer(means, stds, constant)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.means) / self.stds


def kernel_matrix(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    if gamma <= 0:
        raise InvalidParamsError(f"kernel width must be positive, got {gamma}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise InvalidParamsError(f"need rows of equal feature counts, got {a.shape} and {b.shape}")
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


@dataclass(frozen=True, eq=False)
class KernelModel:
    """Support points with dual weights: prediction = bias + sum w_i k(x, x_i)."""

    support: np.ndarray
    weights: np.ndarray
    gamma: float
    lam: float
    bias: float


def train_regressor(x: np.ndarray, y: np.ndarray, gamma: float, lam: float) -> KernelModel:
    """Kernel ridge in the dual: weights = (K + lam*I)^(-1) (y - mean), bias = mean."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or len(x) != len(y) or len(y) < 1:
        raise InvalidParamsError("need matching non-empty X and y")
    weights, bias = _ridge_solve(kernel_matrix(x, x, gamma), y, lam)
    return KernelModel(x.copy(), weights, float(gamma), float(lam), bias)


def _ridge_solve(k: np.ndarray, y: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    if lam < 0:
        raise InvalidParamsError(f"regularization must be >= 0, got {lam}")
    bias = float(y.mean())
    try:
        return np.linalg.solve(k + lam * np.eye(len(k)), y - bias), bias
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"kernel system is singular: {exc}") from exc


def predict_regressor(model: KernelModel, x: np.ndarray) -> float | np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    rows = x[None, :] if single else x
    vals = kernel_matrix(rows, model.support, model.gamma) @ model.weights + model.bias
    return float(vals[0]) if single else vals


def _train_classifiers(k: np.ndarray, y: np.ndarray, cutoffs, lams):
    """Kernel logistic classifiers of "y < c", one per (lambda, c) in
    lambda-major columns, for each cutoff c that splits y; the others are
    dropped with a warning. Censored labels (+inf) fall above every cutoff.
    Full-batch descent on the function values: alpha step = (1/m)(p - t) +
    lam*alpha. The K-preconditioned step keeps the iteration stable for every
    lam in the grid at step 0.1, unlike the raw dual gradient
    K[(1/m)(p - t) + lam*alpha], whose curvature grows with ||K||. The columns
    share K, so a step is one K @ alpha product. Returns the retained cutoffs,
    the weight columns, the biases and each column's training-score spread
    (1 where it is 0)."""
    retained = []
    for c in cutoffs:
        below = y < c
        if below.all() or not below.any():
            warnings.warn(f"cutoff {c} does not split the labels; dropped", stacklevel=3)
        else:
            retained.append(int(c))
    if len(retained) < 3:
        raise DegenerateLabelsError(
            f"only {len(retained)} cutoff(s) split the labels; need 3 for the quadratic fit"
        )
    targets = np.tile(y[:, None] < np.array(retained), len(lams)).astype(np.float64)
    lam_cols = np.repeat(np.asarray(lams, dtype=np.float64), len(retained))
    m = len(k)
    alpha = np.zeros(targets.shape)
    bias = np.zeros(targets.shape[1])
    for _ in range(LOGISTIC_ITERS):
        probs = 1.0 / (1.0 + np.exp(-(k @ alpha + bias)))
        resid = (probs - targets) / m
        alpha -= LOGISTIC_STEP * (resid + lam_cols * alpha)
        bias -= LOGISTIC_STEP * resid.sum(axis=0)
    sigmas = (k @ alpha + bias).std(axis=0)
    return tuple(retained), alpha, bias, np.where(sigmas > 0, sigmas, 1.0)


@dataclass(frozen=True, eq=False)
class OrdinalEnsemble:
    """One binary classifier per retained cutoff c (positive score = p_min < c),
    plus the training-score scale for standardized distances. The classifiers
    share their support points and gamma."""

    cutoffs: tuple[int, ...]
    models: tuple[KernelModel, ...]
    sigmas: tuple[float, ...]
    y_min: float
    top_class: float


def train_ordinal(
    x: np.ndarray,
    y: np.ndarray,
    gamma: float,
    lam: float,
    cutoffs=DEFAULT_CUTOFFS,
) -> OrdinalEnsemble:
    """Censored labels may be passed as +inf; they fall above every cutoff.
    Cutoffs that do not split the labels are dropped with a warning."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or len(x) != len(y) or len(y) < 2:
        raise InvalidParamsError("need matching X and y with at least 2 rows")
    finite = y[np.isfinite(y)]
    if len(finite) == 0:
        raise DegenerateLabelsError("all depths are censored; nothing to order")
    k = kernel_matrix(x, x, gamma)
    retained, alpha, bias, sigmas = _train_classifiers(k, y, cutoffs, (lam,))
    support = x.copy()
    models = tuple(
        KernelModel(support, w.copy(), float(gamma), float(lam), float(b))
        for w, b in zip(alpha.T, bias)
    )
    return OrdinalEnsemble(
        retained, models, tuple(sigmas.tolist()), float(finite.min()), float(max(retained))
    )


def ordinal_scores(ens: OrdinalEnsemble, x: np.ndarray) -> np.ndarray:
    """Standardized decision scores d_z, one per retained cutoff, from one
    kernel row of the query against the shared support points."""
    x = np.asarray(x, dtype=np.float64)
    first = ens.models[0]
    weights = np.column_stack([m.weights for m in ens.models])
    biases = np.array([m.bias for m in ens.models])
    row = kernel_matrix(x[None, :], first.support, first.gamma)[0]
    return (row @ weights + biases) / np.array(ens.sigmas)


def predict_ordinal(ens: OrdinalEnsemble, x: np.ndarray) -> float:
    """Quadratic least-squares fit of d_z against the cutoffs; the prediction is
    the ascending zero crossing inside the cutoff range. Without one, majority
    vote: mostly first class (below cutoffs) gives the training minimum, and a
    second-class majority or a tie gives the top-class marker."""
    if len(ens.cutoffs) < 3:
        raise InsufficientDataError(f"need >= 3 cutoffs, have {len(ens.cutoffs)}")
    return _ordinal_root(ordinal_scores(ens, x), ens.cutoffs, ens.y_min, ens.top_class)


def _ordinal_root(d_z: np.ndarray, cutoffs, y_min: float, top_class: float) -> float:
    """predict_ordinal's crossing or vote for the scores d_z."""
    cut = np.array(cutoffs, dtype=np.float64)
    a, b, c0 = np.polyfit(cut, d_z, 2)
    lo, hi = cut[0], cut[-1]
    candidates: list[float] = []
    if a == 0.0:
        if b > 0.0:
            candidates.append(-c0 / b)
    else:
        disc = b * b - 4.0 * a * c0
        if disc >= 0.0:
            # q/a and c0/q are the two roots without the cancellation of
            # -b + sqrt(disc) that loses the root when a is near zero
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            for r in (q / a, c0 / q) if q != 0.0 else ():
                if 2 * a * r + b > 0.0:
                    candidates.append(r)
    for r in candidates:
        if lo <= r <= hi:
            return float(r)
    positive = int((d_z > 0).sum())
    if positive > len(d_z) - positive:
        return y_min
    return top_class


def pearson_r(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise InvalidParamsError("need two equal-length 1-d arrays of length >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    den = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if den == 0.0:
        raise ConstantInputError("correlation undefined for a constant input")
    return float(dx @ dy) / den


def median_abs_err(pred, true) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    true = np.asarray(true, dtype=np.float64)
    if pred.shape != true.shape or len(pred) < 1:
        raise InvalidParamsError("need equal-length non-empty arrays")
    return float(np.median(np.abs(pred - true)))


@dataclass(eq=False)
class PminPredictor:
    """Trained bundle: shared standardizer, ridge regressor, ordinal ensemble."""

    standardizer: Standardizer
    regressor: KernelModel
    ensemble: OrdinalEnsemble
    gamma: float
    lam: float

    def predict_regression(self, features) -> float:
        return float(predict_regressor(self.regressor, self.standardizer.apply(features)))

    def predict_ensemble(self, features) -> float:
        return predict_ordinal(self.ensemble, self.standardizer.apply(features))


MODEL_FORMAT = "symqaoa-model 1"


def _write_vector(out: list[str], name: str, vec) -> None:
    out.append(name + " " + " ".join(repr(float(v)) for v in np.asarray(vec, dtype=np.float64)))


def save_model(pred: PminPredictor, path) -> None:
    """Versioned flat text; floats via repr so loading reproduces predictions
    exactly. Classifier support points equal the ensemble training matrix, so
    it is stored once."""
    out = [MODEL_FORMAT]
    out.append(f"gamma {pred.gamma!r}")
    out.append(f"lambda {pred.lam!r}")
    _write_vector(out, "means", pred.standardizer.means)
    _write_vector(out, "stds", pred.standardizer.stds)
    out.append("constant-mask " + " ".join(str(int(v)) for v in pred.standardizer.constant_mask))
    reg = pred.regressor
    out.append(f"regressor {len(reg.support)} {reg.support.shape[1]} {reg.bias!r} {reg.gamma!r} {reg.lam!r}")
    for row, w in zip(reg.support, reg.weights):
        _write_vector(out, "r", np.append(row, w))
    ens = pred.ensemble
    shared = ens.models[0].support
    out.append(f"ensemble {len(shared)} {shared.shape[1]} {ens.y_min!r} {ens.top_class!r}")
    for row in shared:
        _write_vector(out, "s", row)
    for cutoff, model, sigma in zip(ens.cutoffs, ens.models, ens.sigmas):
        out.append(f"classifier {cutoff} {sigma!r} {model.bias!r} {model.gamma!r} {model.lam!r}")
        _write_vector(out, "w", model.weights)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def load_model(path) -> PminPredictor:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MODEL_FORMAT:
        raise InvalidParamsError(f"not a {MODEL_FORMAT!r} file: {path}")
    pos = 1

    def take(prefix: str) -> list[str]:
        nonlocal pos
        if pos >= len(lines) or not lines[pos].startswith(prefix + " "):
            raise InvalidParamsError(f"expected {prefix!r} at line {pos + 1} of {path}")
        fields = lines[pos].split()[1:]
        pos += 1
        return fields

    gamma = float(take("gamma")[0])
    lam = float(take("lambda")[0])
    means = np.array([float(v) for v in take("means")])
    stds = np.array([float(v) for v in take("stds")])
    mask = np.array([bool(int(v)) for v in take("constant-mask")])
    std = Standardizer(means, stds, mask)
    m, d, bias, rgamma, rlam = take("regressor")
    m, d = int(m), int(d)
    rows = np.array([[float(v) for v in take("r")] for _ in range(m)])
    regressor = KernelModel(
        rows[:, :d].copy() if m else np.empty((0, d)),
        np.ascontiguousarray(rows[:, d]) if m else np.empty(0),
        float(rgamma),
        float(rlam),
        float(bias),
    )
    m, d, y_min, top = take("ensemble")
    m, d = int(m), int(d)
    shared = np.array([[float(v) for v in take("s")] for _ in range(m)])
    cutoffs: list[int] = []
    models: list[KernelModel] = []
    sigmas: list[float] = []
    while pos < len(lines) and lines[pos].startswith("classifier "):
        cutoff, sigma, cbias, cgamma, clam = take("classifier")
        weights = np.array([float(v) for v in take("w")])
        cutoffs.append(int(cutoff))
        sigmas.append(float(sigma))
        models.append(KernelModel(shared, weights, float(cgamma), float(clam), float(cbias)))
    ensemble = OrdinalEnsemble(
        tuple(cutoffs), tuple(models), tuple(sigmas), float(y_min), float(top)
    )
    return PminPredictor(std, regressor, ensemble, gamma, lam)


def stratified_folds(families, n_folds: int, seed) -> list[np.ndarray]:
    """Round-robin fold assignment within each family after a seeded shuffle, so
    every fold sees every family that has enough members."""
    families = list(families)
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(families), dtype=np.int64)
    by_family: dict[str, list[int]] = {}
    for i, fam in enumerate(families):
        by_family.setdefault(fam, []).append(i)
    offset = 0
    for fam in sorted(by_family):
        idx = np.array(by_family[fam])
        rng.shuffle(idx)
        for j, i in enumerate(idx):
            assignment[i] = (offset + j) % n_folds
        offset += len(idx)
    return [np.flatnonzero(assignment == f) for f in range(n_folds)]


def _grid_search(x, y, families, seed, n_folds, gammas, lams, fit_fold):
    """The loop of both cross-validations: one standardizer per fold, one kernel
    per (gamma, fold), and fit_fold(k_train, k_held, y_train, lams) giving the
    held-out predictions, one column per lambda. Rows with y = +inf train but
    are not scored."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) < n_folds:
        raise InsufficientDataError(f"need at least {n_folds} rows, got {len(x)}")
    scored = np.isfinite(y)
    if not scored.any():
        raise DegenerateLabelsError("all depths are censored; nothing to score")
    best = (math.inf, None, None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        folds = []
        for held in stratified_folds(families, n_folds, seed):
            if len(held):
                train = np.setdiff1d(np.arange(len(y)), held)
                std = Standardizer.fit(x[train])
                folds.append((held, std.apply(x[train]), std.apply(x[held]), y[train]))
        for gamma in gammas:
            preds = np.empty((len(y), len(lams)))
            for held, z_train, z_held, y_train in folds:
                k_train = kernel_matrix(z_train, z_train, gamma)
                k_held = kernel_matrix(z_held, z_train, gamma)
                preds[held] = fit_fold(k_train, k_held, y_train, lams)
            for j, lam in enumerate(lams):
                err = median_abs_err(preds[scored, j], y[scored])
                if err < best[0]:
                    best = (err, gamma, lam)
    return best[1], best[2], best[0]


def cross_validate(
    x: np.ndarray,
    y: np.ndarray,
    families,
    seed,
    n_folds: int = 5,
    gammas=GAMMA_GRID,
    lams=LAMBDA_GRID,
) -> tuple[float, float, float]:
    """Pick (gamma, lambda) for the regressor by pooled held-out median absolute
    error over family-stratified folds; ties keep the earliest grid entry.
    Returns (gamma, lambda, best error)."""

    def fit_fold(k_train, k_held, y_train, lams):
        fits = [_ridge_solve(k_train, y_train, lam) for lam in lams]
        return np.column_stack([k_held @ weights + bias for weights, bias in fits])

    return _grid_search(x, y, families, seed, n_folds, gammas, lams, fit_fold)


def cross_validate_ordinal(
    x: np.ndarray,
    y: np.ndarray,
    families,
    seed,
    n_folds: int = 5,
    gammas=GAMMA_GRID,
    lams=LAMBDA_GRID,
    cutoffs=DEFAULT_CUTOFFS,
) -> tuple[float, float, float]:
    """Same grid search for the cutoff classifiers, scored by the ensemble's own
    held-out predictions. Censored rows (y = +inf) train each fold but stay out
    of the error pool; the classifiers need far less shrinkage than the ridge
    regressor, so reusing its (gamma, lambda) is not an option."""

    def fit_fold(k_train, k_held, y_train, lams):
        # every (lambda, cutoff) classifier of the fold trains in one descent
        retained, alpha, bias, sigmas = _train_classifiers(k_train, y_train, cutoffs, lams)
        d_z = ((k_held @ alpha + bias) / sigmas).reshape(len(k_held), len(lams), len(retained))
        y_min, top = float(y_train[np.isfinite(y_train)].min()), float(max(retained))
        return np.array([[_ordinal_root(d, retained, y_min, top) for d in row] for row in d_z])

    return _grid_search(x, y, families, seed, n_folds, gammas, lams, fit_fold)
