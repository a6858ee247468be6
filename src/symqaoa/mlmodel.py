"""Minimum-depth prediction from symmetry features.

Two predictors trained on (features, p_min) pairs: an RBF kernel ridge
regressor, and an ordinal ensemble of binary "is p_min below c?" kernel
logistic classifiers whose standardized decision scores are quadratically
fit against the cutoffs to locate the sign change. Censored depths enter the
ensemble as the top class and are excluded from regression.
The classifiers of one (gamma, fold) share one kernel and train together in
one batched descent, and all folds of one gamma descend together, stacked and
zero-padded to the largest fold: padded rows are inert, so every fold's
weights are bit-identical to its descent alone. A final ensemble is the
one-kernel case.
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
    ParseError,
    SingularSystemError,
)
from .simulator import _check_memory

DEFAULT_CUTOFFS = tuple(range(3, 16))
GAMMA_GRID = (0.01, 0.1, 1.0, 10.0)
LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)
N_FOLDS = 5  # folds of both cross-validations

LOGISTIC_ITERS = 2000
LOGISTIC_STEP = 0.1


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Per-column shift/scale fitted on training data; constant columns keep
    scale 1 so they pass through as zeros."""

    means: np.ndarray
    stds: np.ndarray

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
        return Standardizer(means, np.where(constant, 1.0, stds))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.means) / self.stds


def kernel_matrix(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    if gamma <= 0:
        raise InvalidParamsError(f"kernel width must be positive, got {gamma}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise InvalidParamsError(f"need rows of equal feature counts, got {a.shape} and {b.shape}")
    # the squared distances and two temporaries of the same shape
    _check_memory(24 * len(a) * len(b), f"a {len(a)} x {len(b)} kernel matrix")
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


@dataclass(frozen=True, eq=False)
class KernelModel:
    """Support points with dual weights: prediction = bias + sum w_i k(x, x_i),
    with one weight column and one bias entry per output. The regressor has
    one column; the ordinal ensemble's model has one per cutoff."""

    support: np.ndarray
    weights: np.ndarray
    gamma: float
    lam: float
    bias: np.ndarray


def _kernel_scores(model: KernelModel, rows: np.ndarray) -> np.ndarray:
    return kernel_matrix(rows, model.support, model.gamma) @ model.weights + model.bias


def train_regressor(x: np.ndarray, y: np.ndarray, gamma: float, lam: float) -> KernelModel:
    """Kernel ridge in the dual: weights = (K + lam*I)^(-1) (y - mean), bias = mean."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or len(x) != len(y) or len(y) < 1:
        raise InvalidParamsError("need matching non-empty X and y")
    weights, bias = _ridge_solve(kernel_matrix(x, x, gamma), y, lam)
    return KernelModel(x.copy(), weights[:, None], float(gamma), float(lam), np.array([bias]))


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
    vals = _kernel_scores(model, x[None, :] if single else x)[:, 0]
    return float(vals[0]) if single else vals


def _train_stacked(kernels, labels, cutoffs, lams) -> list[tuple]:
    """Kernel logistic classifiers of "y < c" for each kernel and its labels,
    one per (lambda, c) in lambda-major columns, for each cutoff c that splits
    those labels; the others are dropped with a warning. Censored labels
    (+inf) fall above every cutoff. Full-batch descent on the function values:
    alpha step = (1/m)(p - t) + lam*alpha. The K-preconditioned step keeps the
    iteration stable for every lam in the grid at step 0.1, unlike the raw
    dual gradient K[(1/m)(p - t) + lam*alpha], whose curvature grows with
    ||K||. The columns share K, so a step is one K @ alpha product.

    The kernels that keep the same cutoffs descend together: zero-padded to
    the largest one's m rows, a step is one stacked matmul, which makes one
    gemm call a kernel, and every entry rounds as the kernel alone would.
    Padded rows are inert: their residual is divided by m = inf, so their
    weights stay 0 and they add nothing to the bias sums.

    Returns, for each kernel in order, its retained cutoffs, weight columns,
    biases and each column's training-score spread (1 where it is 0). The
    cutoffs must increase strictly: the prediction searches between the first
    and the last."""
    if np.any(np.diff(cutoffs) <= 0):
        raise InvalidParamsError(f"cutoffs must increase strictly, got {tuple(cutoffs)}")
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, y in enumerate(labels):
        retained = []
        for c in cutoffs:
            below = y < c
            if below.all() or not below.any():
                warnings.warn(f"cutoff {c} does not split the labels; dropped", stacklevel=4)
            else:
                retained.append(int(c))
        if len(retained) < 3:
            raise DegenerateLabelsError(
                f"only {len(retained)} cutoff(s) split the labels; need 3 for the quadratic fit"
            )
        groups.setdefault(tuple(retained), []).append(i)
    lams = np.asarray(lams, dtype=np.float64)
    fits = [None] * len(kernels)
    for retained, members in groups.items():
        ks = [kernels[i] for i in members]
        targets = [np.tile(labels[i][:, None] < np.array(retained), len(lams)) for i in members]
        alphas, biases = _descend(ks, targets, np.repeat(lams, len(retained)))
        for i, k, alpha, bias in zip(members, ks, alphas, biases):
            sigmas = (k @ alpha + bias).std(axis=0)
            fits[i] = (retained, alpha, bias, np.where(sigmas > 0, sigmas, 1.0))
    return fits


def _descend(kernels, targets, lam_cols):
    """_train_stacked's descent for kernels that share their columns: each
    kernel's weights (m, C) and biases (C,), unpadded."""
    f, rows, cols = len(kernels), max(map(len, kernels)), len(lam_cols)
    # the stacked kernels, and six (F, M, C) arrays: the targets, row counts
    # and lambdas (full size, so no step broadcasts), weights, logits and step
    _check_memory(8 * f * rows * (rows + 6 * cols), f"the descent of {f} kernel(s) of {rows} rows")
    k = np.zeros((f, rows, rows))
    t = np.zeros((f, rows, cols))
    m = np.full((f, rows, cols), math.inf)
    for i, (ki, ti) in enumerate(zip(kernels, targets)):
        k[i, : len(ki), : len(ki)] = ki
        t[i, : len(ki)] = ti
        m[i, : len(ki)] = len(ki)
    lam = np.tile(lam_cols, (f, rows, 1))
    alpha = np.zeros((f, rows, cols))
    bias = np.zeros((f, 1, cols))
    z = np.empty_like(alpha)
    step = np.empty_like(alpha)
    bias_step = np.empty_like(bias)
    for _ in range(LOGISTIC_ITERS):
        # probs = 1 / (1 + exp(-(K @ alpha + bias))), then resid = (probs - t) / m
        np.matmul(k, alpha, out=z)
        z += bias
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=z)
        z -= t
        z /= m
        # alpha -= step * (resid + lam * alpha); bias -= step * sum of resid
        np.multiply(lam, alpha, out=step)
        step += z
        step *= LOGISTIC_STEP
        alpha -= step
        np.add.reduce(z, axis=1, keepdims=True, out=bias_step)
        bias_step *= LOGISTIC_STEP
        bias -= bias_step
    return [alpha[i, : len(ki)] for i, ki in enumerate(kernels)], list(bias[:, 0])


@dataclass(frozen=True, eq=False)
class OrdinalEnsemble:
    """One binary classifier per retained cutoff c (positive score = p_min < c),
    held as the columns of one kernel model, plus each column's training-score
    scale for standardized distances."""

    cutoffs: tuple[int, ...]
    model: KernelModel
    sigmas: np.ndarray
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
    retained, alpha, bias, sigmas = _train_stacked([k], [y], cutoffs, (lam,))[0]
    model = KernelModel(x.copy(), alpha, float(gamma), float(lam), bias)
    return OrdinalEnsemble(retained, model, sigmas, float(finite.min()), float(max(retained)))


def ordinal_scores(ens: OrdinalEnsemble, x: np.ndarray) -> np.ndarray:
    """Standardized decision scores d_z, one per retained cutoff, from one
    kernel row of the query against the shared support points."""
    x = np.asarray(x, dtype=np.float64)
    return _kernel_scores(ens.model, x[None, :])[0] / ens.sigmas


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
    """Trained bundle: shared standardizer, ridge regressor, ordinal ensemble;
    gamma and lam are the regressor's."""

    standardizer: Standardizer
    regressor: KernelModel
    ensemble: OrdinalEnsemble
    gamma: float
    lam: float

    def predict_regression(self, features) -> float:
        return float(predict_regressor(self.regressor, self.standardizer.apply(features)))

    def predict_ensemble(self, features) -> float:
        return predict_ordinal(self.ensemble, self.standardizer.apply(features))


MODEL_FORMAT = "symqaoa-model 3"


def _line(name: str, values) -> str:
    """A named line of Python ints or floats; repr reproduces floats exactly."""
    return " ".join([name, *map(repr, values)])


def _write_block(out: list[str], name: str, model: KernelModel) -> None:
    """A kernel model's name and support-point count, gamma, lambda, a bias per
    weight column, then each support point followed by its weights."""
    out += [_line(name, [len(model.support)]), _line("gamma", [float(model.gamma)]),
            _line("lambda", [float(model.lam)]), _line("bias", model.bias.tolist())]
    out += [_line("row", row) for row in np.hstack((model.support, model.weights)).tolist()]


def save_model(pred: PminPredictor, path) -> None:
    """Versioned flat text: the standardizer, the regressor block, the ensemble
    block and the ensemble's cutoffs, score scales and class range."""
    std, ens = pred.standardizer, pred.ensemble
    out = [MODEL_FORMAT, _line("means", std.means.tolist()), _line("stds", std.stds.tolist())]
    _write_block(out, "regressor", pred.regressor)
    _write_block(out, "ensemble", ens.model)
    out += [_line("cutoffs", list(ens.cutoffs)), _line("sigmas", ens.sigmas.tolist()),
            _line("y-range", [ens.y_min, ens.top_class])]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def _positive(value) -> bool:
    return 0 < value < math.inf


def _read_block(take, name: str, dim: int, columns: int | None = None) -> KernelModel:
    """A _write_block block over dim features, with 2-d weights and a 1-d bias."""
    (m,) = take(name, 1, int, _positive)
    (gamma,) = take("gamma", 1, ok=_positive)
    (lam,) = take("lambda", 1)
    bias = np.array(take("bias", columns))
    rows = np.array([take("row", dim + len(bias)) for _ in range(m)])
    return KernelModel(rows[:, :dim].copy(), rows[:, dim:].copy(), gamma, lam, bias)


def load_model(path) -> PminPredictor:
    """Read a save_model file. Any other content, a file of an earlier format
    included, raises ParseError naming the file and the line."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()
    if lines[:1] != [MODEL_FORMAT]:
        raise ParseError(f"{path}:1: not a {MODEL_FORMAT!r} file; a model saved by another "
                         "version must be retrained with 'symqaoa train'")
    pos = 1

    def take(name: str, count: int | None, kind=float, ok=math.isfinite) -> list:
        """The next line's values: name, then count of them (or at least one
        when count is None), each converted by kind and accepted by ok."""
        nonlocal pos
        fields = lines[pos].split() if pos < len(lines) else []
        pos += 1
        try:
            if fields[:1] != [name]:
                raise ValueError("missing")
            if (len(fields) - 1 != count) if count else len(fields) < 2:
                raise ValueError(f"needs {count or 'some'} values, has {len(fields) - 1}")
            values = [kind(v) for v in fields[1:]]
            if not all(map(ok, values)):
                raise ValueError("value out of range")
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path}:{pos}: {name!r} line: {exc}") from exc
        return values

    means = np.array(take("means", None))
    stds = np.array(take("stds", len(means), ok=_positive))
    reg = _read_block(take, "regressor", len(means), columns=1)
    model = _read_block(take, "ensemble", len(means))
    cutoffs = tuple(take("cutoffs", len(model.bias), int))
    if np.any(np.diff(cutoffs) <= 0):
        raise ParseError(f"{path}:{pos}: 'cutoffs' line: values must increase strictly")
    sigmas = np.array(take("sigmas", len(model.bias), ok=_positive))
    y_min, top_class = take("y-range", 2)
    if pos < len(lines):
        raise ParseError(f"{path}:{pos + 1}: unexpected line after the model")
    ensemble = OrdinalEnsemble(cutoffs, model, sigmas, y_min, top_class)
    return PminPredictor(Standardizer(means, stds), reg, ensemble, reg.gamma, reg.lam)


def shuffle_within_families(families, seed) -> list[np.ndarray]:
    """The indices of each family's members, families in sorted order, each
    shuffled in turn by one generator seeded with seed."""
    by_family: dict[str, list[int]] = {}
    for i, fam in enumerate(families):
        by_family.setdefault(fam, []).append(i)
    rng = np.random.default_rng(seed)
    groups = [np.array(by_family[fam]) for fam in sorted(by_family)]
    for idx in groups:
        rng.shuffle(idx)
    return groups


def stratified_folds(families, n_folds: int, seed) -> list[np.ndarray]:
    """Round-robin fold assignment within each family after a seeded shuffle, so
    every fold sees every family that has enough members."""
    families = list(families)
    assignment = np.empty(len(families), dtype=np.int64)
    offset = 0
    for idx in shuffle_within_families(families, seed):
        assignment[idx] = (offset + np.arange(len(idx))) % n_folds
        offset += len(idx)
    return [np.flatnonzero(assignment == f) for f in range(n_folds)]


def _grid_search(x, y, families, seed, gammas, lams, fit_gamma):
    """The loop of both cross-validations: one standardizer per fold, one kernel
    per (gamma, fold), and fit_gamma(folds, lams) given every fold's
    (k_train, k_held, y_train) of one gamma, giving each fold's held-out
    predictions, one column per lambda. Rows with y = +inf train but are not
    scored."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not len(gammas) or not len(lams):
        raise InvalidParamsError(f"need non-empty grids, got gammas {gammas} and lambdas {lams}")
    if len(x) < N_FOLDS:
        raise InsufficientDataError(f"need at least {N_FOLDS} rows, got {len(x)}")
    scored = np.isfinite(y)
    if not scored.any():
        raise DegenerateLabelsError("all depths are censored; nothing to score")
    best = (math.inf, None, None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        folds = []
        for held in stratified_folds(families, N_FOLDS, seed):
            if len(held):
                train = np.setdiff1d(np.arange(len(y)), held)
                std = Standardizer.fit(x[train])
                folds.append((held, std.apply(x[train]), std.apply(x[held]), y[train]))
        for gamma in gammas:
            kernels = [
                (kernel_matrix(z_train, z_train, gamma),
                 kernel_matrix(z_held, z_train, gamma), y_train)
                for _, z_train, z_held, y_train in folds
            ]
            preds = np.empty((len(y), len(lams)))
            for (held, *_), fold_preds in zip(folds, fit_gamma(kernels, lams)):
                preds[held] = fold_preds
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
    gammas=GAMMA_GRID,
    lams=LAMBDA_GRID,
) -> tuple[float, float, float]:
    """Pick (gamma, lambda) for the regressor by pooled held-out median absolute
    error over family-stratified folds; ties keep the earliest grid entry.
    Returns (gamma, lambda, best error)."""

    def fit_gamma(folds, lams):
        preds = []
        for k_train, k_held, y_train in folds:
            fits = [_ridge_solve(k_train, y_train, lam) for lam in lams]
            preds.append(np.column_stack([k_held @ weights + bias for weights, bias in fits]))
        return preds

    return _grid_search(x, y, families, seed, gammas, lams, fit_gamma)


def cross_validate_ordinal(
    x: np.ndarray,
    y: np.ndarray,
    families,
    seed,
    gammas=GAMMA_GRID,
    lams=LAMBDA_GRID,
    cutoffs=DEFAULT_CUTOFFS,
) -> tuple[float, float, float]:
    """Same grid search for the cutoff classifiers, scored by the ensemble's own
    held-out predictions. Censored rows (y = +inf) train each fold but stay out
    of the error pool; the classifiers need far less shrinkage than the ridge
    regressor, so reusing its (gamma, lambda) is not an option."""

    def fit_gamma(folds, lams):
        # the (lambda, cutoff) classifiers of all folds with equal retained cutoffs
        # train in one stacked descent
        fits = _train_stacked([k for k, _, _ in folds], [y for _, _, y in folds], cutoffs, lams)
        preds = []
        for (_, k_held, y_train), (retained, alpha, bias, sigmas) in zip(folds, fits):
            d_z = ((k_held @ alpha + bias) / sigmas).reshape(len(k_held), len(lams), len(retained))
            y_min, top = float(y_train[np.isfinite(y_train)].min()), float(max(retained))
            preds.append([[_ordinal_root(d, retained, y_min, top) for d in row] for row in d_z])
        return preds

    return _grid_search(x, y, families, seed, gammas, lams, fit_gamma)
