"""Graph-regularized multinomial logistic regression.

The classifier maps a p-dimensional feature vector z to K class
probabilities through a softmax over affine scores W z + b and is trained
by minimizing

    (1/n) sum_i s_i * (-log P(y_i | z_i))
        + lambda_l2 * ||W||_F^2
        + lambda_g  * Tr(W L W^T)

where L is the graph Laplacian over taxa and s_i are per-sample weights.
The bias b is excluded from both penalties. The objective is convex
(cross-entropy plus positive semi-definite quadratics). Adding one vector
to every class's [w_k | b_k] changes no probability, so of its K(p + 1)
parameters only (K - 1)(p + 1) matter: the fit keeps the K rows of [W | b]
summing to zero and runs damped Newton with the exact Hessian in the first
K - 1 rows, from W = 0, b = 0. The fit is reproducible and
initialization-independent.

One Newton loop, ``_newton``, solves a stack of same-shape problems,
each with its own data, penalties, step lengths and stop tests.
:func:`fit_arrays` checks its inputs and solves a stack of one in feature
space (``_fit_stack``); a stacked result there is bit for bit what
:func:`fit_arrays` returns for that problem alone. The grid search, the
alpha sweep and the permutation test solve their distinct fold problems
in batches through ``_fit_batch``. It solves a problem with a firm ridge
and fewer sites than features, n < p, in kernel form: by the representer
theorem the fit lies in an n-dimensional space, so each Newton system has
(K - 1)(n + 1) unknowns instead of (K - 1)(p + 1). Both forms take the
same iterates and stop tests, on the gradient over W and b, up to
rounding.

Training consumes macrofauna counts only through the graph; prediction
needs nothing but an abundance table, which is the whole point of the
decoupled deployment scheme.
"""

from __future__ import annotations

import functools
import json
import numbers
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .compositional import FeatureMatrix, clr_transform, raw_features
from .dataset import Dataset, StageLabels, _read_file, _write_json
from .ecograph import EcologicalGraph, build_graph
from .errors import (
    EmptyClass,
    InvalidShape,
    InvalidValue,
    LengthMismatch,
    Misalignment,
    MissingLabels,
    NonConvergenceWarning,
    TaxaMismatch,
)

MODEL_FORMAT = "grmlr-model"
MODEL_FORMAT_VERSION = 1

# Gradient max-norm above which hitting the iteration cap is reported
# as non-convergence.
_NONCONVERGENCE_GRAD_NORM = 1e-3
# Sufficient-decrease constant of the Armijo line search, and the most step
# halvings tried before concluding that no step decreases the objective.
_ARMIJO = 1e-4
_MAX_HALVINGS = 50

_SCOPES = ("train", "all")
_FEATURE_MODES = ("clr", "raw")


@dataclass(frozen=True)
class GrmlrConfig:
    """All hyperparameters of the pipeline, grid-searchable by field name; floats must be finite.

    Each field must have its default's type: ``bool`` and ``str`` fields
    exactly, int fields any integral number and float fields any real
    number (numpy scalars included, ``bool`` excluded in both).

    ``lambda_l2 = 0`` is allowed, but on a fold whose training classes are
    separable (typical when p > n) the objective then has no minimizer: the
    loss keeps falling as W grows along a separating direction. The fit
    stops on ``gtol`` or ``ftol`` at a loss near zero and reports
    convergence, and the W it returns depends on the solver's path and
    stopping rule, not on the data alone. A positive ``lambda_l2`` that
    rounding loses against the data (e.g. 1e-20) is solved like 0.
    """

    epsilon: float = 1e-6
    tau: float = 0.7
    gamma: float = 0.9
    alpha: float = 0.1
    lambda_l2: float = 0.02
    lambda_g: float = 5.0
    ftol: float = 1e-14
    gtol: float = 1e-9
    max_iters: int = 15000
    class_balanced: bool = True
    co_occurrence_scope: str = "train"
    seed: int = 0

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            kind = type(spec.default)
            if kind is bool or kind is str:
                valid = isinstance(value, kind)
            else:
                number = numbers.Integral if kind is int else numbers.Real
                valid = isinstance(value, number) and not isinstance(value, bool)
            if not valid:
                raise InvalidValue(f"{spec.name} must be of type {kind.__name__}, got {value!r}")
        for name in ("epsilon", "lambda_l2", "lambda_g", "ftol", "gtol"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidValue(f"{name} must be finite, got {getattr(self, name)}")
        if self.epsilon <= 0:
            raise InvalidValue(f"epsilon must be > 0, got {self.epsilon}")
        for name in ("tau", "gamma", "alpha"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidValue(f"{name} must be in [0, 1], got {v}")
        for name in ("lambda_l2", "lambda_g"):
            if getattr(self, name) < 0:
                raise InvalidValue(f"{name} must be >= 0")
        if self.ftol <= 0 or self.gtol <= 0:
            raise InvalidValue("ftol and gtol must be > 0")
        if self.max_iters < 1:
            raise InvalidValue("max_iters must be >= 1")
        if self.co_occurrence_scope not in _SCOPES:
            raise InvalidValue(
                f"co_occurrence_scope must be one of {_SCOPES}, got {self.co_occurrence_scope!r}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GrmlrConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise InvalidValue(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


@dataclass(eq=False)
class GrmlrModel:
    """Trained classifier: weights, bias, taxa ordering and label set."""

    weights: np.ndarray
    bias: np.ndarray
    taxa_names: list[str]
    label_set: tuple[str, ...]
    hyperparams: GrmlrConfig
    feature_mode: str = "clr"
    converged: bool = True
    n_iterations: int = 0
    final_loss: float = float("nan")
    loss_history: Optional[list[float]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        K, p = self.weights.shape
        if self.bias.shape != (K,):
            raise InvalidValue(f"bias shape {self.bias.shape} for {K} classes")
        if len(self.taxa_names) != p or len(self.label_set) != K:
            raise InvalidValue("taxa_names/label_set lengths do not match W")
        if len(set(self.taxa_names)) != p or len(set(self.label_set)) != K:
            raise InvalidValue("duplicate taxa names or labels in model")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise InvalidValue("model parameters must be finite")
        if self.feature_mode not in _FEATURE_MODES:
            raise InvalidValue(f"feature_mode must be one of {_FEATURE_MODES}")
        self.weights.setflags(write=False)
        self.bias.setflags(write=False)

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def n_taxa(self) -> int:
        return self.weights.shape[1]


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, with max subtraction for overflow safety."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_taxa(model_taxa: list[str], other_taxa: list[str]) -> None:
    if model_taxa != other_taxa:
        missing = [t for t in model_taxa if t not in other_taxa]
        extra = [t for t in other_taxa if t not in model_taxa]
        if missing or extra:
            raise TaxaMismatch(f"missing taxa {missing}, unexpected taxa {extra}")
        raise TaxaMismatch("taxa are present but ordered differently")


def predict_proba(model: GrmlrModel, features: FeatureMatrix) -> np.ndarray:
    """n x K class probability matrix; rows sum to 1."""
    _check_taxa(model.taxa_names, features.taxa_names)
    return softmax_rows(features.values @ model.weights.T + model.bias)


def _predicted_classes(Z: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Class index of each row of Z: argmax of its scores Z W^T + b, ties to the lowest.

    Not the argmax of the softmax, which can round a near tie to a tie.
    """
    return np.argmax(Z @ W.T + b, axis=-1)


def class_balanced_weights(labels: StageLabels) -> np.ndarray:
    """Per-sample weights n / (K * n_class); they sum to n."""
    return _sample_weights(labels.indices(), len(labels.label_set), class_balanced=True)


def _sample_weights(y: np.ndarray, K: int, class_balanced: bool) -> np.ndarray:
    """Training weights for label indices ``y``: class-balanced, or all ones.

    Raises EmptyClass when balancing is asked for and a class has no samples.
    """
    if not class_balanced:
        return np.ones(len(y))
    counts = np.bincount(y, minlength=K)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise EmptyClass(f"no samples for class index(es) {missing.tolist()}")
    return len(y) / (K * counts[y].astype(float))


def loss(
    model: GrmlrModel,
    features: FeatureMatrix,
    labels: StageLabels,
    graph: EcologicalGraph,
    sample_weights: np.ndarray,
) -> float:
    """Weighted cross-entropy plus L2 and graph penalties (bias unpenalized)."""
    value, _ = _evaluate(model, features, labels, graph, sample_weights)
    return float(value)


def loss_gradient(
    model: GrmlrModel,
    features: FeatureMatrix,
    labels: StageLabels,
    graph: EcologicalGraph,
    sample_weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of :func:`loss` with respect to (W, b)."""
    _, grad = _evaluate(model, features, labels, graph, sample_weights)
    return grad[:, :-1], grad[:, -1]


def _evaluate(
    model: GrmlrModel,
    features: FeatureMatrix,
    labels: StageLabels,
    graph: EcologicalGraph,
    sample_weights: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Objective and gradient of ``model`` on aligned features, labels and graph."""
    _check_taxa(model.taxa_names, features.taxa_names)
    if graph.taxa_names != model.taxa_names:
        raise Misalignment("graph taxa order does not match the model")
    if labels.site_ids != features.site_ids:
        raise Misalignment("labels and features are not site-aligned")
    if tuple(labels.label_set) != tuple(model.label_set):
        raise Misalignment("label set does not match the model")
    Z, y, s, laplacian = _checked_fit_inputs(
        features.values, labels.indices(), model.n_classes, sample_weights, graph.laplacian
    )
    cfg = model.hyperparams
    V = np.column_stack([model.weights, model.bias])
    value, grad = _objective(
        V[None],
        Z[None],
        _one_hot(y, model.n_classes)[None],
        s[None],
        laplacian[None],
        np.array([cfg.lambda_l2], dtype=float),
        np.array([cfg.lambda_g], dtype=float),
    )
    return value[0], grad[0]


def _objective(
    V: np.ndarray,
    Z: np.ndarray,
    onehot: np.ndarray,
    s: np.ndarray,
    laplacian: np.ndarray,
    lambda_l2: np.ndarray,
    lambda_g: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Objective and gradient of each problem of a stack at its V = [W | b].

    V and the gradient are B x K x (p + 1), Z is B x n x p, ``onehot`` is
    the B x n x K boolean one-hot of the labels, s is B x n, laplacian is
    B x p x p, and lambda_l2, lambda_g and the returned objective values
    have length B. Every product and reduction runs over one problem's
    slice along the axis it runs along for that problem alone, so a
    problem's values do not depend on the rest of the stack.
    """
    B, n, p = Z.shape
    W = V[:, :, :p]
    b = V[:, :, p]
    scores = Z @ W.transpose(0, 2, 1) + b[:, None, :]
    shifted = scores - scores.max(axis=2, keepdims=True)
    e = np.exp(shifted)
    norm = e.sum(axis=2)
    P = e / norm[:, :, None]
    log_p_true = shifted[onehot].reshape(B, n) - np.log(norm)
    data = -(s * log_p_true).sum(axis=1) / n

    WL = W @ laplacian
    ridge = (W * W).reshape(B, -1).sum(axis=1)
    smoothness = (W * WL).reshape(B, -1).sum(axis=1)
    value = data + lambda_l2 * ridge + lambda_g * smoothness

    R = (P - onehot) * (s / n)[:, :, None]
    grad = np.empty_like(V)
    grad[:, :, :p] = (
        R.transpose(0, 2, 1) @ Z
        + (2.0 * lambda_l2)[:, None, None] * W
        + (2.0 * lambda_g)[:, None, None] * WL
    )
    grad[:, :, p] = R.sum(axis=1)
    return value, grad


def _one_hot(y: np.ndarray, K: int) -> np.ndarray:
    """Boolean indicators of the class indices ``y`` (any shape) along a new last axis of K."""
    return y[..., None] == np.arange(K)


def _data_hessian(
    V: np.ndarray, X: np.ndarray, c: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Hessian of the weighted cross-entropy in the reduced coordinates of each V of a stack.

    V = [W | b] is B x K x (p + 1), each with rows summing to zero, so it
    is fixed by theta = V[:, :J], J = K - 1, through V[:, J] = -sum(theta).
    X is B x n x (p + 1) and c is B x n. Rows and columns of a problem's
    Hessian follow theta.ravel(), i.e. [w_1, b_1, ..., w_J, b_J]. With
    x_i = [z_i, 1] and the full-space weights w_km = c (delta_km P_k -
    P_k P_m), block (k, m) is (X w~_km)^T X for the combined weights

        w~_km = w_km - w_kJ - w_mJ + w_JJ
              = c (delta_km P_k + P_J - (P_k - P_J)(P_m - P_J)).

    Each of the J(J+1)/2 distinct blocks comes from one batched matrix
    product, one matrix product per problem, written into ``out``
    (B x J(p + 1) x J(p + 1), contiguous) when given.
    """
    B, K, d = V.shape
    J = K - 1
    P = softmax_rows(X @ V.transpose(0, 2, 1))
    rows, cols = _class_pairs(J)
    last = P[:, :, J:]
    centred = P[:, :, :J] - last
    weights = c[:, :, None] * (
        (rows == cols) * P.take(rows, axis=2)
        + last
        - centred.take(rows, axis=2) * centred.take(cols, axis=2)
    )
    H = (np.empty((B, J * d, J * d)) if out is None else out).reshape(B, J, d, J, d)
    for pair, (k, m) in enumerate(zip(rows, cols)):
        weighted = weights[:, :, pair, None] * X
        np.matmul(weighted.transpose(0, 2, 1), X, out=H[:, k, :, m, :])
        if k != m:
            H[:, m, :, k, :] = H[:, k, :, m, :]
    return H.reshape(B, J * d, J * d)


@functools.lru_cache(maxsize=None)
def _class_pairs(J: int) -> tuple[np.ndarray, np.ndarray]:
    """Class pairs (k, m) with k <= m < J, as two read-only index arrays."""
    rows, cols = np.triu_indices(J)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _flat_directions(X: np.ndarray, c: np.ndarray, curvature: np.ndarray, J: int) -> np.ndarray:
    """Orthonormal basis of the reduced directions along which the objective is constant.

    Needed only without a ridge, or with a negligible one
    (:func:`_ridge_regimes`): with any other, the reduced Hessian is
    positive definite. Columns follow theta.ravel(), as in
    :func:`_data_hessian`. A direction is flat when it moves all K scores
    of every sample by one common amount and the penalty ``curvature``
    (reduced, like the Hessian) does not see it: CLR rows and Laplacian
    rows both sum to zero, so each w_k can move along the all-ones vector
    for free, which leaves J flat directions once the w_k sum to zero. That
    set does not depend on the probabilities, so it is the numerical null
    space of the reduced Hessian at V = 0 (numpy's matrix-rank tolerance).
    """
    d = X.shape[1]
    data = _data_hessian(np.zeros((1, J + 1, d)), X[None], c[None])[0]
    evals, evecs = np.linalg.eigh(data + curvature)
    return evecs[:, evals <= evals[-1] * J * d * np.finfo(float).eps]


def _ridge_regimes(
    Z: np.ndarray,
    s: np.ndarray,
    laplacian: np.ndarray,
    lambda_l2: np.ndarray,
    lambda_g: np.ndarray,
    K: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Which problems of a stack have a negligible ridge, and which a firm one.

    Z is B x n x p and s is B x n. A ridge is measured against the scale
    of the ridge-free Hessian, the largest diagonal entry of
    X^T diag(s / n) X (for X = [Z, 1]) plus that of 2 lambda_g L, and
    against tol = (K - 1)(p + 1) eps, the null-space tolerance of
    :func:`_flat_directions`. The rule depends on the inputs only.

    * Negligible: 2 lambda_l2 <= tol * scale. Along the flat directions
      such a ridge is below the rounding of the other entries, so a Newton
      system that relies on it can be exactly singular (lambda_l2 = 1e-20
      raised numpy's LinAlgError). These problems, lambda_l2 = 0 among
      them, are solved as without a ridge: their Newton systems fix the
      flat directions instead (:func:`_curvature`), while their objective
      keeps the ridge.
    * Firm: 2 lambda_l2 > sqrt(tol) * scale. Only these are solved in
      kernel form (:func:`_fit_batch`). Its rounding grows with the
      condition number of 2 lambda_l2 I + 2 lambda_g L, and its Newton
      systems pair the unpenalized bias with features scaled by up to
      1 / sqrt(2 lambda_l2). Below the bound, kernel fits of synthetic
      folds measured objectives up to 7e-6 relative above feature-space
      fits (13 x 26, lambda_l2 = 1e-8, lambda_g = 1000) and a singular
      Newton system (40 x 160, lambda_l2 = 1e-10, lambda_g = 0).
    """
    _, n, p = Z.shape
    c = s / n
    data = np.maximum(np.einsum("bi,bij->bj", c, Z * Z).max(axis=1, initial=0.0), c.sum(axis=1))
    graph = 2.0 * lambda_g * np.diagonal(laplacian, axis1=1, axis2=2).max(axis=1, initial=0.0)
    scale = data + graph
    tol = (K - 1) * (p + 1) * np.finfo(float).eps
    return 2.0 * lambda_l2 <= tol * scale, 2.0 * lambda_l2 > np.sqrt(tol) * scale


def _curvature(
    X: np.ndarray,
    c: np.ndarray,
    laplacian: np.ndarray,
    lambda_l2: np.ndarray,
    lambda_g: np.ndarray,
    flat: np.ndarray,
    J: int,
) -> np.ndarray:
    """Each problem's penalty Hessian in reduced coordinates, B x J(p + 1) x J(p + 1).

    That is (I_J + 1 1^T) kron [[2 lambda_l2 I + 2 lambda_g L, 0], [0, 0]].
    For each problem marked in ``flat`` (:func:`_ridge_regimes`) the
    ridge is left out and N N^T added instead, for an orthonormal basis N
    of its flat directions (:func:`_flat_directions`).
    """
    B, _, d = X.shape
    p = d - 1
    penalty = np.zeros((B, d, d))
    ridge = (2.0 * np.where(flat, 0.0, lambda_l2))[:, None, None] * np.eye(p)
    penalty[:, :p, :p] = ridge + (2.0 * lambda_g)[:, None, None] * laplacian
    curvature = np.kron(np.eye(J) + 1.0, penalty)
    if J:  # K = 1 leaves nothing to solve for
        for i in np.flatnonzero(flat):
            basis = _flat_directions(X[i], c[i], curvature[i], J)
            curvature[i] += basis @ basis.T
    return curvature


def _checked_fit_inputs(
    Z, y, K: int, sample_weights, laplacian
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The inputs of :func:`fit_arrays` as arrays, once they pass every check."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[0] == 0:
        raise InvalidShape(f"features must be an n x p matrix with n >= 1, got shape {Z.shape}")
    n, p = Z.shape
    y = np.asarray(y)
    s = np.asarray(sample_weights, dtype=float)
    laplacian = np.asarray(laplacian, dtype=float)
    if y.shape != (n,) or s.shape != (n,):
        raise LengthMismatch(
            f"{n} feature rows, but labels of shape {y.shape} "
            f"and sample weights of shape {s.shape}"
        )
    if laplacian.shape != (p, p):
        raise InvalidShape(f"Laplacian of shape {laplacian.shape} for {p} features")
    if not (np.isfinite(Z).all() and np.isfinite(s).all()):
        raise InvalidValue("features and sample weights must be finite")
    if not np.isfinite(laplacian).all():
        raise InvalidValue("Laplacian must be finite")
    if (s < 0.0).any():
        raise InvalidValue("sample weights must be >= 0")
    if y.dtype.kind not in "iu" or (y < 0).any() or (y >= K).any():
        raise InvalidValue(f"labels must be integer class indices in [0, {K})")
    return Z, y, s, laplacian


def fit_arrays(
    Z: np.ndarray,
    y: np.ndarray,
    K: int,
    sample_weights: np.ndarray,
    laplacian: np.ndarray,
    config: GrmlrConfig,
    track_history: bool = False,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Damped exact-Newton minimization of the regularized objective from zero.

    Low-level core shared by :func:`fit` and the evaluation harness; it
    checks its inputs and runs :func:`_fit_stack` on a stack of one
    problem. The parameters are one K x (p + 1) array V = [W | b] from
    start to return, and so is the gradient. Adding one vector to every
    row of V changes no probability, so the fit keeps the rows of V
    summing to zero and solves each Newton system in the J = K - 1 free
    rows theta = V[:J], with V[J] = -sum(theta). Starting from V = 0, each
    iteration solves for the step of theta with the reduced gradient
    g[:J] - g[J] and the exact reduced Hessian: :func:`_data_hessian` plus
    the penalty (I_J + 1 1^T) kron [[2 lambda_l2 I + 2 lambda_g L, 0],
    [0, 0]], built once per fit. The step of V is [d_theta; -sum(d_theta)],
    and the fit backtracks along it by halving until the Armijo condition
    holds. Newton on all K(p + 1) parameters from V = 0 keeps the rows
    summing to zero too, so its iterates are these, up to rounding.

    With lambda_l2 > 0 the reduced Hessian is positive definite. Without
    a ridge the objective is still exactly flat along a few reduced
    directions (:func:`_flat_directions`): for CLR features, each w_k along
    the all-ones vector. Adding N N^T for an orthonormal basis N of them
    makes the system nonsingular; the gradient is orthogonal to them, so
    a step moves along them only by rounding.

    A ridge that rounding loses (:func:`_ridge_regimes`, e.g. lambda_l2
    = 1e-20) is handled like none: the Newton systems leave it out and add
    N N^T, while the objective keeps it.

    It stops when the gradient max-norm, taken over the full K x (p + 1)
    gradient, is at most ``config.gtol``, when the relative decrease
    (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) of an accepted step is at most
    ``config.ftol``, when no step along the Newton direction passes the
    Armijo test, or after ``config.max_iters`` iterations; the last case
    with a gradient max-norm above 1e-3 warns
    :class:`NonConvergenceWarning` and reports ``converged=False``.

    :func:`fit`, :func:`~grmlr.evaluation.loocv` and the ablations fit
    through this function. The grid search, the alpha sweep and the
    permutation test solve their distinct fold problems in batches through
    :func:`_fit_batch`, which takes the same iterates up to rounding.

    Returns (W, b, info) where W and b are views of V and info records
    convergence diagnostics; with ``track_history`` its ``loss_history``
    holds the objective at the start and after every accepted step.

    Raises InvalidShape if ``Z`` is not an n x p matrix with n >= 1 or
    ``laplacian`` is not p x p, LengthMismatch if ``y`` or
    ``sample_weights`` does not have length n, and InvalidValue if ``Z``,
    ``sample_weights`` or ``laplacian`` holds NaN or +/-inf, a sample
    weight is negative, or a label is not an integer in [0, K).
    """
    Z, y, s, laplacian = _checked_fit_inputs(Z, y, K, sample_weights, laplacian)
    p = Z.shape[1]
    V, (info,) = _fit_stack(Z[None], y[None], K, s[None], laplacian[None], [config], track_history)
    return V[0, :, :p], V[0, :, p], info


@dataclass(frozen=True)
class _Stack:
    """The arrays of same-shape fit problems, one per leading index, for stacked math."""

    Z: np.ndarray  # B x n x p features
    X: np.ndarray  # B x n x (p + 1): the features and a column of ones
    onehot: np.ndarray  # B x n x K one-hot labels
    s: np.ndarray  # B x n sample weights
    c: np.ndarray  # B x n, s / n
    laplacian: np.ndarray  # B x p x p
    curvature: np.ndarray  # B x J(p + 1) x J(p + 1), from _curvature
    lambda_l2: np.ndarray
    lambda_g: np.ndarray
    # B x (n + 1) x (p + 1) for problems in kernel form (_fit_batch): maps
    # the gradient over [W~ | b] to the gradient over [W | b]. None for
    # problems in feature space.
    to_weights: Optional[np.ndarray] = None

    def take(self, rows: list[int]) -> "_Stack":
        """The problems at the increasing positions ``rows``; the stack itself when that is all."""
        if len(rows) == len(self.Z):
            return self
        arrays = (getattr(self, f.name) for f in fields(self))
        return _Stack(*(None if a is None else a[rows] for a in arrays))

    def max_norms(self, grad: np.ndarray) -> list[float]:
        """Each problem's gradient max-norm, over W and b even for a problem in kernel form."""
        if self.to_weights is not None:
            grad = grad @ self.to_weights
        return np.abs(grad).reshape(len(grad), -1).max(axis=1).tolist()

    def objective(self, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _objective(
            V, self.Z, self.onehot, self.s, self.laplacian, self.lambda_l2, self.lambda_g
        )

    def newton_step(self, V: np.ndarray, grad: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Each problem's Newton step of V, [d_theta; -sum(d_theta)], from its reduced system.

        ``out`` receives the reduced Hessians; reusing one buffer across
        iterations spares the allocator a large block per iteration.
        """
        B, K, d = V.shape
        J = K - 1
        H = _data_hessian(V, self.X, self.c, out)
        H += self.curvature
        rhs = (grad[:, J:] - grad[:, :J]).reshape(B, J * d, 1)
        reduced = np.linalg.solve(H, rhs).reshape(B, J, d)
        return np.concatenate([reduced, -reduced.sum(axis=1, keepdims=True)], axis=1)


# Bytes of the reduced Hessians, (K - 1)(p + 1) squared doubles per
# problem, that one _fit_batch call of a batch evaluation may hold. It
# bounds peak memory: a chunk of grid or permutation tasks queues its
# distinct fold problems and solves the queue whenever it holds
# _stack_capacity of them, so only one stack's Hessians, curvatures and
# Laplacians exist at a time; solving a whole default grid's queue at once
# would hold thousands. 600 KiB stacks 26 problems at 13 x 26 (K = 3), where
# one problem is too small to amortize numpy's per-call overhead, and holds
# one problem at 40 x 160, whose Newton steps are large solves already.
# Measured against 11, 18 and 52 problems at 13 x 26 in interleaved
# in-process pairs on 2 vCPUs, 26 was fastest on a 6-config grid and, like
# 18 and 52, faster than 11 on a 96-config grid. Capacity counts
# feature-space Hessians even where _fit_batch solves in kernel form, whose
# Hessians, (K - 1)(n + 1) squared, are smaller: such a stack holds the
# same problems in less memory.
_STACK_HESSIAN_BYTES = 600 * 1024

# Bytes of fold Laplacians and adjacency parts that one batch evaluation
# chunk keeps, so that the configs and label vectors sharing a fold graph
# build it once. The whole default grid's 1716 distinct fold graphs at
# 13 x 26 take about 9.3 MB; at 40 x 160 one graph takes 200 KiB, and the
# cache is emptied whenever it is full.
_GRAPH_CACHE_BYTES = 16 * 1024 * 1024


def _stack_capacity(K: int, p: int) -> int:
    """Problems of K classes and p features that _STACK_HESSIAN_BYTES holds, at least 1."""
    unknowns = max(1, (K - 1) * (p + 1))
    return max(1, _STACK_HESSIAN_BYTES // (8 * unknowns * unknowns))


def _fit_stack(
    Z: np.ndarray,
    y: np.ndarray,
    K: int,
    s: np.ndarray,
    laplacian: np.ndarray,
    configs: Sequence[GrmlrConfig],
    track_history: bool = False,
) -> tuple[np.ndarray, list[dict]]:
    """:func:`fit_arrays`' Newton iteration on a stack of B same-shape problems.

    Z is B x n x p, y and s are B x n, laplacian is B x p x p, and
    ``configs`` holds each problem's penalties and stopping rule; the inputs
    are not checked. Problem i's V and info are bit for bit those of
    :func:`fit_arrays` on problem i (see :func:`_newton`). Returns V,
    B x K x (p + 1), and the info dicts; NonConvergenceWarnings are issued
    in stack order.
    """
    lambda_l2 = np.array([cfg.lambda_l2 for cfg in configs], dtype=float)
    lambda_g = np.array([cfg.lambda_g for cfg in configs], dtype=float)
    flat, _ = _ridge_regimes(Z, s, laplacian, lambda_l2, lambda_g, K)
    V, f, n_iter, norms, history = _newton(
        Z, y, K, s, laplacian, lambda_l2, lambda_g, flat, configs, track_history
    )
    return V, _fit_infos(configs, f, n_iter, norms, history)


def _fit_batch(
    Z: np.ndarray,
    y: np.ndarray,
    K: int,
    s: np.ndarray,
    laplacian: np.ndarray,
    configs: Sequence[GrmlrConfig],
) -> tuple[np.ndarray, list[dict]]:
    """:func:`_fit_stack` for the batch evaluator, in kernel coordinates where those are fewer.

    Takes the inputs of :func:`_fit_stack` and returns V and the info
    dicts, warning in stack order. A problem with a firm ridge
    (:func:`_ridge_regimes`) and fewer sites than features, n < p, is
    solved in kernel form. Its P = 2 lambda_l2 I + 2 lambda_g L is positive
    definite, and by the representer theorem its minimizer, like every
    Newton iterate from W = 0, has the form A Z P^-1. So Newton runs on the
    features F of :func:`_kernel_features` with the penalty 1/2 ||W~||^2,
    in systems of (K - 1)(n + 1) unknowns instead of (K - 1)(p + 1), and
    returns W = W~ M^T. The objective is the same function of the scores
    and its gradient maps exactly to W-space, so the two forms take the
    same iterates and stop at the same tests up to rounding: ``gtol``, the
    non-convergence rule, the warning and ``grad_max_norm`` use the
    gradient over W and b, as :func:`fit_arrays` does. The other problems,
    all of them when n >= p, where the kernel is no smaller, are solved
    in feature space as by :func:`_fit_stack`, in a stack of their own.
    No info has a ``loss_history``.
    """
    B, n, p = Z.shape
    lambda_l2 = np.array([cfg.lambda_l2 for cfg in configs], dtype=float)
    lambda_g = np.array([cfg.lambda_g for cfg in configs], dtype=float)
    flat, firm = _ridge_regimes(Z, s, laplacian, lambda_l2, lambda_g, K)
    kernel = firm & (n < p)
    V = np.empty((B, K, p + 1))
    f, n_iter, norms = np.empty(B), np.empty(B, dtype=int), np.empty(B)
    rows = np.flatnonzero(~kernel)
    if rows.size:
        V[rows], f[rows], n_iter[rows], norms[rows], _ = _newton(
            Z[rows], y[rows], K, s[rows], laplacian[rows], lambda_l2[rows], lambda_g[rows],
            flat[rows], [configs[i] for i in rows],
        )
    rows = np.flatnonzero(kernel)
    if rows.size:
        F, M, to_weights = _kernel_features(
            Z[rows], laplacian[rows], lambda_l2[rows], lambda_g[rows]
        )
        m = len(rows)
        reduced, f[rows], n_iter[rows], norms[rows], _ = _newton(
            F, y[rows], K, s[rows], np.zeros((m, n, n)), np.full(m, 0.5), np.zeros(m),
            np.zeros(m, dtype=bool), [configs[i] for i in rows], to_weights=to_weights,
        )
        V[rows, :, :p] = reduced[:, :, :n] @ M.transpose(0, 2, 1)
        V[rows, :, p] = reduced[:, :, n]
    return V, _fit_infos(configs, f.tolist(), n_iter.tolist(), norms.tolist(), None)


def _kernel_features(
    Z: np.ndarray, laplacian: np.ndarray, lambda_l2: np.ndarray, lambda_g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each problem's kernel form: its features F, back-map M and gradient map.

    With P = 2 lambda_l2 I + 2 lambda_g L positive definite, the kernel
    G = Z P^-1 Z^T = U diag(sigma) U^T gives the n x n features
    F = U diag(sqrt(sigma)) and the p x n back-map
    M = P^-1 Z^T U diag(1 / sqrt(sigma)). Then Z M = F and M^T P M = I, so
    W = W~ M^T has the scores F W~^T and the penalty 1/2 ||W~||^2. The
    gradient over W is the gradient over W~ times M^T P
    = diag(1 / sqrt(sigma)) U^T Z, so the gradient over [W~ | b] times the
    (n + 1) x (p + 1) map [[M^T P, 0], [0, 1]] is the gradient over
    [W | b]. Columns whose sigma is at most sigma_max n eps (numpy's
    matrix-rank tolerance) are zeros in F and M, which keeps their weights
    at zero.
    """
    B, n, p = Z.shape
    P = (2.0 * lambda_l2)[:, None, None] * np.eye(p) + (2.0 * lambda_g)[:, None, None] * laplacian
    solved = np.linalg.solve(P, Z.transpose(0, 2, 1))
    sigma, U = np.linalg.eigh(Z @ solved)
    kept = sigma > sigma[:, -1:] * n * np.finfo(float).eps
    root = np.sqrt(np.where(kept, sigma, 1.0))
    F = U * np.where(kept, root, 0.0)[:, None, :]
    scaled = U * np.where(kept, 1.0 / root, 0.0)[:, None, :]
    to_weights = np.zeros((B, n + 1, p + 1))
    to_weights[:, :n, :p] = scaled.transpose(0, 2, 1) @ Z
    to_weights[:, n, p] = 1.0
    return F, solved @ scaled, to_weights


def _newton(
    Z: np.ndarray,
    y: np.ndarray,
    K: int,
    s: np.ndarray,
    laplacian: np.ndarray,
    lambda_l2: np.ndarray,
    lambda_g: np.ndarray,
    flat: np.ndarray,
    configs: Sequence[GrmlrConfig],
    track_history: bool = False,
    to_weights: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, list, list, list, Optional[list]]:
    """The damped Newton loop of :func:`fit_arrays` on a stack of B same-shape problems.

    Takes :func:`_fit_stack`'s inputs, except that the penalties are the
    arrays ``lambda_l2`` and ``lambda_g`` and that ``flat`` marks the
    problems solved as without a ridge (:func:`_ridge_regimes`);
    ``configs`` gives only the stopping rules. The objectives, Hessians,
    Newton systems and trial points of all live problems are computed
    stacked, each array operation working on every problem's slice as it
    would on that problem alone. Step lengths, Armijo tests and stop tests
    are scalar, per problem, and a problem leaves the stack when it stops.
    So a problem's results do not depend on the rest of the stack. For
    problems in kernel form (:func:`_fit_batch`), ``to_weights`` maps each
    gradient to W-space before its max-norm is taken. Returns V,
    B x K x (p + 1), and per problem its final objective, iteration count
    and gradient max-norm, and its objective history (None without
    ``track_history``). Issues no warning.
    """
    B, n, p = Z.shape
    d, J = p + 1, K - 1
    X = np.concatenate([Z, np.ones((B, n, 1))], axis=2)
    c = s / n
    curvature = _curvature(X, c, laplacian, lambda_l2, lambda_g, flat, J)
    live = _Stack(
        Z, X, _one_hot(y, K), s, c, laplacian, curvature, lambda_l2, lambda_g, to_weights
    )
    hessians = np.empty_like(curvature)
    V = np.zeros((B, K, d))
    value, grad = live.objective(V)
    # Per problem, by position in the input stack:
    f = value.tolist()
    n_iter = [0] * B
    history = [[v] for v in f] if track_history else None
    final_V, final_norm = np.empty_like(V), [0.0] * B
    # Per live problem, by row of V and grad:
    problems = list(range(B))
    stopped = [False] * B
    while True:
        norms = live.max_norms(grad)
        going = []
        for row, i in enumerate(problems):
            cfg = configs[i]
            if not stopped[row] and norms[row] > cfg.gtol and n_iter[i] < cfg.max_iters:
                going.append(row)
            else:
                final_V[i], final_norm[i] = V[row], norms[row]
        if not going:
            break
        if len(going) < len(problems):
            live, V, grad = live.take(going), V[going], grad[going]
            problems = [problems[row] for row in going]
        step = live.newton_step(V, grad, hessians[: len(problems)])
        slope = (grad.reshape(-1, 1, K * d) @ step.reshape(-1, K * d, 1)).ravel().tolist()
        stopped = [not sl < 0.0 for sl in slope]
        t = [1.0] * len(problems)
        pending = [row for row, halt in enumerate(stopped) if not halt]
        for _ in range(_MAX_HALVINGS):
            if not pending:
                break
            rows = slice(None) if len(pending) == len(problems) else pending
            lengths = np.array([t[row] for row in pending])
            trial = V[rows] + lengths[:, None, None] * step[rows]
            trial_value, trial_grad = live.take(pending).objective(trial)
            accepted, failed = [], []
            for k, (row, new) in enumerate(zip(pending, trial_value.tolist())):
                i = problems[row]
                old = f[i]
                if new <= old + _ARMIJO * t[row] * slope[row]:
                    accepted.append((row, k))
                    n_iter[i] += 1
                    f[i] = new
                    if history is not None:
                        history[i].append(new)
                    decrease = (old - new) / max(abs(old), abs(new), 1.0)
                    stopped[row] = decrease <= configs[i].ftol
                else:
                    t[row] *= 0.5
                    failed.append(row)
            if len(accepted) == len(problems):  # every live problem took its step
                V, grad = trial, trial_grad
            else:
                for row, k in accepted:
                    V[row], grad[row] = trial[k], trial_grad[k]
            pending = failed
        for row in pending:  # no step along the Newton direction passed the Armijo test
            stopped[row] = True
    return final_V, f, n_iter, final_norm, history


def _fit_infos(
    configs: Sequence[GrmlrConfig],
    f: list[float],
    n_iter: list[int],
    norms: list[float],
    history: Optional[list],
) -> list[dict]:
    """Each fit's info dict, warning NonConvergenceWarning in stack order for each that did not converge.

    A fit has not converged when it hit ``max_iters`` with a gradient
    max-norm above 1e-3.
    """
    infos = []
    for i, cfg in enumerate(configs):
        converged = not (n_iter[i] >= cfg.max_iters and norms[i] > _NONCONVERGENCE_GRAD_NORM)
        if not converged:
            warnings.warn(
                f"optimizer hit max_iters={cfg.max_iters} with gradient max-norm "
                f"{norms[i]:.3e}",
                NonConvergenceWarning,
                stacklevel=4,
            )
        infos.append(
            {
                "converged": converged,
                "n_iterations": n_iter[i],
                "final_loss": f[i],
                "grad_max_norm": norms[i],
                "loss_history": None if history is None else history[i],
            }
        )
    return infos


def build_features(dataset_or_abundances, epsilon: float, feature_mode: str) -> FeatureMatrix:
    """Feature matrix for the requested mode ('clr' or 'raw')."""
    abundances = getattr(dataset_or_abundances, "abundances", dataset_or_abundances)
    if feature_mode == "clr":
        return clr_transform(abundances, epsilon)
    if feature_mode == "raw":
        return raw_features(abundances)
    raise InvalidValue(f"feature_mode must be one of {_FEATURE_MODES}, got {feature_mode!r}")


def fit(
    dataset: Dataset,
    config: GrmlrConfig,
    feature_mode: str = "clr",
    track_history: bool = False,
) -> tuple[GrmlrModel, EcologicalGraph]:
    """Train a model on a labelled dataset; returns it with the graph used.

    Raises
    ------
    MissingLabels
        If the dataset has no stage labels.
    EmptyClass
        If no site has some stage of the label set.
    MissingMacrofauna
        If alpha > 0 but macrofauna counts are absent.
    """
    labels = _training_labels(dataset, "fit")
    features = build_features(dataset, config.epsilon, feature_mode)
    graph = build_graph(
        features, dataset.macrofauna, tau=config.tau, gamma=config.gamma, alpha=config.alpha
    )
    y = labels.indices()
    K = len(labels.label_set)
    W, b, info = fit_arrays(
        features.values,
        y,
        K,
        _sample_weights(y, K, config.class_balanced),
        graph.laplacian,
        config,
        track_history=track_history,
    )
    model = _fitted_model(W, b, info, features.taxa_names, labels.label_set, config, feature_mode)
    return model, graph


def _training_labels(dataset: Dataset, task: str) -> StageLabels:
    """The dataset's stage labels, for ``task`` ('fit', 'LOOCV') to train on.

    Raises MissingLabels without labels, and EmptyClass naming every stage
    of the label set that no site has.
    """
    if dataset.stages is None:
        raise MissingLabels(f"{task} requires stage labels")
    missing = [f"'{lab}'" for lab in dataset.stages.label_set if lab not in dataset.stages.labels]
    if missing:
        raise EmptyClass(f"no site has stage {' or '.join(missing)}")
    return dataset.stages


def _fitted_model(
    W, b, info: dict, taxa_names, label_set, config: GrmlrConfig, feature_mode: str
) -> GrmlrModel:
    """The model of one :func:`fit_arrays` result, with its solver diagnostics."""
    return GrmlrModel(
        weights=W,
        bias=b,
        taxa_names=list(taxa_names),
        label_set=tuple(label_set),
        hyperparams=config,
        feature_mode=feature_mode,
        converged=info["converged"],
        n_iterations=info["n_iterations"],
        final_loss=info["final_loss"],
        loss_history=info["loss_history"],
    )


def predict(model: GrmlrModel, abundances) -> StageLabels:
    """Stage labels for an abundance table, using only microbial features.

    Each site gets the label of its highest score z W^T + b; ties resolve
    to the lowest label index.
    """
    features = build_features(abundances, model.hyperparams.epsilon, model.feature_mode)
    _check_taxa(model.taxa_names, features.taxa_names)
    picks = _predicted_classes(features.values, model.weights, model.bias)
    labels = [model.label_set[i] for i in picks]
    return StageLabels(list(features.site_ids), labels, tuple(model.label_set))


def save_model(model: GrmlrModel, path: str | Path) -> None:
    """Serialize to the versioned JSON model format (full precision)."""
    payload = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "label_set": list(model.label_set),
        "taxa_names": list(model.taxa_names),
        "weights": [[float(v) for v in row] for row in model.weights],
        "bias": [float(v) for v in model.bias],
        "feature_mode": model.feature_mode,
        "converged": model.converged,
        "n_iterations": model.n_iterations,
        "final_loss": model.final_loss,
        "config": model.hyperparams.to_dict(),
    }
    _write_json(payload, path)


def load_model(path: str | Path) -> GrmlrModel:
    """Load a model written by :func:`save_model`.

    Raises IoFailure if the file cannot be read, and InvalidValue naming it
    if it is not a version-1 model file holding every key that
    :func:`save_model` writes, each with a value of the right type and shape.
    """
    try:
        payload = json.loads(_read_file(path))
    except json.JSONDecodeError as exc:
        raise InvalidValue(f"{path}: not a valid model file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise InvalidValue(f"{path}: not a {MODEL_FORMAT} file")
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise InvalidValue(
            f"{path}: unsupported format version {payload.get('format_version')}"
        )
    try:
        converged, n_iter, final_loss = (
            payload[key] for key in ("converged", "n_iterations", "final_loss")
        )
        if not isinstance(converged, bool):
            raise InvalidValue(f"converged must be a JSON bool, got {converged!r}")
        if isinstance(n_iter, bool) or not isinstance(n_iter, int):
            raise InvalidValue(f"n_iterations must be an integer, got {n_iter!r}")
        if isinstance(final_loss, bool) or not isinstance(final_loss, (int, float)):
            raise InvalidValue(f"final_loss must be a number, got {final_loss!r}")
        return GrmlrModel(
            weights=np.array(payload["weights"], dtype=float),
            bias=np.array(payload["bias"], dtype=float),
            taxa_names=list(payload["taxa_names"]),
            label_set=tuple(payload["label_set"]),
            hyperparams=GrmlrConfig.from_dict(payload["config"]),
            feature_mode=payload["feature_mode"],
            converged=converged,
            n_iterations=n_iter,
            final_loss=float(final_loss),
        )
    except (InvalidValue, KeyError, TypeError, ValueError) as exc:
        raise InvalidValue(f"{path}: malformed model file: {type(exc).__name__}: {exc}") from exc
