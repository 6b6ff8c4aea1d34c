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

Every fit needs a ridge: with fewer sites than taxa the classes are
typically separable, and the objective then has no minimizer without one
(Albert & Anderson, Biometrika 1984). A fit raises InvalidValue when
rounding loses its lambda_l2 against its data, as it loses 0.

One Newton loop, ``_newton``, solves a stack of same-shape problems,
each with its own data, penalties, step lengths and stop tests, and a
problem's result does not depend on the rest of the stack. It has two
entries. :func:`fit_arrays` checks one problem and solves it in feature
space; the tests use it as the reference. ``_fit_batch`` solves the
distinct fold problems of the grid search, the alpha sweep and the
permutation test in batches. It solves a problem with a firm ridge and
fewer sites than features, n < p, in kernel form: by the representer
theorem the fit lies in an n-dimensional space, so each Newton system has
(K - 1)(n + 1) unknowns instead of (K - 1)(p + 1). Every other problem it
solves in feature space, bit for bit as :func:`fit_arrays` does, except
those whose ridge is negligible: it returns their errors instead. Both
forms take the same iterates and stop tests, on the gradient over W and
b, up to rounding.

Training consumes macrofauna counts only through the graph; prediction
needs nothing but an abundance table, which is the whole point of the
decoupled deployment scheme.
"""

from __future__ import annotations

import contextlib
import functools
import json
import numbers
import threading
import warnings
from dataclasses import asdict, dataclass, fields
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
    number (numpy scalars included, ``bool`` excluded in both). Numbers are
    stored as builtin ``int`` and ``float``, so a config built from numpy
    scalars equals, fits and serializes like one built from their values.

    ``lambda_l2 = 0`` is a valid config, and :func:`loss` evaluates the
    objective under it, but no fit accepts it: on a fold whose training
    classes are separable (typical when p > n) the objective then has no
    minimizer. A fit raises InvalidValue for any ``lambda_l2`` that rounding
    loses against its data (:func:`_ridge_regimes`), 0 and e.g. 1e-20
    alike; whether a small positive ridge is lost depends on the data.
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
            try:
                object.__setattr__(self, spec.name, kind(value))
            except OverflowError:
                raise InvalidValue(f"{spec.name} must be finite, got {value!r}") from None
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
        names = set(cls.__dataclass_fields__)
        for problem, wrong in (("unknown", set(data) - names), ("missing", names - set(data))):
            if wrong:
                raise InvalidValue(f"{problem} config fields: {sorted(wrong)}")
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

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim != 2:
            raise InvalidValue(f"weights must be a K x p matrix, got shape {self.weights.shape}")
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


def _sample_weights(y: np.ndarray, K: int, class_balanced) -> np.ndarray:
    """Training weights for each row of label indices ``y`` (..., n): class-balanced, or all ones.

    ``class_balanced`` is one bool, or one per row. A balanced row's weights
    are n / (K * n_class). Raises EmptyClass naming the classes that the
    first balanced row to miss a class has no samples of.
    """
    counts = _one_hot(y, K).sum(axis=-2)
    balanced = np.broadcast_to(class_balanced, counts.shape[:-1])[..., None]
    missing = ((counts == 0) & balanced).reshape(-1, K)
    if missing.any():
        first = missing[missing.any(axis=1)][0]
        raise EmptyClass(f"no samples for class index(es) {np.flatnonzero(first).tolist()}")
    weights = y.shape[-1] / (K * np.take_along_axis(counts, y, axis=-1).astype(float))
    return np.where(balanced, weights, 1.0)


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
    value, grad, _ = _objective(
        V[None],
        np.column_stack([Z, np.ones(len(Z))])[None],
        _one_hot(y, model.n_classes)[None],
        (s / len(Z))[None],
        _penalties(np.array([cfg.lambda_l2]), np.array([cfg.lambda_g]), laplacian[None]),
    )
    return value[0], grad[0]


def _objective(
    V: np.ndarray, X: np.ndarray, onehot: np.ndarray, c: np.ndarray, penalty: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objective, gradient and class probabilities of each problem of a stack at its V = [W | b].

    V and the gradient are B x K x d, X = [features | 1] is B x n x d,
    ``onehot`` is the B x n x K boolean one-hot of the labels, c is B x n
    (the sample weights over n), ``penalty`` is B x d x d (:func:`_penalties`)
    and the returned objective values have length B. The objective is
    -sum_i c_i log P(y_i | x_i) + 1/2 sum_k v_k^T penalty v_k, and its
    gradient ((P - Y) c)^T X + V penalty. The probabilities P, B x n x K,
    are ``softmax_rows(X @ V^T)`` bit for bit, which :func:`_reduced_hessian`
    takes. Every product and reduction runs over one problem's slice along
    the axis it runs along for that problem alone, so a problem's values do
    not depend on the rest of the stack.
    """
    B, n, _ = X.shape
    scores = X @ V.transpose(0, 2, 1)
    shifted = scores - scores.max(axis=2, keepdims=True)
    e = np.exp(shifted)
    norm = e.sum(axis=2)
    log_p_true = shifted[onehot].reshape(B, n) - np.log(norm)
    VP = V @ penalty
    value = 0.5 * (V * VP).reshape(B, -1).sum(axis=1) - (c * log_p_true).sum(axis=1)
    P = e / norm[:, :, None]
    R = (P - onehot) * c[:, :, None]
    return value, R.transpose(0, 2, 1) @ X + VP, P


def _penalties(lambda_l2: np.ndarray, lambda_g: np.ndarray, laplacian: np.ndarray) -> np.ndarray:
    """Each problem's penalty Hessian over one class's [w_k | b_k], B x (p + 1) x (p + 1).

    That is [[2 lambda_l2 I + 2 lambda_g L, 0], [0, 0]] for the lengths-B
    ``lambda_l2`` and ``lambda_g`` and the B x p x p Laplacians L: the bias
    is not penalized.
    """
    B, p, _ = laplacian.shape
    penalty = np.zeros((B, p + 1, p + 1))
    penalty[:, :p, :p] = (2.0 * lambda_l2)[:, None, None] * np.eye(p)
    penalty[:, :p, :p] += (2.0 * lambda_g)[:, None, None] * laplacian
    return penalty


def _one_hot(y: np.ndarray, K: int) -> np.ndarray:
    """Boolean indicators of the class indices ``y`` (any shape) along a new last axis of K."""
    return y[..., None] == np.arange(K)


def _reduced_hessian(
    P: np.ndarray, X: np.ndarray, c: np.ndarray, penalty: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Hessian of the objective in the reduced coordinates of each V of a stack.

    V = [W | b] is B x K x (p + 1), each with rows summing to zero, so it
    is fixed by theta = V[:, :J], J = K - 1, through V[:, J] = -sum(theta).
    The Hessian reads V only through its class probabilities
    P = softmax_rows(X @ V^T), B x n x K, which :func:`_objective` returned
    at that V, so they are not formed again here. X is B x n x (p + 1), c
    is B x n and ``penalty`` B x (p + 1) x (p + 1).
    Rows and columns of a problem's Hessian follow theta.ravel(), i.e.
    [w_1, b_1, ..., w_J, b_J]. With x_i = [z_i, 1] and the full-space
    weights w_km = c (delta_km P_k - P_k P_m), block (k, m) is
    (X w~_km)^T X for the combined weights

        w~_km = w_km - w_kJ - w_mJ + w_JJ
              = c (delta_km P_k + P_J - (P_k - P_J)(P_m - P_J)),

    plus (1 + delta_km) ``penalty``, the block of (I_J + 1 1^T) kron
    ``penalty``. Each of the J(J+1)/2 distinct blocks comes from one
    batched matrix product, written into ``out`` (B x J(p + 1) x J(p + 1)).
    """
    B, _, K = P.shape
    d = X.shape[2]
    J = K - 1
    rows, cols = _class_pairs(J)
    last = P[:, :, J:]
    centred = P[:, :, :J] - last
    weights = c[:, :, None] * (
        (rows == cols) * P.take(rows, axis=2)
        + last
        - centred.take(rows, axis=2) * centred.take(cols, axis=2)
    )
    doubled = 2.0 * penalty
    H = out.reshape(B, J, d, J, d)
    for pair, (k, m) in enumerate(zip(rows, cols)):
        block = H[:, k, :, m, :]
        np.matmul((weights[:, :, pair, None] * X).transpose(0, 2, 1), X, out=block)
        block += doubled if k == m else penalty
        if k != m:
            H[:, m, :, k, :] = block
    return H.reshape(B, J * d, J * d)


@functools.lru_cache(maxsize=None)
def _class_pairs(J: int) -> tuple[np.ndarray, np.ndarray]:
    """Class pairs (k, m) with k <= m < J, as two read-only index arrays."""
    rows, cols = np.triu_indices(J)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


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
    against tol = (K - 1)(p + 1) eps, the rank tolerance of a reduced
    Hessian. The rule depends on the inputs only.

    * Negligible: 2 lambda_l2 <= tol * scale. Such a ridge is below the
      rounding of the Hessian's other entries, so a Newton system that
      relies on it can be exactly singular (lambda_l2 = 1e-20 raised
      numpy's LinAlgError), and without it a fold whose classes are
      separable has no minimizer. These problems, lambda_l2 = 0 among
      them and every one with K = 1, where tol is 0, are not solved
      (:func:`_negligible_ridge`).
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


def _negligible_ridge(lambda_l2: float) -> InvalidValue:
    """The error of a fit whose ridge is negligible (:func:`_ridge_regimes`)."""
    return InvalidValue(f"lambda_l2={lambda_l2!r} is lost to rounding on this fit")


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
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Damped exact-Newton minimization of the regularized objective from zero.

    Low-level core shared by :func:`fit` and the evaluation harness; it
    checks its inputs and runs :func:`_newton` on a stack of one problem.
    The parameters are one K x (p + 1) array V = [W | b] from start to
    return, and so is the gradient. Adding one vector to every row of V
    changes no probability, so the fit keeps the rows of V summing to zero
    and solves each Newton system in the J = K - 1 free rows
    theta = V[:J], with V[J] = -sum(theta). Starting from V = 0, each
    iteration solves for the step of theta with the reduced gradient
    g[:J] - g[J] and the exact reduced Hessian (:func:`_reduced_hessian`),
    whose penalty (I_J + 1 1^T) kron P, for the penalty matrix
    P = [[2 lambda_l2 I + 2 lambda_g L, 0], [0, 0]] of :func:`_penalties`,
    is added block by block. The step of V is
    [d_theta; -sum(d_theta)], and the fit backtracks along it by halving
    until the Armijo condition holds. Newton on all K(p + 1) parameters
    from V = 0 keeps the rows summing to zero too, so its iterates are
    these, up to rounding.

    With lambda_l2 > 0 the reduced Hessian is positive definite. A ridge
    that rounding loses against the data (:func:`_ridge_regimes`), such as
    lambda_l2 = 0 or 1e-20, is rejected before any iteration: without it
    the objective is constant along a few reduced directions (for CLR
    features, each w_k along the all-ones vector), and a fold whose classes
    are separable has no minimizer.

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
    :func:`_fit_batch`, the other solver entry, which takes the same
    iterates up to rounding.

    Returns (W, b, info) where W and b are views of V and info records
    the convergence diagnostics of :func:`_fit_infos`.

    Raises InvalidShape if ``Z`` is not an n x p matrix with n >= 1 or
    ``laplacian`` is not p x p, LengthMismatch if ``y`` or
    ``sample_weights`` does not have length n, and InvalidValue if ``Z``,
    ``sample_weights`` or ``laplacian`` holds NaN or +/-inf, a sample
    weight is negative, a label is not an integer in [0, K), or
    ``config.lambda_l2`` is negligible against the data.
    """
    Z, y, s, laplacian = _checked_fit_inputs(Z, y, K, sample_weights, laplacian)
    p = Z.shape[1]
    Z, y, s, laplacian = Z[None], y[None], s[None], laplacian[None]
    lambda_l2 = np.array([config.lambda_l2], dtype=float)
    lambda_g = np.array([config.lambda_g], dtype=float)
    negligible, _ = _ridge_regimes(Z, s, laplacian, lambda_l2, lambda_g, K)
    if negligible[0]:
        raise _negligible_ridge(config.lambda_l2)
    V, f, n_iter, norms = _newton(Z, y, K, s, _penalties(lambda_l2, lambda_g, laplacian), [config])
    (info,) = _fit_infos([config], f, n_iter, norms)
    return V[0, :, :p], V[0, :, p], info


@dataclass(frozen=True)
class _Stack:
    """The arrays of same-shape fit problems, one per leading index, for stacked math."""

    X: np.ndarray  # B x n x d: the features and a column of ones
    onehot: np.ndarray  # B x n x K one-hot labels
    c: np.ndarray  # B x n sample weights over n
    penalty: np.ndarray  # B x d x d: _penalties, or diag(1, ..., 1, 0) in kernel form
    # B x (n + 1) x (p + 1) for problems in kernel form (_fit_batch): maps
    # the gradient over [W~ | b] to the gradient over [W | b]. None for
    # problems in feature space.
    to_weights: Optional[np.ndarray] = None

    def take(self, rows: list[int]) -> "_Stack":
        """The problems at the increasing positions ``rows``; the stack itself when that is all."""
        if len(rows) == len(self.X):
            return self
        to_weights = None if self.to_weights is None else self.to_weights[rows]
        return _Stack(self.X[rows], self.onehot[rows], self.c[rows], self.penalty[rows], to_weights)

    def max_norms(self, grad: np.ndarray) -> list[float]:
        """Each problem's gradient max-norm, over W and b even for a problem in kernel form."""
        if self.to_weights is not None:
            grad = grad @ self.to_weights
        return np.abs(grad).reshape(len(grad), -1).max(axis=1).tolist()

    def objective(self, V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _objective(V, self.X, self.onehot, self.c, self.penalty)

    def newton_step(self, P: np.ndarray, grad: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Each problem's Newton step of V, [d_theta; -sum(d_theta)], from its reduced system.

        P holds the class probabilities that :meth:`objective` returned at
        V. ``out`` receives the reduced Hessians; reusing one buffer across
        iterations spares the allocator a large block per iteration.
        """
        B, K, d = grad.shape
        J = K - 1
        H = _reduced_hessian(P, self.X, self.c, self.penalty, out)
        rhs = (grad[:, J:] - grad[:, :J]).reshape(B, J * d, 1)
        reduced = np.linalg.solve(H, rhs).reshape(B, J, d)
        return np.concatenate([reduced, -reduced.sum(axis=1, keepdims=True)], axis=1)


# Bytes of fit problems that one stack of a batch evaluation may hold. A
# problem counts the doubles of its reduced Hessian, (K - 1)(m + 1) squared,
# and of its p x p Laplacian, where m is the dimension it is solved in:
# n_train in kernel form, p in feature space. It bounds peak memory: grid
# or permutation tasks queue their distinct fold problems, each
# _stack_capacity of them a stack, so a process solves one stack's
# Hessians, penalties and Laplacians at a time, not a default grid's
# thousands; _fit_batch splits the problems it solves in feature space
# into stacks of the same bytes. At 13 x 26 (K = 3) 600 KiB stacks 56
# kernel problems, where one problem is too small to amortize numpy's
# per-call overhead, so the 52 distinct fold fits of a 6-config grid are
# one stack. In alternating in-process pairs on 2 vCPUs with one BLAS
# thread, that one stack took 0.94 x the time of two stacks of 26 (better
# in 178 of 200 pairs), and stacks of 56 took 0.96 x and 0.87 x the time of
# stacks of 26 on the 96-config and the default grid. At 40 x 160 it
# stacks two kernel problems, or one in feature space, whose Newton steps
# are large solves already. The Laplacian counts because a kernel stack
# also holds each problem's p x p Laplacian and penalty matrix: counting
# the kernel Hessian alone stacks 11 problems at 40 x 160 and raised the
# tracemalloc peak of permutation_test(B=8) there from 26.7 to 37.5 MB.
# It also sizes the batch evaluator's fold-graph blocks, at five p x p
# arrays per fold: all 13 folds at 13 x 26, one fold from p = 88, and one,
# the floor, over budget from p = 124 (so at 40 x 160 and 13 x 400).
_STACK_BYTES = 600 * 1024


def _stack_capacity(K: int, n: int, p: int) -> int:
    """Problems of K classes, n sites and p features that _STACK_BYTES holds, at least 1.

    Each counts in the form that :func:`_fit_batch` solves a firm ridge in:
    kernel form when n < p, else feature space.
    """
    d = min(n, p) + 1
    return max(1, _STACK_BYTES // (8 * ((K - 1) ** 2 * d * d + p * p)))


def _fit_batch(
    Z: np.ndarray,
    y: np.ndarray,
    K: int,
    s: np.ndarray,
    laplacian: np.ndarray,
    configs: Sequence[GrmlrConfig],
) -> tuple[np.ndarray, list[dict]]:
    """The batch evaluator's stacked fits, in kernel coordinates where those are fewer.

    Z is B x n x p, y and s are B x n, laplacian is B x p x p, and
    ``configs`` holds each problem's penalties and stopping rule; the inputs
    are not checked. Returns V, B x K x (p + 1), and the info dicts, warning
    NonConvergenceWarning in stack order. A problem with a negligible ridge
    (:func:`_ridge_regimes`) is not solved: its V is NaN and in place of its
    info stands the InvalidValue that :func:`fit_arrays` raises for it. A
    problem with a firm ridge and fewer sites than features, n < p, is
    solved in kernel form. Its P = 2 lambda_l2 I + 2 lambda_g L is positive
    definite, and by the representer theorem its minimizer, like every
    Newton iterate from W = 0, has the form A Z P^-1. So Newton runs on the
    features F of :func:`_kernel_features` with the penalty matrix
    diag(1, ..., 1, 0), that is 1/2 ||W~||^2, in systems of (K - 1)(n + 1)
    unknowns instead of (K - 1)(p + 1), and returns W = W~ M^T. The
    objective is the same function of the scores and its gradient maps
    exactly to W-space, so the two forms take the same iterates and stop at
    the same tests up to rounding: ``gtol``, the non-convergence rule, the
    warning and ``grad_max_norm`` use the gradient over W and b, as
    :func:`fit_arrays` does. The other problems, all of them when n >= p,
    where the kernel is no smaller, are solved in feature space, in stacks
    of their own of at most ``_stack_capacity(K, p, p)``: each one's V and
    info are bit for bit those of :func:`fit_arrays` on it alone.
    """
    B, n, p = Z.shape
    lambda_l2 = np.array([cfg.lambda_l2 for cfg in configs], dtype=float)
    lambda_g = np.array([cfg.lambda_g for cfg in configs], dtype=float)
    negligible, firm = _ridge_regimes(Z, s, laplacian, lambda_l2, lambda_g, K)
    penalty = _penalties(lambda_l2, lambda_g, laplacian)
    kernel = firm & (n < p)
    V = np.full((B, K, p + 1), np.nan)
    # 0 iterations: _fit_infos warns for no problem left unsolved
    f, n_iter, norms = np.empty(B), np.zeros(B, dtype=int), np.empty(B)
    feature = np.flatnonzero(~kernel & ~negligible)
    capacity = _stack_capacity(K, p, p)  # as feature space
    for start in range(0, len(feature), capacity):
        rows = feature[start : start + capacity]
        V[rows], f[rows], n_iter[rows], norms[rows] = _newton(
            Z[rows], y[rows], K, s[rows], penalty[rows], [configs[i] for i in rows]
        )
    rows = np.flatnonzero(kernel)
    if rows.size:
        F, M, to_weights = _kernel_features(Z[rows], penalty[rows])
        unit = np.broadcast_to(np.diag(np.append(np.ones(n), 0.0)), (len(rows), n + 1, n + 1))
        reduced, f[rows], n_iter[rows], norms[rows] = _newton(
            F, y[rows], K, s[rows], unit, [configs[i] for i in rows], to_weights=to_weights
        )
        V[rows, :, :p] = reduced[:, :, :n] @ M.transpose(0, 2, 1)
        V[rows, :, p] = reduced[:, :, n]
    infos = _fit_infos(configs, f.tolist(), n_iter.tolist(), norms.tolist())
    return V, [
        _negligible_ridge(cfg.lambda_l2) if lost else info
        for cfg, lost, info in zip(configs, negligible.tolist(), infos)
    ]


def _kernel_features(Z: np.ndarray, penalty: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each problem's kernel form: its features F, back-map M and gradient map.

    With P = 2 lambda_l2 I + 2 lambda_g L, the p x p block of ``penalty``
    (:func:`_penalties`), positive definite, the kernel
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
    solved = np.linalg.solve(penalty[:, :p, :p], Z.transpose(0, 2, 1))
    sigma, U = np.linalg.eigh(Z @ solved)
    kept = sigma > sigma[:, -1:] * n * np.finfo(float).eps
    root = np.sqrt(np.where(kept, sigma, 1.0))
    F = U * np.where(kept, root, 0.0)[:, None, :]
    scaled = U * np.where(kept, 1.0 / root, 0.0)[:, None, :]
    to_weights = np.zeros((B, n + 1, p + 1))
    to_weights[:, :n, :p] = scaled.transpose(0, 2, 1) @ Z
    to_weights[:, n, p] = 1.0
    return F, solved @ scaled, to_weights


# Thread-count setter and getter names of OpenBLAS builds: numpy's wheels
# bundle scipy_openblas, whose ILP64 build suffixes its symbols with 64_,
# and an LP64 build exports them without the suffix.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[tuple]:
    """(set, get) of the thread count of the OpenBLAS that numpy loaded; None where none is found.

    The symbols are looked up through the handle of numpy's own extension
    module, which reaches the libraries it was linked against, so this finds
    the BLAS that numpy calls and no other. ctypes is imported here, on
    first use, not when grmlr is imported.
    """
    import ctypes

    try:
        core = getattr(np, "_core", None) or np.core  # numpy >= 2 names it _core
        library = ctypes.CDLL(core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
        try:
            set_threads, get_threads = getattr(library, set_name), getattr(library, get_name)
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None


def _blas_threads() -> Optional[int]:
    """OpenBLAS's thread count now; None where :func:`_openblas` finds no library."""
    blas = _openblas()
    return None if blas is None else blas[1]()


# The fit sessions open in this process, counted under one lock: how many
# are open, the call that restores OpenBLAS's thread count from before the
# first, and the one spare Hessian buffer that _newton takes and hands back.
# The state is process-wide because the BLAS thread count is.
_SESSION_LOCK = threading.Lock()
_session: dict = {"open": 0, "restore": None, "spare": None}


def _open_fit_session() -> None:
    """Open a fit session; the first pins OpenBLAS to one thread. Pool workers' initializer."""
    with _SESSION_LOCK:
        _session["open"] += 1
        blas = _openblas() if _session["open"] == 1 else None
        if blas is not None:
            set_threads, get_threads = blas
            _session["restore"] = functools.partial(set_threads, get_threads())
            set_threads(1)


def _close_fit_session() -> None:
    """Close a fit session; the last restores the thread count and drops the spare buffer."""
    with _SESSION_LOCK:
        _session["open"] -= 1
        if _session["open"] == 0:
            restore, _session["restore"], _session["spare"] = _session["restore"], None, None
            if restore is not None:
                restore()


@contextlib.contextmanager
def _fit_session():
    """One fit session around a call that fits; also a decorator.

    A fit's Newton systems are small (322 unknowns at 40 x 160), and a
    second OpenBLAS thread makes them slower, and slower still beside a
    process pool's workers; its rounding also differs from one thread's.
    So while any session is open OpenBLAS runs one thread, and its count
    from before the first session is restored when the last closes, even
    if the call raises. Nested calls and concurrent threads share the one
    count. Where :func:`_openblas` finds no library the threads are left
    alone. While a session is open, :func:`_newton` reuses one Hessian
    buffer across calls, so consecutive fits of one shape do not fault a
    new one in; no buffer outlives the outermost session.
    """
    _open_fit_session()
    try:
        yield
    finally:
        _close_fit_session()


def _hessian_buffer(shape: tuple) -> np.ndarray:
    """The open sessions' spare buffer when it has ``shape``, else a new one."""
    with _SESSION_LOCK:
        spare = _session["spare"]
        if spare is not None and spare.shape == shape:
            _session["spare"] = None
            return spare
    return np.empty(shape)


def _hand_back(buffer: np.ndarray) -> None:
    """Keep ``buffer`` as the spare while a fit session is open."""
    with _SESSION_LOCK:
        if _session["open"]:
            _session["spare"] = buffer


def _newton(
    Z: np.ndarray,
    y: np.ndarray,
    K: int,
    s: np.ndarray,
    penalty: np.ndarray,
    configs: Sequence[GrmlrConfig],
    to_weights: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, list, list, list]:
    """The damped Newton loop of :func:`fit_arrays` on a stack of B same-shape problems.

    Z is B x n x p, y and s are B x n and ``penalty`` is B x (p + 1) x
    (p + 1), all unchecked: each problem's objective is its data term on
    X = [Z | 1] plus 1/2 sum_k v_k^T penalty v_k (:func:`_objective`),
    whose ridge is not negligible (:func:`_ridge_regimes`). ``configs``
    gives only the stopping rules. Its two callers are
    :func:`fit_arrays`, with a stack of one, and :func:`_fit_batch`. The
    objectives, Hessians, Newton systems and trial points of all live
    problems are computed stacked, each array operation working on every
    problem's slice as it would on that problem alone. Step lengths, Armijo
    tests and stop tests are scalar, per problem, and a problem leaves the
    stack when it stops. So a problem's results do not depend on the rest
    of the stack. For problems in kernel form (:func:`_fit_batch`),
    ``to_weights`` maps each gradient to W-space before its max-norm is
    taken. The class probabilities that :func:`_objective` forms at a
    point travel with V and its gradient, through compaction and accepted
    steps, so the reduced Hessian at an iterate takes the softmax that its
    line search formed instead of forming it again. The line search takes
    its stack of pending problems once and reuses it across halvings while
    the same problems stay pending. Each iteration writes the reduced
    Hessians into one buffer. Inside a fit session (:func:`_fit_session`)
    that is the session's spare of its shape, if there is one, and it is
    handed back on return; :func:`_reduced_hessian` writes every entry, so
    a reused buffer changes no byte.
    Returns V, B x K x (p + 1), and per problem its final objective,
    iteration count and gradient max-norm. Issues no warning.
    """
    B, n, p = Z.shape
    d, J = p + 1, K - 1
    X = np.concatenate([Z, np.ones((B, n, 1))], axis=2)
    live = _Stack(X, _one_hot(y, K), s / n, penalty, to_weights)
    hessians = _hessian_buffer((B, J * d, J * d))
    V = np.zeros((B, K, d))
    value, grad, P = live.objective(V)
    # Per problem, by position in the input stack:
    f = value.tolist()
    n_iter = [0] * B
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
            live, V, grad, P = live.take(going), V[going], grad[going], P[going]
            problems = [problems[row] for row in going]
        step = live.newton_step(P, grad, hessians[: len(problems)])
        slope = (grad.reshape(-1, 1, K * d) @ step.reshape(-1, K * d, 1)).ravel().tolist()
        stopped = [not sl < 0.0 for sl in slope]
        t = [1.0] * len(problems)
        pending = [row for row, halt in enumerate(stopped) if not halt]
        taken = trying = None
        for _ in range(_MAX_HALVINGS):
            if not pending:
                break
            if pending != taken:
                taken, trying = pending, live.take(pending)
            rows = slice(None) if len(pending) == len(problems) else pending
            lengths = np.array([t[row] for row in pending])
            trial = V[rows] + lengths[:, None, None] * step[rows]
            trial_value, trial_grad, trial_P = trying.objective(trial)
            accepted, failed = [], []
            for k, (row, new) in enumerate(zip(pending, trial_value.tolist())):
                i = problems[row]
                old = f[i]
                if new <= old + _ARMIJO * t[row] * slope[row]:
                    accepted.append((row, k))
                    n_iter[i] += 1
                    f[i] = new
                    decrease = (old - new) / max(abs(old), abs(new), 1.0)
                    stopped[row] = decrease <= configs[i].ftol
                else:
                    t[row] *= 0.5
                    failed.append(row)
            if len(accepted) == len(problems):  # every live problem took its step
                V, grad, P = trial, trial_grad, trial_P
            else:
                for row, k in accepted:
                    V[row], grad[row], P[row] = trial[k], trial_grad[k], trial_P[k]
            pending = failed
        for row in pending:  # no step along the Newton direction passed the Armijo test
            stopped[row] = True
    _hand_back(hessians)
    return final_V, f, n_iter, final_norm


def _fit_infos(
    configs: Sequence[GrmlrConfig],
    f: list[float],
    n_iter: list[int],
    norms: list[float],
) -> list[dict]:
    """Each fit's info dict, warning NonConvergenceWarning in stack order for each that did not converge.

    An info holds ``converged``, ``n_iterations``, ``final_loss`` (the
    objective at the returned V) and ``grad_max_norm``. A fit has not
    converged when it hit ``max_iters`` with a gradient max-norm above
    1e-3. Each warning names the line that called the solver entry,
    :func:`fit_arrays` or :func:`_fit_batch`, that called this.
    """
    infos = []
    for i, cfg in enumerate(configs):
        converged = not (n_iter[i] >= cfg.max_iters and norms[i] > _NONCONVERGENCE_GRAD_NORM)
        if not converged:
            warnings.warn(
                f"optimizer hit max_iters={cfg.max_iters} with gradient max-norm "
                f"{norms[i]:.3e}",
                NonConvergenceWarning,
                stacklevel=3,
            )
        infos.append(
            {
                "converged": converged,
                "n_iterations": n_iter[i],
                "final_loss": f[i],
                "grad_max_norm": norms[i],
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


@_fit_session()
def fit(dataset: Dataset, config: GrmlrConfig) -> tuple[GrmlrModel, EcologicalGraph]:
    """Train a model on a labelled dataset; returns it with the graph used.

    It runs in one fit session (``_fit_session``), with one BLAS thread.

    The features are the CLR coordinates of the abundances, as in the
    paper's pipeline; raw features serve only the no-CLR arm of
    :func:`~grmlr.evaluation.ablate`, through
    :func:`~grmlr.evaluation.loocv`.

    Raises
    ------
    MissingLabels
        If the dataset has no stage labels.
    EmptyClass
        If no site has some stage of the label set.
    MissingMacrofauna
        If alpha > 0 but macrofauna counts are absent.
    InvalidValue
        If ``config.lambda_l2`` is negligible against the data, as 0 always
        is (see :func:`fit_arrays`).
    """
    labels = _training_labels(dataset, "fit")
    features = clr_transform(dataset.abundances, config.epsilon)
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
    )
    model = _fitted_model(W, b, info, features.taxa_names, labels.label_set, config, "clr")
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
    version = payload.get("format_version")
    # a JSON true or 1.0 equals 1 in Python, but only the integer 1 is version 1
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise InvalidValue(f"{path}: unsupported format version {version}")
    try:
        converged, n_iter, final_loss = (
            payload[key] for key in ("converged", "n_iterations", "final_loss")
        )
        if not isinstance(converged, bool):
            raise InvalidValue(f"converged must be a JSON bool, got {converged!r}")
        if isinstance(n_iter, bool) or not isinstance(n_iter, int) or n_iter < 0:
            raise InvalidValue(f"n_iterations must be an integer >= 0, got {n_iter!r}")
        if isinstance(final_loss, bool) or not isinstance(final_loss, (int, float)):
            raise InvalidValue(f"final_loss must be a number, got {final_loss!r}")
        return GrmlrModel(
            weights=_json_numbers(payload["weights"], "weights"),
            bias=_json_numbers(payload["bias"], "bias"),
            taxa_names=_json_strings(payload["taxa_names"], "taxa_names"),
            label_set=tuple(_json_strings(payload["label_set"], "label_set")),
            hyperparams=GrmlrConfig.from_dict(payload["config"]),
            feature_mode=payload["feature_mode"],
            converged=converged,
            n_iterations=n_iter,
            final_loss=float(final_loss),
        )
    except (InvalidValue, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InvalidValue(f"{path}: malformed model file: {type(exc).__name__}: {exc}") from exc


def _json_numbers(value: object, key: str) -> np.ndarray:
    """``value``, a JSON number or nested arrays of numbers, as a float array."""
    for leaf in np.array(value, dtype=object).flat:
        # a JSON true/false loads as bool, which numpy would read as 1.0/0.0
        if type(leaf) not in (int, float):
            raise InvalidValue(f"{key} must be JSON numbers, got {leaf!r}")
    return np.array(value, dtype=float)


def _json_strings(value: object, key: str) -> list[str]:
    """``value`` if it is a JSON array of strings."""
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise InvalidValue(f"{key} must be a JSON array of strings, got {value!r}")
    return value
