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

Training consumes macrofauna counts only through the graph; prediction
needs nothing but an abundance table, which is the whole point of the
decoupled deployment scheme.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

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

    ``lambda_l2 = 0`` is allowed, but on a fold whose training classes are
    separable (typical when p > n) the objective then has no minimizer: the
    loss keeps falling as W grows along a separating direction. The fit
    stops on ``gtol`` or ``ftol`` at a loss near zero and reports
    convergence, and the W it returns depends on the solver's path and
    stopping rule, not on the data alone.
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
    """Row-wise softmax with max subtraction for overflow safety."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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
    return _objective(V, Z, y, s, laplacian, cfg.lambda_l2, cfg.lambda_g)


def _objective(
    V: np.ndarray,
    Z: np.ndarray,
    y: np.ndarray,
    s: np.ndarray,
    laplacian: np.ndarray,
    lambda_l2: float,
    lambda_g: float,
) -> tuple[float, np.ndarray]:
    """Objective and its gradient at V = [W | b]; both V and the gradient are K x (p + 1)."""
    n, p = Z.shape
    W = V[:, :p]
    b = V[:, p]
    scores = Z @ W.T + b
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    norm = e.sum(axis=1)
    P = e / norm[:, None]
    log_p_true = shifted[np.arange(n), y] - np.log(norm)
    data = -(s * log_p_true).sum() / n

    WL = W @ laplacian
    value = data + lambda_l2 * float((W * W).sum()) + lambda_g * float((W * WL).sum())

    R = P.copy()
    R[np.arange(n), y] -= 1.0
    R *= (s / n)[:, None]
    grad = np.empty_like(V)
    grad[:, :p] = R.T @ Z + 2.0 * lambda_l2 * W + 2.0 * lambda_g * WL
    grad[:, p] = R.sum(axis=0)
    return value, grad


def _data_hessian(V: np.ndarray, X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Hessian of the weighted cross-entropy in the reduced coordinates of V.

    V = [W | b] is K x (p + 1) with rows summing to zero, so it is fixed by
    theta = V[:J], J = K - 1, through V[J] = -sum(theta). Rows and columns
    follow theta.ravel(), i.e. [w_1, b_1, ..., w_J, b_J]. With x_i = [z_i, 1]
    and the full-space weights w_km = c (delta_km P_k - P_k P_m), block
    (k, m) is (X w~_km)^T X for the combined weights

        w~_km = w_km - w_kJ - w_mJ + w_JJ
              = c (delta_km P_k + P_J - (P_k - P_J)(P_m - P_J)).

    The J(J+1)/2 distinct blocks come from one batched matrix product.
    """
    K, d = V.shape
    J = K - 1
    P = softmax_rows(X @ V.T)
    rows, cols = _class_pairs(J)
    last = P[:, J:]
    centred = P[:, :J] - last
    weights = c[:, None] * (
        (rows == cols) * P[:, rows] + last - centred[:, rows] * centred[:, cols]
    )
    pair_blocks = np.matmul((weights.T[:, :, None] * X).transpose(0, 2, 1), X)
    H = np.empty((J, d, J, d))
    for block, k, m in zip(pair_blocks, rows, cols):
        H[k, :, m, :] = H[m, :, k, :] = block
    return H.reshape(J * d, J * d)


@functools.lru_cache(maxsize=None)
def _class_pairs(J: int) -> tuple[np.ndarray, np.ndarray]:
    """Class pairs (k, m) with k <= m < J, as two read-only index arrays."""
    rows, cols = np.triu_indices(J)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _flat_directions(X: np.ndarray, c: np.ndarray, curvature: np.ndarray, J: int) -> np.ndarray:
    """Orthonormal basis of the reduced directions along which the objective is constant.

    Needed only without a ridge (lambda_l2 = 0): with one, the reduced
    Hessian is positive definite. Columns follow theta.ravel(), as in
    :func:`_data_hessian`. A direction is flat when it moves all K scores
    of every sample by one common amount and the penalty ``curvature``
    (reduced, like the Hessian) does not see it: CLR rows and Laplacian
    rows both sum to zero, so each w_k can move along the all-ones vector
    for free, which leaves J flat directions once the w_k sum to zero. That
    set does not depend on the probabilities, so it is the numerical null
    space of the reduced Hessian at V = 0 (numpy's matrix-rank tolerance).
    """
    d = X.shape[1]
    evals, evecs = np.linalg.eigh(_data_hessian(np.zeros((J + 1, d)), X, c) + curvature)
    return evecs[:, evals <= evals[-1] * J * d * np.finfo(float).eps]


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

    Low-level core shared by :func:`fit` and the evaluation harness. The
    parameters are one K x (p + 1) array V = [W | b] from start to return,
    and so is the gradient. Adding one vector to every row of V changes no
    probability, so the fit keeps the rows of V summing to zero and solves
    each Newton system in the J = K - 1 free rows theta = V[:J], with
    V[J] = -sum(theta). Starting from V = 0, each iteration solves for the
    step of theta with the reduced gradient g[:J] - g[J] and the exact
    reduced Hessian: :func:`_data_hessian` plus the penalty
    (I_J + 1 1^T) kron [[2 lambda_l2 I + 2 lambda_g L, 0], [0, 0]], built
    once per fit. The step of V is [d_theta; -sum(d_theta)], and the fit
    backtracks along it by halving until the Armijo condition holds. Newton
    on all K(p + 1) parameters from V = 0 keeps the rows summing to zero
    too, so its iterates are these, up to rounding.

    With lambda_l2 > 0 the reduced Hessian is positive definite. Without
    a ridge the objective is still exactly flat along a few reduced
    directions (:func:`_flat_directions`): for CLR features, each w_k along
    the all-ones vector. Adding N N^T for an orthonormal basis N of them
    makes the system nonsingular; the gradient is orthogonal to them, so
    a step moves along them only by rounding.

    It stops when the gradient max-norm, taken over the full K x (p + 1)
    gradient, is at most ``config.gtol``, when the relative decrease
    (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) of an accepted step is at most
    ``config.ftol``, when no step along the Newton direction passes the
    Armijo test, or after ``config.max_iters`` iterations; the last case
    with a gradient max-norm above 1e-3 warns
    :class:`NonConvergenceWarning` and reports ``converged=False``.

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
    n, p = Z.shape
    d = p + 1
    J = K - 1
    args = (Z, y, s, laplacian, config.lambda_l2, config.lambda_g)
    X = np.hstack([Z, np.ones((n, 1))])
    c = s / n
    penalty = np.zeros((d, d))
    penalty[:p, :p] = 2.0 * config.lambda_l2 * np.eye(p) + 2.0 * config.lambda_g * laplacian
    curvature = np.kron(np.eye(J) + 1.0, penalty)
    if config.lambda_l2 == 0.0 and J:  # K = 1 leaves nothing to solve for
        flat = _flat_directions(X, c, curvature, J)
        curvature += flat @ flat.T
    V = np.zeros((K, d))
    value, grad = _objective(V, *args)
    history = [float(value)] if track_history else None
    n_iter = 0
    while np.abs(grad).max() > config.gtol and n_iter < config.max_iters:
        H = _data_hessian(V, X, c) + curvature
        reduced = np.linalg.solve(H, (grad[J] - grad[:J]).ravel()).reshape(J, d)
        step = np.vstack([reduced, -reduced.sum(axis=0)])
        slope = float(grad.ravel() @ step.ravel())
        if not slope < 0.0:
            break
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = V + t * step
            trial_value, trial_grad = _objective(trial, *args)
            if trial_value <= value + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            break
        n_iter += 1
        decrease = (value - trial_value) / max(abs(value), abs(trial_value), 1.0)
        V, value, grad = trial, trial_value, trial_grad
        if history is not None:
            history.append(float(value))
        if decrease <= config.ftol:
            break
    grad_norm = float(np.abs(grad).max())
    hit_cap = n_iter >= config.max_iters
    converged = not (hit_cap and grad_norm > _NONCONVERGENCE_GRAD_NORM)
    if not converged:
        warnings.warn(
            f"optimizer hit max_iters={config.max_iters} with gradient max-norm "
            f"{grad_norm:.3e}",
            NonConvergenceWarning,
            stacklevel=2,
        )
    info = {
        "converged": converged,
        "n_iterations": n_iter,
        "final_loss": float(value),
        "grad_max_norm": grad_norm,
        "loss_history": history,
    }
    return V[:, :p], V[:, p], info


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
    MissingMacrofauna
        If alpha > 0 but macrofauna counts are absent.
    """
    if dataset.stages is None:
        raise MissingLabels("fit requires stage labels")
    features = build_features(dataset, config.epsilon, feature_mode)
    graph = build_graph(
        features, dataset.macrofauna, tau=config.tau, gamma=config.gamma, alpha=config.alpha
    )
    labels = dataset.stages
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

    Ties in the probability row resolve to the lowest label index.
    """
    features = build_features(abundances, model.hyperparams.epsilon, model.feature_mode)
    proba = predict_proba(model, features)
    picks = np.argmax(proba, axis=1)
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
        return GrmlrModel(
            weights=np.array(payload["weights"], dtype=float),
            bias=np.array(payload["bias"], dtype=float),
            taxa_names=list(payload["taxa_names"]),
            label_set=tuple(payload["label_set"]),
            hyperparams=GrmlrConfig.from_dict(payload["config"]),
            feature_mode=payload["feature_mode"],
            converged=bool(payload["converged"]),
            n_iterations=int(payload["n_iterations"]),
            final_loss=float(payload["final_loss"]),
        )
    except (InvalidValue, KeyError, TypeError, ValueError) as exc:
        raise InvalidValue(f"{path}: malformed model file: {type(exc).__name__}: {exc}") from exc
