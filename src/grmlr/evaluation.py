"""Evaluation harness: LOOCV, metrics, permutation test, grid search,
ablations and the graph-mixing sensitivity sweep.

All evaluations are leave-one-out: the held-out site never influences the
training fold's graph (under the default ``co_occurrence_scope='train'``),
sample weights or fit. Rank correlations are precomputed once per fold and
shared across hyperparameter configurations, which keeps the exhaustive
grid search cheap. Thresholding still happens per configuration. Fitting
happens once per distinct fold problem within a grid search: configurations
that give a fold the same sample weights, penalties, stopping rule and (when
lambda_g > 0) Laplacian reuse that fold's held-out prediction. The fit is
deterministic, so results are identical to rebuilding everything from
scratch.
"""

from __future__ import annotations

import hashlib
import itertools
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset, _write_csv, _write_json, substream
from .ecograph import graph_from_correlations
from .errors import (
    InvalidShape,
    InvalidValue,
    LengthMismatch,
    MissingLabels,
    TaxaMismatch,
    UnknownParameter,
)
from .model import GrmlrConfig, GrmlrModel, _sample_weights, build_features, fit_arrays
from .rankstats import spearman_cross, spearman_matrix

DEFAULT_GRID: dict[str, list] = {
    "alpha": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
    "lambda_g": [0.0, 1.0, 5.0, 10.0],
    "lambda_l2": [0.001, 0.01, 0.02, 0.1],
    "tau": [0.5, 0.7, 0.9],
    "gamma": [0.7, 0.8, 0.9, 0.95],
}

DEFAULT_ALPHAS = DEFAULT_GRID["alpha"]


@dataclass(eq=False)
class FoldPrediction:
    site_id: str
    true_label: str
    predicted_label: str


@dataclass(eq=False)
class EvalReport:
    """LOOCV outcome: per-fold predictions plus aggregate metrics."""

    per_fold: list[FoldPrediction]
    accuracy: float
    macro_f1: float
    stage_correct: dict[str, int]
    config: GrmlrConfig
    skipped_folds: list[str] = field(default_factory=list)
    fold_models: list[GrmlrModel] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "metrics": {
                "accuracy": self.accuracy,
                "macro_f1": self.macro_f1,
                "stage_correct": dict(self.stage_correct),
            },
            "per_fold": [
                {"site_id": f.site_id, "true": f.true_label, "predicted": f.predicted_label}
                for f in self.per_fold
            ],
            "skipped_folds": list(self.skipped_folds),
            "config": self.config.to_dict(),
        }


@dataclass(eq=False)
class PermutationReport:
    observed_accuracy: float
    permuted_accuracies: list[float]
    p_value: float

    def to_dict(self) -> dict:
        return {
            "observed_accuracy": self.observed_accuracy,
            "permuted_accuracies": list(self.permuted_accuracies),
            "n_permutations": len(self.permuted_accuracies),
            "p_value": self.p_value,
        }


@dataclass(eq=False)
class GridEntry:
    index: int
    config: GrmlrConfig
    accuracy: float
    macro_f1: float
    error: Optional[str] = None


@dataclass(eq=False)
class GridResult:
    entries: list[GridEntry]

    def best(self) -> GridEntry:
        for entry in self.entries:
            if entry.error is None:
                return entry
        raise InvalidValue("every grid entry failed")


def macro_f1(
    true_labels: Sequence[str],
    predicted_labels: Sequence[str],
    label_set: Sequence[str],
) -> float:
    """Unweighted mean of per-class F1; undefined per-class F1 counts as 0."""
    if len(true_labels) != len(predicted_labels):
        raise LengthMismatch(
            f"{len(true_labels)} true labels vs {len(predicted_labels)} predictions"
        )
    scores = []
    for lab in label_set:
        tp = sum(1 for t, q in zip(true_labels, predicted_labels) if t == lab and q == lab)
        fp = sum(1 for t, q in zip(true_labels, predicted_labels) if t != lab and q == lab)
        fn = sum(1 for t, q in zip(true_labels, predicted_labels) if t == lab and q != lab)
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


@dataclass(eq=False)
class _Fold:
    site_id: str
    test_index: int
    train_idx: np.ndarray
    co_train: np.ndarray
    profiles: Optional[np.ndarray]


@dataclass(eq=False)
class LoocvPlan:
    """Per-fold data and rank correlations, reusable across configurations."""

    site_ids: list[str]
    taxa_names: list[str]
    label_set: tuple[str, ...]
    features: np.ndarray
    y: np.ndarray
    folds: list[_Fold]
    co_all: np.ndarray
    feature_mode: str
    epsilon: float


def build_plan(dataset: Dataset, epsilon: float, feature_mode: str = "clr") -> LoocvPlan:
    """Precompute features and per-fold rank correlations for LOOCV."""
    if dataset.stages is None:
        raise MissingLabels("LOOCV requires stage labels")
    n = dataset.n_sites
    K = len(dataset.stages.label_set)
    if n < K + 1:
        raise InvalidShape(f"LOOCV needs at least K+1={K + 1} sites, got {n}")
    feats = build_features(dataset, epsilon, feature_mode)
    Z = feats.values
    counts = None if dataset.macrofauna is None else np.asarray(dataset.macrofauna.values, float)
    folds = []
    for i in range(n):
        train_idx = np.array([j for j in range(n) if j != i])
        z_train = Z[train_idx]
        folds.append(
            _Fold(
                site_id=dataset.abundances.site_ids[i],
                test_index=i,
                train_idx=train_idx,
                co_train=spearman_matrix(z_train),
                profiles=None if counts is None else spearman_cross(z_train, counts[train_idx]),
            )
        )
    return LoocvPlan(
        site_ids=list(dataset.abundances.site_ids),
        taxa_names=list(dataset.abundances.taxa_names),
        label_set=tuple(dataset.stages.label_set),
        features=Z,
        y=dataset.stages.indices(),
        folds=folds,
        co_all=spearman_matrix(Z),
        feature_mode=feature_mode,
        epsilon=epsilon,
    )


def _run_plan(
    plan: LoocvPlan,
    config: GrmlrConfig,
    y: Optional[np.ndarray] = None,
    keep_models: bool = False,
    memo: Optional[dict] = None,
) -> EvalReport:
    """LOOCV of one configuration on a prepared plan.

    ``memo`` maps fold-fit keys (``_fold_fit_key``) to held-out predictions
    and is filled as folds are fitted; a fold whose key is already there is
    not fitted again. It holds no weights, so it is only for runs on the
    plan's own labels without ``keep_models``.
    """
    if y is None:
        y = plan.y
    K = len(plan.label_set)
    per_fold: list[FoldPrediction] = []
    skipped: list[str] = []
    models: list[GrmlrModel] = []
    for fold in plan.folds:
        y_train = y[fold.train_idx]
        if np.any(np.bincount(y_train, minlength=K) == 0):
            skipped.append(fold.site_id)
            continue
        co = plan.co_all if config.co_occurrence_scope == "all" else fold.co_train
        graph = graph_from_correlations(
            fold.profiles, co, config.tau, config.gamma, config.alpha, plan.taxa_names
        )
        key = None if memo is None else _fold_fit_key(plan, fold, config, graph.laplacian)
        if memo is not None and key in memo:
            pred = memo[key]
        else:
            s = _sample_weights(y_train, K, config.class_balanced)
            W, b, info = fit_arrays(
                plan.features[fold.train_idx], y_train, K, s, graph.laplacian, config
            )
            scores = plan.features[fold.test_index] @ W.T + b
            pred = int(np.argmax(scores))
            if memo is not None:
                memo[key] = pred
            if keep_models:
                models.append(
                    GrmlrModel(
                        weights=W,
                        bias=b,
                        taxa_names=list(plan.taxa_names),
                        label_set=plan.label_set,
                        hyperparams=config,
                        feature_mode=plan.feature_mode,
                        converged=info["converged"],
                        n_iterations=info["n_iterations"],
                        final_loss=info["final_loss"],
                    )
                )
        per_fold.append(
            FoldPrediction(
                site_id=fold.site_id,
                true_label=plan.label_set[y[fold.test_index]],
                predicted_label=plan.label_set[pred],
            )
        )
    correct = sum(1 for f in per_fold if f.true_label == f.predicted_label)
    accuracy = correct / len(per_fold) if per_fold else 0.0
    f1 = (
        macro_f1(
            [f.true_label for f in per_fold],
            [f.predicted_label for f in per_fold],
            plan.label_set,
        )
        if per_fold
        else 0.0
    )
    stage_correct = {lab: 0 for lab in plan.label_set}
    for f in per_fold:
        if f.true_label == f.predicted_label:
            stage_correct[f.true_label] += 1
    return EvalReport(
        per_fold=per_fold,
        accuracy=accuracy,
        macro_f1=f1,
        stage_correct=stage_correct,
        config=config,
        skipped_folds=skipped,
        fold_models=models,
    )


def _fold_fit_key(
    plan: LoocvPlan, fold: _Fold, config: GrmlrConfig, laplacian: np.ndarray
) -> tuple:
    """Everything a fold fit on the plan's own labels depends on.

    That is the features (``plan.epsilon``), the fold, the sample weights
    (``class_balanced``), the penalties and the stopping rule. The Laplacian
    enters the objective only through lambda_g, so it is left out at
    lambda_g = 0, where every graph gives the same fit bit for bit.
    """
    graph = (
        hashlib.blake2b(laplacian.tobytes(), digest_size=16).digest()
        if config.lambda_g != 0.0
        else None
    )
    return (
        plan.epsilon,
        fold.test_index,
        config.class_balanced,
        config.lambda_l2,
        config.lambda_g,
        config.ftol,
        config.gtol,
        config.max_iters,
        graph,
    )


def loocv(
    dataset: Dataset,
    config: GrmlrConfig,
    feature_mode: str = "clr",
    keep_models: bool = False,
) -> EvalReport:
    """Leave-one-out cross validation of the full pipeline.

    Each fold rebuilds features, graph, sample weights and model on the
    n-1 training sites and predicts the held-out site from its abundances
    alone. Folds whose training set loses an entire class are skipped and
    listed in ``skipped_folds``.
    """
    plan = build_plan(dataset, config.epsilon, feature_mode)
    return _run_plan(plan, config, keep_models=keep_models)


def permutation_test(
    dataset: Dataset,
    config: GrmlrConfig,
    B: int,
    seed: int,
    workers: int = 1,
) -> PermutationReport:
    """Label-permutation null for the LOOCV accuracy.

    Labels are permuted uniformly at random B times (seeded); abundances
    and macrofauna are untouched, so the graph topology of every fold is
    identical across permutations. p = (1 + #{permuted >= observed}) / (1 + B).
    """
    if B < 1:
        raise InvalidValue(f"B must be >= 1, got {B}")
    plan = build_plan(dataset, config.epsilon)
    observed = _run_plan(plan, config).accuracy
    rng = substream(seed, "permutation")
    n = len(plan.site_ids)
    perms = [rng.permutation(n) for _ in range(B)]
    tasks = [(plan, config, plan.y[perm]) for perm in perms]
    accuracies = _map_chunked(_permutation_chunk, tasks, workers)
    exceed = sum(1 for a in accuracies if a >= observed)
    p_value = (1 + exceed) / (1 + B)
    return PermutationReport(
        observed_accuracy=observed,
        permuted_accuracies=accuracies,
        p_value=p_value,
    )


def _permutation_chunk(tasks: list) -> list[float]:
    return [_run_plan(plan, config, y=y_perm).accuracy for plan, config, y_perm in tasks]


def grid_search(
    dataset: Dataset,
    grid: dict[str, list],
    workers: int = 1,
    base_config: Optional[GrmlrConfig] = None,
) -> GridResult:
    """Exhaustive LOOCV evaluation of every configuration in the grid.

    Entries are sorted by accuracy, then macro-F1 (both descending), then
    enumeration order, so the output is deterministic regardless of the
    worker count. A configuration that fails is kept with its error message
    and sorts last.

    Each distinct fold fit runs once per call (once per chunk of configs
    with ``workers > 1``), and configs that need the same fit reuse its
    held-out prediction; see ``_fold_fit_key``. A fit that warns therefore
    warns once, not once per config that reuses it.
    """
    if base_config is None:
        base_config = GrmlrConfig()
    if not grid:
        raise InvalidValue("grid must define at least one axis")
    known = set(GrmlrConfig.__dataclass_fields__)
    for name, values in grid.items():
        if name not in known:
            raise UnknownParameter(f"'{name}' is not a config field")
        if not values:
            raise InvalidValue(f"grid axis '{name}' is empty")
    names = list(grid.keys())
    configs = [
        replace(base_config, **dict(zip(names, combo)))
        for combo in itertools.product(*(grid[n] for n in names))
    ]
    plans: dict[float, LoocvPlan] = {}
    for cfg in configs:
        if cfg.epsilon not in plans:
            plans[cfg.epsilon] = build_plan(dataset, cfg.epsilon)
    tasks = [(plans[cfg.epsilon], cfg) for cfg in configs]
    outcomes = _map_chunked(_grid_chunk, tasks, workers)
    entries = [
        GridEntry(index=i, config=cfg, accuracy=acc, macro_f1=f1, error=err)
        for i, (cfg, (acc, f1, err)) in enumerate(zip(configs, outcomes))
    ]
    entries.sort(key=_entry_sort_key)
    return GridResult(entries=entries)


def _grid_chunk(tasks: list) -> list[tuple[float, float, Optional[str]]]:
    memo: dict = {}
    outcomes = []
    for plan, config in tasks:
        try:
            report = _run_plan(plan, config, memo=memo)
        except Exception as exc:  # entry marked failed, search continues
            outcomes.append((float("nan"), float("nan"), f"{type(exc).__name__}: {exc}"))
        else:
            outcomes.append((report.accuracy, report.macro_f1, None))
    return outcomes


def _entry_sort_key(entry: GridEntry):
    failed = entry.error is not None
    acc = -entry.accuracy if not failed else float("inf")
    f1 = -entry.macro_f1 if not failed else float("inf")
    return (failed, acc, f1, entry.index)


def _map_chunked(fn, tasks: list, workers: int) -> list:
    """Order-preserving parallel map of ``fn``, which maps a list of tasks to
    a list of results; results identical for any worker count.

    With ``workers > 1``, each worker runs ``fn`` on one chunk of tasks at a
    time, and the warnings a chunk raised are issued again here, in task
    order, so that the caller's warning filters and ``--strict`` see them.
    """
    if workers <= 1 or len(tasks) <= 1:
        return fn(tasks)
    chunk_size = max(1, len(tasks) // (workers * 4))
    chunks = [tasks[i : i + chunk_size] for i in range(0, len(tasks), chunk_size)]
    results: list = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_chunk, fn, chunk) for chunk in chunks]
        for fut in futures:
            chunk_results, caught = fut.result()
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno)
            results.extend(chunk_results)
    return results


def _run_chunk(fn, chunk: list) -> tuple[list, list[tuple]]:
    with warnings.catch_warnings(record=True) as caught:
        results = fn(chunk)
    return results, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def ablate(dataset: Dataset, config: GrmlrConfig) -> dict[str, EvalReport]:
    """LOOCV for the four component-removal variants.

    no_graph: lambda_g = 0; no_macro: alpha = 0; no_co: alpha = 1;
    no_clr: raw relative abundances replace the CLR features. All other
    hyperparameters stay at ``config``.
    """
    return {
        "no_graph": loocv(dataset, replace(config, lambda_g=0.0)),
        "no_macro": loocv(dataset, replace(config, alpha=0.0)),
        "no_co": loocv(dataset, replace(config, alpha=1.0)),
        "no_clr": loocv(dataset, config, feature_mode="raw"),
    }


def alpha_sweep(
    dataset: Dataset,
    config: GrmlrConfig,
    alphas: Sequence[float],
    grid: Optional[dict[str, list]] = None,
    workers: int = 1,
) -> list[tuple[float, float]]:
    """Best grid-search LOOCV accuracy attainable at each mixing weight."""
    axes = dict(DEFAULT_GRID if grid is None else grid)
    axes.pop("alpha", None)
    rows = []
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise InvalidValue(f"alpha values must lie in [0, 1], got {alpha}")
        result = grid_search(
            dataset, axes, workers=workers, base_config=replace(config, alpha=alpha)
        )
        rows.append((float(alpha), result.best().accuracy))
    return rows


def coefficient_ranking(models: Sequence[GrmlrModel]) -> list[tuple[str, float]]:
    """Taxa ranked by cross-class weight magnitude averaged over models.

    For each taxon j this is mean_m ||W_m[:, j]||_2, sorted descending;
    ties keep taxa order.
    """
    if not models:
        raise InvalidValue("coefficient_ranking needs at least one model")
    taxa = models[0].taxa_names
    for m in models[1:]:
        if m.taxa_names != taxa:
            raise TaxaMismatch("models do not share a taxa ordering")
    mags = np.mean(
        [np.linalg.norm(m.weights, axis=0) for m in models],
        axis=0,
    )
    order = np.argsort(-mags, kind="stable")
    return [(taxa[j], float(mags[j])) for j in order]


def write_eval_report(report: EvalReport, path: str | Path) -> None:
    _write_json(report.to_dict(), path)


def write_permutation_report(report: PermutationReport, path: str | Path) -> None:
    _write_json(report.to_dict(), path)


def write_ablation_report(reports: dict[str, EvalReport], path: str | Path) -> None:
    _write_json({name: rep.to_dict() for name, rep in reports.items()}, path)


def write_grid_csv(result: GridResult, path: str | Path) -> None:
    fields = list(GrmlrConfig.__dataclass_fields__)
    rows = []
    for rank, e in enumerate(result.entries):
        cfg = e.config.to_dict()
        rows.append(
            [
                rank,
                e.index,
                _fmt(e.accuracy),
                _fmt(e.macro_f1),
                e.error or "",
                *[cfg[f] for f in fields],
            ]
        )
    _write_csv(path, ["rank", "index", "accuracy", "macro_f1", "error", *fields], rows)


def write_alpha_sweep_csv(rows: Sequence[tuple[float, float]], path: str | Path) -> None:
    _write_csv(path, ["alpha", "best_accuracy"], [[_fmt(a), _fmt(acc)] for a, acc in rows])


def write_coefficient_csv(ranking: Sequence[tuple[str, float]], path: str | Path) -> None:
    _write_csv(
        path,
        ["taxon", "mean_weight_magnitude"],
        [[taxon, _fmt(mag)] for taxon, mag in ranking],
    )


def _fmt(value: float) -> str:
    return repr(float(value))
