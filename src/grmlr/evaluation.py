"""Evaluation harness: LOOCV, metrics, permutation test, grid search,
ablations and the graph-mixing sensitivity sweep.

All evaluations are leave-one-out: the held-out site never influences the
training fold's graph (under the default ``co_occurrence_scope='train'``),
sample weights or fit. Rank correlations are precomputed once per fold and
shared across configurations and label vectors; thresholding happens per
fold graph, in ``_FoldGraphs``, the one place fold graphs are assembled.
No fold graph is built for lambda_g = 0, where the Laplacian does not enter
the objective: such fits get a zero Laplacian.

The grid search (and so the alpha sweep) and the permutation test run on
one batch evaluator, ``_loocv_chunk``, whose tasks are LOOCVs of (plan,
config, labels). It builds each distinct fold graph of a chunk of tasks
once, and fits each distinct fold problem once, in batches through
``model._fit_batch``. That solver fits a fold with a firm ridge and fewer
training sites than taxa in kernel form, in n_train-dimensional
coordinates, and every other fold in feature space; both forms take the
same Newton iterates up to rounding, so held-out predictions agree.

:func:`loocv`, and so the ablations, evaluate one config, so they keep no
graphs and make one ``fit_arrays`` call per fold, in feature space: they
keep each fold's model and diagnostics, and that call is where the
benchmark's tracer times fits. Moving them onto the batch evaluator, and
so onto kernel fits, waits for the benchmark to stop keeping every
repetition's ``loocv`` report: a faster ``loocv`` makes more repetitions
and so reads a higher peak RSS.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import numbers
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset, _write_csv, _write_json, substream
from .ecograph import _a_macro_or_zeros, _fused, _require_macrofauna, a_co_from_correlations
from .errors import (
    GrmlrError,
    InvalidShape,
    InvalidValue,
    LengthMismatch,
    TaxaMismatch,
    UnknownParameter,
)
from .model import (
    _GRAPH_CACHE_BYTES,
    GrmlrConfig,
    GrmlrModel,
    _fit_batch,
    _fitted_model,
    _predicted_classes,
    _sample_weights,
    _stack_capacity,
    _training_labels,
    build_features,
    fit_arrays,
)
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

    taxa_names: list[str]
    label_set: tuple[str, ...]
    features: np.ndarray
    y: np.ndarray
    folds: list[_Fold]
    co_all: np.ndarray
    feature_mode: str
    epsilon: float


def build_plan(dataset: Dataset, epsilon: float, feature_mode: str = "clr") -> LoocvPlan:
    """Precompute features and per-fold rank correlations for LOOCV.

    Raises MissingLabels without labels, EmptyClass if no site has some
    stage, and InvalidShape with fewer than K + 1 sites.
    """
    stages = _training_labels(dataset, "LOOCV")
    n = dataset.n_sites
    K = len(stages.label_set)
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
        taxa_names=list(dataset.abundances.taxa_names),
        label_set=tuple(stages.label_set),
        features=Z,
        y=stages.indices(),
        folds=folds,
        co_all=spearman_matrix(Z),
        feature_mode=feature_mode,
        epsilon=epsilon,
    )


@dataclass(eq=False)
class _FoldGraph:
    """A fold's read-only graph Laplacian, with its digest made on first use."""

    laplacian: np.ndarray

    def __post_init__(self) -> None:
        self.laplacian.setflags(write=False)

    @property
    def nbytes(self) -> int:
        return self.laplacian.nbytes

    @functools.cached_property
    def digest(self) -> bytes:
        return hashlib.blake2b(self.laplacian.tobytes(), digest_size=16).digest()


class _FoldGraphs:
    """Fold graphs and their adjacency parts, each built once while it is kept.

    A_macro is kept per (plan, fold, tau), A_co per (plan, fold,
    ``co_occurrence_scope``, gamma) and a fold graph per (plan, fold,
    scope, tau, gamma, alpha and alpha's type). Plans count by identity,
    so every plan must outlive the cache, as a chunk's tasks do. A part
    that would take the kept bytes past ``limit`` empties the cache first,
    and is not kept if it alone is larger; so ``_FoldGraphs(0)`` keeps
    nothing and builds every graph anew.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.parts: dict = {}
        self.nbytes = 0

    def graph(self, plan: LoocvPlan, fold: _Fold, config: GrmlrConfig) -> _FoldGraph:
        """The fold's graph under ``config``: all zeros at lambda_g = 0, where no fit reads it.

        Raises MissingMacrofauna if the plan has no macrofauna counts and
        alpha > 0, at any lambda_g.
        """
        _require_macrofauna(fold.profiles, config.alpha)
        if config.lambda_g == 0.0:
            p = len(plan.taxa_names)
            return self._part(("zero", p), lambda: _FoldGraph(np.zeros((p, p))))
        scope, tau, gamma, alpha = (
            config.co_occurrence_scope, config.tau, config.gamma, config.alpha
        )
        co = plan.co_all if scope == "all" else fold.co_train
        where = (id(plan), fold.test_index)

        def build() -> _FoldGraph:
            a_macro = self._part(
                ("macro", *where, tau), lambda: _a_macro_or_zeros(fold.profiles, tau, co)
            )
            a_co = self._part(
                ("co", *where, scope, gamma), lambda: a_co_from_correlations(co, gamma)
            )
            return _FoldGraph(_fused(a_macro, a_co, alpha, plan.taxa_names).laplacian)

        # 1 - alpha is a float32 for a float32 alpha, unlike for an equal float
        return self._part(("graph", *where, scope, tau, gamma, alpha, type(alpha)), build)

    def _part(self, key: tuple, build):
        if key in self.parts:
            return self.parts[key]
        part = build()
        if self.nbytes + part.nbytes > self.limit:
            self.parts.clear()
            self.nbytes = 0
        if part.nbytes <= self.limit:
            self.parts[key] = part
            self.nbytes += part.nbytes
        return part


def _fold_problem(
    plan: LoocvPlan, fold: _Fold, config: GrmlrConfig, y: np.ndarray, graphs: _FoldGraphs
) -> Optional[tuple[np.ndarray, _FoldGraph]]:
    """Training labels and graph (from ``graphs``) of one fold.

    None when the fold's training labels miss a class, so the fold is skipped.
    """
    y_train = y[fold.train_idx]
    if np.any(np.bincount(y_train, minlength=len(plan.label_set)) == 0):
        return None
    return y_train, graphs.graph(plan, fold, config)


def _held_out_prediction(plan: LoocvPlan, fold: _Fold, W: np.ndarray, b: np.ndarray) -> int:
    """Class index that the fold's fitted W, b predict for its held-out site."""
    return int(_predicted_classes(plan.features[fold.test_index], W, b))


def _report(
    plan: LoocvPlan,
    config: GrmlrConfig,
    y: np.ndarray,
    predictions: list[tuple[_Fold, int]],
    skipped: list[str],
    models: list[GrmlrModel],
) -> EvalReport:
    """EvalReport of the held-out class indices ``predictions`` under true labels ``y``."""
    per_fold = [
        FoldPrediction(
            site_id=fold.site_id,
            true_label=plan.label_set[y[fold.test_index]],
            predicted_label=plan.label_set[pred],
        )
        for fold, pred in predictions
    ]
    stage_correct = {lab: 0 for lab in plan.label_set}
    for f in per_fold:
        if f.true_label == f.predicted_label:
            stage_correct[f.true_label] += 1
    return EvalReport(
        per_fold=per_fold,
        accuracy=sum(stage_correct.values()) / len(per_fold) if per_fold else 0.0,
        macro_f1=macro_f1(
            [f.true_label for f in per_fold], [f.predicted_label for f in per_fold], plan.label_set
        ),
        stage_correct=stage_correct,
        config=config,
        skipped_folds=skipped,
        fold_models=models,
    )


def _fold_fit_key(
    plan: LoocvPlan, fold: _Fold, config: GrmlrConfig, labels: bytes, graph: _FoldGraph
) -> tuple:
    """Everything a fold fit depends on.

    That is the features (``plan.epsilon``), the labels (``labels``, the
    bytes of the task's label vector), the fold, the sample weights
    (``class_balanced``), the penalties, the stopping rule and the
    Laplacian, as ``graph.digest``: a blake2b digest made once per fold
    graph, however many label vectors and configs share the graph. The
    Laplacian enters the objective only through lambda_g, so it is left
    out at lambda_g = 0, where every graph gives the same fit bit for bit.
    """
    return (
        plan.epsilon,
        labels,
        fold.test_index,
        config.class_balanced,
        config.lambda_l2,
        config.lambda_g,
        config.ftol,
        config.gtol,
        config.max_iters,
        graph.digest if config.lambda_g != 0.0 else None,
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
    alone, with one :func:`fit_arrays` call per fold; ``keep_models`` keeps
    each fold's model with its solver diagnostics. Folds whose training set
    loses an entire class are skipped and listed in ``skipped_folds``.
    No two folds share a graph, so none is kept once its fold is fitted.
    """
    plan = build_plan(dataset, config.epsilon, feature_mode)
    K = len(plan.label_set)
    graphs = _FoldGraphs(0)
    predictions: list[tuple[_Fold, int]] = []
    skipped: list[str] = []
    models: list[GrmlrModel] = []
    for fold in plan.folds:
        problem = _fold_problem(plan, fold, config, plan.y, graphs)
        if problem is None:
            skipped.append(fold.site_id)
            continue
        y_train, graph = problem
        s = _sample_weights(y_train, K, config.class_balanced)
        W, b, info = fit_arrays(
            plan.features[fold.train_idx], y_train, K, s, graph.laplacian, config
        )
        predictions.append((fold, _held_out_prediction(plan, fold, W, b)))
        if keep_models:
            fitted = (W, b, info, plan.taxa_names, plan.label_set, config, plan.feature_mode)
            models.append(_fitted_model(*fitted))
    return _report(plan, config, plan.y, predictions, skipped, models)


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

    The observed labels and the B permutations are B + 1 tasks of the
    batch evaluator (``_loocv_chunk``) on one fold plan. Each fold graph is
    built and digested once per chunk of tasks, as no graph depends on the
    labels. A fold problem that two label vectors share is fitted once, so
    a warning it raises is issued once. Raises InvalidValue unless ``B``
    and ``workers`` are integers >= 1.
    """
    _check_count("B", B)
    _check_count("workers", workers)
    plan = build_plan(dataset, config.epsilon)
    rng = substream(seed, "permutation")
    labels = [plan.y] + [plan.y[rng.permutation(len(plan.y))] for _ in range(B)]
    outcomes = _map_chunked([(plan, config, y) for y in labels], workers)
    if isinstance(outcomes[0], GrmlrError):  # then every task failed, as no error depends on labels
        raise outcomes[0]
    observed = outcomes[0][0]
    accuracies = [accuracy for accuracy, _ in outcomes[1:]]
    exceed = sum(1 for a in accuracies if a >= observed)
    return PermutationReport(observed, accuracies, p_value=(1 + exceed) / (1 + B))


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

    Each configuration is one task of the batch evaluator (``_loocv_chunk``)
    on its plan's own labels, so each distinct fold fit runs once per call
    (once per chunk of configs with ``workers > 1``) and warns once, in the
    order configs first need the fits; see ``_fold_fit_key``. Raises
    InvalidValue unless ``workers`` is an integer >= 1.
    """
    _check_count("workers", workers)
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
    tasks = [(plans[cfg.epsilon], cfg, plans[cfg.epsilon].y) for cfg in configs]
    entries = []
    for i, (cfg, outcome) in enumerate(zip(configs, _map_chunked(tasks, workers))):
        if isinstance(outcome, GrmlrError):  # entry marked failed, search continues
            outcome = (float("nan"), float("nan"), f"{type(outcome).__name__}: {outcome}")
        entries.append(GridEntry(i, cfg, *outcome))
    entries.sort(key=_entry_sort_key)
    return GridResult(entries=entries)


def _loocv_chunk(tasks: list) -> list:
    """(accuracy, macro-F1), or the GrmlrError raised, of each (plan, config, labels) task's LOOCV.

    Fold graphs come from one ``_FoldGraphs`` of ``_GRAPH_CACHE_BYTES`` for
    the whole chunk, so a graph that several tasks share is built and
    digested once while it stays kept. Each task's fit keys are made once,
    and every fold problem not seen before joins a queue in first-seen
    order. A full queue is solved in one batch (:func:`_solve_queue`),
    which stores the held-out predictions in ``memo``; the tasks waiting on
    it then get their outcomes from ``memo``. Fits in kernel form take the
    iterates of ``fit_arrays`` up to rounding (see ``model._fit_batch``),
    so a task's outcome is that of :func:`loocv` on its config and labels.
    """
    graphs = _FoldGraphs(_GRAPH_CACHE_BYTES)
    memo: dict = {}
    queue: dict = {}
    waiting: list = []
    outcomes: list = []
    for plan, config, y in tasks:
        keyed: list[tuple[_Fold, Optional[tuple]]] = []
        error = None
        labels = y.tobytes()
        capacity = _stack_capacity(len(plan.label_set), len(plan.taxa_names))
        try:
            for fold in plan.folds:
                problem = _fold_problem(plan, fold, config, y, graphs)
                if problem is None:
                    keyed.append((fold, None))
                    continue
                key = _fold_fit_key(plan, fold, config, labels, problem[1])
                keyed.append((fold, key))
                if key not in memo and key not in queue:
                    queue[key] = (plan, fold, config, problem)
                    if len(queue) == capacity:
                        _solve_queue(queue, memo)
                        outcomes += [_loocv_outcome(memo, *task) for task in waiting]
                        waiting.clear()
        except GrmlrError as exc:
            error = exc.with_traceback(None)
        waiting.append((plan, config, y, keyed, error))
    _solve_queue(queue, memo)
    return outcomes + [_loocv_outcome(memo, *task) for task in waiting]


def _loocv_outcome(
    memo: dict, plan: LoocvPlan, config: GrmlrConfig, y: np.ndarray, keyed: list, error
):
    """One task's outcome from its folds' fit keys (None: skipped) and ``memo``."""
    if error is not None:
        return error
    predictions = [(fold, memo[key]) for fold, key in keyed if key is not None]
    skipped = [fold.site_id for fold, key in keyed if key is None]
    report = _report(plan, config, y, predictions, skipped, [])
    return report.accuracy, report.macro_f1


def _solve_queue(queue: dict, memo: dict) -> None:
    """Fit every queued fold problem in one :func:`_fit_batch` call and empty the queue.

    ``queue`` maps fold-fit keys to (plan, fold, config, fold problem) in
    first-seen order, all of one shape; each key's held-out prediction goes
    into ``memo``. ``_fit_batch`` splits the queue into one stack in kernel
    form and one in feature space, and warns in queue order.
    """
    if not queue:
        return
    plans, folds, configs, problems = zip(*queue.values())
    y_train, graphs = zip(*problems)
    K, p = len(plans[0].label_set), len(plans[0].taxa_names)
    V, _ = _fit_batch(
        np.stack([plan.features[fold.train_idx] for plan, fold in zip(plans, folds)]),
        np.stack(y_train),
        K,
        np.stack([_sample_weights(y, K, cfg.class_balanced) for y, cfg in zip(y_train, configs)]),
        np.stack([graph.laplacian for graph in graphs]),
        configs,
    )
    for key, plan, fold, fitted in zip(queue, plans, folds, V):
        memo[key] = _held_out_prediction(plan, fold, fitted[:, :p], fitted[:, p])
    queue.clear()


def _entry_sort_key(entry: GridEntry):
    failed = entry.error is not None
    acc = -entry.accuracy if not failed else float("inf")
    f1 = -entry.macro_f1 if not failed else float("inf")
    return (failed, acc, f1, entry.index)


def _map_chunked(tasks: list, workers: int) -> list:
    """Order-preserving :func:`_loocv_chunk` of ``tasks``; identical for any worker count.

    The pool has min(workers, len(tasks), usable CPUs) processes; with one,
    the tasks run here as one chunk. Otherwise each process runs one chunk
    of tasks at a time, and the warnings a chunk raised are issued again
    here, in task order, so that the caller's warning filters and
    ``--strict`` see them. ``workers`` must be an integer >= 1.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    size = min(workers, len(tasks), cpus or 1)
    if size <= 1:
        return _loocv_chunk(tasks)
    chunk_size = max(1, len(tasks) // (size * 4))
    chunks = [tasks[i : i + chunk_size] for i in range(0, len(tasks), chunk_size)]
    results: list = []
    with ProcessPoolExecutor(max_workers=size) as pool:
        futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
        for fut in futures:
            chunk_results, caught = fut.result()
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno)
            results.extend(chunk_results)
    return results


def _check_count(name: str, value) -> None:
    """Raise InvalidValue unless ``value`` is an integer >= 1; ``bool`` is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidValue(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise InvalidValue(f"{name} must be >= 1, got {value}")


def _run_chunk(chunk: list) -> tuple[list, list[tuple]]:
    with warnings.catch_warnings(record=True) as caught:
        results = _loocv_chunk(chunk)
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
    """Best grid-search LOOCV accuracy attainable at each mixing weight.

    This is one :func:`grid_search` over ``grid`` (``DEFAULT_GRID`` when None)
    with ``alphas`` as its alpha axis; each row is the best entry at that alpha.
    A fit that several alphas share runs once, so a warning it raises is issued once.
    Raises InvalidValue unless ``workers`` is an integer >= 1.
    """
    _check_count("workers", workers)
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise InvalidValue(f"alpha values must lie in [0, 1], got {alpha}")
    if not alphas:
        return []
    axes = {**(DEFAULT_GRID if grid is None else grid), "alpha": list(alphas)}
    entries = grid_search(dataset, axes, workers=workers, base_config=config).entries
    return [
        (float(alpha), GridResult([e for e in entries if e.config.alpha == alpha]).best().accuracy)
        for alpha in alphas
    ]


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
