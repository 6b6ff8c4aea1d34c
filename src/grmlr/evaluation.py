"""Evaluation harness: LOOCV, metrics, permutation test, grid search,
ablations and the graph-mixing sensitivity sweep.

All evaluations are leave-one-out: the held-out site never influences the
training fold's graph (under the default ``co_occurrence_scope='train'``),
sample weights or fit. Fold i holds out site i, and every function here
names a fold by that position. A fold plan (:func:`build_plan`) ranks the
features and the macrofauna counts once and is shared across
configurations and label vectors; it holds nothing that grows with p
squared per fold. ``_fold_laplacians``, the one place fold graphs are
assembled, downdates those ranks to a block of folds' training sites,
correlates them and thresholds the correlations into the folds'
Laplacians; it alone decides that lambda_g = 0, where the Laplacian does
not enter the objective, needs no graph, and returns a zero stack then.

The grid search (and so the alpha sweep) and the permutation test run on
one batch evaluator, ``_loocv_tasks``, whose tasks are LOOCVs of (plan,
config, labels). Whatever the worker count, it finds each task's skipped
folds in one pass and groups the tasks by the fold graph they share: per
plan and ``co_occurrence_scope`` by (tau, gamma, alpha), and a plan's
lambda_g = 0 tasks in one zero-graph group. It builds each fold graph
once, a block of folds at a time, correlating each block once for all
its groups, queues each group's fits before the next group's graphs are
built, so no graph is kept for later tasks, and fits each distinct fold
problem once. The fold problems are fitted in stacks that it forms from
the tasks alone and that an executor, inline or a process pool, fits
through ``model._fit_batch``. That solver fits a fold with a firm ridge
and fewer training sites than taxa in kernel form, in n_train-dimensional
coordinates, and every other fold in feature space; both take the same
Newton iterates up to rounding. A stack holds as many fold problems as
``model._STACK_BYTES`` holds in the form that they are solved in, so at
paper scale a small grid is one stack, which the evaluator fits inline:
a pool starts only at a call's first full stack, since a pool cannot
split a stack, and only then is the process-pool module imported.

Every call that fits runs in one fit session (``model._fit_session``),
with one OpenBLAS thread, and each pool worker's initializer opens one
for the worker's whole life: with two BLAS threads per worker, a pool of
two ran 2.5-3 x slower than serial. So every worker count fits with one
thread and gives the same bytes whatever ``OPENBLAS_NUM_THREADS`` says.

:func:`loocv`, and so the ablations, evaluate one config: they build each
fold's graph alone, with a fresh ``parts`` dict, and make one ``fit_arrays``
call per fold, in feature space. They keep each fold's model and
diagnostics, and that call is where the benchmark's tracer times fits.
Moving them onto the batch evaluator, and so onto kernel fits, waits for
the benchmark to stop keeping every repetition's ``loocv`` report: a
faster ``loocv`` makes more repetitions and so reads a higher peak RSS.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import itertools
import numbers
import os
import warnings
from concurrent.futures import Executor, Future
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset, _write_csv, substream
from .ecograph import _a_macro_or_zeros, _fused, _require_macrofauna, a_co_from_correlations
from .errors import (
    GrmlrError,
    InvalidShape,
    InvalidValue,
    LengthMismatch,
    TaxaMismatch,
    TooFewSamples,
    UnknownParameter,
)
from .model import (
    _STACK_BYTES,
    GrmlrConfig,
    GrmlrModel,
    _fit_batch,
    _fit_session,
    _fitted_model,
    _open_fit_session,
    _predicted_classes,
    _sample_weights,
    _stack_capacity,
    _training_labels,
    build_features,
    fit_arrays,
)
from .rankstats import _correlations, _leave_one_out, _unit, rank_matrix

DEFAULT_GRID: dict[str, list] = {
    "alpha": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
    "lambda_g": [0.0, 1.0, 5.0, 10.0],
    "lambda_l2": [0.001, 0.01, 0.02, 0.1],
    "tau": [0.5, 0.7, 0.9],
    "gamma": [0.7, 0.8, 0.9, 0.95],
}


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
class LoocvPlan:
    """Features, labels and their ranks, reusable across configurations.

    Fold i holds out site i, and ``train[i]`` lists its training sites
    (every site but i, in order). ``ranks`` is the features'
    ``rank_matrix`` and ``count_ranks`` the macrofauna counts', None without
    macrofauna; every fold's correlations are downdated from them
    (``_fold_correlations``). The batch evaluator keys fold fits and graphs
    on a plan's identity.
    """

    taxa_names: list[str]
    label_set: tuple[str, ...]
    site_ids: list[str]
    features: np.ndarray
    y: np.ndarray
    train: np.ndarray
    ranks: np.ndarray
    count_ranks: Optional[np.ndarray]
    feature_mode: str


def build_plan(dataset: Dataset, epsilon: float, feature_mode: str = "clr") -> LoocvPlan:
    """Precompute features, their ranks and the macrofauna counts' ranks for LOOCV.

    The features and the macrofauna counts are ranked once each; the plan
    keeps those ranks, n x p and n x k, and no correlations.

    Raises MissingLabels without labels, EmptyClass if no site has some
    stage, InvalidShape with fewer than K + 1 sites, and TooFewSamples
    with fewer than 4, as a fold's graph needs 3 training sites.
    """
    stages = _training_labels(dataset, "LOOCV")
    n = dataset.n_sites
    K = len(stages.label_set)
    if n < K + 1:
        raise InvalidShape(f"LOOCV needs at least K+1={K + 1} sites, got {n}")
    if n < 4:
        raise TooFewSamples(f"graph construction needs at least 3 sites, LOOCV folds have {n - 1}")
    Z = build_features(dataset, epsilon, feature_mode).values
    ranks = rank_matrix(Z)
    count_ranks = None
    if dataset.macrofauna is not None:
        count_ranks = rank_matrix(np.asarray(dataset.macrofauna.values, float))
    return LoocvPlan(
        taxa_names=list(dataset.abundances.taxa_names),
        label_set=tuple(stages.label_set),
        site_ids=list(dataset.abundances.site_ids),
        features=Z,
        y=stages.indices(),
        train=np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None]),
        ranks=ranks,
        count_ranks=count_ranks,
        feature_mode=feature_mode,
    )


def _fold_correlations(plan: LoocvPlan, folds: slice, scope: str) -> tuple:
    """Spearman matrices and macro-coupling profiles of the training sites of ``folds``.

    Returns the (b, p, p) stack of the b folds' Spearman matrices and the
    (b, p, k) stack of their feature-macrofauna Spearman cross matrices,
    None without macrofauna. Under ``scope`` 'all' the first is the
    Spearman matrix of every site's features instead, correlated from the
    plan's ranks and broadcast to that shape. The block's ranks are
    downdated from the plan's once, unless nothing reads them (scope 'all'
    without macrofauna), and each matrix equals, bit for bit,
    the ``spearman_matrix`` or ``spearman_cross`` of the rows it is made
    from, whatever the block.
    """
    kept = plan.train[folds]
    if scope == "all":
        unit, every = _unit(plan.ranks.copy())  # _unit works in place; the plan keeps them
        co = _correlations(unit, every, unit, every)
        co = np.broadcast_to(co, (len(kept), *co.shape))
        if plan.count_ranks is None:
            return co, None
    ranks, ok = _leave_one_out(plan.ranks, folds, kept)
    if scope != "all":
        co = _correlations(ranks, ok, ranks, ok)
    if plan.count_ranks is None:
        return co, None
    return co, _correlations(ranks, ok, *_leave_one_out(plan.count_ranks, folds, kept))


def _fold_laplacians(plan: LoocvPlan, folds: slice, config: GrmlrConfig, parts: dict) -> np.ndarray:
    """The (b, p, p) graph Laplacians of the b folds ``folds`` under ``config``, in one pass.

    Each equals, bit for bit, that of ``build_graph`` on its fold's
    training sites, but at lambda_g = 0, where no graph enters the
    objective, the stack is one zero matrix broadcast read-only.

    ``parts`` is shared by the calls on one block of folds of one plan and
    ``co_occurrence_scope``. It keeps the block's ``_fold_correlations``,
    with the A_macro last thresholded from them at one tau and the A_co at
    one gamma, so configs that differ only in alpha fuse the kept A_macro
    and A_co, and those that differ in tau or gamma threshold the kept
    correlations: the same operations on the same values. The working set
    is five p x p arrays per fold.
    """
    if config.lambda_g == 0.0:
        p = len(plan.taxa_names)
        return np.broadcast_to(np.zeros((p, p)), (len(plan.train[folds]), p, p))
    if "correlations" not in parts:
        parts["correlations"] = _fold_correlations(plan, folds, config.co_occurrence_scope)
    co, profiles = parts["correlations"]
    if parts.get("tau") != config.tau:
        parts.pop("a_macro", None)
        parts["a_macro"], parts["tau"] = _a_macro_or_zeros(profiles, config.tau, co), config.tau
    if parts.get("gamma") != config.gamma:
        parts.pop("a_co", None)
        parts["a_co"], parts["gamma"] = a_co_from_correlations(co, config.gamma), config.gamma
    return _fused(parts["a_macro"], parts["a_co"], config.alpha, plan.taxa_names).laplacian


def _skipped_folds(y: np.ndarray, K: int) -> list[bool]:
    """Whether each fold's training labels, ``y`` without fold i's, miss one of the K classes."""
    left = np.bincount(y, minlength=K) - (y[:, None] == np.arange(K))
    return (left == 0).any(axis=1).tolist()


def _held_out_prediction(plan: LoocvPlan, i: int, W: np.ndarray, b: np.ndarray) -> int:
    """Class index that fold i's fitted W, b predict for its held-out site i."""
    return int(_predicted_classes(plan.features[i], W, b))


def _report(
    plan: LoocvPlan,
    config: GrmlrConfig,
    y: np.ndarray,
    predictions: list[Optional[int]],
    models: list[GrmlrModel],
) -> EvalReport:
    """EvalReport of each fold's predicted class index (None: skipped) under true labels ``y``."""
    per_fold = [
        FoldPrediction(plan.site_ids[i], plan.label_set[y[i]], plan.label_set[pred])
        for i, pred in enumerate(predictions)
        if pred is not None
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
        skipped_folds=[plan.site_ids[i] for i, pred in enumerate(predictions) if pred is None],
        fold_models=models,
    )


def _fold_fit_key(
    plan: LoocvPlan, i: int, config: GrmlrConfig, labels: bytes, digest: bytes
) -> tuple:
    """Everything a fold fit depends on.

    That is the features, as the plan itself, which counts by identity
    (plans of one epsilon may differ in feature mode or data), the labels
    (``labels``, the bytes of the task's label vector), the fold i, the
    sample weights (``class_balanced``), the penalties, the stopping rule
    and the Laplacian, as its ``digest``: made once per fold graph,
    however many label vectors and configs share it; at lambda_g = 0 that
    is the zero graph's.
    """
    return (
        plan,
        labels,
        i,
        config.class_balanced,
        config.lambda_l2,
        config.lambda_g,
        config.ftol,
        config.gtol,
        config.max_iters,
        digest,
    )


@_fit_session()
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
    No two folds share a graph, so each is built alone, with a fresh
    ``parts`` dict, and none is kept. The call is one fit session
    (``model._fit_session``): its fits run with one BLAS thread and reuse
    one Hessian buffer, as the folds' systems share a shape. Raises
    MissingMacrofauna without macrofauna counts at alpha > 0.
    """
    plan = build_plan(dataset, config.epsilon, feature_mode)
    _require_macrofauna(plan.count_ranks, config.alpha)
    K = len(plan.label_set)
    predictions: list[Optional[int]] = []
    models: list[GrmlrModel] = []
    for i, (train, skipped) in enumerate(zip(plan.train, _skipped_folds(plan.y, K))):
        if skipped:
            predictions.append(None)
            continue
        laplacian = _fold_laplacians(plan, slice(i, i + 1), config, {})[0]
        y_train = plan.y[train]
        s = _sample_weights(y_train, K, config.class_balanced)
        W, b, info = fit_arrays(plan.features[train], y_train, K, s, laplacian, config)
        predictions.append(_held_out_prediction(plan, i, W, b))
        if keep_models:
            fitted = (W, b, info, plan.taxa_names, plan.label_set, config, plan.feature_mode)
            models.append(_fitted_model(*fitted))
    return _report(plan, config, plan.y, predictions, models)


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
    batch evaluator (``_loocv_tasks``) on one fold plan. Each fold graph is
    built and digested once, as no graph depends on the labels.
    A fold problem that two label vectors share is fitted once, so a
    warning it raises is issued once. Raises InvalidValue unless ``B`` and
    ``workers`` are integers >= 1 and ``seed`` is an integer.
    """
    _check_count("B", B)
    _check_count("workers", workers)
    rng = substream(seed, "permutation")
    plan = build_plan(dataset, config.epsilon)
    labels = [plan.y] + [plan.y[rng.permutation(len(plan.y))] for _ in range(B)]
    outcomes = _loocv_tasks([(plan, config, y) for y in labels], workers)
    failed = [outcome for outcome in outcomes if isinstance(outcome, GrmlrError)]
    if failed:  # the observed task's first; a lost ridge can depend on the labels' weights
        raise failed[0]
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

    Each configuration is one task of the batch evaluator (``_loocv_tasks``)
    on its plan's own labels, so each distinct fold fit runs once per call
    and warns once, in the order the fold-graph groups of ``_loocv_tasks``
    first need the fits; see ``_fold_fit_key``. Raises InvalidValue unless
    ``workers`` is an integer >= 1.
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
        if not isinstance(values, (list, tuple)):
            raise InvalidValue(f"grid axis '{name}' is not a list or tuple")
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
    for i, (cfg, outcome) in enumerate(zip(configs, _loocv_tasks(tasks, workers))):
        if isinstance(outcome, GrmlrError):  # entry marked failed, search continues
            outcome = (float("nan"), float("nan"), f"{type(outcome).__name__}: {outcome}")
        entries.append(GridEntry(i, cfg, *outcome))
    entries.sort(key=_entry_sort_key)
    return GridResult(entries=entries)


@_fit_session()
def _loocv_tasks(tasks: list, workers: int) -> list:
    """(accuracy, macro-F1), or the GrmlrError raised, of each (plan, config, labels) task's LOOCV.

    One pass finds each task's skipped folds, or its MissingMacrofauna,
    and groups the tasks by the fold graphs they share, which
    ``_grouped_fold_graphs`` then builds once each. Each task's fold-fit
    keys (None: fold skipped) are made once; a fold problem not seen before
    joins a queue in the order the groups yield it, and a full queue, of
    ``model._stack_capacity`` problems, is one stack. An executor fits the
    stacks: from the first full stack on, a ProcessPoolExecutor of
    min(workers, len(tasks), usable CPUs) processes, each in a fit session
    for its life, or with one, an inline one; a call whose only stack is
    the last fits it inline. The call itself is one fit session
    (``model._fit_session``), so inline fits too run with one BLAS thread.
    Stacks are settled oldest first into ``memo``, at most 2 x that size
    unsettled at once, so every worker count makes the same fits and
    warnings in the same order. Each outcome, :func:`loocv`'s on the task
    up to rounding (see ``model._fit_batch``), is read from ``memo`` at the
    end.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    size = min(workers, len(tasks), cpus or 1)
    memo: dict = {}  # fit key -> held-out prediction; None while queued or unsettled
    queue: list = []  # (fit key, plan, fold, config, task's labels y, Laplacian), all of one shape
    unsettled: collections.deque = collections.deque()
    keyed: list = []  # per task: its folds' fit keys, or the GrmlrError it raised
    groups: dict = {}  # (plan, scope) -> graph key -> [(task, its skipped folds)]
    for t, (plan, config, y) in enumerate(tasks):
        try:
            _require_macrofauna(plan.count_ranks, config.alpha)
        except GrmlrError as exc:
            keyed.append(exc.with_traceback(None))
            continue
        keyed.append([None] * len(y))
        where, graph = (plan, config.co_occurrence_scope), (config.tau, config.gamma, config.alpha)
        if config.lambda_g == 0.0:
            where, graph = (plan, None), None
        members = groups.setdefault(where, {}).setdefault(graph, [])
        members.append((t, _skipped_folds(y, len(plan.label_set))))
    with contextlib.ExitStack() as resources:
        inline, pool = _InlineExecutor(), None
        for t, i, laplacian, digest in _grouped_fold_graphs(tasks, groups):
            plan, config, y = tasks[t]
            key = _fold_fit_key(plan, i, config, y.tobytes(), digest)
            keyed[t][i] = key
            if key in memo:
                continue
            memo[key] = None
            queue.append((key, plan, i, config, y, laplacian))
            if len(queue) == _stack_capacity(len(plan.label_set), len(y) - 1, len(laplacian)):
                if pool is None:  # the first full stack; a lone last one fits inline
                    pool = inline if size == 1 else resources.enter_context(_process_pool(size))
                _submit(pool, queue, unsettled, memo, 2 * size)
        if queue:
            _submit(pool or inline, queue, unsettled, memo, 2 * size)
        _settle(unsettled, memo, 0)
    return [_loocv_outcome(memo, *task, keys) for task, keys in zip(tasks, keyed)]


def _process_pool(size: int) -> Executor:
    """A pool of ``size`` processes, each in one fit session for its whole life.

    ``concurrent.futures.process`` and ``multiprocessing`` are imported here,
    when a call first needs a pool, not when grmlr is imported.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=size, initializer=_open_fit_session)


def _grouped_fold_graphs(tasks: list, groups: dict):
    """Yield (task, fold i, Laplacian, digest) for each unskipped fold of the grouped tasks.

    ``groups`` maps each (plan, ``co_occurrence_scope``) to the tasks, with
    their skipped folds, of each graph key (tau, gamma, alpha), and
    (plan, None) to the plan's lambda_g = 0 tasks, which share one zero
    graph; all in first-seen order. A plan's folds are built a block at a
    time, as many as ``model._STACK_BYTES`` holds at five p x p arrays per
    fold. In a block, each group's Laplacians come from one
    ``_fold_laplacians`` call, and all groups share one ``parts`` dict, so
    the block is correlated once. Each Laplacian is digested with blake2b
    once, and the zero graph once per plan, and a group's folds are yielded
    task-major, in fold order within a task, before the next group's graphs
    are built.
    """
    for (plan, _), by_graph in groups.items():
        n, p = len(plan.train), len(plan.taxa_names)
        step = max(1, _STACK_BYTES // (5 * 8 * p * p))
        zero = None  # the zero graph's digest, made at its first block
        for start in range(0, n, step):
            folds, parts = slice(start, min(n, start + step)), {}
            for members in by_graph.values():
                config = tasks[members[0][0]][1]
                laplacians = _fold_laplacians(plan, folds, config, parts)
                if laplacians.strides[0] == 0:  # the zero graph, the same in every block
                    zero = zero or _digest(laplacians[0])
                    digests = [zero] * len(laplacians)
                else:
                    digests = [_digest(laplacian) for laplacian in laplacians]
                for t, skipped in members:
                    for i, (laplacian, digest) in enumerate(zip(laplacians, digests), start):
                        if not skipped[i]:
                            yield t, i, laplacian, digest
                del laplacians  # before the next group's are built


def _digest(laplacian: np.ndarray) -> bytes:
    """The blake2b digest by which fold fits key their Laplacian."""
    return hashlib.blake2b(laplacian.tobytes(), digest_size=16).digest()


def _loocv_outcome(memo: dict, plan: LoocvPlan, config: GrmlrConfig, y: np.ndarray, keys):
    """One task's outcome from its folds' fit keys (None: skipped), or its error, and ``memo``."""
    if isinstance(keys, GrmlrError):
        return keys
    predictions = [None if key is None else memo[key] for key in keys]
    failed = [pred for pred in predictions if isinstance(pred, GrmlrError)]
    if failed:  # the first in fold order
        return failed[0]
    report = _report(plan, config, y, predictions, [])
    return report.accuracy, report.macro_f1


class _InlineExecutor(Executor):
    """An executor that runs each submitted call at once, in this process."""

    def submit(self, fn, /, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _submit(pool: Executor, queue: list, unsettled, memo: dict, limit: int) -> None:
    """Once fewer than ``limit`` stacks are unsettled, submit the queue as one; empty it."""
    _settle(unsettled, memo, limit - 1)
    keys, plans, folds, configs, ys, laplacians = zip(*queue)
    queue.clear()
    K = len(plans[0].label_set)
    y_train = np.stack([y[plan.train[i]] for plan, i, y in zip(plans, folds, ys)])
    future = pool.submit(
        _fit_stack,
        np.stack([plan.features[plan.train[i]] for plan, i in zip(plans, folds)]),
        y_train,
        K,
        _sample_weights(y_train, K, np.array([cfg.class_balanced for cfg in configs])),
        np.stack(laplacians),
        configs,
    )
    unsettled.append((keys, plans, folds, future))


def _fit_stack(*stack) -> tuple:
    """``_fit_batch(*stack)`` and its warnings, as (message, category, filename, lineno)."""
    with warnings.catch_warnings(record=True) as caught:
        V, infos = _fit_batch(*stack)
    return V, infos, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _settle(unsettled: collections.deque, memo: dict, keep: int) -> None:
    """Settle the oldest submitted stacks until at most ``keep`` remain.

    Each stack's warnings are issued again here, for the caller's warning
    filters and ``--strict``; its held-out predictions, or the InvalidValue
    of a fold whose ridge is lost, go into ``memo``.
    """
    while len(unsettled) > keep:
        keys, plans, folds, future = unsettled.popleft()
        V, infos, caught = future.result()
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        p = len(plans[0].taxa_names)
        for key, plan, i, v, info in zip(keys, plans, folds, V, infos):
            lost = isinstance(info, GrmlrError)
            memo[key] = info if lost else _held_out_prediction(plan, i, v[:, :p], v[:, p])


def _entry_sort_key(entry: GridEntry):
    failed = entry.error is not None
    acc = -entry.accuracy if not failed else float("inf")
    f1 = -entry.macro_f1 if not failed else float("inf")
    return (failed, acc, f1, entry.index)


def _check_count(name: str, value) -> None:
    """Raise InvalidValue unless ``value`` is an integer >= 1; ``bool`` is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidValue(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise InvalidValue(f"{name} must be >= 1, got {value}")


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
    grid: dict[str, list],
    workers: int = 1,
) -> list[tuple[float, float]]:
    """Best grid-search LOOCV accuracy attainable at each mixing weight.

    This is one :func:`grid_search` over ``grid`` (the CLI's default is
    ``DEFAULT_GRID``) with ``alphas`` as its alpha axis, in place of any
    alpha axis ``grid`` has; each row is the best entry at that alpha.
    A fit that several alphas share runs once, so a warning it raises is issued once.
    Raises InvalidValue unless ``workers`` is an integer >= 1 and every
    alpha a real number in [0, 1].
    """
    _check_count("workers", workers)
    for alpha in alphas:
        if not isinstance(alpha, numbers.Real):
            raise InvalidValue(f"alpha values must be real numbers, got {alpha!r}")
        if not 0.0 <= alpha <= 1.0:
            raise InvalidValue(f"alpha values must lie in [0, 1], got {alpha}")
    if len(alphas) == 0:
        return []
    axes = {**grid, "alpha": list(alphas)}
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


def write_grid_csv(result: GridResult, path: str | Path) -> None:
    fields = list(GrmlrConfig.__dataclass_fields__)
    rows = []
    for rank, e in enumerate(result.entries):
        cfg = e.config.to_dict()
        rows.append(
            [
                rank,
                e.index,
                e.accuracy,
                e.macro_f1,
                e.error or "",
                *[cfg[f] for f in fields],
            ]
        )
    _write_csv(path, ["rank", "index", "accuracy", "macro_f1", "error", *fields], rows)


def write_alpha_sweep_csv(rows: Sequence[tuple[float, float]], path: str | Path) -> None:
    _write_csv(path, ["alpha", "best_accuracy"], rows)


def write_coefficient_csv(ranking: Sequence[tuple[str, float]], path: str | Path) -> None:
    _write_csv(path, ["taxon", "mean_weight_magnitude"], ranking)
