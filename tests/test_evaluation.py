"""Harness: LOOCV, metrics, permutation machinery, grid, ablations, sweep."""

import hashlib
import itertools
import os
import warnings
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from grmlr import ecograph, evaluation
from grmlr.compositional import clr_transform
from grmlr.dataset import (
    AbundanceMatrix,
    Dataset,
    MacrofaunaCounts,
    StageLabels,
    substream,
    synthesize_dataset,
)
from grmlr.errors import (
    EmptyClass,
    InvalidShape,
    InvalidValue,
    LengthMismatch,
    MissingLabels,
    MissingMacrofauna,
    NonConvergenceWarning,
    TaxaMismatch,
    UnknownParameter,
)
from grmlr.evaluation import (
    EvalReport,
    GridEntry,
    GridResult,
    ablate,
    alpha_sweep,
    build_plan,
    coefficient_ranking,
    grid_search,
    loocv,
    macro_f1,
    permutation_test,
    write_eval_report,
    write_grid_csv,
)
from grmlr.ecograph import (
    build_graph,
    compute_co_correlations,
    compute_macro_profiles,
    graph_from_correlations,
)
from grmlr.model import GrmlrConfig, GrmlrModel, class_balanced_weights, fit, loss

SMALL_GRID = {
    "alpha": [0.0, 0.5],
    "lambda_g": [0.0, 5.0],
    "gamma": [0.8],
}


@pytest.fixture
def separable():
    return synthesize_dataset(n=9, p=12, K=3, n_blocks=3, coupling=0.9, noise=0.05, seed=11)


@pytest.fixture
def noisy():
    return synthesize_dataset(n=9, p=12, K=3, n_blocks=3, coupling=0.6, noise=1.5, seed=11)


@pytest.fixture
def graph_builds(monkeypatch):
    """Counts of A_macro, A_co and Laplacian builds and of blake2b digests while the test runs."""
    counts = {"a_macro_from_profiles": 0, "a_co_from_correlations": 0, "laplacian_of": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in list(counts):
        wrapped = counting(name, getattr(ecograph, name))
        for module in (ecograph, evaluation):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    counts["blake2b"] = 0
    monkeypatch.setattr(hashlib, "blake2b", counting("blake2b", hashlib.blake2b))
    return counts


@pytest.fixture
def fitted_problems(monkeypatch):
    """(training features, lambda_g, Laplacian or None at lambda_g = 0) of each stacked fold fit."""
    problems = []
    original = evaluation._fit_batch

    def recording(Z, y, K, s, laplacian, configs, *args, **kwargs):
        problems.extend(
            (z.tobytes(), cfg.lambda_g, lap.tobytes() if cfg.lambda_g else None)
            for z, lap, cfg in zip(Z, laplacian, configs)
        )
        return original(Z, y, K, s, laplacian, configs, *args, **kwargs)

    monkeypatch.setattr(evaluation, "_fit_batch", recording)
    return problems


class TestMacroF1:
    def test_perfect(self):
        labs = ["juvenile", "adult", "dead"]
        assert macro_f1(labs, labs, labs) == 1.0

    def test_collapsed_predictor(self):
        truth = ["juvenile"] * 3 + ["adult"] * 7 + ["dead"] * 3
        preds = ["adult"] * 13
        got = macro_f1(truth, preds, ("juvenile", "adult", "dead"))
        assert got == pytest.approx(7 / 30)  # only the majority class scores 0.7

    def test_single_class_truth(self):
        truth = ["adult"] * 4
        assert macro_f1(truth, truth, ("juvenile", "adult", "dead")) == pytest.approx(1 / 3)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            macro_f1(["adult"], [], ("adult",))

    def test_one_iff_all_correct(self, separable):
        report = loocv(separable, GrmlrConfig())
        all_correct = all(f.true_label == f.predicted_label for f in report.per_fold)
        assert (report.accuracy == 1.0) == all_correct
        assert (report.macro_f1 == 1.0) == all_correct


class TestLoocv:
    def test_fold_count(self, synth_dataset):
        report = loocv(synth_dataset, GrmlrConfig())
        assert len(report.per_fold) == 13
        assert [f.site_id for f in report.per_fold] == synth_dataset.abundances.site_ids

    def test_separable_dataset_perfect(self, separable):
        report = loocv(separable, GrmlrConfig())
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert sum(report.stage_correct.values()) == 9

    def test_requires_labels(self, synth_dataset):
        unlabeled = Dataset(synth_dataset.abundances, synth_dataset.macrofauna, None)
        with pytest.raises(MissingLabels):
            loocv(unlabeled, GrmlrConfig())

    def test_degenerate_fold_skipped_and_flagged(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(0.1, 1.0, size=(5, 4))
        ab = AbundanceMatrix(
            [f"s{i}" for i in range(5)],
            ["a", "b", "c", "d"],
            raw / raw.sum(1, keepdims=True),
        )
        labels = StageLabels(list(ab.site_ids), ["juvenile", "juvenile", "adult", "adult", "dead"])
        ds = Dataset(ab, None, labels)
        report = loocv(ds, GrmlrConfig(alpha=0.0))
        assert report.skipped_folds == ["s4"]
        assert len(report.per_fold) == 4
        assert 0.0 <= report.accuracy <= 1.0

    def test_fold_models_keep_solver_diagnostics(self, noisy):
        config = GrmlrConfig()
        report = loocv(noisy, config, keep_models=True)
        assert len(report.fold_models) == noisy.n_sites
        for i, model in enumerate(report.fold_models):
            assert model.converged and model.n_iterations >= 1
            fold = noisy.subset([j for j in range(noisy.n_sites) if j != i])
            feats = clr_transform(fold.abundances, config.epsilon)
            graph = build_graph(
                feats, fold.macrofauna, tau=config.tau, gamma=config.gamma, alpha=config.alpha
            )
            s = class_balanced_weights(fold.stages)
            assert model.final_loss == pytest.approx(
                loss(model, feats, fold.stages, graph, s), abs=1e-12
            )

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("class_balanced", [True, False])
    def test_fold_models_equal_fit_on_training_subset(self, synth_dataset, alpha, class_balanced):
        # the shared fold plan must reproduce a from-scratch fit bit for bit
        config = GrmlrConfig(alpha=alpha, class_balanced=class_balanced)
        report = loocv(synth_dataset, config, keep_models=True)
        n = synth_dataset.n_sites
        assert len(report.fold_models) == n
        for i, fold_model in enumerate(report.fold_models):
            model, _ = fit(synth_dataset.subset([j for j in range(n) if j != i]), config)
            assert np.array_equal(fold_model.weights, model.weights)
            assert np.array_equal(fold_model.bias, model.bias)
            assert fold_model.final_loss == model.final_loss

    def test_holdout_macrofauna_never_influences_fold(self, noisy):
        config = GrmlrConfig()
        base = loocv(noisy, config, keep_models=True)
        values = np.array(noisy.macrofauna.values)
        for i in (0, 4, 8):
            perturbed = values.copy()
            perturbed[i] = perturbed[i] + 17
            ds2 = Dataset(
                noisy.abundances,
                MacrofaunaCounts(
                    list(noisy.macrofauna.site_ids),
                    perturbed,
                    list(noisy.macrofauna.category_names),
                ),
                noisy.stages,
            )
            other = loocv(ds2, config, keep_models=True)
            assert np.array_equal(other.fold_models[i].weights, base.fold_models[i].weights)
            assert np.array_equal(other.fold_models[i].bias, base.fold_models[i].bias)

    def test_pure_noise_labels_near_majority_rate(self):
        # relabeling uniformly at random: LOOCV should sit near the rate a
        # majority-class guesser achieves, far below the planted-signal 1.0
        rng = np.random.default_rng(99)
        accs = []
        for seed in range(25):
            ds = synthesize_dataset(n=9, p=8, K=3, n_blocks=2, coupling=0.5, noise=0.4, seed=seed)
            shuffled = [ds.stages.labels[i] for i in rng.permutation(9)]
            accs.append(loocv(ds.with_labels(shuffled), GrmlrConfig(lambda_g=0.0)).accuracy)
        mean_acc = float(np.mean(accs))
        assert mean_acc < 0.55  # majority rate is 4/9 ~ 0.44 on average


class TestPermutation:
    def test_deterministic(self, separable):
        a = permutation_test(separable, GrmlrConfig(), B=8, seed=5)
        b = permutation_test(separable, GrmlrConfig(), B=8, seed=5)
        assert a.permuted_accuracies == b.permuted_accuracies
        assert a.p_value == b.p_value

    def test_different_seeds_differ(self, separable):
        a = permutation_test(separable, GrmlrConfig(), B=8, seed=5)
        b = permutation_test(separable, GrmlrConfig(), B=8, seed=6)
        assert a.permuted_accuracies != b.permuted_accuracies

    def test_p_value_formula_and_bounds(self, separable):
        rep = permutation_test(separable, GrmlrConfig(), B=10, seed=1)
        exceed = sum(1 for acc in rep.permuted_accuracies if acc >= rep.observed_accuracy)
        assert rep.p_value == (1 + exceed) / 11
        assert 1 / 11 <= rep.p_value <= 1.0

    def test_matches_naive_relabeled_loocv(self, separable):
        # the batch evaluator shares the fold plan and stacks the fits; a
        # from-scratch LOOCV on each relabeled dataset must agree exactly
        config = GrmlrConfig()
        report = permutation_test(separable, config, B=6, seed=5)
        assert report.observed_accuracy == loocv(separable, config).accuracy
        rng = substream(5, "permutation")
        labels = separable.stages.labels
        for accuracy in report.permuted_accuracies:
            perm = rng.permutation(9)
            relabeled = separable.with_labels([labels[i] for i in perm])
            assert accuracy == loocv(relabeled, config).accuracy

    def test_one_fit_per_distinct_fold_problem(self, separable, monkeypatch):
        fitted = []  # (training features, training labels) of each stacked problem
        calls = []
        original = evaluation._fit_batch

        def counting(Z, y, *args, **kwargs):
            calls.append(1)
            fitted.extend((z.tobytes(), labels.tobytes()) for z, labels in zip(Z, y))
            return original(Z, y, *args, **kwargs)

        monkeypatch.setattr(evaluation, "_fit_batch", counting)
        permutation_test(separable, GrmlrConfig(), B=8, seed=5)
        plan = build_plan(separable, GrmlrConfig().epsilon)
        rng = substream(5, "permutation")
        labels = [plan.y] + [plan.y[rng.permutation(9)] for _ in range(8)]
        problems = {
            (plan.features[fold.train_idx].tobytes(), y[fold.train_idx].tobytes())
            for y in labels
            for fold in plan.folds
        }
        assert len(fitted) == len(set(fitted)) == len(problems)
        assert set(fitted) == problems
        assert len(calls) < len(problems)

    def test_each_fold_graph_built_and_digested_once(self, separable, graph_builds):
        # no graph depends on the labels, so B = 8 permutations share the observed ones
        permutation_test(separable, GrmlrConfig(), B=8, seed=5)
        n = separable.n_sites
        assert graph_builds == {
            "a_macro_from_profiles": n,
            "a_co_from_correlations": n,
            "laplacian_of": n,
            "blake2b": n,
        }

    def test_observed_error_keeps_its_type(self, separable):
        stripped = Dataset(separable.abundances, None, separable.stages)
        with pytest.raises(MissingMacrofauna, match="alpha > 0 requires macrofauna"):
            permutation_test(stripped, GrmlrConfig(alpha=0.5), B=3, seed=0)

    def test_worker_warnings_reach_the_caller_in_task_order(self):
        data = synthesize_dataset(n=9, p=8, K=3, n_blocks=2, coupling=0.9, noise=0.1, seed=0)
        config = GrmlrConfig(max_iters=1)
        seen = {}
        for workers in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                permutation_test(data, config, B=2, seed=0, workers=workers)
            seen[workers] = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
        assert len(seen[1]) == 3 * 9  # observed labels and B=2 permutations, 9 folds each
        assert all(cat is NonConvergenceWarning for cat, *_ in seen[1])
        assert seen[2] == seen[1]


class TestGrid:
    def test_single_point_equals_direct_loocv(self, separable):
        config = GrmlrConfig()
        result = grid_search(separable, {"alpha": [0.3]}, base_config=config)
        assert len(result.entries) == 1
        direct = loocv(separable, GrmlrConfig(alpha=0.3))
        assert result.entries[0].accuracy == direct.accuracy
        assert result.entries[0].macro_f1 == direct.macro_f1

    def test_entry_count_is_product(self, separable):
        result = grid_search(separable, SMALL_GRID)
        assert len(result.entries) == 4

    def test_worker_count_invariance(self, separable):
        serial = grid_search(separable, SMALL_GRID, workers=1)
        parallel = grid_search(separable, SMALL_GRID, workers=2)
        assert [e.index for e in serial.entries] == [e.index for e in parallel.entries]
        assert [e.accuracy for e in serial.entries] == [e.accuracy for e in parallel.entries]
        assert [e.config for e in serial.entries] == [e.config for e in parallel.entries]

    def test_unknown_parameter(self, separable):
        with pytest.raises(UnknownParameter):
            grid_search(separable, {"not_a_field": [1]})

    def test_failed_entries_marked_and_search_continues(self, separable):
        stripped = Dataset(separable.abundances, None, separable.stages)
        result = grid_search(stripped, {"alpha": [0.0, 0.5], "lambda_g": [0.0, 1.0]})
        ok = [e for e in result.entries if e.error is None]
        failed = [e for e in result.entries if e.error is not None]
        assert len(ok) == 2 and all(e.config.alpha == 0.0 for e in ok)
        assert len(failed) == 2 and all("MissingMacrofauna" in e.error for e in failed)
        assert all(np.isnan(e.accuracy) for e in failed)

    def test_sorted_by_accuracy_then_f1_then_order(self, noisy):
        result = grid_search(noisy, SMALL_GRID)
        keys = [(-e.accuracy, -e.macro_f1, e.index) for e in result.entries]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_warning_escalated_to_error_is_not_a_failed_entry(self, workers):
        data = synthesize_dataset(n=9, p=8, K=3, n_blocks=2, coupling=0.9, noise=0.1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonConvergenceWarning)
            with pytest.raises(NonConvergenceWarning, match="max_iters=1"):
                grid_search(data, {"max_iters": [1, 15000]}, workers=workers)


class TestGridFitReuse:
    GRID = {"alpha": [0.0, 0.5, 1.0], "lambda_g": [0.0, 5.0]}
    # every field of the fold-graph key takes two values or more
    GRAPH_GRID = {
        **GRID,
        "co_occurrence_scope": ["train", "all"],
        "tau": [0.5, 0.9],
        "gamma": [0.8, 0.9],
    }

    @staticmethod
    def _outcomes(result):
        return [(e.index, e.config, e.accuracy, e.macro_f1, e.error) for e in result.entries]

    def test_one_fit_per_distinct_fold_problem(self, separable, fitted_problems):
        result = grid_search(separable, self.GRAPH_GRID)
        epsilon = GrmlrConfig().epsilon
        co_all = compute_co_correlations(clr_transform(separable.abundances, epsilon))
        expected = set()
        for i in range(separable.n_sites):
            train = separable.subset([j for j in range(separable.n_sites) if j != i])
            features = clr_transform(train.abundances, epsilon)
            profiles = compute_macro_profiles(features, train.macrofauna)
            co = {"train": compute_co_correlations(features), "all": co_all}
            for alpha, lambda_g, scope, tau, gamma in itertools.product(
                *self.GRAPH_GRID.values()
            ):
                laplacian = graph_from_correlations(
                    profiles, co[scope], tau, gamma, alpha, features.taxa_names
                ).laplacian
                expected.add(
                    (features.values.tobytes(), lambda_g, laplacian.tobytes() if lambda_g else None)
                )
        assert len(expected) < len(result.entries) * separable.n_sites
        assert len(fitted_problems) == len(set(fitted_problems))
        assert set(fitted_problems) == expected
        for entry in result.entries:
            direct = loocv(separable, entry.config)
            assert (entry.accuracy, entry.macro_f1) == (direct.accuracy, direct.macro_f1)

    def test_equal_alphas_of_two_types_keep_their_own_graphs(self, separable, fitted_problems):
        # 1 - alpha rounds to float32 for a float32 alpha, so the two graphs differ
        alphas = [np.float32(0.1), float(np.float32(0.1))]
        grid_search(separable, {"alpha": alphas, "lambda_g": [5.0]})
        plan = build_plan(separable, GrmlrConfig().epsilon)
        expected = {
            (
                plan.features[fold.train_idx].tobytes(),
                5.0,
                graph_from_correlations(
                    fold.profiles, fold.co_train, 0.7, 0.9, alpha, plan.taxa_names
                ).laplacian.tobytes(),
            )
            for fold in plan.folds
            for alpha in alphas
        }
        assert len(expected) == 2 * separable.n_sites
        assert set(fitted_problems) == expected

    def test_one_graph_per_fold_and_alpha_and_none_at_lambda_g_zero(
        self, separable, graph_builds
    ):
        grid_search(separable, self.GRID)
        n = separable.n_sites  # one tau, one gamma and one scope
        assert graph_builds["a_macro_from_profiles"] == n
        assert graph_builds["a_co_from_correlations"] == n
        assert graph_builds["laplacian_of"] == n * len(self.GRID["alpha"])

    @pytest.mark.parametrize("graphs_kept", [0, 3])
    def test_graph_byte_bound_changes_no_fit(
        self, separable, fitted_problems, monkeypatch, graphs_kept
    ):
        unbounded = grid_search(separable, self.GRAPH_GRID)
        reference = list(fitted_problems)
        fitted_problems.clear()
        p = separable.n_taxa
        monkeypatch.setattr(evaluation, "_GRAPH_CACHE_BYTES", max(1, graphs_kept * p * p * 8))
        bounded = grid_search(separable, self.GRAPH_GRID)
        assert fitted_problems == reference
        assert self._outcomes(bounded) == self._outcomes(unbounded)

    def test_worker_count_invariance(self, separable):
        # 24 configs make chunks of 3, so fits are also reused within a worker chunk
        grid = {**self.GRID, "tau": [0.5, 0.9], "gamma": [0.8, 0.9]}
        serial = grid_search(separable, grid, workers=1)
        parallel = grid_search(separable, grid, workers=2)
        assert self._outcomes(parallel) == self._outcomes(serial)

    def test_configs_without_their_graph_inputs_still_fail(self, separable):
        stripped = Dataset(separable.abundances, None, separable.stages)
        result = grid_search(stripped, self.GRID)
        for entry in result.entries:
            if entry.config.alpha > 0:
                assert entry.error.startswith("MissingMacrofauna")
            else:
                assert entry.error is None
                direct = loocv(stripped, entry.config)
                assert (entry.accuracy, entry.macro_f1) == (direct.accuracy, direct.macro_f1)

    def test_int_and_numpy_scalar_axis_values_are_accepted(self, separable):
        plain = grid_search(separable, {"lambda_g": [5.0, 0.0], "max_iters": [15000]})
        scalars = grid_search(
            separable, {"lambda_g": [5, np.float64(0.0)], "max_iters": [np.int64(15000)]}
        )
        assert [e.error for e in scalars.entries] == [None, None]
        assert self._outcomes(scalars) == self._outcomes(plain)


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs each submit inline."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestPool:
    GRID = {"alpha": [0.0, 0.5], "lambda_g": [0.0, 5.0]}  # 4 configs

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        monkeypatch.setattr(_InlineExecutor, "sizes", [])
        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", _InlineExecutor)
        return _InlineExecutor.sizes

    @staticmethod
    def _outcomes(result):
        return [(e.index, e.accuracy, e.macro_f1, e.error) for e in result.entries]

    @pytest.mark.parametrize(
        "workers, cpus, size", [(64, 8, 4), (3, 8, 3), (64, 2, 2), (2, 1, None), (1, 8, None)]
    )
    def test_pool_is_capped_by_tasks_and_usable_cpus(
        self, separable, monkeypatch, pool_sizes, workers, cpus, size
    ):
        serial = grid_search(separable, self.GRID)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        result = grid_search(separable, self.GRID, workers=workers)
        assert pool_sizes == ([] if size is None else [size])  # None: no pool, run serially
        assert self._outcomes(result) == self._outcomes(serial)

    def test_cpu_count_where_affinity_is_missing(self, separable, monkeypatch, pool_sizes):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        grid_search(separable, self.GRID, workers=64)
        assert pool_sizes == [3]

    def test_permutation_pool_is_capped_by_tasks(self, separable, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        report = permutation_test(separable, GrmlrConfig(), B=2, seed=5, workers=64)
        assert pool_sizes == [3]  # the observed labels and B = 2 permutations
        serial = permutation_test(separable, GrmlrConfig(), B=2, seed=5)
        assert report.to_dict() == serial.to_dict()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, separable, pool_sizes, workers):
        message = f"workers must be >= 1, got {workers}"
        with pytest.raises(InvalidValue, match=message):
            grid_search(separable, self.GRID, workers=workers)
        with pytest.raises(InvalidValue, match=message):
            permutation_test(separable, GrmlrConfig(), B=2, seed=0, workers=workers)
        with pytest.raises(InvalidValue, match=message):
            alpha_sweep(separable, GrmlrConfig(), [0.0], grid={"lambda_g": [0.0]}, workers=workers)
        assert pool_sizes == []

    @pytest.mark.parametrize("workers", [2.5, 2.0, True])
    def test_workers_not_an_integer_rejected(self, separable, pool_sizes, workers):
        message = f"workers must be an integer, got {workers!r}"
        with pytest.raises(InvalidValue, match=message):
            grid_search(separable, self.GRID, workers=workers)
        with pytest.raises(InvalidValue, match=message):
            permutation_test(separable, GrmlrConfig(), B=2, seed=0, workers=workers)
        with pytest.raises(InvalidValue, match=message):
            alpha_sweep(separable, GrmlrConfig(), [], workers=workers)
        assert pool_sizes == []

    @pytest.mark.parametrize("B", [2.0, True, "2"])
    def test_permutation_count_not_an_integer_rejected(self, separable, B):
        with pytest.raises(InvalidValue, match=f"B must be an integer, got {B!r}"):
            permutation_test(separable, GrmlrConfig(), B=B, seed=0)

    def test_numpy_integers_are_counts(self, separable):
        report = permutation_test(separable, GrmlrConfig(), B=np.int64(2), seed=5, workers=np.int32(1))
        assert report.to_dict() == permutation_test(separable, GrmlrConfig(), B=2, seed=5).to_dict()


class TestNegligibleRidge:
    """A ridge below rounding is solved like lambda_l2 = 0, not as a singular Newton system."""

    @pytest.mark.parametrize(
        "shape, seed, lambda_g, alpha, lambda_l2",
        [
            ((13, 26), 0, 5.0, 1.0, 1e-20),
            ((9, 8), 7, 0.0, 0.0, 1e-300),
            ((9, 8), 7, 0.0, 0.0, 1e-20),
            ((40, 8), 7, 0.0, 0.0, 1e-300),
            ((40, 8), 7, 0.0, 0.0, 1e-20),
        ],
    )
    def test_loocv_predicts_as_without_a_ridge(self, shape, seed, lambda_g, alpha, lambda_l2):
        n, p = shape
        ds = synthesize_dataset(n=n, p=p, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=seed)
        config = GrmlrConfig(lambda_g=lambda_g, alpha=alpha)
        report = loocv(ds, replace(config, lambda_l2=lambda_l2))
        no_ridge = loocv(ds, replace(config, lambda_l2=0.0))
        assert report.to_dict()["per_fold"] == no_ridge.to_dict()["per_fold"]

    def test_grid_search_keeps_every_entry(self):
        ds = synthesize_dataset(n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=0)
        grid = {"lambda_l2": [0.0, 1e-300, 1e-20, 0.02], "alpha": [1.0]}
        entries = sorted(grid_search(ds, grid).entries, key=lambda e: e.index)
        assert [e.error for e in entries] == [None] * 4
        no_ridge, *tiny, _ = entries
        for entry in tiny:
            assert (entry.accuracy, entry.macro_f1) == (no_ridge.accuracy, no_ridge.macro_f1)


class TestMissingStage:
    @pytest.fixture
    def no_dead(self, separable):
        return separable.with_labels(
            ["adult" if lab == "dead" else lab for lab in separable.stages.labels]
        )

    def test_every_entry_point_names_the_missing_stage(self, no_dead):
        config = GrmlrConfig()
        calls = [
            lambda: build_plan(no_dead, config.epsilon),
            lambda: fit(no_dead, config),
            lambda: loocv(no_dead, config),
            lambda: permutation_test(no_dead, config, B=2, seed=0),
            lambda: grid_search(no_dead, {"lambda_g": [0.0, 5.0]}),
            lambda: ablate(no_dead, config),
            lambda: alpha_sweep(no_dead, config, [0.0], grid={"lambda_g": [0.0]}),
        ]
        for call in calls:
            with pytest.raises(EmptyClass, match="^no site has stage 'dead'$"):
                call()

    def test_several_missing_stages_are_all_named(self, separable):
        only_juvenile = separable.with_labels(["juvenile"] * separable.n_sites)
        with pytest.raises(EmptyClass, match="^no site has stage 'adult' or 'dead'$"):
            loocv(only_juvenile, GrmlrConfig())


def _zero_model(taxa):
    labels = ("juvenile", "adult", "dead")
    return GrmlrModel(np.zeros((3, len(taxa))), np.zeros(3), list(taxa), labels, GrmlrConfig())


VALIDATION_RAISES = {
    "grid-all-failed": (
        lambda ds: GridResult([GridEntry(0, GrmlrConfig(), np.nan, np.nan, "X: x")]).best(),
        InvalidValue,
        "every grid entry failed",
    ),
    "loocv-too-few-sites": (
        lambda ds: loocv(ds.subset([0, 1, 2]), GrmlrConfig()),
        InvalidShape,
        r"LOOCV needs at least K\+1=4 sites, got 3",
    ),
    "permtest-B0": (
        lambda ds: permutation_test(ds, GrmlrConfig(), B=0, seed=0),
        InvalidValue,
        "B must be >= 1, got 0",
    ),
    "grid-no-axes": (
        lambda ds: grid_search(ds, {}),
        InvalidValue,
        "grid must define at least one axis",
    ),
    "grid-empty-axis": (
        lambda ds: grid_search(ds, {"alpha": [0.0], "tau": []}),
        InvalidValue,
        "grid axis 'tau' is empty",
    ),
    "ranking-no-models": (
        lambda ds: coefficient_ranking([]),
        InvalidValue,
        "coefficient_ranking needs at least one model",
    ),
    "ranking-taxa-order": (
        lambda ds: coefficient_ranking([_zero_model("ab"), _zero_model("ba")]),
        TaxaMismatch,
        "models do not share a taxa ordering",
    ),
}


@pytest.mark.parametrize("call, error, message", VALIDATION_RAISES.values(), ids=VALIDATION_RAISES)
def test_validation_raises(separable, call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call(separable)


class TestAblate:
    def test_variant_definitions(self, noisy):
        config = GrmlrConfig()
        reports = ablate(noisy, config)
        assert set(reports) == {"no_graph", "no_macro", "no_co", "no_clr"}
        from dataclasses import replace

        direct = loocv(noisy, replace(config, lambda_g=0.0))
        assert reports["no_graph"].accuracy == direct.accuracy
        assert [f.predicted_label for f in reports["no_graph"].per_fold] == [
            f.predicted_label for f in direct.per_fold
        ]
        assert reports["no_macro"].config.alpha == 0.0
        assert reports["no_co"].config.alpha == 1.0

    def test_no_clr_uses_raw_features(self, noisy):
        config = GrmlrConfig()
        reports = ablate(noisy, config)
        direct_raw = loocv(noisy, config, feature_mode="raw")
        assert reports["no_clr"].accuracy == direct_raw.accuracy
        # raw features do not live on the zero-sum hyperplane
        plan = build_plan(noisy, config.epsilon, feature_mode="raw")
        assert np.abs(plan.features.sum(axis=1)).min() > 0.5


class TestAlphaSweep:
    def test_row_per_alpha_and_consistency(self, separable):
        grid = {"lambda_g": [0.0, 5.0], "gamma": [0.8]}
        rows = alpha_sweep(separable, GrmlrConfig(), [0.0, 0.5, 1.0], grid=grid)
        assert [a for a, _ in rows] == [0.0, 0.5, 1.0]
        independent = grid_search(
            separable, grid, base_config=GrmlrConfig(alpha=0.5)
        ).best()
        assert rows[1][1] == independent.accuracy

    def test_flat_landscape(self, separable):
        rows = alpha_sweep(
            separable, GrmlrConfig(), [0.0, 0.3, 0.7, 1.0], grid={"lambda_g": [0.0]}
        )
        accs = {acc for _, acc in rows}
        assert len(accs) == 1  # lambda_g=0 makes alpha irrelevant

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_row_is_the_best_of_a_grid_search_at_that_alpha(self, noisy, workers):
        grid = {"lambda_g": [0.0, 5.0], "tau": [0.5, 0.9]}
        config = GrmlrConfig(lambda_l2=0.01)
        alphas = [0.0, 0.5, 1.0]
        rows = alpha_sweep(noisy, config, alphas, grid=grid, workers=workers)
        expected = [
            (a, grid_search(noisy, grid, base_config=replace(config, alpha=a)).best().accuracy)
            for a in alphas
        ]
        assert rows == expected

    def test_one_plan_for_the_whole_sweep(self, separable, monkeypatch):
        calls = []
        original = evaluation.build_plan

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(evaluation, "build_plan", counting)
        alpha_sweep(separable, GrmlrConfig(), [0.0, 0.5, 1.0], grid={"lambda_g": [0.0, 5.0]})
        assert len(calls) == 1

    def test_no_alphas_no_rows(self, separable):
        assert alpha_sweep(separable, GrmlrConfig(), []) == []

    def test_alpha_axis_of_the_grid_is_overridden(self, separable):
        grid = {"lambda_g": [0.0, 5.0]}
        rows = alpha_sweep(separable, GrmlrConfig(), [0.0, 1.0], grid={**grid, "alpha": [0.2]})
        assert rows == alpha_sweep(separable, GrmlrConfig(), [0.0, 1.0], grid=grid)
        assert [a for a, _ in rows] == [0.0, 1.0]

    def test_alpha_outside_unit_interval(self, separable):
        with pytest.raises(InvalidValue, match=r"alpha values must lie in \[0, 1\], got 1.5"):
            alpha_sweep(separable, GrmlrConfig(), [0.0, 1.5], grid={"lambda_g": [0.0]})


class TestCoefficientRanking:
    def test_zero_models_tie_broken_by_taxa_order(self):
        m = GrmlrModel(
            weights=np.zeros((3, 4)),
            bias=np.zeros(3),
            taxa_names=["a", "b", "c", "d"],
            label_set=("juvenile", "adult", "dead"),
            hyperparams=GrmlrConfig(),
        )
        ranking = coefficient_ranking([m])
        assert ranking == [("a", 0.0), ("b", 0.0), ("c", 0.0), ("d", 0.0)]

    def test_pythagorean_column(self):
        W = np.zeros((3, 2))
        W[:, 1] = [3.0, 4.0, 0.0]
        m = GrmlrModel(
            weights=W,
            bias=np.zeros(3),
            taxa_names=["a", "b"],
            label_set=("juvenile", "adult", "dead"),
            hyperparams=GrmlrConfig(),
        )
        assert coefficient_ranking([m]) == [("b", 5.0), ("a", 0.0)]

    def test_mean_over_models(self):
        def make(scale):
            return GrmlrModel(
                weights=np.full((3, 2), scale),
                bias=np.zeros(3),
                taxa_names=["a", "b"],
                label_set=("juvenile", "adult", "dead"),
                hyperparams=GrmlrConfig(),
            )

        ranking = coefficient_ranking([make(1.0), make(3.0)])
        expected = (np.sqrt(3.0) + 3 * np.sqrt(3.0)) / 2
        assert ranking[0][1] == pytest.approx(expected)


class TestReportFiles:
    def test_eval_report_schema(self, tmp_path, separable):
        report = loocv(separable, GrmlrConfig())
        path = tmp_path / "report.json"
        write_eval_report(report, path)
        import json

        payload = json.loads(path.read_text())
        assert payload["metrics"]["accuracy"] == report.accuracy
        assert len(payload["per_fold"]) == 9
        assert payload["config"]["alpha"] == 0.1

    def test_grid_csv_rows(self, tmp_path, separable):
        result = grid_search(separable, SMALL_GRID)
        path = tmp_path / "grid.csv"
        write_grid_csv(result, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(result.entries)
        assert lines[0].startswith("rank,index,accuracy,macro_f1,error,")
