"""Harness: LOOCV, metrics, permutation machinery, grid, ablations, sweep."""

import gc
import hashlib
import itertools
import os
import re
import tracemalloc
import warnings
import weakref
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grmlr import ecograph, evaluation, model, rankstats
from grmlr.compositional import clr_transform
from grmlr.dataset import (
    AbundanceMatrix,
    Dataset,
    MacrofaunaCounts,
    StageLabels,
    _write_json,
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
    TooFewSamples,
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
    write_grid_csv,
)
from grmlr.ecograph import (
    _fused,
    a_co_from_correlations,
    a_macro_from_profiles,
    build_graph,
    compute_co_correlations,
    compute_macro_profiles,
)
from grmlr.model import (
    GrmlrConfig,
    GrmlrModel,
    _sample_weights,
    build_features,
    class_balanced_weights,
    fit,
    load_model,
    loss,
    save_model,
)
from grmlr.rankstats import spearman_cross, spearman_matrix

from datasets import relabeled, subset

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
def one_dead_site():
    """5 sites, one of them the only 'dead' one, so the fold holding it out is skipped."""
    rng = np.random.default_rng(0)
    raw = rng.uniform(0.1, 1.0, size=(5, 4))
    ab = AbundanceMatrix(
        [f"s{i}" for i in range(5)],
        ["a", "b", "c", "d"],
        raw / raw.sum(1, keepdims=True),
    )
    labels = StageLabels(list(ab.site_ids), ["juvenile", "juvenile", "adult", "adult", "dead"])
    return Dataset(ab, None, labels)


@pytest.fixture
def graph_builds(monkeypatch):
    """Counts of A_macro, A_co and Laplacian fold slices built and of blake2b digests.

    A stacked build of b folds' parts counts b slices.
    """
    counts = {"a_macro_from_profiles": 0, "a_co_from_correlations": 0, "laplacian_of": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[name] += len(result) if getattr(result, "ndim", 2) == 3 else 1  # blake2b: 1
            return result

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

    def test_degenerate_fold_skipped_and_flagged(self, one_dead_site):
        report = loocv(one_dead_site, GrmlrConfig(alpha=0.0))
        assert report.skipped_folds == ["s4"]
        assert len(report.per_fold) == 4
        assert 0.0 <= report.accuracy <= 1.0

    def test_batch_evaluator_skips_the_degenerate_fold_as_loocv_does(self, one_dead_site):
        config = GrmlrConfig(alpha=0.0)
        direct = loocv(one_dead_site, config)
        (entry,) = grid_search(one_dead_site, {"alpha": [0.0]}, base_config=config).entries
        assert (entry.accuracy, entry.macro_f1) == (direct.accuracy, direct.macro_f1)
        observed = permutation_test(one_dead_site, config, B=2, seed=0).observed_accuracy
        assert observed == direct.accuracy

    def test_fold_models_keep_solver_diagnostics(self, noisy):
        config = GrmlrConfig()
        report = loocv(noisy, config, keep_models=True)
        assert len(report.fold_models) == noisy.n_sites
        for i, model in enumerate(report.fold_models):
            assert model.converged and model.n_iterations >= 1
            fold = subset(noisy, [j for j in range(noisy.n_sites) if j != i])
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
            model, _ = fit(subset(synth_dataset, [j for j in range(n) if j != i]), config)
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
            accs.append(loocv(relabeled(ds, shuffled), GrmlrConfig(lambda_g=0.0)).accuracy)
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
            permuted = relabeled(separable, [labels[i] for i in perm])
            assert accuracy == loocv(permuted, config).accuracy

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
            (plan.features[train].tobytes(), y[train].tobytes())
            for y in labels
            for train in plan.train
        }
        assert len(fitted) == len(set(fitted)) == len(problems)
        assert set(fitted) == problems
        assert len(calls) < len(problems)

    def test_fits_follow_task_major_fold_order(self, separable, monkeypatch):
        # one config is one graph group: its tasks queue their new fits in turn, in fold order
        fitted = []
        original = evaluation._fit_batch

        def recording(Z, y, *args):
            fitted.extend((z.tobytes(), labels.tobytes()) for z, labels in zip(Z, y))
            return original(Z, y, *args)

        monkeypatch.setattr(evaluation, "_fit_batch", recording)
        permutation_test(separable, GrmlrConfig(), B=4, seed=5)
        plan = build_plan(separable, GrmlrConfig().epsilon)
        rng = substream(5, "permutation")
        labels = [plan.y] + [plan.y[rng.permutation(9)] for _ in range(4)]
        problems = [(plan.features[t].tobytes(), y[t].tobytes()) for y in labels for t in plan.train]
        assert fitted == list(dict.fromkeys(problems))

    def test_numpy_integer_seed_is_its_value(self, separable):
        # np.int64 cannot hold the 2**63 that the seed is reduced by
        a = permutation_test(separable, GrmlrConfig(), B=4, seed=np.int64(5))
        b = permutation_test(separable, GrmlrConfig(), B=4, seed=5)
        assert a.to_dict() == b.to_dict()

    # "one-fold-blocks" builds the graphs a fold at a time, each block correlated once
    @pytest.mark.parametrize("blocks", ["default", "one-fold-blocks"])
    def test_each_fold_graph_built_and_digested_once(
        self, separable, graph_builds, monkeypatch, blocks
    ):
        n, p = separable.n_sites, separable.n_taxa
        if blocks == "one-fold-blocks":
            monkeypatch.setattr(evaluation, "_STACK_BYTES", 5 * 8 * p * p)
        # no graph depends on the labels, so B = 8 permutations share the observed ones
        permutation_test(separable, GrmlrConfig(), B=8, seed=5)
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
            train = subset(separable, [j for j in range(separable.n_sites) if j != i])
            features = clr_transform(train.abundances, epsilon)
            profiles = compute_macro_profiles(features, train.macrofauna)
            co = {"train": compute_co_correlations(features), "all": co_all}
            for alpha, lambda_g, scope, tau, gamma in itertools.product(
                *self.GRAPH_GRID.values()
            ):
                laplacian = _fused(
                    a_macro_from_profiles(profiles, tau),
                    a_co_from_correlations(co[scope], gamma),
                    alpha,
                    features.taxa_names,
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

    def test_equal_alphas_of_two_types_share_one_graph(self, separable, fitted_problems):
        # the config stores a float32 alpha as the float of its value
        alphas = [np.float32(0.1), float(np.float32(0.1))]
        result = grid_search(separable, {"alpha": alphas, "lambda_g": [5.0]})
        plan = build_plan(separable, GrmlrConfig().epsilon)
        co_train, profiles = evaluation._fold_correlations(plan, slice(None), "train")
        expected = [
            (plan.features[train].tobytes(), 5.0, laplacian.tobytes())
            for train, laplacian in zip(
                plan.train,
                _fused(
                    a_macro_from_profiles(profiles, 0.7),
                    a_co_from_correlations(co_train, 0.9),
                    alphas[1],
                    plan.taxa_names,
                ).laplacian,
            )
        ]
        assert fitted_problems == expected  # one fit per fold, shared by both alphas
        first, second = sorted(result.entries, key=lambda e: e.index)
        assert type(first.config.alpha) is float and first.config == second.config
        assert (first.accuracy, first.macro_f1) == (second.accuracy, second.macro_f1)

    def test_one_graph_per_fold_and_alpha_and_none_at_lambda_g_zero(
        self, separable, graph_builds
    ):
        grid_search(separable, self.GRID)
        graphs = separable.n_sites * len(self.GRID["alpha"])  # one tau, one gamma and one scope
        # the block's parts dict keeps its A_macro and A_co, so the alphas only fuse them
        assert graph_builds["a_macro_from_profiles"] == separable.n_sites
        assert graph_builds["a_co_from_correlations"] == separable.n_sites
        assert graph_builds["laplacian_of"] == graphs

    def test_lambda_g_zero_tasks_share_one_zero_graph(self, separable, graph_builds):
        # whatever their scope, tau, gamma or alpha: one zero Laplacian, digested once
        grid_search(separable, {**self.GRAPH_GRID, "lambda_g": [0.0]})
        assert graph_builds == {
            "a_macro_from_profiles": 0,
            "a_co_from_correlations": 0,
            "laplacian_of": 0,
            "blake2b": 1,
        }

    def test_worker_count_invariance(self, separable):
        # 24 configs, of which those that differ only in alpha share fits at lambda_g = 0
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

    def test_plans_of_equal_epsilon_share_no_fit(self):
        # at lambda_g = 0 no graph digest tells a raw-feature plan's fold
        # fits from a CLR plan's: only the plan itself does
        ds = synthesize_dataset(n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=1.0, seed=0)
        config = replace(GrmlrConfig(), lambda_g=0.0)
        clr, raw = (build_plan(ds, config.epsilon, mode) for mode in ("clr", "raw"))
        outcomes = evaluation._loocv_tasks([(clr, config, clr.y), (raw, config, raw.y)], 1)
        direct = [loocv(ds, config, feature_mode=mode) for mode in ("clr", "raw")]
        assert outcomes == [(r.accuracy, r.macro_f1) for r in direct]
        assert outcomes[0] != outcomes[1]

    def test_int_and_numpy_scalar_axis_values_are_accepted(self, separable):
        plain = grid_search(separable, {"lambda_g": [5.0, 0.0], "max_iters": [15000]})
        scalars = grid_search(
            separable, {"lambda_g": [5, np.float64(0.0)], "max_iters": [np.int64(15000)]}
        )
        assert [e.error for e in scalars.entries] == [None, None]
        assert self._outcomes(scalars) == self._outcomes(plain)

    # How each config field reaches _fold_fit_key, so that two configs share
    # a fold fit only when they fit the same problem. A new field must join
    # one class before this test passes.
    FIT_KEY_CLASSES = {
        "graph": ("tau", "gamma", "alpha", "co_occurrence_scope"),  # through graph.digest
        "plan": ("epsilon",),  # through the plan's identity
        "unread": ("seed",),  # read by no fit
        "solver": ("class_balanced", "lambda_l2", "lambda_g", "ftol", "gtol", "max_iters"),
    }
    OTHER_VALUES = {
        "epsilon": 1e-3,
        "tau": 0.3,
        "gamma": 0.5,
        "alpha": 0.9,
        "lambda_l2": 0.05,
        "lambda_g": 1.0,
        "ftol": 1e-10,
        "gtol": 1e-6,
        "max_iters": 50,
        "class_balanced": False,
        "co_occurrence_scope": "all",
        "seed": 7,
    }

    @staticmethod
    def _graph(plan, i, config):
        """Fold i's (Laplacian, blake2b digest) under ``config``, as the batch evaluator makes them."""
        laplacians = evaluation._fold_laplacians(plan, slice(i, i + 1), config, {})
        return evaluation._digested(laplacians)[0]

    @pytest.mark.parametrize("name", list(GrmlrConfig.__dataclass_fields__))
    def test_every_config_field_reaches_the_fold_fit_key(self, separable, name):
        kinds = [kind for kind, names in self.FIT_KEY_CLASSES.items() if name in names]
        assert len(kinds) == 1, f"config field {name!r} is in {len(kinds)} classes, not one"
        (kind,) = kinds
        config = GrmlrConfig()
        other = replace(config, **{name: self.OTHER_VALUES[name]})
        plan = build_plan(separable, config.epsilon)
        laplacian, digest = self._graph(plan, 0, config)
        labels = plan.y.tobytes()
        key = evaluation._fold_fit_key(plan, 0, config, labels, digest)
        other_key = evaluation._fold_fit_key(plan, 0, other, labels, digest)
        if kind == "solver":
            assert other_key != key
            return
        assert other_key == key
        if kind == "graph":
            digests = [
                (self._graph(plan, i, config)[1], self._graph(plan, i, other)[1])
                for i in range(len(plan.y))
            ]
            assert any(a != b for a, b in digests)
        elif kind == "plan":
            other_plan = build_plan(separable, other.epsilon)
            assert not np.array_equal(other_plan.features, plan.features)
            assert evaluation._fold_fit_key(other_plan, 0, other, labels, digest) != key
        else:
            train = plan.train[0]
            K = len(plan.label_set)
            y = plan.y[train]
            stack = (
                plan.features[train][None],
                y[None],
                K,
                _sample_weights(y, K, config.class_balanced)[None],
                laplacian[None],
            )
            V, infos = evaluation._fit_batch(*stack, [config])
            other_V, other_infos = evaluation._fit_batch(*stack, [other])
            assert other_V.tobytes() == V.tobytes()
            assert other_infos == infos

    def test_graph_and_fit_keys_hold_their_plan(self, separable):
        # a fit key holds its plan, so a later plan cannot take the key over,
        # and the batch evaluator keeps no plan once it returns
        config = GrmlrConfig()
        plan = build_plan(separable, config.epsilon)
        evaluation._loocv_tasks([(plan, config, plan.y)], 1)
        _, digest = self._graph(plan, 0, config)
        key = evaluation._fold_fit_key(plan, 0, config, plan.y.tobytes(), digest)
        alive = weakref.ref(plan)
        del plan
        gc.collect()
        assert alive() is not None  # the fit key alone
        del key
        gc.collect()
        assert alive() is None


class TestFoldGraphBlocks:
    """_fold_laplacians builds the graph parts of a block of folds in one stacked pass."""

    @pytest.mark.parametrize(
        "with_macrofauna, alpha",
        [(True, 0.0), (True, 0.5), (True, 1.0), (False, 0.0)],  # alpha > 0 needs macrofauna
    )
    @pytest.mark.parametrize("scope", ["train", "all"])
    def test_each_fold_graph_equals_build_graph_on_its_training_sites(
        self, separable, with_macrofauna, scope, alpha
    ):
        if not with_macrofauna:
            separable = Dataset(separable.abundances, None, separable.stages)
        config = GrmlrConfig(alpha=alpha, co_occurrence_scope=scope)
        plan = build_plan(separable, config.epsilon)
        n = separable.n_sites
        together = evaluation._fold_laplacians(plan, slice(0, n), config, {})
        every_site = clr_transform(separable.abundances, config.epsilon)
        whole = build_graph(every_site, separable.macrofauna, config.tau, config.gamma, alpha)
        for i in range(n):
            train = subset(separable, [j for j in range(n) if j != i])
            features = clr_transform(train.abundances, config.epsilon)
            expected = build_graph(features, train.macrofauna, config.tau, config.gamma, alpha)
            if scope == "all":  # A_co from every site's correlations
                expected = _fused(expected.a_macro, whole.a_co, alpha, plan.taxa_names)
            alone = evaluation._fold_laplacians(plan, slice(i, i + 1), config, {})[0]
            assert together[i].tobytes() == alone.tobytes() == expected.laplacian.tobytes(), i

    @staticmethod
    def _blocks_of(monkeypatch, folds, p):
        """Size graph blocks at ``folds`` folds of p taxa; None keeps the default budget.

        Fit stacks read ``model._STACK_BYTES``, so patching evaluation's name changes blocks alone.
        """
        if folds is not None:
            monkeypatch.setattr(evaluation, "_STACK_BYTES", folds * 5 * 8 * p * p)

    @pytest.mark.parametrize("block", [1, 3, None])  # None: every fold in one block
    def test_block_size_changes_no_byte(self, separable, fitted_problems, monkeypatch, block):
        grid = TestGridFitReuse.GRAPH_GRID
        unblocked = grid_search(separable, grid)
        reference = sorted(fitted_problems)
        fitted_problems.clear()
        blocks = []
        laplacian_of = ecograph.laplacian_of

        def recording(adjacency):
            blocks.append(len(adjacency))
            return laplacian_of(adjacency)

        monkeypatch.setattr(ecograph, "laplacian_of", recording)
        self._blocks_of(monkeypatch, block, separable.n_taxa)
        blocked = grid_search(separable, grid)
        assert max(blocks) == (separable.n_sites if block is None else block)
        assert sorted(fitted_problems) == reference  # the same problems, in block order
        outcomes = TestGridFitReuse._outcomes
        assert outcomes(blocked) == outcomes(unblocked)

    def test_block_size_and_workers_change_no_warning(self, separable, monkeypatch):
        # fits capped at two iterations warn; blocks and workers may reorder, not change, them
        grid = {**TestGridFitReuse.GRID, "tau": [0.5, 0.9], "max_iters": [2]}
        seen = {}
        for block, workers in itertools.product([1, 3, None], [1, 2]):
            with monkeypatch.context() as patch:
                self._blocks_of(patch, block, separable.n_taxa)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = grid_search(separable, grid, workers=workers)
            warned = sorted((w.category.__name__, str(w.message)) for w in caught)
            seen[block, workers] = (TestGridFitReuse._outcomes(result), warned)
        reference = seen[None, 1]
        assert reference[1] and all(w == "NonConvergenceWarning" for w, _ in reference[1])
        assert all(outcome == reference for outcome in seen.values())

    def test_loocv_builds_one_fold_at_a_time(self, separable, monkeypatch):
        # loocv keeps no graph, so a block of folds would only raise its peak memory
        shapes = []
        laplacian_of = ecograph.laplacian_of

        def recording(adjacency):
            shapes.append(adjacency.shape)
            return laplacian_of(adjacency)

        monkeypatch.setattr(ecograph, "laplacian_of", recording)
        loocv(separable, GrmlrConfig())
        p = separable.n_taxa
        assert shapes == [(1, p, p)] * separable.n_sites

    def test_zero_graph_is_digested_once_per_block(self, separable, graph_builds, monkeypatch):
        # at lambda_g = 0 a block is one broadcast zero matrix, so one digest serves its folds
        zero = GrmlrConfig(lambda_g=0.0)
        n = separable.n_sites
        plan = build_plan(separable, zero.epsilon)
        graphs = evaluation._digested(evaluation._fold_laplacians(plan, slice(0, n), zero, {}))
        assert len(graphs) == n and len({digest for _, digest in graphs}) == 1
        assert graph_builds["blake2b"] == 1
        for block in (1, 3, None):
            graph_builds["blake2b"] = 0
            with monkeypatch.context() as patch:
                self._blocks_of(patch, block, separable.n_taxa)
                grid_search(separable, {**TestGridFitReuse.GRAPH_GRID, "lambda_g": [0.0]})
            assert graph_builds["blake2b"] == (1 if block is None else -(-n // block)), block

    def test_stress_batch_call_peaks_under_5_mb(self):
        # 40 x 160 builds one-fold blocks: 16-fold blocks peaked at about 20 MB
        ds = synthesize_dataset(n=40, p=160, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=0)
        tracemalloc.start()
        try:
            permutation_test(ds, GrmlrConfig(), B=1, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestFoldGraphMemo:
    """A block's graph parts are shared by its graph groups, through one parts dict; loocv's not."""

    PAPER_GRID = {
        "alpha": [0.0, 0.5, 1.0],
        "lambda_g": [0.0, 10.0],
        "lambda_l2": [0.02],
        "tau": [0.7],
        "gamma": [0.9],
    }

    @pytest.fixture
    def correlated(self, monkeypatch):
        """The fold blocks (start, stop) that _fold_correlations is called for."""
        blocks = []
        original = evaluation._fold_correlations

        def recording(plan, folds, scope):
            blocks.append((folds.start, folds.stop))
            return original(plan, folds, scope)

        monkeypatch.setattr(evaluation, "_fold_correlations", recording)
        return blocks

    @staticmethod
    def _without_memo(monkeypatch):
        original = evaluation._fold_laplacians
        monkeypatch.setattr(
            evaluation,
            "_fold_laplacians",
            lambda plan, folds, config, parts: original(plan, folds, config, {}),
        )

    def test_paper_grid_correlates_its_one_block_once(self, correlated, monkeypatch):
        ds = synthesize_dataset(n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=0)
        memoized = grid_search(ds, self.PAPER_GRID)
        assert correlated == [(0, 13)]  # three alphas at lambda_g = 10 share the block
        correlated.clear()
        self._without_memo(monkeypatch)
        unmemoized = grid_search(ds, self.PAPER_GRID)
        assert correlated == [(0, 13)] * 3
        outcomes = TestGridFitReuse._outcomes
        assert outcomes(memoized) == outcomes(unmemoized)

    def test_stress_alpha_grid_correlates_each_block_once(self, correlated):
        # 40 x 160: one-fold blocks, each correlated once for all three alphas
        ds = synthesize_dataset(n=40, p=160, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=0)
        grid_search(ds, {"alpha": [0.0, 0.5, 1.0], "lambda_g": [10.0]})
        assert correlated == [(i, i + 1) for i in range(40)]

    def test_graph_grid_matches_a_run_without_memo(self, separable, fitted_problems, monkeypatch):
        # scopes, taus and gammas in turn: the parts dict re-thresholds or re-correlates as it must
        memoized = grid_search(separable, TestGridFitReuse.GRAPH_GRID)
        reference = list(fitted_problems)
        fitted_problems.clear()
        self._without_memo(monkeypatch)
        unmemoized = grid_search(separable, TestGridFitReuse.GRAPH_GRID)
        assert fitted_problems == reference
        outcomes = TestGridFitReuse._outcomes
        assert outcomes(memoized) == outcomes(unmemoized)

    def test_loocv_and_ablate_create_no_memo(self, separable, monkeypatch):
        # loocv builds each fold's graph alone, so each call gets a fresh, empty parts dict
        parts, empty = [], []
        original = evaluation._fold_laplacians

        def recording(plan, folds, config, shared):
            parts.append(shared)  # kept, so no two dicts share an id
            empty.append(not shared)
            return original(plan, folds, config, shared)

        monkeypatch.setattr(evaluation, "_fold_laplacians", recording)
        loocv(separable, GrmlrConfig())
        ablate(separable, GrmlrConfig())
        assert parts and all(empty)
        assert len({id(d) for d in parts}) == len(parts)

    def test_lambda_g_zero_correlates_and_builds_nothing(
        self, separable, graph_builds, correlated, monkeypatch
    ):
        # _fold_laplacians alone decides that lambda_g = 0 needs no graph,
        # for loocv, ablate's no_graph arm and the batch evaluator alike
        zero = GrmlrConfig(lambda_g=0.0)
        p = separable.n_taxa
        parts = {}
        plan = build_plan(separable, zero.epsilon)
        laplacians = evaluation._fold_laplacians(plan, slice(2, 6), zero, parts)
        assert laplacians.shape == (4, p, p) and laplacians.strides[0] == 0
        assert not laplacians.any() and not laplacians.flags.writeable and parts == {}
        loocv(separable, zero)
        grid_search(separable, {**TestGridFitReuse.GRAPH_GRID, "lambda_g": [0.0]})
        permutation_test(separable, zero, B=2, seed=0)
        built = {name: graph_builds[name] for name in graph_builds if name != "blake2b"}
        assert correlated == [] and set(built.values()) == {0}
        arms = []

        def arm(dataset, config, **kwargs):
            before = (len(correlated), dict(graph_builds))
            report = loocv(dataset, config, **kwargs)
            arms.append((config.lambda_g, (len(correlated), dict(graph_builds)) != before))
            return report

        monkeypatch.setattr(evaluation, "loocv", arm)
        ablate(separable, GrmlrConfig())
        assert arms == [(0.0, False), (5.0, True), (5.0, True), (5.0, True)]


class TestFitStacks:
    """The batch evaluator's stacks, sized by the form each problem is solved in."""

    def test_a_paper_scale_grid_is_one_stack(self, monkeypatch):
        # 6 configs at 13 x 26: 52 distinct kernel-form fold problems, 56 to a stack
        data = synthesize_dataset(n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=0)
        grid = {"alpha": [0.0, 0.5, 1.0], "lambda_g": [0.0, 10.0]}
        sizes = []
        fit_batch = evaluation._fit_batch

        def counting(Z, *args):
            sizes.append(len(Z))
            return fit_batch(Z, *args)

        monkeypatch.setattr(evaluation, "_fit_batch", counting)
        grid_search(data, grid)
        assert sizes == [4 * 13]

    def test_no_newton_stack_outgrows_the_budget_in_either_form(self, monkeypatch):
        # at 40 x 160 lambda_l2 = 1e-9 is too weak for kernel form, so the
        # evaluator's stacks of two kernel problems hold two feature-space ones.
        # Graphs are built a fold at a time, and each fold's two weak fits
        # (max_iters 2 and 3) queue before its two firm ones
        data = synthesize_dataset(n=40, p=160, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=0)
        newton, stacks = model._newton, []

        def recording(Z, y, K, s, laplacian, *args, to_weights=None):
            B, _, m = Z.shape
            p = m if to_weights is None else to_weights.shape[2] - 1
            nbytes = B * 8 * ((K - 1) ** 2 * (m + 1) ** 2 + p * p)
            stacks.append((to_weights is not None, B, nbytes))
            return newton(Z, y, K, s, laplacian, *args, to_weights=to_weights)

        batches = []
        fit_batch = evaluation._fit_batch

        def counting(Z, *args):
            batches.append(len(Z))
            return fit_batch(Z, *args)

        monkeypatch.setattr(model, "_newton", recording)
        monkeypatch.setattr(evaluation, "_fit_batch", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergenceWarning)
            grid_search(data, {"lambda_l2": [1e-9, 0.02], "max_iters": [2, 3]})
        assert batches == [2] * 80
        kernel = [B for in_kernel, B, _ in stacks if in_kernel]
        feature = [B for in_kernel, B, _ in stacks if not in_kernel]
        assert sum(kernel) == sum(feature) == 80
        assert max(kernel) == 2 and max(feature) == 1
        assert all(nbytes <= model._STACK_BYTES or B == 1 for _, B, nbytes in stacks)


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


class _Deferred:
    """A future whose call runs only when its result is first asked for."""

    def __init__(self, executor, fn, args):
        self.executor, self.call, self.value = executor, (fn, args), None

    def result(self):
        if self.call is not None:
            fn, args = self.call
            self.call, self.value = None, fn(*args)
            self.executor.waiting -= 1
        return self.value


class _DeferringExecutor(_InlineExecutor):
    """Stands in for ProcessPoolExecutor: no call runs before its result is asked for.

    ``peaks`` records, after each submit, how many submitted calls wait unsettled.
    """

    peaks: list = []

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.waiting = 0

    def submit(self, fn, *args):
        self.waiting += 1
        self.peaks.append(self.waiting)
        return _Deferred(self, fn, args)


# GRID_EDGE of tools/golden_hashes.py: failed entries (lambda_l2 = 0), a weak
# ridge and fits capped at two iterations, which warn
GRID_EDGE = {
    "lambda_l2": [0.0, 1e-9, 0.02],
    "max_iters": [2, 15000],
    "lambda_g": [0.0, 5.0],
    "alpha": [0.0, 1.0],
    "class_balanced": [True, False],
}


class TestPool:
    GRID = {"alpha": [0.0, 0.5], "lambda_g": [0.0, 5.0]}  # 4 configs

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        monkeypatch.setattr(_InlineExecutor, "sizes", [])
        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", _InlineExecutor)
        return _InlineExecutor.sizes

    @pytest.fixture
    def small_stacks(self, monkeypatch):
        """A tenth of the stack budget: 16 fold problems at 9 x 12, so GRID makes two stacks."""
        monkeypatch.setattr(model, "_STACK_BYTES", model._STACK_BYTES // 10)

    @staticmethod
    def _outcomes(result):
        return [(e.index, e.accuracy, e.macro_f1, e.error) for e in result.entries]

    @pytest.mark.parametrize(
        "workers, cpus, size", [(64, 8, 4), (3, 8, 3), (64, 2, 2), (2, 1, None), (1, 8, None)]
    )
    def test_pool_is_capped_by_tasks_and_usable_cpus(
        self, separable, monkeypatch, pool_sizes, small_stacks, workers, cpus, size
    ):
        serial = grid_search(separable, self.GRID)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        result = grid_search(separable, self.GRID, workers=workers)
        assert pool_sizes == ([] if size is None else [size])  # None: no pool, run serially
        assert self._outcomes(result) == self._outcomes(serial)

    def test_cpu_count_where_affinity_is_missing(
        self, separable, monkeypatch, pool_sizes, small_stacks
    ):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        grid_search(separable, self.GRID, workers=64)
        assert pool_sizes == [3]

    def test_permutation_pool_is_capped_by_tasks(
        self, separable, monkeypatch, pool_sizes, small_stacks
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        report = permutation_test(separable, GrmlrConfig(), B=2, seed=5, workers=64)
        assert pool_sizes == [3]  # the observed labels and B = 2 permutations
        serial = permutation_test(separable, GrmlrConfig(), B=2, seed=5)
        assert report.to_dict() == serial.to_dict()

    def test_pool_warns_as_serial(self, monkeypatch):
        # configs that share a fold fit lie far apart in the task list, so a
        # pool that split the tasks among workers would fit and warn twice
        data = synthesize_dataset(n=9, p=8, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=7)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        seen, outcomes = {}, {}
        for workers in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outcomes[workers] = self._outcomes(grid_search(data, GRID_EDGE, workers=workers))
            seen[workers] = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
        assert seen[1] and all(cat is NonConvergenceWarning for cat, *_ in seen[1])
        assert seen[2] == seen[1]
        assert repr(outcomes[2]) == repr(outcomes[1])  # failed entries' NaNs included

    def test_every_worker_count_fits_each_distinct_problem_once(
        self, separable, monkeypatch, pool_sizes, small_stacks
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        fit_batch, fit_key = evaluation._fit_batch, evaluation._fold_fit_key
        fitted, keys = [], set()

        def counting(Z, *args):
            fitted.append(len(Z))
            return fit_batch(Z, *args)

        def recording(*args):
            key = fit_key(*args)
            keys.add(key)
            return key

        monkeypatch.setattr(evaluation, "_fit_batch", counting)
        monkeypatch.setattr(evaluation, "_fold_fit_key", recording)
        counts = {}
        for workers in (1, 4):
            fitted.clear()
            keys.clear()
            grid_search(separable, self.GRID, workers=workers)
            counts[workers] = (sum(fitted), len(keys))
        assert pool_sizes == [4]
        assert counts[4] == counts[1]
        assert counts[1][0] == counts[1][1] == 3 * separable.n_sites  # alphas share at lambda_g = 0

    def test_unsettled_stacks_stay_within_twice_the_pool_size(self, monkeypatch):
        monkeypatch.setattr(_DeferringExecutor, "sizes", [])
        monkeypatch.setattr(_DeferringExecutor, "peaks", [])
        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", _DeferringExecutor)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        # a quarter of the budget: 14 fold problems a stack at 13 x 26, so about 20 stacks
        monkeypatch.setattr(model, "_STACK_BYTES", model._STACK_BYTES // 4)
        data = synthesize_dataset(n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=0)
        report = permutation_test(data, GrmlrConfig(), B=20, seed=1, workers=2)
        assert _DeferringExecutor.sizes == [2]
        assert len(_DeferringExecutor.peaks) > 4  # more stacks than may wait at once
        assert max(_DeferringExecutor.peaks) == 2 * 2
        serial = permutation_test(data, GrmlrConfig(), B=20, seed=1)
        assert report.to_dict() == serial.to_dict()

    @pytest.mark.parametrize(
        "call",
        [
            lambda ds, workers: grid_search(ds, TestPool.GRID, workers=workers),
            lambda ds, workers: permutation_test(ds, GrmlrConfig(), B=2, seed=5, workers=workers),
        ],
        ids=["grid_search", "permutation_test"],
    )
    def test_a_call_of_one_stack_fits_it_inline(self, separable, monkeypatch, pool_sizes, call):
        # a pool cannot split one stack, so a call whose only stack is the last starts none
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        fitted = []
        fit_batch = evaluation._fit_batch

        def counting(*args):
            fitted.append(1)
            return fit_batch(*args)

        monkeypatch.setattr(evaluation, "_fit_batch", counting)
        pooled = call(separable, 4)
        assert fitted == [1]
        assert pool_sizes == []
        assert repr(pooled) == repr(call(separable, 1))

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
            alpha_sweep(separable, GrmlrConfig(), [], {"lambda_g": [0.0]}, workers=workers)
        assert pool_sizes == []

    @pytest.mark.parametrize("B", [2.0, True, "2"])
    def test_permutation_count_not_an_integer_rejected(self, separable, B):
        with pytest.raises(InvalidValue, match=f"B must be an integer, got {B!r}"):
            permutation_test(separable, GrmlrConfig(), B=B, seed=0)

    def test_numpy_integers_are_counts(self, separable):
        report = permutation_test(separable, GrmlrConfig(), B=np.int64(2), seed=5, workers=np.int32(1))
        assert report.to_dict() == permutation_test(separable, GrmlrConfig(), B=2, seed=5).to_dict()


# A ridge that rounding loses against the data, lambda_l2 = 0 included
NEGLIGIBLE_RIDGES = (0.0, 1e-300, 1e-20)


def _negligible_message(lambda_l2: float) -> str:
    return re.escape(f"lambda_l2={lambda_l2!r} is lost to rounding on this fit")


class TestNegligibleRidge:
    """A ridge below rounding fails every fit with InvalidValue; nothing solves without one."""

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
    def test_loocv_rejects_the_ridge(self, shape, seed, lambda_g, alpha, lambda_l2):
        n, p = shape
        ds = synthesize_dataset(n=n, p=p, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=seed)
        config = GrmlrConfig(lambda_g=lambda_g, alpha=alpha, lambda_l2=lambda_l2)
        with pytest.raises(InvalidValue, match=_negligible_message(lambda_l2)):
            loocv(ds, config)

    @pytest.mark.parametrize("lambda_l2", NEGLIGIBLE_RIDGES)
    @pytest.mark.parametrize(
        "entry",
        [
            lambda ds, cfg: fit(ds, cfg),
            lambda ds, cfg: loocv(ds, cfg),
            lambda ds, cfg: ablate(ds, cfg),
            lambda ds, cfg: permutation_test(ds, cfg, B=3, seed=0),
            lambda ds, cfg: permutation_test(ds, cfg, B=3, seed=0, workers=2),
        ],
        ids=["fit", "loocv", "ablate", "permutation_test", "permutation_test-workers2"],
    )
    def test_every_entry_point_rejects_the_ridge(self, separable, entry, lambda_l2):
        with pytest.raises(InvalidValue, match=_negligible_message(lambda_l2)):
            entry(separable, GrmlrConfig(lambda_l2=lambda_l2))

    def test_a_permutation_can_lose_the_ridge_alone(self):
        # class-balanced weights move the data's scale with the labels:
        # 1.1e-14 is lost on folds of permuted labels, not on the observed ones
        ds = synthesize_dataset(n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=0)
        config = GrmlrConfig(lambda_l2=1.1e-14, lambda_g=0.0)
        assert loocv(ds, config).accuracy == 1.0
        with pytest.raises(InvalidValue, match=_negligible_message(1.1e-14)):
            permutation_test(ds, config, B=3, seed=0)

    def test_grid_search_keeps_every_entry(self):
        ds = synthesize_dataset(n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=0)
        grid = {"lambda_l2": [0.0, 1e-20, 0.02], "alpha": [1.0]}
        alone = grid_search(ds, {"lambda_l2": [0.02], "alpha": [1.0]}).entries[0]
        for workers in (1, 2):
            entries = sorted(grid_search(ds, grid, workers=workers).entries, key=lambda e: e.index)
            assert len(entries) == 3
            for entry, lambda_l2 in zip(entries[:2], grid["lambda_l2"]):
                assert np.isnan(entry.accuracy) and np.isnan(entry.macro_f1)
                assert re.match("InvalidValue: " + _negligible_message(lambda_l2), entry.error)
            ridge = entries[2]
            assert (ridge.config, ridge.accuracy, ridge.macro_f1, ridge.error) == (
                alone.config, alone.accuracy, alone.macro_f1, None
            )


class TestMissingStage:
    @pytest.fixture
    def no_dead(self, separable):
        return relabeled(
            separable, ["adult" if lab == "dead" else lab for lab in separable.stages.labels]
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
        only_juvenile = relabeled(separable, ["juvenile"] * separable.n_sites)
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
        lambda ds: loocv(subset(ds, [0, 1, 2]), GrmlrConfig()),
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
    "grid-scalar-axis": (
        lambda ds: grid_search(ds, {"alpha": 0.5}),
        InvalidValue,
        "grid axis 'alpha' is not a list or tuple",
    ),
    "grid-zero-axis": (
        lambda ds: grid_search(ds, {"alpha": 0.0}),
        InvalidValue,
        "grid axis 'alpha' is not a list or tuple",
    ),
    "grid-array-axis": (
        lambda ds: grid_search(ds, {"alpha": np.array([0.0, 1.0])}),
        InvalidValue,
        "grid axis 'alpha' is not a list or tuple",
    ),
    "sweep-string-alpha": (
        lambda ds: alpha_sweep(ds, GrmlrConfig(), ["0.5"], grid={"lambda_g": [0.0]}),
        InvalidValue,
        "alpha values must be real numbers, got '0.5'",
    ),
    **{
        f"permtest-seed-{name}": (
            lambda ds, seed=seed: permutation_test(ds, GrmlrConfig(), B=2, seed=seed),
            InvalidValue,
            f"seed must be an integer, got {seed!r}",
        )
        for name, seed in [("float", 1.5), ("none", None), ("bool", True)]
    },
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
        assert alpha_sweep(separable, GrmlrConfig(), [], {"lambda_g": [0.0]}) == []

    def test_an_array_of_alphas_gives_the_rows_of_the_equal_list(self, separable):
        grid = {"lambda_g": [0.0, 5.0]}
        rows = alpha_sweep(separable, GrmlrConfig(), np.array([0.0, 1.0]), grid)
        assert rows == alpha_sweep(separable, GrmlrConfig(), [0.0, 1.0], grid)
        assert alpha_sweep(separable, GrmlrConfig(), np.array([]), grid) == []

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


class TestTooFewTrainingSites:
    """LOOCV folds of 3 sites would train on 2, too few for a graph."""

    @pytest.fixture
    def three_sites(self):
        return synthesize_dataset(n=3, p=6, K=2, n_blocks=2, coupling=0.9, noise=0.1, seed=0)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda ds: loocv(ds, GrmlrConfig()),
            lambda ds: grid_search(ds, {"alpha": [0.0, 0.1]}),
            lambda ds: permutation_test(ds, GrmlrConfig(), B=2, seed=0),
            lambda ds: ablate(ds, GrmlrConfig()),
        ],
        ids=["loocv", "grid_search", "permutation_test", "ablate"],
    )
    def test_raises_like_fit(self, three_sites, evaluate):
        with pytest.raises(TooFewSamples, match="needs at least 3 sites, LOOCV folds have 2"):
            evaluate(three_sites)
        with pytest.raises(TooFewSamples, match="needs at least 3 sites"):
            fit(subset(three_sites, [0, 1]), GrmlrConfig())


@st.composite
def tie_heavy_datasets(draw):
    """Small-integer tables: abundance rows drawn from a pool of three, with and
    without macrofauna; each table has an all-constant column and a column
    that is constant once one site is removed."""
    n = draw(st.integers(4, 12))
    p = draw(st.integers(3, 7))
    pool = draw(arrays(np.int64, (3, p), elements=st.integers(0, 3)))
    table = pool[draw(arrays(np.int64, n, elements=st.integers(0, 2)))]
    odd = draw(st.integers(0, n - 1))
    table[:, 1] = 2
    table[:, 2] = 1
    table[odd, 2] = 3
    total = 3 * (p - 1) + 1  # every row sums to this, so equal counts stay equal abundances
    table[:, 0] = total - table[:, 1:].sum(axis=1)
    sites = [f"s{i}" for i in range(n)]
    abundances = AbundanceMatrix(sites, [f"t{j}" for j in range(p)], table / total)
    labels = StageLabels(list(sites), [("juvenile", "adult", "dead")[i % 3] for i in range(n)])
    macrofauna = None
    if draw(st.booleans()):
        counts = draw(arrays(np.int64, (n, 4), elements=st.integers(0, 2)))
        counts[:, 0] = 1
        counts[:, 1] = 0
        counts[draw(st.integers(0, n - 1)), 1] = 5
        macrofauna = MacrofaunaCounts(list(sites), counts)
    return Dataset(abundances, macrofauna, labels)


class TestBuildPlan:
    @given(tie_heavy_datasets(), st.sampled_from(["clr", "raw"]), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_fold_correlations_equal_those_of_each_training_set(
        self, dataset, feature_mode, block
    ):
        plan = build_plan(dataset, 1e-6, feature_mode)
        Z = build_features(dataset, 1e-6, feature_mode).values
        assert plan.features.tobytes() == Z.tobytes()
        every_site = spearman_matrix(Z)
        n = dataset.n_sites
        counts = None if dataset.macrofauna is None else dataset.macrofauna.values
        assert plan.site_ids == dataset.abundances.site_ids
        assert (plan.count_ranks is None) == (counts is None)
        one_by_one = [slice(i, i + 1) for i in range(n)]
        for folds in one_by_one + [slice(start, start + block) for start in range(0, n, block)]:
            co, profiles = evaluation._fold_correlations(plan, folds, "train")
            co_all, all_profiles = evaluation._fold_correlations(plan, folds, "all")
            assert (profiles is None) == (counts is None)
            assert len(co) == len(co_all) == len(range(n)[folds])
            for j, i in enumerate(range(n)[folds]):
                train = np.array([t for t in range(n) if t != i])
                assert plan.train[i].tobytes() == train.tobytes()
                assert co[j].tobytes() == spearman_matrix(Z[train]).tobytes()
                assert co_all[j].tobytes() == every_site.tobytes()
                if counts is not None:
                    cross = spearman_cross(Z[train], counts[train])
                    assert profiles[j].tobytes() == all_profiles[j].tobytes() == cross.tobytes()

    # scope 'all' reads the downdated feature ranks only for the macro-coupling profiles
    @pytest.mark.parametrize(
        "scope, with_macrofauna, downdates",
        [("all", False, 0), ("all", True, 2), ("train", False, 1), ("train", True, 2)],
    )
    def test_fold_correlations_downdate_only_ranks_they_read(
        self, monkeypatch, synth_dataset, scope, with_macrofauna, downdates
    ):
        if not with_macrofauna:
            synth_dataset = Dataset(synth_dataset.abundances, None, synth_dataset.stages)
        plan = build_plan(synth_dataset, 1e-6)
        calls = []
        original = evaluation._leave_one_out

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(evaluation, "_leave_one_out", counting)
        co, profiles = evaluation._fold_correlations(plan, slice(2, 7), scope)
        assert len(calls) == downdates
        assert (profiles is None) == (not with_macrofauna)
        for j, i in enumerate(range(2, 7)):
            train = plan.train[i]
            rows = plan.features if scope == "all" else plan.features[train]
            assert co[j].tobytes() == spearman_matrix(rows).tobytes()
            if with_macrofauna:
                cross = spearman_cross(plan.features[train], synth_dataset.macrofauna.values[train])
                assert profiles[j].tobytes() == cross.tobytes()

    @pytest.mark.parametrize("with_macrofauna", [True, False])
    def test_ranks_each_table_once(self, monkeypatch, synth_dataset, with_macrofauna):
        ranked = []
        original = rankstats.rank_matrix

        def counting(values):
            ranked.append(np.shape(values))
            return original(values)

        for module in (rankstats, evaluation):
            monkeypatch.setattr(module, "rank_matrix", counting, raising=False)
        if not with_macrofauna:
            synth_dataset = Dataset(synth_dataset.abundances, None, synth_dataset.stages)
        build_plan(synth_dataset, 1e-6)
        assert ranked == [(13, 26), (13, 4)][: 1 + with_macrofauna]

    def test_plan_holds_no_stack_of_fold_matrices(self):
        # no array of the plan is a stack of n fold matrices, p x p each,
        # and building it needs little beyond the plan itself
        dataset = synthesize_dataset(n=40, p=160, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=0)
        tracemalloc.start()
        try:
            plan = build_plan(dataset, 1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = [value for value in vars(plan).values() if isinstance(value, np.ndarray)]
        n, p, k = 40, 160, dataset.macrofauna.values.shape[1]
        assert [a.shape for a in held] == [(n, p), (n,), (n, n - 1), (n, p), (n, k)]
        assert peak - sum(a.nbytes for a in held) <= 3 * 2**20


class TestReportFiles:
    def test_numpy_scalar_config_writes_the_files_of_its_values(self, tmp_path, separable):
        numpy_scalars = GrmlrConfig(
            alpha=np.float32(0.1), lambda_g=np.float32(5), max_iters=np.int64(200), seed=np.int64(3)
        )
        builtins = GrmlrConfig(alpha=float(np.float32(0.1)), lambda_g=5.0, max_iters=200, seed=3)
        written = []
        for name, config in (("numpy", numpy_scalars), ("builtin", builtins)):
            out = tmp_path / name
            out.mkdir()
            _write_json(loocv(separable, config).to_dict(), out / "loocv.json")
            reports = ablate(separable, config)
            _write_json({name: rep.to_dict() for name, rep in reports.items()}, out / "ablate.json")
            model, _ = fit(separable, config)
            save_model(model, out / "model.json")
            assert load_model(out / "model.json").hyperparams == config
            files = ("loocv.json", "ablate.json", "model.json")
            written.append([(out / f).read_bytes() for f in files])
        assert written[0] == written[1]

    def test_eval_report_schema(self, tmp_path, separable):
        report = loocv(separable, GrmlrConfig())
        path = tmp_path / "report.json"
        _write_json(report.to_dict(), path)
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
