"""Harness: LOOCV, metrics, permutation machinery, grid, ablations, sweep."""

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from grmlr import evaluation
from grmlr.compositional import clr_transform
from grmlr.dataset import (
    AbundanceMatrix,
    Dataset,
    MacrofaunaCounts,
    StageLabels,
    synthesize_dataset,
)
from grmlr.errors import (
    InvalidValue,
    LengthMismatch,
    MissingLabels,
    NonConvergenceWarning,
    UnknownParameter,
)
from grmlr.evaluation import (
    EvalReport,
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
from grmlr.ecograph import build_graph
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
        # the permutation fast path shares the fold plan; a from-scratch
        # LOOCV on the relabeled dataset must agree exactly
        from grmlr.dataset import substream
        from grmlr.evaluation import _run_plan

        rng = substream(5, "permutation")
        perm = rng.permutation(9)
        plan = build_plan(separable, GrmlrConfig().epsilon)
        fast = _run_plan(plan, GrmlrConfig(), y=plan.y[perm])
        relabeled = separable.with_labels([separable.stages.labels[i] for i in perm])
        slow = loocv(relabeled, GrmlrConfig())
        assert fast.accuracy == slow.accuracy
        assert [f.predicted_label for f in fast.per_fold] == [
            f.predicted_label for f in slow.per_fold
        ]

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

    @staticmethod
    def _outcomes(result):
        return [(e.index, e.config, e.accuracy, e.macro_f1, e.error) for e in result.entries]

    def test_one_fit_per_distinct_fold_problem(self, separable, monkeypatch):
        calls = []
        original = evaluation._fit_stack

        def counting(Z, *args, **kwargs):
            calls.extend([1] * len(Z))  # one per fold problem in the stack
            return original(Z, *args, **kwargs)

        monkeypatch.setattr(evaluation, "_fit_stack", counting)
        result = grid_search(separable, self.GRID)
        base = GrmlrConfig()
        keys = set()
        for i in range(separable.n_sites):
            train = separable.subset([j for j in range(separable.n_sites) if j != i])
            features = clr_transform(train.abundances, base.epsilon)
            for alpha, lambda_g in itertools.product(*self.GRID.values()):
                graph = build_graph(features, train.macrofauna, base.tau, base.gamma, alpha)
                keys.add((i, lambda_g, graph.laplacian.tobytes() if lambda_g else None))
        assert len(keys) < 6 * separable.n_sites
        assert len(calls) == len(keys)
        for entry in result.entries:
            direct = loocv(separable, entry.config)
            assert (entry.accuracy, entry.macro_f1) == (direct.accuracy, direct.macro_f1)

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
