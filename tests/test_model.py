"""Classifier core: softmax, loss, gradient, fitting, prediction, I/O."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import grmlr
from grmlr.compositional import FeatureMatrix, clr_transform
from grmlr.dataset import StageLabels, synthesize_dataset
from grmlr.ecograph import _fused
from grmlr.errors import (
    EmptyClass,
    InvalidValue,
    LengthMismatch,
    Misalignment,
    MissingLabels,
    MissingMacrofauna,
    NonConvergenceWarning,
    TaxaMismatch,
)
from grmlr.evaluation import loocv
from grmlr.model import (
    GrmlrConfig,
    GrmlrModel,
    build_features,
    class_balanced_weights,
    fit,
    fit_arrays,
    load_model,
    loss,
    loss_gradient,
    predict,
    predict_proba,
    save_model,
)

from oracles import fit_plain_l2_mlr, loss_by_terms, trace_penalty_bruteforce


def _model(W, b, taxa=None, labels=("juvenile", "adult", "dead"), config=None, **kw):
    W = np.asarray(W, dtype=float)
    taxa = taxa or [f"t{j}" for j in range(W.shape[1])]
    return GrmlrModel(
        weights=W,
        bias=np.asarray(b, dtype=float),
        taxa_names=taxa,
        label_set=tuple(labels),
        hyperparams=config or GrmlrConfig(),
        **kw,
    )


def _features(values, taxa=None):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    return FeatureMatrix([f"s{i}" for i in range(n)], taxa or [f"t{j}" for j in range(p)], values)


def _random_instance(seed, n=5, p=4, K=3, lam_l2=0.03, lam_g=0.7):
    rng = np.random.default_rng(seed)
    feats = _features(rng.normal(size=(n, p)))
    label_set = ("juvenile", "adult", "dead")[:K]
    labels = StageLabels(
        [f"s{i}" for i in range(n)],
        [label_set[i % K] for i in range(n)],
        label_set,
    )
    a = np.abs(rng.normal(size=(p, p)))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    graph = _fused(a, np.zeros_like(a), alpha=1.0, taxa_names=list(feats.taxa_names))
    config = GrmlrConfig(lambda_l2=lam_l2, lambda_g=lam_g)
    model = _model(rng.normal(size=(K, p)), rng.normal(size=K), taxa=list(feats.taxa_names),
                   labels=label_set, config=config)
    s = rng.uniform(0.5, 2.0, size=n)
    return model, feats, labels, graph, s


class TestPredictProba:
    def test_zero_model_is_uniform(self):
        proba = predict_proba(_model(np.zeros((3, 4)), np.zeros(3)), _features(np.ones((5, 4))))
        assert np.allclose(proba, 1.0 / 3.0, atol=1e-15)

    def test_bias_domination_frozen(self):
        proba = predict_proba(
            _model(np.zeros((3, 2)), [10.0, 0.0, 0.0]), _features(np.zeros((1, 2)))
        )
        assert proba[0, 0] == pytest.approx(0.9999092083843410, abs=1e-12)
        assert proba[0, 1] == pytest.approx(4.5395807829510909e-05, abs=1e-12)
        assert proba[0, 2] == pytest.approx(4.5395807829510909e-05, abs=1e-12)

    def test_bias_shift_invariance(self):
        rng = np.random.default_rng(0)
        feats = _features(rng.normal(size=(6, 4)))
        W = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        base = predict_proba(_model(W, b), feats)
        shifted = predict_proba(_model(W, b + 17.3), feats)
        assert np.allclose(base, shifted, atol=1e-12)

    def test_rows_sum_to_one_and_interior(self):
        rng = np.random.default_rng(1)
        proba = predict_proba(
            _model(rng.normal(size=(3, 4)) * 3.0, rng.normal(size=3)),
            _features(rng.normal(size=(8, 4))),
        )
        assert np.abs(proba.sum(axis=1) - 1.0).max() < 1e-12
        assert np.all(proba > 0.0) and np.all(proba < 1.0)

    def test_overflow_safe_at_extreme_scores(self):
        rng = np.random.default_rng(1)
        # scores ~ +-1000 overflow exp without max subtraction
        proba = predict_proba(
            _model(rng.normal(size=(3, 4)) * 300.0, rng.normal(size=3)),
            _features(rng.normal(size=(8, 4))),
        )
        assert np.isfinite(proba).all()
        assert np.abs(proba.sum(axis=1) - 1.0).max() < 1e-12

    def test_taxa_mismatch(self):
        with pytest.raises(TaxaMismatch):
            predict_proba(
                _model(np.zeros((3, 2)), np.zeros(3), taxa=["a", "b"]),
                _features(np.zeros((1, 2)), taxa=["a", "c"]),
            )


class TestLoss:
    def test_zero_model_gives_log_k(self):
        model, feats, labels, graph, _ = _random_instance(2)
        zero = _model(
            np.zeros((3, 4)), np.zeros(3), taxa=list(feats.taxa_names),
            config=GrmlrConfig(lambda_l2=0.0, lambda_g=0.0),
        )
        got = loss(zero, feats, labels, graph, np.ones(5))
        assert got == pytest.approx(1.0986122886681098, abs=1e-12)

    def test_graph_term_vanishes_for_component_constant_columns(self):
        # two integer components; integer weights equal within components
        a = np.array(
            [
                [0, 1, 0, 0],
                [1, 0, 0, 0],
                [0, 0, 0, 1],
                [0, 0, 1, 0],
            ],
            dtype=float,
        )
        graph = _fused(a, np.zeros_like(a), alpha=1.0, taxa_names=["a", "b", "c", "d"])
        W = np.array([[2.0, 2.0, -1.0, -1.0], [0.0, 0.0, 3.0, 3.0], [1.0, 1.0, 1.0, 1.0]])
        assert float(np.trace(W @ graph.laplacian @ W.T)) == 0.0
        assert trace_penalty_bruteforce(W, graph.adjacency) == 0.0

    def test_matches_term_by_term_oracle(self):
        model, feats, labels, graph, s = _random_instance(3)
        got = loss(model, feats, labels, graph, s)
        expected = loss_by_terms(
            model.weights,
            model.bias,
            feats.values,
            labels.indices(),
            s,
            graph.laplacian,
            model.hyperparams.lambda_l2,
            model.hyperparams.lambda_g,
        )
        assert got == pytest.approx(expected, abs=1e-10)

    def test_misaligned_labels_rejected(self):
        model, feats, labels, graph, s = _random_instance(4)
        bad = StageLabels(
            list(reversed(labels.site_ids)), list(labels.labels), labels.label_set
        )
        with pytest.raises(Misalignment):
            loss(model, feats, bad, graph, s)


class TestGradient:
    def test_bias_gradient_zero_for_balanced_labels(self):
        model, feats, labels, graph, _ = _random_instance(5, n=6)
        zero = _model(
            np.zeros((3, 4)), np.zeros(3), taxa=list(feats.taxa_names),
            config=GrmlrConfig(lambda_l2=0.0, lambda_g=0.0),
        )
        _, gb = loss_gradient(zero, feats, labels, graph, np.ones(6))
        assert np.abs(gb).max() < 1e-12

    def test_l2_term_analytic(self):
        model, feats, labels, graph, s = _random_instance(6, lam_g=0.0)
        cfg0 = GrmlrConfig(lambda_l2=0.0, lambda_g=0.0)
        base = _model(model.weights, model.bias, taxa=list(feats.taxa_names), config=cfg0)
        g0, _ = loss_gradient(base, feats, labels, graph, s)
        g1, _ = loss_gradient(model, feats, labels, graph, s)
        assert np.allclose(g1 - g0, 2 * model.hyperparams.lambda_l2 * model.weights, atol=1e-12)

    def test_matches_finite_differences(self):
        model, feats, labels, graph, s = _random_instance(7)
        K, p = model.weights.shape
        h = 1e-6

        def f(theta):
            m = _model(
                theta[: K * p].reshape(K, p),
                theta[K * p :],
                taxa=list(feats.taxa_names),
                config=model.hyperparams,
            )
            return loss(m, feats, labels, graph, s)

        theta = np.concatenate([model.weights.ravel(), model.bias])
        gw, gb = loss_gradient(model, feats, labels, graph, s)
        analytic = np.concatenate([gw.ravel(), gb])
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[i] = h
            fd = (f(theta + e) - f(theta - e)) / (2 * h)
            denom = max(1e-8, abs(fd), abs(analytic[i]))
            assert abs(analytic[i] - fd) / denom < 1e-5


class TestClassBalancedWeights:
    def test_reference_counts(self):
        labels = StageLabels(
            [f"s{i}" for i in range(13)],
            ["juvenile"] * 3 + ["adult"] * 7 + ["dead"] * 3,
        )
        w = class_balanced_weights(labels)
        assert w[0] == pytest.approx(13 / 9)
        assert w[3] == pytest.approx(13 / 21)
        assert w.sum() == pytest.approx(13.0, abs=1e-12)

    def test_balanced_gives_ones(self):
        labels = StageLabels(["a", "b", "c"], ["juvenile", "adult", "dead"])
        assert np.allclose(class_balanced_weights(labels), 1.0)

    def test_empty_class_raises(self):
        labels = StageLabels(["a", "b", "c"], ["adult", "adult", "adult"])
        with pytest.raises(EmptyClass):
            class_balanced_weights(labels)


class TestFit:
    def test_separable_data_perfect_training_accuracy(self):
        ds = synthesize_dataset(n=12, p=12, K=3, n_blocks=3, coupling=0.9, noise=0.05, seed=1)
        config = GrmlrConfig(lambda_l2=0.02, lambda_g=0.0, alpha=0.0)
        model, _ = fit(ds, config)
        pred = predict(model, ds.abundances)
        assert pred.labels == ds.stages.labels

    def test_huge_graph_penalty_smooths_within_components(self):
        # two fully connected components; each component's column sums of
        # CLR features carry signal, so W keeps scale while within-component
        # differences are crushed
        ds = synthesize_dataset(n=12, p=8, K=3, n_blocks=2, coupling=0.9, noise=0.2, seed=3)
        p = 8
        a = np.zeros((p, p))
        a[:4, :4] = 1.0
        a[4:, 4:] = 1.0
        np.fill_diagonal(a, 0.0)
        feats = clr_transform(ds.abundances, 1e-6)
        from grmlr.model import fit_arrays

        config = GrmlrConfig(lambda_l2=0.001, lambda_g=1e6)
        graph = _fused(a, np.zeros_like(a), alpha=1.0, taxa_names=list(feats.taxa_names))
        W, b, _ = fit_arrays(
            feats.values, ds.stages.indices(), 3, np.ones(12), graph.laplacian, config
        )
        diffs = [
            np.linalg.norm(W[:, u] - W[:, v])
            for comp in (range(4), range(4, 8))
            for u in comp
            for v in comp
            if u < v
        ]
        assert max(diffs) < 1e-2 * np.linalg.norm(W)

    def test_huge_penalty_on_complete_graph_kills_graph_term(self):
        ds = synthesize_dataset(n=12, p=6, K=3, n_blocks=2, coupling=0.9, noise=0.2, seed=4)
        a = 1.0 - np.eye(6)
        feats = clr_transform(ds.abundances, 1e-6)
        from grmlr.model import fit_arrays

        config = GrmlrConfig(lambda_l2=0.02, lambda_g=1e6)
        graph = _fused(a, np.zeros_like(a), alpha=1.0, taxa_names=list(feats.taxa_names))
        W, _, _ = fit_arrays(
            feats.values, ds.stages.indices(), 3, np.ones(12), graph.laplacian, config
        )
        assert float(np.trace(W @ graph.laplacian @ W.T)) < 1e-10

    def test_alpha_zero_without_macrofauna_succeeds(self):
        ds = synthesize_dataset(n=9, p=8, K=3, n_blocks=2, coupling=0.5, noise=0.3, seed=5)
        from grmlr.dataset import Dataset

        stripped = Dataset(ds.abundances, None, ds.stages)
        model, graph = fit(stripped, GrmlrConfig(alpha=0.0))
        assert np.all(graph.a_macro == 0.0)
        assert model.converged

    def test_missing_labels(self, synth_dataset):
        from grmlr.dataset import Dataset

        unlabeled = Dataset(synth_dataset.abundances, synth_dataset.macrofauna, None)
        with pytest.raises(MissingLabels):
            fit(unlabeled, GrmlrConfig())

    def test_missing_macrofauna(self, synth_dataset):
        from grmlr.dataset import Dataset

        stripped = Dataset(synth_dataset.abundances, None, synth_dataset.stages)
        with pytest.raises(MissingMacrofauna):
            fit(stripped, GrmlrConfig(alpha=0.5))

    def test_nonconvergence_warns_not_fatal(self, synth_dataset):
        with pytest.warns(NonConvergenceWarning):
            model, _ = fit(synth_dataset, GrmlrConfig(max_iters=1))
        assert not model.converged

    def test_label_set_permutation_equivariance(self, synth_dataset):
        model, _ = fit(synth_dataset, GrmlrConfig())
        st = synth_dataset.stages
        permuted_set = ("dead", "juvenile", "adult")
        from grmlr.dataset import Dataset

        ds2 = Dataset(
            synth_dataset.abundances,
            synth_dataset.macrofauna,
            StageLabels(list(st.site_ids), list(st.labels), permuted_set),
        )
        model2, _ = fit(ds2, GrmlrConfig())
        perm = [permuted_set.index(lab) for lab in model.label_set]
        assert np.allclose(model2.weights[perm], model.weights, atol=1e-5)
        assert np.allclose(model2.bias[perm], model.bias, atol=1e-5)
        assert predict(model2, synth_dataset.abundances).labels == predict(
            model, synth_dataset.abundances
        ).labels


class TestNewtonSolver:
    @pytest.mark.parametrize("lam_l2", [1e-9, 0.02])
    @pytest.mark.parametrize("lam_g", [0.0, 5.0])
    def test_clr_all_ones_direction_stays_unused(self, synth_dataset, lam_l2, lam_g):
        # CLR rows and Laplacian rows sum to zero, so under a weak ridge any
        # w_k can move along the all-ones vector at almost no cost; the fit
        # must not, beyond rounding. The Newton systems resolve that
        # direction only to about eps lambda_g / lambda_l2 (7e-7 of max |W|
        # at lambda_l2 = 1e-9, lambda_g = 5; about 1e-14 at lambda_g = 0).
        config = GrmlrConfig(lambda_l2=lam_l2, lambda_g=lam_g)
        model, graph = fit(synth_dataset, config)
        W = model.weights
        rounding = 8 * np.finfo(float).eps * lam_g / lam_l2
        assert np.abs(W.sum(axis=1)).max() <= (1e-8 + rounding) * np.abs(W).max()
        feats = clr_transform(synth_dataset.abundances, config.epsilon)
        s = class_balanced_weights(synth_dataset.stages)
        assert loss(model, feats, synth_dataset.stages, graph, s) >= 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("lam_l2", [0.001, 0.02, 0.1])
    def test_no_worse_than_independent_lbfgs(self, seed, lam_l2):
        ds = synthesize_dataset(n=13, p=26, K=3, n_blocks=4, coupling=0.9, noise=0.4, seed=seed)
        feats = clr_transform(ds.abundances, 1e-6)
        y = ds.stages.indices()
        s = class_balanced_weights(ds.stages)
        config = GrmlrConfig(lambda_l2=lam_l2, lambda_g=0.0)
        _, _, info = fit_arrays(feats.values, y, 3, s, np.zeros((26, 26)), config)
        oracle = fit_plain_l2_mlr(feats.values, y, 3, s, lam_l2, config.ftol, config.gtol)
        assert info["final_loss"] <= oracle * (1 + 1e-9)

    def test_import_does_not_load_scipy(self):
        code = (
            "import grmlr, sys; "
            "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
        )
        env = dict(os.environ)
        src = str(Path(grmlr.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.parametrize("target", ["features", "weights"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_fit_arrays_rejects_non_finite_input(target, bad):
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(6, 4))
    s = np.ones(6)
    (Z[2] if target == "features" else s)[1] = bad
    y = np.arange(6) % 3
    with pytest.raises(InvalidValue):
        fit_arrays(Z, y, 3, s, np.zeros((4, 4)), GrmlrConfig())


class TestPredict:
    def test_bias_domination(self, synth_dataset):
        model = _model(
            np.zeros((3, 26)),
            [0.0, 100.0, 0.0],
            taxa=list(synth_dataset.abundances.taxa_names),
        )
        pred = predict(model, synth_dataset.abundances)
        assert pred.labels == ["adult"] * 13

    def test_exact_tie_breaks_to_lowest_index(self, synth_dataset):
        model = _model(np.zeros((3, 26)), np.zeros(3), taxa=list(synth_dataset.abundances.taxa_names))
        pred = predict(model, synth_dataset.abundances)
        assert pred.labels == ["juvenile"] * 13

    def test_consistent_with_predict_proba(self, synth_dataset):
        model, _ = fit(synth_dataset, GrmlrConfig())
        feats = clr_transform(synth_dataset.abundances, model.hyperparams.epsilon)
        proba = predict_proba(model, feats)
        pred = predict(model, synth_dataset.abundances)
        assert pred.labels == [model.label_set[i] for i in proba.argmax(axis=1)]

    def test_taxa_mismatch(self, synth_dataset):
        model = _model(np.zeros((3, 2)), np.zeros(3), taxa=["nope", "missing"])
        with pytest.raises(TaxaMismatch):
            predict(model, synth_dataset.abundances)


class TestSerialization:
    def test_roundtrip_bit_identical(self, tmp_path, synth_dataset):
        model, _ = fit(synth_dataset, GrmlrConfig())
        path = tmp_path / "model.grmlr"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.bias, model.bias)
        assert loaded.taxa_names == model.taxa_names
        assert loaded.label_set == model.label_set
        assert loaded.hyperparams == model.hyperparams
        assert loaded.feature_mode == model.feature_mode
        feats = clr_transform(synth_dataset.abundances, 1e-6)
        assert np.array_equal(predict_proba(loaded, feats), predict_proba(model, feats))

    def test_raw_feature_mode_survives(self, tmp_path, synth_dataset):
        report = loocv(synth_dataset, GrmlrConfig(), feature_mode="raw", keep_models=True)
        model = report.fold_models[0]
        path = tmp_path / "model.grmlr"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.feature_mode == "raw"
        assert predict(loaded, synth_dataset.abundances).labels == predict(
            model, synth_dataset.abundances
        ).labels

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}')
        from grmlr.errors import InvalidValue

        with pytest.raises(InvalidValue):
            load_model(path)

    @pytest.mark.parametrize("field", ["taxa_names", "label_set"])
    def test_rejects_duplicate_names(self, tmp_path, synth_dataset, field):
        model, _ = fit(synth_dataset, GrmlrConfig())
        path = tmp_path / "model.grmlr"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload[field][1] = payload[field][0]
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidValue, match="duplicate"):
            load_model(path)


FLOAT_FIELDS = ("epsilon", "lambda_l2", "lambda_g", "ftol", "gtol")


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_floats(name, bad):
    with pytest.raises(InvalidValue, match=f"{name} must be finite"):
        GrmlrConfig(**{name: bad})


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"epsilon": 0.0}, "epsilon must be > 0"),
        ({"tau": 1.5}, "tau must be in"),
        ({"gamma": -0.1}, "gamma must be in"),
        ({"alpha": float("nan")}, "alpha must be in"),
        ({"lambda_l2": -1.0}, "lambda_l2 must be >= 0"),
        ({"lambda_g": -1.0}, "lambda_g must be >= 0"),
        ({"ftol": 0.0}, "ftol and gtol must be > 0"),
        ({"gtol": -1e-9}, "ftol and gtol must be > 0"),
        ({"max_iters": 0}, "max_iters must be >= 1"),
        ({"co_occurrence_scope": "test"}, "co_occurrence_scope must be one of"),
    ],
)
def test_config_rejects_out_of_range_values(overrides, message):
    with pytest.raises(InvalidValue, match=message):
        GrmlrConfig(**overrides)
    with pytest.raises(InvalidValue, match=message):
        GrmlrConfig.from_dict({**GrmlrConfig().to_dict(), **overrides})


def test_config_from_dict_rejects_unknown_fields():
    with pytest.raises(InvalidValue, match=r"unknown config fields: \['nope'\]"):
        GrmlrConfig.from_dict({"nope": 1})


def test_config_from_dict_rejects_missing_fields():
    data = GrmlrConfig(epsilon=1e-3).to_dict()
    del data["epsilon"], data["seed"]
    with pytest.raises(InvalidValue, match=r"missing config fields: \['epsilon', 'seed'\]"):
        GrmlrConfig.from_dict(data)


@pytest.mark.parametrize(
    "name, bad",
    [
        ("max_iters", 2.5),
        ("max_iters", True),
        ("seed", "3"),
        ("lambda_g", True),
        ("epsilon", "1e-6"),
        ("class_balanced", "no"),
        ("class_balanced", 1),
        ("co_occurrence_scope", 1),
    ],
)
def test_config_rejects_wrongly_typed_fields(name, bad):
    with pytest.raises(InvalidValue, match=f"^{name} must be of type"):
        GrmlrConfig(**{name: bad})
    with pytest.raises(InvalidValue, match=f"^{name} must be of type"):
        GrmlrConfig.from_dict({**GrmlrConfig().to_dict(), name: bad})


def test_config_stores_numbers_as_builtins():
    config = GrmlrConfig(
        alpha=np.float32(0.1), lambda_g=np.int64(5), max_iters=np.int64(200), seed=np.uint8(3)
    )
    for spec in fields(config):
        assert type(getattr(config, spec.name)) is type(spec.default), spec.name
    assert config == GrmlrConfig(alpha=float(np.float32(0.1)), lambda_g=5.0, max_iters=200, seed=3)
    assert json.loads(json.dumps(config.to_dict())) == config.to_dict()


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_config_rejects_ints_beyond_float_range(name):
    with pytest.raises(InvalidValue, match=f"^{name} must be finite"):
        GrmlrConfig(**{name: 10**400})


@pytest.mark.parametrize("target", ["negative", "nan", "short"])
@pytest.mark.parametrize("function", [loss, loss_gradient])
def test_loss_checks_sample_weights(function, target):
    model, feats, labels, graph, s = _random_instance(5)
    if target == "negative":
        s = -np.ones_like(s)
    elif target == "nan":
        s[0] = float("nan")
    else:
        s = s[:-1]
    with pytest.raises(LengthMismatch if target == "short" else InvalidValue):
        function(model, feats, labels, graph, s)


def _malformed_payloads():
    """(name, edit of a saved model's JSON payload) for each way a model file breaks."""

    def drop(key):
        return lambda payload: {k: v for k, v in payload.items() if k != key}

    def ragged(payload):
        payload["weights"][1] = payload["weights"][1][:-1]
        return payload

    def bad_max_iters(payload):
        payload["config"]["max_iters"] = "abc"
        return payload

    def huge_weight(payload):
        payload["weights"][0][0] = 10**400  # a JSON integer too large for a float
        return payload

    def huge_final_loss(payload):
        payload["final_loss"] = 10**400
        return payload

    def no_config_epsilon(payload):
        del payload["config"]["epsilon"]  # would load as the default, not the fitted epsilon
        return payload

    edits = [("array", lambda payload: [payload]), ("ragged", ragged)]
    edits += [("max_iters", bad_max_iters)]
    edits += [("huge_weight", huge_weight), ("huge_final_loss", huge_final_loss)]
    keys = ("weights", "bias", "feature_mode", "converged", "n_iterations", "final_loss", "config")
    edits += [(f"no_{key}", drop(key)) for key in keys]
    return edits + [("no_config_epsilon", no_config_epsilon)]


@pytest.mark.parametrize("name, edit", _malformed_payloads())
def test_load_model_rejects_malformed_file(tmp_path, name, edit):
    model = _model(np.zeros((3, 2)), np.zeros(3), taxa=["a", "b"])
    path = tmp_path / "model.grmlr"
    save_model(model, path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(InvalidValue, match=f"^{re.escape(str(path))}: "):
        load_model(path)


@pytest.mark.parametrize(
    "key, bad",
    [
        ("converged", "false"),
        ("n_iterations", 7.9),
        ("n_iterations", True),
        ("final_loss", "0.1"),
        ("class_balanced", "no"),
        ("taxa_names", "ab"),
        ("taxa_names", [1, 2]),
        ("label_set", "xyz"),
        ("weights", [[True, False], [0.0, 0.0], [0.0, 0.0]]),
        ("weights", [["0", 0.0], [0.0, 0.0], [0.0, 0.0]]),
        ("bias", [0.0, False, 0.0]),
        ("n_iterations", -1),
    ],
)
def test_load_model_rejects_wrongly_typed_values(tmp_path, key, bad):
    model = _model(np.zeros((3, 2)), np.zeros(3), taxa=["a", "b"])
    path = tmp_path / "model.grmlr"
    save_model(model, path)
    payload = json.loads(path.read_text())
    (payload["config"] if key in payload["config"] else payload)[key] = bad
    path.write_text(json.dumps(payload))
    with pytest.raises(InvalidValue, match=f"^{re.escape(str(path))}: .*{key} must be"):
        load_model(path)


VALIDATION_RAISES = {
    "bias-shape": (
        lambda: _model(np.zeros((3, 2)), np.zeros(2)),
        r"bias shape \(2,\) for 3 classes",
    ),
    "taxa-count": (
        lambda: _model(np.zeros((3, 2)), np.zeros(3), taxa=["a", "b", "c"]),
        "taxa_names/label_set lengths do not match W",
    ),
    "label-count": (
        lambda: _model(np.zeros((2, 2)), np.zeros(2)),
        "taxa_names/label_set lengths do not match W",
    ),
    "non-finite-weight": (
        lambda: _model(np.array([[0.0, np.inf], [0.0, 0.0], [0.0, 0.0]]), np.zeros(3)),
        "model parameters must be finite",
    ),
    "non-finite-bias": (
        lambda: _model(np.zeros((3, 2)), np.array([0.0, np.nan, 0.0])),
        "model parameters must be finite",
    ),
    "features-feature-mode": (
        lambda: build_features(_features(np.eye(2)), 1e-6, "log"),
        re.escape("feature_mode must be one of ('clr', 'raw'), got 'log'"),
    ),
    "feature-mode": (
        lambda: _model(np.zeros((3, 2)), np.zeros(3), feature_mode="log"),
        re.escape("feature_mode must be one of ('clr', 'raw')"),
    ),
}


@pytest.mark.parametrize("make, message", VALIDATION_RAISES.values(), ids=VALIDATION_RAISES)
def test_model_validation_raises(make, message):
    with pytest.raises(InvalidValue, match=f"^{message}$"):
        make()


def test_load_model_rejects_invalid_json(tmp_path):
    path = tmp_path / "model.grmlr"
    path.write_text('{"format": ')
    with pytest.raises(InvalidValue, match=f"^{re.escape(str(path))}: not a valid model file: "):
        load_model(path)


def test_load_model_rejects_other_format_versions(tmp_path):
    path = tmp_path / "model.grmlr"
    save_model(_model(np.zeros((3, 2)), np.zeros(3)), path)
    payload = json.loads(path.read_text())
    # true and 1.0 equal 1 once loaded, but only the JSON integer 1 is version 1
    for version in (2, True, 1.0):
        payload["format_version"] = version
        path.write_text(json.dumps(payload))
        message = f"^{re.escape(str(path))}: unsupported format version {version}$"
        with pytest.raises(InvalidValue, match=message):
            load_model(path)


def test_taxa_in_another_order_are_rejected():
    model = _model(np.zeros((3, 2)), np.zeros(3), taxa=["a", "b"])
    with pytest.raises(TaxaMismatch, match="^taxa are present but ordered differently$"):
        predict_proba(model, _features(np.zeros((1, 2)), taxa=["b", "a"]))


def test_loss_rejects_misaligned_graph_and_label_set():
    model, feats, labels, graph, s = _random_instance(0)
    reordered = _fused(
        graph.adjacency, np.zeros_like(graph.adjacency), alpha=1.0,
        taxa_names=list(reversed(graph.taxa_names)),
    )
    with pytest.raises(Misalignment, match="^graph taxa order does not match the model$"):
        loss(model, feats, labels, reordered, s)
    relabeled = StageLabels(labels.site_ids, labels.labels, ("dead", "adult", "juvenile"))
    with pytest.raises(Misalignment, match="^label set does not match the model$"):
        loss(model, feats, relabeled, graph, s)
