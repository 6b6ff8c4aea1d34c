"""fit_arrays: the reduced-coordinate Newton solver, its batch form and its input checks."""

import functools
import inspect
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from grmlr.compositional import clr_transform
from grmlr.dataset import synthesize_dataset
from grmlr.ecograph import build_graph
from grmlr import model
from grmlr.errors import InvalidShape, InvalidValue, LengthMismatch, NonConvergenceWarning
from grmlr.model import GrmlrConfig, _fit_batch, _sample_weights, fit_arrays

from oracles import FullSpaceNewton

LAMBDA_L2 = (0.001, 0.02, 0.1)
LAMBDA_G = (0.0, 5.0)
SEEDS = (0, 1, 7)
CLASSES = (2, 3, 4)


@functools.lru_cache(maxsize=None)
def _problem(K: int, seed: int):
    ds = synthesize_dataset(n=13, p=26, K=K, n_blocks=4, coupling=0.9, noise=0.1, seed=seed)
    feats = clr_transform(ds.abundances, 1e-6)
    graph = build_graph(feats, ds.macrofauna, tau=0.7, gamma=0.9, alpha=0.1)
    y = ds.stages.indices()
    return feats.values, y, _sample_weights(y, K, class_balanced=True), graph.laplacian


@functools.lru_cache(maxsize=None)
def _fits(K: int, seed: int, lam_l2: float, lam_g: float):
    """fit_arrays' (W, b, info), the full-space oracle, and the oracle's fit result."""
    Z, y, s, laplacian = _problem(K, seed)
    config = GrmlrConfig(lambda_l2=lam_l2, lambda_g=lam_g)
    package = fit_arrays(Z, y, K, s, laplacian, config)
    oracle = FullSpaceNewton(Z, y, K, s, laplacian, lam_l2, lam_g)
    return package, oracle, oracle.fit(config.ftol, config.gtol, config.max_iters)


GRID = [
    (K, seed, lam_l2, lam_g)
    for K in CLASSES
    for seed in SEEDS
    for lam_l2 in LAMBDA_L2
    for lam_g in LAMBDA_G
]


@pytest.mark.parametrize("K, seed, lam_l2, lam_g", GRID)
def test_same_iteration_count_as_full_space_newton(K, seed, lam_l2, lam_g):
    (_, _, info), _, (_, oracle_iters, _) = _fits(K, seed, lam_l2, lam_g)
    assert info["converged"]
    assert info["n_iterations"] == oracle_iters


@pytest.mark.parametrize("K, seed, lam_l2, lam_g", GRID)
def test_same_weights_as_full_space_newton(K, seed, lam_l2, lam_g):
    (W, b, info), oracle, (V_oracle, _, oracle_grad) = _fits(K, seed, lam_l2, lam_g)
    V = np.column_stack([W, b])
    if max(info["grad_max_norm"], oracle_grad) > GrmlrConfig().gtol:
        # One of the two stopped on ftol short of gtol: near the minimizer
        # its last Armijo test was decided by rounding noise in the
        # objective, which halved an exact Newton step to nothing. Which
        # fit that hits depends on rounding, so both get the step they may
        # have been denied; it takes each to the minimizer.
        V = V + oracle.step(V, oracle.objective(V)[1])
        V_oracle = V_oracle + oracle.step(V_oracle, oracle.objective(V_oracle)[1])
    assert np.abs(V - V_oracle).max() <= 1e-10 * np.abs(V_oracle).max()


@pytest.mark.parametrize("K, seed, lam_l2, lam_g", GRID)
def test_class_rows_sum_to_zero(K, seed, lam_l2, lam_g):
    (W, b, _), _, _ = _fits(K, seed, lam_l2, lam_g)
    scale = np.abs(W).max()
    assert np.abs(W.sum(axis=0)).max() <= 1e-12 * scale
    assert abs(b.sum()) <= 1e-12 * scale


@pytest.mark.parametrize("lam_l2", [1e-9, 0.02])
def test_one_class_needs_no_iteration(lam_l2):
    Z, _, _, laplacian = _problem(2, 0)
    n, p = Z.shape
    config = GrmlrConfig(lambda_l2=lam_l2)
    W, b, info = fit_arrays(Z, np.zeros(n, dtype=int), 1, np.ones(n), laplacian, config)
    assert info["n_iterations"] == 0
    assert info["converged"]
    assert W.shape == (1, p) and b.shape == (1,)
    assert not W.any() and not b.any()


def _negligible_message(lambda_l2: float) -> str:
    return re.escape(f"lambda_l2={lambda_l2!r} is lost to rounding on this fit")


@pytest.mark.parametrize("lam_l2", [0.0, 1e-300, 1e-20])
@pytest.mark.parametrize("K", CLASSES)
def test_negligible_ridge_rejected_before_solving(K, lam_l2):
    Z, y, s, laplacian = _problem(K, 0)
    with pytest.raises(InvalidValue, match=_negligible_message(lam_l2)):
        fit_arrays(Z, y, K, s, laplacian, GrmlrConfig(lambda_l2=lam_l2))


def test_one_class_rejects_only_a_zero_ridge():
    # with K = 1 the rounding tolerance is 0: nothing to solve, but one rule
    Z, _, _, laplacian = _problem(2, 0)
    n = len(Z)
    y, s = np.zeros(n, dtype=int), np.ones(n)
    with pytest.raises(InvalidValue, match=_negligible_message(0.0)):
        fit_arrays(Z, y, 1, s, laplacian, GrmlrConfig(lambda_l2=0.0))
    _, _, info = fit_arrays(Z, y, 1, s, laplacian, GrmlrConfig(lambda_l2=1e-300))
    assert info["n_iterations"] == 0


def _valid_inputs():
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(6, 4))
    return Z, np.arange(6) % 3, np.ones(6), np.zeros((4, 4))


@pytest.mark.parametrize(
    "change, error",
    [
        ({"y": np.array([0, 1, 2, 0, 1, -1])}, InvalidValue),
        ({"y": np.array([0, 1, 2, 0, 1, 3])}, InvalidValue),
        ({"y": np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0])}, InvalidValue),
        ({"s": np.array([1.0, 1.0, -1.0, 1.0, 1.0, 1.0])}, InvalidValue),
        ({"laplacian": np.full((4, 4), np.nan)}, InvalidValue),
        ({"laplacian": np.zeros((3, 3))}, InvalidShape),
        ({"laplacian": np.zeros(4)}, InvalidShape),
        ({"Z": np.zeros((0, 4))}, InvalidShape),
        ({"Z": np.zeros(6)}, InvalidShape),
        ({"y": np.arange(5) % 3}, LengthMismatch),
        ({"s": np.ones(7)}, LengthMismatch),
        ({"s": np.ones((6, 1))}, LengthMismatch),
    ],
    ids=[
        "label-minus-one",
        "label-equal-K",
        "float-labels",
        "negative-weight",
        "nan-laplacian",
        "laplacian-3x3",
        "laplacian-1d",
        "no-rows",
        "features-1d",
        "short-labels",
        "long-weights",
        "weights-2d",
    ],
)
def test_bad_input_rejected_before_solving(change, error):
    Z, y, s, laplacian = _valid_inputs()
    args = {"Z": Z, "y": y, "s": s, "laplacian": laplacian, **change}
    with pytest.raises(error):
        fit_arrays(args["Z"], args["y"], 3, args["s"], args["laplacian"], GrmlrConfig())


# Stopping rules: capped at 3 iterations (some warn), the default, and a gtol
# no fit reaches, which runs each fit into rounding noise until its line
# search finds no step. The stiff lambda_g = 1000 fits halve their steps.
STOPS = ({"max_iters": 3}, {}, {"gtol": 1e-300})
STACK_CONFIGS = [
    GrmlrConfig(lambda_l2=lam_l2, lambda_g=lam_g, class_balanced=balanced, **stop)
    for lam_l2 in (1e-9, 0.001, 0.1)
    for lam_g in (0.0, 5.0, 1000.0)
    for stop in STOPS
    for balanced in (True, False)
]
STACK_SEEDS = (0, 7)


def _stack_problems(K: int):
    """(Z, y, s, laplacian, config) of each STACK_CONFIGS entry on each STACK_SEEDS dataset."""
    problems = []
    for seed in STACK_SEEDS:
        Z, y, _, laplacian = _problem(K, seed)
        for config in STACK_CONFIGS:
            s = _sample_weights(y, K, config.class_balanced)
            problems.append((Z, y, s, laplacian, config))
    return problems


def _recorded(call):
    """call()'s result and the (category, message) of every warning it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("K", CLASSES)
def test_stacked_fits_equal_single_fits_bit_for_bit(K, kernel_problems):
    # _fit_batch keeps the weak-ridge problems (lambda_l2 = 1e-9) at 13 x 26
    # in feature space, and every problem of the tall fold, where n >= p
    tall = [
        (Z, y, _sample_weights(y, K, config.class_balanced), laplacian, config)
        for Z, y, laplacian, _ in (_fold(K, seed, "tall") for seed in STACK_SEEDS)
        for config in STACK_CONFIGS
    ]
    kept = []
    for problems in (_stack_problems(K), tall):
        singles = [
            _recorded(lambda: fit_arrays(Z, y, K, s, laplacian, config))
            for Z, y, s, laplacian, config in problems
        ]
        *arrays, configs = zip(*problems)
        Z, y, s, laplacian = (np.stack(a) for a in arrays)
        (V, infos), warned = _recorded(lambda: _fit_batch(Z, y, K, s, laplacian, configs))
        # _fit_batch warns in stack order, once for each fit that did not converge
        failed = [i for i, info in enumerate(infos) if not info["converged"]]
        assert len(warned) == len(failed)
        batch_warnings = [[] for _ in problems]
        for i, warning in zip(failed, warned):
            batch_warnings[i].append(warning)
        for single, fitted, info, warnings_of_fit, config in zip(
            singles, V, infos, batch_warnings, configs
        ):
            if problems is tall or config.lambda_l2 == 1e-9:
                kept.append((single, (fitted, info, warnings_of_fit)))
    assert kernel_problems == [2 * len(STACK_CONFIGS) * 2 // 3]  # the wide firm-ridge ones
    assert len(kept) == 2 * len(STACK_CONFIGS) // 3 + len(tall)
    iterations = [info["n_iterations"] for ((_, _, info), _), _ in kept]
    assert min(iterations) == 3 and max(iterations) > 3  # capped and converged fits mixed
    assert any(single_warnings for (_, single_warnings), _ in kept)  # some capped fits warn
    for ((W, b, info), single_warnings), (fitted, batch_info, batch_warnings) in kept:
        assert fitted[:, :-1].tobytes() == W.tobytes()
        assert fitted[:, -1].tobytes() == b.tobytes()
        assert batch_info == info
        assert batch_warnings == single_warnings


# The batch solver against fit_arrays. It solves a problem with a firm ridge
# and fewer sites than taxa in kernel form, and every other problem in
# feature space. Each fold is the training part of a LOOCV fold (site 0 held
# out): "wide" has fewer sites than taxa, "tall" more (so it stays in
# feature space), and "duplicate" is "wide" with two identical training
# sites, which makes its kernel rank-deficient. lambda_g = 1000 makes some
# ridges too weak for the kernel form, so wide stacks mix both forms.
BATCH_CONFIGS = [
    GrmlrConfig(lambda_l2=lam_l2, lambda_g=lam_g, class_balanced=balanced, max_iters=cap)
    for lam_l2 in LAMBDA_L2
    for lam_g in (0.0, 5.0, 1000.0)
    for balanced in (True, False)
    for cap in (1, 2, 15000)
]
FOLD_SHAPES = {"wide": (13, 26), "tall": (9, 8), "duplicate": (13, 26)}


@functools.lru_cache(maxsize=None)
def _fold(K: int, seed: int, shape: str):
    """Training features, labels and a Laplacian of a fold, and the held-out site's features."""
    n, p = FOLD_SHAPES[shape]
    ds = synthesize_dataset(n=n, p=p, K=K, n_blocks=4, coupling=0.9, noise=0.1, seed=seed)
    feats = clr_transform(ds.abundances, 1e-6)
    laplacian = build_graph(feats, ds.macrofauna, tau=0.7, gamma=0.9, alpha=0.5).laplacian
    Z, y = feats.values[1:].copy(), ds.stages.indices()[1:].copy()
    if shape == "duplicate":
        Z[1], y[1] = Z[0], y[0]
    return Z, y, laplacian, feats.values[0]


@pytest.fixture
def kernel_problems(monkeypatch):
    """Counts of the problems that each _fit_batch call solves in kernel form."""
    counts = []
    original = model._kernel_features

    def counting(Z, *args):
        counts.append(len(Z))
        return original(Z, *args)

    monkeypatch.setattr(model, "_kernel_features", counting)
    return counts


def _batch_fits(K: int, problems):
    """_fit_batch on (Z, y, laplacian, config) problems, its warnings, and their sample weights."""
    weights = [_sample_weights(y, K, cfg.class_balanced) for _, y, _, cfg in problems]
    Z, y, laplacian, configs = zip(*problems)
    batch, batch_warnings = _recorded(
        lambda: _fit_batch(np.stack(Z), np.stack(y), K, np.stack(weights), np.stack(laplacian), configs)
    )
    return batch, batch_warnings, weights


def _single_and_batch_fits(K: int, problems):
    """fit_arrays on each (Z, y, laplacian, config) and _fit_batch on them all, with their warnings."""
    batch, batch_warnings, weights = _batch_fits(K, problems)
    singles, single_warnings = _recorded(
        lambda: [
            fit_arrays(Z, y, K, s, laplacian, cfg)
            for (Z, y, laplacian, cfg), s in zip(problems, weights)
        ]
    )
    return singles, single_warnings, batch, batch_warnings, weights


@pytest.mark.parametrize("shape", FOLD_SHAPES)
@pytest.mark.parametrize("K", (1, 2, 3, 4))
def test_batch_fits_match_fit_arrays(K, shape, kernel_problems):
    folds = [_fold(K, seed, shape) for seed in STACK_SEEDS]
    problems = [(Z, y, laplacian, cfg) for Z, y, laplacian, _ in folds for cfg in BATCH_CONFIGS]
    singles, single_warnings, (V, infos), batch_warnings, weights = _single_and_batch_fits(
        K, problems
    )
    if shape == "tall":
        assert not kernel_problems
    else:
        assert sum(kernel_problems) > 0
    if K > 1:
        assert single_warnings  # the fits capped at one or two iterations warn
    assert batch_warnings == single_warnings
    held_out = [fold[3] for fold in folds for _ in BATCH_CONFIGS]
    for (Z, y, laplacian, cfg), s, z, (W, b, info), fitted, batch_info in zip(
        problems, weights, held_out, singles, V, infos
    ):
        reference = np.column_stack([W, b])
        assert batch_info["converged"] == info["converged"]
        assert np.argmax(fitted[:, :-1] @ z + fitted[:, -1]) == np.argmax(W @ z + b)
        if cfg.max_iters <= 2:
            assert np.abs(fitted - reference).max() <= 1e-8 * np.abs(reference).max()
        else:
            oracle = FullSpaceNewton(Z, y, K, s, laplacian, cfg.lambda_l2, cfg.lambda_g)
            batch_value, value = oracle.objective(fitted)[0], oracle.objective(reference)[0]
            assert batch_value - value <= 1e-9 * abs(value)


def test_mixed_batch_warns_in_queue_order(kernel_problems):
    K = 3
    problems = [
        (*_fold(K, seed, "wide")[:3], GrmlrConfig(lambda_l2=lam_l2, max_iters=cap))
        for seed in STACK_SEEDS
        for cap in (2, 15000)
        for lam_l2 in (1e-9, 0.02)
    ]
    singles, single_warnings, (V, infos), batch_warnings, _ = _single_and_batch_fits(K, problems)
    assert kernel_problems == [len(problems) // 2]  # the lambda_l2 = 0.02 half
    assert [category for category, _ in single_warnings] == [NonConvergenceWarning] * 4
    assert batch_warnings == single_warnings
    assert [info["converged"] for info in infos] == [info["converged"] for *_, info in singles]


def test_batch_returns_the_error_of_a_negligible_ridge(kernel_problems):
    # a negligible ridge is not solved; the other problems keep their
    # order, fits and warnings, as in a batch without it
    K = 3
    problems = [
        (*_fold(K, seed, "wide")[:3], GrmlrConfig(lambda_l2=lam_l2, max_iters=cap))
        for seed in STACK_SEEDS
        for cap in (2, 15000)
        for lam_l2 in (0.0, 1e-9, 1e-20, 0.02)
    ]
    lost = [cfg.lambda_l2 in (0.0, 1e-20) for *_, cfg in problems]
    (V, infos), warned, _ = _batch_fits(K, problems)
    kept = [problem for problem, skip in zip(problems, lost) if not skip]
    (V_kept, infos_kept), warned_kept, _ = _batch_fits(K, kept)
    assert kernel_problems == [len(kept) // 2, len(kept) // 2]
    assert warned == warned_kept and len(warned) == 4
    solved = iter(zip(V_kept, infos_kept))
    for (*_, cfg), skip, fitted, info in zip(problems, lost, V, infos):
        if skip:
            assert isinstance(info, InvalidValue)
            assert re.match(_negligible_message(cfg.lambda_l2), str(info))
            assert np.isnan(fitted).all()
        else:
            fitted_kept, info_kept = next(solved)
            assert fitted.tobytes() == fitted_kept.tobytes()
            assert info == info_kept


def test_nonconvergence_warnings_name_the_line_that_called_the_solver():
    Z, y, s, laplacian = _problem(3, 0)
    config = GrmlrConfig(max_iters=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        here = inspect.currentframe().f_lineno
        fit_arrays(Z, y, 3, s, laplacian, config)
        _fit_batch(Z[None], y[None], 3, s[None], laplacian[None], [config])
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, here + 1), (__file__, here + 2)]


def _hessian_inputs(K: int):
    """A stack of problems at a random zero-sum V: (V, X, onehot, c, penalty)."""
    rng = np.random.default_rng(K)
    problems = [_problem(K, seed) for seed in STACK_SEEDS]
    Z, y, s, laplacian = (np.stack([problem[i] for problem in problems]) for i in range(4))
    B, n, p = Z.shape
    J, d = K - 1, p + 1
    X = np.concatenate([Z, np.ones((B, n, 1))], axis=2)
    theta = rng.normal(scale=0.3, size=(B, J, d))
    V = np.concatenate([theta, -theta.sum(axis=1, keepdims=True)], axis=1)
    penalty = np.zeros((B, d, d))
    penalty[:, :p, :p] = 2.0 * 0.02 * np.eye(p) + 2.0 * 5.0 * laplacian
    return V, X, model._one_hot(y, K), s / n, penalty


@pytest.mark.parametrize("K", CLASSES)
def test_reduced_hessian_adds_the_kronecker_penalty_bit_for_bit(K):
    # the penalty enters block by block: 2 penalty on the diagonal, penalty off it
    V, X, onehot, c, penalty = _hessian_inputs(K)
    B, d, J = len(V), X.shape[2], K - 1
    _, _, P = model._objective(V, X, onehot, c, penalty)
    got = model._reduced_hessian(P, X, c, penalty, np.empty((B, J * d, J * d)))
    data = model._reduced_hessian(P, X, c, np.zeros_like(penalty), np.empty_like(got))
    assert np.abs(data).max() > 0 and not np.array_equal(data, got)
    assert got.tobytes() == (data + np.kron(np.eye(J) + 1.0, penalty)).tobytes()


@pytest.mark.parametrize("K", CLASSES)
def test_objective_probabilities_are_the_softmax_the_hessian_formed(K):
    # the Newton loop hands the Hessian the objective's probabilities instead of a new softmax
    V, X, onehot, c, penalty = _hessian_inputs(K)
    B, d, J = len(V), X.shape[2], K - 1
    _, _, P = model._objective(V, X, onehot, c, penalty)
    softmax = model.softmax_rows(X @ V.transpose(0, 2, 1))
    assert P.tobytes() == softmax.tobytes()
    carried = model._reduced_hessian(P, X, c, penalty, np.empty((B, J * d, J * d)))
    formed = model._reduced_hessian(softmax, X, c, penalty, np.empty_like(carried))
    assert carried.tobytes() == formed.tobytes()


def test_one_fit_at_stress_scale_holds_under_two_reduced_hessians():
    # one Hessian buffer and the solver's temporaries, no J^2 copies of the penalty
    ds = synthesize_dataset(n=40, p=160, K=3, n_blocks=4, coupling=0.9, noise=0.1, seed=0)
    feats = clr_transform(ds.abundances, 1e-6)
    laplacian = build_graph(feats, ds.macrofauna, tau=0.7, gamma=0.9, alpha=0.1).laplacian
    y = ds.stages.indices()
    s = _sample_weights(y, 3, class_balanced=True)
    tracemalloc.start()
    try:
        fit_arrays(feats.values, y, 3, s, laplacian, GrmlrConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    hessian = 8 * (2 * 161) ** 2
    assert peak < 2 * hessian, peak / hessian
