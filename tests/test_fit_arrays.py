"""fit_arrays: the reduced-coordinate Newton solver, its stacked form and its input checks."""

import functools
import warnings

import numpy as np
import pytest

from grmlr.compositional import clr_transform
from grmlr.dataset import synthesize_dataset
from grmlr.ecograph import build_graph
from grmlr.errors import InvalidShape, InvalidValue, LengthMismatch
from grmlr.model import GrmlrConfig, _fit_stack, _sample_weights, fit_arrays

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


@pytest.mark.parametrize("lam_l2", [0.0, 0.02])
def test_one_class_needs_no_iteration(lam_l2):
    Z, _, _, laplacian = _problem(2, 0)
    n, p = Z.shape
    config = GrmlrConfig(lambda_l2=lam_l2)
    W, b, info = fit_arrays(Z, np.zeros(n, dtype=int), 1, np.ones(n), laplacian, config)
    assert info["n_iterations"] == 0
    assert info["converged"]
    assert W.shape == (1, p) and b.shape == (1,)
    assert not W.any() and not b.any()


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
    for lam_l2 in (0.0, 0.001, 0.1)
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
def test_stacked_fits_equal_single_fits_bit_for_bit(K):
    problems = _stack_problems(K)
    singles, single_warnings = _recorded(
        lambda: [
            fit_arrays(Z, y, K, s, laplacian, config, track_history=True)
            for Z, y, s, laplacian, config in problems
        ]
    )
    *arrays, configs = zip(*problems)
    Z, y, s, laplacian = (np.stack(a) for a in arrays)
    (V, infos), stack_warnings = _recorded(
        lambda: _fit_stack(Z, y, K, s, laplacian, configs, track_history=True)
    )
    iterations = [info["n_iterations"] for _, _, info in singles]
    assert min(iterations) == 3 and max(iterations) > 3  # capped and converged fits mixed
    assert single_warnings  # some capped fits warn
    assert stack_warnings == single_warnings
    for (W, b, info), fitted, stacked_info in zip(singles, V, infos):
        assert fitted[:, :-1].tobytes() == W.tobytes()
        assert fitted[:, -1].tobytes() == b.tobytes()
        assert stacked_info == info
