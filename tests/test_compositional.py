"""CLR transform: frozen cases, algebraic identities, simplex properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grmlr.compositional import FeatureMatrix, clr, clr_transform, raw_features
from grmlr.errors import InvalidValue

from oracles import clr_rowwise_reference

positive_rows = st.lists(
    st.floats(min_value=1e-4, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=26,
)


def test_uniform_row_maps_to_zero():
    row = np.full((1, 5), 1.0 / 5.0)
    assert np.allclose(clr(row, epsilon=0.0), 0.0, atol=1e-15)


def test_frozen_reference_case():
    out = clr(np.array([[0.5, 0.25, 0.25]]), epsilon=0.0)[0]
    assert np.round(out, 4).tolist() == [0.4621, -0.231, -0.231]
    ref = clr_rowwise_reference([0.5, 0.25, 0.25], 0.0)
    assert np.allclose(out, ref, atol=1e-15)


def test_row_sum_zero_with_default_pseudocount(synth_dataset):
    feats = clr_transform(synth_dataset.abundances, epsilon=1e-6)
    assert np.abs(feats.values.sum(axis=1)).max() < 1e-9


@given(positive_rows)
@settings(max_examples=80)
def test_zero_sum_property(row):
    out = clr(np.array([row]), epsilon=1e-6)
    assert abs(out.sum()) < 1e-9


@given(positive_rows, st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=80)
def test_scale_invariance_at_zero_epsilon(row, c):
    x = np.array([row])
    assert np.allclose(clr(c * x, 0.0), clr(x, 0.0), atol=1e-12, rtol=0.0)


def test_permutation_equivariance():
    rng = np.random.default_rng(1)
    x = rng.uniform(0.01, 1.0, size=(4, 7))
    perm = rng.permutation(7)
    # equality up to the re-ordered row-mean summation
    assert np.allclose(clr(x[:, perm], 1e-6), clr(x, 1e-6)[:, perm], atol=1e-13, rtol=0.0)


def test_monotone_within_row():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 1.0, size=(5, 9))
    z = clr(x, 1e-6)
    for i in range(5):
        for j in range(9):
            for k in range(9):
                if x[i, j] > x[i, k]:
                    assert z[i, j] > z[i, k]


def test_epsilon_zero_requires_positive_entries():
    with pytest.raises(InvalidValue):
        clr(np.array([[0.0, 0.5, 0.5]]), epsilon=0.0)


def test_negative_epsilon_rejected():
    with pytest.raises(InvalidValue):
        clr(np.array([[0.5, 0.5]]), epsilon=-1e-3)


def test_zeros_fine_with_pseudocount():
    out = clr(np.array([[0.0, 0.5, 0.5]]), epsilon=1e-6)
    assert np.isfinite(out).all()


def test_taxa_order_preserved(synth_dataset):
    feats = clr_transform(synth_dataset.abundances, 1e-6)
    assert feats.taxa_names == synth_dataset.abundances.taxa_names
    assert feats.site_ids == synth_dataset.abundances.site_ids


def test_raw_features_bypass_clr(synth_dataset):
    feats = raw_features(synth_dataset.abundances)
    sums = feats.values.sum(axis=1)
    assert np.allclose(sums, 1.0)
    assert np.abs(sums).min() > 0.5  # rows do not sum to 0


@given(
    n=st.integers(min_value=1, max_value=6),
    p=st.integers(min_value=1, max_value=6),
    cell=st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)),
    bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80)
def test_feature_matrix_rejects_non_finite_cell(n, p, cell, bad, seed):
    values = np.random.default_rng(seed).normal(size=(n, p))
    i, j = cell[0] % n, cell[1] % p
    values[i, j] = bad
    sites = [f"s{k}" for k in range(n)]
    taxa = [f"t{k}" for k in range(p)]
    with pytest.raises(InvalidValue, match=f"site '{sites[i]}', taxon '{taxa[j]}'"):
        FeatureMatrix(sites, taxa, values)


def test_feature_matrix_rejects_wrong_shape():
    message = r"^feature matrix shape \(2, 2\) does not match 2 sites x 3 taxa$"
    with pytest.raises(InvalidValue, match=message):
        FeatureMatrix(["a", "b"], ["x", "y", "z"], np.zeros((2, 2)))
