"""Spearman primitive against the counting-based brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from grmlr.errors import InvalidValue, LengthMismatch, TooFewSamples
from grmlr.rankstats import _leave_one_out, _unit, rank_matrix, spearman_cross, spearman_matrix

from oracles import rank_by_counting, spearman_bruteforce


def _ranks(values) -> list[float]:
    """rank_matrix of ``values`` as one column."""
    return rank_matrix(np.reshape(values, (-1, 1)))[:, 0].tolist()


def _rho(a, b) -> float:
    """spearman_cross of two vectors, each as one column."""
    return float(spearman_cross(np.reshape(a, (-1, 1)), np.reshape(b, (-1, 1)))[0, 0])


class TestAverageRanks:
    def test_no_ties(self):
        assert _ranks([10.0, 30.0, 20.0]) == [1.0, 3.0, 2.0]

    def test_ties_share_mean_position(self):
        assert _ranks([1.0, 2.0, 2.0, 4.0]) == [1.0, 2.5, 2.5, 4.0]

    def test_all_tied(self):
        assert _ranks([5.0, 5.0, 5.0]) == [2.0, 2.0, 2.0]

    def test_nan_has_no_rank_but_infinities_are_the_extremes(self):
        assert _ranks([np.inf, 1.0, -np.inf, np.inf]) == [3.5, 2.0, 1.0, 3.5]
        with pytest.raises(InvalidValue, match="^cannot rank NaN$"):
            rank_matrix(np.array([[np.nan], [1.0], [2.0]]))
        with pytest.raises(InvalidValue, match="^cannot rank NaN$"):
            _rho([np.nan, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InvalidValue, match="^cannot rank NaN$"):
            spearman_cross(np.ones((3, 2)), np.array([[1.0], [np.nan], [2.0]]))
        with pytest.raises(InvalidValue, match="^cannot rank NaN$"):
            spearman_matrix(np.array([[1.0, 2.0], [np.nan, 1.0], [2.0, 0.0]]))

    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=13)
    )
    def test_matches_counting_definition(self, values):
        got = _ranks(np.array(values, dtype=float))
        assert np.allclose(got, rank_by_counting(values))

    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=13)
    )
    def test_rank_sum_invariant(self, values):
        n = len(values)
        assert abs(sum(_ranks(values)) - n * (n + 1) / 2) < 1e-9


@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=13),
        elements=st.integers(min_value=-3, max_value=3).map(float),
    )
)
def test_rank_matrix_matches_counting_by_column(m):
    got = rank_matrix(m)
    for j in range(m.shape[1]):
        assert got[:, j].tolist() == rank_by_counting(m[:, j].tolist())


@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=13),
        elements=st.integers(min_value=-2, max_value=2).map(float),
    )
)
def test_leave_one_out_ranks_match_counting_by_fold(m):
    # each fold's unit ranks are those of its column's counting ranks, bit for bit
    n, c = m.shape
    kept = np.array([np.delete(np.arange(n), i) for i in range(n)])
    unit, ok = _leave_one_out(rank_matrix(m), slice(None), kept)
    assert unit.shape == (n, n - 1, c) and ok.shape == (n, c)
    for i in range(n):
        kept = np.delete(m, i, axis=0)
        for j in range(c):
            expected, expected_ok = _unit(np.array([rank_by_counting(kept[:, j].tolist())]).T)
            assert unit[i, :, j].tobytes() == expected[:, 0].tobytes()
            assert ok[i, j] == expected_ok[0] == (len(set(kept[:, j])) > 1)


class TestSpearman:
    def test_perfect_monotone(self):
        assert _rho([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_perfect_anti_monotone(self):
        assert _rho([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_tied_case_matches_bruteforce(self):
        a = [1.0, 2.0, 2.0, 4.0]
        b = [1.0, 3.0, 2.0, 4.0]
        expected = spearman_bruteforce(a, b)
        assert expected == pytest.approx(3.0 / np.sqrt(10.0), abs=1e-12)
        assert _rho(a, b) == pytest.approx(expected, abs=1e-12)

    def test_constant_input_returns_zero(self):
        assert _rho([5, 5, 5, 5], [1, 2, 3, 4]) == 0.0
        assert _rho([1, 2, 3, 4], [7, 7, 7, 7]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            _rho([1, 2, 3], [1, 2])

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            _rho([1.0], [2.0])

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.integers(0, 5, size=9).astype(float)
            b = rng.integers(0, 5, size=9).astype(float)
            assert _rho(a, b) == _rho(b, a)

    @given(
        st.lists(st.integers(0, 6), min_size=3, max_size=13),
        st.integers(0, 3),
    )
    @settings(max_examples=60)
    def test_monotone_transform_invariance(self, values, which):
        rng = np.random.default_rng(7)
        b = rng.normal(size=len(values))
        a = np.array(values, dtype=float)
        transforms = [
            lambda x: 3.0 * x + 2.0,
            lambda x: x**3,
            lambda x: np.exp(x / 2.0),
            lambda x: np.arctan(x),
        ]
        g = transforms[which]
        assert _rho(g(a), b) == pytest.approx(_rho(a, b), abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = rng.integers(2, 14)
            a = rng.integers(0, 4, size=n).astype(float)
            b = rng.integers(0, 4, size=n).astype(float)
            assert -1.0 - 1e-12 <= _rho(a, b) <= 1.0 + 1e-12

    def test_agrees_with_bruteforce_on_random_tied_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(3, 14))
            a = rng.integers(0, 5, size=n).astype(float)
            b = rng.integers(0, 5, size=n).astype(float)
            assert _rho(a, b) == pytest.approx(spearman_bruteforce(a, b), abs=1e-12)


class TestMatrixForms:
    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(5)
        m = rng.integers(0, 5, size=(9, 6)).astype(float)
        full = spearman_matrix(m)
        for u in range(6):
            for v in range(6):
                if u == v:
                    continue
                expected = spearman_bruteforce(m[:, u], m[:, v])
                assert full[u, v] == pytest.approx(expected, abs=1e-12)

    def test_matrix_constant_column_zeroed(self):
        m = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 1.0]])
        full = spearman_matrix(m)
        assert full[0, 0] == 0.0
        assert full[0, 1] == 0.0 and full[1, 0] == 0.0
        assert full[1, 1] == 1.0

    def test_cross_matches_pairwise(self):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 5, size=(8, 4)).astype(float)
        y = rng.integers(0, 5, size=(8, 3)).astype(float)
        cross = spearman_cross(x, y)
        for u in range(4):
            for v in range(3):
                expected = spearman_bruteforce(x[:, u], y[:, v])
                assert cross[u, v] == pytest.approx(expected, abs=1e-12)
