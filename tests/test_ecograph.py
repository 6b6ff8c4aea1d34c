"""Knowledge-graph construction: adjacency sources, fusion, Laplacian."""

import csv
import re

import numpy as np
import pytest

from grmlr.compositional import FeatureMatrix, clr_transform
from grmlr.dataset import MacrofaunaCounts, synthesize_dataset, taxa_blocks
from grmlr.ecograph import (
    a_co_from_correlations,
    a_macro_from_profiles,
    build_graph,
    compute_co_correlations,
    compute_macro_profiles,
    _fused,
    export_heatmaps,
    laplacian_of,
)
from grmlr.errors import (
    InvalidShape,
    InvalidValue,
    Misalignment,
    MissingMacrofauna,
    TooFewSamples,
)

from oracles import random_fused_graph, spearman_bruteforce, trace_penalty_bruteforce


def _taxa(p):
    return [f"t{j}" for j in range(p)]


def _features(values, sites=None, taxa=None):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    sites = sites or [f"s{i}" for i in range(n)]
    return FeatureMatrix(sites, taxa or _taxa(p), values)


def _counts(values, sites=None):
    values = np.asarray(values)
    sites = sites or [f"s{i}" for i in range(values.shape[0])]
    return MacrofaunaCounts(sites, values)


class TestAMacro:
    def test_identical_columns_get_unit_edge(self):
        col = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
        feats = _features(np.column_stack([col, col, col[::-1]]))
        counts = _counts(np.array([[1, 2, 0, 1], [3, 1, 2, 0], [2, 0, 1, 2], [5, 4, 3, 1], [4, 3, 1, 3]]))
        a = a_macro_from_profiles(compute_macro_profiles(feats, counts), tau=1.0)
        assert a[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert a[0, 0] == 0.0

    def test_constant_column_has_no_edges(self):
        base = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
        feats = _features(np.column_stack([base, np.full(5, 2.0), base * 2]))
        counts = _counts(np.array([[1, 2, 0, 1], [3, 1, 2, 0], [2, 0, 1, 2], [5, 4, 3, 1], [4, 3, 1, 3]]))
        a = a_macro_from_profiles(compute_macro_profiles(feats, counts), tau=0.0)
        assert np.all(a[1, :] == 0.0)
        assert np.all(a[:, 1] == 0.0)

    def test_planted_blocks_have_stronger_within_edges(self):
        ds = synthesize_dataset(n=13, p=8, K=2, n_blocks=2, coupling=1.0, noise=0.0, seed=2)
        feats = clr_transform(ds.abundances, 1e-6)
        a = a_macro_from_profiles(compute_macro_profiles(feats, ds.macrofauna), tau=0.0)
        blocks = taxa_blocks(8, 2)
        within, cross = [], []
        for u in range(8):
            for v in range(u + 1, 8):
                same = any(u in b and v in b for b in (set(blocks[0]), set(blocks[1])))
                (within if same else cross).append(a[u, v])
        assert min(within) > max(cross)

    def test_matches_bruteforce_profiles(self):
        rng = np.random.default_rng(0)
        feats = _features(rng.normal(size=(9, 5)))
        counts = _counts(rng.integers(0, 10, size=(9, 4)))
        a = a_macro_from_profiles(compute_macro_profiles(feats, counts), tau=0.3)
        # brute force: per-taxon profile, then cosine, then threshold
        profiles = np.array(
            [
                [spearman_bruteforce(feats.values[:, j], counts.values[:, c]) for c in range(4)]
                for j in range(5)
            ]
        )
        for u in range(5):
            for v in range(5):
                if u == v:
                    assert a[u, v] == 0.0
                    continue
                nu, nv = np.linalg.norm(profiles[u]), np.linalg.norm(profiles[v])
                cos = float(profiles[u] @ profiles[v] / (nu * nv))
                expected = cos if (nu > 0 and nv > 0 and cos >= 0.3) else 0.0
                assert a[u, v] == pytest.approx(expected, abs=1e-12)

    def test_misaligned_sites_rejected(self):
        feats = _features(np.random.default_rng(0).normal(size=(4, 3)))
        counts = _counts(np.zeros((4, 4), dtype=int), sites=["x0", "x1", "x2", "x3"])
        with pytest.raises(Misalignment):
            compute_macro_profiles(feats, counts)

    def test_too_few_samples(self):
        feats = _features(np.ones((2, 3)))
        counts = _counts(np.zeros((2, 4), dtype=int))
        with pytest.raises(TooFewSamples):
            a_macro_from_profiles(compute_macro_profiles(feats, counts), tau=0.5)


class TestACo:
    def test_duplicate_columns_unit_edge(self):
        col = np.array([0.3, -1.0, 2.0, 0.5])
        feats = _features(np.column_stack([col, col, -col]))
        a = a_co_from_correlations(compute_co_correlations(feats), gamma=0.5)
        assert a[0, 1] == 1.0
        assert a[0, 2] == 0.0  # negative correlation dropped

    def test_gamma_one_excludes_non_monotone(self):
        feats = _features(
            np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 5.0], [4.0, 4.0]])
        )
        a = a_co_from_correlations(compute_co_correlations(feats), gamma=1.0)
        assert np.all(a == 0.0)

    def test_toy_matrix_exactly_one_edge(self):
        base = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        wiggly = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
        feats = _features(np.column_stack([base, base * 2, -base, wiggly]))
        a = a_co_from_correlations(compute_co_correlations(feats), gamma=0.9)
        nonzero = {(u, v) for u in range(4) for v in range(4) if a[u, v] != 0.0}
        assert nonzero == {(0, 1), (1, 0)}
        # brute-force check of the surviving pair
        assert a[0, 1] == pytest.approx(spearman_bruteforce(base, base * 2), abs=1e-12)

    def test_thresholding_invariant(self):
        rng = np.random.default_rng(4)
        feats = _features(rng.normal(size=(10, 7)))
        for gamma in (0.0, 0.3, 0.8):
            a = a_co_from_correlations(compute_co_correlations(feats), gamma)
            nz = a[a != 0.0]
            assert np.all(nz >= gamma)


class TestFuse:
    def test_alpha_endpoints_exact(self):
        rng = np.random.default_rng(5)
        m = np.abs(rng.normal(size=(4, 4)))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        c = np.abs(rng.normal(size=(4, 4)))
        c = (c + c.T) / 2
        np.fill_diagonal(c, 0.0)
        assert np.array_equal(_fused(m, c, alpha=0.0, taxa_names=_taxa(4)).adjacency, c)
        assert np.array_equal(_fused(m, c, alpha=1.0, taxa_names=_taxa(4)).adjacency, m)

    def test_hand_worked_laplacian(self):
        a_macro = np.array([[0.0, 1.0], [1.0, 0.0]])
        a_co = np.zeros((2, 2))
        g = _fused(a_macro, a_co, alpha=0.5, taxa_names=_taxa(2))
        assert np.array_equal(g.adjacency, [[0.0, 0.5], [0.5, 0.0]])
        assert np.array_equal(g.laplacian, [[0.5, -0.5], [-0.5, 0.5]])

    def test_fusion_monotone_in_alpha(self):
        rng = np.random.default_rng(6)
        m = np.abs(rng.normal(size=(5, 5)))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        zeros = np.zeros_like(m)
        prev = _fused(m, zeros, alpha=0.0, taxa_names=_taxa(5)).adjacency
        for alpha in (0.2, 0.5, 0.8, 1.0):
            cur = _fused(m, zeros, alpha=alpha, taxa_names=_taxa(5)).adjacency
            assert np.all(cur >= prev - 1e-15)
            prev = cur


class TestLaplacianProperties:
    def test_rows_sum_to_zero_and_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_fused_graph(rng, p=int(rng.integers(2, 12)))
            assert np.abs(g.laplacian.sum(axis=1)).max() < 1e-9
            assert np.linalg.eigvalsh(g.laplacian).min() >= -1e-8

    def test_quadratic_form_nonnegative(self):
        rng = np.random.default_rng(8)
        g = random_fused_graph(rng, p=10)
        for _ in range(200):
            x = rng.normal(size=10)
            assert x @ g.laplacian @ x >= -1e-8

    def test_trace_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            p = int(rng.integers(2, 10))
            g = random_fused_graph(rng, p)
            W = rng.normal(size=(3, p))
            tr = float(np.trace(W @ g.laplacian @ W.T))
            assert tr == pytest.approx(trace_penalty_bruteforce(W, g.adjacency), abs=1e-9)


class TestBuildGraphAndExport:
    def test_alpha_zero_without_macrofauna(self):
        rng = np.random.default_rng(10)
        feats = _features(rng.normal(size=(6, 4)))
        g = build_graph(feats, None, tau=0.5, gamma=0.5, alpha=0.0)
        assert np.all(g.a_macro == 0.0)

    def test_alpha_positive_requires_macrofauna(self):
        rng = np.random.default_rng(11)
        feats = _features(rng.normal(size=(6, 4)))
        with pytest.raises(MissingMacrofauna):
            build_graph(feats, None, tau=0.5, gamma=0.5, alpha=0.3)

    def test_export_roundtrip(self, tmp_path, synth_dataset):
        feats = clr_transform(synth_dataset.abundances, 1e-6)
        g = build_graph(feats, synth_dataset.macrofauna, tau=0.7, gamma=0.9, alpha=0.1)
        export_heatmaps(g, tmp_path)
        for name, matrix in (
            ("a_macro.csv", g.a_macro),
            ("a_co.csv", g.a_co),
            ("adjacency.csv", g.adjacency),
        ):
            header, *rows = csv.reader((tmp_path / name).read_text().splitlines())
            assert header == ["taxon", *g.taxa_names]
            assert [row[0] for row in rows] == g.taxa_names
            loaded = np.array([[float(v) for v in row[1:]] for row in rows])
            assert np.array_equal(loaded, matrix)
        # recomputing L from the re-imported adjacency reproduces it
        assert np.allclose(laplacian_of(loaded), g.laplacian, atol=1e-9)

    def test_export_schema_small_graph(self, tmp_path):
        g = _fused(
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.zeros((2, 2)),
            alpha=1.0,
            taxa_names=["x", "y"],
        )
        export_heatmaps(g, tmp_path)
        lines = (tmp_path / "adjacency.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "taxon,x,y"


VALIDATION_RAISES = {
    **{
        f"laplacian-shape-{'x'.join(map(str, shape))}": (
            lambda shape=shape: laplacian_of(np.zeros(shape)),
            InvalidShape,
            re.escape(f"adjacency must be square, got shape {shape}"),
        )
        for shape in [(2, 3), (3,), (4, 2, 3)]
    },
    "a-co-too-few-sites": (
        lambda: a_co_from_correlations(compute_co_correlations(_features(np.eye(2))), gamma=0.5),
        TooFewSamples,
        "graph construction needs at least 3 sites",
    ),
    "a-co-gamma": (
        lambda: a_co_from_correlations(compute_co_correlations(_features(np.eye(3))), gamma=1.5),
        InvalidValue,
        r"gamma must be in \[0, 1\], got 1.5",
    ),
    "build-graph-alpha": (
        lambda: build_graph(
            _features(np.eye(3)), _counts(np.eye(3, 4, dtype=int)), tau=0.5, gamma=0.5, alpha=1.5
        ),
        InvalidValue,
        r"alpha must be in \[0, 1\], got 1.5",
    ),
    # the parameters are checked before the counts' presence and before any ranking
    **{
        f"build-graph-{name}-without-macrofauna": (
            lambda kwargs=kwargs: build_graph(_features(np.eye(3)), None, **kwargs),
            InvalidValue,
            message,
        )
        for name, kwargs, message in [
            ("tau", dict(tau=7.0, gamma=0.9, alpha=0.0), r"tau must be in \[0, 1\], got 7.0"),
            ("tau-nan", dict(tau=np.nan, gamma=0.9, alpha=0.0), r"tau must be in \[0, 1\], got nan"),
            ("alpha", dict(tau=0.7, gamma=0.9, alpha=1.5), r"alpha must be in \[0, 1\], got 1.5"),
        ]
    },
}


@pytest.mark.parametrize("make, error, message", VALIDATION_RAISES.values(), ids=VALIDATION_RAISES)
def test_validation_raises(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()
