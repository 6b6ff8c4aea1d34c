"""Knowledge-graph construction: adjacency sources, fusion, Laplacian."""

import numpy as np
import pytest

from grmlr.compositional import FeatureMatrix, clr_transform
from grmlr.dataset import MacrofaunaCounts, synthesize_dataset, taxa_blocks
from grmlr.ecograph import (
    build_a_co,
    build_a_macro,
    build_graph,
    compute_macro_profiles,
    export_heatmaps,
    fuse,
    laplacian_of,
    read_matrix_csv,
)
from grmlr.errors import (
    AsymmetricInput,
    InvalidAdjacency,
    InvalidValue,
    Misalignment,
    MissingMacrofauna,
    ShapeMismatch,
    TooFewSamples,
)
from grmlr.rankstats import spearman

from oracles import random_fused_graph, trace_penalty_bruteforce


def _features(values, sites=None, taxa=None):
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    sites = sites or [f"s{i}" for i in range(n)]
    taxa = taxa or [f"t{j}" for j in range(p)]
    return FeatureMatrix(sites, taxa, values)


def _counts(values, sites=None):
    values = np.asarray(values)
    sites = sites or [f"s{i}" for i in range(values.shape[0])]
    return MacrofaunaCounts(sites, values)


class TestAMacro:
    def test_identical_columns_get_unit_edge(self):
        col = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
        feats = _features(np.column_stack([col, col, col[::-1]]))
        counts = _counts(np.array([[1, 2, 0, 1], [3, 1, 2, 0], [2, 0, 1, 2], [5, 4, 3, 1], [4, 3, 1, 3]]))
        a = build_a_macro(feats, counts, tau=1.0)
        assert a[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert a[0, 0] == 0.0

    def test_constant_column_has_no_edges(self):
        base = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
        feats = _features(np.column_stack([base, np.full(5, 2.0), base * 2]))
        counts = _counts(np.array([[1, 2, 0, 1], [3, 1, 2, 0], [2, 0, 1, 2], [5, 4, 3, 1], [4, 3, 1, 3]]))
        a = build_a_macro(feats, counts, tau=0.0)
        assert np.all(a[1, :] == 0.0)
        assert np.all(a[:, 1] == 0.0)

    def test_planted_blocks_have_stronger_within_edges(self):
        ds = synthesize_dataset(n=13, p=8, K=2, n_blocks=2, coupling=1.0, noise=0.0, seed=2)
        feats = clr_transform(ds.abundances, 1e-6)
        a = build_a_macro(feats, ds.macrofauna, tau=0.0)
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
        a = build_a_macro(feats, counts, tau=0.3)
        # brute force: per-taxon profile, then cosine, then threshold
        profiles = np.array(
            [
                [spearman(feats.values[:, j], counts.values[:, c]) for c in range(4)]
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
            build_a_macro(feats, counts, tau=0.5)


class TestACo:
    def test_duplicate_columns_unit_edge(self):
        col = np.array([0.3, -1.0, 2.0, 0.5])
        feats = _features(np.column_stack([col, col, -col]))
        a = build_a_co(feats, gamma=0.5)
        assert a[0, 1] == 1.0
        assert a[0, 2] == 0.0  # negative correlation dropped

    def test_gamma_one_excludes_non_monotone(self):
        feats = _features(
            np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 5.0], [4.0, 4.0]])
        )
        a = build_a_co(feats, gamma=1.0)
        assert np.all(a == 0.0)

    def test_toy_matrix_exactly_one_edge(self):
        base = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        wiggly = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
        feats = _features(np.column_stack([base, base * 2, -base, wiggly]))
        a = build_a_co(feats, gamma=0.9)
        nonzero = {(u, v) for u in range(4) for v in range(4) if a[u, v] != 0.0}
        assert nonzero == {(0, 1), (1, 0)}
        # brute-force check of the surviving pair
        assert a[0, 1] == pytest.approx(spearman(base, base * 2), abs=1e-12)

    def test_thresholding_invariant(self):
        rng = np.random.default_rng(4)
        feats = _features(rng.normal(size=(10, 7)))
        for gamma in (0.0, 0.3, 0.8):
            a = build_a_co(feats, gamma)
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
        assert np.array_equal(fuse(m, c, alpha=0.0).adjacency, c)
        assert np.array_equal(fuse(m, c, alpha=1.0).adjacency, m)

    def test_hand_worked_laplacian(self):
        a_macro = np.array([[0.0, 1.0], [1.0, 0.0]])
        a_co = np.zeros((2, 2))
        g = fuse(a_macro, a_co, alpha=0.5)
        assert np.array_equal(g.adjacency, [[0.0, 0.5], [0.5, 0.0]])
        assert np.array_equal(g.laplacian, [[0.5, -0.5], [-0.5, 0.5]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            fuse(np.zeros((3, 3)), np.zeros((2, 2)), 0.5)

    def test_asymmetric_rejected(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(AsymmetricInput):
            fuse(bad, np.zeros((2, 2)), 0.5)

    def test_negative_or_diagonal_rejected(self):
        neg = np.array([[0.0, -0.1], [-0.1, 0.0]])
        with pytest.raises(InvalidAdjacency):
            fuse(neg, np.zeros((2, 2)), 0.5)
        diag = np.array([[0.2, 0.0], [0.0, 0.0]])
        with pytest.raises(InvalidAdjacency):
            fuse(diag, np.zeros((2, 2)), 0.5)

    def test_fusion_monotone_in_alpha(self):
        rng = np.random.default_rng(6)
        m = np.abs(rng.normal(size=(5, 5)))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        zeros = np.zeros_like(m)
        prev = fuse(m, zeros, alpha=0.0).adjacency
        for alpha in (0.2, 0.5, 0.8, 1.0):
            cur = fuse(m, zeros, alpha=alpha).adjacency
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
            taxa, loaded = read_matrix_csv(tmp_path / name)
            assert taxa == g.taxa_names
            assert np.array_equal(loaded, matrix)
        # recomputing L from the re-imported adjacency reproduces it
        _, adj = read_matrix_csv(tmp_path / "adjacency.csv")
        assert np.allclose(laplacian_of(adj), g.laplacian, atol=1e-9)

    def test_export_schema_small_graph(self, tmp_path):
        g = fuse(
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.zeros((2, 2)),
            alpha=1.0,
            taxa_names=["x", "y"],
        )
        export_heatmaps(g, tmp_path)
        lines = (tmp_path / "adjacency.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "taxon,x,y"


@pytest.mark.parametrize(
    "body, message",
    [
        ("x,0.0,abc\ny,1.0,0.0\n", "taxon 'x', column 'y': not a number: 'abc'"),
        ("x,0.0,nan\ny,1.0,0.0\n", "matrix entries must be finite"),
        ("x,0.0,inf\ny,1.0,0.0\n", "matrix entries must be finite"),
        ("x,0.0\ny,1.0,0.0\n", "row 2 has 2 cells, expected 3"),
        ("y,1.0,0.0\nx,0.0,1.0\n", "rows must list the header's taxa in header order"),
        ("x,0.0,1.0\n", "rows must list the header's taxa in header order"),
        ("x,0.0,1.0\nx,0.0,1.0\n", "row 3 repeats taxon 'x'"),
    ],
)
def test_read_matrix_csv_rejects_malformed_matrix(tmp_path, body, message):
    path = tmp_path / "adjacency.csv"
    path.write_text("taxon,x,y\n" + body)
    with pytest.raises(InvalidValue, match=f"adjacency.csv: {message}"):
        read_matrix_csv(path)


VALIDATION_RAISES = {
    "a-co-too-few-sites": (
        lambda: build_a_co(_features(np.eye(2)), gamma=0.5),
        TooFewSamples,
        "graph construction needs at least 3 sites",
    ),
    "a-co-gamma": (
        lambda: build_a_co(_features(np.eye(3)), gamma=1.5),
        InvalidValue,
        r"gamma must be in \[0, 1\], got 1.5",
    ),
    "fuse-not-square": (
        lambda: fuse(np.zeros((2, 3)), np.zeros((2, 3)), alpha=0.5),
        ShapeMismatch,
        r"a_macro must be square, got \(2, 3\)",
    ),
    "fuse-taxa-names": (
        lambda: fuse(np.zeros((2, 2)), np.zeros((2, 2)), alpha=0.5, taxa_names=["a"]),
        ShapeMismatch,
        "1 taxa names for 2 x 2 adjacency",
    ),
}


@pytest.mark.parametrize("make, error, message", VALIDATION_RAISES.values(), ids=VALIDATION_RAISES)
def test_validation_raises(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()
