"""Ecological knowledge graph over microbial taxa.

Two evidence sources produce weighted adjacency matrices over the p taxa:

* macro-coupling: each taxon gets a profile of Spearman correlations
  between its feature column and every macrofauna count column; taxa whose
  profiles point the same way (cosine similarity >= tau) are connected.
* co-occurrence: taxa whose feature columns have pairwise Spearman
  correlation >= gamma are connected.

Both similarities come from one kernel, ``rankstats._correlations``: the
Spearman matrices correlate unit-norm rank columns, and the cosines are
the same Gram product of unit-norm profiles. Both sources then apply one
edge rule: an entry below its cut and the diagonal become 0, and every
other entry keeps its similarity as the edge weight, so negative
similarities never form edges.

The fused adjacency A = alpha * A_macro + (1 - alpha) * A_co feeds the
combinatorial Laplacian L = D - A used as a smoothing penalty downstream.
Every graph is fused by one step, :func:`_fused`: :func:`build_graph`
calls it for the whole data set and the LOOCV fold graphs call it for a
block of folds at a time, each on adjacencies this module built from
training data. The steps from profiles and correlations to a Laplacian
take leading stack axes, one per graph, and build each graph of a stack
bit for bit as they build it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .compositional import FeatureMatrix
from .dataset import MacrofaunaCounts, _write_csv
from .errors import InvalidShape, InvalidValue, Misalignment, MissingMacrofauna, TooFewSamples
from .rankstats import _correlations, spearman_cross, spearman_matrix

@dataclass(eq=False)
class EcologicalGraph:
    """Fused taxa graph: both adjacency sources, their fusion and its Laplacian."""

    taxa_names: list[str]
    a_macro: np.ndarray
    a_co: np.ndarray
    adjacency: np.ndarray
    laplacian: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a_macro", "a_co", "adjacency", "laplacian"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            setattr(self, name, arr)


def compute_macro_profiles(features: FeatureMatrix, macrofauna: MacrofaunaCounts) -> np.ndarray:
    """Per-taxon Spearman profile against every macrofauna category (p x k)."""
    if features.site_ids != macrofauna.site_ids:
        raise Misalignment("features and macrofauna counts are not site-aligned")
    if len(features.site_ids) < 3:
        raise TooFewSamples("graph construction needs at least 3 sites")
    return spearman_cross(features.values, np.asarray(macrofauna.values, dtype=float))


def a_macro_from_profiles(profiles: np.ndarray, tau: float) -> np.ndarray:
    """Cosine similarity of correlation profiles (..., p, k), thresholded at ``tau``.

    Taxa with an all-zero profile (e.g. constant feature columns) get no
    incident edges. Diagonal is 0; the result is exactly symmetric.
    """
    norms = np.sqrt((profiles * profiles).sum(axis=-1))
    ok = norms > 0.0
    # the Spearman kernel correlates unit columns, so the cosines are its Gram product
    unit = np.swapaxes(profiles / np.where(ok, norms, 1.0)[..., None], -1, -2)
    return _edges(_correlations(unit, ok, unit, ok), tau, "tau")


def compute_co_correlations(features: FeatureMatrix) -> np.ndarray:
    """Pairwise Spearman correlations between taxa feature columns (p x p)."""
    if len(features.site_ids) < 3:
        raise TooFewSamples("graph construction needs at least 3 sites")
    return spearman_matrix(features.values)


def a_co_from_correlations(correlations: np.ndarray, gamma: float) -> np.ndarray:
    """Keep positive correlations >= ``gamma`` as edge weights, zero diagonal."""
    return _edges(correlations, gamma, "gamma")


def _edges(similarity: np.ndarray, cut: float, name: str) -> np.ndarray:
    """``similarity`` (..., p, p), entries below ``cut`` (``name``, in [0, 1]) and diagonals 0."""
    _check_unit_interval(cut, name)
    a = np.where(similarity >= cut, similarity, 0.0)
    _diagonal(a)[...] = 0.0
    return a


def laplacian_of(adjacency: np.ndarray) -> np.ndarray:
    """Combinatorial Laplacian D - A of a weighted adjacency matrix (..., p, p)."""
    if adjacency.ndim < 2 or adjacency.shape[-1] != adjacency.shape[-2]:
        raise InvalidShape(f"adjacency must be square, got shape {adjacency.shape}")
    laplacian = np.zeros_like(adjacency)
    _diagonal(laplacian)[...] = adjacency.sum(axis=-1)
    laplacian -= adjacency
    return laplacian


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of each (..., p, p) slice of ``a``."""
    return np.einsum("...ii->...i", a)


def _fused(
    a_macro: np.ndarray, a_co: np.ndarray, alpha: float, taxa_names: list[str]
) -> EcologicalGraph:
    """Convex fusion alpha * a_macro + (1 - alpha) * a_co plus its Laplacian.

    Takes adjacencies built by this module, one graph or a stack of them,
    and a checked ``alpha``, so it checks nothing itself.
    """
    adjacency = alpha * a_macro + (1.0 - alpha) * a_co
    return EcologicalGraph(
        taxa_names=taxa_names,
        a_macro=a_macro,
        a_co=a_co,
        adjacency=adjacency,
        laplacian=laplacian_of(adjacency),
    )


def build_graph(
    features: FeatureMatrix,
    macrofauna: MacrofaunaCounts | None,
    tau: float,
    gamma: float,
    alpha: float,
) -> EcologicalGraph:
    """Construct the full graph from features (and counts when alpha > 0).

    Without macrofauna counts A_macro is all zeros, which only alpha = 0
    allows. The checks run in the order below, before anything is ranked.

    Raises
    ------
    InvalidValue
        If tau, gamma or alpha is outside [0, 1], checked in that order.
    MissingMacrofauna
        If ``macrofauna`` is None and alpha > 0.
    Misalignment
        If the features and the counts are not site-aligned.
    TooFewSamples
        With fewer than 3 sites.
    """
    for value, name in ((tau, "tau"), (gamma, "gamma"), (alpha, "alpha")):
        _check_unit_interval(value, name)
    _require_macrofauna(macrofauna, alpha)
    profiles = None if macrofauna is None else compute_macro_profiles(features, macrofauna)
    co_correlations = compute_co_correlations(features)
    a_macro = _a_macro_or_zeros(profiles, tau, co_correlations)
    a_co = a_co_from_correlations(co_correlations, gamma)
    return _fused(a_macro, a_co, alpha, list(features.taxa_names))


def _require_macrofauna(macro: object, alpha: float) -> None:
    """Raise MissingMacrofauna if ``macro`` (the counts, or their ranks) is None and alpha > 0."""
    if macro is None and alpha > 0.0:
        raise MissingMacrofauna("alpha > 0 requires macrofauna counts to build the graph")


def _a_macro_or_zeros(
    profiles: np.ndarray | None, tau: float, co_correlations: np.ndarray
) -> np.ndarray:
    """A_macro of ``profiles``, or zeros shaped like ``co_correlations`` without them."""
    if profiles is None:
        return np.zeros_like(co_correlations)
    return a_macro_from_profiles(profiles, tau)


def export_heatmaps(graph: EcologicalGraph, out_dir: str | Path) -> list[Path]:
    """Write a_macro.csv, a_co.csv and adjacency.csv into ``out_dir``, full-precision decimals."""
    out = Path(out_dir)
    names = graph.taxa_names
    written = []
    for name, matrix in (
        ("a_macro.csv", graph.a_macro),
        ("a_co.csv", graph.a_co),
        ("adjacency.csv", graph.adjacency),
    ):
        written.append(out / name)
        _write_csv(written[-1], ["taxon", *names], [[t, *row] for t, row in zip(names, matrix)])
    return written


def _check_unit_interval(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise InvalidValue(f"{name} must be in [0, 1], got {value}")
