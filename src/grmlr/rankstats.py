"""Spearman rank correlation with deterministic tie handling.

This is the statistical primitive under both adjacency sources of the
ecological knowledge graph. Ties receive average ranks (the mean of the
positions they occupy), and the correlation is the Pearson correlation of
the two rank vectors. The popular 6*sum(d^2) shortcut is deliberately not
used because it is invalid under ties, and ties are essentially guaranteed
at the sample sizes this package targets.

Convention: if either input is constant, the correlation is defined as 0.
A constant vector carries no rank information, and 0 translates into "no graph
edge" downstream, which is the conservative choice.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch, TooFewSamples


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Return 1-based average ranks of ``values``.

    Tied entries share the mean of the positions they would occupy in a
    sorted ordering, so the rank sum is always n*(n+1)/2.

    Parameters
    ----------
    values : array_like, shape (n,)
        Values to rank, smallest first.

    Returns
    -------
    numpy.ndarray
        Real-valued ranks in the original element order.
    """
    return rank_matrix(np.reshape(values, (-1, 1)))[:, 0]


def rank_matrix(values: np.ndarray) -> np.ndarray:
    """Column-wise :func:`average_ranks` for a 2-D array."""
    m = np.asarray(values, dtype=float)
    order = np.argsort(m, axis=0, kind="stable")
    ordered = np.take_along_axis(m, order, axis=0)
    # sorted positions i..j of a tie group share the rank (i + j) / 2 + 1
    pos = np.broadcast_to(np.arange(m.shape[0])[:, None], m.shape)
    starts = np.ones(m.shape, dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    ends = np.ones(m.shape, dtype=bool)
    ends[:-1] = starts[1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=0)
    last = np.minimum.accumulate(np.where(ends, pos, m.shape[0])[::-1], axis=0)[::-1]
    ranks = np.empty_like(m)
    np.put_along_axis(ranks, order, 0.5 * (first + last) + 1.0, axis=0)
    return ranks


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation between two equal-length vectors.

    Parameters
    ----------
    a, b : array_like, shape (n,)
        Paired observations, n >= 2.

    Returns
    -------
    float
        Correlation in [-1, 1]; 0 if either input is constant.

    Raises
    ------
    LengthMismatch
        If the vectors differ in length.
    TooFewSamples
        If fewer than 2 observations are given.
    """
    return float(spearman_cross(np.reshape(a, (-1, 1)), np.reshape(b, (-1, 1)))[0, 0])


def spearman_matrix(columns: np.ndarray) -> np.ndarray:
    """Pairwise Spearman correlations between the columns of a matrix.

    Equivalent to calling :func:`spearman` on every column pair, but ranks
    each column once. Constant columns yield zero rows/columns; the
    diagonal is 1 except for constant columns, which get 0 everywhere.
    """
    r, ok = _unit_ranks(columns)
    # r.T @ r on one array takes numpy's symmetric kernel, so the result is
    # exactly symmetric
    corr = r.T @ r
    corr[~ok, :] = 0.0
    corr[:, ~ok] = 0.0
    np.fill_diagonal(corr, np.where(ok, 1.0, 0.0))
    return snap_to_unit(np.clip(corr, -1.0, 1.0))


def spearman_cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Spearman correlations between every column of ``x`` and of ``y``.

    Returns a (x_cols, y_cols) matrix; entries involving a constant column
    are 0 by the package convention.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] != y.shape[0]:
        raise LengthMismatch(f"row counts differ: {x.shape[0]} vs {y.shape[0]}")
    rx, okx = _unit_ranks(x)
    ry, oky = _unit_ranks(y)
    corr = rx.T @ ry
    corr[~okx, :] = 0.0
    corr[:, ~oky] = 0.0
    return snap_to_unit(np.clip(corr, -1.0, 1.0))


def _unit_ranks(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column ranks centred and scaled to unit norm, plus the non-constant mask.

    Constant columns are left at zero (their mask entry is False).
    """
    m = np.asarray(columns, dtype=float)
    if m.shape[0] < 2:
        raise TooFewSamples("Spearman correlation needs at least 2 observations")
    r = rank_matrix(m)
    r = r - r.mean(axis=0, keepdims=True)
    norms = np.sqrt((r * r).sum(axis=0))
    ok = norms > 0.0
    return r / np.where(ok, norms, 1.0), ok


def snap_to_unit(values: np.ndarray) -> np.ndarray:
    """Round magnitudes within 1e-12 of 1 to exactly +/-1.

    Correlations and cosines are bounded by 1; exact collinearity can land
    one ulp short after normalization, which would otherwise fail a
    threshold of exactly 1.
    """
    return np.where(np.abs(np.abs(values) - 1.0) <= 1e-12, np.sign(values), values)
