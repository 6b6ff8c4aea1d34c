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

Leave-one-out evaluation needs the correlations of every training set that
leaves out one row. Those are not ranked anew: with row i removed, the
average rank of row j in a column z becomes

    r_-i(j) = r(j) - [r(i) < r(j)] - 1/2 * [r(i) == r(j)]

because row j's rank is the count of smaller values plus half of one more
than the count of values equal to its own, and ranks order the rows as
their values z do, ties included. Ranks are multiples of 1/2, far below
2**53, so the subtraction is exact in floating point, and so are the
centring and the sum of squares that follow. Each fold's unit ranks are
therefore bit-identical to those of its training rows ranked from scratch,
and so are its correlations, which a stacked product computes slice by
slice with the call a lone matrix gets.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidValue, LengthMismatch, TooFewSamples


def rank_matrix(values: np.ndarray) -> np.ndarray:
    """1-based average ranks of each column of a 2-D array, smallest first.

    Ties share the mean of the positions they would occupy when sorted. NaN
    has no rank, so it raises InvalidValue; +/-inf rank as the extremes.
    """
    m = np.asarray(values, dtype=float)
    if np.isnan(m).any():
        raise InvalidValue("cannot rank NaN")
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


def spearman_matrix(columns: np.ndarray) -> np.ndarray:
    """Pairwise Spearman correlations between the columns of a matrix.

    Equal, up to rounding, to :func:`spearman_cross` of the matrix with
    itself, but ranks each column once. Constant columns yield zero
    rows/columns; the diagonal is 1 except for constant columns, which get 0
    everywhere.
    """
    r, ok = _unit_ranks(columns)
    return _correlations(r, ok, r, ok)


def spearman_cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Spearman correlations between every column of ``x`` and of ``y``.

    Returns a (x_cols, y_cols) matrix; entries involving a constant column
    are 0 by the package convention.

    Raises
    ------
    InvalidValue
        If either matrix holds NaN.
    LengthMismatch
        If the row counts differ.
    TooFewSamples
        If fewer than 2 rows are given.
    """
    if len(x) != len(y):
        raise LengthMismatch(f"row counts differ: {len(x)} vs {len(y)}")
    return _correlations(*_unit_ranks(x), *_unit_ranks(y))


def _unit_ranks(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column ranks centred and scaled to unit norm, plus the non-constant mask.

    Constant columns are left at zero (their mask entry is False).
    """
    if len(columns) < 2:
        raise TooFewSamples("Spearman correlation needs at least 2 observations")
    return _unit(rank_matrix(columns))


def _unit(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre the ranks ``r`` (..., rows, columns) and scale each column to unit norm, in place.

    Returns ``r`` and the (..., columns) mask of non-constant columns;
    constant columns are left at zero. Every step but the last division is
    exact (see the module docstring), so a column's unit ranks do not
    depend on the stack it sits in.
    """
    r -= r.mean(axis=-2, keepdims=True)
    norms = np.sqrt(np.einsum("...ij,...ij->...j", r, r))
    ok = norms > 0.0
    r /= np.where(ok, norms, 1.0)[..., None, :]
    return r, ok


def _leave_one_out(ranks: np.ndarray, removed: slice, kept: np.ndarray) -> tuple:
    """Unit ranks of a table without each of its rows ``removed`` in turn.

    ``ranks`` is the table's ``rank_matrix``, n x columns, and ``kept[i]``
    lists the n - 1 other rows of the i-th removed, in order. Returns the
    (b, n-1, columns) stack of what ``_unit_ranks`` gives for rows
    ``kept[i]``, b rows being removed, and the (b, columns) non-constant
    masks. Each slice is downdated from ``ranks``, left unchanged, by the
    module docstring's identity; none is ranked anew or reads the others.
    """
    r = ranks[kept]
    # [i, j, c] compares the i-th removed row with the j-th kept one in column c
    gone = ranks[removed, None, :]
    tied = gone == r
    r -= gone < r
    np.subtract(r, 0.5, out=r, where=tied)
    return _unit(r)


def _correlations(rx: np.ndarray, okx: np.ndarray, ry: np.ndarray, oky: np.ndarray) -> np.ndarray:
    """Correlations of the unit-norm columns ``rx`` (..., m, a) with ``ry`` (..., m, b).

    The columns are centred ranks from :func:`_unit`, whose Gram products
    are Spearman correlations, or any other unit-norm columns, such as the
    macro-coupling profiles whose Gram product is their cosine similarity.
    ``okx`` and ``oky`` are the masks of the columns that are not zero.
    Stacks are multiplied in one ``np.matmul``, which fits each slice the
    same BLAS call as a lone matrix, so a slice's result does not depend on
    the stack. Entries of zero columns are then zeroed and the result is
    clipped to [-1, 1], on the whole stack at once; every step is
    elementwise, so neither depends on the stack either. Magnitudes within
    1e-12 of 1 are snapped to exactly +/-1: exact collinearity can land one
    ulp short after normalization, which would otherwise fail a threshold
    of exactly 1. With ``ry`` the same array as ``rx``, numpy's symmetric
    kernel makes every slice exactly symmetric, and its diagonal is 1 for
    nonzero columns and 0 for zero ones.
    """
    corr = np.matmul(np.swapaxes(rx, -1, -2), ry)
    np.copyto(corr, 0.0, where=~(okx[..., :, None] & oky[..., None, :]))
    if ry is rx:
        np.einsum("...ii->...i", corr)[...] = np.where(okx, 1.0, 0.0)
    np.clip(corr, -1.0, 1.0, out=corr)
    np.copyto(corr, np.sign(corr), where=np.abs(np.abs(corr) - 1.0) <= 1e-12)
    return corr
