"""Centered log-ratio transform from the simplex to Euclidean space.

Relative abundances live on a simplex (non-negative, rows summing to 1),
where Euclidean statistics are distorted by the closure constraint. The
centered log-ratio (CLR) transform maps each row into the zero-sum
hyperplane of R^p:

    z_j = log(x_j + eps) - mean_k log(x_k + eps)

The pseudo-count ``eps`` is added to every component, including strictly
positive ones, so the transform is well defined in the presence of zeros
and the bias is uniform across components. Natural logarithm throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import AbundanceMatrix, reject_non_finite
from .errors import InvalidShape, InvalidValue


@dataclass(eq=False)
class FeatureMatrix:
    """Site-by-taxon real feature matrix (CLR coordinates or raw fractions)."""

    site_ids: list[str]
    taxa_names: list[str]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.site_ids), len(self.taxa_names)):
            raise InvalidValue(
                f"feature matrix shape {self.values.shape} does not match "
                f"{len(self.site_ids)} sites x {len(self.taxa_names)} taxa"
            )
        if len(set(self.site_ids)) != len(self.site_ids):
            raise InvalidValue("duplicate site ids in feature matrix")
        if len(set(self.taxa_names)) != len(self.taxa_names):
            raise InvalidValue("duplicate taxa names in feature matrix")
        reject_non_finite(self.values, self.site_ids, self.taxa_names, "feature", "taxon")
        self.values.setflags(write=False)


def clr(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Row-wise CLR transform of a positive matrix.

    Parameters
    ----------
    values : array_like, shape (n, p)
        Finite non-negative entries; strictly positive required when
        ``epsilon`` is 0. Rows need not be closed to 1 (the transform is
        invariant to row scale at ``epsilon=0``).
    epsilon : float
        Pseudo-count added inside the logarithm, >= 0; no default.

    Returns
    -------
    numpy.ndarray
        Matrix of the same shape whose rows sum to 0 (up to rounding).
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 2:
        raise InvalidShape(f"CLR needs an n x p matrix, got shape {x.shape}")
    if epsilon < 0:
        raise InvalidValue(f"pseudo-count must be >= 0, got {epsilon}")
    shifted = x + epsilon
    if not np.isfinite(shifted).all():
        raise InvalidValue("CLR requires finite entries")
    if np.any(shifted <= 0):
        raise InvalidValue("CLR requires strictly positive entries after the pseudo-count")
    logs = np.log(shifted)
    return logs - logs.mean(axis=1, keepdims=True)


def clr_transform(abundances: AbundanceMatrix, epsilon: float) -> FeatureMatrix:
    """CLR-transform an abundance matrix into a :class:`FeatureMatrix`.

    ``epsilon`` is the pseudo-count of :func:`clr`, with no default. Taxa
    order is preserved; every output row sums to 0 up to rounding.
    """
    return FeatureMatrix(
        site_ids=list(abundances.site_ids),
        taxa_names=list(abundances.taxa_names),
        values=clr(abundances.values, epsilon),
    )


def raw_features(abundances: AbundanceMatrix) -> FeatureMatrix:
    """Wrap raw relative abundances as features, bypassing the CLR map.

    Used by the no-CLR ablation arm; rows sum to 1, not 0.
    """
    return FeatureMatrix(
        site_ids=list(abundances.site_ids),
        taxa_names=list(abundances.taxa_names),
        values=np.array(abundances.values, dtype=float),
    )
