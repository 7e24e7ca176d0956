"""Correlated noise-mode bookkeeping for the noisy gate models.

Gate outputs are linear combinations of scalar quadrature variables z:
signal quadratures first, then intracavity initials, loss vacua,
auxiliary temporal modes of the mediator field, and thermal-force
modes.  Distinct temporal modes of the same traveling field are in
general *not* orthogonal; their vacuum-normalized overlaps form the
Gram matrix Σ₀ (unit diagonal) that a basis holds.  Building a basis
checks the stated overlaps by factoring the modes they name.  Every
mode is at vacuum variance; a gate that squeezes a mode scales that
mode's output coefficients instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

_OVERLAP_TOL = 1e-12     # |overlap| may exceed 1 by at most this
_PSD_TOL = 1e-8          # pivot below -this: genuinely impossible overlaps
_DEGENERACY_TOL = 1e-10  # pivot below +this: mode treated as exactly dependent


class OverlapConsistencyError(ValueError):
    """The stated pairwise overlaps do not form a valid Gram matrix."""


def build_gram(labels: Sequence[str], overlaps: Mapping[tuple[str, str], float]) -> np.ndarray:
    """Unit-diagonal Gram matrix from pairwise overlaps (either key order)."""
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("duplicate mode labels")
    gram = np.eye(len(labels))
    for (a, b), value in overlaps.items():
        if a not in index or b not in index:
            raise OverlapConsistencyError(f"overlap references unknown mode ({a!r}, {b!r})")
        if a == b:
            raise OverlapConsistencyError(f"self-overlap stated for {a!r}; diagonal is fixed at 1")
        if abs(value) > 1.0 + _OVERLAP_TOL:
            raise OverlapConsistencyError(
                f"overlap between {a!r} and {b!r} is {value:.6g}, outside [-1, 1]"
            )
        gram[index[a], index[b]] = value
        gram[index[b], index[a]] = value
    return gram


def gram_cholesky(gram: np.ndarray, labels: Sequence[str]) -> np.ndarray:
    """Lower-triangular C with gram = C Cᵀ (sequential orthogonalization).

    Exactly dependent chains are legitimate — long pulses drive some
    temporal modes collinear — so pivots within roundoff of zero are
    clamped to an exact dependence.  Genuinely impossible overlaps
    produce order-one negative pivots and raise
    :class:`OverlapConsistencyError` naming the offending mode pair.
    """
    n = len(labels)
    gram = np.asarray(gram, dtype=float)
    if gram.shape != (n, n):
        raise ValueError("Gram matrix shape does not match the label list")
    with np.errstate(invalid="ignore"):  # inf - inf; equal infinities are symmetric
        symmetric = np.all((np.abs(gram - gram.T) <= 1e-12) | (gram == gram.T))
    if not symmetric:
        raise OverlapConsistencyError("overlap matrix is not symmetric")
    L = np.zeros((n, n))
    for k in range(n):
        row = L[k, :k]
        d = gram[k, k] - float(np.dot(row, row))
        if d < -_PSD_TOL:
            j = int(np.argmax(np.abs(row))) if k else 0
            raise OverlapConsistencyError(
                f"stated overlaps are numerically impossible: mode {labels[k]!r} "
                f"has residual variance {d:.3e} after removing its correlated "
                f"components; strongest conflict is the "
                f"({labels[j]!r}, {labels[k]!r}) pair"
            )
        pivot = math.sqrt(d) if d > _DEGENERACY_TOL else 0.0
        L[k, k] = pivot
        off = gram[k + 1:, k] - L[k + 1:, :k] @ row
        if pivot > 0.0:
            L[k + 1:, k] = off / pivot
        elif (bad := np.flatnonzero(np.abs(off) > _PSD_TOL)).size:
            i = k + 1 + int(bad[0])
            raise OverlapConsistencyError(
                f"mode {labels[k]!r} is fully determined by earlier modes, "
                f"yet a further overlap with {labels[i]!r} is stated; the "
                f"({labels[k]!r}, {labels[i]!r}) pair is inconsistent"
            )
    return L


@dataclass(frozen=True)
class NoiseModeBasis:
    """Ordered quadrature variables z with their vacuum Gram matrix Σ₀.

    ``transform`` is the lower-triangular C with Σ₀ = C Cᵀ, factored on
    first read and read-only: a coefficient row A over z becomes A·C
    over independent unit-variance modes.
    """

    labels: tuple[str, ...]
    gram: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "gram", np.asarray(self.gram, dtype=float))
        if self.gram.shape != (self.n_modes, self.n_modes):
            raise ValueError("gram shape does not match labels")

    @cached_property
    def transform(self) -> np.ndarray:
        C = gram_cholesky(self.gram, self.labels)
        C.flags.writeable = False
        return C

    @cached_property
    def checked_gram(self) -> np.ndarray:
        """``gram``, once its first four modes are checked to be uncorrelated,
        as the signal quadratures a gate's output rows start with (else
        ValueError); checked once per basis."""
        if np.abs(self.gram[:4, :4] - np.eye(4)).max() > 1e-12:
            raise ValueError("signal quadratures must be uncorrelated leading modes")
        return self.gram

    @cached_property
    def column(self) -> dict[str, int]:
        """The column of each label, built once per basis."""
        return {label: j for j, label in enumerate(self.labels)}

    @property
    def n_modes(self) -> int:
        return len(self.labels)


def orthogonalize_noise_modes(
    labels: Sequence[str], overlaps: Mapping[tuple[str, str], float]
) -> NoiseModeBasis:
    """Build a NoiseModeBasis from stated pairwise overlaps.

    The modes the overlaps name are factored in label order, so an
    impossible set raises :class:`OverlapConsistencyError` naming the
    offending pair; any other mode would only add a unit pivot and zeros.
    The Gram matrix is read-only, since many gate models may share it.
    """
    gram = build_gram(labels, overlaps)
    gram.flags.writeable = False
    named = [i for i, lab in enumerate(labels) if any(lab in pair for pair in overlaps)]
    gram_cholesky(gram[np.ix_(named, named)], [labels[i] for i in named])
    return NoiseModeBasis(tuple(labels), gram)
