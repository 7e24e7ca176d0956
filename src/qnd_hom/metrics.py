"""Bunching matrix element ⟨HOM|ρ_out|HOM⟩ for gate models.

The input on the two signal subsystems is the mixture
(p_a|1⟩⟨1| + (1−p_a)|0⟩⟨0|) ⊗ (p_b|1⟩⟨1| + (1−p_b)|0⟩⟨0|), so the
element is the bilinear p-combination of four sectors E_ij, the element
for input |i⟩⟨i| ⊗ |j⟩⟨j|.  All four are read off one generating-function
jet (:func:`qnd_hom.gaussian.hom_jet`): they are exact, with no
occupation parameter and no extrapolation.  The jet is read once, when
the model's :class:`~qnd_hom.gates.GateBatch` is built, in one stacked
evaluation for the whole batch; a model built alone is a batch of one, so
a point's sectors do not depend on the batch it is read in.  The model
holds its kernels, jet and sectors, and the element reads its sectors
there, so nothing here checks or computes them again.  The coherent-input
forms read the same kernels and jet in :mod:`qnd_hom.thresholds`, so the
threshold accepts the gates the element accepts.

The mixture is one formula, wₐᵀEw_b with w = (1 − p, p) (:func:`_mixture`),
evaluated on plain floats for one model (:func:`sector_element`) and on
arrays for a whole batch at every p at once (:func:`batch_elements`); the
[0, 1] check and the clip take the same steps on both, so a batch's
elements are the lone model's, bit for bit.

For the atom-light and optomech gates the second subsystem is the
outgoing pulse mode; for the atom-mechanical gate both subsystems are
matter modes and the mediator pulse never carries an input state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import NumericalDomainError
from .gates import GateModel, ideal_gate_model

# Accepted and ignored: the element is the exact n → 0 limit.
DEFAULT_OCCUPATION = 1e-3

# float64 roundoff allowed outside [0, 1] before an element is an error
_ROUNDOFF = 1e-12


@dataclass(frozen=True)
class InputSpec:
    """Mixture input: single-quantum fractions per signal subsystem.

    The third field ``n`` is accepted and ignored.
    """

    p_a: float
    p_b: float
    n: float = DEFAULT_OCCUPATION

    def __post_init__(self):
        if not (0.0 <= self.p_a <= 1.0 and 0.0 <= self.p_b <= 1.0):
            raise ValueError("single-quantum fractions must lie in [0, 1]")


@dataclass(frozen=True)
class HomResult:
    """Bunching element; ``error_estimate`` is 0.0, since the element
    carries no truncation or extrapolation error."""

    value: float
    error_estimate: float = 0.0

    def __float__(self) -> float:
        return self.value


def _mixture(sectors, wa, wb):
    """wₐᵀEw_b for the weights w = (1 − p, p) of each subsystem: on plain
    floats for the 2 × 2 nested list (e00, e01), (e10, e11), or elementwise
    on arrays that broadcast."""
    (e00, e01), (e10, e11) = sectors
    (qa, pa), (qb, pb) = wa, wb
    return (qa * e00 + pa * e10) * qb + (qa * e01 + pa * e11) * pb


def _outside(value: float) -> NumericalDomainError:
    return NumericalDomainError(f"element {value!r} lies outside [0, 1]")


def _probability(value: float) -> float:
    """Clip float64 roundoff into [0, 1]; anything further out is an error."""
    if not -_ROUNDOFF <= value <= 1.0 + _ROUNDOFF:
        raise _outside(value)
    return min(max(value, 0.0), 1.0)


def sector_element(sectors: list[list[float]], spec: InputSpec) -> HomResult:
    """The mixture element of one model in plain floats; ``sectors`` is the
    2 × 2 nested list that a model's or a batch's ``sectors.tolist()`` gives,
    read once for every p."""
    return HomResult(_probability(_mixture(sectors, (1.0 - spec.p_a, spec.p_a), (1.0 - spec.p_b, spec.p_b))))


def batch_elements(sectors: np.ndarray, p_values: Sequence[float]) -> tuple[np.ndarray, list]:
    """The elements of a batch's sectors (N × 2 × 2) at every input pₐ = p_b = p
    of ``p_values``, in one array pass: the N × P elements, each clipped into
    [0, 1] as :func:`_probability` clips it, and per point None or the
    NumericalDomainError of its first element (in p order) outside [0, 1]
    beyond roundoff, NaN included.  Point i's elements and error are what
    :func:`sector_element` gives from its sectors alone, bit for bit."""
    p = np.asarray(p_values, dtype=float)
    w = (1.0 - p, p)
    value = _mixture(sectors.transpose(1, 2, 0)[..., None], w, w)
    low, high = value.min(), value.max()
    errors = [None] * len(value)
    if not (-_ROUNDOFF <= low and high <= 1.0 + _ROUNDOFF):  # some element is out, or NaN
        bad = ~((-_ROUNDOFF <= value) & (value <= 1.0 + _ROUNDOFF))
        for i in np.flatnonzero(bad.any(axis=1)).tolist():
            errors[i] = _outside(value[i, bad[i].argmax()].item())
    if not low >= 0.0:  # max(value, 0.0), then min(·, 1.0)
        value = np.where(value < 0.0, 0.0, value)
    if not high <= 1.0:
        value = np.where(value > 1.0, 1.0, value)
    return value, errors


def hom_element_for_gate(model: GateModel, spec: InputSpec) -> HomResult:
    """⟨HOM|ρ_out|HOM⟩ for a gate model and mixture input."""
    return sector_element(model.sectors.tolist(), spec)


def hom_element_ideal_via_wigner(
    G: float,
    p_a: float,
    p_b: float,
    n: float = DEFAULT_OCCUPATION,
    extrapolate: bool = True,
) -> float:
    """Ideal-gate element through the Gaussian engine.

    Exists as the cross-validation bridge to the truncated-Fock oracle
    and the closed forms; returns the plain number.  ``n`` and
    ``extrapolate`` are accepted and ignored.
    """
    return hom_element_for_gate(ideal_gate_model(G), InputSpec(p_a, p_b)).value
