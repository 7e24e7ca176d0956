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

For the atom-light and optomech gates the second subsystem is the
outgoing pulse mode; for the atom-mechanical gate both subsystems are
matter modes and the mediator pulse never carries an input state.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _probability(value: float) -> float:
    """Clip float64 roundoff into [0, 1]; anything further out is an error."""
    if not -_ROUNDOFF <= value <= 1.0 + _ROUNDOFF:
        raise NumericalDomainError(f"element {value!r} lies outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def sector_element(sectors: list[list[float]], spec: InputSpec) -> HomResult:
    """The mixture element: the bilinear p-combination wₐᵀEw_b of the sectors,
    w = (1 − p, p), in plain floats; ``sectors`` is the 2 × 2 nested list
    that a model's or a batch's ``sectors.tolist()`` gives, read once for
    every p."""
    (e00, e01), (e10, e11) = sectors
    pa, pb = spec.p_a, spec.p_b
    return HomResult(_probability(((1.0 - pa) * e00 + pa * e10) * (1.0 - pb) + ((1.0 - pa) * e01 + pa * e11) * pb))


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
