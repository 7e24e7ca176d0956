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
holds its kernels, jet and sectors, and the element and the coherent
forms read them there, so both accept the same gates, and nothing here
checks or computes them again.

For the atom-light and optomech gates the second subsystem is the
outgoing pulse mode; for the atom-mechanical gate both subsystems are
matter modes and the mediator pulse never carries an input state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import NumericalDomainError
from .gates import GateModel, as_gate_model, ideal_gate_model

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


def sector_element(sectors: np.ndarray, spec: InputSpec) -> HomResult:
    """The mixture element: the bilinear p-combination wₐᵀEw_b of the sectors,
    w = (1 − p, p), in plain floats."""
    (e00, e01), (e10, e11) = np.asarray(sectors).tolist()
    pa, pb = spec.p_a, spec.p_b
    return HomResult(_probability(((1.0 - pa) * e00 + pa * e10) * (1.0 - pb) + ((1.0 - pa) * e01 + pa * e11) * pb))


def hom_element_for_gate(model: GateModel, spec: InputSpec) -> HomResult:
    """⟨HOM|ρ_out|HOM⟩ for a gate model and mixture input."""
    return sector_element(model.sectors, spec)


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


def coherent_jets(model: GateModel) -> tuple[np.ndarray, np.ndarray]:
    """Projector jets of a gate for coherent signal inputs, off the model's kernels and jet.

    Returns ``c``, the jet (c₀, c_a, c_b, c_ab) of (1+y_a)(1+y_b)·4/√det S(y)
    with S(y) = V_vac + I + 2y_a B_aB_aᵀ + 2y_b B_bB_bᵀ (the element's jet at
    zero signal variables), and ``Q`` (4, 4, 4), the quadratic forms over the
    input quadrature means whose values are the jet (q₀, q_a, q_b, q_ab) of
    dᵀS(y)⁻¹d, d the output mean.
    """
    c, K = model.jet[[0, 4, 8, 12]], model.kernels
    # S(y)⁻¹ to first order: S₀⁻¹ − 2y_a S₀⁻¹AS₀⁻¹ − 2y_b S₀⁻¹BS₀⁻¹ + 4y_a y_b (S₀⁻¹AS₀⁻¹BS₀⁻¹ + S₀⁻¹BS₀⁻¹AS₀⁻¹),
    # A = B_aB_aᵀ, B = B_bB_bᵀ; per quadrature, k = K/2 over (signal a, signal b, B_a, B_b) holds each factor
    k = 0.5 * K
    aa, bb, ab = (k[:, i, :2, None] * k[:, j, None, :2] for i, j in ((2, 2), (3, 3), (2, 3)))
    forms = (k[:, :2, :2], -2.0 * aa, -2.0 * bb, 4.0 * k[:, 2, 3, None, None] * (ab + ab.transpose(0, 2, 1)))
    Q = np.zeros((4, 2, 2, 2, 2))  # (form, mode, quadrature, mode, quadrature)
    Q[:, :, [0, 1], :, [0, 1]] = np.stack(forms, axis=1)
    return c, Q.reshape(4, 4, 4)


def coherent_coefficient(c: np.ndarray, q0, qa, qb, qab):
    """y_a·y_b coefficient of c(y)·exp(−q(y)/2): the coherent element
    exp(−q₀/2)·P, P = c₀(q_a q_b/4 − q_ab/2) − (c₁q_b + c₂q_a)/2 + c₃
    (elementwise on arrays of q values)."""
    return np.exp(-0.5 * q0) * (c[0] * (0.25 * qa * qb - 0.5 * qab) - 0.5 * (c[1] * qb + c[2] * qa) + c[3])


def coherent_output_element(model: GateModel | float, means: np.ndarray) -> float:
    """Element for coherent signal inputs with quadrature means
    (X_a, P_a, X_b, P_b) — twice the coherent amplitudes — propagated
    through the gate; all noise modes stay at zero mean.

    A bare number is accepted in place of a model and denotes the
    ideal gate with that gain.
    """
    means = np.asarray(means, dtype=float)
    if means.shape != (4,):
        raise ValueError("means must be a quadrature 4-vector")
    c, Q = coherent_jets(as_gate_model(model))
    return _probability(float(coherent_coefficient(c, *(means @ Q @ means))))
