"""The five gate models: two noiseless references and three noisy pulse gates.

The references are the ideal QND gate and the beam splitter.  The
pulse gates are three physical realizations of a QND-type entangling
map with added Gaussian noise: an atomic ensemble coupled to a
traveling light pulse, a mechanical oscillator read out by the same
kind of pulse, and the cascaded atom-mechanical gate where the pulse
mediates an effective direct interaction between the two matter
systems (feedforward makes the two gains equal by construction).  The
atom-light gate is the optomechanical pulse gate without
rethermalization (Γ = 0).

Each builder expresses the output quadratures (X_a, P_a, X_b, P_b) as
rows of a coefficient matrix A over a vector z of scalar quadrature
variables: signal quadratures first, then auxiliary temporal modes of
the traveling field, intracavity initials, loss vacua and thermal-force
modes.  Distinct temporal modes of one field overlap; the stated
pairwise overlaps go through :func:`qnd_hom.modes.orthogonalize_noise_modes`
so that covariances are assembled over independent unit-variance
latents.  Because every flat-top signal/mediator mode precedes the
auxiliary modes of its family, the first four latent slots always
coincide with the physical signal quadratures.

All rates are in units of the cavity decay κ (κ_A = κ_M = κ = 1) and
times in units of 1/κ; ``kappa_tau`` is the dimensionless pulse length
and ``S`` the mediator squeezing in dB.  Each params field carries the
name that the command line and the configuration files use, and
:data:`GATES` maps every gate kind to its params class and builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Mapping

import numpy as np

from .gaussian import bs_matrix, check_physical, qnd_matrix
from .modes import NoiseModeBasis, apply_squeezing, orthogonalize_noise_modes


# ----------------------------------------------------------------------
# Parameter sets
# ----------------------------------------------------------------------

_POSITIVE = ("must be positive", lambda x: x > 0)

# the range rule of every gate parameter, by the name the user types
_RULES = {
    "G": ("must be finite", math.isfinite),  # a gain of either sign
    "T": ("must lie in [0, 1]", lambda x: 0.0 <= x <= 1.0),
    "g": _POSITIVE,
    "gA": _POSITIVE,
    "gM": _POSITIVE,
    "kappa_tau": _POSITIVE,
    "eta": ("must lie in (0, 1]", lambda x: 0.0 < x <= 1.0),
    "Gamma": ("must be non-negative", lambda x: x >= 0),
    "S": ("must lie in [0, 20]", lambda x: 0.0 <= x <= 20.0),
}


def _check(name: str, value: float) -> None:
    """Raise ValueError, naming the parameter, unless the value is finite
    and within its range rule."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    rule, holds = _RULES[name]
    if not holds(value):
        raise ValueError(f"{name} {rule}")


class _Params:
    """Checks every field of a params dataclass against its rule."""

    def __post_init__(self):
        for f in fields(self):
            _check(f.name, getattr(self, f.name))


@dataclass(frozen=True)
class IdealParams(_Params):
    G: float


@dataclass(frozen=True)
class BeamSplitterParams(_Params):
    T: float


@dataclass(frozen=True)
class AtomLightParams(_Params):
    g: float
    kappa_tau: float
    eta: float = 1.0


@dataclass(frozen=True)
class OptomechParams(_Params):
    g: float
    kappa_tau: float
    eta: float = 1.0
    Gamma: float = 0.0


@dataclass(frozen=True)
class AtomMechParams(_Params):
    gA: float
    gM: float
    kappa_tau: float
    eta: float = 1.0
    Gamma: float = 0.0
    S: float = 0.0


# ----------------------------------------------------------------------
# Constants of the temporal-mode decompositions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PulseGateConstants:
    """Atom-light / optomech constants at pulse length τ (κ=1).

    K1, L, L1, Kf, Kf1, Kff1 describe the normalized temporal modes of
    the output pulse and their overlaps; M, M1 and theta are quoted per
    unit coupling g/κ (multiply by g to get the physical value).
    """

    kappa_tau: float
    K1: float
    L: float
    L1: float
    Kf: float
    Kf1: float
    Kff1: float
    M: float
    M1: float
    theta: float


@dataclass(frozen=True)
class AtomMechConstants:
    """Cascaded-gate constants at pulse length τ (κ=1).

    K1..K6 normalize the temporal modes with weights
    w1=1-2e^{-s}, w2=1-e^{-s}, w3=s-1+e^{-s}, w5=1-4se^{-s},
    w6=1-e^{-s}(2s+1); K4=∫w3 and K7=∫w2·w5 are plain integrals.
    E is the gain bracket e^{-τ}(τ+2)+τ-2, so the symmetric gain is
    𝔊 = 2·gA·gM·√η·E.
    """

    kappa_tau: float
    K1: float
    K2: float
    K3: float
    K4: float
    K5: float
    K6: float
    K7: float
    E: float


def atom_light_constants(kappa_tau: float) -> PulseGateConstants:
    """Closed-form temporal-mode constants for the pulsed readout."""
    _check("kappa_tau", kappa_tau)
    tau = float(kappa_tau)
    em, em2 = math.exp(-tau), math.exp(-2.0 * tau)
    K1 = math.sqrt((1.0 - em2) / 2.0)
    L = 2.0 * math.sqrt(1.0 - 2.0 * (1.0 - em) / tau + (1.0 - em2) / (2.0 * tau))
    Kf = (1.0 - em) / math.sqrt(tau)
    Kf1 = (2.0 / L) * (1.0 - (1.0 - em) / tau) - 1.0
    L1 = math.sqrt(max(2.0 - (4.0 / L) * (1.0 - (1.0 - em) / tau), 0.0))
    Kff1 = (2.0 / (L * math.sqrt(tau))) * ((1.0 - em) - (1.0 - em2) / 2.0) - (1.0 - em) / math.sqrt(tau)
    # thermal-force mode shape w(s) = s-1+e^{-s}: norm M and mean M1, per unit g
    I2 = ((tau - 1.0) ** 3 + 1.0) / 3.0 - 2.0 * tau * em + (1.0 - em2) / 2.0
    M = math.sqrt(2.0 * I2 / tau)
    M1 = math.sqrt(2.0 / tau) * (tau**2 / 2.0 - tau + 1.0 - em)
    theta = 1.0 - em
    return PulseGateConstants(tau, K1, L, L1, Kf, Kf1, Kff1, M, M1, theta)


def atom_mech_constants(kappa_tau: float) -> AtomMechConstants:
    """Closed-form constants of the cascaded atom-mechanical gate."""
    _check("kappa_tau", kappa_tau)
    tau = float(kappa_tau)
    em, em2 = math.exp(-tau), math.exp(-2.0 * tau)
    K1 = math.sqrt(1.0 / (tau - 2.0 + 4.0 * em - 2.0 * em2))
    K2 = math.sqrt(2.0 / (4.0 * em + 2.0 * tau - 3.0 - em2))
    K3 = math.sqrt(6.0 / (3.0 + 2.0 * tau * (3.0 + tau * (tau - 3.0)) - 3.0 * em2 - 12.0 * em * tau))
    K4 = (2.0 * (1.0 - tau) - 2.0 * em + tau**2) / 2.0
    K5 = math.sqrt(1.0 / ((tau - 4.0) + 8.0 * em * (1.0 + tau) - 4.0 * em2 * (1.0 + 2.0 * tau * (1.0 + tau))))
    K6 = math.sqrt(2.0 / ((2.0 * tau - 7.0) + 4.0 * em * (2.0 * tau + 3.0) - em2 * (5.0 + 4.0 * tau * (2.0 + tau))))
    K7 = (tau - 4.0) + em * (5.0 + 4.0 * tau) - em2 * (1.0 + 2.0 * tau)
    E = em * (tau + 2.0) + tau - 2.0
    return AtomMechConstants(tau, K1, K2, K3, K4, K5, K6, K7, E)


# ----------------------------------------------------------------------
# Gate models
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GateModel:
    """Linear output map of one gate over its correlated mode vector z.

    ``output_matrix`` rows are (X_a, P_a, X_b, P_b).  The z entries of
    the two input systems occupy the first four latent slots unchanged.
    Construction is the one physicality check of the vacuum output
    covariance; everything that reads a model relies on it.
    """

    output_matrix: np.ndarray
    basis: NoiseModeBasis
    gains: Mapping[str, float]

    def __post_init__(self):
        A = np.asarray(self.output_matrix, dtype=float)
        if A.shape != (4, self.basis.n_modes):
            raise ValueError("output matrix must be 4 × n_modes")
        object.__setattr__(self, "output_matrix", A)
        for i in range(4):
            row = self.basis.transform[i]
            if abs(row[i] - 1.0) > 1e-12 or np.any(np.abs(np.delete(row, i)) > 1e-12):
                raise ValueError("signal quadratures must be uncorrelated leading modes")
        check_physical(self.vacuum_output_cov, tol=1e-9)

    @cached_property
    def latent_map(self) -> np.ndarray:
        """Output map à = A·C over independent unit-variance latents."""
        return self.output_matrix @ self.basis.transform

    @cached_property
    def vacuum_output_cov(self) -> np.ndarray:
        """A Σ Aᵀ with every latent in vacuum."""
        return self.latent_map @ self.latent_map.T


def signal_gate_model(matrix: np.ndarray, gains: Mapping[str, float]) -> GateModel:
    """Noiseless gate: a 4 × 4 map of the two signal modes alone."""
    basis = NoiseModeBasis(("X_a0", "P_a0", "X_b0", "P_b0"), np.eye(4))
    return GateModel(matrix, basis, gains)


def ideal_gate_model(G: float) -> GateModel:
    """Noiseless QND gate with a single gain G (no extra modes)."""
    return signal_gate_model(qnd_matrix(G), {"G": float(G)})


def build_ideal_gate(params: IdealParams) -> GateModel:
    return ideal_gate_model(params.G)


def build_bs_gate(params: BeamSplitterParams) -> GateModel:
    return signal_gate_model(bs_matrix(params.T), {"T": params.T})


def as_gate_model(model: GateModel | float) -> GateModel:
    """A gate model as given; a bare number denotes the ideal gate with that gain."""
    return model if isinstance(model, GateModel) else ideal_gate_model(float(model))


_PULSE_LABELS = (
    "X_a0", "P_a0", "X_L0", "Y_L0", "X_0f1", "Y_0k", "Y_0f1",
    "x_c", "p_c", "x_v", "p_v", "zeta_XM", "zeta_PM", "zeta_XMf",
)


def build_atom_light_gate(params: AtomLightParams) -> GateModel:
    """Atomic ensemble (mode a) entangled with a traveling pulse (mode b):
    the pulse gate of :func:`build_optomech_gate` at Γ = 0."""
    return build_optomech_gate(OptomechParams(params.g, params.kappa_tau, params.eta))


def build_optomech_gate(params: OptomechParams) -> GateModel:
    """Mechanical oscillator (mode a) entangled with a traveling pulse
    (mode b), with rethermalization forces at rate Γ = γ·n_th.

    z: X_a0, P_a0, X_L0, Y_L0, X_0f1, Y_0k, Y_0f1, x_c, p_c, x_v, p_v,
    zeta_XM, zeta_PM, zeta_XMf.
    """
    g, tau, eta, Gamma = params.g, params.kappa_tau, params.eta, params.Gamma
    c = atom_light_constants(tau)
    em = math.exp(-tau)
    GA = g * math.sqrt(2.0 * tau)
    GL = GA * math.sqrt(eta) * (1.0 - (1.0 - em) / tau)
    TL = math.sqrt(eta) * (c.L - 1.0)
    theta = g * c.theta
    s_cav = math.sqrt(2.0 * eta) * (1.0 - em) / math.sqrt(tau)
    s_loss = math.sqrt(1.0 - eta)
    A = np.zeros((4, 14))
    A[0, 0] = 1.0
    A[0, 11] = math.sqrt(2.0 * Gamma * tau)
    A[1, 1] = 1.0
    A[1, 3] = -GA
    A[1, 8] = -theta
    A[1, 5] = GA * c.K1 / math.sqrt(tau)
    A[1, 12] = math.sqrt(2.0 * Gamma * tau)
    A[2, 2] = TL
    A[2, 0] = GL
    A[2, 9] = s_loss
    A[2, 7] = s_cav
    A[2, 4] = math.sqrt(eta) * c.L * c.L1
    A[2, 13] = math.sqrt(eta) * math.sqrt(2.0 * Gamma) * g * c.M
    A[3, 3] = TL
    A[3, 10] = s_loss
    A[3, 8] = s_cav
    A[3, 6] = math.sqrt(eta) * c.L * c.L1
    overlaps = {
        ("X_L0", "X_0f1"): c.Kf1 / c.L1,
        ("Y_L0", "Y_0k"): c.Kf / c.K1,
        ("Y_L0", "Y_0f1"): c.Kf1 / c.L1,
        ("Y_0k", "Y_0f1"): c.Kff1 / (c.L1 * c.K1),
        ("zeta_XM", "zeta_XMf"): c.M1 / (math.sqrt(tau) * c.M),
    }
    basis = orthogonalize_noise_modes(_PULSE_LABELS, overlaps)
    return GateModel(A, basis, {"G_A": GA, "G_L": GL, "T_L": TL, "theta": theta})


_ATOM_MECH_LABELS = (
    "X_A0", "P_A0", "X_M0", "P_M0",
    "X_in", "X_in_f", "P_in",
    "x_vac", "p_vac",
    "x_c", "p_c", "x_cp", "p_cp",
    "zeta_XM", "zeta_PM", "zeta_XMf",
)


def build_atom_mech_gate(params: AtomMechParams) -> GateModel:
    """Symmetric atom-mechanical gate mediated by a light pulse.

    Subsystem a is the atomic ensemble, b the mechanical oscillator;
    after feedforward both cross gains equal 𝔊 = 2·gA·gM·√η·E(τ)
    (equivalently gA·gM·√η·τ·[1+e^{-τ}-(2/τ)(1-e^{-τ})]).  The mediator
    pulse enters through the temporal modes X_in, X_in_f, P_in, which
    carry the initial squeezing (P_in squeezed, X_in, X_in_f
    anti-squeezed).
    """
    gA, gM = params.gA, params.gM
    tau, eta, Gamma = params.kappa_tau, params.eta, params.Gamma
    c = atom_mech_constants(tau)
    em = math.exp(-tau)
    gain = 2.0 * gA * gM * math.sqrt(eta) * c.E
    # feedforward gain; gA makes the two signal gains exactly equal
    Kf = math.sqrt(2.0 * eta * tau) * gA * c.E / (tau - 1.0 + em)
    A = np.zeros((4, 16))
    A[0, 0] = 1.0
    A[0, 2] = gain
    A[0, 4] = -math.sqrt(2.0) * gA / c.K2
    A[0, 5] = (Kf / c.K5) * math.sqrt(eta / tau)
    A[0, 7] = (Kf / c.K1) * math.sqrt((1.0 - eta) / tau)
    A[0, 9] = Kf * math.sqrt(2.0 * eta / tau) * (1.0 - em * (2.0 * tau + 1.0)) - gA * (1.0 - em)
    A[0, 11] = Kf * math.sqrt(2.0 / tau) * (1.0 - em)
    A[0, 15] = (gM * Kf / c.K3) * math.sqrt(4.0 * Gamma / tau)
    A[1, 1] = 1.0
    A[2, 2] = 1.0
    A[2, 13] = math.sqrt(2.0 * Gamma * tau)
    A[3, 3] = 1.0
    A[3, 1] = -gain
    A[3, 6] = -math.sqrt(2.0 * eta) * gM / c.K6
    A[3, 8] = -gM * math.sqrt(2.0 * (1.0 - eta)) / c.K2
    A[3, 10] = -2.0 * math.sqrt(eta) * gM * (1.0 - em * (1.0 + tau))
    A[3, 12] = -gM * (1.0 - em)
    A[3, 14] = math.sqrt(2.0 * Gamma * tau)
    overlaps = {
        ("X_in", "X_in_f"): c.K2 * c.K5 * c.K7,
        ("zeta_XM", "zeta_XMf"): c.K3 * c.K4 / math.sqrt(tau),
    }
    basis = apply_squeezing(
        orthogonalize_noise_modes(_ATOM_MECH_LABELS, overlaps),
        params.S,
        anti_squeezed=("X_in", "X_in_f"),
        squeezed=("P_in",),
    )
    return GateModel(A, basis, {"gain": gain, "K_f": Kf})


# gate kind -> (params dataclass, builder), in the order the command line lists them
GATES = {
    "ideal": (IdealParams, build_ideal_gate),
    "bs": (BeamSplitterParams, build_bs_gate),
    "atom-light": (AtomLightParams, build_atom_light_gate),
    "optomech": (OptomechParams, build_optomech_gate),
    "atom-mech": (AtomMechParams, build_atom_mech_gate),
}
