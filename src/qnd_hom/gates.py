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

Each pulse builder writes the output quadratures (X_a, P_a, X_b, P_b)
over a vector z of scalar quadrature variables, named by the labels of
its mode tuple: signal quadratures first, then auxiliary temporal modes
of the traveling field, intracavity initials, loss vacua and
thermal-force modes.  Each output is one ``{mode label: coefficient}``
row, and :func:`_gate_model` places the rows by label into the
coefficient matrix A; a label outside the basis is an error.  Distinct
temporal modes of one field overlap; the stated pairwise overlaps form
the Gram matrix Σ of z, checked by
:func:`qnd_hom.modes.orthogonalize_noise_modes`, and the vacuum output
covariance is AΣAᵀ.  The four signal quadratures lead z and are
uncorrelated with one another, so a signal input reaches the output
through AΣ[:, :4]: every mode of z carries its overlap with the signal
quadratures.  Σ is the unit-diagonal vacuum Gram matrix at every
setting: squeezing the mediator pulse by a diagonal D is a factor on
the coefficients of its modes, since (AD)Σ(AD)ᵀ = A(DΣD)Aᵀ.

The constants, the overlaps and the checked basis depend on the pulse
length alone, so each pulse family builds them once per ``kappa_tau``
and keeps the last :data:`_KAPPA_TAU_CACHE` of them; a build at a pulse
length already seen writes only its rows.  Every model at that pulse
length shares the basis, whose Gram matrix and factor are read-only.

All rates are in units of the cavity decay κ (κ_A = κ_M = κ = 1) and
times in units of 1/κ; ``kappa_tau`` is the dimensionless pulse length
and ``S`` the mediator squeezing in dB.  Each params field carries the
name that the command line and the configuration files use, and
:data:`GATES` maps every gate kind to its params class and builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .gaussian import bs_matrix, check_physical, qnd_matrix
from .modes import NoiseModeBasis, orthogonalize_noise_modes


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

    ``output_matrix`` rows are (X_a, P_a, X_b, P_b).  The quadratures of
    the two input systems are the first four entries of z, with a unit
    Gram block.  Construction is the one physicality check of the vacuum
    output covariance; everything that reads a model relies on it.
    """

    output_matrix: np.ndarray
    basis: NoiseModeBasis

    def __post_init__(self):
        A = np.asarray(self.output_matrix, dtype=float)
        if A.shape != (4, self.basis.n_modes):
            raise ValueError("output matrix must be 4 × n_modes")
        object.__setattr__(self, "output_matrix", A)
        if np.any(np.abs(self.basis.gram[:4, :4] - np.eye(4)) > 1e-12):
            raise ValueError("signal quadratures must be uncorrelated leading modes")
        check_physical(self.vacuum_output_cov)

    @cached_property
    def signal_map(self) -> np.ndarray:
        """A·Σ[:, :4], the map of the four signal quadratures to the output."""
        return self.output_matrix @ self.basis.gram[:, :4]

    @cached_property
    def vacuum_output_cov(self) -> np.ndarray:
        """A Σ Aᵀ with every mode in vacuum."""
        return self.output_matrix @ self.basis.gram @ self.output_matrix.T


def signal_gate_model(matrix: np.ndarray) -> GateModel:
    """Noiseless gate: a 4 × 4 map of the two signal modes alone."""
    return GateModel(matrix, NoiseModeBasis(("X_a0", "P_a0", "X_b0", "P_b0"), np.eye(4)))


def ideal_gate_model(G: float) -> GateModel:
    """Noiseless QND gate with a single gain G (no extra modes)."""
    return signal_gate_model(qnd_matrix(G))


def build_ideal_gate(params: IdealParams) -> GateModel:
    return ideal_gate_model(params.G)


def build_bs_gate(params: BeamSplitterParams) -> GateModel:
    return signal_gate_model(bs_matrix(params.T))


def as_gate_model(model: GateModel | float) -> GateModel:
    """A gate model as given; a bare number denotes the ideal gate with that gain."""
    return model if isinstance(model, GateModel) else ideal_gate_model(float(model))


def _gate_model(basis: NoiseModeBasis, rows: tuple[dict, ...]) -> GateModel:
    """Gate model whose outputs (X_a, P_a, X_b, P_b) are the given
    ``{mode label: coefficient}`` rows; a mode a row omits has coefficient 0."""
    column = {label: j for j, label in enumerate(basis.labels)}
    A = np.zeros((len(rows), basis.n_modes))
    for i, row in enumerate(rows):
        for label, coefficient in row.items():
            if label not in column:
                raise ValueError(f"output row {i} names mode {label!r}, which is not in the basis")
            A[i, column[label]] = coefficient
    return GateModel(A, basis)


# pulse lengths whose constants and checked basis each pulse family keeps;
# a figure sweep holds κτ fixed, and a 2-D optimum search visits about 50
_KAPPA_TAU_CACHE = 128
# the closed forms cancel or divide by zero for a very short pulse
_SHORT_PULSE = "kappa_tau={!r} is too short for the pulse constants ({})"

_PULSE_LABELS = (
    "X_a0", "P_a0", "X_L0", "Y_L0", "X_0f1", "Y_0k", "Y_0f1",
    "x_c", "p_c", "x_v", "p_v", "zeta_XM", "zeta_PM", "zeta_XMf",
)


def build_atom_light_gate(params: AtomLightParams) -> GateModel:
    """Atomic ensemble (mode a) entangled with a traveling pulse (mode b):
    the pulse gate of :func:`build_optomech_gate` at Γ = 0."""
    return build_optomech_gate(OptomechParams(params.g, params.kappa_tau, params.eta))


@lru_cache(maxsize=_KAPPA_TAU_CACHE)
def _pulse_part(kappa_tau: float) -> tuple[PulseGateConstants, NoiseModeBasis]:
    """Constants and checked basis of the atom-light / optomech pulse at κτ."""
    try:
        c = atom_light_constants(kappa_tau)
        overlaps = {
            ("X_L0", "X_0f1"): c.Kf1 / c.L1,
            ("Y_L0", "Y_0k"): c.Kf / c.K1,
            ("Y_L0", "Y_0f1"): c.Kf1 / c.L1,
            ("Y_0k", "Y_0f1"): c.Kff1 / (c.L1 * c.K1),
            ("zeta_XM", "zeta_XMf"): c.M1 / (math.sqrt(kappa_tau) * c.M),
        }
        return c, orthogonalize_noise_modes(_PULSE_LABELS, overlaps)
    except (ZeroDivisionError, ValueError) as exc:
        raise ValueError(_SHORT_PULSE.format(kappa_tau, exc)) from None


def build_optomech_gate(params: OptomechParams) -> GateModel:
    """Mechanical oscillator (mode a) entangled with a traveling pulse
    (mode b), with rethermalization forces at rate Γ = γ·n_th."""
    g, tau, eta, Gamma = params.g, params.kappa_tau, params.eta, params.Gamma
    c, basis = _pulse_part(tau)
    em = math.exp(-tau)
    GA = g * math.sqrt(2.0 * tau)
    GL = GA * math.sqrt(eta) * (1.0 - (1.0 - em) / tau)
    TL = math.sqrt(eta) * (c.L - 1.0)
    theta = g * c.theta
    s_cav = math.sqrt(2.0 * eta) * c.Kf
    s_loss = math.sqrt(1.0 - eta)
    s_aux = math.sqrt(eta) * c.L * c.L1
    thermal = math.sqrt(2.0 * Gamma * tau)
    rows = (  # X_a, P_a, X_b, P_b
        {"X_a0": 1.0, "zeta_XM": thermal},
        {"P_a0": 1.0, "Y_L0": -GA, "p_c": -theta, "Y_0k": GA * c.K1 / math.sqrt(tau), "zeta_PM": thermal},
        {"X_L0": TL, "X_a0": GL, "x_v": s_loss, "x_c": s_cav, "X_0f1": s_aux,
         "zeta_XMf": math.sqrt(eta) * math.sqrt(2.0 * Gamma) * g * c.M},
        {"Y_L0": TL, "p_v": s_loss, "p_c": s_cav, "Y_0f1": s_aux},
    )
    return _gate_model(basis, rows)


_ATOM_MECH_LABELS = (
    "X_A0", "P_A0", "X_M0", "P_M0",
    "X_in", "X_in_f", "P_in",
    "x_vac", "p_vac",
    "x_c", "p_c", "x_cp", "p_cp",
    "zeta_XM", "zeta_PM", "zeta_XMf",
)


@lru_cache(maxsize=_KAPPA_TAU_CACHE)
def _atom_mech_part(kappa_tau: float) -> tuple[AtomMechConstants, NoiseModeBasis]:
    """Constants and checked basis of the cascaded gate's pulse at κτ."""
    try:
        c = atom_mech_constants(kappa_tau)
        overlaps = {
            ("X_in", "X_in_f"): c.K2 * c.K5 * c.K7,
            ("zeta_XM", "zeta_XMf"): c.K3 * c.K4 / math.sqrt(kappa_tau),
        }
        return c, orthogonalize_noise_modes(_ATOM_MECH_LABELS, overlaps)
    except (ZeroDivisionError, ValueError) as exc:
        raise ValueError(_SHORT_PULSE.format(kappa_tau, exc)) from None


def build_atom_mech_gate(params: AtomMechParams) -> GateModel:
    """Symmetric atom-mechanical gate mediated by a light pulse.

    Subsystem a is the atomic ensemble, b the mechanical oscillator;
    after feedforward both cross gains equal 𝔊 = 2·gA·gM·√η·E(τ)
    (equivalently gA·gM·√η·τ·[1+e^{-τ}-(2/τ)(1-e^{-τ})]).  The mediator
    pulse enters through the temporal modes X_in, X_in_f, P_in.  Its
    broadband squeezing of S dB, r = S·ln10/20, scales their coefficients:
    P_in squeezed by e^{-r}, X_in and X_in_f anti-squeezed by e^{r}.
    """
    gA, gM = params.gA, params.gM
    tau, eta, Gamma = params.kappa_tau, params.eta, params.Gamma
    c, basis = _atom_mech_part(tau)
    em = math.exp(-tau)
    gain = 2.0 * gA * gM * math.sqrt(eta) * c.E
    # feedforward gain; gA makes the two signal gains exactly equal
    Kf = math.sqrt(2.0 * eta * tau) * gA * c.E / (tau - 1.0 + em)
    r = params.S * math.log(10.0) / 20.0
    thermal = math.sqrt(2.0 * Gamma * tau)
    rows = (  # X_a, P_a, X_b, P_b
        {"X_A0": 1.0, "X_M0": gain, "X_in": -math.sqrt(2.0) * gA / c.K2 * math.exp(r),
         "X_in_f": (Kf / c.K5) * math.sqrt(eta / tau) * math.exp(r),
         "x_vac": (Kf / c.K1) * math.sqrt((1.0 - eta) / tau),
         "x_c": Kf * math.sqrt(2.0 * eta / tau) * (1.0 - em * (2.0 * tau + 1.0)) - gA * (1.0 - em),
         "x_cp": Kf * math.sqrt(2.0 / tau) * (1.0 - em),
         "zeta_XMf": (gM * Kf / c.K3) * math.sqrt(4.0 * Gamma / tau)},
        {"P_A0": 1.0},
        {"X_M0": 1.0, "zeta_XM": thermal},
        {"P_M0": 1.0, "P_A0": -gain, "P_in": -math.sqrt(2.0 * eta) * gM / c.K6 * math.exp(-r),
         "p_vac": -gM * math.sqrt(2.0 * (1.0 - eta)) / c.K2,
         "p_c": -2.0 * math.sqrt(eta) * gM * (1.0 - em * (1.0 + tau)),
         "p_cp": -gM * (1.0 - em), "zeta_PM": thermal},
    )
    return _gate_model(basis, rows)


# gate kind -> (params dataclass, builder), in the order the command line lists them
GATES = {
    "ideal": (IdealParams, build_ideal_gate),
    "bs": (BeamSplitterParams, build_bs_gate),
    "atom-light": (AtomLightParams, build_atom_light_gate),
    "optomech": (OptomechParams, build_optomech_gate),
    "atom-mech": (AtomMechParams, build_atom_mech_gate),
}
