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

Every builder computes on arrays of one value per point: its params
hold plain numbers, for one point, or arrays, for a batch, and a plain
number is a batch of one.  The rows carry array coefficients, and a
:class:`GateBatch` holds the N output maps, their covariances, one
stacked physicality check and the element's kernels and jet of every
point.  Each arithmetic step is elementwise, so a
point's numbers do not depend on its batch; params of plain numbers
give the batch's one :class:`GateModel`.

The constants, the overlaps and the checked basis depend on the pulse
length alone, so each pulse family builds them once per ``kappa_tau``
and keeps the last :data:`_KAPPA_TAU_CACHE` of them; a build at a pulse
length already seen writes only its rows, and a batch looks up each of
its distinct pulse lengths once.  Every model at that pulse length
shares the basis, whose Gram matrix and factor are read-only.  A batch
at one pulse length, a lone point among them, reads its constants, κτ
and e^{−κτ} as the cached plain floats, which broadcast over its columns
to the bits that arrays of them would give; only a batch of several
pulse lengths stacks them.  Each params field is checked once per
build, the atom-light gate's too, which runs the optomech builder's
arithmetic on its own checked columns at Γ = 0.

All rates are in units of the cavity decay κ (κ_A = κ_M = κ = 1) and
times in units of 1/κ; ``kappa_tau`` is the dimensionless pulse length
and ``S`` the mediator squeezing in dB.  Each params field carries the
name that the command line and the configuration files use, and
:data:`GATES` maps every gate kind to its params class and builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache, wraps

import numpy as np

from .gaussian import NOT_POSITIVE_DEFINITE, NumericalDomainError, bs_matrix, hom_jet, physicality_errors, qnd_matrix, split_kernels
from .modes import NoiseModeBasis, orthogonalize_noise_modes


# ----------------------------------------------------------------------
# Parameter sets
# ----------------------------------------------------------------------

_POSITIVE = ("must be positive", lambda x: x > 0)

# the range rule of every gate parameter, by the name the user types; each
# rule holds elementwise, on one value or on an array of one value per point
_RULES = {
    "G": ("must be finite", lambda x: abs(x) < math.inf),  # a gain of either sign
    "T": ("must lie in [0, 1]", lambda x: (0.0 <= x) & (x <= 1.0)),
    "g": _POSITIVE,
    "gA": _POSITIVE,
    "gM": _POSITIVE,
    "kappa_tau": _POSITIVE,
    "eta": ("must lie in (0, 1]", lambda x: (0.0 < x) & (x <= 1.0)),
    "Gamma": ("must be non-negative", lambda x: x >= 0),
    "S": ("must lie in [0, 20]", lambda x: (0.0 <= x) & (x <= 20.0)),
}


class ParameterError(ValueError):
    """A parameter outside its range rule, or a pulse too short or too long
    for its constants, at point ``point`` of a batch (0 for a single point)."""

    def __init__(self, message: str, point: int = 0):
        super().__init__(message)
        self.point = point


def _check(name: str, value) -> None:
    """Raise ParameterError, naming the parameter, unless the value (one, or an
    array of one per point) is finite and within its range rule; the error
    carries the first failing point."""
    rule, holds = _RULES[name]
    finite = abs(value) < math.inf  # NaN too fails
    ok = finite & holds(value)
    if ok is True:  # one plain number within its rule
        return
    ok = np.ravel(ok)
    if not ok.all():
        point = int(np.argmin(ok))
        raise ParameterError(f"{name} {rule if np.ravel(finite)[point] else 'must be finite'}", point)


class _Params:
    """Checks every field of a params dataclass against its rule.  A field
    holds one value, or an array of one value per point of a batch; the
    ParameterError of the first failing field carries its first failing point."""

    def __post_init__(self):
        for name in _field_names(type(self)):
            _check(name, getattr(self, name))


@lru_cache(maxsize=None)
def _field_names(params: type) -> tuple[str, ...]:
    """The field names of a params dataclass, read once per class."""
    return tuple(f.name for f in fields(params))


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
    Gram block.  A model is one point of a :class:`GateBatch`, a batch of
    one when it is built alone, and holds what the batch read of that
    point: ``signal_map`` A·Σ[:, :4], ``vacuum_output_cov`` AΣAᵀ, and the
    ``kernels``, ``jet`` and ``sectors`` that the element, the coherent
    forms and the threshold read, so none is computed twice.
    """

    output_matrix: np.ndarray
    basis: NoiseModeBasis
    signal_map: np.ndarray
    vacuum_output_cov: np.ndarray
    kernels: np.ndarray
    jet: np.ndarray
    sectors: np.ndarray


@dataclass(frozen=True, eq=False)
class GateBatch:
    """The gate models of N points over one label tuple, built and checked together.

    ``output_matrix`` is N × 4 × n_modes and ``bases`` holds each point's
    basis; points at one pulse length share one, and the Gram matrices are
    stacked only when they differ.  Construction computes every point's
    ``signal_map`` and ``vacuum_output_cov`` and checks them all in one
    stacked test, then reads the points that pass in one ``split_kernels``
    and one ``hom_jet``: ``kernels`` (N × 2 × 4 × 4), ``jet`` (N × 16) and
    ``sectors`` (N × 2 × 2, E[i, j] is jet component 12 + i + 2j), read-only
    and NaN at a failed point.  ``errors[i]`` is point i's
    NumericalDomainError (unphysical, or its overlap matrix is not positive
    definite), or None.
    """

    output_matrix: np.ndarray
    bases: tuple[NoiseModeBasis, ...]

    def __post_init__(self):
        A, first = np.asarray(self.output_matrix, dtype=float), self.bases[0]
        if A.ndim != 3 or A.shape[1:] != (4, first.n_modes) or len(self.bases) != len(A):
            raise ValueError("output matrix must be N × 4 × n_modes, with one basis per point")
        gram = first.checked_gram if all(b is first for b in self.bases) else np.stack([b.checked_gram for b in self.bases])
        cov, signal = A @ gram @ A.swapaxes(1, 2), A @ gram[..., :4]
        errors = physicality_errors(cov)
        if errors.count(None) == len(A):  # all clear: read every point
            det, kernels = split_kernels(cov, signal)
            jet = hom_jet(det, kernels)
        else:  # read the points that pass, and scatter them among NaN
            ok = [i for i, error in enumerate(errors) if error is None]
            det, kernels, jet = np.full(len(A), np.nan), np.full((len(A), 2, 4, 4), np.nan), np.full((len(A), 16), np.nan)
            if ok:
                det[ok], kernels[ok] = split_kernels(cov[ok], signal[ok])
                jet[ok] = hom_jet(det[ok], kernels[ok])
        if not det.min() > 0.0:  # a NaN det: that point's overlap matrix is not positive definite
            errors = [error or (None if d == d else NumericalDomainError(NOT_POSITIVE_DEFINITE))
                      for error, d in zip(errors, det.tolist())]
        kernels.flags.writeable = jet.flags.writeable = False
        vars(self).update(
            output_matrix=A, signal_map=signal, vacuum_output_cov=cov, kernels=kernels, jet=jet,
            sectors=jet[:, 12:].reshape(-1, 2, 2).swapaxes(1, 2), errors=tuple(errors),
        )

    def __len__(self) -> int:
        return len(self.bases)

    def model(self, i: int) -> GateModel:
        """Point i as a GateModel that shares this batch's arrays; its
        NumericalDomainError if it failed."""
        if self.errors[i] is not None:
            raise self.errors[i]
        return GateModel(self.output_matrix[i], self.bases[i], self.signal_map[i], self.vacuum_output_cov[i],
                         self.kernels[i], self.jet[i], self.sectors[i])


def _over_points(build):
    """The public builder of ``build``, which takes every params field as a 1-d
    float array of one value per point, broadcast to the batch, and returns
    the GateBatch: params with an array field give that batch, and params of
    plain numbers, a batch of one, give its one GateModel.  The build runs with
    numpy's overflow and invalid-value warnings off: a point whose numbers
    overflow has a covariance that is not finite, which fails its physicality
    check, and so only that point."""

    @wraps(build)
    def builder(params):
        values = [getattr(params, name) for name in _field_names(type(params))]
        lone = all(isinstance(v, (int, float)) for v in values)
        if lone:  # plain numbers: columns of one
            columns = np.array(values, dtype=float)[:, None]
        else:
            values = [np.asarray(v, dtype=float) for v in values]
            columns = np.empty((len(values), max(v.size for v in values)))
            for column, value in zip(columns, values):
                column[...] = value
            lone = not any(v.ndim for v in values)
        with np.errstate(over="ignore", invalid="ignore"):
            batch = build(*columns)
        return batch.model(0) if lone else batch

    return builder


# the two signal modes alone: the basis of the ideal and beam-splitter gates
_SIGNAL_BASIS = NoiseModeBasis(("X_a0", "P_a0", "X_b0", "P_b0"), np.eye(4))
_SIGNAL_BASIS.gram.flags.writeable = False


def _signal_batch(maps: np.ndarray) -> GateBatch:
    """The noiseless gates of a stack of 4 × 4 maps of the two signal modes alone."""
    return GateBatch(maps, (_SIGNAL_BASIS,) * len(maps))


@_over_points
def build_ideal_gate(G: np.ndarray) -> GateBatch:
    return _signal_batch(qnd_matrix(G))


@_over_points
def build_bs_gate(T: np.ndarray) -> GateBatch:
    return _signal_batch(bs_matrix(T))


def ideal_gate_model(G) -> GateModel | GateBatch:
    """Noiseless QND gate with a single gain G (no extra modes); a batch for an array of gains."""
    return build_ideal_gate(IdealParams(G))


def as_gate_model(model: GateModel | float) -> GateModel:
    """A gate model as given; a bare number denotes the ideal gate with that gain."""
    return model if isinstance(model, GateModel) else ideal_gate_model(float(model))


def _gate_model(bases: tuple[NoiseModeBasis, ...], rows: tuple[dict, ...]) -> GateBatch:
    """The batch, one basis per point, whose outputs (X_a, P_a, X_b, P_b) are the
    given ``{mode label: coefficient}`` rows, each coefficient one number or an
    array of one per point; a mode a row omits has coefficient 0."""
    column = bases[0].column
    A = np.zeros((len(bases), len(rows), bases[0].n_modes))
    for i, row in enumerate(rows):
        for label, coefficient in row.items():
            if label not in column:
                raise ValueError(f"output row {i} names mode {label!r}, which is not in the basis")
            A[:, i, column[label]] = coefficient
    return GateBatch(A, bases)


# pulse lengths whose constants and checked basis each pulse family keeps;
# a figure sweep holds κτ fixed, and a 2-D optimum search visits about 40
# (39 in the benchmark's atom-mech search on a 9 × 9 grid)
_KAPPA_TAU_CACHE = 128
# the closed forms cancel or divide by zero for a very short pulse, and
# their overlaps round onto ±1, divide by zero or overflow for a very long one
_SHORT_PULSE = "kappa_tau={!r} is too short for the pulse constants ({})"
_LONG_PULSE = "kappa_tau={!r} is too long for the pulse constants ({})"


def _pulse_error(kappa_tau: float, exc: Exception) -> ValueError:
    """The error of a pulse length whose constants fail: too long beyond the
    cavity's decay time (κτ > 1), too short within it."""
    return ValueError((_LONG_PULSE if kappa_tau > 1.0 else _SHORT_PULSE).format(kappa_tau, exc))


def _per_point(part, kappa_tau: np.ndarray):
    """The cached ``part`` (constants and checked basis) of each point's pulse
    length, as (constants, bases, κτ, e^{−κτ}); each distinct κτ is looked up
    once.  At one pulse length the constants, κτ and e^{−κτ} are the plain
    floats every point shares, which broadcast to the bits of their arrays;
    else they are arrays over the points.  A pulse too short or too long for
    its constants raises ParameterError at the first point that has it."""
    taus = kappa_tau.tolist()
    parts = {}
    for point, tau in enumerate(taus):
        if tau not in parts:
            try:
                parts[tau] = part(tau)
            except ValueError as exc:
                raise ParameterError(str(exc), point) from None
    if len(parts) == 1:
        (tau, (c, basis)), = parts.items()
        return c, (basis,) * len(taus), tau, math.exp(-tau)
    table = {tau: [*vars(c).values(), math.exp(-tau)] for tau, (c, _) in parts.items()}
    *constants, em = np.array([table[tau] for tau in taus]).T
    return type(parts[taus[0]][0])(*constants), tuple(parts[tau][1] for tau in taus), kappa_tau, em


_PULSE_LABELS = (
    "X_a0", "P_a0", "X_L0", "Y_L0", "X_0f1", "Y_0k", "Y_0f1",
    "x_c", "p_c", "x_v", "p_v", "zeta_XM", "zeta_PM", "zeta_XMf",
)


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
    except (ArithmeticError, ValueError) as exc:
        raise _pulse_error(kappa_tau, exc) from None


@_over_points
def build_optomech_gate(g, tau, eta, Gamma) -> GateBatch:
    """Mechanical oscillator (mode a) entangled with a traveling pulse
    (mode b), with rethermalization forces at rate Γ = γ·n_th."""
    c, bases, tau, em = _per_point(_pulse_part, tau)
    root_eta = np.sqrt(eta)
    GA = g * np.sqrt(2.0 * tau)
    GL = GA * root_eta * (1.0 - (1.0 - em) / tau)
    TL = root_eta * (c.L - 1.0)
    theta = g * c.theta
    s_cav = np.sqrt(2.0 * eta) * c.Kf
    s_loss = np.sqrt(1.0 - eta)
    s_aux = root_eta * c.L * c.L1
    thermal = np.sqrt(2.0 * Gamma * tau)
    rows = (  # X_a, P_a, X_b, P_b
        {"X_a0": 1.0, "zeta_XM": thermal},
        {"P_a0": 1.0, "Y_L0": -GA, "p_c": -theta, "Y_0k": GA * c.K1 / np.sqrt(tau), "zeta_PM": thermal},
        {"X_L0": TL, "X_a0": GL, "x_v": s_loss, "x_c": s_cav, "X_0f1": s_aux,
         "zeta_XMf": root_eta * np.sqrt(2.0 * Gamma) * g * c.M},
        {"Y_L0": TL, "p_v": s_loss, "p_c": s_cav, "Y_0f1": s_aux},
    )
    return _gate_model(bases, rows)


@_over_points
def build_atom_light_gate(g, tau, eta) -> GateBatch:
    """Atomic ensemble (mode a) entangled with a traveling pulse (mode b):
    the pulse gate of :func:`build_optomech_gate` at Γ = 0, on the columns
    of params checked once."""
    return build_optomech_gate.__wrapped__(g, tau, eta, 0.0)


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
    except (ArithmeticError, ValueError) as exc:
        raise _pulse_error(kappa_tau, exc) from None


@_over_points
def build_atom_mech_gate(gA, gM, tau, eta, Gamma, S) -> GateBatch:
    """Symmetric atom-mechanical gate mediated by a light pulse.

    Subsystem a is the atomic ensemble, b the mechanical oscillator;
    after feedforward both cross gains equal 𝔊 = 2·gA·gM·√η·E(τ)
    (equivalently gA·gM·√η·τ·[1+e^{-τ}-(2/τ)(1-e^{-τ})]).  The mediator
    pulse enters through the temporal modes X_in, X_in_f, P_in.  Its
    broadband squeezing of S dB, r = S·ln10/20, scales their coefficients:
    P_in squeezed by e^{-r}, X_in and X_in_f anti-squeezed by e^{r}.
    """
    c, bases, tau, em = _per_point(_atom_mech_part, tau)
    # each factor that several coefficients share, computed once
    eta2, loss, decay, minus_gM = 2.0 * eta, 1.0 - eta, 1.0 - em, -gM
    gain = 2.0 * gA * gM * np.sqrt(eta) * c.E
    # feedforward gain; gA makes the two signal gains exactly equal
    Kf = np.sqrt(eta2 * tau) * gA * c.E / (tau - 1.0 + em)
    r = S * math.log(10.0) / 20.0
    anti_squeeze = np.exp(r)
    thermal = np.sqrt(2.0 * Gamma * tau)
    rows = (  # X_a, P_a, X_b, P_b
        {"X_A0": 1.0, "X_M0": gain, "X_in": -math.sqrt(2.0) * gA / c.K2 * anti_squeeze,
         "X_in_f": (Kf / c.K5) * np.sqrt(eta / tau) * anti_squeeze,
         "x_vac": (Kf / c.K1) * np.sqrt(loss / tau),
         "x_c": Kf * np.sqrt(eta2 / tau) * (1.0 - em * (2.0 * tau + 1.0)) - gA * decay,
         "x_cp": Kf * np.sqrt(2.0 / tau) * decay,
         "zeta_XMf": (gM * Kf / c.K3) * np.sqrt(4.0 * Gamma / tau)},
        {"P_A0": 1.0},
        {"X_M0": 1.0, "zeta_XM": thermal},
        {"P_M0": 1.0, "P_A0": -gain, "P_in": -np.sqrt(eta2) * gM / c.K6 * np.exp(-r),
         "p_vac": minus_gM * np.sqrt(2.0 * loss) / c.K2,
         "p_c": -2.0 * np.sqrt(eta) * gM * (1.0 - em * (1.0 + tau)),
         "p_cp": minus_gM * decay, "zeta_PM": thermal},
    )
    return _gate_model(bases, rows)


# gate kind -> (params dataclass, builder), in the order the command line lists them
GATES = {
    "ideal": (IdealParams, build_ideal_gate),
    "bs": (BeamSplitterParams, build_bs_gate),
    "atom-light": (AtomLightParams, build_atom_light_gate),
    "optomech": (OptomechParams, build_optomech_gate),
    "atom-mech": (AtomMechParams, build_atom_mech_gate),
}
