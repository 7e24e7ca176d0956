"""Physical gate builders: constants, reductions, and symmetries."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import qnd_hom.gaussian
import qnd_hom.modes
from qnd_hom.gates import (
    GATES,
    AtomLightParams,
    AtomMechConstants,
    AtomMechParams,
    OptomechParams,
    PulseGateConstants,
    _atom_mech_part,
    _gate_model,
    _pulse_part,
    atom_light_constants,
    atom_mech_constants,
    build_atom_light_gate,
    build_atom_mech_gate,
    build_optomech_gate,
    ideal_gate_model,
)
from qnd_hom.gaussian import min_physicality_eig, qnd_matrix
from qnd_hom.metrics import coherent_jets, hom_sectors
from qnd_hom.modes import orthogonalize_noise_modes
from qnd_hom.sweep import PRESETS, SweepConfig, build_model, find_optimum, run_sweep

_QUAD_KW = dict(epsabs=1e-12, epsrel=1e-12, limit=400)


# ----------------------------------------------------------------------
# Constants
# ----------------------------------------------------------------------

def atom_light_constants_quadrature(kappa_tau: float) -> PulseGateConstants:
    """Same constants via adaptive quadrature of the defining integrals."""
    tau = float(kappa_tau)
    st = math.sqrt(tau)
    K1 = math.sqrt(quad(lambda t: math.exp(-2.0 * (tau - t)), 0, tau, **_QUAD_KW)[0])
    f1 = lambda t: 2.0 * (1.0 - math.exp(-(tau - t))) / st
    L = math.sqrt(quad(lambda t: f1(t) ** 2, 0, tau, **_QUAD_KW)[0])
    L1 = math.sqrt(quad(lambda t: (f1(t) / L - 1.0 / st) ** 2, 0, tau, **_QUAD_KW)[0])
    Kf = quad(lambda t: math.exp(-(tau - t)) / st, 0, tau, **_QUAD_KW)[0]
    Kf1 = quad(lambda t: (f1(t) / L - 1.0 / st) / st, 0, tau, **_QUAD_KW)[0]
    Kff1 = quad(lambda t: math.exp(-(tau - t)) * (f1(t) / L - 1.0 / st), 0, tau, **_QUAD_KW)[0]
    w3 = lambda s: s - 1.0 + math.exp(-s)
    M = math.sqrt(2.0 / tau * quad(lambda s: w3(s) ** 2, 0, tau, **_QUAD_KW)[0])
    M1 = math.sqrt(2.0 / tau) * quad(w3, 0, tau, **_QUAD_KW)[0]
    theta = quad(lambda s: math.exp(-s), 0, tau, **_QUAD_KW)[0]
    return PulseGateConstants(tau, K1, L, L1, Kf, Kf1, Kff1, M, M1, theta)


def atom_mech_constants_quadrature(kappa_tau: float) -> AtomMechConstants:
    """Same constants via adaptive quadrature of the mode weights."""
    tau = float(kappa_tau)
    w1 = lambda s: 1.0 - 2.0 * math.exp(-s)
    w2 = lambda s: 1.0 - math.exp(-s)
    w3 = lambda s: s - 1.0 + math.exp(-s)
    w5 = lambda s: 1.0 - 4.0 * s * math.exp(-s)
    w6 = lambda s: 1.0 - math.exp(-s) * (2.0 * s + 1.0)
    norm = lambda w: 1.0 / math.sqrt(quad(lambda s: w(s) ** 2, 0, tau, **_QUAD_KW)[0])
    K4 = quad(w3, 0, tau, **_QUAD_KW)[0]
    K7 = quad(lambda s: w2(s) * w5(s), 0, tau, **_QUAD_KW)[0]
    em = math.exp(-tau)
    E = em * (tau + 2.0) + tau - 2.0
    return AtomMechConstants(tau, norm(w1), norm(w2), norm(w3), K4, norm(w5), norm(w6), K7, E)


def test_atom_light_constants_anchors():
    c = atom_light_constants(100.0)
    assert c.K1 == pytest.approx(np.sqrt(0.5), abs=1e-14)
    assert c.L == pytest.approx(1.9849433241279208, abs=1e-12)


@pytest.mark.parametrize("kappa_tau", [1.0, 10.0, 100.0])
def test_atom_light_constants_match_quadrature(kappa_tau):
    c = atom_light_constants(kappa_tau)
    q = atom_light_constants_quadrature(kappa_tau)
    for name in ("K1", "L", "L1", "Kf", "Kf1", "Kff1", "M", "M1", "theta"):
        assert getattr(c, name) == pytest.approx(getattr(q, name), abs=1e-9), name


@pytest.mark.parametrize("kappa_tau", [1.0, 10.0, 90.0])
def test_atom_mech_constants_match_quadrature(kappa_tau):
    c = atom_mech_constants(kappa_tau)
    q = atom_mech_constants_quadrature(kappa_tau)
    for name in ("K1", "K2", "K3", "K4", "K5", "K6", "K7", "E"):
        assert getattr(c, name) == pytest.approx(getattr(q, name), rel=1e-9), name


# ----------------------------------------------------------------------
# Gate models
# ----------------------------------------------------------------------

def _coefficient(model, row, label):
    """The coefficient of mode ``label`` in output row ``row`` (X_a, P_a, X_b, P_b)."""
    return model.output_matrix[row, model.basis.labels.index(label)]


def test_ideal_gate_is_qnd_matrix():
    model = ideal_gate_model(0.8)
    assert np.allclose(model.output_matrix, qnd_matrix(0.8), atol=0.0)
    assert min_physicality_eig(model.vacuum_output_cov) > -1e-9


def test_atom_light_gains():
    # G_A is the light's gain on P_a, G_L the atoms' on X_b, T_L the light's transmission
    model = build_atom_light_gate(AtomLightParams(0.06, 100.0, 0.9))
    assert -_coefficient(model, 1, "Y_L0") == pytest.approx(0.848528137423857, abs=1e-12)
    assert _coefficient(model, 2, "X_a0") == pytest.approx(0.796934627180925, abs=1e-12)
    assert _coefficient(model, 2, "X_L0") == pytest.approx(0.9343992811265122, abs=1e-12)


def test_atom_light_gain_asymmetry():
    # the light-side gain is strictly smaller: G_L = G_A·√η·(1−(1−e^{−κτ})/κτ)
    model = build_atom_light_gate(AtomLightParams(0.06, 100.0, 1.0))
    assert _coefficient(model, 2, "X_a0") < -_coefficient(model, 1, "Y_L0")


@pytest.mark.parametrize("kind,build,params", [
    ("atom-light", build_atom_light_gate, AtomLightParams(0.06, 100.0, 0.9)),
    ("optomech", build_optomech_gate, OptomechParams(0.06, 100.0, 0.9, 1e-3)),
    ("atom-mech", build_atom_mech_gate, AtomMechParams(0.07, 0.07, 90.0, 0.9, 1e-4, 7.0)),
])
def test_vacuum_output_physical(kind, build, params):
    model = build(params)
    assert min_physicality_eig(model.vacuum_output_cov) > -1e-9


# Each output row (X_a, P_a, X_b, P_b) by mode label, at one point per
# pulse gate.  A coefficient moved between two uncorrelated vacuum modes,
# say x_v and x_c, changes no covariance, element or threshold, so only
# the labels themselves show it.
_ROWS = {
    "atom-light": (AtomLightParams(0.06, 100.0, 0.9), (
        {"X_a0": 1.0},
        {"P_a0": 1.0, "Y_L0": -0.848528137423857, "Y_0k": 0.06000000000000001, "p_c": -0.06},
        {"X_a0": 0.796934627180925, "X_L0": 0.9343992811265122, "X_0f1": 0.1328984304199682,
         "x_c": 0.1341640786499874, "x_v": 0.3162277660168379},
        {"Y_L0": 0.9343992811265122, "Y_0f1": 0.1328984304199682, "p_c": 0.1341640786499874,
         "p_v": 0.3162277660168379},
    )),
    "optomech": (OptomechParams(0.06, 100.0, 0.9, 1e-4), (
        {"X_a0": 1.0, "zeta_XM": 0.1414213562373095},
        {"P_a0": 1.0, "Y_L0": -0.848528137423857, "Y_0k": 0.06000000000000001, "p_c": -0.06,
         "zeta_PM": 0.1414213562373095},
        {"X_a0": 0.796934627180925, "X_L0": 0.9343992811265122, "X_0f1": 0.1328984304199682,
         "x_c": 0.1341640786499874, "x_v": 0.3162277660168379, "zeta_XMf": 0.06474335857831287},
        {"Y_L0": 0.9343992811265122, "Y_0f1": 0.1328984304199682, "p_c": 0.1341640786499874,
         "p_v": 0.3162277660168379},
    )),
    "atom-mech": (AtomMechParams(0.07, 0.05, 90.0, 0.9, 1e-4, 7.0), (
        {"X_A0": 1.0, "X_M0": 0.5843889115991165, "X_in": -0.9312894286955051 * 10 ** (7 / 20),
         "X_in_f": 0.8169536894096696 * 10 ** (7 / 20), "x_vac": 0.2754661848349115, "x_c": 0.05458426966292136,
         "x_cp": 0.1313233509211498, "zeta_XMf": 0.04501446684966262},
        {"P_A0": 1.0},
        {"X_M0": 1.0, "zeta_XM": 0.1341640786499874},
        {"P_A0": -0.5843889115991165, "P_M0": 1.0, "P_in": -0.6238990302925627 * 10 ** (-7 / 20),
         "p_vac": -0.21035683967962626, "p_c": -0.09486832980505139, "p_cp": -0.05,
         "zeta_PM": 0.1341640786499874},
    )),
}


@pytest.mark.parametrize("gate", sorted(_ROWS))
def test_output_rows_by_mode_label(gate):
    params, expected = _ROWS[gate]
    model = GATES[gate][1](params)
    labels = model.basis.labels
    rows = [{lab: c for lab, c in zip(labels, row) if c != 0.0} for row in model.output_matrix]
    for row, want in zip(rows, expected, strict=True):
        assert sorted(row) == sorted(want)
        for label, value in want.items():
            assert row[label] == pytest.approx(value, rel=1e-15, abs=0.0), label


def test_output_row_with_an_unknown_mode_is_rejected():
    basis = orthogonalize_noise_modes(("X_a0", "P_a0", "X_b0", "P_b0", "x_v"), {})
    rows = ({"X_a0": 1.0}, {"P_a0": 1.0}, {"X_b0": 1.0, "x_w": 0.5}, {"P_b0": 1.0})
    with pytest.raises(ValueError, match="'x_w'"):
        _gate_model(basis, rows)


def _ideal_faraday_map(G):
    # the pulsed gate realizes the QND coupling with the light as the
    # readout mode: X_L' = X_L + G·X_a, P_a' = P_a − G·Y_L.  This is
    # qnd_matrix(G) with the two modes exchanged, and the bunching
    # element is exchange-invariant.
    ideal = np.eye(4)
    ideal[2, 0] = G
    ideal[1, 3] = -G
    return ideal


def _ideal_limit_deviation(kappa_tau):
    g = 0.6 / np.sqrt(2.0 * kappa_tau)  # G_A = 0.6
    model = build_atom_light_gate(AtomLightParams(g, kappa_tau, 1.0))
    signal = model.signal_map
    return np.abs(signal - _ideal_faraday_map(-_coefficient(model, 1, "Y_L0"))).max()


@pytest.mark.parametrize("kappa_tau", [2.5e3, 1e4])
def test_ideal_limit_reduction(kappa_tau):
    # at η=1 and κτ→∞ the gate approaches the ideal QND map on the
    # signal block, with deviation O(1/κτ)
    assert _ideal_limit_deviation(kappa_tau) < 30.0 / kappa_tau


def test_ideal_limit_scaling_rate():
    # quadrupling κτ must shrink the deviation ≈ 4× (1/κτ scaling)
    ratio = _ideal_limit_deviation(2.5e3) / _ideal_limit_deviation(1e4)
    assert ratio == pytest.approx(4.0, rel=0.3)


def test_optomech_reduces_to_atom_light_at_zero_reheating():
    al = build_atom_light_gate(AtomLightParams(0.06, 100.0, 0.9))
    om = build_optomech_gate(OptomechParams(0.06, 100.0, 0.9, 0.0))
    va, vo = al.vacuum_output_cov, om.vacuum_output_cov
    assert np.abs(va - vo).max() == 0.0


def test_optomech_reheating_adds_noise():
    quiet = build_optomech_gate(OptomechParams(0.06, 100.0, 0.9, 1e-4))
    noisy = build_optomech_gate(OptomechParams(0.06, 100.0, 0.9, 1e-2))
    extra = noisy.vacuum_output_cov - quiet.vacuum_output_cov
    assert np.all(np.linalg.eigvalsh(extra) > -1e-12)
    assert np.trace(extra) > 0.0


def test_atom_mech_gain_symmetry():
    # feedforward symmetrizes the hybrid gate: the signal block is an
    # exact QND map with a single gain
    model = build_atom_mech_gate(AtomMechParams(0.07, 0.07, 90.0, 0.9, 1e-4, 7.0))
    signal = model.signal_map
    G = _coefficient(model, 0, "X_M0")
    assert signal[0, 2] == pytest.approx(G, abs=1e-12)
    assert signal[3, 1] == pytest.approx(-G, abs=1e-12)
    for i in range(4):
        assert signal[i, i] == pytest.approx(1.0, abs=1e-12)
    assert abs(signal[1, 3]) < 1e-12 and abs(signal[2, 0]) < 1e-12


def test_atom_mech_gain_anchor():
    model = build_atom_mech_gate(AtomMechParams(0.07, 0.07, 90.0, 0.9, 1e-4, 7.0))
    assert _coefficient(model, 0, "X_M0") == pytest.approx(0.8181444762387632, abs=1e-12)


@pytest.mark.parametrize("kappa_tau", [1.0, 10.0, 90.0])
def test_atom_mech_gain_identity(kappa_tau):
    # E = e^{−κτ}(κτ+2) + κτ − 2 equals κτ(1+e^{−κτ}) − 2(1−e^{−κτ})
    c = atom_mech_constants(kappa_tau)
    t = kappa_tau
    alt = t * (1.0 + np.exp(-t)) - 2.0 * (1.0 - np.exp(-t))
    assert c.E == pytest.approx(alt, rel=1e-13)


def test_atom_mech_zero_pulse_limit():
    # κτ → 0: no interaction accumulates (E ~ (κτ)³/6), the gain vanishes
    model = build_atom_mech_gate(AtomMechParams(0.07, 0.07, 0.01, 1.0, 0.0, 0.0))
    assert abs(_coefficient(model, 0, "X_M0")) < 1e-6


def test_squeezing_affects_covariance_not_map():
    plain = build_atom_mech_gate(AtomMechParams(0.07, 0.07, 90.0, 0.9, 1e-4, 0.0))
    squeezed = build_atom_mech_gate(AtomMechParams(0.07, 0.07, 90.0, 0.9, 1e-4, 7.0))
    assert np.array_equal(plain.signal_map, squeezed.signal_map)
    assert not np.allclose(plain.vacuum_output_cov, squeezed.vacuum_output_cov)


def test_parameter_validation():
    with pytest.raises(ValueError):
        AtomLightParams(-0.1, 100.0, 1.0)
    with pytest.raises(ValueError):
        AtomLightParams(0.06, 100.0, 1.5)
    with pytest.raises(ValueError):
        OptomechParams(0.06, 100.0, 1.0, -1e-3)
    with pytest.raises(ValueError):
        AtomMechParams(0.07, 0.07, 90.0, 0.9, 1e-4, 25.0)


@pytest.mark.parametrize("cls,args,name", [
    (AtomLightParams, (math.inf, 100.0, 0.9), "g"),
    (AtomLightParams, (0.06, math.inf, 0.9), "kappa_tau"),
    (OptomechParams, (math.inf, 100.0, 0.9, 1e-3), "g"),
    (OptomechParams, (0.06, math.inf, 0.9, 1e-3), "kappa_tau"),
    (OptomechParams, (0.06, 100.0, 0.9, math.inf), "Gamma"),
    (OptomechParams, (0.06, 100.0, 0.9, math.nan), "Gamma"),
    (AtomMechParams, (math.inf, 0.07, 90.0, 0.9, 1e-4, 7.0), "gA"),
    (AtomMechParams, (0.07, math.inf, 90.0, 0.9, 1e-4, 7.0), "gM"),
    (AtomMechParams, (0.07, 0.07, math.inf, 0.9, 1e-4, 7.0), "kappa_tau"),
    (AtomMechParams, (0.07, 0.07, 90.0, 0.9, math.inf, 7.0), "Gamma"),
])
def test_non_finite_parameter_rejected_by_name(cls, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        cls(*args)



# ----------------------------------------------------------------------
# One factorization and one physicality check per model
# ----------------------------------------------------------------------

_ONE_OF_EACH = [
    ("ideal", {"G": 0.9}),
    ("bs", {"T": 0.4}),
    ("atom-light", {"g": 0.06, "kappa_tau": 100.0, "eta": 0.9}),
    ("optomech", {"g": 0.06, "kappa_tau": 100.0, "eta": 0.9, "Gamma": 1e-3}),
    ("atom-mech", {"g": 0.07, "kappa_tau": 90.0, "eta": 0.9, "Gamma": 1e-4, "S": 0.0}),
    ("atom-mech", {"g": 0.07, "kappa_tau": 90.0, "eta": 0.9, "Gamma": 1e-4, "S": 7.0}),
]


def _counted(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


# modes the stated overlaps name, per pulse gate
_NAMED = {"atom-light": 7, "optomech": 7, "atom-mech": 4}


@pytest.mark.parametrize("gate,values", _ONE_OF_EACH)
def test_each_build_factors_its_gram_matrix_at_most_once(monkeypatch, gate, values):
    # a build factors only the modes its overlaps name; the element and
    # the coherent jets factor nothing
    calls = _counted(monkeypatch, qnd_hom.modes, "gram_cholesky")
    model = build_model(gate, values)
    hom_sectors(model)
    coherent_jets(model)
    assert [len(labels) for _, labels in calls] == ([_NAMED[gate]] if gate in _NAMED else [])


@pytest.mark.parametrize("gate,values", _ONE_OF_EACH)
def test_transform_is_factored_once_when_read(monkeypatch, gate, values):
    model = build_model(gate, values)
    calls = _counted(monkeypatch, qnd_hom.modes, "gram_cholesky")
    C = model.basis.transform
    assert model.basis.transform is C
    assert len(calls) == 1


@pytest.mark.parametrize("gate,values", _ONE_OF_EACH)
def test_physicality_checked_once_per_model(monkeypatch, gate, values):
    calls = _counted(monkeypatch, qnd_hom.gaussian, "min_physicality_eig")
    model = build_model(gate, values)
    hom_sectors(model)
    coherent_jets(model)
    assert len(calls) == 1


# ----------------------------------------------------------------------
# One κτ part per pulse length
# ----------------------------------------------------------------------

# the pulse points of _ONE_OF_EACH and the middle point of each pulse preset
_PULSE_POINTS = [(gate, values) for gate, values in _ONE_OF_EACH if "kappa_tau" in values] + [
    (config.gate, {**config.fixed, config.sweep_param: float(config.grid()[config.points // 2])})
    for config in PRESETS.values() if config.gate != "ideal"
]

# every parameter but the pulse length, moved
_MOVE = {"g": lambda g: 1.25 * g, "eta": lambda eta: 0.9 * eta,
         "Gamma": lambda Gamma: Gamma + 1e-4, "S": lambda S: S + 3.0}


def _clear_pulse_caches():
    _pulse_part.cache_clear()
    _atom_mech_part.cache_clear()


@pytest.mark.parametrize("gate,values", _PULSE_POINTS)
def test_a_second_build_at_one_pulse_length_reuses_its_basis(monkeypatch, gate, values):
    other = {name: _MOVE[name](v) if name in _MOVE else v for name, v in values.items()}
    fresh = build_model(gate, other)
    _clear_pulse_caches()
    first = build_model(gate, values)
    calls = _counted(monkeypatch, qnd_hom.modes, "gram_cholesky")
    second = build_model(gate, other)
    assert second.basis is first.basis
    assert calls == []
    assert second.basis.gram.tobytes() == fresh.basis.gram.tobytes()
    for name in ("output_matrix", "vacuum_output_cov", "signal_map"):
        assert getattr(second, name).tobytes() == getattr(fresh, name).tobytes(), name


def test_a_one_dimensional_optimum_factors_the_gram_once(monkeypatch):
    calls = _counted(monkeypatch, qnd_hom.modes, "gram_cholesky")
    find_optimum("atom-light", {"kappa_tau": 100.0, "eta": 0.9}, {"g": (0.02, 0.15)})
    assert len(calls) == 1


@pytest.mark.parametrize("gate,fixed", [
    ("atom-light", {"kappa_tau": 100.0, "eta": 0.9}),
    ("atom-mech", {"kappa_tau": 90.0, "eta": 0.9, "Gamma": 1e-4, "S": 7.0}),
])
def test_a_coupling_sweep_factors_the_gram_once(monkeypatch, gate, fixed):
    calls = _counted(monkeypatch, qnd_hom.modes, "gram_cholesky")
    run_sweep(SweepConfig(gate, "g", 0.02, 0.15, 6, fixed, jobs=1))
    assert len(calls) == 1


@pytest.mark.parametrize("kappa_tau,message", [
    (1e-5, r"^kappa_tau=1e-05 is too short .*\(math domain error\)$"),  # the κτ brackets cancel
    (1e-6, r"^kappa_tau=1e-06 is too short .*the \('Y_0k', 'Y_0f1'\) pair is inconsistent\)$"),
    (5e-6, r"^kappa_tau=5e-06 is too short .*\(float division by zero\)$"),  # L1 rounds to 0
], ids=("1e-05", "1e-06", "5e-06"))
def test_a_failing_pulse_length_is_never_cached(kappa_tau, message):
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match=message) as err:
            build_atom_light_gate(AtomLightParams(0.06, kappa_tau, 0.9))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert _pulse_part.cache_info().currsize == 0


@pytest.mark.parametrize("gate,values", _PULSE_POINTS[:3])
def test_a_shared_basis_is_read_only(gate, values):
    basis = build_model(gate, values).basis
    with pytest.raises(ValueError, match="read-only"):
        basis.gram[0, 1] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        basis.transform[1, 0] = 0.5
    assert build_model(gate, values).basis.gram[0, 1] == 0.0


# the sign of each mediator mode's squeezing exponent: 10^{±S/20} on its coefficients
_MEDIATOR = {"X_in": 1.0, "X_in_f": 1.0, "P_in": -1.0}


@pytest.mark.parametrize("preset", ["fig3a", "fig3b", "app-atommech-squeezing"])
def test_squeezing_scales_the_mediator_rows(preset):
    # squeezing is a factor on the mediator's coefficients: Σ stays the
    # unsqueezed Gram matrix, and the signal map does not move
    config = PRESETS[preset]
    for value in config.grid():
        values = {**config.fixed, config.sweep_param: float(value)}
        squeezed = build_model("atom-mech", values)
        plain = build_model("atom-mech", {**values, "S": 0.0})
        gram = squeezed.basis.gram
        assert np.array_equal(gram, plain.basis.gram), value
        assert np.array_equal(np.diag(gram), np.ones(len(gram))), value
        C = squeezed.basis.transform
        assert np.abs(C @ C.T - gram).max() <= 1e-12, value
        mediator = [squeezed.basis.labels.index(lab) for lab in _MEDIATOR]
        others = np.setdiff1d(np.arange(squeezed.basis.n_modes), mediator)
        scale = np.array([10.0 ** (sign * values["S"] / 20.0) for sign in _MEDIATOR.values()])
        A, A0 = squeezed.output_matrix, plain.output_matrix
        assert np.array_equal(A[:, others], A0[:, others]), value
        np.testing.assert_allclose(A[:, mediator], A0[:, mediator] * scale, rtol=1e-15, atol=0.0)
        assert np.array_equal(squeezed.signal_map, plain.signal_map), value
        moved = not np.array_equal(squeezed.vacuum_output_cov, plain.vacuum_output_cov)
        assert moved == (values["S"] > 0.0), value


@pytest.mark.parametrize("preset", [name for name, config in PRESETS.items() if config.gate != "ideal"])
def test_factor_free_model_matches_the_factored_one(preset):
    # AΣ[:, :4] and AΣAᵀ against the maps over independent modes, A·C
    config = PRESETS[preset]
    for value in config.grid():
        model = build_model(config.gate, {**config.fixed, config.sweep_param: float(value)})
        AC = model.output_matrix @ model.basis.transform
        V = model.vacuum_output_cov
        assert np.array_equal(model.signal_map, AC[:, :4]), value
        assert np.abs(V - AC @ AC.T).max() <= 1e-14 * np.abs(V).max(), value
