"""Bunching element through gate models: closed forms, anchors, exactness."""

import math

import numpy as np
import pytest
from coherent_reference import coherent_output_element

from qnd_hom.fock import (
    FockBasisSpec,
    build_qnd_unitary,
    closed_form_bs_11,
    closed_form_qnd_00,
    closed_form_qnd_11,
    hom_state,
)
from qnd_hom.gaussian import NumericalDomainError
from qnd_hom.gates import (
    AtomLightParams,
    AtomMechParams,
    OptomechParams,
    build_atom_light_gate,
    build_atom_mech_gate,
    build_optomech_gate,
    ideal_gate_model,
)
from qnd_hom.metrics import (
    HomResult,
    InputSpec,
    _probability,
    hom_element_for_gate,
    hom_element_ideal_via_wigner,
)
from qnd_hom.sweep import build_model


def test_input_spec_validation():
    with pytest.raises(ValueError):
        InputSpec(1.2, 0.5)
    with pytest.raises(ValueError):
        InputSpec(0.5, -0.1)


def test_occupation_is_ignored():
    # the element is the exact n → 0 limit; a third InputSpec field is
    # accepted for old callers and changes nothing, however small
    model = build_atom_light_gate(AtomLightParams(0.06, 100.0, 0.9))
    exact = hom_element_for_gate(model, InputSpec(1.0, 1.0)).value
    for n in (1e-3, 1e-4, 1e-5, 0.0):
        assert hom_element_for_gate(model, InputSpec(1.0, 1.0, n)).value == exact


def test_result_carries_diagnostics():
    res = hom_element_for_gate(ideal_gate_model(0.9), InputSpec(1.0, 1.0))
    assert isinstance(res, HomResult)
    assert res.error_estimate == 0.0  # no truncation or extrapolation error
    assert float(res) == res.value


@pytest.mark.parametrize("G", [0.3, 0.87, 2.0])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_matches_closed_forms(G, p):
    expected = p * p * closed_form_qnd_11(G) + (1 - p) * (1 - p) * closed_form_qnd_00(G)
    got = hom_element_ideal_via_wigner(G, p, p)
    assert got == pytest.approx(expected, abs=1e-12)


def test_sectors_match_ideal_closed_forms():
    # E₁₁ and E₀₀ are the closed forms; E₁₀ and E₀₁ vanish by parity
    for G in np.linspace(0.0, 3.0, 80):
        E = ideal_gate_model(float(G)).sectors
        assert abs(E[1, 1] - closed_form_qnd_11(G)) <= 1e-12, G
        assert abs(E[0, 0] - closed_form_qnd_00(G)) <= 1e-12, G
        assert abs(E[1, 0]) <= 1e-12 and abs(E[0, 1]) <= 1e-12, G


def test_sectors_match_beam_splitter_closed_form():
    # a passive gate conserves photon number: only |1,1⟩ reaches |HOM⟩
    for T in np.linspace(0.0, 1.0, 80):
        E = build_model("bs", {"T": float(T)}).sectors
        assert abs(E[1, 1] - closed_form_bs_11(T)) <= 1e-12, T
        assert np.abs(E.ravel()[:3]).max() <= 1e-12, T


@pytest.mark.parametrize("gate, values", [
    ("ideal", {"G": 0.0}), ("bs", {"T": 0.0}), ("bs", {"T": 1.0}),
])
def test_identity_gates_give_no_bunching(gate, values):
    # photons that never meet cannot bunch
    model = build_model(gate, values)
    for p in (0.0, 0.05, 0.4, 0.7, 1.0):
        assert abs(hom_element_for_gate(model, InputSpec(p, p)).value) <= 1e-15, p


def test_atom_light_element_is_smooth():
    # 11 steps of 1e-7 in g lie on a quadratic to float64 roundoff
    gs = 0.06 + 1e-7 * np.arange(11)
    values = [
        hom_element_for_gate(
            build_atom_light_gate(AtomLightParams(float(g), 100.0, 0.9)), InputSpec(1.0, 1.0)
        ).value
        for g in gs
    ]
    steps = np.arange(11.0)
    fit = np.polyval(np.polyfit(steps, values, 2), steps)
    assert np.abs(fit - values).max() <= 1e-12


def test_atom_light_anchor():
    model = build_atom_light_gate(AtomLightParams(0.06, 100.0, 0.9))
    res = hom_element_for_gate(model, InputSpec(1.0, 1.0))
    assert res.value == pytest.approx(0.2278, abs=5e-4)


def test_atom_mech_squeezing_helps():
    base = AtomMechParams(0.07, 0.07, 90.0, 0.9, 1e-4, 0.0)
    squeezed = AtomMechParams(0.07, 0.07, 90.0, 0.9, 1e-4, 7.0)
    v0 = hom_element_for_gate(build_atom_mech_gate(base), InputSpec(1.0, 1.0)).value
    v7 = hom_element_for_gate(build_atom_mech_gate(squeezed), InputSpec(1.0, 1.0)).value
    assert v0 == pytest.approx(0.1355, abs=1e-3)
    assert v7 == pytest.approx(0.1651, abs=1e-3)
    assert v7 > v0


def test_reheating_damage_is_monotone():
    values = []
    for Gamma in (0.0, 1e-4, 3e-4, 1e-3, 3e-3):
        model = build_optomech_gate(OptomechParams(0.06, 100.0, 0.9, Gamma))
        values.append(hom_element_for_gate(model, InputSpec(1.0, 1.0)).value)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_element_range_bound():
    for G in (0.0, 0.5, 1.0, 2.0, 3.0):
        for p in (0.0, 0.6, 1.0):
            val = hom_element_ideal_via_wigner(G, p, p)
            assert 0.0 <= val <= 1.0


def test_roundoff_clipped_and_far_values_rejected():
    # float64 roundoff within 1e-12 of [0, 1] is clipped to the bound;
    # anything further out is a numerical failure, never an element
    assert _probability(-8.9e-16) == 0.0
    assert _probability(1.0 + 5e-13) == 1.0
    assert _probability(0.25) == 0.25
    for bad in (-1e-9, 1.0 + 1e-9, 768.0, math.nan):
        with pytest.raises(NumericalDomainError):
            _probability(bad)


def test_vacuum_inputs_give_00_element():
    G = 1.1
    got = hom_element_ideal_via_wigner(G, 0.0, 0.0)
    assert got == pytest.approx(closed_form_qnd_00(G), abs=1e-12)


# ----------------------------------------------------------------------
# Coherent outputs
# ----------------------------------------------------------------------

def test_coherent_element_peak_through_identity():
    # ⟨X⟩ = 2·Re α in these units, so the peak pair α=1, β=i sits at the
    # quadrature means (2, 0, 0, 2) and reaches the output threshold e^{−2}
    val = coherent_output_element(0.0, (2.0, 0.0, 0.0, 2.0))
    assert val == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_coherent_element_vanishes_for_equal_amplitudes():
    # α = β ⇒ |α²−β²|² = 0
    val = coherent_output_element(0.0, (2.0, 1.0, 2.0, 1.0))
    assert val == pytest.approx(0.0, abs=1e-12)


def test_coherent_element_rotation_invariance():
    # global π rotation of both phases leaves the element unchanged
    v1 = coherent_output_element(0.0, (1.6, 0.4, -0.8, 1.2))
    v2 = coherent_output_element(0.0, (-1.6, -0.4, 0.8, -1.2))
    assert v1 == pytest.approx(v2, abs=1e-10)


def test_coherent_element_through_gate_model():
    model = ideal_gate_model(0.9)
    means = (1.0, 0.3, -0.5, 0.8)
    via_model = coherent_output_element(model, means)
    via_gain = coherent_output_element(0.9, means)
    assert via_model == pytest.approx(via_gain, abs=1e-12)


def test_coherent_element_matches_fock_oracle():
    # the Fock oracle's gate exp(−iG·X_a P_b/2) is the package's QND map
    # with the two modes exchanged, so coherent inputs swap places
    N = 40
    basis = FockBasisSpec(N)
    hom = hom_state(basis).amplitudes

    def coherent(alpha):
        vec = np.zeros(N, dtype=complex)
        vec[0] = math.exp(-abs(alpha) ** 2 / 2.0)
        for k in range(1, N):
            vec[k] = vec[k - 1] * alpha / math.sqrt(k)
        return vec

    for G in (0.87, 1.6):
        U = build_qnd_unitary(G, basis)
        for a, b in ((0.5 + 0.15j, -0.25 + 0.4j), (1.1 - 0.3j, 0.2 + 0.9j)):
            oracle = abs(np.vdot(hom, U.apply(np.kron(coherent(a), coherent(b))))) ** 2
            means = (2 * b.real, 2 * b.imag, 2 * a.real, 2 * a.imag)
            assert abs(coherent_output_element(G, means) - oracle) <= 1e-12, (G, a, b)
