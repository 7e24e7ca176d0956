"""Covariance toolkit: symplectic maps, physicality, generating-function jets."""

import itertools
import math
import re

import numpy as np
import pytest
from block_engine import block_coherent_jets, block_hom_jet

from qnd_hom.fock import closed_form_qnd_11
from qnd_hom.gates import _signal_batch, ideal_gate_model
from qnd_hom.gaussian import (
    HOM_BS,
    NumericalDomainError,
    _jet_exp,
    bs_matrix,
    hom_jet,
    is_symplectic,
    min_physicality_eig,
    omega,
    physicality_errors,
    qnd_matrix,
    split_kernels,
)
from qnd_hom.sweep import PRESETS, build_model
from qnd_hom.thresholds import coherent_jets, input_threshold

NO_INPUTS = np.empty((4, 0))  # k = 2: the projector variables alone


def signal_gate_model(matrix):
    """Noiseless gate: a 4 × 4 map of the two signal modes alone."""
    return _signal_batch(np.asarray(matrix, dtype=float)[None]).model(0)


def test_omega_blocks():
    W = omega(2)
    assert W.shape == (4, 4)
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(W[:2, :2], block)
    assert np.array_equal(W[2:, 2:], block)
    assert not W[:2, 2:].any()
    assert np.array_equal(W.T, -W)


@pytest.mark.parametrize("G", [0.0, 0.3, 0.8677840941388602, 2.0, -1.5])
def test_qnd_matrix_symplectic(G):
    assert is_symplectic(qnd_matrix(G))


def test_qnd_matrix_action():
    S = qnd_matrix(0.7)
    # X_a picks up G·X_b; P_b picks up −G·P_a; X_b and P_a untouched
    assert S[0, 2] == pytest.approx(0.7)
    assert S[3, 1] == pytest.approx(-0.7)
    assert np.array_equal(S[1], [0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(S[2], [0.0, 0.0, 1.0, 0.0])


@pytest.mark.parametrize("T", [0.0, 0.25, 0.5, 0.9, 1.0])
def test_bs_matrix_orthogonal_symplectic(T):
    S = bs_matrix(T)
    assert is_symplectic(S)
    assert np.allclose(S.T @ S, np.eye(4), atol=1e-14)


def test_vacuum_is_physical():
    assert physicality_errors(np.eye(4)[None]) == [None]
    assert min_physicality_eig(np.eye(4)) == pytest.approx(0.0, abs=1e-12)


def test_below_vacuum_rejected():
    # the second: x_a antisqueezed to 1e6 and p_a squeezed to half the pure
    # state's 1e-6, far outside eigvalsh's roundoff at max|V| = 1e6
    for cov, ev in ((0.5 * np.eye(4), "-5.000e-01"), (np.diag([1e6, 0.5e-6, 1.0, 1.0]), "-5.000e-07")):
        message = rf"^covariance violates the uncertainty bound: min eig\(V\+iΩ\) = {ev}$"
        (error,) = physicality_errors(cov[None])
        assert isinstance(error, NumericalDomainError) and re.search(message, str(error)), error


@pytest.mark.parametrize("Gamma", [1e-4, 10.0])
@pytest.mark.parametrize("S", [0.0, 7.0, 20.0])
def test_large_gain_atom_mech_builds(Gamma, S):
    # at g = 30, κτ = 1e4 the output covariance reaches max|V| ≈ 5e14 to 2e19,
    # and eigvalsh returns min eig(V+iΩ) ≈ −4e-4: roundoff, not a violation
    model = build_model("atom-mech", {"g": 30.0, "kappa_tau": 1e4, "eta": 1.0, "Gamma": Gamma, "S": S})
    assert np.all((model.sectors >= 0.0) & (model.sectors <= 1.0))
    assert 0.0 <= input_threshold(model).value <= 1.0


def test_thermal_is_physical():
    assert physicality_errors(3.0 * np.eye(2)[None]) == [None]
    assert min_physicality_eig(3.0 * np.eye(2)) > 0


def test_vacuum_jet_is_projector_statistics():
    # no input variables: the vacuum output projected on B(Σ y^k|k⟩⟨k|)B†
    # has weight 1 on |0,0⟩ and nothing on one or two photons
    jet = hom_jet(*split_kernels(np.eye(4), NO_INPUTS))
    assert jet == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)


def test_identity_jet_is_beam_splitter_photon_statistics():
    # identity channel: component (i, j, k, l) is |⟨i,j|B|k,l⟩|² for the
    # balanced beam splitter B — the HOM dip makes (1, 1, 1, 1) vanish
    eye = np.eye(4)
    jet = hom_jet(*split_kernels(eye, eye))
    for i, j, k, l in itertools.product((0, 1), repeat=4):
        mask = i | j << 1 | k << 2 | l << 3
        if i + j != k + l:
            expected = 0.0
        elif i + j == 1:
            expected = 0.5
        else:
            expected = float(i + j == 0)
        assert abs(jet[mask] - expected) <= 1e-15, (i, j, k, l)


def test_projector_normalization():
    # |1,1⟩ sent through the balanced beam splitter is |HOM⟩ itself: the
    # projector reads exactly 1 on it and nothing on the other inputs
    jet = hom_jet(*split_kernels(np.eye(4), HOM_BS))
    assert abs(jet[0b1111] - 1.0) <= 1e-14
    assert np.abs(jet[0b1100:0b1111]).max() <= 1e-15


def test_identity_gate_produces_no_bunching():
    # G=0: photons never swap modes, so no input sector reaches |HOM⟩
    T = qnd_matrix(0.0)
    jet = hom_jet(*split_kernels(T @ T.T, T))
    assert np.abs(jet[0b1100:]).max() <= 1e-15


def test_jet_exp_matches_power_series():
    # exp of a nilpotent jet (u₀ = 0) equals its series truncated after u⁴
    rng = np.random.default_rng(7)
    u = rng.normal(size=16)
    u[0] = 0.0

    def mul(a, b):
        out = np.zeros(16)
        for m in range(16):
            for s in range(16):
                if s & m == s:
                    out[m] += a[s] * b[m ^ s]
        return out

    series, power = np.eye(1, 16)[0], np.eye(1, 16)[0]
    for k in range(1, 5):
        power = mul(power, u) / k
        series = series + power
    assert np.abs(_jet_exp(u) - series).max() <= 1e-14
    shifted = u.copy()
    shifted[0] = 0.3
    assert np.abs(_jet_exp(shifted) - math.exp(0.3) * series).max() <= 1e-14


def test_singular_overlap_rejected():
    # V + I must be positive definite; a singular or indefinite one is
    # outside the physical domain and gets a NaN det, and so a NaN jet.  In
    # the last diagonal the x block diag(−2, −2) has determinant +4, and only
    # its leading entry shows it
    covs = [np.diag(d) for d in ([-1.0, 1.0, 1.0, 1.0], [-3.0, 1.0, 1.0, 1.0], [-3.0, -3.0, 1.0, 1.0],
                                 [np.nan, 1.0, 1.0, 1.0], [np.inf, 1.0, 1.0, 1.0], [-3.0, 1.0, -3.0, 1.0])]
    covs.append(np.diag([1.0, 0.0, 1.0, 0.0]))
    covs[-1][1, 3] = covs[-1][3, 1] = 2.0  # the p block [[1, 2], [2, 1]], of determinant −3
    for cov in covs:
        det, K = split_kernels(cov, NO_INPUTS)
        assert math.isnan(det) and np.isnan(hom_jet(det, K)).all(), np.diag(cov)


def test_identity_gate_coherent_weight_is_exact():
    # S₀ = 2I: det S₀ = det Sx · det Sp = 16 exactly, so c₀ = 4/√16 = 1
    identity = ideal_gate_model(0.0)
    assert coherent_jets(identity.kernels, identity.jet)[0][0] == 1.0


def _preset_models():
    for config in PRESETS.values():
        for value in config.grid():
            yield build_model(config.gate, {**config.fixed, config.sweep_param: float(value)})


def test_split_kernels_match_the_block_engine_at_every_preset_point():
    # the four sectors (k = 4), the projector jet (k = 2) and coherent_jets'
    # c and Q of all 720 preset points, against the general 2 × 2-block
    # engine and the general coherent forms
    worst = 0.0
    for model in _preset_models():
        cov, signal = model.vacuum_output_cov, model.signal_map
        inputs = (signal[:, :2], signal[:, 2:])
        c, Q = coherent_jets(model.kernels, model.jet)
        block_c, block_Q = block_coherent_jets(cov, signal)
        worst = max(
            worst,
            np.abs(hom_jet(*split_kernels(cov, signal)) - block_hom_jet(cov, inputs)).max(),
            np.abs(hom_jet(*split_kernels(cov, NO_INPUTS)) - block_hom_jet(cov)).max(),
            np.abs(c - block_c).max(),
            np.abs(Q - block_Q).max(),
        )
    assert worst <= 5e-16


def test_ideal_11_sector_matches_the_closed_form_to_roundoff():
    errors = [abs(ideal_gate_model(G).sectors[1, 1] - closed_form_qnd_11(G)) for G in np.linspace(0.0, 3.0, 61)]
    assert max(errors) <= 3e-16


def test_an_xp_entry_of_the_overlap_matrix_is_rejected():
    # a gate that mixes X and P is outside the split engine; the first
    # X–P entry of S₀ is named
    cov = np.eye(4)
    cov[1, 2] = cov[2, 1] = 0.25
    with pytest.raises(ValueError, match=r"^S0\[1, 2\] = 0\.25 mixes X and P"):
        hom_jet(*split_kernels(cov, NO_INPUTS))


def test_an_xp_entry_of_an_input_block_is_rejected():
    eye = np.eye(4)
    second = eye[:, 2:].copy()
    second[0, 1] = -0.5  # the p column of input 1 reads x_a
    with pytest.raises(ValueError, match=r"^input block 1 entry \[0, 1\] = -0\.5 mixes X and P"):
        hom_jet(*split_kernels(eye, np.hstack([eye[:, :2], second])))


def test_element_coherent_forms_and_threshold_share_one_scope():
    # a quarter turn of mode a (X_a → −P_a, P_a → X_a) keeps the covariance
    # exactly split but its signal map joins an x row to a p column: its
    # build, which reads the kernels that the element, the coherent forms and
    # the input threshold take from the model, rejects it
    turn = np.eye(4)
    turn[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
    assert np.array_equal(turn @ turn.T, np.eye(4))  # the vacuum output covariance
    with pytest.raises(ValueError, match=r"^input block 0 entry \[0, 1\] = 1\.0 mixes X and P"):
        signal_gate_model(turn)
