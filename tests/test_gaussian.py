"""Covariance toolkit: symplectic maps, physicality, generating-function jets."""

import itertools
import math

import numpy as np
import pytest
from block_engine import block_hom_jet

from qnd_hom.fock import closed_form_qnd_11
from qnd_hom.gates import ideal_gate_model
from qnd_hom.gaussian import (
    HOM_BS,
    NumericalDomainError,
    _jet_exp,
    bs_matrix,
    check_physical,
    hom_jet,
    is_symplectic,
    min_physicality_eig,
    omega,
    qnd_matrix,
)
from qnd_hom.metrics import hom_sectors
from qnd_hom.sweep import PRESETS, build_model


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
    check_physical(np.eye(4))
    assert min_physicality_eig(np.eye(4)) == pytest.approx(0.0, abs=1e-12)


def test_below_vacuum_rejected():
    with pytest.raises(NumericalDomainError):
        check_physical(0.5 * np.eye(4))


def test_thermal_is_physical():
    check_physical(3.0 * np.eye(2))
    assert min_physicality_eig(3.0 * np.eye(2)) > 0


def test_vacuum_jet_is_projector_statistics():
    # no input variables: the vacuum output projected on B(Σ y^k|k⟩⟨k|)B†
    # has weight 1 on |0,0⟩ and nothing on one or two photons
    jet = hom_jet(np.eye(4))
    assert jet == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)


def test_identity_jet_is_beam_splitter_photon_statistics():
    # identity channel: component (i, j, k, l) is |⟨i,j|B|k,l⟩|² for the
    # balanced beam splitter B — the HOM dip makes (1, 1, 1, 1) vanish
    eye = np.eye(4)
    jet = hom_jet(eye, (eye[:, :2], eye[:, 2:]))
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
    jet = hom_jet(np.eye(4), (HOM_BS[:, :2], HOM_BS[:, 2:]))
    assert abs(jet[0b1111] - 1.0) <= 1e-14
    assert np.abs(jet[0b1100:0b1111]).max() <= 1e-15


def test_identity_gate_produces_no_bunching():
    # G=0: photons never swap modes, so no input sector reaches |HOM⟩
    T = qnd_matrix(0.0)
    jet = hom_jet(T @ T.T, (T[:, :2], T[:, 2:]))
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
    # outside the physical domain
    with pytest.raises(NumericalDomainError):
        hom_jet(np.diag([-1.0, 1.0, 1.0, 1.0]))
    for diag in ([-3.0, 1.0, 1.0, 1.0], [-3.0, -3.0, 1.0, 1.0], [np.nan, 1.0, 1.0, 1.0]):
        with pytest.raises(NumericalDomainError):
            hom_jet(np.diag(diag))


def _preset_models():
    for config in PRESETS.values():
        for value in config.grid():
            yield build_model(config.gate, {**config.fixed, config.sweep_param: float(value)})


def test_split_kernels_match_the_block_engine_at_every_preset_point():
    # the four sectors (k = 4) and the coherent projector jet (k = 2) of
    # all 720 preset points, against the general 2 × 2-block engine
    worst = 0.0
    for model in _preset_models():
        cov, signal = model.vacuum_output_cov, model.signal_map
        inputs = (signal[:, :2], signal[:, 2:])
        worst = max(
            worst,
            np.abs(hom_jet(cov, inputs) - block_hom_jet(cov, inputs)).max(),
            np.abs(hom_jet(cov) - block_hom_jet(cov)).max(),
        )
    assert worst <= 5e-16


def test_ideal_11_sector_matches_the_closed_form_to_roundoff():
    errors = [abs(hom_sectors(ideal_gate_model(G))[1, 1] - closed_form_qnd_11(G)) for G in np.linspace(0.0, 3.0, 61)]
    assert max(errors) <= 3e-16


def test_an_xp_entry_of_the_overlap_matrix_is_rejected():
    # a gate that mixes X and P is outside the split engine; the first
    # X–P entry of S₀ is named
    cov = np.eye(4)
    cov[1, 2] = cov[2, 1] = 0.25
    with pytest.raises(ValueError, match=r"^S0\[1, 2\] = 0\.25 mixes X and P"):
        hom_jet(cov)


def test_an_xp_entry_of_an_input_block_is_rejected():
    eye = np.eye(4)
    second = eye[:, 2:].copy()
    second[0, 1] = -0.5  # the p column of input 1 reads x_a
    with pytest.raises(ValueError, match=r"^input block 1 entry \[0, 1\] = -0\.5 mixes X and P"):
        hom_jet(eye, (eye[:, :2], second))
