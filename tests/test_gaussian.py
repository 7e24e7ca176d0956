"""Covariance toolkit: symplectic maps, physicality, generating-function jets."""

import itertools
import math

import numpy as np
import pytest

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
