"""Truncated Fock oracle against closed forms and dense exponentials."""

import numpy as np
import pytest
import scipy.linalg

from qnd_hom.fock import (
    FockBasisSpec,
    QND_11_ARGMAX,
    TruncationError,
    build_bs_unitary,
    build_qnd_unitary,
    closed_form_bs_11,
    closed_form_qnd_00,
    closed_form_qnd_11,
    destroy,
    fock_state,
    hom_element_exact,
    hom_element_mixture_ideal,
    hom_state,
)


def default_cutoff(G: float) -> int:
    return 40 if abs(G) <= 1.5 else 80


def coherent_hom_element(alpha: complex, beta: complex) -> float:
    """Element for coherent inputs |α⟩|β⟩ through a balanced beam splitter."""
    return float(0.25 * np.exp(-abs(alpha) ** 2 - abs(beta) ** 2) * abs(alpha**2 - beta**2) ** 2)


def _dense_qnd(G, N):
    a = destroy(N)
    X = a + a.T
    P = 1j * (a.T - a)
    H = np.kron(X, P)
    return scipy.linalg.expm(-0.5j * G * H)


def test_matches_dense_matrix_exponential():
    N = 18
    op = build_qnd_unitary(0.9, FockBasisSpec(N))
    ref = _dense_qnd(0.9, N)
    assert np.linalg.norm(op.matrix - ref, ord=2) < 1e-12


def test_apply_equals_matrix_product():
    basis = FockBasisSpec(16)
    op = build_qnd_unitary(1.3, basis)
    vec = np.sin(np.arange(basis.dim)) + 1j * np.cos(np.arange(basis.dim) / 3.0)
    assert np.allclose(op.apply(vec), op.matrix @ vec, atol=1e-12)


@pytest.mark.parametrize("G", [0.0, 0.3, QND_11_ARGMAX, 1.4, 2.0])
def test_oracle_matches_closed_form_11(G):
    basis = FockBasisSpec(default_cutoff(G))
    U = build_qnd_unitary(G, basis)
    val = hom_element_exact(U, fock_state(basis, 1, 1))
    assert val == pytest.approx(closed_form_qnd_11(G), abs=1e-10)


@pytest.mark.parametrize("G", [0.0, 0.3, QND_11_ARGMAX, 1.4, 2.0])
def test_oracle_matches_closed_form_00(G):
    basis = FockBasisSpec(default_cutoff(G))
    U = build_qnd_unitary(G, basis)
    val = hom_element_exact(U, fock_state(basis, 0, 0))
    assert val == pytest.approx(closed_form_qnd_00(G), abs=1e-10)


def test_closed_form_maximum():
    assert QND_11_ARGMAX == pytest.approx(np.sqrt(11.0 - np.sqrt(105.0)), abs=1e-15)
    val = closed_form_qnd_11(QND_11_ARGMAX)
    eps = 1e-6
    assert val > closed_form_qnd_11(QND_11_ARGMAX - eps)
    assert val > closed_form_qnd_11(QND_11_ARGMAX + eps)
    assert val == pytest.approx(0.26085094286527505, abs=1e-12)


def test_balanced_bs_is_perfect_bunching():
    basis = FockBasisSpec(20)
    U = build_bs_unitary(np.pi / 4.0, basis)  # T = sin²(π/4) = 1/2
    val = hom_element_exact(U, fock_state(basis, 1, 1))
    assert val == pytest.approx(1.0, abs=1e-12)
    assert closed_form_bs_11(0.5) == 1.0


def test_bs_matches_dense_matrix_exponential():
    N = 12
    theta = 0.6
    a = destroy(N)
    H = 1j * (np.kron(a.T, a) - np.kron(a, a.T))  # i(a†b − b†a)
    ref = scipy.linalg.expm(-1j * theta * H)
    op = build_bs_unitary(theta, FockBasisSpec(N))
    assert np.linalg.norm(op.matrix - ref, ord=2) < 1e-12


@pytest.mark.parametrize("T", [0.0, 0.2, 0.5, 0.8, 1.0])
def test_bs_closed_form(T):
    basis = FockBasisSpec(16)
    theta = np.arcsin(np.sqrt(T))
    U = build_bs_unitary(theta, basis)
    val = hom_element_exact(U, fock_state(basis, 1, 1))
    assert val == pytest.approx(closed_form_bs_11(T), abs=1e-12)
    assert closed_form_bs_11(T) == pytest.approx(4.0 * T * (1.0 - T), abs=1e-15)


def test_hom_plus_is_null():
    # |11⟩ through any QND gate never populates the symmetric |HOM₊⟩
    basis = FockBasisSpec(30)
    for G in (0.4, QND_11_ARGMAX, 1.7):
        U = build_qnd_unitary(G, basis)
        assert hom_element_exact(U, fock_state(basis, 1, 1), sign=+1.0) < 1e-20


def test_parity_conservation():
    # the generator X⊗P changes each mode's occupation by ±1 together:
    # total parity is conserved, so odd totals never reach |HOM⟩
    basis = FockBasisSpec(24)
    U = build_qnd_unitary(1.1, basis)
    for (na, nb) in [(1, 0), (0, 1), (2, 1), (3, 0)]:
        assert hom_element_exact(U, fock_state(basis, na, nb)) < 1e-22


def test_gate_strength_cap():
    with pytest.raises(ValueError):
        build_qnd_unitary(5.5, FockBasisSpec(40))


def test_cutoff_bounds():
    with pytest.raises(ValueError):
        FockBasisSpec(3)
    with pytest.raises(ValueError):
        FockBasisSpec(201)


def test_occupation_outside_basis():
    basis = FockBasisSpec(8)
    with pytest.raises(ValueError):
        fock_state(basis, 8, 0)


def test_truncation_check_fires_on_small_cutoff():
    # at N = 8 the |1,1⟩ element is 7.3e-3 off the closed form; U is
    # still unitary there, so only a larger cutoff reveals the error
    basis = FockBasisSpec(8)
    with pytest.raises(TruncationError, match="N=8"):
        build_qnd_unitary(3.0, basis)


def test_hom_state_normalized():
    basis = FockBasisSpec(6)
    for sign in (-1.0, 1.0):
        vec = hom_state(basis, sign=sign).amplitudes
        assert np.vdot(vec, vec).real == pytest.approx(1.0, abs=1e-15)


def test_mixture_closed_form():
    G = 0.9
    f11 = closed_form_qnd_11(G)
    f00 = closed_form_qnd_00(G)
    assert hom_element_mixture_ideal(G, 1.0, 1.0) == pytest.approx(f11)
    assert hom_element_mixture_ideal(G, 0.0, 0.0) == pytest.approx(f00)
    p, q = 0.7, 0.4
    expected = p * q * f11 + (1.0 - p) * (1.0 - q) * f00
    assert hom_element_mixture_ideal(G, p, q) == pytest.approx(expected, abs=1e-15)


def test_coherent_element_closed_form():
    # (1/4)e^{−|α|²−|β|²}|α²−β²|², maximized at α=1, β=i where it
    # reaches e^{−2} (u²e^{−u} is stationary at u = |α|²+|β|² = 2)
    a, b = 1.1 + 0.3j, 0.2 - 0.8j
    expected = 0.25 * np.exp(-abs(a) ** 2 - abs(b) ** 2) * abs(a**2 - b**2) ** 2
    assert coherent_hom_element(a, b) == pytest.approx(expected, abs=1e-15)
    peak = coherent_hom_element(1.0, 1.0j)
    assert peak == pytest.approx(np.exp(-2.0), abs=1e-15)
    for eps in (0.05, -0.05):
        assert coherent_hom_element(1.0 + eps, 1.0j) < peak
