"""Property-based invariants across the whole stack."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qnd_hom.sweep
from qnd_hom.fock import FockBasisSpec, build_qnd_unitary, fock_state, hom_element_exact
from qnd_hom.gates import (
    AtomLightParams,
    AtomMechParams,
    OptomechParams,
    build_atom_light_gate,
    build_atom_mech_gate,
    build_optomech_gate,
)
from qnd_hom.gaussian import bs_matrix, is_symplectic, min_physicality_eig, qnd_matrix
from qnd_hom.metrics import hom_element_ideal_via_wigner
from qnd_hom.modes import gram_cholesky
from qnd_hom.sweep import SweepConfig, render_csv, run_sweep

_slow = settings(max_examples=15, deadline=None)
_fast = settings(max_examples=40, deadline=None)


# ----------------------------------------------------------------------
# Gaussian core
# ----------------------------------------------------------------------

@_fast
@given(st.floats(-5.0, 5.0))
def test_qnd_map_is_symplectic(G):
    assert is_symplectic(qnd_matrix(G))


@_fast
@given(st.floats(0.0, 1.0))
def test_bs_map_is_orthogonal_symplectic(T):
    S = bs_matrix(T)
    assert is_symplectic(S)
    assert np.allclose(S @ S.T, np.eye(4), atol=1e-12)


# ----------------------------------------------------------------------
# Physical gates
# ----------------------------------------------------------------------

@_slow
@given(
    st.floats(0.005, 0.2),
    st.floats(1.0, 200.0),
    st.floats(0.1, 1.0),
)
def test_atom_light_output_physical(g, kappa_tau, eta):
    model = build_atom_light_gate(AtomLightParams(g, kappa_tau, eta))
    assert min_physicality_eig(model.vacuum_output_cov) > -1e-9


@_slow
@given(
    st.floats(0.005, 0.2),
    st.floats(1.0, 200.0),
    st.floats(0.1, 1.0),
    st.floats(0.0, 0.02),
)
def test_optomech_output_physical(g, kappa_tau, eta, Gamma):
    model = build_optomech_gate(OptomechParams(g, kappa_tau, eta, Gamma))
    assert min_physicality_eig(model.vacuum_output_cov) > -1e-9


@_slow
@given(
    st.floats(0.02, 0.15),
    st.floats(5.0, 150.0),
    st.floats(0.3, 1.0),
    st.floats(0.0, 0.01),
    st.floats(0.0, 10.0),
)
def test_atom_mech_output_physical(g, kappa_tau, eta, Gamma, S):
    model = build_atom_mech_gate(AtomMechParams(g, g, kappa_tau, eta, Gamma, S))
    assert min_physicality_eig(model.vacuum_output_cov) > -1e-9


# ----------------------------------------------------------------------
# Fock oracle
# ----------------------------------------------------------------------

@_slow
@given(st.floats(0.0, 2.0))
def test_parity_forbids_odd_totals(G):
    basis = FockBasisSpec(30)
    U = build_qnd_unitary(G, basis)
    assert hom_element_exact(U, fock_state(basis, 1, 0)) < 1e-20
    assert hom_element_exact(U, fock_state(basis, 0, 1)) < 1e-20


@_slow
@given(st.floats(0.0, 2.0))
def test_symmetric_hom_state_stays_empty(G):
    basis = FockBasisSpec(30)
    U = build_qnd_unitary(G, basis)
    assert hom_element_exact(U, fock_state(basis, 1, 1), sign=+1.0) < 1e-18


# ----------------------------------------------------------------------
# Mixture structure of the Gaussian engine
# ----------------------------------------------------------------------

@_slow
@given(
    st.floats(0.1, 2.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_element_is_bilinear_in_fractions(G, p_a, p_b):
    # the element is exactly bilinear:
    # f(p_a,p_b) = Σ_{ sectors } p-weights · sector elements
    f = lambda a, b: hom_element_ideal_via_wigner(G, a, b)
    lhs = f(p_a, p_b)
    rhs = (
        p_a * p_b * f(1.0, 1.0)
        + p_a * (1.0 - p_b) * f(1.0, 0.0)
        + (1.0 - p_a) * p_b * f(0.0, 1.0)
        + (1.0 - p_a) * (1.0 - p_b) * f(0.0, 0.0)
    )
    assert abs(lhs - rhs) < 1e-10


@_slow
@given(
    st.floats(0.1, 2.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_fraction_exchange_symmetry(G, p_a, p_b):
    v1 = hom_element_ideal_via_wigner(G, p_a, p_b)
    v2 = hom_element_ideal_via_wigner(G, p_b, p_a)
    assert abs(v1 - v2) < 1e-10


@_slow
@given(
    st.floats(0.0, 3.0),
    st.floats(0.0, 1.0),
)
def test_element_stays_in_physical_range(G, p):
    val = hom_element_ideal_via_wigner(G, p, p)
    assert 0.0 <= val <= 1.0


# ----------------------------------------------------------------------
# Gram reconstruction
# ----------------------------------------------------------------------

@_fast
@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
def test_gram_cholesky_reconstruction(seed, dim):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim + 2))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    gram = raw @ raw.T
    np.fill_diagonal(gram, 1.0)
    labels = tuple(f"m{i}" for i in range(dim))
    C = gram_cholesky(gram, labels)
    assert np.abs(C @ C.T - gram).max() < 1e-12


# ----------------------------------------------------------------------
# Sweep determinism
# ----------------------------------------------------------------------

def _sweep_csv(jobs: int) -> str:
    config = SweepConfig(
        gate="ideal", sweep_param="G", start=0.0, stop=2.5, points=80,
        p_values=(1.0, 0.7, 0.4), with_input_threshold=False, jobs=jobs,
    )
    return render_csv(run_sweep(config))


def test_sweep_byte_identical_across_jobs():
    assert _sweep_csv(1) == _sweep_csv(8)


def test_thresholds_byte_identical_across_jobs(monkeypatch):
    # the search itself must not depend on the process it runs in; at 8
    # points per process, 25 points fork one worker at jobs=2 and two at
    # jobs=3
    monkeypatch.setattr(qnd_hom.sweep, "POINTS_PER_PROCESS", 8)
    config = SweepConfig(
        gate="atom-light", sweep_param="g", start=0.02, stop=0.12, points=25,
        fixed={"kappa_tau": 100.0, "eta": 0.9}, with_input_threshold=True,
    )
    serial = render_csv(run_sweep(config))
    for jobs in (2, 3):
        assert render_csv(run_sweep(dataclasses.replace(config, jobs=jobs))) == serial
