"""Non-orthogonal temporal modes: Gram factorization and squeezing."""

import math

import numpy as np
import pytest

from qnd_hom.modes import (
    NoiseModeBasis,
    OverlapConsistencyError,
    apply_squeezing,
    build_gram,
    gram_cholesky,
    orthogonalize_noise_modes,
    squeezing_factor,
)


def test_gram_assembly_and_key_order():
    labels = ("u", "v", "w")
    gram = build_gram(labels, {("u", "v"): 0.3, ("w", "v"): -0.2})
    assert gram[0, 1] == gram[1, 0] == 0.3
    assert gram[1, 2] == gram[2, 1] == -0.2
    assert np.array_equal(np.diag(gram), np.ones(3))


def test_gram_rejects_unknown_label():
    with pytest.raises(OverlapConsistencyError):
        build_gram(("u", "v"), {("u", "zzz"): 0.1})


def test_gram_rejects_overlap_above_one():
    with pytest.raises(OverlapConsistencyError) as err:
        build_gram(("u", "v"), {("u", "v"): 1.2})
    assert "u" in str(err.value) and "v" in str(err.value)


def test_cholesky_reconstructs_gram():
    labels = ("a", "b", "c", "d")
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(4, 6))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    gram = raw @ raw.T
    C = gram_cholesky(gram, labels)
    assert np.allclose(C @ C.T, gram, atol=1e-12)
    assert np.allclose(C, np.tril(C), atol=0.0)


def test_cholesky_rejects_inconsistent_overlaps():
    # |⟨a|b⟩| = |⟨a|c⟩| = 0.9 forces ⟨b|c⟩ ≥ 0.62; claiming −0.9 is impossible
    labels = ("a", "b", "c")
    gram = build_gram(labels, {("a", "b"): 0.9, ("a", "c"): 0.9, ("b", "c"): -0.9})
    with pytest.raises(OverlapConsistencyError) as err:
        gram_cholesky(gram, labels)
    assert "c" in str(err.value)


def test_cholesky_rejects_asymmetric_gram():
    # 4e-6 of asymmetry is far above roundoff, whatever the entries' size
    with pytest.raises(OverlapConsistencyError, match="not symmetric"):
        gram_cholesky(np.array([[1.0, 0.5], [0.500004, 1.0]]), ("a", "b"))


def test_orthogonalize_round_trip():
    labels = ("m1", "m2", "m3")
    overlaps = {("m1", "m2"): 0.4, ("m2", "m3"): 0.25}
    basis = orthogonalize_noise_modes(labels, overlaps)
    assert basis.n_modes == 3
    corr = basis.transform @ basis.transform.T
    assert corr[basis.index("m1"), basis.index("m2")] == pytest.approx(0.4, abs=1e-12)
    assert corr[basis.index("m2"), basis.index("m3")] == pytest.approx(0.25, abs=1e-12)
    assert corr[basis.index("m1"), basis.index("m3")] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(np.diag(corr), 1.0, atol=1e-12)


def test_basis_rejects_gram_of_wrong_shape():
    with pytest.raises(ValueError, match="gram shape does not match labels"):
        NoiseModeBasis(("m1", "m2"), np.eye(3))


@pytest.mark.parametrize("overlaps,pair", [
    # |⟨a|b⟩| = |⟨a|c⟩| = 0.9 forces ⟨b|c⟩ ≥ 0.62; claiming −0.9 is impossible
    ({("a", "b"): 0.9, ("a", "c"): 0.9, ("b", "c"): -0.9}, "('b', 'c')"),
    # b is a, yet b overlaps c and a does not; the Gram matrix's smallest
    # eigenvalue is only about −5e-13
    ({("a", "b"): 1.0, ("b", "c"): 1e-6}, "('b', 'c')"),
])
def test_orthogonalize_names_the_pair_the_whole_factorization_names(overlaps, pair):
    # uncorrelated modes around and between the correlated ones change nothing
    labels = ("u0", "a", "u1", "u2", "b", "u3", "c", "u4")
    gram = build_gram(labels, overlaps)
    assert np.linalg.eigvalsh(gram).min() < 0.0
    with pytest.raises(OverlapConsistencyError) as whole:
        gram_cholesky(gram, labels)
    with pytest.raises(OverlapConsistencyError) as named:
        orthogonalize_noise_modes(labels, overlaps)
    assert str(named.value) == str(whole.value)
    assert pair in str(named.value)


def test_squeezing_factor_values():
    assert squeezing_factor(0.0) == pytest.approx(1.0)
    # 7 dB: e^{−2r} with r = 7·ln10/20
    assert squeezing_factor(7.0) == pytest.approx(10.0 ** (-0.7), abs=1e-12)
    assert squeezing_factor(7.0) == pytest.approx(0.19952623149688797, abs=1e-12)


def test_apply_squeezing_scales_mediator_families():
    labels = ("X_m", "P_m", "other")
    basis = orthogonalize_noise_modes(labels, {})
    squeezed = apply_squeezing(basis, 7.0, anti_squeezed=("X_m",), squeezed=("P_m",))
    f = squeezing_factor(7.0)
    ix, ip, io = (squeezed.index(l) for l in labels)
    sigma = squeezed.transform @ squeezed.transform.T
    assert sigma[ip, ip] == pytest.approx(f, abs=1e-12)
    assert sigma[ix, ix] == pytest.approx(1.0 / f, abs=1e-12)
    assert sigma[io, io] == pytest.approx(1.0, abs=1e-12)


def test_zero_squeezing_is_identity():
    basis = orthogonalize_noise_modes(("X_m", "P_m"), {})
    same = apply_squeezing(basis, 0.0, anti_squeezed=("X_m",), squeezed=("P_m",))
    assert np.allclose(same.transform @ same.transform.T, basis.transform @ basis.transform.T, atol=0.0)


def test_squeezing_preserves_correlated_structure():
    # squeezing a correlated X-family keeps the normalized correlation
    labels = ("X_m", "X_mf", "P_m")
    overlaps = {("X_m", "X_mf"): 0.6}
    basis = orthogonalize_noise_modes(labels, overlaps)
    squeezed = apply_squeezing(basis, 5.0, anti_squeezed=("X_m", "X_mf"), squeezed=("P_m",))
    f = squeezing_factor(5.0)
    i, j = squeezed.index("X_m"), squeezed.index("X_mf")
    corr = squeezed.transform @ squeezed.transform.T
    # covariance scaled by 1/f uniformly on the X block
    assert corr[i, j] == pytest.approx(0.6 / f, abs=1e-12)
    d = np.diag([1.0 / math.sqrt(f), 1.0 / math.sqrt(f), math.sqrt(f)])
    assert np.allclose(corr, d @ build_gram(labels, overlaps) @ d, atol=1e-12)
    assert corr[i, j] / np.sqrt(corr[i, i] * corr[j, j]) == pytest.approx(0.6, abs=1e-12)


@pytest.mark.parametrize("squeezing_db", [0.0, 3.0])
def test_squeezing_rejects_unknown_label(squeezing_db):
    basis = orthogonalize_noise_modes(("X_m", "P_m"), {})
    with pytest.raises(ValueError, match="'Y_m'"):
        apply_squeezing(basis, squeezing_db, anti_squeezed=("Y_m",), squeezed=("P_m",))
