"""Non-orthogonal temporal modes: Gram assembly, factorization and
the squeezing of the atom-mech mediator modes."""

import math
import warnings

import numpy as np
import pytest

from qnd_hom.gates import AtomMechParams, _gate_model, build_atom_mech_gate
from qnd_hom.modes import (
    NoiseModeBasis,
    OverlapConsistencyError,
    build_gram,
    gram_cholesky,
    orthogonalize_noise_modes,
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


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize("gram,symmetric", [
    ([[1.0, 0.5], [0.5, 1.0]], True),
    ([[1.0, 0.5], [0.5 + 1e-13, 1.0]], True),
    ([[1.0, 0.5], [0.500004, 1.0]], False),
    ([[1.0, _INF], [_INF, 1.0]], True),
    ([[1.0, -_INF], [-_INF, 1.0]], True),
    ([[_INF, 0.0], [0.0, 1.0]], True),
    ([[1.0, _INF], [-_INF, 1.0]], False),
    ([[1.0, _INF], [0.5, 1.0]], False),
    ([[1.0, _NAN], [_NAN, 1.0]], False),
    ([[_NAN, 0.0], [0.0, 1.0]], False),
])
def test_symmetry_check_decides_as_allclose_and_warns_nothing(gram, symmetric):
    # the same decision as np.allclose(gram, gram.T, rtol=0, atol=1e-12)
    gram = np.array(gram)
    assert np.allclose(gram, gram.T, rtol=0.0, atol=1e-12) == symmetric
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            gram_cholesky(gram, ("a", "b"))
        except OverlapConsistencyError as err:
            assert ("not symmetric" in str(err)) != symmetric
        else:
            assert symmetric


def test_orthogonalize_freezes_the_gram_it_builds_only():
    gram = np.eye(2)
    basis = NoiseModeBasis(("a", "b"), gram)
    assert basis.gram is gram and gram.flags.writeable
    assert not basis.transform.flags.writeable
    built = orthogonalize_noise_modes(("a", "b"), {("a", "b"): 0.3})
    assert not built.gram.flags.writeable


def test_orthogonalize_round_trip():
    labels = ("m1", "m2", "m3")
    overlaps = {("m1", "m2"): 0.4, ("m2", "m3"): 0.25}
    basis = orthogonalize_noise_modes(labels, overlaps)
    assert basis.n_modes == 3
    corr = basis.transform @ basis.transform.T
    assert corr[basis.labels.index("m1"), basis.labels.index("m2")] == pytest.approx(0.4, abs=1e-12)
    assert corr[basis.labels.index("m2"), basis.labels.index("m3")] == pytest.approx(0.25, abs=1e-12)
    assert corr[basis.labels.index("m1"), basis.labels.index("m3")] == pytest.approx(0.0, abs=1e-12)
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


# squeezing of S dB scales the mediator's coefficients by 10^{±S/20}: the
# anti-squeezed X family by +, the squeezed P_in by −; the variance factor
# of the squeezed quadrature is f = 10^{−S/10} = e^{−2r}
_MEDIATOR = {"X_in": 1.0, "X_in_f": 1.0, "P_in": -1.0}


def _atom_mech(S):
    return build_atom_mech_gate(AtomMechParams(0.07, 0.05, 90.0, 0.9, 1e-4, S))


def _column_scale(squeezed, plain):
    """Per mode, the ratio of the squeezed to the unsqueezed coefficients,
    which must be one number across the four output rows."""
    A, A0 = squeezed.output_matrix, plain.output_matrix
    scale = {}
    for j, label in enumerate(squeezed.basis.labels):
        rows = np.flatnonzero(A0[:, j])
        assert np.array_equal(np.flatnonzero(A[:, j]), rows), label
        ratios = A[rows, j] / A0[rows, j]
        assert np.ptp(ratios) <= 1e-15 * np.abs(ratios).max(), label
        scale[label] = ratios[0]
    return scale


def test_squeezing_factor_values():
    plain = _atom_mech(0.0)
    assert _column_scale(_atom_mech(0.0), plain)["P_in"] == 1.0
    # 7 dB: e^{−2r} with r = 7·ln10/20
    f = _column_scale(_atom_mech(7.0), plain)["P_in"] ** 2
    assert f == pytest.approx(10.0 ** (-0.7), abs=1e-12)
    assert f == pytest.approx(0.19952623149688797, abs=1e-12)


def test_apply_squeezing_scales_mediator_families():
    scale = _column_scale(_atom_mech(7.0), _atom_mech(0.0))
    f = 10.0 ** (-0.7)
    assert scale["P_in"] ** 2 == pytest.approx(f, abs=1e-12)
    assert scale["X_in"] ** 2 == pytest.approx(1.0 / f, abs=1e-12)
    assert scale["X_in_f"] ** 2 == pytest.approx(1.0 / f, abs=1e-12)
    for label in set(scale) - set(_MEDIATOR):
        assert scale[label] == 1.0, label


def test_zero_squeezing_is_identity():
    # undoing 7 dB on the mediator's coefficients gives back the S = 0 gate
    plain, squeezed = _atom_mech(0.0), _atom_mech(7.0)
    assert np.array_equal(plain.basis.gram, squeezed.basis.gram)
    undo = np.ones(squeezed.basis.n_modes)
    for label, sign in _MEDIATOR.items():
        undo[squeezed.basis.labels.index(label)] = 10.0 ** (-sign * 7.0 / 20.0)
    A = squeezed.output_matrix * undo
    np.testing.assert_allclose(A, plain.output_matrix, rtol=1e-15, atol=0.0)
    gram = plain.basis.gram
    assert np.allclose(A @ gram @ A.T, plain.vacuum_output_cov, rtol=1e-14, atol=0.0)


def test_squeezing_preserves_correlated_structure():
    # squeezing the correlated X family (X_in, X_in_f) scales their
    # covariance uniformly and keeps their normalized correlation
    plain, squeezed = _atom_mech(0.0), _atom_mech(5.0)
    labels = squeezed.basis.labels
    i, j = labels.index("X_in"), labels.index("X_in_f")
    gram = squeezed.basis.gram
    overlap = gram[i, j]
    assert 0.0 < overlap < 1.0
    f = 10.0 ** (-0.5)
    d = np.ones(len(labels))
    for label, sign in _MEDIATOR.items():
        d[labels.index(label)] = 10.0 ** (sign * 5.0 / 20.0)
    sigma = d[:, None] * gram * d  # the squeezed mediator's covariance DΣD
    assert sigma[i, j] == pytest.approx(overlap / f, abs=1e-12)
    assert sigma[i, j] / math.sqrt(sigma[i, i] * sigma[j, j]) == pytest.approx(overlap, abs=1e-12)
    A0 = plain.output_matrix
    assert np.allclose(squeezed.vacuum_output_cov, A0 @ sigma @ A0.T, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("squeezing_db", [0.0, 3.0])
def test_squeezing_rejects_unknown_label(squeezing_db):
    # a squeezed coefficient placed on a mode the basis lacks is rejected
    r = squeezing_db * math.log(10.0) / 20.0
    basis = orthogonalize_noise_modes(("X_m", "P_m"), {})
    rows = ({"X_m": 1.0}, {"P_m": 1.0}, {"Y_m": math.exp(r)}, {"P_m": math.exp(-r)})
    with pytest.raises(ValueError, match="'Y_m'"):
        _gate_model((basis,), rows)
