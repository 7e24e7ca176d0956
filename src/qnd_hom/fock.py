"""Exact truncated-Fock-space oracle for the ideal QND and BS gates.

The QND unitary U_G = exp[G(a+a†)(b†-b)/2] admits an exact evaluation on
the truncated space: the generator is -(iG/2) X_a ⊗ P_b with X = a+a†
and P = i(a†-a) acting on different modes, so diagonalizing the small
truncated X and P matrices diagonalizes the whole generator.  The result
is the exact matrix exponential of the truncated generator at the cost
of two N×N eigendecompositions instead of a Padé pass on an N²×N²
matrix (equality with the dense exponential is pinned in the tests).

The beam splitter conserves total photon number, so its exponential is
assembled block-by-block and has no truncation leakage at all.

Also hosts the closed-form HOM matrix elements of the ideal gates; the
truncated-space results double-check them and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

_TRUNCATION_TOL = 1e-8


class TruncationError(RuntimeError):
    """Cutoff too small for the requested gate strength."""


@dataclass(frozen=True)
class FockBasisSpec:
    """Two-mode basis |n, m⟩ with 0 ≤ n, m < cutoff."""

    cutoff: int

    def __post_init__(self):
        if not 4 <= self.cutoff <= 200:
            raise ValueError("cutoff must lie in [4, 200]")

    @property
    def dim(self) -> int:
        return self.cutoff * self.cutoff

    def index(self, n: int, m: int) -> int:
        return n * self.cutoff + m


@dataclass(frozen=True)
class TruncatedState:
    amplitudes: np.ndarray


@dataclass(frozen=True)
class TruncatedOperator:
    """Two-mode operator, stored factored when that is cheaper.

    ``apply`` is the hot path; ``matrix`` materializes the dense form on
    first access (fine at N ≤ 40, avoid at sweep scale).
    """

    basis: FockBasisSpec
    _dense: np.ndarray | None = None
    _factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None  # (Sx, Sp, phase)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        N = self.basis.cutoff
        if self._dense is not None:
            return self._dense @ vec
        Sx, Sp, phase = self._factors
        batch = vec.reshape(N, N, -1)
        psi = np.tensordot(Sx.conj().T, batch, axes=(1, 0))        # (x, b, k)
        psi = np.tensordot(psi, Sp.conj(), axes=(1, 0))            # (x, k, p)
        psi = np.moveaxis(psi, 2, 1) * phase[:, :, None]           # (x, p, k)
        out = np.tensordot(Sx, psi, axes=(1, 0))                   # (a, p, k)
        out = np.tensordot(out, Sp, axes=(1, 1))                   # (a, k, b)
        out = np.moveaxis(out, 2, 1)
        return out.reshape(vec.shape)

    @cached_property
    def matrix(self) -> np.ndarray:
        if self._dense is not None:
            return self._dense
        eye = np.eye(self.basis.dim, dtype=complex)
        return self.apply(eye)


def destroy(N: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, N)), k=1)


def fock_state(basis: FockBasisSpec, n_a: int, n_b: int) -> TruncatedState:
    if not (0 <= n_a < basis.cutoff and 0 <= n_b < basis.cutoff):
        raise ValueError("occupation outside the basis")
    vec = np.zeros(basis.dim, dtype=complex)
    vec[basis.index(n_a, n_b)] = 1.0
    return TruncatedState(vec)


def hom_state(basis: FockBasisSpec, sign: float = -1.0) -> TruncatedState:
    """(|0,2⟩ + sign·|2,0⟩)/√2; sign=-1 is the HOM bunching state."""
    vec = np.zeros(basis.dim, dtype=complex)
    vec[basis.index(0, 2)] = 1.0 / np.sqrt(2.0)
    vec[basis.index(2, 0)] = sign / np.sqrt(2.0)
    return TruncatedState(vec)


def _qnd_factors(G: float, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a = destroy(N)
    lx, Sx = np.linalg.eigh(a + a.T)
    lp, Sp = np.linalg.eigh(1j * (a.T - a))
    return Sx, Sp, np.exp(-0.5j * G * np.outer(lx, lp))


def _check_truncation(op: TruncatedOperator, G: float) -> None:
    """U is unitary at any cutoff, so its truncation error shows only
    against a larger one: compare the n + m ≤ 2 block at N and 3N/2."""
    N = op.basis.cutoff

    def low_block(Sx, Sp, phase):
        rows = np.stack([np.outer(Sx[n], Sp[m]).ravel() for n in range(3) for m in range(3 - n)])
        return rows @ (phase.ravel()[:, None] * rows.conj().T)

    err = float(np.linalg.norm(
        low_block(*op._factors) - low_block(*_qnd_factors(G, N + N // 2)), ord=2
    ))
    if err > _TRUNCATION_TOL:
        raise TruncationError(
            f"cutoff N={N} too small for G={G}: the n+m<=2 block moves by "
            f"{err:.2e} at N={N + N // 2}; retry with N≈{int(N * 1.5)}"
        )


@lru_cache(maxsize=32)
def _qnd_cached(G: float, N: int) -> TruncatedOperator:
    op = TruncatedOperator(FockBasisSpec(N), _factors=_qnd_factors(G, N))
    _check_truncation(op, G)
    return op


def build_qnd_unitary(G: float, basis: FockBasisSpec) -> TruncatedOperator:
    if abs(G) > 5.0:
        raise ValueError("gate strength |G| must not exceed 5")
    return _qnd_cached(float(G), basis.cutoff)


@lru_cache(maxsize=32)
def _bs_cached(theta: float, N: int) -> TruncatedOperator:
    # a†b - b†a conserves n_a + n_b: exponentiate inside each block
    U = np.zeros((N * N, N * N), dtype=complex)
    for total in range(2 * N - 1):
        lo, hi = max(0, total - N + 1), min(total, N - 1)
        occ_a = np.arange(lo, hi + 1)
        idx = occ_a * N + (total - occ_a)
        d = idx.size
        H = np.zeros((d, d), dtype=complex)  # i(a†b - b†a), Hermitian
        for r, na in enumerate(occ_a[:-1]):
            nb = total - na
            H[r + 1, r] = 1j * np.sqrt((na + 1.0) * nb)
            H[r, r + 1] = -1j * np.sqrt((na + 1.0) * nb)
        lam, V = np.linalg.eigh(H)
        U[np.ix_(idx, idx)] = V @ np.diag(np.exp(-1j * theta * lam)) @ V.conj().T
    U.setflags(write=False)
    return TruncatedOperator(FockBasisSpec(N), _dense=U)


def build_bs_unitary(theta: float, basis: FockBasisSpec) -> TruncatedOperator:
    return _bs_cached(float(theta), basis.cutoff)


def hom_element_exact(U: TruncatedOperator, state: TruncatedState, sign: float = -1.0) -> float:
    """|⟨HOM|U|φ⟩|², with the sign=+1 variant exposed for the null check."""
    out = U.apply(state.amplitudes)
    bra = hom_state(U.basis, sign=sign).amplitudes
    return float(abs(np.vdot(bra, out)) ** 2)


# ----------------------------------------------------------------------
# Closed forms for the ideal gates
# ----------------------------------------------------------------------

def closed_form_qnd_11(G: float) -> float:
    """⟨HOM|ρ|HOM⟩ for |1,1⟩ through the ideal QND gate with gain G."""
    return 16.0 * G**2 * (G**2 - 8.0) ** 2 / (4.0 + G**2) ** 5


def closed_form_qnd_00(G: float) -> float:
    """Same element for double vacuum input; nonzero because the QND gate
    is active (joint squeezing), unlike a beam splitter."""
    return 4.0 * G**4 / (4.0 + G**2) ** 3


def closed_form_bs_11(T: float) -> float:
    """|1,1⟩ bunching element for a beam splitter of transmittance T."""
    return 4.0 * T * (1.0 - T)


QND_11_ARGMAX = float(np.sqrt(11.0 - np.sqrt(105.0)))


def hom_element_mixture_ideal(G: float, p_a: float, p_b: float) -> float:
    """Ideal-gate element for mixture inputs; the |01⟩/|10⟩ sectors carry
    odd total excitation number and cannot reach the even HOM state."""
    if not (0.0 <= p_a <= 1.0 and 0.0 <= p_b <= 1.0):
        raise ValueError("fractions must lie in [0, 1]")
    return p_a * p_b * closed_form_qnd_11(G) + (1.0 - p_a) * (1.0 - p_b) * closed_form_qnd_00(G)
