"""Gaussian (Wigner-function) machinery for two bosonic modes.

Conventions used throughout the package:

* quadratures X = a + a†, P = i(a† - a), so [X, P] = 2i,
* vacuum covariance is the identity, a thermal state with mean
  occupation n has covariance (2n+1)·I per mode,
* two-mode vectors are ordered (x_a, p_a, x_b, p_b), the symplectic
  form is block-diagonal with 2x2 blocks [[0, 1], [-1, 0]].

Photon-number states have no Gaussian Wigner function, but their
generating function is Gaussian: Σₖ xᵏ|k⟩⟨k| = ρ_th/(1−x) with per-mode
covariance (1+x)/(1−x)·I, and two zero-mean two-mode states overlap as
Tr ρ₁ρ₂ = 4/√det(V₁+V₂).  Keeping only first order in every variable
(each εᵢ² = 0), a mode that carries |0⟩⟨0| + ε|1⟩⟨1| has weight 1 + ε and
covariance I + 2ε·I.  Every element ⟨HOM|ρ_out|HOM⟩ of this package is
therefore an exact multilinear Taylor coefficient, which :func:`hom_jet`
evaluates in plain float64 with 2^k-component jets (truncated Taylor
arithmetic) — no term of it is larger than O(1).  No map of this package
mixes X and P, so the jet is read off one scalar kernel per quadrature;
a map that mixes them (a detuned cavity, a rotated homodyne) is outside
this scope, and :func:`hom_jet` rejects it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

import numpy as np


class NumericalDomainError(ArithmeticError):
    """A covariance or an element left its physical domain."""


def omega(n_modes: int = 2) -> np.ndarray:
    """Symplectic form: block-diagonal [[0,1],[-1,0]] per mode."""
    om = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        om[2 * k, 2 * k + 1] = 1.0
        om[2 * k + 1, 2 * k] = -1.0
    return om


def qnd_matrix(G: float) -> np.ndarray:
    """Quadrature map of the ideal QND gate: x_a += G x_b, p_b -= G p_a."""
    if not np.isfinite(G):
        raise ValueError("QND gain must be finite")
    T = np.eye(4)
    T[0, 2] = G
    T[3, 1] = -G
    return T


def bs_matrix(transmittance: float) -> np.ndarray:
    """Orthogonal beam-splitter map with intensity transmittance T."""
    T = transmittance
    if not 0.0 <= T <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {T}")
    t, r = np.sqrt(T), np.sqrt(1.0 - T)
    out = np.zeros((4, 4))
    out[0, 0] = out[1, 1] = out[2, 2] = out[3, 3] = t
    out[0, 2] = out[1, 3] = r
    out[2, 0] = out[3, 1] = -r
    return out


def is_symplectic(T: np.ndarray, tol: float = 1e-12) -> bool:
    om = omega(T.shape[0] // 2)
    return bool(np.max(np.abs(T @ om @ T.T - om)) <= tol)


def min_physicality_eig(cov: np.ndarray) -> float:
    """Smallest eigenvalue of V + iΩ; physical states satisfy >= 0."""
    n = cov.shape[0] // 2
    return float(np.linalg.eigvalsh(cov.astype(complex) + 1j * omega(n)).min())


def check_physical(cov: np.ndarray, tol: float = 1e-9) -> None:
    ev = min_physicality_eig(cov)
    if ev < -tol:
        raise NumericalDomainError(
            f"covariance violates the uncertainty bound: min eig(V+iΩ) = {ev:.3e}"
        )


# |HOM⟩ = B|1,1⟩ with B the balanced beam splitter
HOM_BS = bs_matrix(0.5)


@lru_cache(maxsize=None)
def _cycles(k: int) -> tuple:
    """(steps, mask, coefficient) of every cycle of the log-det expansion over
    k variables, by length L, then by mask: the (i, j) steps visit the set
    ``mask`` once from its smallest member, and the trace enters with −(−1)^(L+1)/2."""
    cycles = []
    for mask in range(1, 1 << k):
        first, *rest = [i for i in range(k) if mask >> i & 1]
        cycles += [((first, *order), mask) for order in permutations(rest)]
    cycles.sort(key=lambda item: len(item[0]))
    return tuple((tuple(zip(c, c[1:] + c[:1])), mask, 0.5 * (-1.0) ** len(c)) for c, mask in cycles)


def _jet_exp(u) -> np.ndarray:
    """exp of a multilinear jet: since every εᵢ² = 0, component m is the
    sum over set partitions of m of the products of u over the parts."""
    u = np.asarray(u, dtype=float).tolist()
    e = [math.exp(u[0])] + [0.0] * (len(u) - 1)
    for m in range(1, len(u)):
        low = m & -m
        s, total = m, 0.0
        while s:
            if s & low:
                total += u[s] * e[m ^ s]
            s = (s - 1) & m
        e[m] = total
    return np.array(e)


def _kernel(r0: list, r1: list) -> list:
    """2VᵀS⁻¹V of one quadrature from its two rows (S | V) of (S₀ | P); S⁻¹ = adj S / det S."""
    (a, b, *v0), (c, d, *v1) = r0, r1
    det = a * d - b * c
    w = [((d * x - b * y) / det, (a * y - c * x) / det) for x, y in zip(v0, v1)]
    return [[2.0 * (x * s + y * t) for s, t in w] for x, y in zip(v0, v1)]


def hom_jet(cov: np.ndarray, inputs: tuple[np.ndarray, ...] = ()) -> np.ndarray:
    """Multilinear jet of Πᵢ(1+εᵢ)·4/√det S(ε), S(ε) = cov + I + Σᵢ 2εᵢPᵢPᵢᵀ.

    ``inputs`` are 4×2 column blocks Pᵢ, the (x, p) columns of one input
    mode each; the two column blocks of the balanced beam splitter follow
    as the last two variables (the HOM projector).  Component m multiplies
    the product of the variables whose bits are set in m.  The multilinear
    part of log det S(ε) = log det S₀ + log det(I + D_ε K), K = 2PᵀS₀⁻¹P
    (Sylvester), is a sum of cycles with coefficient (−1)^(L+1)/L, and the
    L rotations of a cycle share one trace.  With S₀ = Sx ⊕ Sp and x (p)
    columns of P on x (p) rows alone, K = Kx ⊕ Kp for the k × k kernels
    Kx = 2VxᵀSx⁻¹Vx and Kp = 2VpᵀSp⁻¹Vp, so a cycle's trace is its product
    over Kx plus its product over Kp.  ValueError names the first nonzero
    entry of (S₀ | P), row by row, that joins an x to a p.  det S₀ comes
    from the Cholesky factor, which also checks that S₀ is positive definite.
    """
    S0 = np.asarray(cov, dtype=float) + np.eye(4)
    try:
        det = float(np.prod(np.diag(np.linalg.cholesky(S0)))) ** 2
    except np.linalg.LinAlgError:
        det = math.nan
    if not math.isfinite(det):
        raise NumericalDomainError("overlap matrix is not positive definite")
    rows = np.hstack([S0, *inputs, HOM_BS]).tolist()  # (S₀ | P), rows x_a, p_a, x_b, p_b
    for i, row in enumerate(rows):
        for j in range(1 - i % 2, len(row), 2):  # the other quadrature's columns
            if row[j]:
                where = f"S0[{i}, {j}]" if j < 4 else f"input block {(j - 4) // 2} entry [{i}, {j % 2}]"
                raise ValueError(f"{where} = {row[j]!r} mixes X and P, which the jet engine keeps apart")
    Kx, Kp = (_kernel(rows[q][q::2], rows[q + 2][q::2]) for q in (0, 1))
    u = [float(m > 0 and m & (m - 1) == 0) for m in range(1 << len(Kx))]  # the weights 1 + εᵢ
    for steps, mask, coefficient in _cycles(len(Kx)):
        x = p = 1.0
        for i, j in steps:
            x *= Kx[i][j]
            p *= Kp[i][j]
        u[mask] += coefficient * (x + p)
    return 4.0 / math.sqrt(det) * _jet_exp(u)
