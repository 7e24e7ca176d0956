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
mixes X and P, so the element and the coherent forms are read off one
scalar kernel per quadrature; a map that mixes them (a detuned cavity, a
rotated homodyne) is outside this scope, and :func:`split_kernels`
rejects it.  The physicality check, the kernels and the jet take stacks
of points with a leading batch axis, and every step is elementwise or a
fixed gather along that axis, so a point's numbers do not depend on the
stack it is computed in; one point is a stack of one.  A point whose
overlap matrix is not positive definite gets a NaN det, alone or stacked.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np


class NumericalDomainError(ArithmeticError):
    """A covariance or an element left its physical domain."""


NOT_POSITIVE_DEFINITE = "overlap matrix is not positive definite"

# built once: the identity that S₀ = V + I adds, and the float64 epsilon of
# the physicality check's roundoff
_EYE4 = np.eye(4)
_EYE4.flags.writeable = False
_EPS = float(np.finfo(float).eps)


@lru_cache(maxsize=None)
def omega(n_modes: int) -> np.ndarray:
    """Symplectic form: block-diagonal [[0,1],[-1,0]] per mode; built once
    per mode count, read-only."""
    om = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        om[2 * k, 2 * k + 1] = 1.0
        om[2 * k + 1, 2 * k] = -1.0
    om.flags.writeable = False
    return om


@lru_cache(maxsize=None)
def _i_omega(n_modes: int) -> np.ndarray:
    """iΩ, built once per mode count, read-only."""
    i_om = 1j * omega(n_modes)
    i_om.flags.writeable = False
    return i_om


def qnd_matrix(G) -> np.ndarray:
    """Quadrature map of the ideal QND gate: x_a += G x_b, p_b -= G p_a; one
    4 × 4 map per gain of an array of gains."""
    G = np.asarray(G, dtype=float)
    if not np.isfinite(G).all():
        raise ValueError("QND gain must be finite")
    T = np.zeros(G.shape + (4, 4))
    T[...] = _EYE4
    T[..., 0, 2] = G
    T[..., 3, 1] = -G
    return T


def bs_matrix(transmittance) -> np.ndarray:
    """Orthogonal beam-splitter map with intensity transmittance T; one 4 × 4
    map per value of an array of transmittances."""
    T = np.asarray(transmittance, dtype=float)
    if not ((0.0 <= T) & (T <= 1.0)).all():
        raise ValueError(f"transmittance must lie in [0, 1], got {transmittance}")
    t, r = np.sqrt(T), np.sqrt(1.0 - T)
    out = np.zeros(T.shape + (4, 4))
    out[..., 0, 0] = out[..., 1, 1] = out[..., 2, 2] = out[..., 3, 3] = t
    out[..., 0, 2] = out[..., 1, 3] = r
    out[..., 2, 0] = out[..., 3, 1] = -r
    return out


def is_symplectic(T: np.ndarray) -> bool:
    om = omega(T.shape[0] // 2)
    return bool(np.max(np.abs(T @ om @ T.T - om)) <= 1e-12)


def min_physicality_eig(cov: np.ndarray) -> float | np.ndarray:
    """Smallest eigenvalue of V + iΩ, physical states satisfy >= 0; of a stack
    (..., 2n, 2n), one per covariance, in one stacked ``eigvalsh``, and NaN for
    a covariance that is not finite."""
    cov = np.asarray(cov, dtype=float)
    i_omega = _i_omega(cov.shape[-1] // 2)
    if np.isfinite(cov).all():  # all clear: no covariance to mask
        ev = np.linalg.eigvalsh(cov + i_omega).min(axis=-1)
    else:
        finite = np.isfinite(cov).all(axis=(-2, -1))
        stack = np.where(finite[..., None, None], cov, 0.0) + i_omega
        ev = np.where(finite, np.linalg.eigvalsh(stack).min(axis=-1), np.nan)
    return float(ev) if ev.ndim == 0 else ev


def physicality_errors(cov: np.ndarray) -> list:
    """Per covariance of a stack (N, 2n, 2n): None, or the NumericalDomainError of
    one whose min eig(V + iΩ) lies below −max(1e-9, 8·eps·max|V|), the roundoff
    of eigvalsh, or is NaN."""
    ev = min_physicality_eig(cov)
    passes = ev >= -np.maximum(1e-9, 8.0 * _EPS * np.abs(cov).max(axis=(-2, -1)))
    if passes.all():  # all clear
        return [None] * len(passes)
    return [
        None if ok else NumericalDomainError(f"covariance violates the uncertainty bound: min eig(V+iΩ) = {e:.3e}")
        for ok, e in zip(passes.tolist(), ev.tolist())
    ]


# |HOM⟩ = B|1,1⟩ with B the balanced beam splitter
HOM_BS = bs_matrix(0.5)


@lru_cache(maxsize=None)
def _cycles(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cycles of the log-det expansion over k variables, by mask, as
    (steps, ends, coefficients, starts, weights).  A cycle visits the set
    ``mask`` once from its smallest member; ``steps`` lists the flat index
    i·k + j of each (i, j) step of every cycle, a cycle's steps starting at
    its entry of ``ends``, and its trace enters with −(−1)^(L+1)/2.  The cycles
    of mask m start at ``starts[m − 1]``; ``weights`` is 1 on the masks of one
    variable, the jet of Πᵢ(1 + εᵢ)."""
    steps, ends, coefficients, starts = [], [], [], []
    for mask in range(1, 1 << k):
        first, *rest = [i for i in range(k) if mask >> i & 1]
        starts.append(len(ends))
        for order in permutations(rest):
            cycle = (first, *order)
            ends.append(len(steps))
            steps += [i * k + j for i, j in zip(cycle, cycle[1:] + cycle[:1])]
            coefficients.append(0.5 * (-1.0) ** len(cycle))
    weights = [float(m & (m - 1) == 0) for m in range(1, 1 << k)]
    return np.array(steps), np.array(ends), np.array(coefficients), np.array(starts), np.array(weights)


@lru_cache(maxsize=None)
def _partitions(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(parts, ends, starts): every set partition of every mask m ≥ 1 of k
    variables, in order of m.  ``parts`` lists the part masks of every
    partition, a partition's parts starting at its entry of ``ends``; the
    partitions of m start at ``starts[m − 1]``.  A partition's first part
    holds the smallest member, so none is listed twice."""

    def partitions(m: int):
        if not m:
            yield ()
            return
        low, s = m & -m, m
        while s:
            if s & low:
                yield from ((s, *rest) for rest in partitions(m ^ s))
            s = (s - 1) & m

    parts, ends, starts = [], [], []
    for m in range(1, 1 << k):
        starts.append(len(ends))
        for partition in partitions(m):
            ends.append(len(parts))
            parts += partition
    return np.array(parts), np.array(ends), np.array(starts)


def _jet_exp(u) -> np.ndarray:
    """exp of multilinear jets (..., 2^k): since every εᵢ² = 0, component m is
    e^{u₀} times the sum over the set partitions of m of the products of u
    over the parts, one fixed gather, product and sum for every jet."""
    u = np.asarray(u, dtype=float)
    parts, ends, starts = _partitions(u.shape[-1].bit_length() - 1)
    e = np.empty(u.shape)
    e[..., 0] = 1.0
    e[..., 1:] = np.add.reduceat(np.multiply.reduceat(u[..., parts], ends, axis=-1), starts, axis=-1)
    return np.exp(u[..., :1]) * e


@lru_cache(maxsize=None)
def _blocks(width: int) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The (row, column) index of two gathers from rows (S₀ | P) of ``width``
    columns, each (quadrature, i, j, column): the x block is rows 0, 2 and the
    even columns, the p block rows 1, 3 and the odd ones.  Of each block
    (S | V), S = [[a, b], [c, d]] and V's rows v0, v1, the first gathers
    [[d, b], [a, c]] and the second [[v0, v1], [v1, v0]], so one product and
    one difference give the rows d·v0 − b·v1 and a·v1 − c·v0 of adj S · V."""
    q = np.arange(2)[:, None, None, None]  # the quadrature: 0 (x) or 1 (p)
    i = np.array([[1, 0], [0, 1]])[:, :, None]  # the S row of d, b, a, c
    j = np.array([[1, 1], [0, 0]])[:, :, None]  # and its S column
    return (q + 2 * i, q + 2 * j), (q + 2 * (1 - i), q + np.arange(4, width, 2))


def split_kernels(cov: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det S₀ (S₀ = cov + I) and the kernels K = (Kx, Kp) of 2PᵀS₀⁻¹P, P the (x, p)
    column pairs of ``columns`` (4 × 2m, one input mode each), then of the HOM
    projector's beam splitter, for one covariance or a stack (..., 4, 4) with one
    ``columns`` or one per covariance; K is (..., 2, m + 2, m + 2).  As
    S₀ = Sx ⊕ Sp and x (p) columns sit on x (p) rows alone, K = Kx ⊕ Kp with
    Kx = 2VxᵀSx⁻¹Vx, Kp = 2VpᵀSp⁻¹Vp, each from its 2 × 2 block by the adjugate.
    ValueError names the first nonzero entry of (S₀ | P), row by row, that joins
    an x to a p, in the first covariance that has one.  det S₀ = det Sx·det Sp;
    each block must then have S[0, 0] > 0 and 0 < det < ∞, so an S₀ that mixes X
    and P and is not positive definite raises ValueError.  An S₀ that fails
    this, alone or in a stack, gets a NaN det (and so a NaN jet)."""
    cov = np.asarray(cov, dtype=float)
    lead, width = cov.shape[:-2], 8 + np.shape(columns)[-1]
    rows = np.empty(lead + (4, width))  # (S₀ | P), rows x_a, p_a, x_b, p_b
    np.add(cov, _EYE4, out=rows[..., :4])
    rows[..., 4:-4] = columns
    rows[..., -4:] = HOM_BS
    if np.count_nonzero(rows[..., 0::2, 1::2]) or np.count_nonzero(rows[..., 1::2, 0::2]):
        mixing = (np.arange(4)[:, None] + np.arange(width)) % 2 == 1  # x rows, p columns and p rows, x columns
        for point in rows.reshape(-1, 4, width):
            for i, j in zip(*np.nonzero(mixing & (point != 0.0))):
                where = f"S0[{i}, {j}]" if j < 4 else f"input block {(j - 4) // 2} entry [{i}, {j % 2}]"
                raise ValueError(f"{where} = {float(point[i, j])!r} mixes X and P, which the jet engine keeps apart")
    adjugate, v_rows = _blocks(width)
    X, Y = rows[(..., *adjugate)], rows[(..., *v_rows)]  # (..., quadrature, i, j, column)
    ad_cb = X[..., 1, :, :] * X[..., 0, :, :]  # a·d and c·b of the x block, then the p block
    det, a = ad_cb[..., 0, :] - ad_cb[..., 1, :], X[..., 1, 0, :]
    if not (np.minimum(a, det).min() > 0.0 and det.max() < np.inf):
        positive = ((a > 0.0) & (det > 0.0) & (det < np.inf)).all(axis=(-2, -1))
        det = np.where(positive[..., None, None], det, np.nan)
    XY = X * Y
    st = (XY[..., 0, :] - XY[..., 1, :]) / det[..., None]  # adj S · V / det S: rows s, t
    VST = Y[..., 0, :, None] * st[..., None, :]  # v0 ⊗ s and v1 ⊗ t
    K = 2.0 * (VST[..., 0, :, :] + VST[..., 1, :, :])
    return det[..., 0, 0] * det[..., 1, 0], K


def hom_jet(det, K) -> np.ndarray:
    """Multilinear jet of Πᵢ(1+εᵢ)·4/√det S(ε), S(ε) = S₀ + Σᵢ 2εᵢPᵢPᵢᵀ, from :func:`split_kernels`,
    for one point or a stack; component m multiplies the variables (kernel columns) whose bits are set in m.
    The multilinear part of log det S(ε) = log det S₀ + log det(I + D_ε K) (Sylvester) is a sum of cycles
    with coefficient (−1)^(L+1)/L, and a cycle's trace is its product over Kx plus its product over Kp: one
    gather of every cycle's steps, one product along each cycle and one sum per mask."""
    K = np.asarray(K, dtype=float)
    k = K.shape[-1]
    steps, ends, coefficients, starts, weights = _cycles(k)
    trace = np.multiply.reduceat(K.reshape(*K.shape[:-2], k * k)[..., steps], ends, axis=-1)  # (..., 2, cycles)
    u = np.zeros(trace.shape[:-2] + (1 << k,))
    np.add(weights, np.add.reduceat(coefficients * (trace[..., 0, :] + trace[..., 1, :]), starts, axis=-1), out=u[..., 1:])
    return 4.0 / np.sqrt(det)[..., None] * _jet_exp(u)
