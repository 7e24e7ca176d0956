"""The general 2 × 2-block jet engine, kept as the reference that the
split-kernel :func:`qnd_hom.gaussian.hom_jet` is tested against.

It makes no assumption about X and P: every (i, j) block of
K = 2PᵀS₀⁻¹P is a full 2 × 2 matrix and a cycle's term is the trace of
their product.  On gates that keep X and P apart its blocks are
diagonal, and it must agree with the package engine to float64 roundoff.
"""

import math
from functools import lru_cache
from itertools import permutations

import numpy as np

from qnd_hom.gaussian import HOM_BS, NumericalDomainError, _jet_exp


@lru_cache(maxsize=None)
def _block_cycles(k: int) -> tuple:
    """Per cycle length L: the row and column block indices of every
    cycle (from its smallest member), their bit masks and (−1)^(L+1)."""
    by_length: dict[int, list] = {}
    for mask in range(1, 1 << k):
        members = [i for i in range(k) if mask >> i & 1]
        for rest in permutations(members[1:]):
            by_length.setdefault(len(members), []).append(((members[0],) + rest, mask))
    out = []
    for length, items in sorted(by_length.items()):
        rows = np.array([cycle for cycle, _ in items])
        masks = np.array([mask for _, mask in items])
        out.append((rows, np.roll(rows, -1, axis=1), masks, (-1.0) ** (length + 1)))
    return tuple(out)


def block_hom_jet(cov: np.ndarray, inputs: tuple[np.ndarray, ...] = ()) -> np.ndarray:
    """The jet of :func:`qnd_hom.gaussian.hom_jet`, on general 2 × 2 blocks."""
    S0 = np.asarray(cov, dtype=float) + np.eye(4)
    try:
        det = float(np.prod(np.diag(np.linalg.cholesky(S0)))) ** 2
    except np.linalg.LinAlgError:
        det = math.nan
    if not math.isfinite(det):
        raise NumericalDomainError("overlap matrix is not positive definite")
    P = np.hstack(list(inputs) + [HOM_BS[:, :2], HOM_BS[:, 2:]])
    k = P.shape[1] // 2
    blocks = (2.0 * P.T @ np.linalg.solve(S0, P)).reshape(k, 2, k, 2).transpose(0, 2, 1, 3)
    u = np.zeros(1 << k)
    for rows, cols, masks, sign in _block_cycles(k):
        M = blocks[rows[:, 0], cols[:, 0]]
        for j in range(1, rows.shape[1]):
            M = M @ blocks[rows[:, j], cols[:, j]]
        np.add.at(u, masks, -0.5 * sign * np.trace(M, axis1=1, axis2=2))
    u[1 << np.arange(k)] += 1.0  # the weights 1 + εᵢ
    return 4.0 / math.sqrt(det) * _jet_exp(u)
