"""Test-only references for the threshold's ascent.

:func:`ascend` is the projected BFGS ascent on numpy arrays of any
dimension, kept as the reference that the float loop of
:func:`qnd_hom.thresholds.ascend` is tested against.

It is the same algorithm step for step: the projection onto free faces,
a first step of length ``step``, Armijo backtracking by halving, the
roundoff stop and the 200-evaluation cap.  Only the roundoff of the
inverse-Hessian update differs (VᵀHV + ssᵀ/sy here, the expanded closed
form there), so both must make the same evaluations and end within a few
ulp of each other.

:func:`ascent_starts` is the start rule as whole-grid passes: a padded
3 × 3 neighbour mask and a stable sort of every cell, which
:func:`qnd_hom.thresholds._ascent_starts` must match on the picked cells
alone.
"""

import itertools
import math

import numpy as np

_MAX_EVALS = 200  # evaluations of f per ascent


def ascend(fg, x, step: float) -> tuple[np.ndarray, float]:
    """Maximize f on the unit box [0, 1]ⁿ from ``x`` by projected BFGS;
    ``fg(x)`` returns f and its gradient.  A coordinate on a face that its
    gradient points out of is held there.  The first step has length
    ``step``, and each step halves until f rises by 1e-4 of its
    first-order gain (Armijo).  Stops when the quadratic model predicts a
    gain below the roundoff of f, when a step no longer moves x, or at 200
    evaluations of f; returns the last accepted x and f there."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    (f, g), evals, H = fg(x), 1, None
    while evals < _MAX_EVALS:
        free = ((x > 0.0) | (g > 0.0)) & ((x < 1.0) | (g < 0.0))
        g_free = np.where(free, g, 0.0)
        if not g_free.any():
            break
        if H is None:
            H = np.eye(x.size) * (step / math.hypot(*g_free))
        d = np.where(free, H @ g_free, 0.0)
        if 0.5 * (g_free @ d) <= math.ulp(f):
            break
        for t in 0.5 ** np.arange(_MAX_EVALS - evals):  # backtracking
            x_new = np.clip(x + t * d, 0.0, 1.0)
            if not (s := x_new - x).any():
                return x, f
            (f_new, g_new), evals = fg(x_new), evals + 1
            if f_new - f >= 1e-4 * abs(g @ s):
                break
        else:
            return x, f
        y = g - g_new  # the change in the gradient of −f
        if (sy := s @ y) > 0.0:  # the BFGS update of the inverse Hessian
            V = np.eye(x.size) - np.outer(y, s) / sy
            H = V.T @ H @ V + np.outer(s, s) / sy
        x, f, g = x_new, f_new, g_new
    return x, f


def ascent_starts(scores: np.ndarray, starts: int = 4) -> list[int]:
    """Flat indices of the cells an ascent climbs from: of the ``starts``
    best cells by a stable sort of the negated scores (best first, equal
    scores in grid order, NaN last), each that no neighbour beats, the
    grid padded with −inf so that an edge cell meets only the neighbours
    that exist."""
    n, m = scores.shape
    padded = np.full((n + 2, m + 2), -np.inf)
    padded[1:-1, 1:-1] = scores
    beaten = np.zeros((n, m), dtype=bool)
    for i, j in itertools.product(range(3), repeat=2):
        beaten |= scores < padded[i : i + n, j : j + m]
    best = np.argsort(-scores, axis=None, kind="stable")[:starts]
    return best[~beaten.flat[best]].tolist()
