"""Independent oracles the benchmark checks the program's outputs against.

Everything here is written from the paper's formulas and from properties
the method must have.  Nothing is imported from ``qnd_hom``: the package's
own Fock-space oracle (``qnd_hom.fock``) is deliberately not used, so a
fault shared by the package's engine and its oracle cannot hide.
"""

from __future__ import annotations

import math

import numpy as np

E_MINUS_2 = math.exp(-2.0)
"""Output threshold, and the input threshold of the identity gate (G = 0)."""

G_STAR = math.sqrt(11.0 - math.sqrt(105.0))
"""Gain that maximizes the ideal |1,1> element E11."""

DIGITS_CAP = 15.0


def qnd_11(G: float) -> float:
    """Ideal-gate element for the |1,1> input: 16G²(G²−8)²/(4+G²)⁵."""
    g2 = G * G
    return 16.0 * g2 * (g2 - 8.0) ** 2 / (4.0 + g2) ** 5


def qnd_00(G: float) -> float:
    """Ideal-gate element for the double-vacuum input: 4G⁴/(4+G²)³."""
    g2 = G * G
    return 4.0 * g2 * g2 / (4.0 + g2) ** 3


def ideal_mixture(G: float, p: float) -> float:
    """Element for the input fraction p on both modes.

    The one-photon sectors |1,0> and |0,1> have odd total parity, which
    the gate conserves and the HOM state lacks, so they contribute 0.
    """
    return p * p * qnd_11(G) + (1.0 - p) ** 2 * qnd_00(G)


def bs_mixture(T: float, p: float) -> float:
    """Beam splitter of transmittance T; vacuum stays vacuum, so only the
    |1,1> sector survives: p²·4T(1−T)."""
    return p * p * 4.0 * T * (1.0 - T)


def identity_phase_averaged(u: float, v: float) -> float:
    """Phase-averaged element of coherent states with |α|² = u, |β|² = v
    sent through the identity gate (G = 0): ¼e^{−(u+v)}(u²+v²).

    Averaging |α² + β²|² over both phases leaves u² + v².  The maximum,
    e⁻² at (u, v) = (2, 0), is the input threshold of the G = 0 gate.
    """
    return 0.25 * math.exp(-(u + v)) * (u * u + v * v)


def quadratic_root(xs, ys, level: float, lo: float, hi: float) -> tuple[float, float] | None:
    """Root in [lo, hi] of the quadratic through three points minus level.

    Returns (root, |slope| at the root), or None when no root lies in the
    interval.  The element is exactly bilinear in the two input fractions,
    hence exactly quadratic in p when both are equal, so three values fix
    the whole curve.
    """
    a, b, c = np.polyfit(np.asarray(xs, float), np.asarray(ys, float) - level, 2)
    roots = [r.real for r in np.roots([a, b, c]) if abs(r.imag) < 1e-12]
    inside = sorted(r for r in roots if lo <= r <= hi)
    if not inside:
        return None
    root = inside[0]
    return root, abs(2.0 * a * root + b)


def quadratic_residual(xs, ys) -> float:
    """Largest deviation of the points from their least-squares quadratic."""
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    centre = xs.mean()
    coeffs = np.polyfit(xs - centre, ys, 2)
    return float(np.max(np.abs(np.polyval(coeffs, xs - centre) - ys)))


def digits(error: float) -> float:
    """−log10 of an absolute error, capped at 15 (an exact result)."""
    if not math.isfinite(error):
        return 0.0
    if error <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(error))
