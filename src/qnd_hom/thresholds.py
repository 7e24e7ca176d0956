"""Nonclassicality thresholds for the bunching element.

Two classical benchmarks bound what coherent-state inputs can fake:

* the *output* threshold — the largest bunching element any pair of
  coherent states can show after a balanced beam splitter — is the
  constant 1/e², reached at |α|²+|β|² = 2 with α real and β imaginary;

* the *input* threshold depends on the interaction: coherent inputs
  with fixed amplitudes (R_a, R_b) but uniformly random phases are sent
  through the gate, the element is averaged over both phases (killing
  first-order interference) and then maximized over the amplitudes.

The phase average uses the periodic trapezoid rule, which converges
exponentially for these smooth periodic integrands (Trefethen &
Weideman, SIAM Rev. 56, 385 (2014)).  The amplitude search has no
knobs: at 64 phase samples per input it scans a coarse grid of the box
[0, 6]² and refines with a derivative-free simplex from the best grid
cells, since the averaged element can have several local maxima.  The
even nodes of the 64-point rule form the 32-point rule, so the same
phase-grid values at the argmax certify the average: it is converged
when the two rules agree to 1e-6.  The objective is the exact coherent
element of :mod:`qnd_hom.metrics`, one exp per phase point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .gates import GateModel, as_gate_model
from .metrics import coherent_coefficient, coherent_jets

_CONVERGENCE_TOL = 1e-6
_PHASE_SAMPLES = 64  # trapezoid nodes per input phase
_DOMAIN = 6.0  # amplitude cap of both inputs
_COARSE_GRID = 25  # amplitude grid points per axis
_SIMPLEX_TOL = 1e-8  # xatol and fatol of each amplitude refinement
_SIMPLEX_ITERATIONS = 200
ACCURACY_WARNING = "phase average not converged"
BOUNDARY_WARNING = "amplitude optimum hit the search-domain cap"


@dataclass(frozen=True)
class ThresholdResult:
    value: float
    argmax: tuple[float, float]
    phase_samples: int
    converged: bool
    warnings: tuple[str, ...] = ()


def output_threshold() -> float:
    """Universal coherent-state bunching bound after a balanced beam
    splitter: exactly 1/e² (stationarity of (1/4)u²e^{-u} at u=2)."""
    return math.exp(-2.0)


def verify_output_threshold(grid_points: int = 200, amplitude_max: float = 4.0) -> float:
    """Brute-force sup of the coherent element over an amplitude grid
    with the optimal phase choice α = a real, β = ib imaginary, where it
    is ¼(a² + b²)²·e^{−a²−b²}."""
    amps = np.linspace(0.0, amplitude_max, grid_points)
    best = 0.0
    for a in amps:
        vals = 0.25 * np.exp(-a * a - amps * amps) * (a * a + amps * amps) ** 2
        best = max(best, float(vals.max()))
    return best


class _AveragedElement:
    """Phase-averaged coherent element M^av(R_a, R_b) for one model.

    The input means are (R_a cosφ_a, R_a sinφ_a, R_b cosφ_b, R_b sinφ_b),
    so each quadratic form RᵀQR of :func:`coherent_jets` splits into
    R_a²·u(φ_a) + R_b²·v(φ_b) + 2R_aR_b·w(φ_a,φ_b); u, v, w only depend
    on the phase grid and are precomputed, leaving one exp per grid
    point at evaluation time.
    """

    def __init__(self, model: GateModel, phase_samples: int):
        self.c, Q = coherent_jets(model)
        theta = 2.0 * np.pi * np.arange(phase_samples) / phase_samples
        circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)  # (ns, 2)
        self.u = np.einsum("ik,qkl,il->qi", circle, Q[:, :2, :2], circle)[:, :, None]
        self.v = np.einsum("ik,qkl,il->qi", circle, Q[:, 2:, 2:], circle)[:, None, :]
        self.w = circle @ Q[:, :2, 2:] @ circle.T
        self.q = np.empty_like(self.w)  # reused: a fresh one per call can page-fault

    def values(self, R_a: float, R_b: float) -> np.ndarray:
        """The coherent element on the phase grid (φ_a rows, φ_b columns)."""
        q = np.multiply(2.0 * R_a * R_b, self.w, out=self.q)
        q += (R_a * R_a) * self.u
        q += (R_b * R_b) * self.v
        return coherent_coefficient(self.c, *q)

    def __call__(self, R_a: float, R_b: float) -> float:
        return float(self.values(R_a, R_b).mean())


def phase_averaged_element(
    model: GateModel | float,
    R_a: float,
    R_b: float,
    phase_samples: int = 64,
) -> float:
    """M^av at one amplitude pair; exposed for convergence diagnostics."""
    return _AveragedElement(as_gate_model(model), phase_samples)(R_a, R_b)


def maximize_on_box(objective, box, points: int, starts: int, **simplex):
    """Maximize ``objective(*x)`` over the box [(lo, hi), ...].

    Scans ``points`` evenly spaced values per axis (first axis
    outermost), then runs a bounded Nelder–Mead, with ``simplex`` as its
    options, from each of the ``starts`` best grid points; equal grid
    values keep grid order.  Returns (max, argmax).
    """
    axes = [np.linspace(lo, hi, points) for lo, hi in box]
    scores = sorted(
        ((objective(*x), x) for x in itertools.product(*axes)), key=lambda t: -t[0]
    )
    best_val, best_arg = scores[0]
    negated = lambda x: -objective(*x)
    for _, x0 in scores[:starts]:
        res = minimize(negated, list(x0), method="Nelder-Mead", bounds=box, options=simplex)
        if -res.fun > best_val:
            best_val, best_arg = -res.fun, res.x
    return float(best_val), tuple(float(x) for x in best_arg)


def input_threshold(model: GateModel | float) -> ThresholdResult:
    """Phase-randomized coherent input threshold of a gate.

    Maximizes the double-phase-averaged element over the two input
    amplitudes: one grid scan and multi-start refinement at 64 phase
    samples.  The average at the argmax is certified by the 32-sample
    rule on the same phase-grid values; a difference of 1e-6 or more
    attaches an accuracy warning instead of raising.  The threshold
    depends only on the gate, never on the input mixture.
    """
    objective = _AveragedElement(as_gate_model(model), _PHASE_SAMPLES)
    value, argmax = maximize_on_box(
        objective, [(0.0, _DOMAIN)] * 2, _COARSE_GRID, 4,
        xatol=_SIMPLEX_TOL, fatol=_SIMPLEX_TOL, maxiter=_SIMPLEX_ITERATIONS,
    )
    half_rule = float(objective.values(*argmax)[::2, ::2].mean())
    converged = abs(value - half_rule) < _CONVERGENCE_TOL
    warnings = []
    if not converged:
        warnings.append(ACCURACY_WARNING)
    if max(argmax) > _DOMAIN - 1e-3:
        warnings.append(BOUNDARY_WARNING)
    return ThresholdResult(value, argmax, _PHASE_SAMPLES, converged, tuple(warnings))


def find_crossing(
    curve,
    threshold: float,
    lo: float,
    hi: float,
    xtol: float = 1e-4,
    scan_points: int = 65,
) -> float | None:
    """First parameter in [lo, hi] where curve(x) − threshold changes
    sign, located by scan plus bisection to xtol; None when the
    difference never changes sign on the scan grid.  ``threshold`` is a
    number."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"crossing range bounds must be finite, got [{lo}, {hi}]")
    if not (hi > lo):
        raise ValueError("need hi > lo")
    xs = np.linspace(lo, hi, scan_points)
    diff = lambda x: curve(x) - threshold
    prev_x, prev_d = xs[0], diff(xs[0])
    bracket = None
    for x in xs[1:]:
        d = diff(x)
        if prev_d == 0.0 or (prev_d < 0.0) != (d < 0.0):
            bracket = (prev_x, prev_d, x, d)
            break
        prev_x, prev_d = x, d
    if bracket is None:
        return None
    a, da, b, _ = bracket
    if da == 0.0:
        return float(a)
    while b - a > xtol:
        m = 0.5 * (a + b)
        dm = diff(m)
        if dm == 0.0:
            return float(m)
        if (dm < 0.0) == (da < 0.0):
            a, da = m, dm
        else:
            b = m
    return float(0.5 * (a + b))
