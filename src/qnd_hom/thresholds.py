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
knobs.  The averaged element can have several local maxima, so it first
scores a coarse grid of the box [0, 6]² in one tensor scan on the
16-node sub-rule (every 4th node of the 64-node grid), then climbs from
the 4 best cells with :func:`ascend`, a projected BFGS ascent on the
box (Nocedal & Wright, Numerical Optimization, 2nd ed. (2006), ch. 3
and 6), on the 64-node average.  Each quadratic form is
R_a²u + R_b²v + 2R_aR_b·w, so the ascent gets the exact gradient, and
the value it returns is the 64-node average at its argmax.  The even
nodes of the 64-point rule form the 32-point rule, so the same
phase-grid values at the argmax certify the average: it is converged
when the two rules agree to 1e-6.  The objective is the exact coherent
element of :mod:`qnd_hom.metrics`, one exp per phase point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gates import GateModel, as_gate_model
from .metrics import coherent_coefficient, coherent_jets

_CONVERGENCE_TOL = 1e-6
_PHASE_SAMPLES = 64  # trapezoid nodes per input phase
_DOMAIN = 6.0  # amplitude cap of both inputs
_COARSE_GRID = 25  # amplitude grid points per axis
_SCAN_STRIDE = 4  # the coarse grid is scored on every 4th phase node
_STARTS = 4  # ascents, from the best grid cells
_MAX_EVALS = 200  # evaluations of f per ascent
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

    def value_and_grad(self, R_a: float, R_b: float) -> tuple[float, np.ndarray]:
        """M^av and its exact gradient in (R_a, R_b).

        With f = e·P, e = exp(−q₀/2) and P the jet polynomial of
        :func:`coherent_coefficient`, the partials ∂f/∂q_k are closed
        forms, and ∂q_k/∂R_a = 2R_a·u_k + 2R_b·w_k, ∂q_k/∂R_b = 2R_b·v_k +
        2R_a·w_k.
        """
        f = self.values(R_a, R_b)
        q0, qa, qb, _ = self.q  # the forms that values() just filled in
        c = self.c
        e = np.exp(-0.5 * q0)
        df = np.stack([  # ∂f/∂q_k on the phase grid
            -0.5 * f,
            e * (0.25 * c[0] * qb - 0.5 * c[2]),
            e * (0.25 * c[0] * qa - 0.5 * c[1]),
            (-0.5 * c[0]) * e,
        ])
        n = f.size
        du = float((df.sum(axis=2) * self.u[:, :, 0]).sum()) / n
        dv = float((df.sum(axis=1) * self.v[:, 0, :]).sum()) / n
        dw = float((df * self.w).sum()) / n  # not vdot: BLAS would wake its threads
        grad = np.array([2.0 * (R_a * du + R_b * dw), 2.0 * (R_b * dv + R_a * dw)])
        return float(f.mean()), grad

    def scan(self, axis: np.ndarray) -> np.ndarray:
        """M^av on the grid axis × axis (R_a rows), each cell averaged on
        the sub-rule of every ``_SCAN_STRIDE``-th phase node; one
        broadcast per R_a row."""
        s = _SCAN_STRIDE
        u, v, w = self.u[:, None, ::s, :], self.v[:, None, :, ::s], self.w[:, None, ::s, ::s]
        b = axis[:, None, None]
        scores = np.empty((axis.size, axis.size))
        for i, a in enumerate(axis):
            q = (2.0 * a * b) * w + (a * a) * u + (b * b) * v  # (4, R_b, φ_a, φ_b)
            scores[i] = coherent_coefficient(self.c, *q).mean(axis=(1, 2))
        return scores


def phase_averaged_element(
    model: GateModel | float,
    R_a: float,
    R_b: float,
    phase_samples: int = 64,
) -> float:
    """M^av at one amplitude pair; exposed for convergence diagnostics."""
    return _AveragedElement(as_gate_model(model), phase_samples)(R_a, R_b)


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


def input_threshold(model: GateModel | float) -> ThresholdResult:
    """Phase-randomized coherent input threshold of a gate.

    Maximizes the double-phase-averaged element over the two input
    amplitudes: one grid scan on the 16-node sub-rule, then an ascent
    from each of the 4 best cells at 64 phase samples.  The average at
    the argmax is certified by the 32-sample rule on the same phase-grid
    values; a difference of 1e-6 or more attaches an accuracy warning
    instead of raising.  The threshold depends only on the gate, never on
    the input mixture.
    """
    objective = _AveragedElement(as_gate_model(model), _PHASE_SAMPLES)
    axis = np.linspace(0.0, _DOMAIN, _COARSE_GRID)
    scores = objective.scan(axis).ravel()

    def fg(x):  # on the unit box: R = _DOMAIN·x
        f, grad = objective.value_and_grad(*(_DOMAIN * x))
        return f, _DOMAIN * grad

    value, argmax = -math.inf, None
    # equal scores keep grid order, and a later optimum must be strictly better
    for cell in np.argsort(-scores, kind="stable")[:_STARTS]:
        x, top = ascend(fg, np.array(divmod(cell, axis.size)) / (axis.size - 1), 1 / (axis.size - 1))
        if top > value:
            value, argmax = top, (float(_DOMAIN * x[0]), float(_DOMAIN * x[1]))
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
