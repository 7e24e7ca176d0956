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
Weideman, SIAM Rev. 56, 385 (2014)).  Every quadratic form is even
under (φ_a, φ_b) → (φ_a + π, φ_b + π), so the 64 × 64 grid is two copies
of its φ_a ∈ [0, π) half.  No gate mixes X and P, so every form is also
even under (φ_a, φ_b) → (−φ_a, −φ_b): on the half grid, row i holds the
values of row (32 − i) mod 32 with its columns permuted.  So the average is
taken on rows 0 … 16 alone, with row weights 1, 2, …, 2, 1, and so are
its 32- and 16-node sub-rules, whose rows are those rows at strides 2
and 4.  The amplitude search has no knobs.  The averaged element can
have several local maxima, so it first scores a coarse grid of the box
[0, 6]² in one scan on the 16-node sub-rule (every 4th node of the
64-node grid), then climbs with :func:`ascend`, a projected BFGS ascent
on the box (Nocedal & Wright, Numerical Optimization, 2nd ed. (2006),
ch. 3 and 6), on the 64-node average, from each of the 4 best cells that
no neighbouring cell beats.  The 4 best cells most often lie on one hill
of the scan, and then one ascent climbs it, not four.  The starts are
read off those 4 cells alone (:func:`_ascent_starts`): a neighbour that
beats one of them scores higher, so it is one of the cells picked before
it, and each is tested against those alone.

This module owns the coherent-input forms: :func:`coherent_jets` reads
the jets c and q of the coherent element exp(−q₀/2)·P off the kernels
and jet that the model's batch read for the bunching element, so the
threshold accepts the gates the element accepts.  Each quadratic form is
R_a²u + R_b²v + 2R_aR_b·w, so the element is fixed on the phase grid by
12 node arrays, the coefficients of the monomials of R_a and R_b that
−q₀/2 and P are linear in.  :func:`averaged_elements` builds the arrays
of several points at once, elementwise, from their stacked kernels and
jets, so a point's arrays do not depend on what they are built with; a
lone model is a batch of one.  One product of the 12 monomials with
those arrays gives the exponent and P on every node, and one product of
the arrays with the weighted e = exp(−q₀/2) and f = e·P gives every node
sum that the chain rule needs: so the ascent gets the exact gradient in
plain floats, and the value it returns is the 64-node average at its
argmax.  The scan scores its cells, whose monomials are built once per
grid axis, in a few products.  The even nodes of the 64-point rule form
the 32-point rule, so the same phase-grid values at the argmax certify
the average: it is converged when the two rules agree to 1e-6.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gates import GateModel, as_gate_model

_CONVERGENCE_TOL = 1e-6
_PHASE_SAMPLES = 64  # trapezoid nodes per input phase
_DOMAIN = 6.0  # amplitude cap of both inputs
_COARSE_GRID = 25  # amplitude grid points per axis
_SCAN_STRIDE = 4  # the coarse grid is scored on every 4th phase node
_SCAN_CHUNK = 125  # grid cells per product of the scan: 90k multiply-adds, one BLAS thread
_STARTS = 4  # the best grid cells, each climbed from when no neighbour beats it
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
    s = (amps * amps)[:, None] + amps * amps  # a² + b² on the grid
    return float((0.25 * np.exp(-s) * s**2).max(initial=0.0))


@lru_cache(maxsize=8)
def _phase_grid(phase_samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos φ and sin φ on the ns trapezoid nodes of [0, 2π), and the weight
    of each node of rows 0 … ⌊ns/4⌋ of the φ_a ∈ [0, π) half grid,
    normalized so that the weighted sum is the ns × ns average; read-only.
    Row i also stands for row (ns/2 − i) mod ns/2, so it counts twice unless
    the two are one row: row 0 always, row ns/4 when ns ≡ 0 (mod 4)."""
    theta = 2.0 * np.pi * np.arange(phase_samples) / phase_samples
    half, rows = phase_samples // 2, np.arange(phase_samples // 4 + 1)
    row_weights = np.where((rows == 0) | (2 * rows == half), 1.0, 2.0) / (half * phase_samples)
    grid = np.cos(theta), np.sin(theta), np.repeat(row_weights[:, None], phase_samples, axis=1)
    for array in grid:
        array.flags.writeable = False
    return grid


@lru_cache(maxsize=4)
def _grid_cells(axis: bytes) -> np.ndarray:
    """The monomials that −q₀/2 (the first 3) and P (the other 9) are linear
    in, R_a², R_b², R_aR_b, then 1, R_a², R_b², R_aR_b, R_a⁴, R_b⁴, R_a²R_b²,
    R_a³R_b, R_aR_b³, on each cell of the grid axis × axis (R_a rows), one
    read-only row per cell.  ``axis`` is given by its float64 bytes, so each
    axis, the threshold's own among them, is built once."""
    a, b = np.frombuffer(axis)[:, None], np.frombuffer(axis)
    aa, bb, ab = a * a, b * b, a * b
    monomials = (aa, bb, ab, 1.0, aa, bb, ab, aa * aa, bb * bb, aa * bb, aa * ab, ab * bb)
    cells = np.stack(np.broadcast_arrays(*monomials), axis=-1).reshape(-1, 12)
    cells.flags.writeable = False
    return cells


def coherent_jets(kernels: np.ndarray, jet: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projector jets of gates for coherent signal inputs, off their kernels and element jets.

    ``kernels`` (… × 2 × 4 × 4) and ``jet`` (… × 16) are a model's, or the
    stacked ones of several points; the leading axes carry over.  Returns
    ``c`` (… × 4), the jet (c₀, c_a, c_b, c_ab) of (1+y_a)(1+y_b)·4/√det S(y)
    with S(y) = V_vac + I + 2y_a B_aB_aᵀ + 2y_b B_bB_bᵀ (the element's jet at
    zero signal variables), and ``Q`` (… × 4 × 4 × 4), the quadratic forms
    over the input quadrature means whose values are the jet (q₀, q_a, q_b,
    q_ab) of dᵀS(y)⁻¹d, d the output mean.  Every step is elementwise, so a
    point's jets do not depend on what it is stacked with.
    """
    c, k = jet[..., 0:13:4], 0.5 * kernels
    # S(y)⁻¹ to first order: S₀⁻¹ − 2y_a S₀⁻¹AS₀⁻¹ − 2y_b S₀⁻¹BS₀⁻¹ + 4y_a y_b (S₀⁻¹AS₀⁻¹BS₀⁻¹ + S₀⁻¹BS₀⁻¹AS₀⁻¹),
    # A = B_aB_aᵀ, B = B_bB_bᵀ; per quadrature, k = K/2 over (signal a, signal b, B_a, B_b) holds each factor
    aa, bb, ab = (k[..., i, :2, None] * k[..., j, None, :2] for i, j in ((2, 2), (3, 3), (2, 3)))
    forms = np.empty((*c.shape[:-1], 4, 2, 2, 2))  # (form, quadrature, mode, mode)
    forms[..., 0, :, :, :], forms[..., 1, :, :, :], forms[..., 2, :, :, :] = k[..., :2, :2], -2.0 * aa, -2.0 * bb
    forms[..., 3, :, :, :] = 4.0 * k[..., 2, 3, None, None] * (ab + ab.swapaxes(-1, -2))
    Q = np.zeros((*c.shape[:-1], 4, 2, 2, 2, 2))  # (form, mode, quadrature, mode, quadrature)
    Q[..., 0, :, 0], Q[..., 1, :, 1] = forms[..., 0, :, :], forms[..., 1, :, :]
    return c, Q.reshape(*c.shape[:-1], 4, 4, 4)


def _node_arrays(kernels: np.ndarray, jet: np.ndarray, phase_samples: int) -> np.ndarray:
    """The 12 node arrays of :class:`_AveragedElement` for each of N points,
    N × 12 × rows × ns, from their stacked kernels (N × 2 × 4 × 4) and jets
    (N × 16).  Each form is R_a²u(φ_a) + R_b²v(φ_b) + 2R_aR_b·w(φ_a, φ_b),
    with u, v and w written out on the nodes (cos φ, sin φ) term by term:
    every step is elementwise, so a point's arrays are the ones it has alone,
    bit for bit."""
    c, Q = coherent_jets(kernels, jet)
    cos, sin, weights = _phase_grid(phase_samples)
    rows = weights.shape[0]
    cq, sq = cos[:rows], sin[:rows]  # φ_a ∈ [0, π/2]
    # the forms whose node values the arrays need: −q₀/2, P's linear
    # part −(c₂q_a + c₁q_b + c₀q_ab)/2, then q_a and q_b
    linear = -0.5 * (c[:, 2, None, None] * Q[:, 1] + c[:, 1, None, None] * Q[:, 2] + c[:, 0, None, None] * Q[:, 3])
    forms = np.stack([-0.5 * Q[:, 0], linear, Q[:, 1], Q[:, 2]], axis=1)

    def left(block, cos, sin):  # xᵀ·block at the nodes x = (cos φ, sin φ): … × 2 × nodes
        return block[..., 0, :, None] * cos + block[..., 1, :, None] * sin

    ta, tb, tw = left(forms[..., :2, :2], cq, sq), left(forms[..., 2:, 2:], cos, sin), left(forms[..., :2, 2:], cq, sq)
    # their coefficients of R_a², R_b² and R_aR_b on the nodes: u, v and 2w
    u = (ta[..., 0, :] * cq + ta[..., 1, :] * sq)[..., :, None]
    v = (tb[..., 0, :] * cos + tb[..., 1, :] * sin)[..., None, :]
    w = 2.0 * (tw[..., 0, :, None] * cos + tw[..., 1, :, None] * sin)
    n = np.empty((len(c), 12, rows, phase_samples))
    n[:, 0], n[:, 1], n[:, 2] = u[:, 0], v[:, 0], w[:, 0]
    # P: c₃, the linear part, then c₀q_a q_b/4, whose nine products of
    # monomials fall on five: (R_aR_b)² is R_a²·R_b²
    n[:, 3], n[:, 4], n[:, 5], n[:, 6] = c[:, 3, None, None], u[:, 1], v[:, 1], w[:, 1]
    (ua, va, wa), (ub, vb, wb) = (u[:, 2], v[:, 2], w[:, 2]), (u[:, 3], v[:, 3], w[:, 3])
    n[:, 7], n[:, 8] = ua * ub, va * vb
    np.multiply(wa, wb, out=n[:, 9])
    n[:, 9] += ua * vb
    n[:, 9] += va * ub
    np.multiply(wa, ub, out=n[:, 10])
    n[:, 10] += ua * wb
    np.multiply(wa, vb, out=n[:, 11])
    n[:, 11] += va * wb
    n[:, 7:] *= 0.25 * c[:, 0, None, None, None]
    return n


class _AveragedElement:
    """Phase-averaged coherent element M^av(R_a, R_b) of one point.

    The input means are (R_a cosφ_a, R_a sinφ_a, R_b cosφ_b, R_b sinφ_b),
    so each quadratic form RᵀQR of :func:`coherent_jets` splits into
    q_k = R_a²·u_k(φ_a) + R_b²·v_k(φ_b) + 2R_aR_b·w_k(φ_a,φ_b).  In
    f = exp(−q₀/2)·P, the exponent is then linear in 3 monomials of the
    amplitudes and P = c₀(q_a q_b/4 − q_ab/2) − (c₁q_b + c₂q_a)/2 + c₃ in
    9 (:func:`_grid_cells`).  Their 12 coefficient arrays on the phase
    grid, ``nodes`` (12 × rows × ns), are built with the point's batch
    (:func:`averaged_elements`), so every evaluation is one (2 × 12) row
    of monomials times them.  A shift of both phases by π flips the sign
    of both means and leaves every form unchanged, and so does negating
    both phases, since no gate mixes X and P: only the rows φ_a ∈ [0, π/2]
    are kept, weighted by ``weights`` (:func:`_phase_grid`, per node).
    """

    def __init__(self, nodes: np.ndarray, weights: np.ndarray):
        self.nodes, self.weights = nodes, weights
        self._flat, self._w = nodes.reshape(12, -1), weights.ravel()
        self._monomials = np.zeros((2, 12))  # −q₀/2's in row 0, P's in row 1
        self._monomials[1, 3] = 1.0
        self._weighted = np.empty((2, self._w.size))  # e·w and f·w on the nodes

    def _forms(self, a: float, b: float) -> np.ndarray:
        """−q₀/2 and P on the flattened nodes, the rows of one product of
        the monomials at R_a = a, R_b = b with the node arrays."""
        m = self._monomials
        aa, bb, ab = a * a, b * b, a * b
        m[0, :3] = aa, bb, ab
        m[1, 4:] = aa, bb, ab, aa * aa, bb * bb, aa * bb, aa * ab, ab * bb
        return m @ self._flat

    def values(self, R_a: float, R_b: float) -> np.ndarray:
        """The coherent element on the φ_a ∈ [0, π/2] rows of the phase
        grid, φ_b ∈ [0, 2π) columns; :meth:`average` weighs them."""
        h, p = self._forms(R_a, R_b)
        f = np.exp(h, out=h)
        f *= p
        return f.reshape(self.nodes.shape[1:])

    def average(self, f: np.ndarray, stride: int = 1) -> float:
        """The phase average of :meth:`values` output ``f`` on the sub-rule
        of every ``stride``-th node (ns/stride even): its rows are every
        ``stride``-th row, with stride² times their weights.  One pairwise
        sum over every weighted node."""
        weighted = f[::stride, ::stride] * self.weights[::stride, ::stride]
        return float(weighted.sum()) * (stride * stride)

    def __call__(self, R_a: float, R_b: float) -> float:
        return self.average(self.values(R_a, R_b))

    def value_and_grad(self, R_a: float, R_b: float) -> tuple[float, list[float]]:
        """M^av and its exact gradient in (R_a, R_b), as two floats.  With
        e = exp(−q₀/2) and f = e·P on the nodes, ∇f = e·∇P + f·∇(−q₀/2),
        and both gradients are sums of monomial partials times node arrays:
        so one product of the 12 arrays with e·w and f·w gives every
        weighted node sum the chain rule needs, in plain floats.  The value
        is the sum of f·w, bit-equal to :meth:`__call__`."""
        a, b = R_a, R_b
        h, p = self._forms(a, b)
        e = np.exp(h, out=h)
        ew, fw = self._weighted
        np.multiply(e, self._w, out=ew)
        np.multiply(np.multiply(e, p, out=p), self._w, out=fw)
        value = float(fw.reshape(self.weights.shape).sum())
        e_sums, f_sums = (self._weighted @ self._flat.T).tolist()  # Σ array·e·w and Σ array·f·w, per array
        ha, hb, hab = f_sums[:3]  # the exponent's partials meet f
        _, pa, pb, pab, pa4, pb4, pa2b2, pa3b, pab3 = e_sums[3:]  # P's meet e
        aa, bb, mixed = a * a, b * b, hab + pab
        g_a = (2.0 * a * (ha + pa) + b * mixed + 4.0 * a * aa * pa4
               + 2.0 * a * bb * pa2b2 + 3.0 * aa * b * pa3b + b * bb * pab3)
        g_b = (2.0 * b * (hb + pb) + a * mixed + 4.0 * b * bb * pb4
               + 2.0 * aa * b * pa2b2 + a * aa * pa3b + 3.0 * a * bb * pab3)
        return value, [g_a, g_b]

    def scan(self, axis: np.ndarray) -> np.ndarray:
        """M^av on the grid axis × axis (R_a rows), each cell averaged on
        the sub-rule of every ``_SCAN_STRIDE``-th phase node: the cells'
        monomials (:func:`_grid_cells`) times that sub-rule's node arrays,
        then exp, a product, and a product with its node weights,
        ``_SCAN_CHUNK`` cells at a time."""
        s = _SCAN_STRIDE
        nodes = np.ascontiguousarray(self.nodes[:, ::s, ::s]).reshape(12, -1)
        weights = self.weights[::s, ::s].ravel() * (s * s)
        cells = _grid_cells(np.asarray(axis, dtype=float).tobytes())
        scores = np.empty(cells.shape[0])
        # reused, and at 125 cells × 80 nodes each 80 KB, below glibc's 128 KB
        # mmap threshold: in one 625-cell block the two 400 KB buffers take
        # ~160 page faults per scan, and the scan 0.41 ms against 0.19 ms
        e, p = np.empty((_SCAN_CHUNK, nodes.shape[1])), np.empty((_SCAN_CHUNK, nodes.shape[1]))
        for i in range(0, cells.shape[0], _SCAN_CHUNK):
            m = cells[i : i + _SCAN_CHUNK]
            e_m, p_m = e[: m.shape[0]], p[: m.shape[0]]
            np.exp(np.matmul(m[:, :3], nodes[:3], out=e_m), out=e_m)
            e_m *= np.matmul(m[:, 3:], nodes[3:], out=p_m)
            np.matmul(e_m, weights, out=scores[i : i + m.shape[0]])
        return scores.reshape(axis.size, axis.size)


def averaged_elements(
    kernels: np.ndarray, jet: np.ndarray, phase_samples: int = _PHASE_SAMPLES
) -> list[_AveragedElement]:
    """The phase-averaged elements of N points from their stacked kernels
    (N × 2 × 4 × 4) and element jets (N × 16), as a batch's points hold
    them: one build of all their node arrays (:func:`_node_arrays`), so
    each point's objective is the one it has alone, bit for bit.  At 64
    samples a point's arrays take 0.1 MB.  ``phase_samples`` must be a
    positive even integer, else ValueError."""
    if not (isinstance(phase_samples, numbers.Integral) and phase_samples > 0 and phase_samples % 2 == 0):
        raise ValueError(f"phase_samples must be a positive even integer, got {phase_samples!r}")
    weights = _phase_grid(phase_samples)[2]
    return [_AveragedElement(nodes, weights) for nodes in _node_arrays(kernels, jet, phase_samples)]


def _averaged_element(model: GateModel | float, phase_samples: int = _PHASE_SAMPLES) -> _AveragedElement:
    """The phase-averaged element of one model, a batch of one; a bare
    number denotes the ideal gate with that gain."""
    model = as_gate_model(model)
    return averaged_elements(model.kernels[None], model.jet[None], phase_samples)[0]


def phase_averaged_element(
    model: GateModel | float,
    R_a: float,
    R_b: float,
    phase_samples: int = _PHASE_SAMPLES,
) -> float:
    """M^av at one amplitude pair; exposed for convergence diagnostics.
    ``phase_samples`` must be a positive even integer (ValueError
    otherwise): the average is taken on the rows φ_a ∈ [0, π/2] of the
    grid, weighted 1, 2, …, 2, 1 (1, 2, …, 2 when ns ≡ 2 (mod 4))."""
    return _averaged_element(model, phase_samples)(R_a, R_b)


def ascend(fg, x, step: float) -> tuple[np.ndarray, float]:
    """Maximize f on the unit square [0, 1]² from ``x``, two coordinates
    (else ValueError), by projected BFGS; ``fg(x)`` gets x as a float64
    array and returns f and its gradient, a length-2 sequence.  A
    coordinate on a face that its gradient points out of is held there.
    The first step has length ``step``, and each step halves until f rises
    by 1e-4 of its first-order gain (Armijo).  Stops when the quadratic
    model predicts a gain below the roundoff of f, when a step no longer
    moves x, or at 200 evaluations of f; returns the last accepted x and f
    there.  The loop runs on floats: the inverse Hessian [[a, b], [b, c]]
    takes the BFGS update H − (s·Hyᵀ + Hy·sᵀ)/sy + (1 + yᵀHy/sy)·ssᵀ/sy in
    closed form."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError(f"ascend climbs in 2 dimensions, got a start of n = {x.size} (shape {x.shape})")

    def evaluate(x0, x1):
        f, (g0, g1) = fg(np.array((x0, x1)))
        return f, g0, g1

    x0, x1 = np.clip(x, 0.0, 1.0).tolist()
    (f, g0, g1), evals, a = evaluate(x0, x1), 1, None
    while evals < _MAX_EVALS:
        free0 = (x0 > 0.0 or g0 > 0.0) and (x0 < 1.0 or g0 < 0.0)
        free1 = (x1 > 0.0 or g1 > 0.0) and (x1 < 1.0 or g1 < 0.0)
        p0, p1 = (g0 if free0 else 0.0), (g1 if free1 else 0.0)
        if not (p0 or p1):
            break
        if a is None:
            a = c = step / math.hypot(p0, p1)
            b = 0.0
        d0 = a * p0 + b * p1 if free0 else 0.0
        d1 = b * p0 + c * p1 if free1 else 0.0
        if 0.5 * (p0 * d0 + p1 * d1) <= math.ulp(f):
            break
        t = 1.0
        while True:  # backtracking
            u, v = min(max(x0 + t * d0, 0.0), 1.0), min(max(x1 + t * d1, 0.0), 1.0)
            s0, s1 = u - x0, v - x1
            if not (s0 or s1):
                return np.array((x0, x1)), f
            (f_new, h0, h1), evals = evaluate(u, v), evals + 1
            if f_new - f >= 1e-4 * abs(g0 * s0 + g1 * s1):
                break
            if evals == _MAX_EVALS:
                return np.array((x0, x1)), f
            t *= 0.5
        y0, y1 = g0 - h0, g1 - h1  # the change in the gradient of −f
        if (sy := s0 * y0 + s1 * y1) > 0.0:  # the BFGS update of the inverse Hessian
            Hy0, Hy1 = a * y0 + b * y1, b * y0 + c * y1
            k = (1.0 + (y0 * Hy0 + y1 * Hy1) / sy) / sy
            a, b, c = (
                a - 2.0 * s0 * Hy0 / sy + k * s0 * s0,
                b - (s0 * Hy1 + Hy0 * s1) / sy + k * s0 * s1,
                c - 2.0 * s1 * Hy1 / sy + k * s1 * s1,
            )
        x0, x1, f, g0, g1 = u, v, f_new, h0, h1
    return np.array((x0, x1)), f


@lru_cache(maxsize=4)
def _scan_axis(domain: float, points: int) -> np.ndarray:
    """The scan's amplitude axis, ``points`` values from 0 to ``domain``;
    read-only, built once per pair."""
    axis = np.linspace(0.0, domain, points)
    axis.flags.writeable = False
    return axis


def _ascent_starts(scores: np.ndarray) -> list[int]:
    """The cells of the 2-D scan ``scores`` that an ascent climbs from, as
    flat indices in climbing order: of the ``_STARTS`` best cells (best
    first, equal scores in grid order, NaN after −inf), each whose score is
    at least each neighbour's, the 8 around an interior cell and those that
    exist on an edge; a NaN cell beats none and none beats it.  A repeated
    first-occurrence argmax picks the best cells, NaN read as −inf; once
    only −inf is left, the −inf cells and then the NaN cells follow in grid
    order.  A neighbour that beats a cell ranks before it, so each pick is
    tested against the earlier picks alone."""
    flat, cols = scores.ravel(), scores.shape[1]
    ranked, best = np.fmax(flat, -np.inf), []
    while len(best) < _STARTS:
        cell = int(ranked.argmax())
        if ranked.item(cell) == -math.inf:
            best = (best + np.flatnonzero(flat == -np.inf).tolist() + np.flatnonzero(flat != flat).tolist())[:_STARTS]
            break
        best.append(cell)
        ranked[cell] = -math.inf
    starts, picked = [], []
    for cell in best:
        (i, j), score = divmod(cell, cols), flat.item(cell)
        if not any(other > score and abs(i - k) <= 1 and abs(j - l) <= 1 for k, l, other in picked):
            starts.append(cell)
        picked.append((i, j, score))
    return starts


def input_threshold(model: GateModel | float | _AveragedElement) -> ThresholdResult:
    """Phase-randomized coherent input threshold of a gate.

    Maximizes the double-phase-averaged element over the two input
    amplitudes: one grid scan on the 16-node sub-rule, on an axis built
    once per (``_DOMAIN``, ``_COARSE_GRID``), then an ascent at 64 phase
    samples from each of the 4 best cells (best first, equal scores in
    grid order) whose score is at least each neighbour's, the 8 around an
    interior cell and those that exist on an edge
    (:func:`_ascent_starts`); the best cell always climbs, and a later
    ascent replaces the result only when it ends strictly higher.  The
    average at the argmax is certified by the 32-sample rule on the same
    phase-grid values; a difference of 1e-6 or more attaches an accuracy warning
    instead of raising.  The threshold depends only on the gate, never on
    the input mixture.  ``model`` is a gate model, a bare gain of the
    ideal gate, or a point's objective at 64 samples from
    :func:`averaged_elements`, built with its batch; a model or a gain is
    a batch of one.
    """
    objective = model if isinstance(model, _AveragedElement) else _averaged_element(model)
    axis = _scan_axis(_DOMAIN, _COARSE_GRID)
    n = axis.size

    def fg(x):  # on the unit box: R = _DOMAIN·x
        a, b = x.tolist()
        f, (g_a, g_b) = objective.value_and_grad(_DOMAIN * a, _DOMAIN * b)
        return f, (_DOMAIN * g_a, _DOMAIN * g_b)

    value, argmax = -math.inf, None
    # equal scores keep grid order, and a later optimum must be strictly better
    for cell in _ascent_starts(objective.scan(axis)):
        x, top = ascend(fg, np.array(divmod(cell, n)) / (n - 1), 1 / (n - 1))
        if top > value:
            value, argmax = top, (float(_DOMAIN * x[0]), float(_DOMAIN * x[1]))
    half_rule = objective.average(objective.values(*argmax), 2)
    converged = abs(value - half_rule) < _CONVERGENCE_TOL
    warnings = []
    if not converged:
        warnings.append(ACCURACY_WARNING)
    if max(argmax) > _DOMAIN - 1e-3:
        warnings.append(BOUNDARY_WARNING)
    return ThresholdResult(value, argmax, objective.nodes.shape[-1], converged, tuple(warnings))


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
