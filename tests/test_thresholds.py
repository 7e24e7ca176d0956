"""Coherent-state thresholds: phase averaging, maximization, crossings."""

import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
import reference_ascent
from hypothesis import given, settings, strategies as st
from coherent_reference import coherent_coefficient

from qnd_hom import thresholds
from qnd_hom.fock import QND_11_ARGMAX, closed_form_qnd_11, hom_element_mixture_ideal
from qnd_hom.gates import (
    AtomLightParams,
    AtomMechParams,
    OptomechParams,
    as_gate_model,
    build_atom_light_gate,
    build_atom_mech_gate,
    build_optomech_gate,
)
from qnd_hom.thresholds import (
    ACCURACY_WARNING,
    BOUNDARY_WARNING,
    ThresholdResult,
    ascend,
    coherent_jets,
    find_crossing,
    input_threshold,
    output_threshold,
    phase_averaged_element,
    verify_output_threshold,
)


def test_output_threshold_value():
    assert output_threshold() == math.exp(-2.0)


def test_output_threshold_brute_force():
    val = verify_output_threshold(grid_points=120, amplitude_max=4.0)
    assert val == pytest.approx(math.exp(-2.0), abs=1e-4)


def test_input_threshold_ideal_anchor():
    res = input_threshold(QND_11_ARGMAX)
    assert isinstance(res, ThresholdResult)
    assert res.value == pytest.approx(0.068560, abs=2e-4)
    assert res.converged
    assert not res.warnings
    # symmetric gate ⇒ symmetric amplitude optimum
    assert res.argmax[0] == pytest.approx(res.argmax[1], abs=5e-3)
    assert 0.0 <= res.value <= 1.0


def test_input_threshold_zero_gain_equals_output_threshold():
    # at G=0 the best phase-averaged coherent pair is one mode in vacuum
    # and one at |β|² = 2: the input threshold degenerates to e^{−2}
    res = input_threshold(0.0)
    assert res.value == pytest.approx(math.exp(-2.0), abs=math.ulp(math.exp(-2.0)))
    assert min(res.argmax) == pytest.approx(0.0, abs=5e-2)


def test_input_threshold_below_output_threshold_for_working_gate():
    res = input_threshold(QND_11_ARGMAX)
    assert res.value < output_threshold()


def test_phase_average_convergence_64_to_128():
    # doubling the trapezoid samples moves the average by < 1e−6
    for G in (0.0, 1.0, 2.0):
        v64 = phase_averaged_element(G, 1.8, 1.7, phase_samples=64)
        v128 = phase_averaged_element(G, 1.8, 1.7, phase_samples=128)
        assert abs(v64 - v128) < 1e-6, G


def test_phase_average_accepts_gate_models():
    model = build_optomech_gate(OptomechParams(0.06, 100.0, 1.0, 0.02))
    res = input_threshold(model)
    assert 0.0 < res.value < 1.0


def test_determinism_bit_identical():
    a = input_threshold(0.9)
    b = input_threshold(0.9)
    assert a.value == b.value
    assert a.argmax == b.argmax
    assert a.phase_samples == b.phase_samples


def _quadratic(center, evals):
    """f = −(x − c)ᵀA(x − c) with a coupled A, logging each evaluation."""
    A = np.array([[2.0, 0.5], [0.5, 1.0]])

    def fg(x):
        evals.append(x.copy())
        r = x - center
        return -float(r @ A @ r), -2.0 * (A @ r)

    return fg


@pytest.mark.parametrize("center,argmax,tol", [
    ((0.3, 0.6), (0.3, 0.6), 1e-10),  # interior: BFGS ends on an exact quadratic
    # beyond the face x₀ = 1: the free coordinate stops once the model
    # gain is below roundoff of f, within √(roundoff) of its optimum
    ((1.4, 0.3), (1.0, 0.5), 1e-7),
    ((1.5, -0.5), (1.0, 0.0), 0.0),  # beyond the corner (1, 0)
], ids=["interior", "face", "corner"])
def test_ascent_reaches_the_box_maximum(center, argmax, tol):
    evals = []
    x, f = ascend(_quadratic(np.array(center), evals), [0.5, 0.5], 1 / 24)
    assert np.allclose(x, argmax, rtol=0, atol=tol)
    assert f == _quadratic(np.array(center), [])(x)[0]
    for i, face in enumerate(argmax):
        if face in (0.0, 1.0):  # a coordinate held on its face sits exactly there
            assert x[i] == face
    assert len(evals) < 20


def test_ascent_on_a_flat_function_stays_at_its_start():
    evals = []
    x, f = ascend(lambda x: (evals.append(1) or 0.25, np.zeros(2)), [0.2, 0.7], 1 / 24)
    assert (x.tolist(), f, len(evals)) == ([0.2, 0.7], 0.25, 1)


def test_ascent_stops_after_200_evaluations():
    # f = x₀ rises one step of 1e-3 per evaluation: the cap, not the
    # face at 1, ends the ascent
    evals = []
    x, f = ascend(lambda x: (evals.append(1) or float(x[0]), np.array([1.0, 0.0])), [0.0, 0.5], 1e-3)
    assert len(evals) == 200
    assert x[0] == f == pytest.approx(0.199, abs=1e-12)
    assert x[1] == 0.5


def test_backtracking_stops_after_200_evaluations():
    # the gradient promises a rise that never comes, and a first step of
    # 1e300 stays clipped to the face for far more than 200 halvings
    evals = []
    x, f = ascend(lambda x: (evals.append(1) or -float(x[0]), [1.0, 0.0]), [0.5, 0.5], 1e300)
    assert (x.tolist(), f, len(evals)) == ([0.5, 0.5], -0.5, 200)


@pytest.mark.parametrize(
    "start", [[], [0.5], [0.1, 0.2, 0.3], [[0.5, 0.5]]], ids=["n=0", "n=1", "n=3", "1x2"]
)
def test_ascent_rejects_a_start_outside_one_or_two_dimensions(start):
    with pytest.raises(ValueError, match=f"n = {np.size(start)}"):
        ascend(lambda x: (0.0, [0.0] * x.size), start, 1 / 24)


def _same_ascent(fg, start, step):
    """Run the float ascent and the numpy reference from one start; both
    make the same evaluations and end within 4 ulp in x and f."""
    runs = []
    for climb in (ascend, reference_ascent.ascend):
        evals = []

        def logged(x):
            evals.append(x.copy())
            f, g = fg(x)
            return f, np.asarray(g, dtype=float)

        runs.append((*climb(logged, np.array(start, dtype=float), step), len(evals)))
    (x, f, n), (x_ref, f_ref, n_ref) = runs
    assert n == n_ref
    assert np.all(np.abs(x - x_ref) <= 4 * np.spacing(np.maximum(np.abs(x), np.abs(x_ref)))), (x, x_ref)
    assert abs(f - f_ref) <= 4 * math.ulp(max(abs(f), abs(f_ref))), (f, f_ref)


@pytest.mark.parametrize("center,start", [
    ((0.3, 0.6), [0.5, 0.5]),
    ((1.4, 0.3), [0.5, 0.5]),
    ((1.5, -0.5), [0.5, 0.5]),
    # each starts on a face that its gradient points out of
    ((-0.5, 0.3), [0.0, 0.5]),
    ((0.3, -0.5), [0.5, 0.0]),
], ids=["interior", "face", "corner", "held-x0", "held-x1"])
def test_ascent_matches_the_numpy_reference_on_quadratics(center, start):
    _same_ascent(_quadratic(np.array(center), []), start, 1 / 24)


def test_ascent_matches_the_numpy_reference_on_a_flat_function():
    _same_ascent(lambda x: (0.25, np.zeros(2)), [0.2, 0.7], 1 / 24)


def _record_objective(monkeypatch, surface=None):
    """Log the phase samples of every objective built, the axis of every
    grid scan and the (R_a, R_b) of every phase-grid evaluation at the
    full sample count (each ``values`` and ``value_and_grad`` call);
    ``surface``, when given, stands in for the averaged element in the
    scan and the ascents, and its phase-grid values are averaged with
    equal weights."""
    builds, scans, calls = [], [], []

    def mean(R_a, R_b):
        return float(np.mean(surface(R_a, R_b)))

    class Recorded(thresholds._AveragedElement):
        def __init__(self, nodes, weights):
            builds.append(nodes.shape[-1])
            super().__init__(nodes, weights)

        def values(self, R_a, R_b):
            calls.append((R_a, R_b))
            if surface is None:
                return super().values(R_a, R_b)
            return np.asarray(surface(R_a, R_b), dtype=float) * np.ones((2, 2))

        def average(self, f, stride=1):
            if surface is None:
                return super().average(f, stride)
            return float(f[::stride, ::stride].mean())

        def scan(self, axis):
            scans.append(axis.copy())
            if surface is None:
                return super().scan(axis)
            return np.array([[mean(a, b) for b in axis] for a in axis])

        def value_and_grad(self, R_a, R_b):
            calls.append((R_a, R_b))
            if surface is None:
                return super().value_and_grad(R_a, R_b)
            h = 1e-6
            grad = [(mean(R_a + h, R_b) - mean(R_a - h, R_b)) / (2 * h),
                    (mean(R_a, R_b + h) - mean(R_a, R_b - h)) / (2 * h)]
            return mean(R_a, R_b), np.array(grad)

    monkeypatch.setattr(thresholds, "_AveragedElement", Recorded)
    return builds, scans, calls


def test_cap_detection_on_monotone_objective(monkeypatch):
    # a monotone objective pushes the refinement onto the amplitude cap,
    # which must be flagged rather than silently accepted
    monkeypatch.setattr(thresholds, "_COARSE_GRID", 9)
    _, scans, _ = _record_objective(monkeypatch, lambda R_a, R_b: R_a + R_b)
    res = input_threshold(0.9)
    assert [axis.size for axis in scans] == [9]  # the axis is read at call time
    assert max(res.argmax) > thresholds._DOMAIN - 1e-3
    assert res.converged
    assert res.warnings == (BOUNDARY_WARNING,)


def test_amplitude_grid_scanned_once(monkeypatch):
    # one objective at 64 phase samples; one scan of the 25 × 25 grid,
    # then from each of the 4 best cells that no neighbour beats an ascent
    # of at most 200 value-and-gradient evaluations, and the half-rule check
    builds, scans, calls = _record_objective(monkeypatch)
    res = input_threshold(0.8)
    assert builds == [64]
    assert len(scans) == 1 and np.array_equal(scans[0], np.linspace(0.0, 6.0, 25))
    assert 0 < len(calls) <= 4 * (200 + 1) + 1
    assert res.converged and res.phase_samples == 64


def test_scan_is_the_16_sample_average():
    # the scan reads every 4th node of the 64-node grid: the 16-node rule
    model = build_atom_light_gate(AtomLightParams(0.06, 100.0, 0.9))
    axis = np.linspace(0.0, 6.0, 7)
    scores = thresholds._averaged_element(model, 64).scan(axis)
    coarse = thresholds._averaged_element(model, 16)
    assert np.allclose(scores, [[coarse(a, b) for b in axis] for a in axis], rtol=0, atol=1e-16)


@pytest.mark.parametrize("point", [(1.3, 2.1), (0.0, 1.4), (3.0, 0.5)])
def test_gradient_matches_central_differences(point):
    objective = thresholds._averaged_element(
        build_atom_mech_gate(AtomMechParams(0.07, 0.07, 90.0, 0.9, 1e-4, 7.0)), 64
    )
    value, grad = objective.value_and_grad(*point)
    assert value == pytest.approx(objective(*point), rel=0, abs=1e-16)
    h = 1e-5
    a, b = point
    fd = [(objective(a + h, b) - objective(a - h, b)) / (2 * h),
          (objective(a, b + h) - objective(a, b - h)) / (2 * h)]
    assert np.allclose(grad, fd, rtol=0, atol=1e-9)


def _two_product_value_and_grad(objective, R_a, R_b):
    """M^av and its gradient as value_and_grad first computed them: the
    monomials and both their partials times the node arrays, in one product
    for −q₀/2 and one for P, then ∇f = e·(∇P + P·∇(−q₀/2)) on every node,
    weighted and summed node by node."""
    a, b = R_a, R_b
    aa, bb, ab = a * a, b * b, a * b
    jet = np.array([
        [aa, bb, ab, 1.0, aa, bb, ab, aa * aa, bb * bb, aa * bb, aa * ab, ab * bb],
        [2.0 * a, 0.0, b, 0.0, 2.0 * a, 0.0, b, 4.0 * a * aa, 0.0, 2.0 * a * bb, 3.0 * aa * b, b * bb],
        [0.0, 2.0 * b, a, 0.0, 0.0, 2.0 * b, a, 0.0, 4.0 * b * bb, 2.0 * aa * b, a * aa, 3.0 * a * bb],
    ])
    nodes, weights = objective.nodes.reshape(12, -1), objective.weights.ravel()
    h, p = jet[:, :3] @ nodes[:3], jet[:, 3:] @ nodes[3:]
    e = np.exp(h[0])
    return float((e * p[0] * weights).sum()), ((h[1:] * p[0] + p[1:]) * (e * weights)).sum(axis=1)


@pytest.mark.parametrize("model", [
    QND_11_ARGMAX,
    0.87,
    build_atom_light_gate(AtomLightParams(0.0615, 100.0, 0.9)),
    build_atom_mech_gate(AtomMechParams(0.07, 0.07, 90.0, 0.9, 1e-4, 7.0)),
], ids=["ideal-G*", "ideal-0.87", "atom-light", "atom-mech"])
def test_gradient_is_the_two_product_formula(model):
    # the gradient from the 12 weighted node sums is the one the two
    # products give, to 1e-9 of its size, at the gates whose crossings
    # criterion 6 and the closed-form crossings rest on; the value stays
    # bit-equal to __call__ and within roundoff of the two products' sum
    objective = thresholds._averaged_element(model, 64)
    for R_a, R_b in np.random.default_rng(6).uniform(0.0, 6.0, (40, 2)).tolist():
        value, grad = objective.value_and_grad(R_a, R_b)
        assert value == objective(R_a, R_b), (R_a, R_b)
        reference, reference_grad = _two_product_value_and_grad(objective, R_a, R_b)
        assert value == pytest.approx(reference, rel=1e-14, abs=1e-300), (R_a, R_b)
        assert np.abs(np.subtract(grad, reference_grad)).max() <= 1e-9 * np.abs(reference_grad).max(), (R_a, R_b)


def test_search_stays_on_one_core():
    # the refinement must not wake BLAS helper threads: CPU time beyond
    # wall time means a second core spins.  Machine load only lowers the
    # ratio, so noise cannot fail this check.  The BLAS threads that
    # ``import numpy`` starts may still spin for a while after it, so the
    # window opens once every other thread has stayed idle for 50 ms.
    code = (
        "import time\n"
        "from qnd_hom.gates import AtomLightParams, build_atom_light_gate\n"
        "from qnd_hom.thresholds import input_threshold\n"
        "model = build_atom_light_gate(AtomLightParams(0.06, 100.0, 0.9))\n"
        "input_threshold(model)\n"
        "def others():  # CPU seconds of every thread but this one\n"
        "    return time.process_time() - time.thread_time()\n"
        "busy = others()\n"
        "for _ in range(100):\n"
        "    time.sleep(0.05)\n"
        "    busy, last = others(), busy\n"
        "    if busy - last < 1e-3:\n"
        "        break\n"
        "cpu, wall = time.process_time(), time.perf_counter()\n"
        "for _ in range(4):\n"
        "    input_threshold(model)\n"
        "print(time.process_time() - cpu, time.perf_counter() - wall)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(thresholds.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    cpu, wall = map(float, done.stdout.split())
    assert cpu <= 1.3 * wall, (cpu, wall)


def _unit_box_fg(objective):
    """The objective and its gradient on the unit box, R = 6x, as
    input_threshold climbs it."""
    def fg(x):
        f, (g_a, g_b) = objective.value_and_grad(6.0 * x[0], 6.0 * x[1])
        return f, [6.0 * g_a, 6.0 * g_b]

    return fg


_FIVE_GATES = pytest.mark.parametrize("model", [
    QND_11_ARGMAX,
    0.0,
    build_atom_light_gate(AtomLightParams(0.06, 100.0, 0.9)),
    build_optomech_gate(OptomechParams(0.06, 100.0, 0.9, 1e-4)),
    build_atom_mech_gate(AtomMechParams(0.07, 0.07, 90.0, 0.9, 1e-4, 7.0)),
], ids=["ideal", "zero-gain", "atom-light", "optomech", "atom-mech"])


@_FIVE_GATES
def test_ascent_matches_the_numpy_reference_from_the_scan_starts(model):
    # the 4 best scan cells, among which input_threshold finds its starts,
    # on its own objective
    objective = thresholds._averaged_element(model, 64)
    scores, fg = objective.scan(np.linspace(0.0, 6.0, 25)).ravel(), _unit_box_fg(objective)
    for cell in np.argsort(-scores, kind="stable")[:4]:
        _same_ascent(fg, np.array(divmod(cell, 25)) / 24, 1 / 24)


def _four_start_threshold(objective):
    """The value and argmax of an ascent from each of the 4 best scan cells,
    whether or not a neighbour beats them; a later one replaces the result
    only when strictly higher."""
    scores, fg = objective.scan(np.linspace(0.0, 6.0, 25)).ravel(), _unit_box_fg(objective)
    value, argmax = -math.inf, None
    for cell in np.argsort(-scores, kind="stable")[:4]:
        x, top = ascend(fg, np.array(divmod(cell, 25)) / 24, 1 / 24)
        if top > value:
            value, argmax = top, 6.0 * x
    return value, argmax


def _scan_peaks(scores):
    """The cells (i, j) of a square scan whose score is at least that of
    every cell around it."""
    n = len(scores)
    return [
        (i, j) for i in range(n) for j in range(n)
        if all(scores[i][j] >= scores[k][l] for k in range(max(i - 1, 0), min(i + 2, n))
               for l in range(max(j - 1, 0), min(j + 2, n)))
    ]


def _record_starts(monkeypatch) -> list:
    """Log the grid cell (i, j) of the 25 × 25 scan that each ascent starts from."""
    starts, real = [], thresholds.ascend

    def recorded(fg, x, step):
        starts.append(tuple(np.rint(x / step).astype(int).tolist()))
        return real(fg, x, step)

    monkeypatch.setattr(thresholds, "ascend", recorded)
    return starts


@pytest.mark.parametrize("model,ascents", [
    pytest.param(0.9, 1, id="ideal-0.9"),
    pytest.param(build_atom_mech_gate(AtomMechParams(0.07, 0.07, 90.0, 0.9, 1e-4, 7.0)), 1, id="fig3a"),
    pytest.param(0.0, 2, id="zero-gain"),
])
def test_threshold_climbs_once_per_scan_hill(monkeypatch, model, ascents):
    # of the 4 best scan cells only those that no neighbour beats start an
    # ascent: one where they lie on one hill, two at G = 0, whose maxima
    # (0, 2√2) and (2√2, 0) are mirror images
    starts = _record_starts(monkeypatch)
    input_threshold(model)
    assert len(starts) == ascents


def test_threshold_on_a_plateau_climbs_from_the_4_best_cells_in_grid_order(monkeypatch):
    # on a flat scan every cell ties with its neighbours, so each of the 4
    # first cells in grid order starts an ascent, and the first one's result
    # is kept
    starts = _record_starts(monkeypatch)
    _record_objective(monkeypatch, lambda R_a, R_b: 0.25)
    res = input_threshold(0.9)
    assert starts == [(0, 0), (0, 1), (0, 2), (0, 3)]
    assert (res.value, res.argmax) == (0.25, (0.0, 0.0))


@_FIVE_GATES
def test_threshold_climbs_from_the_scan_peaks_among_the_4_best_cells(monkeypatch, model):
    # the sliced neighbour mask against a cell-by-cell reading of the scan
    objective = thresholds._averaged_element(model, 64)
    scores = objective.scan(np.linspace(0.0, 6.0, 25))
    peaks = set(_scan_peaks(scores.tolist()))
    best = [divmod(int(cell), 25) for cell in np.argsort(-scores, axis=None, kind="stable")[:4]]
    starts = _record_starts(monkeypatch)
    input_threshold(objective)
    assert starts == [cell for cell in best if cell in peaks]


def _grid(*cells, fill=0.0, shape=(25, 25)) -> np.ndarray:
    """A scan of ``fill`` with the given ((i, j), score) cells set."""
    scores = np.full(shape, fill)
    for (i, j), score in cells:
        scores[i, j] = score
    return scores


_START_CASES = {
    # the 4th best score is tied: the first of the two in grid order ranks
    "tie-at-the-4th": (_grid(((2, 2), 5.0), ((10, 10), 4.0), ((20, 20), 3.0), ((15, 5), 2.0), ((5, 15), 2.0)),
                       [52, 260, 520, 140]),
    # every cell ties with its neighbours: the 4 first cells in grid order
    "flat": (_grid(fill=0.25), [0, 1, 2, 3]),
    # maxima on corners and edges meet only the neighbours that exist
    "corners": (_grid(((0, 0), 4.0), ((24, 24), 3.0), ((0, 12), 2.0), ((24, 0), 1.5)), [0, 624, 12, 600]),
    "edge-beaten": (_grid(((0, 0), 4.0), ((0, 1), 3.0), ((24, 24), 2.0), ((12, 0), 1.0)), [0, 624, 300]),
    "edge-neighbour-not-wrapped": (_grid(((0, 24), 4.0), ((1, 0), 3.0), ((12, 12), 2.0), ((24, 24), 1.0)),
                                   [24, 25, 312, 624]),
    # +inf beats its neighbours and ranks first; NaN beats none, and ranks after −inf
    "inf-and-nan": (_grid(((3, 3), math.inf), ((3, 4), 5.0), ((10, 10), math.nan), ((11, 11), 7.0),
                          ((20, 20), -math.inf)), [78, 286, 0]),
    "all-minus-inf-and-a-nan": (_grid(((0, 1), math.nan), fill=-math.inf), [0, 2, 3, 4]),
    "all-nan": (_grid(fill=math.nan), [0, 1, 2, 3]),
    "two-finite-among-nan": (_grid(((5, 5), 1.0), ((5, 6), -math.inf), fill=math.nan), [130, 0, 1]),
    "minus-inf-ranks-before-nan": (_grid(((0, 0), math.nan), ((24, 24), 2.0), fill=-math.inf), [624, 1, 2, 3]),
    # −0.0 and 0.0 tie and beat neither other; the −1 cell beside them is beaten
    "signed-zeros-tie": (_grid(((0, 0), -0.0), ((0, 1), 0.0), fill=-1.0), [0, 1, 3]),
    "small-grid": (np.array([[1.0, 3.0], [2.0, math.nan]]), [1, 3]),
}


@pytest.mark.parametrize("case", list(_START_CASES))
def test_ascent_starts_match_the_whole_grid_rule(case):
    # the picked cells alone against the padded 3 × 3 mask and a stable sort of every cell
    scores, starts = _START_CASES[case]
    assert reference_ascent.ascent_starts(scores) == starts
    assert thresholds._ascent_starts(scores) == starts


_SCORES = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, 2.0, math.nan, math.inf, -math.inf)),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, (25, 25), elements=_SCORES))
def test_ascent_starts_match_the_whole_grid_rule_on_drawn_grids(scores):
    assert thresholds._ascent_starts(scores) == reference_ascent.ascent_starts(scores)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6), elements=_SCORES))
def test_ascent_starts_match_the_whole_grid_rule_on_small_grids(scores):
    # grids with fewer cells than starts, one row, one column, and many ties
    assert thresholds._ascent_starts(scores) == reference_ascent.ascent_starts(scores)


@_FIVE_GATES
def test_ascent_starts_match_the_whole_grid_rule_on_the_scans(model):
    scores = thresholds._averaged_element(model, 64).scan(np.linspace(0.0, 6.0, 25))
    assert thresholds._ascent_starts(scores) == reference_ascent.ascent_starts(scores)


def test_scan_axis_is_built_once_and_read_only():
    axis = thresholds._scan_axis(6.0, 25)
    assert thresholds._scan_axis(6.0, 25) is axis
    assert np.array_equal(axis, np.linspace(0.0, 6.0, 25)) and not axis.flags.writeable


@_FIVE_GATES
def test_no_scan_peak_climbs_above_the_threshold(model):
    # an ascent from every cell of the scan that no neighbour beats, not
    # only from those among the 4 best, ends within 4 ulp of the threshold
    objective = thresholds._averaged_element(model, 64)
    scores, fg = objective.scan(np.linspace(0.0, 6.0, 25)).tolist(), _unit_box_fg(objective)
    value = input_threshold(objective).value
    for i, j in _scan_peaks(scores):
        top = ascend(fg, np.array([i, j]) / 24, 1 / 24)[1]
        assert top <= value + 4 * math.ulp(value), (i, j)


@_FIVE_GATES
def test_threshold_matches_four_ascents(model):
    # against ascents from all 4 best cells, beaten or not: the values agree
    # to 1 ulp of e⁻², the largest threshold (2.8e-17; the best of several
    # ascents that end on one maximum may sit a few ulp of the value
    # higher), the argmaxes to 1e-7
    objective = thresholds._averaged_element(model, 64)
    value, argmax = _four_start_threshold(objective)
    res = input_threshold(objective)
    assert abs(res.value - value) <= math.ulp(output_threshold())
    assert np.abs(np.subtract(res.argmax, argmax)).max() <= 1e-7


def _full_grid(model, phase_samples):
    """The coherent jets and the forms u (4, n, 1), v (4, 1, n) and
    w (4, n, n) on the whole n × n phase grid, built straight from
    :func:`coherent_jets`: each form is R_a²·u(φ_a) + R_b²·v(φ_b) +
    2R_aR_b·w(φ_a, φ_b) for the input means (R_a cosφ_a, R_a sinφ_a,
    R_b cosφ_b, R_b sinφ_b)."""
    model = as_gate_model(model)
    c, Q = coherent_jets(model.kernels, model.jet)
    theta = 2.0 * np.pi * np.arange(phase_samples) / phase_samples
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    u = np.einsum("ik,qkl,il->qi", circle, Q[:, :2, :2], circle)[:, :, None]
    v = np.einsum("ik,qkl,il->qi", circle, Q[:, 2:, 2:], circle)[:, None, :]
    w = np.einsum("ik,qkl,jl->qij", circle, Q[:, :2, 2:], circle)
    return c, u, v, w


@_FIVE_GATES
def test_no_dense_grid_point_beats_the_threshold(model):
    # the 64-node average on a 61 × 61 grid of [0, 6]², evaluated here
    # straight from the coherent jets, never exceeds the reported maximum
    c, u, v, w = _full_grid(model, 64)
    u, v, w = u[:, None], v[:, None], w[:, None]
    axis = np.linspace(0.0, 6.0, 61)
    R_b = axis[:, None, None]
    best = max(
        float(coherent_coefficient(c, *(R_a**2 * u + R_b**2 * v + 2 * R_a * R_b * w)).mean(axis=(1, 2)).max())
        for R_a in axis
    )
    assert best <= input_threshold(model).value + 1e-12


def _full_average(model, phase_samples, point):
    """The average of the coherent element over the whole phase grid."""
    c, u, v, w = _full_grid(model, phase_samples)
    R_a, R_b = point
    return float(coherent_coefficient(c, *(R_a**2 * u + R_b**2 * v + 2 * R_a * R_b * w)).mean())


@_FIVE_GATES
def test_node_arrays_expand_the_coherent_element(model):
    # −q₀/2 and P read off the 12 monomial node arrays give the factored
    # element of coherent_reference.coherent_coefficient node by node on
    # the kept rows; a dropped or doubled cross term is off by O(1e-2)
    c, u, v, w = _full_grid(model, 64)
    objective = thresholds._averaged_element(model, 64)
    rows = objective.weights.shape[0]
    for R_a, R_b in [(0.0, 0.0), (0.0, 2.83), (1.3, 2.1), (3.0, 0.5), (6.0, 0.0), (6.0, 6.0)]:
        forms = (R_a**2 * u + R_b**2 * v + 2 * R_a * R_b * w)[:, :rows]
        expected = coherent_coefficient(c, *forms)
        assert np.abs(objective.values(R_a, R_b) - expected).max() <= 5e-16, (R_a, R_b)


@_FIVE_GATES
def test_value_and_grad_value_is_the_average_bit_for_bit(model):
    objective = thresholds._averaged_element(model, 64)
    for R_a, R_b in np.random.default_rng(7).uniform(0.0, 6.0, (20, 2)):
        assert objective.value_and_grad(R_a, R_b)[0] == objective(R_a, R_b), (R_a, R_b)


@_FIVE_GATES
def test_forms_are_even_under_negating_both_phases(model):
    # the fact the quarter grid rests on: on the 64 × 64 grid, node (i, j)
    # and node (32 − i, 32 − j) (mod 64) hold the same u, v and w, up to
    # the roundoff of the nodes' cosines and sines.  A node near 2π has
    # its angle off by up to ulp(2π)/2 = 4.4e-16, and w multiplies a
    # cosine or sine of each phase, so it is held to 2e-15 (1.6e-15 seen)
    _, u, v, w = _full_grid(model, 64)
    mirror = (32 - np.arange(64)) % 64
    for form, image, tol in ((u, u[:, mirror], 1e-15), (v, v[:, :, mirror], 1e-15),
                             (w, w[:, mirror][:, :, mirror], 2e-15)):
        assert np.abs(form - image).max() <= tol * np.abs(form).max()


@_FIVE_GATES
@pytest.mark.parametrize("point", [(1.3, 2.1), (0.0, 1.4), (3.0, 0.5), (6.0, 6.0)])
def test_half_grid_average_is_the_full_grid_average(model, point):
    # every form is even under (φ_a, φ_b) → (φ_a + π, φ_b + π) and under
    # (φ_a, φ_b) → (−φ_a, −φ_b), so the half grid folds onto its rows
    # φ_a ∈ [0, π/2], weighted 1, 2, …, 2, 1: they average to the whole
    # grid's average, and their even rows and columns to the whole 32-node
    # grid's
    objective = thresholds._averaged_element(model, 64)
    assert objective(*point) == pytest.approx(_full_average(model, 64, point), rel=0, abs=1e-16)
    half_rule = objective.average(objective.values(*point), 2)
    assert half_rule == pytest.approx(_full_average(model, 32, point), rel=0, abs=1e-16)


@_FIVE_GATES
@pytest.mark.parametrize("phase_samples", [6, 10, 18, 30])
def test_fold_without_a_middle_row_is_the_full_grid_average(model, phase_samples):
    # at ns ≡ 2 (mod 4) no row of the half grid maps onto itself but row 0:
    # rows 0 … (ns − 2)/4 carry the sum, weighted 1, 2, …, 2
    objective = thresholds._averaged_element(model, phase_samples)
    for point in [(1.3, 2.1), (0.0, 1.4), (3.0, 0.5)]:
        full = _full_average(model, phase_samples, point)
        assert objective(*point) == pytest.approx(full, rel=0, abs=1e-16)


@pytest.mark.parametrize("phase_samples", [0, -2, 63])
def test_phase_count_that_cannot_fold_is_rejected(phase_samples):
    with pytest.raises(ValueError, match="phase_samples"):
        phase_averaged_element(1.0, 1, 1, phase_samples=phase_samples)


@pytest.mark.parametrize("phase_samples", [16, 64, 128, 256])
def test_even_phase_counts_are_accepted(phase_samples):
    value = phase_averaged_element(1.0, 1, 1, phase_samples=phase_samples)
    assert value == pytest.approx(phase_averaged_element(1.0, 1, 1, phase_samples=512), rel=0, abs=1e-6)


def test_half_rule_decides_convergence(monkeypatch):
    # the odd phase nodes carry 1e-3 that the even-node (half-size)
    # rule misses: the two averages differ by 7.5e-4
    _record_objective(monkeypatch, lambda R_a, R_b: [[0.0, 1e-3], [1e-3, 1e-3]])
    res = input_threshold(0.9)
    assert res.converged is False
    assert res.warnings == (ACCURACY_WARNING,)


def test_unconverged_average_warns(monkeypatch):
    monkeypatch.setattr(thresholds, "_CONVERGENCE_TOL", 0.0)
    res = input_threshold(0.9)
    assert res.converged is False
    assert res.phase_samples == 64
    assert res.warnings == (ACCURACY_WARNING,)


@pytest.mark.parametrize("model", [
    QND_11_ARGMAX,
    build_atom_light_gate(AtomLightParams(0.06, 100.0, 0.9)),
    build_atom_mech_gate(AtomMechParams(0.07, 0.07, 90.0, 0.9, 1e-4, 7.0)),
], ids=["ideal", "atom-light", "atom-mech"])
def test_threshold_is_the_average_at_its_argmax(model):
    res = input_threshold(model)
    assert res.converged and not res.warnings
    assert phase_averaged_element(model, *res.argmax, phase_samples=res.phase_samples) == res.value


def test_interior_optimum_not_flagged():
    res = input_threshold(QND_11_ARGMAX)
    assert all(BOUNDARY_WARNING not in w for w in res.warnings)


def test_crossing_of_ideal_mixture_with_input_threshold():
    G = QND_11_ARGMAX
    thr = input_threshold(G).value

    def curve(p):
        return hom_element_mixture_ideal(G, p, p)

    p_cross = find_crossing(curve, thr, 0.0, 1.0)
    assert p_cross is not None
    assert 0.45 <= p_cross <= 0.52
    assert curve(p_cross) == pytest.approx(thr, abs=1e-3)


def test_crossing_none_when_curve_stays_below():
    def curve(p):
        return 0.01 * p

    assert find_crossing(curve, 0.5, 0.0, 1.0) is None


@pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)])
def test_crossing_rejects_non_finite_range(lo, hi):
    with pytest.raises(ValueError, match="finite"):
        find_crossing(lambda x: x, 0.5, lo, hi)


def test_crossing_bisection_tolerance():
    # linear curve: crossing of 0.5 at exactly x = 0.625
    got = find_crossing(lambda x: 0.8 * x, 0.5, 0.0, 1.0, xtol=1e-4)
    assert got == pytest.approx(0.625, abs=2e-4)
