"""Coherent-state thresholds: phase averaging, maximization, crossings."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
from qnd_hom.metrics import coherent_coefficient, coherent_jets
from qnd_hom.thresholds import (
    ACCURACY_WARNING,
    BOUNDARY_WARNING,
    ThresholdResult,
    ascend,
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


def _record_objective(monkeypatch, surface=None):
    """Log the phase samples of every objective built, the axis of every
    grid scan and the (R_a, R_b) of every phase-grid evaluation at the
    full sample count; ``surface``, when given, stands in for the
    averaged element in the scan and the ascents."""
    builds, scans, calls = [], [], []

    def mean(R_a, R_b):
        return float(np.mean(surface(R_a, R_b)))

    class Recorded(thresholds._AveragedElement):
        def __init__(self, model, phase_samples):
            builds.append(phase_samples)
            super().__init__(model, phase_samples)

        def values(self, R_a, R_b):
            calls.append((R_a, R_b))
            if surface is None:
                return super().values(R_a, R_b)
            return np.asarray(surface(R_a, R_b), dtype=float) * np.ones((2, 2))

        def scan(self, axis):
            scans.append(axis.copy())
            if surface is None:
                return super().scan(axis)
            return np.array([[mean(a, b) for b in axis] for a in axis])

        def value_and_grad(self, R_a, R_b):
            if surface is None:
                return super().value_and_grad(R_a, R_b)
            calls.append((R_a, R_b))
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
    _record_objective(monkeypatch, lambda R_a, R_b: R_a + R_b)
    res = input_threshold(0.9)
    assert max(res.argmax) > thresholds._DOMAIN - 1e-3
    assert res.converged
    assert res.warnings == (BOUNDARY_WARNING,)


def test_amplitude_grid_scanned_once(monkeypatch):
    # one objective at 64 phase samples; one scan of the 25 × 25 grid,
    # then from each of the 4 best cells an ascent of at most 200
    # value-and-gradient evaluations, and the half-rule check
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
    scores = thresholds._AveragedElement(model, 64).scan(axis)
    coarse = thresholds._AveragedElement(model, 16)
    assert np.allclose(scores, [[coarse(a, b) for b in axis] for a in axis], rtol=0, atol=1e-16)


@pytest.mark.parametrize("point", [(1.3, 2.1), (0.0, 1.4), (3.0, 0.5)])
def test_gradient_matches_central_differences(point):
    objective = thresholds._AveragedElement(
        build_atom_mech_gate(AtomMechParams(0.07, 0.07, 90.0, 0.9, 1e-4, 7.0)), 64
    )
    value, grad = objective.value_and_grad(*point)
    assert value == pytest.approx(objective(*point), rel=0, abs=1e-16)
    h = 1e-5
    a, b = point
    fd = [(objective(a + h, b) - objective(a - h, b)) / (2 * h),
          (objective(a, b + h) - objective(a, b - h)) / (2 * h)]
    assert np.allclose(grad, fd, rtol=0, atol=1e-9)


def test_search_stays_on_one_core():
    # the refinement must not wake BLAS helper threads: CPU time beyond
    # wall time means a second core spins.  Machine load only lowers the
    # ratio, so noise cannot fail this check.
    code = (
        "import time\n"
        "from qnd_hom.gates import AtomLightParams, build_atom_light_gate\n"
        "from qnd_hom.thresholds import input_threshold\n"
        "model = build_atom_light_gate(AtomLightParams(0.06, 100.0, 0.9))\n"
        "input_threshold(model)\n"
        "cpu, wall = time.process_time(), time.perf_counter()\n"
        "for _ in range(4):\n"
        "    input_threshold(model)\n"
        "print(time.process_time() - cpu, time.perf_counter() - wall)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(thresholds.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    cpu, wall = map(float, done.stdout.split())
    assert cpu <= 1.3 * wall, (cpu, wall)


@pytest.mark.parametrize("model", [
    QND_11_ARGMAX,
    0.0,
    build_atom_light_gate(AtomLightParams(0.06, 100.0, 0.9)),
    build_optomech_gate(OptomechParams(0.06, 100.0, 0.9, 1e-4)),
    build_atom_mech_gate(AtomMechParams(0.07, 0.07, 90.0, 0.9, 1e-4, 7.0)),
], ids=["ideal", "zero-gain", "atom-light", "optomech", "atom-mech"])
def test_no_dense_grid_point_beats_the_threshold(model):
    # the 64-node average on a 61 × 61 grid of [0, 6]², evaluated here
    # straight from the coherent jets, never exceeds the reported maximum
    c, Q = coherent_jets(as_gate_model(model))
    theta = 2.0 * np.pi * np.arange(64) / 64
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    # input means (R_a cosφ_a, R_a sinφ_a, R_b cosφ_b, R_b sinφ_b): each form
    # is R_a²·u(φ_a) + R_b²·v(φ_b) + 2R_aR_b·w(φ_a, φ_b)
    u = np.einsum("ik,qkl,il->qi", circle, Q[:, :2, :2], circle)[:, None, :, None]
    v = np.einsum("ik,qkl,il->qi", circle, Q[:, 2:, 2:], circle)[:, None, None, :]
    w = np.einsum("ik,qkl,jl->qij", circle, Q[:, :2, 2:], circle)[:, None]
    axis = np.linspace(0.0, 6.0, 61)
    R_b = axis[:, None, None]
    best = max(
        float(coherent_coefficient(c, *(R_a**2 * u + R_b**2 * v + 2 * R_a * R_b * w)).mean(axis=(1, 2)).max())
        for R_a in axis
    )
    assert best <= input_threshold(model).value + 1e-12


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
