"""A grid point does not depend on the batch it is evaluated in.

Builders, the physicality check, the kernels and the element jet take a
leading batch axis, and a point built alone is a batch of one; so do the
node arrays of the threshold objective, which a sweep's slice of threshold
points builds for up to ``OBJECTIVE_CHUNK`` points at once.  Every number
of a point (covariance, kernels, jet, sectors, element, node arrays,
threshold, warning) must therefore be bit-identical whether the point is
computed inside a whole preset grid, inside a strided slice of it (a
forked worker's share of a sweep's thresholds) or alone; that is what
keeps tables byte-identical at any ``jobs``.
"""

import math
import re

import numpy as np
import pytest

import qnd_hom.gates
import qnd_hom.sweep
from qnd_hom.gates import _signal_batch
from qnd_hom.gaussian import NumericalDomainError, hom_jet, qnd_matrix, split_kernels
from qnd_hom.metrics import InputSpec, hom_element_for_gate, sector_element
from qnd_hom.sweep import OBJECTIVE_CHUNK, PRESETS, SweepConfig, build_batch, build_model, render_csv, run_sweep
from qnd_hom.thresholds import _averaged_element, averaged_elements, find_crossing, input_threshold


_READ = ("vacuum_output_cov", "signal_map", "kernels", "jet", "sectors")


def _point(batch, i):
    """Covariance, signal map, kernels, jet and sectors of point i of a batch, as bytes."""
    return tuple(getattr(batch, name)[i].tobytes() for name in _READ)


def _alone(gate, values):
    model = build_model(gate, values)
    return tuple(getattr(model, name).tobytes() for name in _READ)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_preset_point_is_the_same_in_its_grid_in_a_slice_and_alone(name):
    config = PRESETS[name]
    grid = config.grid()
    batch, error = build_batch(config.gate, {**config.fixed, config.sweep_param: grid})
    assert error is None and len(batch) == len(grid)
    whole = [_point(batch, i) for i in range(len(grid))]
    for n in (2, 3, 8):  # the strided slices of a sweep at jobs = n
        for k in range(n):
            part, _ = build_batch(config.gate, {**config.fixed, config.sweep_param: grid[k::n]})
            assert [_point(part, i) for i in range(len(part))] == whole[k::n], (n, k)
    for i, value in enumerate(grid.tolist()):
        values = {**config.fixed, config.sweep_param: value}
        one, _ = build_batch(config.gate, {**values, config.sweep_param: np.array([value])})
        assert _point(one, 0) == whole[i], value
        assert _alone(config.gate, values) == whole[i], value
        for p in config.p_values:
            spec = InputSpec(p, p)
            assert sector_element(batch.sectors[i].tolist(), spec).value == hom_element_for_gate(build_model(config.gate, values), spec).value


@pytest.mark.parametrize("gate,param,values,fixed", [
    ("ideal", "G", [0.0, 0.9, 2.5], {}),
    ("bs", "T", [0.0, 0.4, 1.0], {}),
    ("atom-light", "g", [0.02, 0.06, 0.15], {"kappa_tau": 100.0, "eta": 0.9}),
    ("optomech", "Gamma", [0.0, 1e-3, 1e-2], {"g": 0.06, "kappa_tau": 100.0, "eta": 0.9}),
    ("atom-mech", "kappa_tau", [20.0, 90.0, 300.0], {"g": 0.07, "eta": 0.9, "Gamma": 1e-4, "S": 7.0}),
    ("atom-mech", "S", [0.0, 7.0, 13.5], {"g": 0.07, "kappa_tau": 90.0, "eta": 0.8, "Gamma": 1e-4}),
])
def test_a_point_of_each_gate_kind_is_the_same_in_a_batch_and_alone(gate, param, values, fixed):
    batch, error = build_batch(gate, {**fixed, param: np.array(values)})
    assert error is None
    for i, value in enumerate(values):
        assert _point(batch, i) == _alone(gate, {**fixed, param: value}), value


def test_a_batch_with_varying_pulse_lengths_stacks_its_gram_matrices():
    # a 2-D optimum grid: nine couplings at each of three pulse lengths
    g, kappa_tau = (np.array(axis).ravel() for axis in np.meshgrid([0.02, 0.07, 0.2], [20.0, 90.0, 300.0]))
    fixed = {"eta": 0.9, "Gamma": 1e-4, "S": 7.0}
    batch, _ = build_batch("atom-mech", {**fixed, "g": g, "kappa_tau": kappa_tau})
    assert len({id(basis) for basis in batch.bases}) == 3
    for i in range(len(g)):
        assert _point(batch, i) == _alone("atom-mech", {**fixed, "g": g[i], "kappa_tau": kappa_tau[i]})


def test_an_unphysical_point_fails_only_its_rows():
    # at κτ = 1e-8 the atom-light covariance violates the uncertainty bound;
    # the point next to it in the same batch is unaffected, and the rows of
    # both are the ones each point gives alone
    fixed, ps = {"g": 0.06, "eta": 0.9}, (1.0, 0.5)
    rows = run_sweep(SweepConfig("atom-light", "kappa_tau", 1e-8, 100.0, 2, fixed, scale="log", p_values=ps))
    bad, good = rows[:2], rows[2:]
    with pytest.raises(NumericalDomainError) as alone:
        build_model("atom-light", {**fixed, "kappa_tau": 1e-8})
    assert re.fullmatch(r"covariance violates the uncertainty bound: min eig\(V\+iΩ\) = -1\.98\de-09", str(alone.value))
    for row in bad:
        assert (row.value, math.isnan(row.hom), row.hom_err, row.input_threshold) == (1e-8, True, None, None)
        assert row.warnings == f"numerical-domain failure: {alone.value}"
    single = run_sweep(SweepConfig("atom-light", "kappa_tau", 100.0, 100.0, 1, fixed, p_values=ps))
    assert render_csv(good) == render_csv(single)
    assert all(0.0 < row.hom < 1.0 and row.warnings == "" for row in good)


def test_a_point_whose_covariance_overflows_fails_only_its_rows():
    # at g = 1e200, AΣAᵀ overflows: that point fails the physicality check
    # (min eig NaN) as a numerical failure of its own rows, and the batch
    # and the point next to it go on
    with np.errstate(over="ignore", invalid="ignore"):
        good, bad = run_sweep(SweepConfig("atom-light", "g", 0.06, 1e200, 2, {"kappa_tau": 100.0, "eta": 0.9}))
        with pytest.raises(NumericalDomainError, match=r"min eig\(V\+iΩ\) = nan$"):
            build_model("atom-light", {"g": 1e200, "kappa_tau": 100.0, "eta": 0.9})
    assert good.warnings == "" and good.hom == hom_element_for_gate(
        build_model("atom-light", {"g": 0.06, "kappa_tau": 100.0, "eta": 0.9}), InputSpec(1.0, 1.0)).value
    assert math.isnan(bad.hom)
    assert bad.warnings == "numerical-domain failure: covariance violates the uncertainty bound: min eig(V+iΩ) = nan"


def test_an_overlap_that_is_not_positive_definite_fails_only_its_point():
    # in a stack, the failing point's det (and jet) is NaN and its
    # neighbours keep the values they have alone; alone, its det is NaN too
    covs = np.array([np.eye(4), np.diag([-3.0, 1.0, 1.0, 1.0]), 2.0 * np.eye(4)])
    signals = np.array([np.eye(4)] * 3)
    det, K = split_kernels(covs, signals)
    jets = hom_jet(det, K)
    assert math.isnan(det[1]) and np.isnan(jets[1]).all()
    for i in (0, 2):
        assert jets[i].tobytes() == hom_jet(*split_kernels(covs[i], signals[i])).tobytes()
    alone, _ = split_kernels(covs[1], signals[1])
    assert math.isnan(alone)
    # a gate whose covariance diag(1e200, 1, 1e200, 1) passes the physicality
    # check but overflows det S₀: the batch names it in that point's error
    maps = np.array([qnd_matrix(0.9), np.diag([1e100, 1.0, 1e100, 1.0]), np.eye(4)])
    with np.errstate(over="ignore"):
        batch = _signal_batch(maps)
        with pytest.raises(NumericalDomainError, match="^overlap matrix is not positive definite$"):
            _signal_batch(maps[1:2]).model(0)
    assert [error is None for error in batch.errors] == [True, False, True]
    assert str(batch.errors[1]) == "overlap matrix is not positive definite"
    assert np.isnan(batch.jet[1]).all() and np.isnan(batch.kernels[1]).all()
    for i in (0, 2):
        assert batch.jet[i].tobytes() == _signal_batch(maps[i:i + 1]).jet[0].tobytes()


def test_a_crossing_reads_its_model_sectors_once(monkeypatch):
    # the benchmark's crossing: 49 elements of one atom-light model over p
    # make one element jet, the build's, and every value is the one a new
    # model of the same point gives, bit for bit
    values = {"g": 0.0615, "kappa_tau": 100.0, "eta": 0.9}
    jets, ps = [], []
    real = qnd_hom.gates.hom_jet
    monkeypatch.setattr(qnd_hom.gates, "hom_jet", lambda *a: jets.append(1) or real(*a))
    model = build_model("atom-light", values)

    def element(p):
        ps.append(p)
        return hom_element_for_gate(model, InputSpec(p, p)).value

    crossing = find_crossing(element, math.exp(-2.0), 0.3, 1.0, xtol=1e-4, scan_points=65)
    assert crossing is not None
    assert len(ps) > 40 and len(jets) == 1
    monkeypatch.setattr(qnd_hom.gates, "hom_jet", real)
    for p in ps:
        fresh = build_model("atom-light", values).sectors  # a new model, its own build and jet
        assert hom_element_for_gate(model, InputSpec(p, p)).value == sector_element(fresh.tolist(), InputSpec(p, p)).value


def test_a_batch_configures_up_to_its_first_bad_point():
    # g = −0.1 at point 2: the batch holds points 0 and 1, and the error is
    # the one point 2 raises alone
    batch, error = build_batch("atom-light", {"g": np.array([0.05, 0.06, -0.1, 0.07]), "kappa_tau": 100.0, "eta": 0.9})
    assert len(batch) == 2 and error.point == 2
    with pytest.raises(type(error), match=f"^{error}$"):
        build_model("atom-light", {"g": -0.1, "kappa_tau": 100.0, "eta": 0.9})
    batch, error = build_batch("atom-light", {"g": np.array([-0.1, 0.06]), "kappa_tau": 100.0, "eta": 0.9})
    assert batch is None and str(error) == "g must be positive"
    # the earliest point decides, whichever parameter or pulse length fails there
    g = np.array([0.05, 0.06, -0.1])
    batch, error = build_batch("atom-light", {"g": g, "kappa_tau": 100.0, "eta": np.array([0.9, 1.5, 0.9])})
    assert (len(batch), error.point, str(error)) == (1, 1, "eta must lie in (0, 1]")
    batch, error = build_batch("atom-light", {"g": g, "kappa_tau": np.array([100.0, 1e-7, 100.0]), "eta": 0.9})
    assert (len(batch), error.point) == (1, 1) and str(error).startswith("kappa_tau=1e-07 is too short")


# threshold tables of each size cross the chunk boundaries differently: one
# point, one partial chunk, one chunk and a point, two chunks and a part
_THRESHOLD_SIZES = (1, 4, 17, 40)
_THRESHOLD_TABLES = {
    "atom-mech": ("g", 0.005, 0.2, {"kappa_tau": 90.0, "eta": 0.9, "Gamma": 1e-4, "S": 7.0}),
    "ideal": ("G", 0.0, 3.0, {}),
}


def _threshold_slices(grid):
    """The grid, and its strided slices at jobs = 2 and 3 that hold a point."""
    return [grid, *(grid[k::n] for n in (2, 3) for k in range(n) if k < len(grid))]


@pytest.mark.parametrize("gate", sorted(_THRESHOLD_TABLES))
def test_a_threshold_is_the_same_in_its_slice_and_alone(monkeypatch, gate):
    # a sweep hands each process the kernels and jets of its strided slice
    # of the whole grid's batch; the slice builds each chunk's objectives
    # together and hands each point's to sweep.input_threshold: every
    # ThresholdResult (value, argmax, samples, convergence, warnings) is the
    # lone point's
    param, start, stop, fixed = _THRESHOLD_TABLES[gate]
    found, real = [], qnd_hom.sweep.input_threshold
    monkeypatch.setattr(qnd_hom.sweep, "input_threshold", lambda objective: found.append(real(objective)) or found[-1])
    alone = {}
    for points in _THRESHOLD_SIZES:
        grid = SweepConfig(gate, param, start, stop, points, fixed).grid()
        for value in grid.tolist():
            if value not in alone:
                alone[value] = input_threshold(build_model(gate, {**fixed, param: value}))
        batch, _ = build_batch(gate, {**fixed, param: grid})
        for part in _threshold_slices(np.arange(points)):
            found.clear()
            thresholds = qnd_hom.sweep._thresholds(batch.kernels[part], batch.jet[part])
            assert thresholds == found == [alone[value] for value in grid[part].tolist()], (points, part)


@pytest.mark.parametrize("gate", sorted(_THRESHOLD_TABLES))
def test_node_arrays_are_the_same_in_a_chunk_and_alone(gate):
    # a slice's objectives, built OBJECTIVE_CHUNK points at a time as the
    # sweep builds them, or all at once, hold the node arrays that the lone
    # point's objective holds, bit for bit
    param, start, stop, fixed = _THRESHOLD_TABLES[gate]
    for points in _THRESHOLD_SIZES:
        grid = SweepConfig(gate, param, start, stop, points, fixed).grid()
        for part in _threshold_slices(grid):
            batch, _ = build_batch(gate, {**fixed, param: part})
            chunked = []
            for first in range(0, len(part), OBJECTIVE_CHUNK):
                chunk = slice(first, first + OBJECTIVE_CHUNK)
                chunked += [o.nodes.tobytes() for o in averaged_elements(batch.kernels[chunk], batch.jet[chunk])]
            whole = [o.nodes.tobytes() for o in averaged_elements(batch.kernels, batch.jet)]
            lone = [_averaged_element(build_model(gate, {**fixed, param: v})).nodes.tobytes() for v in part.tolist()]
            assert chunked == whole == lone, (points, part)
