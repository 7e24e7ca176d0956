"""Sweep engine: grid order, emission formats, presets, optima."""

import concurrent.futures
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
from concurrent.futures import Future
from types import SimpleNamespace

import numpy as np
import pytest

import qnd_hom.gates
import qnd_hom.sweep
from qnd_hom.fock import QND_11_ARGMAX, closed_form_qnd_11
from qnd_hom.gates import GATES, AtomMechParams, build_atom_mech_gate, ideal_gate_model
from qnd_hom.metrics import InputSpec, hom_element_for_gate
from qnd_hom.sweep import (
    CSV_HEADER,
    PRESETS,
    SweepConfig,
    SweepConfigError,
    SweepRow,
    build_model,
    find_optimum,
    preset_config,
    render_csv,
    render_json,
    run_sweep,
)
from qnd_hom.thresholds import ThresholdResult, averaged_elements


def _ideal_config(**kw):
    defaults = dict(
        gate="ideal", sweep_param="G", start=0.0, stop=2.0, points=5,
        with_input_threshold=False,
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------

def test_rejects_unknown_gate():
    with pytest.raises(SweepConfigError):
        _ideal_config(gate="nonsense")


def test_rejects_unknown_parameter():
    with pytest.raises(SweepConfigError):
        _ideal_config(sweep_param="Gamma")
    with pytest.raises(SweepConfigError):
        _ideal_config(fixed={"eta": 1.0})


def test_rejects_swept_parameter_that_is_also_fixed():
    with pytest.raises(SweepConfigError, match="'G' is both fixed and swept"):
        _ideal_config(fixed={"G": 1.0})


def test_rejects_bad_grid():
    with pytest.raises(SweepConfigError):
        _ideal_config(points=0)
    with pytest.raises(SweepConfigError):
        _ideal_config(scale="log", start=0.0)
    with pytest.raises(SweepConfigError):
        _ideal_config(scale="cubic")
    for start, stop in [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)]:
        with pytest.raises(SweepConfigError, match="sweep range of 'G' must be finite"):
            _ideal_config(start=start, stop=stop, points=3)
    with pytest.raises(SweepConfigError, match="empty range for swept parameter 'G'"):
        _ideal_config(start=1.0, stop=1.0, points=3)
    assert _ideal_config(start=2.0, stop=1.0, points=3).grid().tolist() == [2.0, 1.5, 1.0]


def test_rejects_bad_p():
    with pytest.raises(SweepConfigError):
        _ideal_config(p_values=(1.2,))
    with pytest.raises(SweepConfigError):
        _ideal_config(p_values=())


def test_missing_required_parameter():
    with pytest.raises(SweepConfigError, match="^gate 'atom-light' is missing parameter 'kappa_tau'$"):
        build_model("atom-light", {"g": 0.06})
    with pytest.raises(SweepConfigError, match="^gate 'atom-mech' is missing parameter 'gM'$"):
        build_model("atom-mech", {"gA": 0.07, "kappa_tau": 90.0})


def test_gate_vocabulary_is_the_params_fields():
    # flags, config keys and the default swept parameter (the first name)
    assert qnd_hom.sweep._GATE_PARAMS == {
        "ideal": ("G",),
        "bs": ("T",),
        "atom-light": ("g", "kappa_tau", "eta"),
        "optomech": ("g", "kappa_tau", "eta", "Gamma"),
        "atom-mech": ("g", "gA", "gM", "kappa_tau", "eta", "Gamma", "S"),
    }


def test_gate_kinds_are_the_gate_table():
    assert qnd_hom.sweep.GATE_KINDS == tuple(GATES)


def test_sweep_config_holds_only_what_run_sweep_reads():
    # the output path and format go to emit, not into the config
    names = {f.name for f in dataclasses.fields(SweepConfig)}
    assert not names & {"out_path", "out_format"}


def test_atom_mech_couplings_override_g():
    values = {"g": 0.07, "gA": 0.05, "kappa_tau": 90.0, "eta": 0.9, "Gamma": 1e-4, "S": 7.0}
    direct = build_atom_mech_gate(AtomMechParams(0.05, 0.07, 90.0, 0.9, 1e-4, 7.0))
    aliased = build_model("atom-mech", values)
    assert np.array_equal(aliased.output_matrix, direct.output_matrix)
    assert np.array_equal(aliased.basis.transform, direct.basis.transform)


def test_build_model_rejects_foreign_parameter():
    # one name check covers sweeps, thresholds and optimum searches alike
    with pytest.raises(SweepConfigError, match="'T'"):
        build_model("ideal", {"G": 0.9, "T": 0.3})
    with pytest.raises(SweepConfigError, match="'Gamma'"):
        build_model("atom-light", {"g": 0.06, "kappa_tau": 100.0, "Gamma": 1e-3})
    with pytest.raises(SweepConfigError, match="unknown gate kind"):
        build_model("nonsense", {})
    with pytest.raises(SweepConfigError, match="'T'"):
        find_optimum("ideal", {}, {"T": (0.0, 1.0)}, grid=3)


# ----------------------------------------------------------------------
# Row structure
# ----------------------------------------------------------------------

def test_row_count_and_order():
    config = _ideal_config(points=80, p_values=(1.0, 0.7, 0.4))
    rows = run_sweep(config)
    assert len(rows) == 240
    grid = np.linspace(0.0, 2.0, 80)
    for i, row in enumerate(rows):
        assert row.value == pytest.approx(grid[i // 3], abs=0.0)
        assert row.p == (1.0, 0.7, 0.4)[i % 3]
        assert row.param == "G"


def test_values_match_closed_form():
    rows = run_sweep(_ideal_config(points=9, p_values=(1.0,)))
    for row in rows:
        assert row.hom == pytest.approx(closed_form_qnd_11(row.value), abs=1e-12)


def test_single_point_grid():
    config = _ideal_config(points=1, start=0.9, stop=0.9)
    rows = run_sweep(config)
    assert len(rows) == 1
    assert rows[0].value == 0.9


def test_log_grid():
    config = SweepConfig(
        gate="atom-light", sweep_param="g", start=0.01, stop=0.1, points=3,
        scale="log", fixed={"kappa_tau": 100.0, "eta": 1.0},
        with_input_threshold=False,
    )
    rows = run_sweep(config)
    values = [row.value for row in rows]
    assert values[1] == pytest.approx(math.sqrt(0.01 * 0.1), rel=1e-12)


def test_threshold_shared_across_p():
    config = _ideal_config(
        points=2, start=0.5, stop=1.0, p_values=(1.0, 0.5),
        with_input_threshold=True,
    )
    rows = run_sweep(config)
    assert rows[0].input_threshold == rows[1].input_threshold
    assert rows[2].input_threshold == rows[3].input_threshold
    assert rows[0].input_threshold != rows[2].input_threshold


def test_bs_sweep():
    config = SweepConfig(
        gate="bs", sweep_param="T", start=0.0, stop=1.0, points=5,
        with_input_threshold=False,
    )
    rows = run_sweep(config)
    mid = rows[2]
    assert mid.value == 0.5
    assert mid.hom == pytest.approx(1.0, abs=5e-3)


# threshold points per process at which the tests below fork, so that
# small grids exercise the pool whatever POINTS_PER_PROCESS is
_FORK_AT = 8


def _serial_pool(monkeypatch):
    """Stand a pool in for ProcessPoolExecutor that runs each submitted call
    at once, in this process; returns the logs of its pool sizes and of
    the arguments of its submitted calls."""
    pools, submitted = [], []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args)
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return pools, submitted


def test_pool_never_larger_than_the_grid(monkeypatch):
    # a process must have POINTS_PER_PROCESS threshold points before the
    # sweep forks it, an element-only table never forks, and jobs counts
    # the calling process: it bounds the pool, which has jobs - 1 workers
    started, _ = _serial_pool(monkeypatch)
    per_process = qnd_hom.sweep.POINTS_PER_PROCESS
    for points, jobs, with_input_threshold, workers in [
        (per_process, 5000, True, []),
        (2 * per_process - 1, 2, True, []),
        (2 * per_process, 2, True, [1]),
        (3 * per_process, 3, True, [2]),
        (40, 5000, True, [40 // per_process - 1]),
        (40, 5000, False, []),
        (1280, 2, False, []),
    ]:
        started.clear()
        config = _ideal_config(points=points, jobs=jobs, with_input_threshold=with_input_threshold)
        rows = run_sweep(config)
        assert started == workers
        if workers:
            assert render_csv(rows) == render_csv(run_sweep(dataclasses.replace(config, jobs=1)))


def test_forked_workers_compute_strided_slices(monkeypatch, tmp_path):
    # the caller builds the whole grid in one batch; forked workers build
    # nothing, and each finds the thresholds of whole strided slices of the
    # points that built, every n-th of them from the k-th.  On this log
    # grid of G ∈ [1, 1e300] about half the points overflow, so the
    # threshold points are not the grid
    monkeypatch.setattr(qnd_hom.sweep, "POINTS_PER_PROCESS", _FORK_AT)
    config = _ideal_config(start=1.0, stop=1e300, points=25, scale="log", with_input_threshold=True)
    serial = render_csv(run_sweep(config))
    batch, _ = qnd_hom.sweep.build_batch("ideal", {"G": config.grid()})
    ok = [i for i, error in enumerate(batch.errors) if error is None]
    assert 3 * _FORK_AT <= len(config.grid()) and 6 <= len(ok) < len(config.grid())
    objectives = averaged_elements(batch.kernels[ok], batch.jet[ok])
    point = {hashlib.sha1(o.nodes.tobytes()).hexdigest(): i for i, o in zip(ok, objectives)}
    log = tmp_path / "calls"

    def logged(name, real, describe):
        def call(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {name} {describe(*args)}\n")
            return real(*args)

        monkeypatch.setattr(qnd_hom.sweep, name, call)

    logged("build_model", qnd_hom.sweep.build_model, lambda gate, values: "-")
    logged("build_batch", qnd_hom.sweep.build_batch, lambda gate, values: ",".join(map(repr, values["G"].tolist())))
    logged("input_threshold", qnd_hom.sweep.input_threshold,
           lambda objective: point[hashlib.sha1(objective.nodes.tobytes()).hexdigest()])
    for jobs in (2, 3):  # 25 points: slices of unequal length
        log.write_text("")
        assert render_csv(run_sweep(dataclasses.replace(config, jobs=jobs))) == serial
        assert multiprocessing.active_children() == []
        calls = {}
        for line in log.read_text().splitlines():
            pid, name, what = line.split()
            calls.setdefault((int(pid), name), []).append(what)
        caller = os.getpid()
        assert calls.pop((caller, "build_batch")) == [",".join(map(repr, config.grid().tolist()))]
        assert calls.pop((caller, "build_model"))
        assert calls.pop((caller, "input_threshold")) == [str(i) for i in ok[::jobs]]
        assert {name for _, name in calls} == {"input_threshold"}  # no worker builds
        # each worker computed whole slices 1 … jobs − 1, each once
        slices = [[str(i) for i in ok[k::jobs]] for k in range(1, jobs)]
        for found in calls.values():
            while found:
                part = next(part for part in slices if found[: len(part)] == part)
                slices.remove(part)
                found = found[len(part) :]
        assert slices == []


def test_a_sweep_builds_its_grid_once(monkeypatch):
    # one build_batch call over the whole grid at any jobs, with the forked
    # workers' share of the thresholds run in this process
    monkeypatch.setattr(qnd_hom.sweep, "POINTS_PER_PROCESS", _FORK_AT)
    pools, _ = _serial_pool(monkeypatch)
    batches, real = [], qnd_hom.sweep.build_batch
    monkeypatch.setattr(qnd_hom.sweep, "build_batch", lambda gate, values: batches.append(values["G"]) or real(gate, values))
    for with_input_threshold in (False, True):
        config = _ideal_config(points=25, with_input_threshold=with_input_threshold)
        for jobs in (1, 2, 3):
            batches.clear(), pools.clear()
            run_sweep(dataclasses.replace(config, jobs=jobs))
            assert len(batches) == 1 and batches[0].tolist() == config.grid().tolist()
            assert pools == ([jobs - 1] if with_input_threshold and jobs > 1 else [])


def test_numerical_failure_in_a_forked_slice_fails_only_its_rows(monkeypatch):
    # point 9's element leaves [0, 1] after its batch is built, so its
    # threshold is found, by the forked worker whose slice holds it, and
    # then dropped with the rest of its rows
    monkeypatch.setattr(qnd_hom.sweep, "POINTS_PER_PROCESS", _FORK_AT)
    monkeypatch.setattr(qnd_hom.gates, "hom_jet", _out_of_range_at(0.75))
    config = _ideal_config(points=25, with_input_threshold=True)
    serial = run_sweep(config)
    assert [row.value for row in serial if row.warnings] == [0.75]
    assert render_csv(run_sweep(dataclasses.replace(config, jobs=2))) == render_csv(serial)
    assert multiprocessing.active_children() == []


def test_earliest_configuration_error_in_grid_order_is_raised(monkeypatch):
    # κτ = 1e-8 is a numerical failure row, 1e-7 and 1e-6 configuration
    # errors with different messages; at jobs=2 a slice of every other
    # point from point 0 would fail at point 2 and one from point 1 at
    # point 1, the one jobs=1 reports: the whole grid is one batch
    monkeypatch.setattr(qnd_hom.sweep, "POINTS_PER_PROCESS", _FORK_AT)
    config = SweepConfig(
        "atom-light", "kappa_tau", 1e-8, 1e7, 16, {"g": 0.06, "eta": 0.9},
        scale="log", with_input_threshold=True,
    )
    for jobs in (1, 2):
        with pytest.raises(SweepConfigError, match=r"^kappa_tau=1e-07 is too short .*\(math domain error\)$"):
            run_sweep(dataclasses.replace(config, jobs=jobs))
        assert multiprocessing.active_children() == []
    # 26 points from κτ = 1e7 down by decades: κτ = 1e-4 (point 11) is the
    # first that does not configure; in strided slices of 9, 9 and 8 at
    # jobs=3 it would be point 3 of the last, while the first two would
    # fail later, at their point 4 (κτ ≈ 1e-5 and 1e-6, other messages)
    config = dataclasses.replace(config, start=1e7, stop=1e-18, points=26)
    assert 3 * qnd_hom.sweep.POINTS_PER_PROCESS <= config.points
    for jobs in (1, 3):
        with pytest.raises(SweepConfigError, match=r"^kappa_tau=0\.0001 is too short .*\(math domain error\)$"):
            run_sweep(dataclasses.replace(config, jobs=jobs))
        assert multiprocessing.active_children() == []


def test_slice_that_does_not_configure_computes_no_thresholds(monkeypatch):
    # η = 1.0000001 at the last of 6 points breaks η ∈ (0, 1]: the points
    # before it are valid, but their thresholds would be thrown away
    calls = []
    real = qnd_hom.sweep.input_threshold
    monkeypatch.setattr(qnd_hom.sweep, "input_threshold", lambda model: calls.append(model) or real(model))
    config = SweepConfig(
        "atom-light", "eta", 0.5, 1.0000001, 6, {"g": 0.06, "kappa_tau": 100.0}, with_input_threshold=True,
    )
    with pytest.raises(SweepConfigError, match=r"^eta must lie in \(0, 1\]$"):
        run_sweep(config)
    assert calls == []


def test_no_worker_is_submitted_when_point_0_does_not_configure(monkeypatch):
    # η = 1.0000001 at point 0 of 80 breaks η ∈ (0, 1], and the other 79
    # points are valid: at jobs=2 the whole grid is built before a worker
    # forks, so no pool starts, no slice is submitted and no threshold runs.
    # The pool runs what it is given in this process, so a submitted slice
    # would show in the counts
    pools, submitted = _serial_pool(monkeypatch)
    calls = []
    real = qnd_hom.sweep.input_threshold
    monkeypatch.setattr(qnd_hom.sweep, "input_threshold", lambda model: calls.append(model) or real(model))
    config = SweepConfig(
        "atom-light", "eta", 1.0000001, 0.5, 80, {"g": 0.06, "kappa_tau": 100.0}, with_input_threshold=True, jobs=2,
    )
    with pytest.raises(SweepConfigError, match=r"^eta must lie in \(0, 1\]$"):
        run_sweep(config)
    assert (pools, submitted, calls) == ([], [], [])


def test_output_threshold_column_is_always_e_minus_2():
    rows = run_sweep(_ideal_config(points=2, p_values=(1.0, 0.5)))
    assert [row.output_threshold for row in rows] == [math.exp(-2.0)] * 4


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------

def test_csv_header_and_shape():
    rows = run_sweep(_ideal_config(points=3))
    text = render_csv(rows)
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "param,value,p,hom,hom_err,input_threshold,output_threshold,warnings"
    assert len(lines) == 5  # header + 3 rows + trailing newline
    assert text.endswith("\n")
    assert "\r" not in text


def _out_of_range_at(G):
    """Element jets whose sectors read 768 at the ideal-gate point of gain G:
    the point whose jet is the one that gain gives alone, bit for bit."""
    real = qnd_hom.gates.hom_jet
    alone = ideal_gate_model(G).jet

    def jet(det, K):
        out = real(det, K)
        out[(out == alone).all(axis=-1), 12:] = 768.0
        return out

    return jet


def test_hom_err_is_zero_and_empty_on_failure_rows(monkeypatch):
    # the element is exact, so hom_err is 0; a point whose element leaves
    # [0, 1] becomes a warning row with an empty hom_err field
    rows = run_sweep(_ideal_config(points=2))
    assert [row.hom_err for row in rows] == [0.0, 0.0]
    assert render_csv(rows).split("\n")[1].split(",")[4] == "0"

    monkeypatch.setattr(qnd_hom.gates, "hom_jet", _out_of_range_at(2.0))
    good, bad = run_sweep(_ideal_config(points=2, start=1.0))
    assert good.hom_err == 0.0 and 0.0 <= good.hom <= 1.0
    assert math.isnan(bad.hom) and bad.hom_err is None
    assert "outside [0, 1]" in bad.warnings
    assert render_csv([bad]).split("\n")[1].split(",")[4] == ""


def test_failure_row_drops_the_point_threshold(monkeypatch):
    # a point that fails after its input threshold was found keeps only
    # the failure: no threshold and no threshold warnings in its rows
    found = ThresholdResult(0.2, (1.0, 1.0), 64, False, ("unconverged",))
    monkeypatch.setattr(qnd_hom.sweep, "input_threshold", lambda model: found)
    monkeypatch.setattr(qnd_hom.gates, "hom_jet", _out_of_range_at(2.0))
    rows = run_sweep(_ideal_config(points=2, start=1.0, p_values=(1.0, 0.5), with_input_threshold=True))
    good, bad = rows[:2], rows[2:]
    for row in good:
        assert (row.input_threshold, row.warnings) == (0.2, "unconverged")
    for row, p in zip(bad, (1.0, 0.5)):
        assert (row.param, row.value, row.p) == ("G", 2.0, p)
        assert math.isnan(row.hom) and row.hom_err is None and row.input_threshold is None
        assert row.output_threshold == math.exp(-2.0)
        assert row.warnings.startswith("numerical-domain failure: ")


def test_sectors_computed_once_per_grid_point(monkeypatch):
    # every p row of a grid point combines the same four sectors
    calls = _count_elements(monkeypatch)
    config = SweepConfig(
        gate="atom-light", sweep_param="g", start=0.02, stop=0.12, points=6,
        fixed={"kappa_tau": 100.0, "eta": 0.9}, p_values=(1.0, 0.78, 0.55, 0.4),
    )
    rows = run_sweep(config)
    assert len(rows) == 24
    assert len(calls) == 6
    for row in rows:
        model = build_model("atom-light", {"g": row.value, "kappa_tau": 100.0, "eta": 0.9})
        assert row.hom == hom_element_for_gate(model, InputSpec(row.p, row.p)).value


def test_csv_empty_is_header_only():
    assert render_csv([]) == CSV_HEADER + "\n"


def test_csv_17_significant_digits():
    rows = [SweepRow("G", 1.0 / 3.0, 1.0, 0.1234567890123456789, None, None, None)]
    line = render_csv(rows).split("\n")[1]
    fields = line.split(",")
    assert fields[1] == "0.33333333333333331"
    assert float(fields[3]) == 0.1234567890123456789
    assert fields[4] == "" and fields[5] == "" and fields[6] == ""


def test_json_round_trip():
    rows = run_sweep(_ideal_config(points=3, p_values=(1.0, 0.5)))
    data = json.loads(render_json(rows))
    assert len(data) == 6
    for rec, row in zip(data, rows):
        assert set(rec) == set(CSV_HEADER.split(","))
        assert rec["hom"] == row.hom
        assert rec["value"] == row.value


def test_emit_to_file(tmp_path):
    from qnd_hom.sweep import emit

    rows = run_sweep(_ideal_config(points=2))
    path = tmp_path / "table.csv"
    emit(rows, "csv", str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").split("\n")[0] == CSV_HEADER


# ----------------------------------------------------------------------
# Optimum search
# ----------------------------------------------------------------------

def test_find_optimum_recovers_ideal_maximum():
    res = find_optimum("ideal", {}, {"G": (0.2, 2.0)}, grid=9)
    assert res.argmax["G"] == pytest.approx(0.8677840941388602, abs=5e-3)
    assert res.value == pytest.approx(0.26085, abs=5e-4)
    assert res.interior


def _count_elements(monkeypatch) -> list:
    # one entry per point whose element jet a build reads, batch by batch
    calls = []
    real = qnd_hom.gates.hom_jet

    def counted(det, K):
        calls.extend([1] * len(det))
        return real(det, K)

    monkeypatch.setattr(qnd_hom.gates, "hom_jet", counted)
    return calls


def test_find_optimum_converges_without_stalling(monkeypatch):
    # a range on which the search once ran on to its iteration cap (1,193
    # element calls, when it climbed a noisy element by a simplex): on the
    # exact element it stops at its tolerances
    calls = _count_elements(monkeypatch)
    res = find_optimum("ideal", {}, {"G": (0.3288957047183011, 2.028895704718301)}, grid=15)
    assert len(calls) <= 300
    assert abs(res.value - closed_form_qnd_11(QND_11_ARGMAX)) <= 1e-10
    assert abs(res.argmax["G"] - QND_11_ARGMAX) <= 1e-5


@pytest.mark.parametrize("G_range", [(0.3, 2.0), (0.3288957047183011, 2.028895704718301)])
def test_find_optimum_lands_on_the_ideal_maximum(monkeypatch, G_range):
    # the ideal ranges of the benchmark's optimum searches: 15 grid
    # points, then an ascent to G* = √(11 − √105) at roundoff of E₁₁
    calls = _count_elements(monkeypatch)
    res = find_optimum("ideal", {}, {"G": G_range}, grid=15)
    assert len(calls) <= 45
    assert abs(res.argmax["G"] - QND_11_ARGMAX) <= 1e-9
    assert abs(res.value - closed_form_qnd_11(QND_11_ARGMAX)) <= 1e-15


# the benchmark's optimum searches, (gate, fixed, free, grid), with the
# element points each took when its climb was a BFGS ascent on 3- and
# 5-point central-difference stencils, one batch each
_ATOM_LIGHT = {"kappa_tau": 100.0, "eta": 0.9}
_BENCHMARK_SEARCHES = [
    pytest.param(("ideal", {}, {"G": (0.3, 2.0)}, 15), 33, id="ideal"),
    pytest.param(("ideal", {}, {"G": (0.3288957047183011, 2.028895704718301)}, 15), 33, id="ideal-shifted"),
    pytest.param(("atom-light", _ATOM_LIGHT, {"g": (0.02, 0.15)}, 21), 39, id="atom-light"),
    pytest.param(("optomech", {**_ATOM_LIGHT, "Gamma": 1e-3}, {"g": (0.02, 0.15)}, 15), 33, id="optomech"),
    pytest.param(("atom-mech", {"eta": 0.9, "Gamma": 1e-4, "S": 7.0},
                  {"g": (0.02, 0.2), "kappa_tau": (20.0, 300.0)}, 9), 151, id="atom-mech-2d"),
]


@pytest.mark.parametrize("search,ascent_points", _BENCHMARK_SEARCHES)
def test_find_optimum_takes_few_batches(monkeypatch, search, ascent_points):
    # the grid is one batch and each Newton step one stencil batch: at most
    # 4 batches in 1-D and 8 in 2-D, and at most 1.5 times the element
    # points of the ascent it replaced
    gate, fixed, free, grid = search
    batches, real = [], qnd_hom.sweep.build_batch
    monkeypatch.setattr(qnd_hom.sweep, "build_batch", lambda gate, values: batches.append(1) or real(gate, values))
    calls = _count_elements(monkeypatch)
    res = find_optimum(gate, fixed, free, grid=grid)
    assert res.interior
    assert len(batches) <= (4 if len(free) == 1 else 8)
    assert len(calls) <= 1.5 * ascent_points


def test_find_optimum_climbs_on_from_a_fallen_grid_step(monkeypatch):
    # on G ∈ [0.2, 2] at grid=9 the grid's central difference has the wrong
    # sign at its best point, so the element falls on the grid's Newton
    # step: the climb goes on from that step's stencil, the grid and at most
    # 4 stencils, where a second stencil at the grid point made it 6
    batches, real = [], qnd_hom.sweep.build_batch
    monkeypatch.setattr(qnd_hom.sweep, "build_batch", lambda gate, values: batches.append(1) or real(gate, values))
    res = find_optimum("ideal", {}, {"G": (0.2, 2.0)}, grid=9)
    assert len(batches) <= 5
    assert abs(res.argmax["G"] - QND_11_ARGMAX) <= 1e-9
    assert abs(res.value - closed_form_qnd_11(QND_11_ARGMAX)) <= 1e-15


def test_find_optimum_keeps_the_grid_point_above_a_fallen_climb(monkeypatch):
    # a spike of 0.5 at the middle grid point of a hill whose top is 0.4:
    # the grid's step falls, the climb goes on to the hill's top, ends below
    # the grid point and returns it
    def element(u):
        return 0.5 if u == 0.5 else 0.4 - 0.2 * (u - 0.3) ** 2

    def recorded(gate, values):
        sectors = np.array([element(u) * np.ones((2, 2)) for u in values["G"].tolist()])
        return SimpleNamespace(errors=(None,) * len(sectors), sectors=sectors), None

    monkeypatch.setattr(qnd_hom.sweep, "build_batch", recorded)
    res = find_optimum("ideal", {}, {"G": (0.0, 1.0)}, grid=3)
    assert (res.value, res.argmax) == (0.5, {"G": 0.5})


@pytest.mark.parametrize("gate,fixed,free,grid", [
    pytest.param("ideal", {}, {"G": (0.3, 2.0)}, 15, id="ideal"),
    pytest.param("atom-light", {"eta": 0.9}, {"g": (0.02, 0.15), "kappa_tau": (50.0, 200.0)}, 9, id="atom-light-2d"),
    pytest.param("atom-mech", {"eta": 0.9, "Gamma": 1e-4, "S": 7.0},
                 {"g": (0.02, 0.2), "kappa_tau": (20.0, 300.0)}, 9, id="atom-mech-2d"),
])
def test_find_optimum_value_is_the_element_at_its_argmax(gate, fixed, free, grid):
    # the value returned is the element a lone build computes at the
    # returned argmax, bit for bit (the atom-light optimum lies on the
    # kappa_tau = 200 face)
    res = find_optimum(gate, fixed, free, grid=grid)
    alone = hom_element_for_gate(build_model(gate, {**fixed, **res.argmax}), InputSpec(1.0, 1.0)).value
    assert res.value == alone


def test_find_optimum_scans_in_grid_order_and_keeps_first_tie(monkeypatch):
    # a flat element: the grid is scanned first parameter outermost, and
    # of equal values the first grid point is kept
    calls = []

    def recorded(gate, values):
        points = list(zip(values["g"].tolist(), values["kappa_tau"].tolist()))
        calls.extend(points)
        return SimpleNamespace(errors=(None,) * len(points), sectors=np.ones((len(points), 2, 2))), None

    monkeypatch.setattr(qnd_hom.sweep, "build_batch", recorded)
    res = find_optimum("atom-light", {"eta": 0.9}, {"g": (0.0, 1.0), "kappa_tau": (2.0, 3.0)}, grid=3)
    assert calls[:9] == [(x, y) for x in (0.0, 0.5, 1.0) for y in (2.0, 2.5, 3.0)]
    assert (res.value, res.argmax) == (1.0, {"g": 0.0, "kappa_tau": 2.0})


def test_find_optimum_flags_boundary():
    # restrict the domain so the optimum lands on the upper edge
    res = find_optimum("ideal", {}, {"G": (0.2, 0.5)}, grid=7)
    assert not res.interior
    assert "G" in res.boundary_params


@pytest.mark.parametrize("grid", [1, 2])
def test_find_optimum_climbs_from_a_grid_of_faces(grid):
    # a grid of 1 or 2 points has no interior point: the climb starts on a
    # face, without the grid's own fit, and still lands on G*
    res = find_optimum("ideal", {}, {"G": (0.3, 2.0)}, grid=grid)
    assert res.interior
    assert abs(res.argmax["G"] - QND_11_ARGMAX) <= 1e-9
    assert abs(res.value - closed_form_qnd_11(QND_11_ARGMAX)) <= 1e-15


def test_find_optimum_validates_arity():
    with pytest.raises(SweepConfigError):
        find_optimum("ideal", {}, {}, grid=3)
    with pytest.raises(SweepConfigError):
        find_optimum("ideal", {}, {"G": (0.5, 0.4)}, grid=3)


def test_find_optimum_rejects_empty_grid_and_fixed_free_overlap():
    with pytest.raises(SweepConfigError, match="grid must be at least 1"):
        find_optimum("ideal", {}, {"G": (0.2, 2.0)}, grid=0)
    with pytest.raises(SweepConfigError, match="'G' is both fixed and free"):
        find_optimum("ideal", {"G": 0.5}, {"G": (0.2, 2.0)}, grid=3)


@pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)])
def test_find_optimum_rejects_non_finite_range(lo, hi):
    with pytest.raises(SweepConfigError, match="range of free parameter 'G' must be finite"):
        find_optimum("ideal", {}, {"G": (lo, hi)}, grid=3)


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

_EXPECTED_PRESETS = {
    "methods-ideal": ("ideal", "G", 0.0, 3.0, 80, {}, (1.0, 0.7, 0.48, 0.4)),
    "fig2a": ("atom-light", "g", 0.005, 0.2, 80,
              {"kappa_tau": 100.0, "eta": 0.9}, (1.0, 0.78, 0.55)),
    "fig2b": ("optomech", "g", 0.005, 0.2, 80,
              {"kappa_tau": 100.0, "eta": 0.9, "Gamma": 1e-4}, (1.0, 0.78, 0.55)),
    "fig3a": ("atom-mech", "g", 0.005, 0.2, 80,
              {"kappa_tau": 90.0, "eta": 0.9, "Gamma": 1e-4, "S": 7.0},
              (1.0, 0.93, 0.67, 0.63)),
    "fig3b": ("atom-mech", "kappa_tau", 10.0, 300.0, 80,
              {"g": 0.07, "eta": 0.9, "Gamma": 1e-4, "S": 7.0}, (1.0,)),
    "app-atomlight": ("atom-light", "g", 0.005, 0.2, 80,
                      {"kappa_tau": 100.0, "eta": 1.0}, (1.0,)),
    "app-mechlight": ("optomech", "g", 0.005, 0.2, 80,
                      {"kappa_tau": 100.0, "eta": 1.0, "Gamma": 1e-3}, (1.0,)),
    "app-atommech-coupling": ("atom-mech", "g", 0.005, 0.2, 80,
                              {"kappa_tau": 90.0, "eta": 0.8, "Gamma": 1e-4, "S": 7.0},
                              (1.0,)),
    "app-atommech-squeezing": ("atom-mech", "S", 0.0, 14.0, 80,
                               {"g": 0.07, "kappa_tau": 90.0, "eta": 0.8, "Gamma": 1e-4},
                               (1.0,)),
}


def test_preset_catalog_complete():
    assert set(PRESETS) == set(_EXPECTED_PRESETS)


@pytest.mark.parametrize("name", sorted(_EXPECTED_PRESETS))
def test_preset_fidelity(name):
    gate, sweep, start, stop, points, fixed, p_values = _EXPECTED_PRESETS[name]
    config = PRESETS[name]
    assert config.gate == gate
    assert config.sweep_param == sweep
    assert config.start == start and config.stop == stop
    assert config.points == points
    assert dict(config.fixed) == fixed
    assert config.p_values == p_values
    assert config.with_input_threshold


def test_preset_config_overrides():
    config = preset_config("fig2a", points=4, with_input_threshold=False, jobs=2)
    assert config.points == 4
    assert config.jobs == 2
    with pytest.raises(SweepConfigError):
        preset_config("no-such-preset")


def test_preset_landmark_fig2a():
    # coarse rerun of the atomic-gate preset around its maximum
    config = preset_config(
        "fig2a", points=5, start=0.04, stop=0.08,
        with_input_threshold=False, p_values=(1.0,),
    )
    rows = run_sweep(config)
    best = max(rows, key=lambda r: r.hom)
    assert best.hom == pytest.approx(0.228, abs=2e-3)
    assert 0.05 <= best.value <= 0.07


def test_preset_landmark_fig3b():
    # pulse-length dependence peaks in the κτ ≈ 90 region
    config = preset_config(
        "fig3b", points=7, start=30.0, stop=240.0,
        with_input_threshold=False,
    )
    rows = run_sweep(config)
    values = [row.hom for row in rows]
    best = int(np.argmax(values))
    assert 0 < best < len(values) - 1  # interior peak
    assert values[best] > math.exp(-2.0)
