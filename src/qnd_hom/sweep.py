"""Declarative parameter sweeps, figure presets, and table emission.

A sweep is: one gate kind, fixed parameters, one swept parameter over a
grid, and a list of input fractions p.  Every grid point yields one row
per p with the bunching element, its error estimate (0: the element is
exact), the output threshold and, when requested, the input threshold.
The input threshold and the element's four input sectors are computed
once per grid point and shared across the p rows: the threshold depends
only on the gate, and each p row is a bilinear combination of the
sectors.

Grid points are independent, and a slice of them is one batch: one build
of its gate models (:func:`build_batch`), with one stacked physicality
check and one element jet, whose errors and sectors the rows read.  When
input thresholds are requested, the threshold objectives of every
``OBJECTIVE_CHUNK`` points are built together from the batch's kernels
and jets, and each point's threshold is then found from its own.  A
point's numbers do not depend on its batch or chunk, and a point that
fails numerically fails only its own rows.  ``jobs`` bounds the number of
processes a sweep uses, the calling process included: a threshold table
forks only when it has ``POINTS_PER_PROCESS`` points per process, and an
element-only table always runs in the calling process.  The grid is cut
into strided slices, the caller computes the first and each forked worker
one other, and the rows are reassembled in grid order, so the emitted
file (and the message of a configuration error) is byte-identical at any
``jobs``.

:func:`find_optimum` scores its whole grid as one batch, and each
central-difference stencil of its ascent (the centre and its 2n
neighbours) as another.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .gates import GATES, GateBatch, GateModel
from .gaussian import NumericalDomainError
from .metrics import InputSpec, hom_element_for_gate, sector_element  # hom_element_for_gate: perfbench reads it here
from .thresholds import ascend, averaged_elements, input_threshold, output_threshold

GATE_KINDS = tuple(GATES)

# parameter vocabulary per gate kind: the params fields, plus atom-mech's
# "g", which sets both couplings (gA and gM override it)
_GATE_PARAMS = {gate: tuple(f.name for f in fields(params)) for gate, (params, _) in GATES.items()}
_GATE_PARAMS["atom-mech"] = ("g", *_GATE_PARAMS["atom-mech"])

# Threshold points a sweep needs per process before it forks one (2-core
# box, Python 3.11.7, numpy 2.4.6).  A threshold takes ~1-3 ms; a bare fork
# and join cost 4 ms, the executor's start and stop 8 ms, and copy-on-write
# ~5 ms on a worker's first point, so a second process pays from about 8
# points each: fig3a-shaped atom-mech tables of 8, 12, 16, 20 and 24 points
# took 16-18, 25-28, 34-35, 38-43 and 36-53 ms in one process against
# 22-26, 27-32, 33-35, 38-40 and 42-49 ms through a pool at jobs=2 (medians
# of three sets of 40 alternated pairs, the pool faster in 0, 1-3, 17-25,
# 20-26 and 22-29 of them).  Element points never pay for a worker: a slice
# is one batch, and 1,280 element-only atom-mech points (4 p each) take
# 27-29 ms in one process, ~0.02 ms a point, against 166-168 ms when each
# point was its own build and jet.
POINTS_PER_PROCESS = 8

# Threshold points of a slice whose objectives are built together.  At 64
# phase samples one point's node arrays take 0.1 MB, so a chunk's take
# 1.7 MB; the build costs about 50 µs a point at 16 points, 60 µs at 4 and
# 110 µs alone (2-core box, Python 3.11.7, numpy 2.4.6).
OBJECTIVE_CHUNK = 16

CSV_HEADER = "param,value,p,hom,hom_err,input_threshold,output_threshold,warnings"
_ROW_KEYS = tuple(CSV_HEADER.split(","))


class SweepConfigError(ValueError):
    """Invalid sweep configuration (CLI exit code 1)."""

    point = 0  # the first point of a batch that does not configure


class SweepNumericalError(RuntimeError):
    """Every grid point failed numerically (CLI exit code 2)."""


def _check_params(gate: str, names: Iterable[str]):
    """Reject a gate kind or a parameter name outside its vocabulary."""
    if gate not in _GATE_PARAMS:
        raise SweepConfigError(f"unknown gate kind {gate!r}; choose from {GATE_KINDS}")
    allowed = _GATE_PARAMS[gate]
    for name in names:
        if name not in allowed:
            raise SweepConfigError(f"gate {gate!r} has no parameter {name!r}; choose from {allowed}")


@dataclass(frozen=True)
class SweepConfig:
    gate: str
    sweep_param: str
    start: float
    stop: float
    points: int
    fixed: Mapping[str, float] = field(default_factory=dict)
    scale: str = "linear"
    p_values: tuple[float, ...] = (1.0,)
    with_input_threshold: bool = False
    jobs: int = 1

    def __post_init__(self):
        _check_params(self.gate, (self.sweep_param, *self.fixed))
        if self.sweep_param in self.fixed:
            raise SweepConfigError(f"parameter {self.sweep_param!r} is both fixed and swept")
        if self.points < 1:
            raise SweepConfigError("points must be at least 1")
        if self.points > 1 and not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise SweepConfigError(
                f"sweep range of {self.sweep_param!r} must be finite, got {self.start}:{self.stop}"
            )
        if self.points > 1 and self.start == self.stop:
            raise SweepConfigError(f"empty range for swept parameter {self.sweep_param!r}")
        if self.scale not in ("linear", "log"):
            raise SweepConfigError("scale must be 'linear' or 'log'")
        if self.scale == "log" and (self.start <= 0 or self.stop <= 0):
            raise SweepConfigError("log scale needs positive range bounds")
        if not self.p_values:
            raise SweepConfigError("at least one p value is required")
        for p in self.p_values:
            if not 0.0 <= p <= 1.0:
                raise SweepConfigError(f"p value {p} outside [0, 1]")
        if self.jobs < 1:
            raise SweepConfigError("jobs must be at least 1")
        object.__setattr__(self, "fixed", dict(self.fixed))
        object.__setattr__(self, "p_values", tuple(float(p) for p in self.p_values))

    def grid(self) -> np.ndarray:
        if self.points == 1:
            return np.array([float(self.start)])
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepRow:
    """One emitted line: a (grid point, p) pair."""

    param: str
    value: float
    p: float
    hom: float
    hom_err: float | None
    input_threshold: float | None
    output_threshold: float | None
    warnings: str = ""

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in _ROW_KEYS}


def build_model(gate: str, values: Mapping[str, float | np.ndarray]) -> GateModel | GateBatch:
    """Gate model from a flat parameter mapping (CLI vocabulary); the batch of
    N points when some values are arrays of one value per point, and then a
    SweepConfigError's ``point`` is the first point that does not configure."""
    _check_params(gate, values)
    values = dict(values)
    if gate == "atom-mech" and "g" in values:
        g = values.pop("g")
        values = {"gA": g, "gM": g, **values}
    params, builder = GATES[gate]
    for f in fields(params):
        if f.default is MISSING and f.name not in values:
            raise SweepConfigError(f"gate {gate!r} is missing parameter {f.name!r}")
    try:
        return builder(params(**values))
    except ValueError as exc:
        error = SweepConfigError(str(exc))
        error.point = getattr(exc, "point", 0)
        raise error from None


def build_batch(gate: str, values: Mapping[str, float | np.ndarray]) -> tuple[GateBatch | None, SweepConfigError | None]:
    """The gate models of a batch of points from a flat parameter mapping (CLI
    vocabulary) whose swept values are arrays of one value per point: the
    batch of the points before the earliest one that does not configure (None
    if that is the first), and that point's SweepConfigError (None if every
    point configures).  A failing build names some failing point; the points
    before it are built again until they all configure, so the error is the
    one the earliest failing point gives alone.  Point i of the batch is the
    model :func:`build_model` builds from point i's values alone, bit for bit."""
    n, error = max(np.size(v) for v in values.values()), None
    while n:
        try:
            return build_model(gate, {k: v[:n] if isinstance(v, np.ndarray) else v for k, v in values.items()}), error
        except SweepConfigError as exc:
            n, error = exc.point, exc
    return None, error


def _point_rows(config: SweepConfig, value: float, batch: GateBatch, i: int, objective) -> list[SweepRow]:
    """All rows of grid point i of a slice's batch: its build error, or its
    threshold, when ``objective`` is its prebuilt threshold objective, and
    the elements of its sectors."""
    in_thr, warnings = None, ""
    try:
        if batch.errors[i] is not None:
            raise batch.errors[i]
        if objective is not None:
            thr = input_threshold(objective)
            in_thr, warnings = thr.value, ";".join(thr.warnings)
        results = [sector_element(batch.sectors[i], InputSpec(p, p)) for p in config.p_values]
        elements = [(res.value, res.error_estimate) for res in results]
    except NumericalDomainError as exc:
        in_thr, warnings = None, f"numerical-domain failure: {exc}"
        elements = [(math.nan, None)] * len(config.p_values)
    out_thr = output_threshold()
    return [
        SweepRow(config.sweep_param, value, p, hom, hom_err, in_thr, out_thr, warnings)
        for p, (hom, hom_err) in zip(config.p_values, elements)
    ]


def _evaluate_slice(config: SweepConfig, values: Sequence[float]) -> list[list[SweepRow]]:
    """Row groups of a slice's grid points: one build and one element jet for
    the whole slice and, in a threshold table, one build of the threshold
    objectives of every ``OBJECTIVE_CHUNK`` points.  A point that does not
    configure raises the slice's first configuration error before any row."""
    batch, error = build_batch(config.gate, {**config.fixed, config.sweep_param: np.array(values)})
    if error:
        raise error
    groups = []
    for first in range(0, len(batch), OBJECTIVE_CHUNK):
        points = range(first, min(first + OBJECTIVE_CHUNK, len(batch)))
        objectives = {}
        if config.with_input_threshold:
            ok = [i for i in points if batch.errors[i] is None]
            objectives = dict(zip(ok, averaged_elements(batch.kernels[ok], batch.jet[ok])))
        groups += [_point_rows(config, values[i], batch, i, objectives.get(i)) for i in points]
    return groups


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate the whole grid, in grid order.

    The sweep uses ``n = min(jobs, points // POINTS_PER_PROCESS)``
    processes for a threshold table and only the calling process for an
    element-only one.  Slice k is every n-th grid point from point k, and
    each slice is one batch; the caller computes slice 0 while ``n - 1``
    forked workers compute one slice each, and every worker is joined
    before this returns or raises.  A grid with a point that does not
    configure computes no rows, input thresholds included: the sweep
    configures the whole grid before it forks, and raises the
    configuration error earliest in grid order, as at ``jobs=1``.
    Per-point numerical failures become warning rows with NaN elements;
    the sweep only raises :class:`SweepNumericalError` when every grid
    point failed.
    """
    values = config.grid().tolist()
    n = min(config.jobs, len(values) // POINTS_PER_PROCESS) if config.with_input_threshold else 1
    if n <= 1:
        groups = _evaluate_slice(config, values)
    else:
        # the whole grid configures before a worker forks, so a point that
        # does not configure raises here, and no slice computes a row
        _, error = build_batch(config.gate, {**config.fixed, config.sweep_param: np.array(values)})
        if error:
            raise error
        with ProcessPoolExecutor(max_workers=n - 1) as pool:
            futures = [pool.submit(_evaluate_slice, config, values[k::n]) for k in range(1, n)]
            slices = [_evaluate_slice(config, values[::n]), *(f.result() for f in futures)]
        groups = [None] * len(values)
        for k, part in enumerate(slices):
            groups[k::n] = part
    rows = [row for group in groups for row in group]
    if rows and all(math.isnan(row.hom) for row in rows):
        raise SweepNumericalError("every grid point failed numerically")
    return rows


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------

def _cell(x: str | float | None) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def render_csv(rows: Iterable[SweepRow]) -> str:
    lines = [CSV_HEADER, *(",".join(map(_cell, row.as_dict().values())) for row in rows)]
    return "\n".join(lines) + "\n"


def render_json(rows: Iterable[SweepRow]) -> str:
    def clean(row: SweepRow) -> dict:
        d = row.as_dict()
        if d["hom"] is not None and math.isnan(d["hom"]):
            d["hom"] = None
        return d

    return json.dumps([clean(r) for r in rows], indent=2) + "\n"


def write_text(text: str, path: str | None):
    """Write text as UTF-8 with LF line endings; path None → stdout."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def emit(rows: Sequence[SweepRow], out_format: str, path: str | None):
    """Write rows as CSV or JSON through :func:`write_text`."""
    if out_format == "csv":
        write_text(render_csv(rows), path)
    elif out_format == "json":
        write_text(render_json(rows), path)
    else:
        raise SweepConfigError(f"unknown output format {out_format!r}")


# ----------------------------------------------------------------------
# Optimum search
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OptimumResult:
    argmax: Mapping[str, float]
    value: float
    interior: bool
    boundary_params: tuple[str, ...] = ()


def find_optimum(
    gate: str,
    fixed: Mapping[str, float],
    free: Mapping[str, tuple[float, float]],
    p: float = 1.0,
    grid: int = 15,
) -> OptimumResult:
    """Maximize the p-input bunching element over 1–2 free parameters.

    Scores ``grid`` evenly spaced values per free parameter as one batch
    (the first outermost; of equal values the first grid point is kept),
    then climbs from the best grid point with
    :func:`~qnd_hom.thresholds.ascend` on the box of ranges, by central
    differences at 1e-4 of each range, clipped to the box; each stencil
    and its centre are one batch.  The earliest failing point of a batch,
    in grid (or stencil) order, raises its error.  A boundary optimum is
    flagged (``interior=False``), never fatal.
    """
    names = list(free)
    if not 1 <= len(names) <= 2:
        raise SweepConfigError("find_optimum needs 1 or 2 free parameters")
    for name, (lo, hi) in free.items():
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise SweepConfigError(f"range of free parameter {name!r} must be finite, got {lo}:{hi}")
        if not hi > lo:
            raise SweepConfigError(f"empty range for free parameter {name!r}")
        if name in fixed:
            raise SweepConfigError(f"parameter {name!r} is both fixed and free")
    if grid < 1:
        raise SweepConfigError("grid must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise SweepConfigError(f"input fraction p must lie in [0, 1], got {p}")

    spec = InputSpec(p, p)

    def elements(points: list) -> list[float]:
        """The element at each point (free values in ``names`` order), as one
        batch; the earliest failing point, in order, raises its error."""
        columns = {name: np.array(column) for name, column in zip(names, zip(*points))}
        batch, error = build_batch(gate, {**fixed, **columns})
        values = []
        for failure, sectors in zip(batch.errors, batch.sectors) if batch is not None else ():
            if failure is not None:
                raise failure
            values.append(sector_element(sectors, spec).value)
        if error:
            raise error
        return values

    lo, hi = np.array([free[k] for k in names]).T
    points = list(itertools.product(*(np.linspace(a, b, grid).tolist() for a, b in zip(lo, hi))))
    scores = elements(points)
    best_pt = points[scores.index(max(scores))]
    box = list(zip(lo.tolist(), hi.tolist()))

    def at(x):  # unit box → parameters
        return [min(max(a + u * (b - a), a), b) for u, (a, b) in zip(x, box)]

    def fg(x):  # the central-difference stencil and the centre, as one batch
        x, stencil = x.tolist(), []
        for i, u in enumerate(x):
            up, down = x.copy(), x.copy()
            up[i], down[i] = min(u + 1e-4, 1.0), max(u - 1e-4, 0.0)
            stencil += [up, down]
        f = elements([at(y) for y in stencil + [x]])
        return f[-1], [(f[2 * i] - f[2 * i + 1]) / (stencil[2 * i][i] - stencil[2 * i + 1][i]) for i in range(len(x))]

    x, value = ascend(fg, (np.array(best_pt) - lo) / (hi - lo), 1.0 / max(grid - 1, 1))
    at_boundary = tuple(name for name, u in zip(names, x) if min(u, 1.0 - u) < 5e-3)
    return OptimumResult(
        argmax=dict(zip(names, at(x.tolist()))),
        value=float(value),
        interior=not at_boundary,
        boundary_params=at_boundary,
    )


# ----------------------------------------------------------------------
# Figure presets
# ----------------------------------------------------------------------

def _preset(gate, sweep, start, stop, fixed, p_values) -> SweepConfig:
    return SweepConfig(
        gate=gate, sweep_param=sweep, start=start, stop=stop, points=80,
        fixed=fixed, p_values=p_values, with_input_threshold=True,
    )


PRESETS: dict[str, SweepConfig] = {
    # ideal-gate overview: element vs gain for decreasing input purity
    "methods-ideal": _preset(
        "ideal", "G", 0.0, 3.0, {}, (1.0, 0.7, 0.48, 0.4),
    ),
    # pulsed atomic gate, element vs coupling
    "fig2a": _preset(
        "atom-light", "g", 0.005, 0.2,
        {"kappa_tau": 100.0, "eta": 0.9}, (1.0, 0.78, 0.55),
    ),
    # pulsed optomechanical gate at low reheating (the companion curve
    # uses Gamma=1e-3; override via config)
    "fig2b": _preset(
        "optomech", "g", 0.005, 0.2,
        {"kappa_tau": 100.0, "eta": 0.9, "Gamma": 1e-4}, (1.0, 0.78, 0.55),
    ),
    # hybrid gate, element vs coupling at the pulse-length optimum
    "fig3a": _preset(
        "atom-mech", "g", 0.005, 0.2,
        {"kappa_tau": 90.0, "eta": 0.9, "Gamma": 1e-4, "S": 7.0},
        (1.0, 0.93, 0.67, 0.63),
    ),
    # hybrid gate, element vs pulse length at fixed coupling
    "fig3b": _preset(
        "atom-mech", "kappa_tau", 10.0, 300.0,
        {"g": 0.07, "eta": 0.9, "Gamma": 1e-4, "S": 7.0}, (1.0,),
    ),
    # appendix panels: lossless references
    "app-atomlight": _preset(
        "atom-light", "g", 0.005, 0.2, {"kappa_tau": 100.0, "eta": 1.0}, (1.0,),
    ),
    "app-mechlight": _preset(
        "optomech", "g", 0.005, 0.2,
        {"kappa_tau": 100.0, "eta": 1.0, "Gamma": 1e-3}, (1.0,),
    ),
    "app-atommech-coupling": _preset(
        "atom-mech", "g", 0.005, 0.2,
        {"kappa_tau": 90.0, "eta": 0.8, "Gamma": 1e-4, "S": 7.0}, (1.0,),
    ),
    "app-atommech-squeezing": _preset(
        "atom-mech", "S", 0.0, 14.0,
        {"g": 0.07, "kappa_tau": 90.0, "eta": 0.8, "Gamma": 1e-4}, (1.0,),
    ),
}


def preset_config(name: str, **overrides) -> SweepConfig:
    if name not in PRESETS:
        raise SweepConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    config = PRESETS[name]
    return replace(config, **overrides) if overrides else config
