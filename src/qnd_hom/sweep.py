"""Declarative parameter sweeps, figure presets, and table emission.

A sweep is: one gate kind, fixed parameters, one swept parameter over a
grid, and a list of input fractions p.  Every grid point yields one row
per p with the bunching element, its error estimate (0: the element is
exact), the output threshold and, when requested, the input threshold.
The input threshold and the element's four input sectors are computed
once per grid point and shared across the p rows: the threshold depends
only on the gate, and each p row is a bilinear combination of the
sectors.

A table is built once, in the calling process: the whole grid is one
batch (:func:`build_batch`), with one stacked physicality check and one
element jet, whose errors and sectors the rows read.  When input
thresholds are requested, they are the only work that is shared out:
the threshold objectives of every ``OBJECTIVE_CHUNK`` points that built
are built together from the batch's kernels and jets, and each point's
threshold is then found from its own.  A point's numbers do not depend on
its batch or chunk, and a point that fails numerically fails only its
own rows.  ``jobs`` bounds the number of processes a sweep uses, the
calling process included: a threshold table forks only when it has
``POINTS_PER_PROCESS`` grid points per process, and an element-only table
always runs in the calling process.  The threshold points are cut into
strided slices, the caller computes the first and each forked worker one
other, from nothing but the slice's kernels and jets, and the caller
writes every row in grid order, so the emitted file (and the message of
a configuration error) is byte-identical at any ``jobs``.

:func:`find_optimum` scores its whole grid as one batch, takes its first
Newton step off the grid's own second differences, and reads each later
step off one wide stencil batch: the fourth-order gradient and Hessian at
the point, so a 1-D search takes about 4 batches and a 2-D one about 8.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .gates import GATES, GateBatch, GateModel
from .gaussian import NumericalDomainError
from .metrics import InputSpec, hom_element_for_gate, sector_element  # hom_element_for_gate: perfbench reads it here
from .thresholds import ThresholdResult, averaged_elements, input_threshold, output_threshold

GATE_KINDS = tuple(GATES)

# parameter vocabulary per gate kind: the params fields, plus atom-mech's
# "g", which sets both couplings (gA and gM override it)
_GATE_PARAMS = {gate: tuple(f.name for f in fields(params)) for gate, (params, _) in GATES.items()}
_GATE_PARAMS["atom-mech"] = ("g", *_GATE_PARAMS["atom-mech"])
# the params fields without a default, per gate kind
_REQUIRED = {gate: tuple(f.name for f in fields(params) if f.default is MISSING) for gate, (params, _) in GATES.items()}

# Threshold points a sweep needs per process before it forks one (2-core
# box, Python 3.11.7, numpy 2.4.6).  A threshold takes about 0.7 ms, and an
# 8-point threshold table took 6-8 ms in one process against 13-17 ms
# through a pool at jobs=2, so a second process pays from about 20 points
# each: fig2a-shaped atom-light tables of 24, 32, 36, 40, 44 and 80 points
# were faster through the pool in 1, 1-4, 8, 14-17, 18 and 14 of 20
# alternated pairs, and fig3a-shaped atom-mech tables in 0, 3-8, 5, 6-12, 9
# and 20 (one or two sets of pairs).  Element points never pay for a
# worker: a slice is one batch, and 1,280 element-only atom-mech points (4 p
# each) take 27-29 ms in one process, ~0.02 ms a point, against 166-168 ms
# when each point was its own build and jet.
POINTS_PER_PROCESS = 20

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
    for name in _REQUIRED[gate]:
        if name not in values:
            raise SweepConfigError(f"gate {gate!r} is missing parameter {name!r}")
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


def _point_rows(config: SweepConfig, value: float, error, sectors: list, threshold) -> list[SweepRow]:
    """All rows of one grid point: its build error, or the elements of its
    sectors (plain floats) beside its input threshold, when one was found."""
    in_thr, warnings = None, ""
    try:
        if error is not None:
            raise error
        if threshold is not None:
            in_thr, warnings = threshold.value, ";".join(threshold.warnings)
        results = [sector_element(sectors, InputSpec(p, p)) for p in config.p_values]
        elements = [(res.value, res.error_estimate) for res in results]
    except NumericalDomainError as exc:
        in_thr, warnings = None, f"numerical-domain failure: {exc}"
        elements = [(math.nan, None)] * len(config.p_values)
    out_thr = output_threshold()
    return [
        SweepRow(config.sweep_param, value, p, hom, hom_err, in_thr, out_thr, warnings)
        for p, (hom, hom_err) in zip(config.p_values, elements)
    ]


def _thresholds(kernels: np.ndarray, jet: np.ndarray) -> list[ThresholdResult]:
    """The input thresholds of points from their stacked kernels and jets:
    one build of the threshold objectives of every ``OBJECTIVE_CHUNK``
    points, then each point's threshold from its own.  A forked worker's
    whole share of a sweep: it builds no model and writes no row."""
    return [
        input_threshold(objective)
        for first in range(0, len(jet), OBJECTIVE_CHUNK)
        for objective in averaged_elements(kernels[first : first + OBJECTIVE_CHUNK], jet[first : first + OBJECTIVE_CHUNK])
    ]


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate the whole grid, in grid order.

    The calling process builds the whole grid as one batch, so a grid with
    a point that does not configure raises the configuration error earliest
    in grid order and computes no rows, input thresholds included.  A
    threshold table then finds the input thresholds of the points that
    built in ``n = min(jobs, points // POINTS_PER_PROCESS)`` processes:
    slice k is every n-th of those points from the k-th, the caller
    computes slice 0 while ``n - 1`` forked workers compute one slice each
    (:func:`_thresholds`), and every worker is joined before this returns
    or raises.  An element-only table runs in the calling process alone.
    The caller writes every row.  Per-point numerical failures become
    warning rows with NaN elements; the sweep only raises
    :class:`SweepNumericalError` when every grid point failed.
    """
    grid = config.grid()
    batch, error = build_batch(config.gate, {**config.fixed, config.sweep_param: grid})
    if error:
        raise error
    found = {}
    if config.with_input_threshold:
        ok = [i for i, failure in enumerate(batch.errors) if failure is None]
        n = max(min(config.jobs, len(grid) // POINTS_PER_PROCESS), 1)
        slices = [(batch.kernels[ok[k::n]], batch.jet[ok[k::n]]) for k in range(n)]
        if n == 1:
            parts = [_thresholds(*slices[0])]
        else:
            from concurrent.futures import ProcessPoolExecutor  # imported here: most runs never fork

            with ProcessPoolExecutor(max_workers=n - 1) as pool:
                futures = [pool.submit(_thresholds, *part) for part in slices[1:]]
                parts = [_thresholds(*slices[0]), *(f.result() for f in futures)]
        found = dict(zip((i for k in range(n) for i in ok[k::n]), itertools.chain(*parts)))
    rows = [
        row
        for i, (value, sectors) in enumerate(zip(grid.tolist(), batch.sectors.tolist()))
        for row in _point_rows(config, value, batch.errors[i], sectors, found.get(i))
    ]
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
    then climbs from the best grid point by projected Newton steps
    (:func:`_step`) in the unit box of the ranges, inside a trust radius
    of one grid cell.  The first step from an interior grid point is read
    off the grid's own second differences, each later one off one batch,
    the stencil of :func:`_newton_stencil`; if the element falls on the
    grid's step, the climb goes on from the stencil there, and the grid
    point is returned if the climb ends below it.  A step that lowers the
    element is retried from the same derivatives at a quarter of its
    length, unless it is a Newton step whose model gain is below the
    element's roundoff (4 ulp).  The climb stops when the gradient is
    within the stencil's roundoff, at a step below ``_STEP_TOL`` of the
    box, at a gradient step that gains less than the roundoff, or after
    ``_MAX_STEPS`` stencils; the value returned is the element at the
    returned argmax, bit for bit.  The earliest failing point of a batch,
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
    box = [free[name] for name in names]

    def at(x):  # unit box → parameters
        return [min(max(a + u * (b - a), a), b) for u, (a, b) in zip(x, box)]

    def elements(points: list) -> list[float]:
        """The element at each point of the unit box, as one batch; the
        earliest failing point, in order, raises its error."""
        columns = {name: np.array(column) for name, column in zip(names, zip(*map(at, points)))}
        batch, error = build_batch(gate, {**fixed, **columns})
        values = []
        for failure, sectors in zip(batch.errors, batch.sectors.tolist()) if batch is not None else ():
            if failure is not None:
                raise failure
            values.append(sector_element(sectors, spec).value)
        if error:
            raise error
        return values

    n, cell = len(names), 1.0 / max(grid - 1, 1)
    axis = np.linspace(0.0, 1.0, grid).tolist()
    points = [list(x) for x in itertools.product(axis, repeat=n)]
    scores = elements(points)
    best = scores.index(max(scores))
    x, f = points[best], scores[best]
    index = divmod(best, grid) if n == 2 else (best,)
    y = x
    if all(0 < k < grid - 1 for k in index):  # a Newton step on the grid's own fit
        fit, _, newton = _step(x, *_grid_fit(scores, index, grid), cell)
        y = fit if newton else x
    f_y, g, H = _newton_stencil(elements, y)
    # if the grid's step fell, the climb goes on from there, the grid point its floor
    floor = (x, f) if f_y < f else None
    x, f, radius = y, f_y, cell
    for _ in range(_MAX_STEPS):
        y, gain, newton = _step(x, g, H, radius)
        roundoff = 4.0 * math.ulp(f)
        if (
            all(abs(g[k]) * _STENCIL_H <= 4.0 * roundoff for k in _free(x, g))  # the stencil's own roundoff
            or max(abs(v - u) for u, v in zip(x, y)) <= _STEP_TOL
            or not newton and gain <= roundoff
        ):
            break
        f_y, g_y, H_y = _newton_stencil(elements, y)
        if f_y >= f or gain <= roundoff:  # the roundoff of f cannot judge so small a step
            x, f, g, H = y, f_y, g_y, H_y
        else:
            radius = 0.25 * math.dist(x, y)
    if floor and f < floor[1]:
        x, f = floor
    at_boundary = tuple(name for name, u in zip(names, x) if min(u, 1.0 - u) < 5e-3)
    return OptimumResult(
        argmax=dict(zip(names, at(x))),
        value=float(f),
        interior=not at_boundary,
        boundary_params=at_boundary,
    )


# Newton climb of find_optimum, in the unit box of the free ranges: the
# stencil's spacing, the step below which the climb stops, and the most
# stencils a climb evaluates
_STENCIL_H = 1e-3
_STEP_TOL = 1e-10
_MAX_STEPS = 50


def _grid_fit(scores, index, grid):
    """Gradient and Hessian, in unit-box coordinates, from the central
    differences of the grid's scores around the interior grid point
    ``index`` (one index per axis, the first outermost)."""
    d = 1.0 / (grid - 1)
    P = np.array(scores).reshape((grid,) * len(index))[tuple(slice(k - 1, k + 2) for k in index)].tolist()
    if len(index) == 1:
        return [(P[2] - P[0]) / (2.0 * d)], [[(P[2] - 2.0 * P[1] + P[0]) / (d * d)]]
    mixed = (P[2][2] - P[2][0] - P[0][2] + P[0][0]) / (4.0 * d * d)
    return (
        [(P[2][1] - P[0][1]) / (2.0 * d), (P[1][2] - P[1][0]) / (2.0 * d)],
        [[(P[2][1] - 2.0 * P[1][1] + P[0][1]) / (d * d), mixed],
         [mixed, (P[1][2] - 2.0 * P[1][1] + P[1][0]) / (d * d)]],
    )


def _newton_stencil(elements, x):
    """The element at ``x`` and its gradient and Hessian there, in unit-box
    coordinates, from one batch.  Each axis holds the quartic through five
    points at spacing h along it; in 2-D, two squares of corners, at ±h and
    ±2h, give the mixed term by Richardson extrapolation.  The points centre
    on ``x``; within 2h of a face an axis's five points move inside the box
    and its quartic is read at ``x``, and the corners centre on the point
    moved inside on every axis."""
    h, n = _STENCIL_H, len(x)
    c = [min(max(u, 2.0 * h), 1.0 - 2.0 * h) for u in x]
    points, lines = [list(x)], []
    for k in range(n):
        line = []
        for offset in (-2.0 * h, -h, 0.0, h, 2.0 * h):
            y = list(x)
            y[k] = c[k] + offset
            if y == x:
                line.append(0)
            else:
                line.append(len(points))
                points.append(y)
        lines.append(line)
    if n == 2:
        points += [[c[0] + a, c[1] + b] for r in (h, 2.0 * h) for a in (r, -r) for b in (r, -r)]
    f = elements(points)
    g, H = [0.0] * n, [[0.0] * n for _ in range(n)]
    for k, line in enumerate(lines):
        m2, m1, f0, p1, p2 = (f[i] for i in line)
        d1 = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)
        d2 = (16.0 * (p1 + m1) - (p2 + m2) - 30.0 * f0) / (12.0 * h * h)
        d3 = ((p2 - m2) - 2.0 * (p1 - m1)) / (2.0 * h ** 3)
        d4 = ((p2 + m2) - 4.0 * (p1 + m1) + 6.0 * f0) / h ** 4
        t = x[k] - c[k]
        g[k] = d1 + t * (d2 + t * (d3 / 2.0 + t * d4 / 6.0))
        H[k][k] = d2 + t * (d3 + t * d4 / 2.0)
    if n == 2:
        near, far = ((pp - pm - mp + mm) for pp, pm, mp, mm in (f[-8:-4], f[-4:]))
        H[0][1] = H[1][0] = (16.0 * near - far) / (48.0 * h * h)
    return f[0], g, H


def _free(x, g):
    """The coordinates a step may move: those off the faces of the unit box,
    and those on a face that their gradient points away from."""
    return [k for k, (u, gk) in enumerate(zip(x, g)) if (u > 0.0 or gk > 0.0) and (u < 1.0 or gk < 0.0)]


def _step(x, g, H, radius):
    """The trust-region step from ``x`` on the model g·s + ½sᵀHs, in the unit
    box: the point it reaches, the model's gain there, and whether it is a
    Newton step.  A coordinate on a face that its gradient points out of is
    held; the others take the Newton step −H⁻¹g of their block when that
    block is negative definite (closed form for 2 × 2), else the Cauchy
    step along the gradient, to the model's maximum on that line or to
    ``radius``.  The step is cut back to ``radius`` and then to the box
    along its own direction, and a held coordinate stays on its face."""
    n, free = len(x), _free(x, g)
    s, newton = [0.0] * n, True
    if len(free) == 1:
        (k,) = free
        newton = H[k][k] < 0.0
        if newton:
            s[k] = -g[k] / H[k][k]
    elif len(free) == 2:
        (a, b), (_, c) = H
        det = a * c - b * b
        newton = a < 0.0 and det > 0.0
        if newton:
            s = [(b * g[1] - c * g[0]) / det, (b * g[0] - a * g[1]) / det]
    p = [g[k] if k in free else 0.0 for k in range(n)]
    if not newton and any(p):  # the Cauchy step
        t = radius / math.hypot(*p)
        curvature = sum(p[i] * H[i][j] * p[j] for i in range(n) for j in range(n))
        if curvature < 0.0:
            t = min(t, sum(q * q for q in p) / -curvature)
        s = [t * q for q in p]
    length = math.hypot(*s)
    t = min(1.0, radius / length) if length else 0.0
    for k in free:  # back to the box, from inside it
        if s[k] > 0.0 and x[k] < 1.0:
            t = min(t, (1.0 - x[k]) / s[k])
        elif s[k] < 0.0 and x[k] > 0.0:
            t = min(t, -x[k] / s[k])
    y = [min(max(u + t * v, 0.0), 1.0) for u, v in zip(x, s)]
    d = [v - u for u, v in zip(x, y)]
    gain = sum(gk * dk for gk, dk in zip(g, d)) + 0.5 * sum(d[i] * H[i][j] * d[j] for i in range(n) for j in range(n))
    return y, gain, newton


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
