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
element jet, whose errors and sectors the rows read.  Every row comes
from one array pass over that batch
(:func:`~qnd_hom.metrics.batch_elements`): the elements of every point at
every p at once, each the one its point gives alone, bit for bit.  When
input thresholds are requested, they are the only work that is shared
out: the threshold objectives of every ``OBJECTIVE_CHUNK`` points that
built are built together from the batch's kernels and jets, and each
point's threshold is then found from its own.  A point's numbers do not
depend on its batch or chunk, and a point that fails numerically fails
only its own rows.  ``jobs`` bounds the number of processes a sweep uses,
the calling process included: a threshold table forks only when it has
``POINTS_PER_PROCESS`` threshold points (grid points that built) per
process, and an element-only table always runs in the calling process.
The threshold points are cut into strided slices, the caller computes
the first and each forked worker one other, from nothing but the slice's
kernels and jets, and the caller writes every row in grid order, so the
emitted file (and the message of a configuration error) is
byte-identical at any ``jobs``.

:func:`find_optimum` scores its whole grid as one batch, takes its first
Newton step off the grid's own second differences, and reads each later
step off one wide stencil batch: in 2-D the fourth-order gradient and
Hessian at the point, in 1-D the degree-6 interpolant through seven
points, whose own top the climb goes to when it lies within the stencil.
So a 1-D search takes about 3 batches and a 2-D one about 7.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .gates import GATES, GateBatch, GateModel
from .metrics import batch_elements, hom_element_for_gate  # hom_element_for_gate: perfbench reads it here
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
# and 20 (one or two sets of pairs).  Points that fail their build have no
# threshold, so only the points that built are counted.  Element points
# never pay for a worker: the table is one batch and one array pass, and
# 1,280 element-only atom-mech points (4 p each) take 10-17 ms in one
# process, 7-11 ms of it the build, ~0.01 ms a point, against 166-168 ms
# when each point was its own build and jet.
POINTS_PER_PROCESS = 20

# Threshold points of a slice whose objectives are built together.  At 64
# phase samples one point's node arrays take 0.1 MB, so a chunk's take
# 1.7 MB; the build costs about 50 µs a point at 16 points, 60 µs at 4 and
# 110 µs alone (2-core box, Python 3.11.7, numpy 2.4.6).
OBJECTIVE_CHUNK = 16

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


class SweepRow(NamedTuple):
    """One emitted line: a (grid point, p) pair.  An immutable named tuple
    whose fields are the CSV columns in order, so :func:`render_csv` formats
    a row in one pass over it; ``as_dict()`` maps each column to its cell."""

    param: str
    value: float
    p: float
    hom: float
    hom_err: float | None
    input_threshold: float | None
    output_threshold: float | None
    warnings: str = ""

    def as_dict(self) -> dict:
        return self._asdict()


CSV_HEADER = ",".join(SweepRow._fields)


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
    built in ``n = min(jobs, built // POINTS_PER_PROCESS)`` processes,
    ``built`` being the number of those points: slice k is every n-th of
    them from the k-th, the caller computes slice 0 while ``n - 1`` forked
    workers compute one slice each (:func:`_thresholds`), and every worker
    is joined before this returns or raises.  An element-only table runs
    in the calling process alone.
    The caller writes every row, point by point, from the elements of the
    whole batch at every p (:func:`~qnd_hom.metrics.batch_elements`): a
    point that failed its build, or whose first element outside [0, 1] (in
    p order) fails, gets one warning row per p with a NaN element and no
    input threshold; any other point gets its elements beside its input
    threshold and that threshold's warnings.  The sweep only raises
    :class:`SweepNumericalError` when every grid point failed.
    """
    grid = config.grid()
    batch, error = build_batch(config.gate, {**config.fixed, config.sweep_param: grid})
    if error:
        raise error
    found = {}
    if config.with_input_threshold:
        ok = [i for i, failure in enumerate(batch.errors) if failure is None]
        n = max(min(config.jobs, len(ok) // POINTS_PER_PROCESS), 1)
        slices = [(batch.kernels[ok[k::n]], batch.jet[ok[k::n]]) for k in range(n)]
        if n == 1:
            parts = [_thresholds(*slices[0])]
        else:
            from concurrent.futures import ProcessPoolExecutor  # imported here: most runs never fork

            with ProcessPoolExecutor(max_workers=n - 1) as pool:
                futures = [pool.submit(_thresholds, *part) for part in slices[1:]]
                parts = [_thresholds(*slices[0]), *(f.result() for f in futures)]
        found = dict(zip((i for k in range(n) for i in ok[k::n]), itertools.chain(*parts)))
    homs, failures = batch_elements(batch.sectors, config.p_values)
    param, p_values, out_thr = config.sweep_param, config.p_values, output_threshold()
    rows, failed = [], 0
    for i, (value, built, ranged, elements) in enumerate(zip(grid.tolist(), batch.errors, failures, homs.tolist())):
        if built or ranged:  # the point's rows keep only its failure
            failed += 1
            warnings = f"numerical-domain failure: {built or ranged}"
            rows += [SweepRow(param, value, p, math.nan, None, None, out_thr, warnings) for p in p_values]
        else:  # hom_err is 0: the element is exact
            threshold = found.get(i)
            in_thr, warnings = (None, "") if threshold is None else (threshold.value, ";".join(threshold.warnings))
            rows += [SweepRow(param, value, p, hom, 0.0, in_thr, out_thr, warnings) for p, hom in zip(p_values, elements)]
    if failed == len(grid):
        raise SweepNumericalError("every grid point failed numerically")
    return rows


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------

def _cell(x: float | None) -> str:
    return "" if x is None else format(x, ".17g")


def render_csv(rows: Iterable[SweepRow]) -> str:
    """The header and one line per row: every number to 17 significant
    digits (``nan`` for a failed element), an empty cell for None."""
    lines = [CSV_HEADER, *(
        f"{param},{value:.17g},{p:.17g},{hom:.17g},{_cell(hom_err)},{_cell(in_thr)},{_cell(out_thr)},{warnings}"
        for param, value, p, hom, hom_err, in_thr, out_thr, warnings in rows
    )]
    return "\n".join(lines) + "\n"


def _json_number(x) -> str:
    """``x`` as :func:`json.dumps` writes it: a float by ``float.__repr__``,
    or NaN, Infinity or -Infinity, None as null, anything else through
    :func:`json.dumps` itself."""
    if type(x) is float:
        if x - x == 0.0:  # finite
            return repr(x)
        return "NaN" if x != x else "Infinity" if x > 0.0 else "-Infinity"
    return "null" if x is None else json.dumps(x)


_json_string = functools.lru_cache(maxsize=256)(json.dumps)  # a table's strings repeat
# one row's object at indent 2, a {} for each value
_JSON_ROW = "  {{\n" + ",\n".join(f"    {json.dumps(name)}: {{}}" for name in SweepRow._fields) + "\n  }}"


def render_json(rows: Iterable[SweepRow]) -> str:
    """The text ``json.dumps(..., indent=2)`` writes for the rows' ``as_dict()``
    with a NaN element as null, written straight from each row's tuple."""
    number = _json_number
    items = [
        _JSON_ROW.format(
            _json_string(param), number(value), number(p), number(None if hom != hom else hom),
            number(hom_err), number(in_thr), number(out_thr), _json_string(warnings),
        )
        for param, value, p, hom, hom_err, in_thr, out_thr, warnings in rows
    ]
    return "[\n" + ",\n".join(items) + "\n]\n" if items else "[]\n"


def write_text(text: str, path: str | None):
    """Write text as UTF-8 with LF line endings; path None → stdout.

    A file is rewritten in place: opened without truncation (created as
    :func:`open` creates it), written from the start, and then, if it is a
    regular file, cut to the written length; a device or a FIFO gets no
    cut.  On ext4 (2-core box, Linux 6.18), truncating and rewriting a
    1 KB file took 80-90 µs in a loop, against 4-7 µs to overwrite it and
    cut the tail.  The text is encoded before the file is opened, so a text that
    cannot be encoded leaves the file as it was."""
    if path is None:
        sys.stdout.write(text)
        return
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


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
    the stencil of :func:`_line_stencil` in 1-D and of
    :func:`_newton_stencil` in 2-D.  In 1-D a Newton step goes instead to
    the top of the stencil's degree-6 interpolant when that top lies
    within 3h of the stencil's centre, in the box and inside the trust
    radius, with p″ < 0 there: from a stencil within 3h of the maximum
    the climb lands on it, and the next stencil stops it.  If the element
    falls on the grid's step, the climb goes on from the stencil there,
    and the grid point is returned if the climb ends below it.  A step that lowers the
    element is retried from the same derivatives at a quarter of its
    length, unless it is a Newton step whose model gain is below the
    element's roundoff (4 ulp).  The climb stops when the gradient is
    within the stencil's roundoff, at a step below ``_STEP_TOL`` of the
    box, at a gradient step that gains less than the roundoff, or after
    ``_MAX_STEPS`` stencils; the value returned is the element at the
    returned argmax, bit for bit.  Each batch maps its points of the unit
    box to parameter columns in plain floats and reads its elements in one
    array pass (:func:`~qnd_hom.metrics.batch_elements`); the earliest
    failing point of a batch, in grid (or stencil) order, raises its
    error.  A boundary optimum is flagged (``interior=False``), never
    fatal.
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

    spans = [(float(lo), float(hi), float(hi) - float(lo)) for lo, hi in (free[name] for name in names)]

    def at(points: list) -> list[list[float]]:
        """Points of the unit box → one column of parameters per free
        parameter, kept in the box, in plain floats: lo + u·(hi − lo), then
        max(·, lo) and min(·, hi)."""
        return [[min(max(lo + u * width, lo), hi) for u in column]
                for (lo, hi, width), column in zip(spans, zip(*points))]

    def elements(points: list) -> list[float]:
        """The element at each point of the unit box, as one batch; the
        earliest failing point, in order, raises its error."""
        batch, error = build_batch(gate, {**fixed, **dict(zip(names, map(np.array, at(points))))})
        if batch is None:
            raise error
        homs, failures = batch_elements(batch.sectors, (p,))
        for built, ranged in zip(batch.errors, failures):
            if built or ranged:
                raise built or ranged
        if error:
            raise error
        return homs[:, 0].tolist()

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
    stencil = _line_stencil if n == 1 else _newton_stencil
    f_y, g, H, top = stencil(elements, y)
    # if the grid's step fell, the climb goes on from there, the grid point its floor
    floor = (x, f) if f_y < f else None
    x, f, radius = y, f_y, cell
    for _ in range(_MAX_STEPS):
        y, gain, newton = _step(x, g, H, radius, top)
        roundoff = 4.0 * math.ulp(f)
        if (
            all(abs(g[k]) * _STENCIL_H <= 4.0 * roundoff for k in _free(x, g))  # the stencil's own roundoff
            or max(abs(v - u) for u, v in zip(x, y)) <= _STEP_TOL
            or not newton and gain <= roundoff
        ):
            break
        f_y, g_y, H_y, top_y = stencil(elements, y)
        if f_y >= f or gain <= roundoff:  # the roundoff of f cannot judge so small a step
            x, f, g, H, top = y, f_y, g_y, H_y, top_y
        else:
            radius = 0.25 * math.dist(x, y)
    if floor and f < floor[1]:
        x, f = floor
    at_boundary = tuple(name for name, u in zip(names, x) if min(u, 1.0 - u) < 5e-3)
    return OptimumResult(
        argmax={name: column[0] for name, column in zip(names, at([x]))},
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


# The 1-D stencil: seven points at u = -3, ..., 3 (x = centre + u·h).  The
# slope of their degree-6 interpolant p is the power series
# p′(u) = Σ_j s_j·u^j, j = 0 to 5, with s_j = (w_0·f(0) + Σ_k w_k·(f(k) ± f(−k))) / w_d,
# + for odd j and − for even: Fornberg's exact weights of the (j + 1)-th
# derivative at u = 0 (Math. Comp. 51, 699 (1988)) over j!.  Row j holds
# the integers (w_0, w_1, w_2, w_3, w_d).
_LINE = 3
_LINE_WEIGHTS = (
    (0, 45, -9, 1, 60),
    (-490, 270, -27, 2, 180),
    (0, -13, 8, -1, 16),
    (56, -39, 12, -1, 36),
    (0, 5, -4, 1, 48),
    (-20, 15, -6, 1, 120),
)
# the Newton iterations on p′ that find the interpolant's top
_TOP_ITERATIONS = 5


def _line_stencil(elements, x):
    """The element at ``x`` (one coordinate), and its gradient and Hessian
    there, in unit-box coordinates, from one batch: the degree-6 polynomial
    p through seven points at spacing h, ±h, ±2h and ±3h about a centre.
    The points centre on ``x``; within 3h of a face they move inside the
    box and p is read at ``x``.  Also p's top: the point that
    ``_TOP_ITERATIONS`` Newton iterations on p′ reach from ``x``, if p″ < 0
    at every iterate and there and the point lies within 3h of the centre;
    else None."""
    h, (u,) = _STENCIL_H, x
    c = min(max(u, _LINE * h), 1.0 - _LINE * h)
    points, line = [[u]], []
    for k in range(-_LINE, _LINE + 1):
        v = c + k * h
        if v == u:
            line.append(0)
        else:
            line.append(len(points))
            points.append([v])
    f = elements(points)
    values = [f[i] for i in line]
    f0, right, left = values[_LINE], values[_LINE + 1 :], values[_LINE - 1 :: -1]
    odd, even = [p - q for p, q in zip(right, left)], [p + q for p, q in zip(right, left)]
    slopes = [
        (sum(w * v for w, v in zip(ws, odd if j % 2 == 0 else even)) + w0 * f0) / d
        for j, (w0, *ws, d) in enumerate(_LINE_WEIGHTS)
    ]
    t = (u - c) / h
    slope, curvature = _line_derivatives(slopes, t)
    top = _line_top(slopes, t)
    return f[0], [slope / h], [[curvature / (h * h)]], None if top is None else c + top * h


def _line_derivatives(slopes, t):
    """p′(t) = Σ_j slopes[j]·t^j and p″(t), by Horner's rule."""
    slope, curvature = slopes[-1], 0.0
    for s in slopes[-2::-1]:
        curvature = curvature * t + slope
        slope = slope * t + s
    return slope, curvature


def _line_top(slopes, t):
    """The point that ``_TOP_ITERATIONS`` Newton iterations on p′ reach from
    t, in units of h, for p′ of :func:`_line_derivatives`, if p″ < 0 at
    every iterate and there and the point lies in [−3, 3]; else None."""
    for _ in range(_TOP_ITERATIONS):
        slope, curvature = _line_derivatives(slopes, t)
        if not curvature < 0.0:
            return None
        t -= slope / curvature
    return t if abs(t) <= _LINE and _line_derivatives(slopes, t)[1] < 0.0 else None


def _newton_stencil(elements, x):
    """The element at ``x`` (two coordinates) and its gradient and Hessian
    there, in unit-box coordinates, from one batch, and no top.  Each axis
    holds the quartic through five points at spacing h along it; two
    squares of corners, at ±h and ±2h, give the mixed term by Richardson
    extrapolation.  The points centre on ``x``; within 2h of a face an
    axis's five points move inside the box and its quartic is read at
    ``x``, and the corners centre on the point moved inside on every axis."""
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
    near, far = ((pp - pm - mp + mm) for pp, pm, mp, mm in (f[-8:-4], f[-4:]))
    H[0][1] = H[1][0] = (16.0 * near - far) / (48.0 * h * h)
    return f[0], g, H, None


def _free(x, g):
    """The coordinates a step may move: those off the faces of the unit box,
    and those on a face that their gradient points away from."""
    return [k for k, (u, gk) in enumerate(zip(x, g)) if (u > 0.0 or gk > 0.0) and (u < 1.0 or gk < 0.0)]


def _step(x, g, H, radius, top=None):
    """The trust-region step from ``x`` on the model g·s + ½sᵀHs, in the unit
    box: the point it reaches, the model's gain there, and whether it is a
    Newton step.  A coordinate on a face that its gradient points out of is
    held; the others take the Newton step −H⁻¹g of their block when that
    block is negative definite (closed form for 2 × 2), else the Cauchy
    step along the gradient, to the model's maximum on that line or to
    ``radius``.  In 1-D the Newton step goes instead to ``top``, the top of
    the stencil's interpolant, when there is one in the box within
    ``radius`` of ``x``.  The step is cut back to ``radius`` and then to the box
    along its own direction, and a held coordinate stays on its face."""
    n, free = len(x), _free(x, g)
    s, newton = [0.0] * n, True
    if len(free) == 1:
        (k,) = free
        newton = H[k][k] < 0.0
        if newton:
            s[k] = -g[k] / H[k][k]
            if top is not None and 0.0 <= top <= 1.0 and abs(top - x[k]) <= radius:
                s[k] = top - x[k]
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
