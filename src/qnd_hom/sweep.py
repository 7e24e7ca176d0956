"""Declarative parameter sweeps, figure presets, and table emission.

A sweep is: one gate kind, fixed parameters, one swept parameter over a
grid, and a list of input fractions p.  Every grid point yields one row
per p with the bunching element, its error estimate (0: the element is
exact), the output threshold and, when requested, the input threshold.
The input threshold and the element's four input sectors are computed
once per grid point and shared across the p rows: the threshold depends
only on the gate, and each p row is a bilinear combination of the
sectors.

Grid points are independent.  ``jobs`` bounds the number of processes a
sweep uses, the calling process included: a threshold table forks only
when it has at least 8 points, and an element-only table always runs in
the calling process.  The grid is cut into strided slices, the caller
computes the first and each forked worker one other, and the rows are
reassembled in grid order, so the emitted file (and the message of a
configuration error) is byte-identical at any ``jobs``.
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

from . import metrics  # hom_sectors is looked up here, where tests substitute it
from .gates import GATES, GateModel
from .gaussian import NumericalDomainError
from .metrics import InputSpec, hom_element_for_gate, sector_element
from .thresholds import ascend, input_threshold, output_threshold

GATE_KINDS = tuple(GATES)

# parameter vocabulary per gate kind: the params fields, plus atom-mech's
# "g", which sets both couplings (gA and gM override it)
_GATE_PARAMS = {gate: tuple(f.name for f in fields(params)) for gate, (params, _) in GATES.items()}
_GATE_PARAMS["atom-mech"] = ("g", *_GATE_PARAMS["atom-mech"])

# Threshold points a sweep needs per process before it forks one (2-core
# box, Python 3.11.7, numpy 2.4.6).  A threshold takes ~8-16 ms; a bare fork
# and join cost 4 ms, the executor's start and stop 8 ms, and copy-on-write
# ~5 ms on a worker's first point, so a second process pays from about 4
# points each: atom-mech tables of 4 and 8 points took 43 and 76 ms in one
# process against 43 and 67 ms through a pool.  Element points never paid
# for a worker: 1,280 element-only atom-mech points took 308 ms in one
# process against 344 ms on two, at ~0.35 ms a point (~0.29 ms since the
# element reads two scalar kernels).
POINTS_PER_PROCESS = 4

CSV_HEADER = "param,value,p,hom,hom_err,input_threshold,output_threshold,warnings"
_ROW_KEYS = tuple(CSV_HEADER.split(","))


class SweepConfigError(ValueError):
    """Invalid sweep configuration (CLI exit code 1)."""


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


def build_model(gate: str, values: Mapping[str, float]) -> GateModel:
    """Gate model from a flat parameter mapping (CLI vocabulary)."""
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
        raise SweepConfigError(str(exc)) from None


def _evaluate_point(task: tuple[SweepConfig, float]) -> list[SweepRow]:
    """All rows of one grid point."""
    config, value = task
    in_thr, warnings = None, ""
    try:
        model = build_model(config.gate, {**config.fixed, config.sweep_param: value})
        if config.with_input_threshold:
            thr = input_threshold(model)
            in_thr, warnings = thr.value, ";".join(thr.warnings)
        sectors = metrics.hom_sectors(model)
        results = [sector_element(sectors, InputSpec(p, p)) for p in config.p_values]
        elements = [(res.value, res.error_estimate) for res in results]
    except NumericalDomainError as exc:
        in_thr, warnings = None, f"numerical-domain failure: {exc}"
        elements = [(math.nan, None)] * len(config.p_values)
    out_thr = output_threshold()
    return [
        SweepRow(config.sweep_param, float(value), p, hom, hom_err, in_thr, out_thr, warnings)
        for p, (hom, hom_err) in zip(config.p_values, elements)
    ]


def _evaluate_slice(tasks: Sequence[tuple[SweepConfig, float]]):
    """Row groups of a slice's grid points, up to its first configuration error."""
    groups = []
    for task in tasks:
        try:
            groups.append(_evaluate_point(task))
        except SweepConfigError as exc:
            return groups, exc
    return groups, None


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate the whole grid, in grid order.

    The sweep uses ``n = min(jobs, points // POINTS_PER_PROCESS)``
    processes for a threshold table and only the calling process for an
    element-only one.  Slice k is every n-th grid point from point k; the
    caller computes slice 0 while ``n - 1`` forked workers compute one
    slice each, and every worker is joined before this returns or raises.
    A configuration error raises the one earliest in grid order, as at
    ``jobs=1``.  Per-point numerical failures become warning rows with
    NaN elements; the sweep only raises :class:`SweepNumericalError`
    when every grid point failed.
    """
    tasks = [(config, float(v)) for v in config.grid()]
    n = min(config.jobs, len(tasks) // POINTS_PER_PROCESS) if config.with_input_threshold else 1
    if n <= 1:
        groups = [_evaluate_point(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n - 1) as pool:
            futures = [pool.submit(_evaluate_slice, tasks[k::n]) for k in range(1, n)]
            slices = [_evaluate_slice(tasks[::n]), *(f.result() for f in futures)]
        # slice k failed at its next grid point, k + n * len(part)
        errors = [(k + n * len(part), exc) for k, (part, exc) in enumerate(slices) if exc]
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
        groups = [None] * len(tasks)
        for k, (part, _) in enumerate(slices):
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

    Scores ``grid`` evenly spaced values per free parameter (the first
    outermost; equal values keep grid order), then climbs from the best
    grid point with :func:`~qnd_hom.thresholds.ascend` on the box of
    ranges, by central differences at 1e-4 of each range, clipped to the
    box.  A boundary optimum is flagged (``interior=False``), never
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

    def objective(*point: float) -> float:
        values = dict(fixed)
        for name, x in zip(names, point):
            values[name] = float(x)
        model = build_model(gate, values)
        return hom_element_for_gate(model, InputSpec(p, p)).value

    lo, hi = np.array([free[k] for k in names]).T
    axes = [np.linspace(a, b, grid) for a, b in zip(lo, hi)]
    best_pt = max(((objective(*x), x) for x in itertools.product(*axes)), key=lambda t: t[0])[1]
    at = lambda x: np.clip(lo + x * (hi - lo), lo, hi)  # unit box → parameters

    def fg(x):
        grad = np.empty(x.size)
        for i, e in enumerate(1e-4 * np.eye(x.size)):
            up, down = np.minimum(x + e, 1.0), np.maximum(x - e, 0.0)
            grad[i] = (objective(*at(up)) - objective(*at(down))) / (up[i] - down[i])
        return objective(*at(x)), grad

    x, value = ascend(fg, (np.array(best_pt) - lo) / (hi - lo), 1.0 / max(grid - 1, 1))
    at_boundary = tuple(name for name, u in zip(names, x) if min(u, 1.0 - u) < 5e-3)
    return OptimumResult(
        argmax=dict(zip(names, map(float, at(x)))),
        value=float(value),
        interior=not at_boundary,
        boundary_params=at_boundary,
    )


# ----------------------------------------------------------------------
# Figure presets
# ----------------------------------------------------------------------

def _preset(gate, sweep, start, stop, fixed, p_values, points=80, **kw) -> SweepConfig:
    return SweepConfig(
        gate=gate, sweep_param=sweep, start=start, stop=stop, points=points,
        fixed=fixed, p_values=p_values, with_input_threshold=True, **kw,
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
