"""The benchmark's three workloads: inputs from a seed, the timed call into
the program's public API, and the checks of every output.

A seed only shifts each swept range by a fraction of one grid step, so
every seed exercises the same code paths on slightly different points.
The inputs of the two named faults stay fixed whatever the seed:

* F1 — the identity gate (ideal G = 0, beam splitter T = 0 and T = 1)
  returns a slightly negative element;
* F2 — at small occupation n the extrapolated element is far off
  (n = 1e-4) or far outside [0, 1] (n = 1e-5).

Operations on those inputs carry the fault's tag; a failure of any other
operation is unexpected and makes the run incorrect.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import qnd_hom.cli
import qnd_hom.sweep
import qnd_hom.thresholds
from qnd_hom.metrics import DEFAULT_OCCUPATION, InputSpec
from qnd_hom.sweep import SweepConfig

import oracles

# A program function looked up through its module at call time goes
# through the span wrappers while a traced round runs; the originals,
# bound here, serve the checks, which are never traced.
_build_model = qnd_hom.sweep.build_model
_element = qnd_hom.sweep.hom_element_for_gate
_phase_averaged = qnd_hom.thresholds.phase_averaged_element

CLOSED_FORM_TOL = 1e-4   # ideal and beam-splitter rows against their closed forms
THRESHOLD_TOL = 1e-6     # input threshold against e^-2 and against probes (its convergence tolerance)
OPTIMUM_TOL = 1e-4       # optimum value against probe elements and E11(G*)
PROBE_SAMPLES = 256      # phase samples of probe evaluations: the most input_threshold uses
THRESHOLD_PROBES = ((1.0, 1.0), (2.0, 0.6))  # (R_a, R_b) quadrature amplitudes
OPTIMUM_PROBES = (0.25, 0.5, 0.75)           # fractions of each free range


@dataclass
class Checks:
    """Every checked operation, and the ones that failed, by name."""

    attempted: int = 0
    failures: list[tuple[str, str | None]] = field(default_factory=list)  # (message, fault tag)

    def check(self, name: str, ok: bool, detail: str = "", fault: str | None = None):
        self.attempted += 1
        if not ok:
            tag = f" [{fault}]" if fault else ""
            self.failures.append((f"{name}{tag}: {detail}", fault))


def _shift(lo: float, hi: float, points: int, frac: float, pin_start: bool = False):
    """Range moved up by frac of one grid step; with pin_start only the end moves."""
    step = (hi - lo) / (points - 1)
    return (lo if pin_start else lo + frac * step), hi + frac * step


def _in_unit(x: float) -> bool:
    return 0.0 <= x <= 1.0


def _fault_f1(kind: str, value: float) -> str | None:
    if (kind == "ideal" and value == 0.0) or (kind == "bs" and value in (0.0, 1.0)):
        return "F1"
    return None


def _check_row(checks: Checks, where: str, kind: str, value: float, p: float,
               hom: float, out_thr: float | None) -> float | None:
    """Range, closed form and output-threshold checks of one row.

    Returns |hom - closed form| for the ideal gate, else None.
    """
    name = f"{where} {kind} {value:.6g} p={p:g}"
    fault = _fault_f1(kind, value)
    error = None
    problems = []
    if not _in_unit(hom):
        problems.append(f"element {hom:.6g} outside [0, 1]")
    if kind in ("ideal", "bs"):
        exact = oracles.ideal_mixture(value, p) if kind == "ideal" else oracles.bs_mixture(value, p)
        error = abs(hom - exact)
        if not error <= CLOSED_FORM_TOL:
            problems.append(f"element {hom:.8g} vs closed form {exact:.8g}")
    if out_thr is not None and out_thr != oracles.E_MINUS_2:
        problems.append(f"output threshold {out_thr!r} is not e^-2")
    checks.check(name, not problems, "; ".join(problems), fault)
    return error if kind == "ideal" else None


def _check_p_quadratic(checks: Checks, name: str, ps, homs, errs):
    """The p rows of one model lie on one quadratic (exact bilinearity)."""
    if len(ps) < 4:
        return  # three points always fit
    resid = oracles.quadratic_residual(ps, homs)
    tol = max(errs) + 1e-12
    checks.check(name, resid <= tol, f"p rows deviate {resid:.3g} from a quadratic (hom_err {tol:.3g})")


def _check_threshold(checks: Checks, name: str, model, value: float, at_identity: bool):
    problems = []
    if at_identity and not abs(value - oracles.E_MINUS_2) <= THRESHOLD_TOL:
        problems.append(f"threshold {value:.10g} vs e^-2")
    for ra, rb in THRESHOLD_PROBES:
        probe = _phase_averaged(model, ra, rb, phase_samples=PROBE_SAMPLES)
        if value < probe - THRESHOLD_TOL:
            problems.append(f"threshold {value:.10g} below probe ({ra}, {rb}) = {probe:.10g}")
    checks.check(name, not problems, "; ".join(problems))


# ----------------------------------------------------------------------
# figure-table
# ----------------------------------------------------------------------

# (gate, swept parameter, range, fixed parameters, p list, pin range start)
FIGURE_TABLES = (
    ("ideal", "G", (0.0, 3.0), {}, "1,0.7,0.48,0.4", True),
    ("atom-light", "g", (0.005, 0.2), {"kappa_tau": 100.0, "eta": 0.9}, "1,0.78,0.55", False),
    ("atom-mech", "g", (0.005, 0.2),
     {"kappa_tau": 90.0, "eta": 0.9, "Gamma": 1e-4, "S": 7.0}, "1,0.93,0.67,0.63", False),
)
FIGURE_POINTS = 4


class FigureTable:
    """Preset-shaped tables with the input threshold, through the CLI."""

    name = "figure-table"

    def __init__(self, seed: int, out_dir: Path, jobs: int):
        rng = random.Random(seed)
        self.tables = []
        for gate, param, (lo, hi), fixed, p_list, pin in FIGURE_TABLES:
            start, stop = _shift(lo, hi, FIGURE_POINTS, rng.random(), pin)
            path = out_dir / f"figure-{gate}.csv"
            argv = [gate, "--sweep", param, "--start", repr(start), "--stop", repr(stop),
                    "--points", str(FIGURE_POINTS), "--p", p_list, "--input-threshold",
                    "--jobs", str(jobs), "--out", str(path)]
            for key, val in fixed.items():
                argv += [f"--{key.replace('_', '-')}", repr(val)]
            self.tables.append((gate, param, fixed, argv, path))

    def run(self):
        return [qnd_hom.cli.main(argv) for _, _, _, argv, _ in self.tables]

    def check(self, codes, checks: Checks) -> dict[str, float]:
        ideal_err, threshold_err = 0.0, math.inf
        for (gate, param, fixed, _, path), code in zip(self.tables, codes):
            checks.check(f"{self.name} {gate} exit code", code == 0, f"cli returned {code}")
            if code != 0:
                continue
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            by_point: dict[float, list[dict]] = {}
            for row in rows:
                by_point.setdefault(float(row["value"]), []).append(row)
            for value, group in by_point.items():
                for row in group:
                    err = _check_row(checks, self.name, gate, value, float(row["p"]),
                                     float(row["hom"]), float(row["output_threshold"]))
                    if err is not None:
                        ideal_err = max(ideal_err, err)
                _check_p_quadratic(
                    checks, f"{self.name} {gate} {value:.6g} p-quadratic",
                    [float(r["p"]) for r in group], [float(r["hom"]) for r in group],
                    [float(r["hom_err"]) for r in group],
                )
                thr = float(group[0]["input_threshold"])
                model = _build_model(gate, {**fixed, param: value})
                identity = gate == "ideal" and value == 0.0
                _check_threshold(checks, f"{self.name} {gate} {value:.6g} input threshold",
                                 model, thr, identity)
                if identity:
                    threshold_err = abs(thr - oracles.E_MINUS_2)
        return {"ideal_digits": oracles.digits(ideal_err),
                "threshold_digits": oracles.digits(threshold_err)}


# ----------------------------------------------------------------------
# element-grid
# ----------------------------------------------------------------------

GRID_P = (1.0, 0.78, 0.55, 0.4)
GRID_POINTS = 6
SMALL_N = (1e-4, 1e-5)
ATOM_LIGHT = {"kappa_tau": 100.0, "eta": 0.9}
ATOM_MECH = {"g": 0.07, "kappa_tau": 90.0, "eta": 0.9, "Gamma": 1e-4, "S": 7.0}

# (gate, swept parameter, range, fixed parameters, pin range start)
GRID_SWEEPS = (
    ("ideal", "G", (0.0, 3.0), {}, True),
    ("atom-light", "g", (0.005, 0.2), ATOM_LIGHT, False),
    ("optomech", "g", (0.005, 0.2), {**ATOM_LIGHT, "Gamma": 1e-4}, False),
    ("optomech", "g", (0.005, 0.2), {**ATOM_LIGHT, "Gamma": 1e-3}, False),
    ("atom-mech", "g", (0.005, 0.2), ATOM_MECH, False),
    ("atom-mech", "kappa_tau", (10.0, 300.0), ATOM_MECH, False),
    ("atom-mech", "S", (0.0, 14.0), ATOM_MECH, False),
)


class ElementGrid:
    """Whole sweeps of elements at one job, no thresholds; plus a
    smoothness probe and the small-occupation batch."""

    name = "element-grid"

    def __init__(self, seed: int, out_dir: Path, jobs: int):
        rng = random.Random(seed)
        self.configs = []
        for gate, param, (lo, hi), fixed, pin in GRID_SWEEPS:
            start, stop = _shift(lo, hi, GRID_POINTS, rng.random(), pin)
            fixed = {k: v for k, v in fixed.items() if k != param}
            self.configs.append(SweepConfig(gate, param, start, stop, GRID_POINTS,
                                            fixed=fixed, p_values=GRID_P))
        # beam splitter over [0, 1]: both ends are F1 inputs and stay fixed,
        # the interior points move inside their grid cells
        self.configs.append(SweepConfig("bs", "T", 0.0, 1.0, 2, p_values=GRID_P))
        h = 1.0 / GRID_POINTS
        a = h * (0.05 + 0.9 * rng.random())
        self.configs.append(SweepConfig("bs", "T", a, a + 1.0 - h, GRID_POINTS, p_values=GRID_P))
        frac = rng.random()
        self.probe_g = [0.06 + (k + frac) * 1e-7 for k in range(11)]
        self.small = [(gate, values, n) for n in SMALL_N for gate, values in (
            ("ideal", {"G": oracles.G_STAR}), ("atom-light", {"g": 0.06, **ATOM_LIGHT}))]

    def run(self):
        sweep = qnd_hom.sweep
        tables = [sweep.run_sweep(config) for config in self.configs]
        probe = [sweep.hom_element_for_gate(sweep.build_model("atom-light", {"g": g, **ATOM_LIGHT}),
                                            InputSpec(1.0, 1.0))
                 for g in self.probe_g]
        small = [sweep.hom_element_for_gate(sweep.build_model(gate, values), InputSpec(1.0, 1.0, n))
                 for gate, values, n in self.small]
        return tables, probe, small

    def check(self, outputs, checks: Checks) -> dict[str, float]:
        tables, probe, small = outputs
        ideal_err = 0.0
        for config, rows in zip(self.configs, tables):
            by_point: dict[float, list] = {}
            for row in rows:
                by_point.setdefault(row.value, []).append(row)
            for value, group in by_point.items():
                for row in group:
                    err = _check_row(checks, self.name, config.gate, value, row.p, row.hom,
                                     row.output_threshold)
                    if err is not None:
                        ideal_err = max(ideal_err, err)
                _check_p_quadratic(
                    checks, f"{self.name} {config.gate} {config.sweep_param}={value:.6g} p-quadratic",
                    [r.p for r in group], [r.hom for r in group], [r.hom_err for r in group],
                )
        values = [r.value for r in probe]
        for g, v in zip(self.probe_g, values):
            checks.check(f"{self.name} probe atom-light g={g:.10f}", _in_unit(v),
                         f"element {v:.6g} outside [0, 1]")
        reference = _element(_build_model("atom-light", {"g": 0.06, **ATOM_LIGHT}), InputSpec(1.0, 1.0))
        for (gate, params, n), res in zip(self.small, small):
            name = f"{self.name} small-n {gate} n={n:g}"
            problems = []
            if not _in_unit(res.value):
                problems.append(f"element {res.value:.6g} outside [0, 1]")
            if gate == "ideal":
                exact = oracles.qnd_11(params["G"])
                if not abs(res.value - exact) <= CLOSED_FORM_TOL:
                    problems.append(f"element {res.value:.6g} vs closed form {exact:.6g}")
            else:
                tol = res.error_estimate + reference.error_estimate
                if not abs(res.value - reference.value) <= tol:
                    problems.append(f"element {res.value:.6g} vs {reference.value:.6g} "
                                    f"at n={DEFAULT_OCCUPATION:g} (tolerance {tol:.3g})")
            checks.check(name, not problems, "; ".join(problems), "F2")
        return {"ideal_digits": oracles.digits(ideal_err),
                "smoothness_digits": oracles.digits(oracles.quadratic_residual(
                    [(g - self.probe_g[0]) * 1e7 for g in self.probe_g], values))}


# ----------------------------------------------------------------------
# optimum-search
# ----------------------------------------------------------------------

# (gate, fixed parameters, free ranges, coarse grid).  These inputs do not
# move with the seed: whether a search's simplex meets fatol=1e-10 on the
# noisy element, or runs on to maxiter with about eight times the element
# calls, flips with any sub-step shift of its range, so seeded ranges
# would time which seeds stall rather than how fast the program searches.
# The second ideal search is one such shift; it stalls on every run today.
SEARCHES = (
    ("ideal", {}, {"G": (0.3, 2.0)}, 15),
    ("ideal", {}, {"G": (0.3288957047183011, 2.028895704718301)}, 15),
    ("atom-light", ATOM_LIGHT, {"g": (0.02, 0.15)}, 21),
    ("optomech", {**ATOM_LIGHT, "Gamma": 1e-3}, {"g": (0.02, 0.15)}, 15),
    ("atom-mech", {"eta": 0.9, "Gamma": 1e-4, "S": 7.0},
     {"g": (0.02, 0.2), "kappa_tau": (20.0, 300.0)}, 9),
)
CROSSING_RANGE = (0.3, 1.0)
CROSSING_SCAN = 65
CROSSING_XTOL = 1e-4


class OptimumSearch:
    """Serial optimum searches and one crossing over p; the seed moves the
    crossing's scan grid within one step."""

    name = "optimum-search"

    def __init__(self, seed: int, out_dir: Path, jobs: int):
        self.searches = SEARCHES
        lo, hi = CROSSING_RANGE
        self.crossing_lo = lo + random.Random(seed).random() * (hi - lo) / (CROSSING_SCAN - 1)

    def run(self):
        sweep = qnd_hom.sweep
        optima = [sweep.find_optimum(gate, fixed, free, grid=grid)
                  for gate, fixed, free, grid in self.searches]
        model = sweep.build_model("atom-light", {**ATOM_LIGHT, "g": optima[2].argmax["g"]})
        crossing = qnd_hom.thresholds.find_crossing(
            lambda p: sweep.hom_element_for_gate(model, InputSpec(p, p)).value,
            oracles.E_MINUS_2, self.crossing_lo, CROSSING_RANGE[1],
            xtol=CROSSING_XTOL, scan_points=CROSSING_SCAN,
        )
        return optima, model, crossing

    def check(self, outputs, checks: Checks) -> dict[str, float]:
        optima, model, crossing = outputs
        for (gate, fixed, free, _), best in zip(self.searches, optima):
            problems = []
            names = list(free)
            for frac in OPTIMUM_PROBES:
                point = {k: free[k][0] + frac * (free[k][1] - free[k][0]) for k in names}
                probe = _element(_build_model(gate, {**fixed, **point}), InputSpec(1.0, 1.0)).value
                if best.value < probe - OPTIMUM_TOL:
                    problems.append(f"optimum {best.value:.8g} below probe {point} = {probe:.8g}")
            if gate == "ideal":
                exact = oracles.qnd_11(oracles.G_STAR)
                if not abs(best.value - exact) <= OPTIMUM_TOL:
                    problems.append(f"optimum {best.value:.8g} vs E11(G*) = {exact:.8g}")
            ranges = ", ".join(f"{k}=[{lo:.6g}, {hi:.6g}]" for k, (lo, hi) in free.items())
            checks.check(f"{self.name} {gate} optimum over {ranges}", not problems, "; ".join(problems))

        ps = (0.0, 0.5, 1.0)
        results = [_element(model, InputSpec(p, p)) for p in ps]
        found = oracles.quadratic_root(ps, [r.value for r in results], oracles.E_MINUS_2,
                                       self.crossing_lo, CROSSING_RANGE[1])
        if found is None or crossing is None:
            checks.check(f"{self.name} crossing", found is None and crossing is None,
                         f"crossing {crossing} vs quadratic root {found}")
        else:
            root, slope = found
            tol = CROSSING_XTOL + max(r.error_estimate for r in results) / slope
            checks.check(f"{self.name} crossing", abs(crossing - root) <= tol,
                         f"crossing {crossing:.8g} vs quadratic root {root:.8g} (tolerance {tol:.3g})")
        ideal = optima[0]
        return {"ideal_digits": oracles.digits(abs(ideal.value - oracles.qnd_11(oracles.G_STAR))),
                "argmax_digits": oracles.digits(abs(ideal.argmax["G"] - oracles.G_STAR))}


WORKLOADS = {cls.name: cls for cls in (FigureTable, ElementGrid, OptimumSearch)}

# the workload-specific accuracy each workload reports as oracle_digits
ORACLE_DIGITS = {
    "figure-table": "threshold_digits",
    "element-grid": "smoothness_digits",
    "optimum-search": "argmax_digits",
}
