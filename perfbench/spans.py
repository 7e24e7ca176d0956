"""Spans around the program's layer boundaries, recorded from outside.

``Tracer.install`` replaces each layer function by a timing wrapper at
the module attribute its callers look it up through, and restores the
originals on exit.  Spans are kept in memory as per-name aggregates:
calls, self time (span minus its direct child spans), every span's
duration, the element spans nested anywhere below it, and the results of
the input-threshold calls (for their phase-sample counts).
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from dataclasses import dataclass, field

import qnd_hom.cli
import qnd_hom.gates
import qnd_hom.sweep
import qnd_hom.thresholds

ELEMENT = "metrics.element"
THRESHOLD = "thresholds.input_threshold"

# span name -> every (module, attribute) through which the program and
# the benchmark's workloads look the layer function up
LAYERS = {
    "cli.main": ((qnd_hom.cli, "main"),),
    "sweep.run_sweep": ((qnd_hom.cli, "run_sweep"), (qnd_hom.sweep, "run_sweep")),
    "sweep.find_optimum": ((qnd_hom.sweep, "find_optimum"),),
    THRESHOLD: ((qnd_hom.sweep, "input_threshold"),),
    "thresholds.find_crossing": ((qnd_hom.thresholds, "find_crossing"),),
    ELEMENT: ((qnd_hom.sweep, "hom_element_for_gate"),),
    "gates.build_model": ((qnd_hom.sweep, "build_model"),),
    "modes.orthogonalize": ((qnd_hom.gates, "orthogonalize_noise_modes"),),
}


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    elements: int = 0
    durations: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)


@dataclass
class _Frame:
    child_s: float = 0.0
    elements: int = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, LayerStats] = {name: LayerStats() for name in LAYERS}
        self.top_s = 0.0
        self.spans = 0
        self._stack: list[_Frame] = []

    def wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        keep_results = name == THRESHOLD  # small objects, few calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if keep_results:
                    stats.results.append(result)
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.self_s += dt - frame.child_s
                stats.elements += frame.elements
                stats.durations.append(dt)
                self.spans += 1
                if stack:
                    stack[-1].child_s += dt
                    if name == ELEMENT:
                        for outer in stack:
                            outer.elements += 1
                else:
                    self.top_s += dt

        return traced

    @contextlib.contextmanager
    def install(self):
        """Wrap every layer in ``LAYERS`` for the duration of the block."""
        saved = {name: getattr(*sites[0]) for name, sites in LAYERS.items()}
        try:
            for name, sites in LAYERS.items():
                traced = self.wrap(name, saved[name])
                for mod, attr in sites:
                    setattr(mod, attr, traced)
            yield self
        finally:
            for name, sites in LAYERS.items():
                for mod, attr in sites:
                    setattr(mod, attr, saved[name])


def per_call_overhead_s(samples: int = 20000) -> float:
    """Cost one span adds, from a wrapped versus a bare no-op call."""
    def noop():
        return None

    wrapped = Tracer().wrap(ELEMENT, noop)
    best = []
    for fn in (noop, wrapped):
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(samples):
                fn()
            runs.append((time.perf_counter() - t0) / samples)
        best.append(min(runs))
    return max(best[1] - best[0], 0.0)


def p50_ms(durations: list[float]) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0
