#!/usr/bin/env python3
"""qnd-hom benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload element-grid --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's fixed operations until --seconds have
passed (at least three rounds), checks every output against the oracles
in ``oracles.py``, writes a run record to ``perfbench/records/`` and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The program is imported from ``src/`` of the same checkout; it need not
be installed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 3
SETUP_SAMPLES = 5
# the pool size figure tables are made with; spans inside pool workers are
# not visible, so the traced run uses one job
FIGURE_JOBS = 2


def _import_program():
    if not (SRC / "qnd_hom").is_dir():
        sys.exit(f"perfbench: no program source at {SRC / 'qnd_hom'}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    import qnd_hom.cli
    if Path(qnd_hom.cli.__file__).resolve().parent != (SRC / "qnd_hom").resolve():
        sys.exit(f"perfbench: qnd_hom imported from {qnd_hom.cli.__file__}, not {SRC}")


def setup_seconds() -> list[float]:
    """Wall time of fresh interpreters that import the CLI module."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qnd_hom.cli"], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in SRC.rglob("*.py")),
    }


def _children_cpu_s() -> float:
    """CPU time of the ended child processes, such as the program's pool workers."""
    times = os.times()
    return times.children_user + times.children_system


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, rounds: int, walls: list[float]) -> dict:
    from spans import ELEMENT, THRESHOLD, p50_ms, per_call_overhead_s

    stats = tracer.stats
    out = {}
    for name, st in stats.items():
        out[f"{name}.calls"] = _metric(st.calls / rounds, "count")
        out[f"{name}.self_s"] = _metric(st.self_s / rounds, "s")
    for name in (ELEMENT, "gates.build_model", THRESHOLD):
        out[f"{name}.p50_ms"] = _metric(p50_ms(stats[name].durations), "ms")
    for name in ("sweep.find_optimum", "thresholds.find_crossing"):
        st = stats[name]
        out[f"{name}.elements_per_call"] = _metric(st.elements / st.calls if st.calls else 0.0, "count")
    thresholds = stats[THRESHOLD].results
    out[f"{THRESHOLD}.phase_samples"] = _metric(
        statistics.fmean(r.phase_samples for r in thresholds) if thresholds else 0.0, "count")
    out[f"{THRESHOLD}.unconverged"] = _metric(
        sum(not r.converged for r in thresholds) / rounds, "count")
    out["trace.overhead_s"] = _metric(tracer.spans / rounds * per_call_overhead_s(), "s")
    out["trace.wall_s"] = _metric(statistics.median(walls), "s")
    out["trace.coverage"] = _metric(tracer.top_s / sum(walls), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import probe
    import selftest
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    problems = selftest.check()
    if problems:
        sys.exit("perfbench: oracle self-test failed: " + "; ".join(problems))

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    jobs = FIGURE_JOBS if not args.trace else 1
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir, jobs)
    tracer = Tracer() if args.trace else None

    checks = workloads.Checks()
    walls: list[float] = []
    cpus: list[float] = []  # CPU time of this process in each round
    child_cpus: list[float] = []  # and of the pool workers it ended
    probes: list[float] = []
    accuracy: list[dict[str, float]] = []
    if not tracer:
        probe.probe_s()  # warm-up
    deadline = time.perf_counter() + args.seconds
    while len(walls) < MIN_ROUNDS or time.perf_counter() < deadline:
        with tracer.install() if tracer else contextlib.nullcontext():
            t0, c0, k0 = time.perf_counter(), time.process_time(), _children_cpu_s()
            outputs = workload.run()
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            child_cpus.append(_children_cpu_s() - k0)
        if not tracer:
            probes.extend(probe.probes_after(walls[-1]))
        accuracy.append(workload.check(outputs, checks))
    rounds = len(walls)

    # accuracy is the same every round; keep the worst in case it is not
    named_digits = {key: min(a[key] for a in accuracy) for key in accuracy[0]}
    unexpected = [msg for msg, fault in checks.failures if fault is None]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "round_walls_s": walls,
        "attempted": checks.attempted, "failed": len(checks.failures),
        "attempted_per_round": checks.attempted // rounds,
        "failed_per_round": len(checks.failures) // rounds,
        "failures": sorted(set(msg for msg, _ in checks.failures)),
        "unexpected_failures": sorted(set(unexpected)),
        "accuracy_digits": named_digits,
        "environment": environment(),
    }

    if args.trace:
        metrics = layer_metrics(tracer, rounds, walls)
    else:
        usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setups = setup_seconds()
        # A round's wall time is rescaled by the probe in the share of its
        # CPU work done in this process, where the probe runs; the share
        # done in pool workers is left as measured.
        scale = probe.REFERENCE_S / statistics.median(probes)
        norm = []
        for wall, cpu, child in zip(walls, cpus, child_cpus):
            share = cpu / (cpu + child)
            norm.append(wall * (share * scale + 1.0 - share))
        record["setup_samples_s"] = setups
        record["round_cpus_s"] = cpus
        record["round_child_cpus_s"] = child_cpus
        record["probes_s"] = probes
        record["round_s"] = statistics.median(walls)
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "round_norm_s": _metric(statistics.median(norm), "s"),
            "peak_rss_mb": _metric((usage_self + usage_children) / 1024.0, "MB"),
            "ideal_digits": _metric(named_digits["ideal_digits"], "digits"),
            "oracle_digits": _metric(named_digits[workloads.ORACLE_DIGITS[args.workload]], "digits"),
        }
    record["metrics"] = metrics

    records = HERE / "records"
    records.mkdir(exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for msg in record["failures"]:
        print(f"perfbench: failed: {msg}", file=sys.stderr)
    print(f"perfbench: {rounds} rounds, {checks.attempted} checked, "
          f"{len(checks.failures)} failed; record in {path.relative_to(ROOT)}", file=sys.stderr)

    print(json.dumps({
        "correct": not unexpected,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
