"""Command-line front end for sweeps, thresholds, and optimum searches.

Subcommands
-----------
``ideal``, ``bs``, ``atom-light``, ``optomech``, ``atom-mech``
    Run a parameter sweep for that gate kind and emit a CSV/JSON table.
``threshold``
    Compute the coherent-state thresholds for one gate configuration.
``optimum``
    Maximize the bunching element over one or two free gate parameters.
``preset <name>``
    Run a named, pinned sweep configuration.

Configuration files (``--config``) use a flat ``key = value`` grammar:
one assignment per line, ``#`` starts a comment, blank lines ignored.
Recognized keys are the sweep controls (``gate``, ``sweep``, ``start``,
``stop``, ``points``, ``scale``, ``p``, ``input_threshold``,
``output_threshold``, ``phase_samples``, ``domain``, ``out``,
``format``, ``jobs``) plus the gate parameters themselves (``G``,
``T``, ``g``, ``gA``, ``gM``, ``kappa_tau``, ``eta``, ``Gamma``,
``S``).  Values given as command-line flags override the file.

Exit codes: 0 success, 1 configuration error, 2 fatal numerical
failure, 3 output I/O error.  ``QND_HOM_JOBS`` sets the default
parallelism when ``--jobs`` is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .gaussian import NumericalDomainError
from .sweep import (
    _GATE_PARAMS,
    PRESETS,
    SweepConfig,
    SweepConfigError,
    SweepNumericalError,
    build_model,
    emit,
    find_optimum,
    preset_config,
    run_sweep,
)
from .thresholds import PhaseAverageOptions, input_threshold, output_threshold

_DEFAULT_SWEEP = {
    "ideal": "G",
    "bs": "T",
    "atom-light": "g",
    "optomech": "g",
    "atom-mech": "g",
}

_BOOL_KEYS = ("input_threshold", "output_threshold")
_INT_KEYS = ("points", "jobs", "phase_samples", "coarse_grid")
_STR_KEYS = ("gate", "sweep", "scale", "out", "format")


class _UsageError(SweepConfigError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` file → dict with typed values."""
    settings: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SweepConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise SweepConfigError(f"{path}:{lineno}: empty key or value")
            settings[key] = _coerce(key, value, where=f"{path}:{lineno}")
    return settings


def _coerce(key: str, value: str, where: str = "config"):
    try:
        if key in _STR_KEYS:
            return value
        if key in _BOOL_KEYS:
            lowered = value.lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        if key in _INT_KEYS:
            return int(value)
        if key == "p":
            return tuple(float(part) for part in value.split(","))
        return float(value)
    except ValueError as exc:
        raise SweepConfigError(f"{where}: bad value for {key!r}: {exc}") from None


def _parse_p(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), dest="out_format")
    parser.add_argument("--jobs", type=int, help="parallel worker processes")
    parser.add_argument("--phase-samples", type=int, help="phase-average sample count")


def _add_gate_params(parser: argparse.ArgumentParser, gate: str):
    for name in _GATE_PARAMS[gate]:
        parser.add_argument(f"--{name.replace('_', '-')}", type=float, dest=name)


def _add_sweep_controls(parser: argparse.ArgumentParser):
    parser.add_argument("--sweep", help="name of the swept parameter")
    parser.add_argument("--start", type=float)
    parser.add_argument("--stop", type=float)
    parser.add_argument("--points", type=int)
    parser.add_argument("--scale", choices=("linear", "log"))
    parser.add_argument("--p", help="comma-separated input fractions")
    thr = parser.add_mutually_exclusive_group()
    thr.add_argument("--input-threshold", dest="input_threshold", action="store_true", default=None)
    thr.add_argument("--no-input-threshold", dest="input_threshold", action="store_false")
    parser.add_argument(
        "--no-output-threshold", dest="output_threshold", action="store_false", default=None
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="qnd-hom", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    for gate in _DEFAULT_SWEEP:
        sp = sub.add_parser(gate, help=f"sweep the {gate} gate")
        _add_gate_params(sp, gate)
        _add_sweep_controls(sp)
        _add_common(sp)

    thr = sub.add_parser("threshold", help="thresholds for one gate configuration")
    thr.add_argument("--gate", required=True, choices=tuple(_DEFAULT_SWEEP))
    for name in sorted({n for names in _GATE_PARAMS.values() for n in names}):
        thr.add_argument(f"--{name.replace('_', '-')}", type=float, dest=name)
    thr.add_argument("--domain", type=float, help="amplitude search bound")
    _add_common(thr)

    opt = sub.add_parser("optimum", help="maximize the element over free parameters")
    opt.add_argument("--gate", required=True, choices=tuple(_DEFAULT_SWEEP))
    opt.add_argument(
        "--free", action="append", required=True, metavar="NAME=LO:HI",
        help="free parameter with range (repeat for two)",
    )
    opt.add_argument("--fix", action="append", default=[], metavar="NAME=VALUE")
    opt.add_argument("--p", type=float, default=1.0, help="input fraction")
    opt.add_argument("--grid", type=int, default=15, help="coarse grid per axis")
    _add_common(opt)

    pre = sub.add_parser("preset", help="run a pinned figure configuration")
    pre.add_argument("name", choices=sorted(PRESETS))
    _add_common(pre)

    return parser


def _jobs_default() -> int:
    env = os.environ.get("QND_HOM_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise SweepConfigError(f"QND_HOM_JOBS is not an integer: {env!r}") from None
    return 1


def _assemble_sweep(gate: str, args: argparse.Namespace) -> SweepConfig:
    settings = parse_config_file(args.config) if args.config else {}
    if settings.get("gate", gate) != gate:
        raise SweepConfigError(
            f"config file sets gate={settings['gate']!r} but the {gate!r} subcommand was used"
        )

    fixed = {k: settings[k] for k in _GATE_PARAMS[gate] if k in settings}
    for name in _GATE_PARAMS[gate]:
        flag = getattr(args, name, None)
        if flag is not None:
            fixed[name] = flag

    sweep_param = args.sweep or settings.get("sweep") or _DEFAULT_SWEEP[gate]
    start = args.start if args.start is not None else settings.get("start")
    stop = args.stop if args.stop is not None else settings.get("stop")
    points = args.points if args.points is not None else settings.get("points")

    if start is None and stop is None and sweep_param in fixed:
        # single-point evaluation at the fixed value
        start = stop = fixed[sweep_param]
        points = 1
    if start is None or stop is None:
        raise SweepConfigError(
            f"no sweep range: give --start/--stop or fix --{sweep_param.replace('_', '-')}"
        )
    fixed.pop(sweep_param, None)

    p_values = _parse_p(args.p) if args.p else settings.get("p", (1.0,))
    phase = PhaseAverageOptions()
    samples = args.phase_samples if args.phase_samples is not None else settings.get("phase_samples")
    if samples is not None:
        phase = replace(phase, phase_samples=samples)
    if "domain" in settings:
        phase = replace(phase, domain=settings["domain"])

    jobs = args.jobs if args.jobs is not None else settings.get("jobs", _jobs_default())

    return SweepConfig(
        gate=gate,
        sweep_param=sweep_param,
        start=float(start),
        stop=float(stop),
        points=int(points if points is not None else 80),
        fixed=fixed,
        scale=args.scale or settings.get("scale", "linear"),
        p_values=p_values,
        with_output_threshold=settings.get("output_threshold", True)
        if args.output_threshold is None else args.output_threshold,
        with_input_threshold=settings.get("input_threshold", False)
        if args.input_threshold is None else args.input_threshold,
        phase_options=phase,
        out_path=args.out or settings.get("out"),
        out_format=args.out_format or settings.get("format", "csv"),
        jobs=int(jobs),
    )


def _cmd_sweep(gate: str, args: argparse.Namespace) -> int:
    config = _assemble_sweep(gate, args)
    rows = run_sweep(config)
    emit(rows, config.out_format, config.out_path)
    return 0


def _gate_values(args: argparse.Namespace, settings: dict, gate: str) -> dict:
    values = {k: settings[k] for k in _GATE_PARAMS[gate] if k in settings}
    for name in _GATE_PARAMS[gate]:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return values


def _cmd_threshold(args: argparse.Namespace) -> int:
    settings = parse_config_file(args.config) if args.config else {}
    gate = args.gate
    model = build_model(gate, _gate_values(args, settings, gate))
    opts = PhaseAverageOptions()
    samples = args.phase_samples if args.phase_samples is not None else settings.get("phase_samples")
    if samples is not None:
        opts = replace(opts, phase_samples=samples)
    domain = args.domain if args.domain is not None else settings.get("domain")
    if domain is not None:
        opts = replace(opts, domain=float(domain))
    result = input_threshold(model, opts)
    record = {
        "gate": gate,
        "input_threshold": result.value,
        "argmax": list(result.argmax),
        "phase_samples": result.phase_samples,
        "converged": result.converged,
        "warnings": list(result.warnings),
        "output_threshold": output_threshold(),
    }
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_free(specs: list[str]) -> dict[str, tuple[float, float]]:
    free: dict[str, tuple[float, float]] = {}
    for spec in specs:
        try:
            name, _, rng = spec.partition("=")
            lo, _, hi = rng.partition(":")
            free[name.strip()] = (float(lo), float(hi))
        except ValueError:
            raise SweepConfigError(f"bad --free {spec!r}; expected NAME=LO:HI") from None
    return free


def _parse_fix(specs: list[str]) -> dict[str, float]:
    fixed: dict[str, float] = {}
    for spec in specs:
        try:
            name, _, value = spec.partition("=")
            fixed[name.strip()] = float(value)
        except ValueError:
            raise SweepConfigError(f"bad --fix {spec!r}; expected NAME=VALUE") from None
    return fixed


def _cmd_optimum(args: argparse.Namespace) -> int:
    settings = parse_config_file(args.config) if args.config else {}
    fixed = {k: v for k, v in settings.items() if k in _GATE_PARAMS[args.gate]}
    fixed.update(_parse_fix(args.fix))
    free = _parse_free(args.free)
    result = find_optimum(args.gate, fixed, free, p=args.p, grid=args.grid)
    record = {
        "gate": args.gate,
        "argmax": dict(result.argmax),
        "value": result.value,
        "interior": result.interior,
        "boundary_params": list(result.boundary_params),
    }
    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_preset(args: argparse.Namespace) -> int:
    overrides = {}
    if args.out is not None:
        overrides["out_path"] = args.out
    if args.out_format is not None:
        overrides["out_format"] = args.out_format
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    elif os.environ.get("QND_HOM_JOBS"):
        overrides["jobs"] = _jobs_default()
    if args.phase_samples is not None:
        overrides["phase_options"] = replace(
            PRESETS[args.name].phase_options, phase_samples=args.phase_samples
        )
    if args.config:
        raise SweepConfigError("preset does not take --config; use the gate subcommands")
    config = preset_config(args.name, **overrides)
    rows = run_sweep(config)
    emit(rows, config.out_format, config.out_path)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in _DEFAULT_SWEEP:
            return _cmd_sweep(args.command, args)
        if args.command == "threshold":
            return _cmd_threshold(args)
        if args.command == "optimum":
            return _cmd_optimum(args)
        if args.command == "preset":
            return _cmd_preset(args)
        raise SweepConfigError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"qnd-hom: {exc}", file=sys.stderr)
        return 1
    except SweepConfigError as exc:
        print(f"qnd-hom: configuration error: {exc}", file=sys.stderr)
        return 1
    except (SweepNumericalError, NumericalDomainError) as exc:
        print(f"qnd-hom: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qnd-hom: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
