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
Each subcommand accepts only the keys it uses; any other key is an
error, with a hint when it looks like a misspelling.  Sweeps take their
gate's parameters and the sweep controls (``sweep``, ``start``, ``stop``,
``points``, ``scale``, ``p``, ``input_threshold``, ``out``, ``format``,
``jobs``); ``threshold`` takes the gate parameters and ``out``;
``optimum`` takes the fixed gate parameters and ``out``; ``preset``
takes no file.  The gate parameters are the fields of the params
dataclasses in :data:`qnd_hom.gates.GATES`, plus atom-mech's ``g``,
which sets both couplings; a value out of range is an error that names
it.  Each key is also a flag, except the gate parameters on ``optimum``
(use ``--fix``).  A ``gate`` key may repeat the chosen gate, and a
``format`` or ``scale`` value outside its choices is an error when the
file is read.  A negative value may be written ``-1e-3``.  The input
threshold has no settings: its amplitude search and its 64 phase
samples are fixed.  Precedence: ``QND_HOM_JOBS`` (default parallelism)
< configuration file < flags; each must give at least 1 job.

Exit codes: 0 success, 1 configuration error, 2 fatal numerical
failure, 3 output I/O error (for a bad ``out`` path, before any work).
"""

from __future__ import annotations

import argparse
import difflib
import errno
import functools
import json
import os
import re
import sys
from dataclasses import replace

from .gaussian import NumericalDomainError
from .sweep import (
    _GATE_PARAMS,
    GATE_KINDS,
    PRESETS,
    SweepConfig,
    SweepConfigError,
    SweepNumericalError,
    build_model,
    emit,
    find_optimum,
    run_sweep,
    write_text,
)
from .thresholds import input_threshold, output_threshold


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered not in ("true", "yes", "on", "1", "false", "no", "off", "0"):
        raise ValueError(f"not a boolean: {text!r}")
    return lowered in ("true", "yes", "on", "1")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


_PARAMS = tuple(sorted({name for names in _GATE_PARAMS.values() for name in names}))

# every setting's value type, shared by config files, flags and QND_HOM_JOBS
_TYPES = {
    "gate": str, "sweep": str, "scale": str, "out": str, "format": str,
    "start": float, "stop": float, "points": int, "jobs": int,
    "p": _floats, "input_threshold": _bool,
    **dict.fromkeys(_PARAMS, float),
}
_CHOICES = {"scale": ("linear", "log"), "format": ("csv", "json")}
_HELP = {
    "sweep": "name of the swept parameter",
    "p": "comma-separated input fractions",
    "out": "output path (default: stdout)",
    "jobs": "at most this many processes, the calling one included",
}

# setting -> the SweepConfig field it sets
_FIELDS = {"scale": "scale", "p": "p_values", "input_threshold": "with_input_threshold", "jobs": "jobs"}

_SWEEP = ("sweep", "start", "stop", "points", "scale", "p", "input_threshold")
_TABLE = ("out", "format", "jobs")

# subcommand -> (keys set by flag or config file, keys set by config file
# only); None: no config file
_KEYS: dict[str, tuple[tuple[str, ...], tuple[str, ...] | None]] = {
    **{gate: (_GATE_PARAMS[gate] + _SWEEP + _TABLE, ("gate",)) for gate in GATE_KINDS},
    "threshold": (_PARAMS + ("out",), ("gate",)),
    "optimum": (("out",), _PARAMS + ("gate",)),
    "preset": (_TABLE, None),
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1 and takes every
    negative number float() reads, such as ``-1e-3`` or ``-inf``, as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern only knows -1 and -0.5 forms
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        raise SweepConfigError(message)


def _coerce(key: str, value: str, where: str):
    try:
        typed = _TYPES[key](value)
    except ValueError as exc:
        raise SweepConfigError(f"{where}: bad value for {key!r}: {exc}") from None
    choices = _CHOICES.get(key)
    if choices and typed not in choices:
        raise SweepConfigError(f"{where}: bad value for {key!r}: choose from {choices}")
    return typed


def parse_config_file(path: str, keys=tuple(_TYPES), command: str = "qnd-hom") -> dict:
    """Flat ``key = value`` file → dict with typed values; a key outside
    ``keys`` is an error."""
    settings: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise SweepConfigError(f"{where}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise SweepConfigError(f"{where}: empty key or value")
            if key not in keys:
                close = difflib.get_close_matches(key, keys, n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                raise SweepConfigError(f"{where}: {command} does not use key {key!r}{hint}")
            settings[key] = _coerce(key, value, where)
    return settings


def _resolve(args: argparse.Namespace) -> dict:
    """Settings of one run: ``QND_HOM_JOBS`` < config file < flags."""
    flagged, file_only = _KEYS[args.command]
    settings: dict = {}
    env = os.environ.get("QND_HOM_JOBS")
    if env and "jobs" in flagged:
        settings["jobs"] = _coerce("jobs", env, "QND_HOM_JOBS")
    if getattr(args, "config", None):
        settings.update(parse_config_file(args.config, flagged + file_only, args.command))
    settings.update({k: getattr(args, k) for k in flagged if getattr(args, k) is not None})
    gate = getattr(args, "gate", None)
    if settings.setdefault("gate", gate) != gate:
        raise SweepConfigError(f"config file sets gate={settings['gate']!r} but {gate!r} was chosen")
    return settings


def _run_table(config: SweepConfig, settings: dict) -> int:
    """Run a sweep under the table settings and emit its rows."""
    config = replace(config, **{_FIELDS[k]: v for k, v in settings.items() if k in _FIELDS})
    emit(run_sweep(config), settings.get("format", "csv"), settings.get("out"))
    return 0


def _check_out(out: str | None):
    """Fail as ``open(out, "w")`` would if ``out`` or its directory is not
    usable; the file itself is touched only once its output is ready, and
    then rewritten in place (:func:`~qnd_hom.sweep.write_text`)."""
    if out is None:
        return
    if not out:
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), out)
    try:
        # the trailing separator makes a regular file fail with ENOTDIR
        os.stat(os.path.join(os.path.dirname(out) or ".", ""))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from None
    if os.path.isdir(out):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), out)


def _gate_values(settings: dict) -> dict:
    return {k: settings[k] for k in _PARAMS if k in settings}


def _cmd_sweep(args: argparse.Namespace, settings: dict) -> int:
    fixed = _gate_values(settings)
    sweep_param = settings.get("sweep", _GATE_PARAMS[args.gate][0])
    start, stop = settings.get("start"), settings.get("stop")
    points = settings.get("points", 80)
    if start is None and stop is None and sweep_param in fixed:
        # single-point evaluation at the fixed value
        if "points" in settings:
            raise SweepConfigError("points needs a sweep range (--start/--stop)")
        start = stop = fixed.pop(sweep_param)
        points = 1
    if start is None or stop is None:
        raise SweepConfigError(
            f"no sweep range: give --start/--stop or fix --{sweep_param.replace('_', '-')}"
        )
    return _run_table(SweepConfig(args.gate, sweep_param, start, stop, points, fixed), settings)


def _cmd_threshold(args: argparse.Namespace, settings: dict) -> int:
    model = build_model(args.gate, _gate_values(settings))
    result = input_threshold(model)
    record = {
        "gate": args.gate,
        "input_threshold": result.value,
        "argmax": list(result.argmax),
        "phase_samples": result.phase_samples,
        "converged": result.converged,
        "warnings": list(result.warnings),
        "output_threshold": output_threshold(),
    }
    write_text(json.dumps(record, indent=2) + "\n", settings.get("out"))
    return 0


def _assignments(specs: list[str], flag: str, form: str, parse) -> dict:
    """``NAME=VALUE`` strings → {NAME: parse(VALUE)}; a name may appear once."""
    parsed = {}
    for spec in specs:
        name, _, value = spec.partition("=")
        name = name.strip()
        if name in parsed:
            raise SweepConfigError(f"{flag} names {name!r} more than once")
        try:
            parsed[name] = parse(value)
        except ValueError:
            raise SweepConfigError(f"bad {flag} {spec!r}; expected {form}") from None
    return parsed


def _range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    return float(lo), float(hi)


def _cmd_optimum(args: argparse.Namespace, settings: dict) -> int:
    fixed = {**_gate_values(settings), **_assignments(args.fix, "--fix", "NAME=VALUE", float)}
    free = _assignments(args.free, "--free", "NAME=LO:HI", _range)
    result = find_optimum(args.gate, fixed, free, p=args.p, grid=args.grid)
    record = {
        "gate": args.gate,
        "argmax": dict(result.argmax),
        "value": result.value,
        "interior": result.interior,
        "boundary_params": list(result.boundary_params),
    }
    write_text(json.dumps(record, indent=2) + "\n", settings.get("out"))
    return 0


def _cmd_preset(args: argparse.Namespace, settings: dict) -> int:
    return _run_table(PRESETS[args.name], settings)


def _add_flags(parser: argparse.ArgumentParser, keys: tuple[str, ...]):
    for key in keys:
        flag = "--" + key.replace("_", "-")
        if _TYPES[key] is _bool:
            group = parser.add_mutually_exclusive_group()
            group.add_argument(flag, dest=key, action="store_true", default=None)
            group.add_argument("--no-" + flag[2:], dest=key, action="store_false", default=None)
        else:
            parser.add_argument(
                flag, dest=key, type=_TYPES[key], choices=_CHOICES.get(key), help=_HELP.get(key)
            )


@functools.lru_cache(maxsize=1)  # parse_args leaves the parser as it was
def build_parser() -> _Parser:
    parser = _Parser(prog="qnd-hom", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str, **defaults) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        flagged, file_only = _KEYS[name]
        if file_only is not None:
            sp.add_argument("--config", help="flat key=value configuration file")
        _add_flags(sp, flagged)
        sp.set_defaults(run=run, **defaults)
        return sp

    for gate in GATE_KINDS:
        command(gate, _cmd_sweep, f"sweep the {gate} gate", gate=gate)

    thr = command("threshold", _cmd_threshold, "thresholds for one gate configuration")
    thr.add_argument("--gate", required=True, choices=GATE_KINDS)

    opt = command("optimum", _cmd_optimum, "maximize the element over free parameters")
    opt.add_argument("--gate", required=True, choices=GATE_KINDS)
    opt.add_argument(
        "--free", action="append", required=True, metavar="NAME=LO:HI",
        help="free parameter with range (repeat for two)",
    )
    opt.add_argument("--fix", action="append", default=[], metavar="NAME=VALUE")
    opt.add_argument("--p", type=float, default=1.0, help="input fraction")
    opt.add_argument("--grid", type=int, default=15, help="coarse grid per axis")

    pre = command("preset", _cmd_preset, "run a pinned figure configuration")
    pre.add_argument("name", choices=sorted(PRESETS))

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        settings = _resolve(args)
        _check_out(settings.get("out"))
        return args.run(args, settings)
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
