#!/usr/bin/env python3
"""Run one or all figure presets and write their tables to a directory.

    python3 scripts/run_presets.py --out-dir tables --jobs 8 fig2a fig3b
    python3 scripts/run_presets.py --out-dir tables --jobs 8 --all
"""

import argparse
import pathlib
import sys
import time

from qnd_hom import PRESETS, emit, preset_config, run_sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", help="preset names (see --list)")
    parser.add_argument("--all", action="store_true", help="run every preset")
    parser.add_argument("--list", action="store_true", help="list presets and exit")
    parser.add_argument("--out-dir", default="tables")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    if args.list:
        for name, config in sorted(PRESETS.items()):
            print(f"{name:26s} {config.gate:10s} {config.sweep_param} in "
                  f"[{config.start:g}, {config.stop:g}] x{config.points}, "
                  f"p={list(config.p_values)}")
        return 0

    names = sorted(PRESETS) if args.all else args.names
    if not names:
        parser.error("give preset names, --all, or --list")

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        config = preset_config(name, jobs=args.jobs)
        path = out_dir / f"{name}.{args.format}"
        start = time.time()
        rows = run_sweep(config)
        emit(rows, args.format, str(path))
        warned = sum(1 for r in rows if r.warnings)
        note = f", {warned} rows warned" if warned else ""
        print(f"{name}: {len(rows)} rows in {time.time() - start:.1f}s -> {path}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
