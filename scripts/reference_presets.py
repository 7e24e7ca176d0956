#!/usr/bin/env python3
"""Write the reference table of every figure preset.

    python3 scripts/reference_presets.py                 # tests/data/reference_presets.csv
    python3 scripts/reference_presets.py --out table.csv

Each preset runs as ``replace(PRESETS[name], points=10)``: 10 points over
its own range, with input thresholds and every p, at one job.  The rows
are the preset's CSV rows behind a first ``preset`` column, presets in
catalog order.  ``tests/test_reference_presets.py`` recomputes the table
and compares it with the file, which the tests never write: regenerate
it only for a change that moves a value on purpose, and report the
largest move per preset and column with that change.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from qnd_hom.sweep import CSV_HEADER, PRESETS, render_csv, run_sweep, write_text

REFERENCE = Path(__file__).resolve().parents[1] / "tests" / "data" / "reference_presets.csv"
POINTS = 10


def reference_table() -> str:
    lines = [f"preset,{CSV_HEADER}"]
    for name, config in PRESETS.items():
        rows = run_sweep(replace(config, points=POINTS, jobs=1))
        lines += [f"{name},{line}" for line in render_csv(rows).splitlines()[1:]]
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default=str(REFERENCE), help="output path")
    args = parser.parse_args()
    write_text(reference_table(), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
