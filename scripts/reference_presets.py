#!/usr/bin/env python3
"""Write the reference table of every figure preset.

    python3 scripts/reference_presets.py                 # tests/data/reference_presets.csv
    python3 scripts/reference_presets.py --out table.csv
    python3 scripts/reference_presets.py --diff          # largest moves, writes nothing

Each preset runs as ``replace(PRESETS[name], points=10)``: 10 points over
its own range, with input thresholds and every p, at one job.  The rows
are the preset's CSV rows behind a first ``preset`` column, presets in
catalog order.  ``tests/test_reference_presets.py`` recomputes the table
and compares it with the file, which the tests never write: regenerate
it only for a change that moves a value on purpose, and report the
largest move per preset and column with that change.  ``--diff``
recomputes the table and prints that report against the file at
``--out`` instead of writing it: the largest |Δ| per preset and column,
``0`` where every cell is identical and ``differs`` where a cell that is
not a number (or is NaN) changed.
"""

import argparse
import csv
import io
import math
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


def diff_report(stored: str, fresh: str) -> str:
    """Largest |Δ| per preset and column between two tables of one row layout."""
    old_rows, new_rows = (list(csv.DictReader(io.StringIO(text))) for text in (stored, fresh))
    if [r["preset"] for r in old_rows] != [r["preset"] for r in new_rows]:
        raise SystemExit("reference_presets: the two tables have different rows")
    columns = CSV_HEADER.split(",")
    worst: dict[str, dict[str, float]] = {}
    for old, new in zip(old_rows, new_rows):
        row = worst.setdefault(new["preset"], dict.fromkeys(columns, 0.0))
        for key in columns:
            if old[key] != new[key]:
                try:
                    delta = abs(float(old[key]) - float(new[key]))
                except ValueError:
                    delta = math.inf
                row[key] = max(row[key], delta if math.isfinite(delta) else math.inf)
    worst["all presets"] = {key: max(row[key] for row in worst.values()) for key in columns}
    cell = lambda d: "0" if d == 0.0 else "differs" if d == math.inf else f"{d:.1e}"
    widths = [max(len(key), 8) for key in columns]
    lines = ["preset".ljust(24) + "  ".join(key.rjust(w) for key, w in zip(columns, widths))]
    for name, row in worst.items():
        lines.append(name.ljust(24) + "  ".join(cell(row[key]).rjust(w) for key, w in zip(columns, widths)))
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default=str(REFERENCE), help="output path, or the table --diff reads")
    parser.add_argument("--diff", action="store_true", help="print the largest move against --out; write nothing")
    args = parser.parse_args()
    if args.diff:
        sys.stdout.write(diff_report(Path(args.out).read_text(encoding="utf-8"), reference_table()))
    else:
        write_text(reference_table(), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
