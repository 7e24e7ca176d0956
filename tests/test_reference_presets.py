"""Every figure preset, recomputed, against the committed reference table.

``tests/data/reference_presets.csv`` is written by
``scripts/reference_presets.py`` and never by the tests: a value that
moves shows up here, and a move made on purpose shows up in the data
diff of the change that regenerates the file.
"""

import csv
import io
from dataclasses import replace
from pathlib import Path

from qnd_hom.sweep import PRESETS, render_csv, run_sweep

REFERENCE = Path(__file__).resolve().parent / "data" / "reference_presets.csv"
POINTS = 10
EXACT = ("param", "value", "p", "hom_err", "output_threshold", "warnings")
CLOSE = ("hom", "input_threshold")  # to 1e-15 absolute


def test_presets_match_the_reference_table():
    with open(REFERENCE, newline="", encoding="utf-8") as fh:
        stored = list(csv.DictReader(fh))
    fresh = [
        {"preset": name, **row}
        for name, config in PRESETS.items()
        for row in csv.DictReader(io.StringIO(render_csv(run_sweep(replace(config, points=POINTS, jobs=1)))))
    ]
    assert [(r["preset"], r["value"], r["p"]) for r in fresh] == [(r["preset"], r["value"], r["p"]) for r in stored]
    for old, new in zip(stored, fresh):
        where = (old["preset"], old["value"], old["p"])
        for key in EXACT:
            assert new[key] == old[key], (*where, key)
        for key in CLOSE:
            assert new[key] == old[key] or abs(float(new[key]) - float(old[key])) <= 1e-15, (*where, key)
