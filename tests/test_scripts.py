"""The scripts under scripts/ run against the current library API."""

import dataclasses
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import qnd_hom
from qnd_hom.sweep import CSV_HEADER

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_presets(monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", ["run_presets.py", *argv])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "run_presets.py"), run_name="__main__")
    assert done.value.code == 0


def test_run_presets_writes_one_table(tmp_path, monkeypatch, capsys):
    # the preset runs on a 2-point grid without thresholds, so the check
    # covers the script's calls, not the cost of the full table
    seen = []
    real = qnd_hom.run_sweep

    def small_sweep(config):
        seen.append(config)
        return real(dataclasses.replace(config, points=2, with_input_threshold=False))

    monkeypatch.setattr(qnd_hom, "run_sweep", small_sweep)
    _run_presets(monkeypatch, "--out-dir", str(tmp_path), "--jobs", "2", "--format", "json", "fig2a")
    assert [(c.gate, c.jobs) for c in seen] == [("atom-light", 2)]
    text = (tmp_path / "fig2a.json").read_text()
    assert text.startswith("[") and text.count('"param": "g"') == 2 * 3
    assert "fig2a: 6 rows" in capsys.readouterr().out


def test_run_presets_csv_header(tmp_path, monkeypatch):
    monkeypatch.setattr(qnd_hom, "run_sweep", lambda config: [])
    _run_presets(monkeypatch, "--out-dir", str(tmp_path), "fig3b")
    assert (tmp_path / "fig3b.csv").read_text() == CSV_HEADER + "\n"


def test_landmarks_runs():
    src = Path(qnd_hom.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "landmarks.py")], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "== hybrid gate" in done.stdout
    assert "input threshold" in done.stdout.splitlines()[-1]


def test_reference_presets_writes_every_preset(tmp_path, monkeypatch):
    # each preset on a 2-point grid without thresholds: the check covers
    # the script's table layout, not the cost of the reference run
    seen = []
    real = qnd_hom.sweep.run_sweep

    def small_sweep(config):
        seen.append(config.points)
        return real(dataclasses.replace(config, points=2, with_input_threshold=False))

    monkeypatch.setattr(qnd_hom.sweep, "run_sweep", small_sweep)
    out = tmp_path / "reference.csv"
    monkeypatch.setattr(sys, "argv", ["reference_presets.py", "--out", str(out)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "reference_presets.py"), run_name="__main__")
    assert done.value.code == 0
    assert seen == [10] * len(qnd_hom.PRESETS)
    lines = out.read_text().splitlines()
    assert lines[0] == f"preset,{CSV_HEADER}"
    assert [line.split(",")[0] for line in lines[1:]] == [
        name for name, config in qnd_hom.PRESETS.items() for _ in range(2 * len(config.p_values))
    ]


def test_reference_presets_diff_reports_the_largest_move(tmp_path, monkeypatch, capsys):
    # a 2-point table without thresholds stands in for the reference run;
    # one hom cell of fig3a is moved by 3e-16 and one warnings cell changed
    real = qnd_hom.sweep.run_sweep
    monkeypatch.setattr(qnd_hom.sweep, "run_sweep", lambda config: real(
        dataclasses.replace(config, points=2, with_input_threshold=False)))
    table = tmp_path / "reference.csv"

    def run(*argv):
        monkeypatch.setattr(sys, "argv", ["reference_presets.py", "--out", str(table), *argv])
        with pytest.raises(SystemExit) as done:
            runpy.run_path(str(SCRIPTS / "reference_presets.py"), run_name="__main__")
        assert done.value.code == 0

    run()
    lines = table.read_text().splitlines()
    header = lines[0].split(",")
    moved = next(i for i, line in enumerate(lines) if line.startswith("fig3a,"))
    cells = lines[moved].split(",")
    hom = float(cells[header.index("hom")])
    cells[header.index("hom")] = repr(hom + 3e-16)
    cells[header.index("warnings")] = "stale"
    lines[moved] = ",".join(cells)
    stored = "\n".join(lines) + "\n"
    table.write_text(stored)
    capsys.readouterr()
    run("--diff")
    assert table.read_text() == stored  # --diff writes nothing
    report = {line[:24].strip(): line[24:].split() for line in capsys.readouterr().out.splitlines()}
    columns = report.pop("preset")
    assert columns == CSV_HEADER.split(",")
    assert list(report) == [*qnd_hom.PRESETS, "all presets"]
    for name in ("fig3a", "all presets"):
        row = dict(zip(columns, report[name]))
        assert row.pop("hom") == f"{hom + 3e-16 - hom:.1e}"
        assert row.pop("warnings") == "differs"
        assert set(row.values()) == {"0"}
    for name in set(qnd_hom.PRESETS) - {"fig3a"}:
        assert set(report[name]) == {"0"}
