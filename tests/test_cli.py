"""Command-line surface: subcommands, config files, exit codes."""

import errno
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import qnd_hom.cli
import qnd_hom.gates
import qnd_hom.sweep
from qnd_hom.cli import build_parser, main, parse_config_file
from qnd_hom.sweep import CSV_HEADER, SweepConfigError, SweepNumericalError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# Sweep subcommands
# ----------------------------------------------------------------------

def test_ideal_single_point(capsys):
    code, out, err = run_cli(capsys, "ideal", "--G", "0.9", "--p", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "G"
    assert float(fields[1]) == 0.9
    assert abs(float(fields[3]) - 0.2602) < 1e-3


def test_ideal_range_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "ideal", "--start", "0", "--stop", "2", "--points", "4", "--p", "1,0.5"
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 8


def test_missing_range_is_config_error(capsys):
    code, _, err = run_cli(capsys, "ideal", "--p", "1")
    assert code == 1
    assert "sweep range" in err


def test_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "ideal", "--G", "0.9", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list) and len(data) == 1
    assert data[0]["param"] == "G"


def test_atom_light_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "atom-light", "--g", "0.06", "--kappa-tau", "100", "--eta", "0.9",
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert abs(float(row[3]) - 0.2278) < 1e-3


def test_occupation_flag_removed(capsys):
    # `--n 1e-5` once printed hom=768 with exit 0; the element is exact
    # and has no occupation, so the flag is a usage error
    code, out, _ = run_cli(
        capsys, "atom-light", "--g", "0.06", "--kappa-tau", "100", "--eta", "0.9",
        "--n", "1e-5",
    )
    assert code == 1
    assert out == ""


def test_out_of_range_element_exits_2(monkeypatch, capsys):
    # an element outside [0, 1] is never emitted with exit code 0
    monkeypatch.setattr(qnd_hom.gates, "hom_jet", lambda det, K: np.full((len(det), 16), 768.0))
    code, out, err = run_cli(capsys, "ideal", "--G", "0.9")
    assert code == 2
    assert out == ""
    assert "numerical failure" in err


@pytest.mark.parametrize("argv,cause", [
    (("atom-light", "--g", "0.06", "--kappa-tau", "1e9", "--eta", "0.9"), "too long"),
    (("atom-mech", "--g", "0.07", "--kappa-tau", "1e300", "--eta", "0.9"), "too long"),
    (("atom-light", "--g", "0.06", "--kappa-tau", "1e-5", "--eta", "0.9"), "too short"),
    (("atom-mech", "--g", "0.07", "--kappa-tau", "1e-4", "--eta", "0.9"), "too short"),
], ids=("atom-light-1e9", "atom-mech-1e300", "atom-light-1e-5", "atom-mech-1e-4"))
def test_a_pulse_length_error_names_its_cause(capsys, argv, cause):
    # the overlaps of a very long pulse round onto ±1 (or its brackets
    # overflow), while a very short pulse's brackets cancel: each is a
    # configuration error that says which
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"qnd-hom: configuration error: kappa_tau={float(argv[4])!r} is {cause} for the pulse constants (")


def test_missing_gate_parameter(capsys):
    code, _, err = run_cli(capsys, "atom-light", "--g", "0.06")
    assert code == 1
    assert "kappa_tau" in err


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, "ideal", "--G", "0.5", "--out", str(path))
    assert code == 0
    assert path.read_text().startswith(CSV_HEADER)


def test_io_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "missing-dir" / "out.csv"
    code, _, err = run_cli(capsys, "ideal", "--G", "0.5", "--out", str(bad))
    assert code == 3


def test_missing_output_directory_fails_before_any_point(tmp_path, monkeypatch, capsys):
    def never_run(*args, **kwargs):
        raise AssertionError("computation ran before the output path was checked")

    for name in ("run_sweep", "input_threshold", "find_optimum"):
        monkeypatch.setattr(qnd_hom.cli, name, never_run)
    plain = tmp_path / "plain.txt"
    plain.write_text("a file\n")
    commands = [
        ("ideal", "--start", "0", "--stop", "1", "--points", "3"),
        ("preset", "fig2a"),
        ("threshold", "--gate", "ideal", "--G", "1"),
        ("optimum", "--gate", "ideal", "--free", "G=0.2:2"),
    ]
    # a missing directory, a path component that is a regular file, a
    # directory, an empty path
    for bad, errno_ in ((tmp_path / "missing-dir" / "x.csv", errno.ENOENT),
                        (plain / "x.csv", errno.ENOTDIR), (tmp_path, errno.EISDIR), ("", errno.ENOENT)):
        with pytest.raises(OSError) as opened:
            open(bad, "w")
        assert opened.value.errno == errno_
        for argv in commands:
            code, out, err = run_cli(capsys, *argv, "--out", str(bad))
            assert (code, out, err) == (3, "", f"qnd-hom: I/O error: {opened.value}\n"), argv
    assert plain.read_text() == "a file\n"

    # an existing file keeps its bytes until its table is ready
    def fail(config):
        raise SweepNumericalError("every grid point failed numerically")

    monkeypatch.setattr(qnd_hom.cli, "run_sweep", fail)
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    code, _, _ = run_cli(capsys, "preset", "fig2a", "--out", str(kept))
    assert code == 2
    assert kept.read_text() == "old\n"


_WRITING_COMMANDS = [
    ("ideal", "--start", "0", "--stop", "1", "--points", "3"),
    ("ideal", "--start", "0", "--stop", "1", "--points", "3", "--format", "json"),
    ("threshold", "--gate", "ideal", "--G", "0.87"),
    ("optimum", "--gate", "ideal", "--free", "G=0.2:2"),
]


@pytest.mark.parametrize("argv", _WRITING_COMMANDS, ids=["csv", "json", "threshold", "optimum"])
def test_out_rewrites_an_existing_file_in_place(tmp_path, capsys, argv):
    # a table and the threshold and optimum records alike: a longer file is
    # cut to the new bytes and a shorter one grows, each the same inode
    # holding what the command prints
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "out"
    for old in (b"#" * (3 * len(expected)), b"#"):
        path.write_bytes(old)
        inode = os.stat(path).st_ino
        assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == expected.encode("utf-8")
        assert os.stat(path).st_ino == inode


@pytest.mark.parametrize("argv", _WRITING_COMMANDS, ids=["csv", "json", "threshold", "optimum"])
def test_out_to_dev_null_and_a_fifo(tmp_path, capsys, argv):
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--out", os.devnull) == (0, "", "")
    if not hasattr(os, "mkfifo"):
        return
    fifo, received = tmp_path / "fifo", []
    os.mkfifo(fifo)

    def drain():
        with open(fifo, "rb") as fh:
            received.append(fh.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    assert run_cli(capsys, *argv, "--out", str(fifo)) == (0, "", "")
    reader.join(timeout=30)
    assert received == [expected.encode("utf-8")]


# ----------------------------------------------------------------------
# Config files
# ----------------------------------------------------------------------

def test_swept_parameter_also_fixed_by_flag_rejected(capsys):
    code, out, err = run_cli(capsys, "ideal", "--G", "1", "--start", "0", "--stop", "2", "--points", "3")
    assert code == 1
    assert out == ""
    assert "configuration error" in err and "'G' is both fixed and swept" in err


def test_swept_parameter_also_fixed_by_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("g = 0.06\nkappa_tau = 100\nsweep = kappa_tau\nstart = 50\nstop = 150\n")
    code, out, err = run_cli(capsys, "atom-light", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert "configuration error" in err and "'kappa_tau' is both fixed and swept" in err


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# ideal sweep\n"
        "gate = ideal\n"
        "sweep = G\n"
        "start = 0.4\n"
        "stop = 0.8\n"
        "points = 3\n"
        "p = 1, 0.5\n"
        "input_threshold = false\n"
    )
    code, out, _ = run_cli(capsys, "ideal", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().split("\n")) == 7


def test_config_flags_override_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("gate = ideal\nstart = 0.4\nstop = 0.8\npoints = 3\n")
    code, out, _ = run_cli(capsys, "ideal", "--config", str(cfg), "--points", "2")
    assert code == 0
    assert len(out.strip().split("\n")) == 3


def test_config_gate_mismatch(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("gate = optomech\nstart = 0.4\nstop = 0.8\n")
    code, _, err = run_cli(capsys, "ideal", "--config", str(cfg))
    assert code == 1


def test_config_parse_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    with pytest.raises(SweepConfigError):
        parse_config_file(str(bad))
    bad.write_text("points = many\n")
    with pytest.raises(SweepConfigError):
        parse_config_file(str(bad))


def test_config_comments_and_types(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(
        "gate = ideal   # trailing comment\n"
        "\n"
        "points = 7\n"
        "p = 1,0.5,0.25\n"
        "input_threshold = yes\n"
        "G = 0.9\n"
    )
    settings = parse_config_file(str(cfg))
    assert settings["gate"] == "ideal"
    assert settings["points"] == 7
    assert settings["p"] == (1.0, 0.5, 0.25)
    assert settings["input_threshold"] is True
    assert settings["G"] == 0.9


def test_misspelled_config_key_rejected_with_hint(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("g = 0.06\nkapa_tau = 100\neta = 0.9\n")
    code, out, err = run_cli(capsys, "atom-light", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert "'kapa_tau'" in err and "did you mean 'kappa_tau'" in err


@pytest.mark.parametrize(
    "command, text",
    [
        (("optimum", "--gate", "ideal", "--free", "G=0.2:2"), "p = 1\n"),
        (("ideal", "--G", "0.9"), "coarse_grid = 3\n"),
        (("threshold", "--gate", "ideal", "--G", "0.9"), "coarse_grid = 3\n"),
        (("threshold", "--gate", "ideal", "--G", "0.9"), "jobs = 2\n"),
        (("ideal", "--G", "0.9"), "kappa_tau = 100\n"),
        (("ideal", "--G", "0.9"), "phase_samples = 64\n"),
        (("threshold", "--gate", "ideal", "--G", "0.9"), "domain = 6\n"),
        (("ideal", "--G", "0.9"), "output_threshold = no\n"),
    ],
)
def test_config_key_unused_by_subcommand_rejected(tmp_path, capsys, command, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, *command, "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert repr(text.split(" =")[0]) in err


@pytest.mark.parametrize(
    "argv",
    [
        ("optimum", "--gate", "ideal", "--free", "G=0.2:2", "--jobs", "2"),
        ("optimum", "--gate", "ideal", "--free", "G=0.2:2", "--format", "json"),
        ("threshold", "--gate", "ideal", "--G", "0.9", "--format", "csv"),
        ("threshold", "--gate", "ideal", "--G", "0.9", "--jobs", "2"),
    ],
)
def test_flag_unused_by_subcommand_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert argv[-2] in err


@pytest.mark.parametrize(
    "argv",
    [
        ("threshold", "--gate", "ideal", "--G", "0.9", "--T", "0.3"),
        ("optimum", "--gate", "ideal", "--free", "T=0:1"),
    ],
)
def test_parameter_of_another_gate_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "'T'" in err


def test_jobs_precedence_env_file_flag(tmp_path, monkeypatch, capsys):
    seen = []

    def fake_run_sweep(config):
        seen.append(config.jobs)
        return []

    monkeypatch.setattr(qnd_hom.cli, "run_sweep", fake_run_sweep)
    monkeypatch.setenv("QND_HOM_JOBS", "2")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("jobs = 3\n")
    for extra in ((), ("--config", str(cfg)), ("--config", str(cfg), "--jobs", "4")):
        code, _, _ = run_cli(capsys, "ideal", "--G", "0.9", *extra)
        assert code == 0
    assert seen == [2, 3, 4]


# ----------------------------------------------------------------------
# Threshold / optimum / preset subcommands
# ----------------------------------------------------------------------

def test_threshold_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "threshold", "--gate", "ideal", "--G", "0.8677840941388602"
    )
    assert code == 0
    record = json.loads(out)
    assert abs(record["input_threshold"] - 0.06856) < 2e-4
    assert abs(record["output_threshold"] - 0.1353352832366127) < 1e-12
    assert record["converged"] is True
    assert record["phase_samples"] == 64


def test_optimum_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "optimum", "--gate", "ideal", "--free", "G=0.2:2.0", "--grid", "7"
    )
    assert code == 0
    record = json.loads(out)
    assert abs(record["argmax"]["G"] - 0.8678) < 5e-3
    assert record["interior"] is True


def test_optimum_bad_free_spec(capsys):
    code, _, err = run_cli(capsys, "optimum", "--gate", "ideal", "--free", "G=oops")
    assert code == 1


def test_optimum_empty_grid_is_config_error(capsys):
    code, _, err = run_cli(capsys, "optimum", "--gate", "ideal", "--free", "G=0.2:2", "--grid", "0")
    assert code == 1
    assert "configuration error" in err and "grid" in err


def test_optimum_parameter_fixed_and_free_rejected(capsys):
    code, _, err = run_cli(
        capsys, "optimum", "--gate", "ideal", "--fix", "G=0.5", "--free", "G=0.2:2"
    )
    assert code == 1
    assert "configuration error" in err and "'G'" in err


@pytest.mark.parametrize("p", ["1.5", "-0.1", "nan"])
def test_optimum_input_fraction_outside_unit_interval_rejected(capsys, p):
    code, out, err = run_cli(capsys, "optimum", "--gate", "ideal", "--free", "G=0.2:2", "--p", p)
    assert code == 1
    assert out == ""
    assert "configuration error" in err and "p must lie in [0, 1]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,flag,name", [
    (("--free", "G=0.2:2", "--free", "G=0.1:1"), "--free", "G"),
    (("--free", "G=0.2:2", "--fix", "kappa_tau=100", "--fix", "kappa_tau=90"), "--fix", "kappa_tau"),
])
def test_optimum_repeated_name_rejected(capsys, argv, flag, name):
    gate = "ideal" if flag == "--free" else "atom-light"
    code, out, err = run_cli(capsys, "optimum", "--gate", gate, *argv)
    assert code == 1
    assert out == ""
    assert f"configuration error: {flag} names {name!r} more than once" in err


@pytest.mark.parametrize("points", ["5", "0"])
def test_single_point_sweep_rejects_points(capsys, points):
    code, out, err = run_cli(capsys, "ideal", "--G", "1", "--points", points)
    assert code == 1
    assert out == ""
    assert "configuration error" in err and "points" in err


@pytest.mark.parametrize("argv,where", [
    (("ideal", "--start", "0", "--stop", "inf", "--points", "3"), "sweep range of 'G'"),
    (("optimum", "--gate", "ideal", "--free", "G=0:inf"), "range of free parameter 'G'"),
    (("ideal", "--start", "-inf", "--stop", "1", "--points", "3"), "sweep range of 'G'"),
    (("ideal", "--start", "-Infinity", "--stop", "1", "--points", "3"), "sweep range of 'G'"),
])
def test_non_finite_range_rejected_by_name(capsys, argv, where):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"configuration error: {where} must be finite" in err
    assert "gain" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_a_sweep_whose_covariance_overflows_warns_nothing(capsys):
    # at G = 1e300 the covariance overflows: that point's rows carry the
    # numerical failure, the sweep exits 0, and numpy's overflow is no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "ideal", "--sweep", "G", "--start", "1", "--stop", "1e300", "--points", "2")
    assert (code, err) == (0, "")
    good, bad = out.strip().split("\n")[1:]
    assert good.endswith(",") and bad.endswith(
        "numerical-domain failure: covariance violates the uncertainty bound: min eig(V+iΩ) = nan")


@pytest.mark.parametrize("argv,name", [
    (("atom-light", "--g", "0.06", "--kappa-tau", "inf", "--eta", "0.9"), "kappa_tau"),
    (("atom-light", "--g", "inf", "--kappa-tau", "100"), "g"),
    (("atom-mech", "--g", "0.07", "--kappa-tau", "inf"), "kappa_tau"),
    (("optomech", "--g", "0.06", "--kappa-tau", "100", "--Gamma", "inf"), "Gamma"),
    (("ideal", "--G", "inf"), "G"),
    (("optomech", "--g", "0.06", "--kappa-tau", "100", "--Gamma", "-inf"), "Gamma"),
    (("ideal", "--G", "-NaN"), "G"),
])
def test_non_finite_gate_parameter_is_config_error(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"configuration error: {name} must be finite" in err


@pytest.mark.parametrize("argv,message", [
    (("atom-light", "--g", "-1", "--kappa-tau", "100"), "g must be positive"),
    (("atom-mech", "--g", "0.07", "--kappa-tau", "90", "--S", "25"), "S must lie in [0, 20]"),
    (("optomech", "--g", "0.06", "--kappa-tau", "100", "--Gamma", "-0.001"), "Gamma must be non-negative"),
    (("bs", "--T", "1.5"), "T must lie in [0, 1]"),
    (("optomech", "--g", "0.06", "--kappa-tau", "100", "--Gamma", "-1e-3"), "Gamma must be non-negative"),
])
def test_out_of_range_gate_parameter_named_as_typed(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"configuration error: {message}\n" in err


def test_negative_number_in_exponent_form_is_a_value(capsys):
    code, out, _ = run_cli(capsys, "ideal", "--G", "-1e-3")
    assert code == 0
    assert out.split("\n")[1].startswith("G,-0.001,1,")
    code, out, _ = run_cli(capsys, "ideal", "--sweep", "G", "--start", "-1e-3", "--stop", "1", "--points", "2")
    assert code == 0
    assert len(out.strip().split("\n")) == 3


def test_config_file_choice_checked_before_any_point(tmp_path, monkeypatch, capsys):
    def never_run(config):
        raise AssertionError("run_sweep called")

    monkeypatch.setattr(qnd_hom.cli, "run_sweep", never_run)
    cfg = tmp_path / "sweep.cfg"
    for text, key in (("format = xml\n", "format"), ("scale = cubic\n", "scale")):
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "ideal", "--start", "0.1", "--stop", "1", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert f"bad value for {key!r}" in err


def test_cli_import_does_not_load_scipy_integrate():
    src = Path(qnd_hom.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, qnd_hom.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_paths_without_a_search_never_load_scipy():
    # every path, the searches too: an element, an in-process and a
    # forked sweep, a threshold and 1-D and 2-D optima run without scipy
    src = Path(qnd_hom.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = [
        ["atom-light", "--g", "0.06", "--kappa-tau", "100", "--eta", "0.9"],
        ["ideal", "--start", "0.2", "--stop", "1", "--points", "3", "--jobs", "2"],
        ["ideal", "--start", "0.2", "--stop", "1", "--points", "40", "--jobs", "2", "--input-threshold"],
        ["threshold", "--gate", "atom-light", "--g", "0.06", "--kappa-tau", "100", "--eta", "0.9"],
        ["optimum", "--gate", "ideal", "--free", "G=0.2:2"],
        ["optimum", "--gate", "atom-light", "--fix", "eta=0.9", "--free", "g=0.02:0.15",
         "--free", "kappa_tau=50:150", "--grid", "3"],
    ]
    probe = "\n".join([
        "import sys, qnd_hom, qnd_hom.cli",
        *(f"assert qnd_hom.cli.main({argv!r}) == 0" for argv in runs),
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    ])
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "[]"


def test_the_command_line_never_loads_the_fock_module():
    # qnd_hom resolves its fock re-exports on first use, so the command line
    # does not load qnd_hom.fock; those names, and all of __all__, still
    # import from qnd_hom
    src = Path(qnd_hom.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "\n".join([
        "import sys, qnd_hom.cli",
        "assert qnd_hom.cli.main(['ideal', '--G', '0.9']) == 0",
        "print('qnd_hom.fock' in sys.modules)",
        "from qnd_hom import QND_11_ARGMAX, closed_form_qnd_11",
        "print('qnd_hom.fock' in sys.modules, closed_form_qnd_11(QND_11_ARGMAX) > 0.26)",
        "assert all(hasattr(qnd_hom, name) for name in qnd_hom.__all__)",
    ])
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-2:] == ["False", "True True"]


def test_preset_known_names(capsys):
    parser = build_parser()
    args = parser.parse_args(["preset", "fig2a"])
    assert args.name == "fig2a"
    with pytest.raises(SweepConfigError):
        parser.parse_args(["preset", "not-a-preset"])


def test_configuration_error_in_a_forked_slice_exits_1(capsys, monkeypatch):
    # at 8 points per process, the last of 16 descending κτ points, 1e-5, is
    # in the forked worker's slice at --jobs 2 and fails to build; no worker
    # outlives the run
    monkeypatch.setattr(qnd_hom.sweep, "POINTS_PER_PROCESS", 8)
    argv = ("atom-light", "--sweep", "kappa_tau", "--start", "0.15001", "--stop", "1e-5",
            "--points", "16", "--g", "0.06", "--eta", "0.9", "--input-threshold")
    serial = run_cli(capsys, *argv, "--jobs", "1")
    assert serial[:2] == (1, "") and "math domain error" in serial[2]
    assert run_cli(capsys, *argv, "--jobs", "2") == serial
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("gate,kappa_tau", [
    ("atom-light", "1e-12"), ("atom-light", "1e-5"), ("atom-light", "5e-6"), ("atom-light", "1e-4"),
    ("atom-mech", "1e-4"),
])
def test_too_short_pulse_is_a_configuration_error(capsys, gate, kappa_tau):
    # the closed-form pulse constants cancel or divide by zero; the error
    # names the pulse length instead of ending in a traceback
    code, out, err = run_cli(capsys, gate, "--g", "0.06", "--kappa-tau", kappa_tau, "--eta", "0.9")
    assert (code, out) == (1, "")
    assert err.startswith(f"qnd-hom: configuration error: kappa_tau={float(kappa_tau)!r} ")
    assert "Traceback" not in err


def test_env_jobs_fallback(monkeypatch, capsys):
    monkeypatch.setenv("QND_HOM_JOBS", "2")
    code, out, _ = run_cli(capsys, "ideal", "--start", "0.4", "--stop", "0.8", "--points", "2")
    assert code == 0
    assert len(out.strip().split("\n")) == 3


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_env_jobs_below_one_rejected(monkeypatch, capsys, jobs):
    # QND_HOM_JOBS meets the same rule as --jobs and the jobs key
    monkeypatch.setenv("QND_HOM_JOBS", jobs)
    code, out, err = run_cli(capsys, "ideal", "--G", "1")
    assert code == 1
    assert out == ""
    assert "jobs must be at least 1" in err


def test_env_jobs_invalid(monkeypatch, capsys):
    monkeypatch.setenv("QND_HOM_JOBS", "many")
    code, _, err = run_cli(capsys, "ideal", "--start", "0.4", "--stop", "0.8", "--points", "2")
    assert code == 1
