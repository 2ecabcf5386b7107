"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diqkd_lab import cli
from diqkd_lab.cli import (
    SWEEP_COLUMNS,
    CliError,
    SweepAxis,
    format_number,
    main,
    parse_scenario_file,
    serialize_scenario_file,
    sweep_rows,
)
from diqkd_lab.keyproto import parse_transcript


def write_scenario(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


# ----------------------------------------------------------------------
# Scenario files
# ----------------------------------------------------------------------


def test_parse_scenario_file_defaults(tmp_path):
    path = write_scenario(tmp_path, "s.json", {"architecture": "standard"})
    parsed = parse_scenario_file(path)
    assert parsed.scenario.architecture == "standard"
    assert parsed.sweep is None
    assert parsed.rounds == 100_000
    assert parsed.seed == 0
    # Integral floats are accepted for integer settings.
    parsed = parse_scenario_file(write_scenario(tmp_path, "f.json", {"rounds": 1e6, "seed": 7.0}))
    assert (parsed.rounds, parsed.seed) == (1_000_000, 7)
    assert type(parsed.rounds) is int and type(parsed.seed) is int


def test_parse_scenario_file_rejects_unknown_keys(tmp_path):
    path = write_scenario(tmp_path, "s.json", {"bogus": 1})
    with pytest.raises(CliError, match="unknown scenario file keys: bogus"):
        parse_scenario_file(path)


# Each case: scenario-file payload and the message naming the rejected key.
OUT_OF_RANGE_CASES = (
    ({"detector_efficiency": 1.5}, r"detector_efficiency must lie in \[0, 1\], got 1.5"),
    ({"rounds": "many"}, r"rounds must be a number, got 'many'"),
    ({"etas": "abc"}, r"etas must be a list of numbers, got 'abc'"),
    (
        {"sweep": {"parameter": "distance_km", "min": "x", "max": 10, "steps": 3}},
        r"sweep min must be a number, got 'x'",
    ),
    ({"seed": -1}, r"seed must be non-negative, got -1"),
    ({"optimize": "false"}, r"optimize must be true or false, got 'false'"),
    ({"rounds": 2.7}, r"rounds must be an integer, got 2.7"),
    ({"rounds": True}, r"rounds must be an integer, got True"),
    ({"seed": 2.7}, r"seed must be an integer, got 2.7"),
    ({"seed": True}, r"seed must be an integer, got True"),
    (
        {"sweep": {"parameter": "distance_km", "min": 0, "max": 10, "steps": 2.7}},
        r"sweep steps must be an integer, got 2.7",
    ),
    (
        {"sweep": {"parameter": "distance_km", "min": 0, "max": 10, "steps": True}},
        r"sweep steps must be an integer, got True",
    ),
    # JSON booleans are not numbers.
    ({"sample_fraction": False}, r"sample_fraction must be a number, got False"),
    ({"theta": True}, r"theta must be a number, got True"),
    ({"etas": [True, 0.8]}, r"etas must be a number, got True"),
    (
        {"sweep": {"parameter": "distance_km", "min": False, "max": 10, "steps": 3}},
        r"sweep min must be a number, got False",
    ),
    (
        {"sweep": {"parameter": "distance_km", "min": 0, "max": True, "steps": 3}},
        r"sweep max must be a number, got True",
    ),
    ({"distance_km": True}, r"distance_km must be a number, got True"),
    ({"detector_efficiency": True}, r"detector_efficiency must be a number, got True"),
    # Scenario values of another type name their key.
    ({"distance_km": "5"}, r"distance_km must be a number, got '5'"),
    ({"detector_efficiency": "0.9"}, r"detector_efficiency must be a number, got '0.9'"),
    ({"distance_km": None}, r"distance_km must be a number, got None"),
    ({"out": 5}, r"out must be a string, got 5"),
    # Python's JSON reader accepts NaN and Infinity; neither is a usable value.
    ({"distance_km": float("nan")}, r"distance_km must be non-negative and finite, got nan"),
    ({"attenuation_db_per_km": float("inf")}, r"attenuation_db_per_km .* got inf"),
    ({"readout_time_s": float("nan")}, r"readout_time_s .* got nan"),
    ({"repetition_rate_hz": float("nan")}, r"repetition_rate_hz must be positive and finite, got nan"),
    ({"theta": float("nan")}, r"theta must be a finite number, got nan"),
    (
        {"sweep": {"parameter": "distance_km", "min": float("nan"), "max": 10, "steps": 3}},
        r"sweep min must be a finite number, got nan",
    ),
    (
        {"sweep": {"parameter": "distance_km", "min": 0, "max": float("inf"), "steps": 3}},
        r"sweep max must be a finite number, got inf",
    ),
    # Both ends of a sweep axis must be valid scenario values.
    (
        {"sweep": {"parameter": "detector_efficiency", "min": 0.5, "max": 1.5, "steps": 3}},
        r"sweep max out of range: detector_efficiency must lie in \[0, 1\], got 1.5",
    ),
    (
        {"sweep": {"parameter": "pair_prob", "min": 0, "max": 1.0, "steps": 3}},
        r"sweep max out of range: pair_prob must lie in \[0, 1\), got 1.0",
    ),
    (
        {"sweep": {"parameter": "repetition_rate_hz", "min": 0, "max": 1e8, "steps": 3}},
        r"sweep min out of range: repetition_rate_hz must be positive and finite, got 0.0",
    ),
)


def test_parse_scenario_file_rejects_out_of_range(tmp_path):
    # One test over a case table (not pytest parametrization) so the test
    # keeps a single, stable id.
    for payload, message in OUT_OF_RANGE_CASES:
        path = write_scenario(tmp_path, "s.json", payload)
        with pytest.raises(CliError, match=message):
            parse_scenario_file(path)


def test_parse_scenario_file_missing_file(tmp_path):
    with pytest.raises(CliError, match="cannot read scenario file"):
        parse_scenario_file(tmp_path / "absent.json")


def test_parse_scenario_file_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CliError, match="malformed JSON"):
        parse_scenario_file(path)


def test_serialize_scenario_file_is_stable(tmp_path):
    path = write_scenario(
        tmp_path,
        "s.json",
        {
            "architecture": "third_party",
            "pair_prob": 0.01,
            "sweep": {"parameter": "distance_km", "min": 0, "max": 10, "steps": 3},
            "seed": 7,
            "out": "result.csv",
            "theta": 0.3,
            "etas": [1.0, 0.8],
        },
    )
    first = serialize_scenario_file(parse_scenario_file(path))
    assert {"out", "theta", "etas"} <= set(json.loads(first))
    normalized = tmp_path / "norm.json"
    normalized.write_text(first)
    second = serialize_scenario_file(parse_scenario_file(normalized))
    assert first == second


# ----------------------------------------------------------------------
# Sweep axes
# ----------------------------------------------------------------------


def test_sweep_axis_values_linear_and_log():
    lin = SweepAxis(parameter="distance_km", lo=0.0, hi=4.0, steps=5)
    np.testing.assert_allclose(lin.values(), [0.0, 1.0, 2.0, 3.0, 4.0])
    log = SweepAxis(parameter="pair_prob", lo=1e-3, hi=1e-1, steps=3, scale="log")
    np.testing.assert_allclose(log.values(), [1e-3, 1e-2, 1e-1], rtol=1e-12)


def test_sweep_axis_validation():
    with pytest.raises(CliError, match="sweep"):
        SweepAxis(parameter="architecture", lo=0.0, hi=1.0, steps=2)
    with pytest.raises(CliError, match="steps"):
        SweepAxis(parameter="distance_km", lo=0.0, hi=1.0, steps=0)
    with pytest.raises(CliError, match="log-scale"):
        SweepAxis(parameter="distance_km", lo=0.0, hi=1.0, steps=2, scale="log")


def test_sweep_rows_parallel_matches_serial(tmp_path):
    parsed = parse_scenario_file(
        write_scenario(
            tmp_path,
            "s.json",
            {
                "source_position": 0.0,
                "sweep": {"parameter": "distance_km", "min": 0, "max": 4, "steps": 4},
            },
        )
    )
    serial = sweep_rows(parsed.scenario, parsed.sweep, jobs=1)
    parallel = sweep_rows(parsed.scenario, parsed.sweep, jobs=3)
    assert serial == parallel


def test_sweep_rows_starts_no_more_workers_than_points(tmp_path, monkeypatch):
    # A forked pool starts every worker up front, so a huge --jobs must not
    # reach it.  The stand-in pool records its size and starts no process.
    recorded = []

    class SerialPool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    parsed = parse_scenario_file(
        write_scenario(
            tmp_path,
            "s.json",
            {"sweep": {"parameter": "distance_km", "min": 0, "max": 2, "steps": 3}},
        )
    )
    rows = sweep_rows(parsed.scenario, parsed.sweep, jobs=10**6)
    assert recorded == [3]
    assert rows == sweep_rows(parsed.scenario, parsed.sweep, jobs=1)


# ----------------------------------------------------------------------
# Commands through main()
# ----------------------------------------------------------------------


def test_sweep_command_csv_output(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        "s.json",
        {
            "source_position": 0.0,
            "sweep": {"parameter": "distance_km", "min": 0, "max": 4, "steps": 5},
        },
    )
    assert main(["sweep", "--scenario", path]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert header == list(SWEEP_COLUMNS)
    assert len(rows) == 5
    np.testing.assert_allclose(
        [float(r["L_km"]) for r in rows], [0.0, 1.0, 2.0, 3.0, 4.0], atol=1e-9
    )
    # eta_t is the end-to-end transmission of the full span.
    np.testing.assert_allclose(
        [float(r["eta_t"]) for r in rows],
        [10 ** (-0.2 * d / 10) for d in (0, 1, 2, 3, 4)],
        atol=1e-6,
    )
    rates = [float(r["key_rate"]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))


def test_sweep_command_jobs_do_not_change_bytes(tmp_path):
    path = write_scenario(
        tmp_path,
        "s.json",
        {
            "architecture": "third_party",
            "pair_prob": 0.01,
            "sweep": {"parameter": "distance_km", "min": 0, "max": 20, "steps": 3},
        },
    )
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["sweep", "--scenario", path, "--out", out1, "--jobs", "1"]) == 0
    assert main(["sweep", "--scenario", path, "--out", out2, "--jobs", "4"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name", ["standard", "third_party", "local_heralding_ideal", "heralded"])
def test_sweep_command_matches_reference_bytes(tmp_path, name):
    # Reads the committed reference CSVs; never rewrites them.
    out = tmp_path / "sweep.csv"
    scenario = BENCH_DIR / "scenarios" / f"{name}_sweep.json"
    argv = ["sweep", "--scenario", str(scenario), "--out", str(out), "--jobs", "1"]
    assert main(argv) == 0
    assert out.read_bytes() == (BENCH_DIR / "refs" / f"{name}_sweep.csv").read_bytes()


@pytest.mark.parametrize(
    "verb, ref", [("threshold", "threshold_optimized.txt"), ("attack", "attack_default.csv")]
)
def test_threshold_and_attack_commands_match_reference_bytes(tmp_path, verb, ref):
    # The optimized threshold and the default attack etas; reads the refs, never rewrites them.
    out = tmp_path / ref
    scenario = BENCH_DIR / "scenarios" / f"{Path(ref).stem}.json"
    assert main([verb, "--scenario", str(scenario), "--out", str(out)]) == 0
    assert out.read_bytes() == (BENCH_DIR / "refs" / ref).read_bytes()


@pytest.mark.parametrize("command", ["session", "sweep"])
@pytest.mark.parametrize("architecture", ["local_heralding", "third_party"])
def test_never_heralding_scenario_is_reported(tmp_path, capsys, command, architecture):
    payload = {"architecture": architecture, "detector_efficiency": 0.0, "rounds": 1000}
    if command == "sweep":
        payload["sweep"] = {"parameter": "distance_km", "min": 0, "max": 10, "steps": 2}
    path = write_scenario(tmp_path, "s.json", payload)
    assert main([command, "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "never heralds" in err


def test_unrelated_runtime_errors_propagate(tmp_path, monkeypatch):
    def broken(scenario):
        raise RuntimeError("unrelated failure")

    monkeypatch.setattr(cli, "run", broken)
    path = write_scenario(
        tmp_path,
        "s.json",
        {"sweep": {"parameter": "distance_km", "min": 0, "max": 1, "steps": 1}},
    )
    with pytest.raises(RuntimeError, match="unrelated failure"):
        main(["sweep", "--scenario", path])


def test_attack_rejects_an_empty_etas_list(tmp_path, capsys):
    # An empty list printed a header-only CSV and exited 0.
    path = write_scenario(tmp_path, "s.json", {"etas": []})
    assert main(["attack", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: etas must not be empty" in captured.err


def test_sweep_command_requires_axis(tmp_path, capsys):
    path = write_scenario(tmp_path, "s.json", {})
    assert main(["sweep", "--scenario", path]) == 2
    assert "sweep command requires" in capsys.readouterr().err


def test_threshold_command_singlet(tmp_path, capsys):
    path = write_scenario(tmp_path, "s.json", {})
    assert main(["threshold", "--scenario", path]) == 0
    out = capsys.readouterr().out.splitlines()
    values = dict(line.split("=", 1) for line in out)
    assert float(values["eta_critical"]) == pytest.approx(0.8284, abs=2e-3)
    assert float(values["chsh_at_unit_efficiency"]) == pytest.approx(2.828427, abs=1e-5)


def test_threshold_command_no_violation(tmp_path, capsys):
    path = write_scenario(tmp_path, "s.json", {"theta": 0.0})
    assert main(["threshold", "--scenario", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "no violation"


def test_attack_command_known_points(tmp_path, capsys):
    path = write_scenario(tmp_path, "s.json", {"etas": [1.0, 0.8, 0.75]})
    assert main(["attack", "--scenario", path]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert header == ["eta", "chsh"]
    got = {float(r["eta"]): float(r["chsh"]) for r in rows}
    assert got[1.0] == pytest.approx(2.0, abs=1e-4)
    assert got[0.8] == pytest.approx(2.0 / (2 * 0.8 - 1), rel=2e-3)
    assert got[0.75] == pytest.approx(4.0, rel=2e-3)


def test_session_command_report_and_transcript(tmp_path, capsys):
    path = write_scenario(
        tmp_path, "s.json", {"rounds": 60_000, "sample_fraction": 0.5, "seed": 42}
    )
    transcript_path = tmp_path / "session.bin"
    assert main(["session", "--scenario", path, "--out", str(transcript_path)]) == 0
    report = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines()
    )
    assert report["status"] == "key"
    assert int(report["key_length"]) > 0
    assert report["alice_key_digest"] == report["bob_key_digest"]
    messages = parse_transcript(transcript_path.read_bytes())
    assert [m[0] for m in messages] == list(range(len(messages)))


def test_session_command_seed_override_changes_output(tmp_path, capsys):
    path = write_scenario(
        tmp_path, "s.json", {"rounds": 60_000, "sample_fraction": 0.5, "seed": 42}
    )
    assert main(["session", "--scenario", path]) == 0
    base = capsys.readouterr().out
    assert main(["session", "--scenario", path, "--seed", "42"]) == 0
    assert capsys.readouterr().out == base
    assert main(["session", "--scenario", path, "--seed", "43"]) == 0
    assert capsys.readouterr().out != base


def test_session_command_abort_report(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        "s.json",
        {"detector_efficiency": 0.5, "rounds": 4000, "sample_fraction": 0.5},
    )
    assert main(["session", "--scenario", path]) == 0
    report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert report["status"] == "abort"
    assert report["stage"] == "estimation"
    assert report["reason"] == "insufficient-violation"
    assert report["key_length"] == "0"


def test_validate_command_roundtrip(tmp_path, capsys):
    path = write_scenario(
        tmp_path, "s.json", {"architecture": "local_heralding", "distance_km": 3.0}
    )
    assert main(["validate", "--scenario", path]) == 0
    normalized = capsys.readouterr().out
    data = json.loads(normalized)
    assert data["architecture"] == "local_heralding"
    assert data["distance_km"] == 3.0


def test_successive_main_calls_share_the_parser_but_not_its_values(tmp_path, monkeypatch):
    path = write_scenario(tmp_path, "s.json", {})
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "validate", lambda parsed, args: seen.append(args) or 0)
    argv = ["validate", "--scenario", path, "--seed", "7", "--out", "o.txt", "--jobs", "3"]
    assert main(argv) == 0
    assert main(["validate", "--scenario", path]) == 0
    first, second = (vars(args) for args in seen)
    assert (first["seed"], first["out"], first["jobs"]) == (7, "o.txt", 3)
    assert (second["seed"], second["out"], second["jobs"]) == (None, None, 1)
    assert cli._build_parser() is cli._build_parser()


def test_main_reports_errors_on_stderr(tmp_path, capsys):
    path = write_scenario(tmp_path, "s.json", {"bogus": 1})
    assert main(["validate", "--scenario", path]) == 2
    assert "error: unknown scenario file keys: bogus" in capsys.readouterr().err
    path = write_scenario(tmp_path, "t.json", {"rounds": 1000})
    assert main(["session", "--scenario", path, "--seed", "-1"]) == 2
    assert "error: --seed must be non-negative, got -1" in capsys.readouterr().err
    for jobs in ("0", "-3"):
        assert main(["sweep", "--scenario", path, "--jobs", jobs]) == 2
        assert f"error: --jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    path = write_scenario(tmp_path, "u.json", {"distance_km": float("nan")})
    assert main(["session", "--scenario", path]) == 2
    assert "distance_km must be non-negative and finite, got nan" in capsys.readouterr().err
    path = write_scenario(tmp_path, "v.json", {"theta": float("nan")})
    assert main(["threshold", "--scenario", path]) == 2
    assert "error: theta must be a finite number, got nan" in capsys.readouterr().err


def test_unwritable_out_is_a_cli_error(tmp_path, capsys):
    path = write_scenario(tmp_path, "s.json", {"rounds": 1000})
    out = tmp_path / "missing" / "x"
    for command in ("validate", "session"):
        assert main([command, "--scenario", path, "--out", str(out)]) == 2
        assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert not out.parent.exists()


def test_format_number_switches_notation():
    assert format_number(0.5) == "0.500000"
    assert format_number(1e-4) == "1.000000e-04"
    assert format_number(0.0) == "0.000000e+00"
    assert format_number(-2e-5) == "-2.000000e-05"


def run_python(*args):
    """Run ``python *args`` in a child process that imports the same package as this one."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )


def test_module_entry_point(tmp_path):
    path = write_scenario(tmp_path, "s.json", {"theta": 0.0})
    proc = run_python("-m", "diqkd_lab.cli", "threshold", "--scenario", path)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "no violation"


# Python source for the sorted names of the loaded scipy modules.
LOADED_SCIPY = "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"


def test_importing_the_cli_loads_no_scipy():
    # scipy.optimize alone was ~0.7 s of a ~1 s import; the package needs
    # none of scipy, which only the tests use.
    proc = run_python("-c", f"import sys, diqkd_lab.cli; print({LOADED_SCIPY})")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_verb_loads_scipy(tmp_path):
    axis = {"parameter": "distance_km", "min": 0, "max": 10, "steps": 2}
    runs = (
        ("sweep", write_scenario(tmp_path, "sweep.json", {"sweep": axis})),
        ("attack", write_scenario(tmp_path, "attack.json", {"etas": [0.9, 0.7]})),
        ("session", write_scenario(tmp_path, "session.json", {"rounds": 20_000})),
        ("threshold", write_scenario(tmp_path, "threshold.json", {"theta": 0.5})),
        ("threshold", write_scenario(tmp_path, "optimize.json", {"optimize": True})),
    )
    script = (
        "import contextlib, io, sys\n"
        "from diqkd_lab.cli import main\n"
        "for verb, path in zip(sys.argv[1::2], sys.argv[2::2]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main([verb, '--scenario', path]) == 0\n"
        f"    loaded = {LOADED_SCIPY}\n"
        "    print(verb, bool(loaded), 'scipy.optimize' in loaded)\n"
    )
    proc = run_python("-c", script, *(arg for run in runs for arg in run))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "sweep False False",
        "attack False False",
        "session False False",
        "threshold False False",
        "threshold False False",
    ]
