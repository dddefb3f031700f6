"""CLI surface: exit codes, output formats, determinism, config handling."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import textwrap
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from modsquares import cli
from modsquares.cli import ExitStatus, emit_csv, emit_svg_histogram, main
from modsquares.genseq import squares_set
from modsquares.modarith import odd_primes_below
from modsquares.permstats import SimConfig, SimReport

SRC = Path(__file__).resolve().parents[1] / "src"


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    assert rc == 0, f"{argv} exited {rc}"
    return out.read_bytes()


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["legendre", "--p", "11"]) == ExitStatus.OK
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == ExitStatus.USAGE
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["legendre"]) == ExitStatus.USAGE
        capsys.readouterr()

    def test_composite_modulus(self, capsys):
        assert main(["legendre", "--p", "8"]) == ExitStatus.DOMAIN
        err = capsys.readouterr().err
        assert "odd" in err or "prime" in err
        for command in ("runs", "pairs"):
            assert main([command, "--p", "15"]) == ExitStatus.DOMAIN
            assert "p must be prime; 15 is composite" in capsys.readouterr().err

    def test_non_coprime_period(self, capsys):
        assert main(["period", "--m", "8", "--a", "2"]) == ExitStatus.DOMAIN
        capsys.readouterr()

    def test_non_root_cycle(self, capsys):
        assert main(["cycle", "--p", "11", "--g", "3"]) == ExitStatus.DOMAIN
        capsys.readouterr()
        assert main(["sqrt", "--p", "11", "--a", "3", "--g", "3"]) == ExitStatus.DOMAIN
        assert "3 is not a primitive root of 11" in capsys.readouterr().err

    def test_inversions_beyond_32_bits(self, capsys):
        start = time.perf_counter()
        assert main(["inversions", "--p", "4294967311"]) == ExitStatus.DOMAIN
        assert time.perf_counter() - start < 5
        assert "p must be below 2**32" in capsys.readouterr().err

    def test_svg_for_table_command(self, capsys):
        assert main(["legendre", "--p", "11", "--format", "svg"]) == ExitStatus.USAGE
        capsys.readouterr()

    def test_internal_error_maps_to_three(self, capsys, monkeypatch):
        def boom(p):
            raise RuntimeError("invariant broken")

        monkeypatch.setattr(cli, "_res_legendre", boom)
        assert main(["legendre", "--p", "11"]) == ExitStatus.INTERNAL
        assert "internal error" in capsys.readouterr().err

    def test_svg_refused_before_computing(self, capsys, monkeypatch):
        def boom(p):
            raise RuntimeError("computed before refusing --format svg")

        monkeypatch.setattr(cli, "_res_legendre", boom)
        assert main(["legendre", "--p", "11", "--format", "svg"]) == ExitStatus.USAGE
        assert "only valid for histogram or scatter commands, not 'legendre'" in capsys.readouterr().err
        assert main(["runs", "--p", "7", "--format", "svg"]) == ExitStatus.USAGE
        assert "not 'runs'" in capsys.readouterr().err

    def test_runs_svg_refused_before_counting(self, capsys, monkeypatch):
        def boom(p):
            raise RuntimeError("counted before refusing --format svg")

        monkeypatch.setattr(cli, "legendre_pair_counts", boom)
        assert main(["runs", "--p", "7", "--format", "svg"]) == ExitStatus.USAGE
        assert "only valid for histogram or scatter commands, not 'runs'" in capsys.readouterr().err

    def test_repro_takes_no_workers_flag(self, tmp_path, capsys):
        argv = ["repro", "--out-dir", str(tmp_path / "art"), "--iterations", "10", "--workers", "4"]
        assert main(argv) == ExitStatus.USAGE
        assert "unrecognized arguments: --workers 4" in capsys.readouterr().err
        assert not (tmp_path / "art").exists()

    def test_out_of_memory_is_a_domain_error(self, capsys, monkeypatch):
        def exhausted(count, p_max):
            raise MemoryError()

        monkeypatch.setattr(cli, "_res_scan", exhausted)
        assert main(["scan", "--count", "5"]) == ExitStatus.DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_counts_below_one_are_usage_errors(self, capsys):
        for flag in ("--iterations", "--workers"):
            assert main(["sim-runs", "--p", "97", flag, "0"]) == ExitStatus.USAGE
            assert f"{flag} must be >= 1" in capsys.readouterr().err

    def test_out_of_range_counts_and_seeds_are_usage_errors(self, tmp_path, capsys):
        config = tmp_path / "scan.cfg"
        config.write_text("scan=0\n")
        out_dir = tmp_path / "D"
        cases = [(["scan", "--count", "0"], "--count must be >= 1"),
                 (["runs", "--scan", "0"], "--scan must be >= 1"),
                 (["scan", "--config", str(config)], "--count must be >= 1"),
                 (["sim-runs", "--p", "97", "--seed", "-1"], "--seed must be >= 0"),
                 (["repro", "--seed", str(2**64), "--out-dir", str(out_dir)],
                  f"--seed must be <= {2**64 - 1}")]
        for argv, message in cases:
            assert main(argv) == ExitStatus.USAGE, argv
            assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unwritable_output_is_a_usage_error(self, tmp_path):
        (tmp_path / "file").write_text("")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        for argv in (["legendre", "--p", "11", "--out", str(tmp_path / "missing" / "x.csv")],
                     ["legendre", "--p", "11", "--out", str(tmp_path)],
                     ["repro", "--iterations", "10", "--out-dir", str(tmp_path / "file" / "artifacts")]):
            proc = subprocess.run([sys.executable, "-m", "modsquares.cli", *argv],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == ExitStatus.USAGE, argv
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
            assert "Traceback" not in proc.stderr

    def test_console_entry_carries_exit_code(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        command = [sys.executable, "-m", "modsquares.cli", "runs"]
        ok = subprocess.run(command + ["--p", "7"], env=env, capture_output=True)
        assert ok.returncode == 0
        assert ok.stdout == b"p,n_plus,n_minus,runs,expected_runs\n7,3,3,4,4\n"
        bad = subprocess.run(command, env=env, capture_output=True)
        assert bad.returncode == ExitStatus.USAGE
        assert b"error:" in bad.stderr


# One argv per subcommand, each using its own flags and some output flags.
SAMPLE_ARGV = {
    "legendre": ["--p", "11", "--format", "json"],
    "primroots": ["--p", "29", "--precision", "3"],
    "cycle": ["--p", "11", "--g", "2"],
    "squares": ["--p", "11", "--g", "2", "--out", "sq.csv"],
    "period": ["--m", "8191", "--a", "1904"],
    "inversions": ["--p", "29", "--config", "defaults.cfg"],
    "sim-inversions": ["--p", "29", "--iterations", "300", "--seed", "7", "--workers", "2"],
    "runs": ["--scan", "20", "--format", "svg"],
    "pairs": ["--p", "13"],
    "sim-runs": ["--p", "97", "--iterations", "5"],
    "scan": ["--p-max", "60"],
    "dlog": ["--p", "11", "--g", "2", "--a", "7"],
    "sqrt": ["--p", "8191", "--a", "2", "--g", "17"],
    "repro": ["--out-dir", "art", "--seed", "5"],
}


def subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# Bad or unusual argv, each with its exit code; the one-command parser must
# answer each exactly as the full table does.
EDGE_ARGV = [
    (["pairs"], ExitStatus.USAGE),                             # a missing required flag
    (["pairs", "--p", "7", "--bogus"], ExitStatus.USAGE),      # an unknown flag
    (["pairs", "--p", "x"], ExitStatus.USAGE),
    (["runs", "--p", "7", "--scan", "3"], ExitStatus.USAGE),   # mutually exclusive
    (["runs"], ExitStatus.USAGE),                              # neither of a required group
    (["sim-runs", "--p", "7", "--iter", "5"], ExitStatus.OK),  # an abbreviated flag
    (["pairs", "--p=7"], ExitStatus.OK),
    (["pairs", "--p", "7", "extra"], ExitStatus.USAGE),        # an extra positional
    (["runs", "--version"], ExitStatus.USAGE),                 # only the top level has --version
    (["runs", "-h"], ExitStatus.OK),
]


class TestOneCommandParser:
    """`main` builds only the named subcommand's parser; it must act as the full one."""

    def test_sample_argv_covers_every_command(self):
        assert list(SAMPLE_ARGV) == list(cli.COMMANDS)

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_same_help_and_namespace(self, name):
        full = cli.build_parser()
        one = cli.build_parser(name)
        assert not any(isinstance(a, argparse._SubParsersAction) for a in one._actions)
        assert list(subparsers(full)) == list(cli.COMMANDS)
        assert one.format_help() == subparsers(full)[name].format_help()
        ours = one.parse_args(SAMPLE_ARGV[name])
        theirs = full.parse_args([name, *SAMPLE_ARGV[name]])
        assert ours == theirs
        assert ours.command == name
        assert ours.handler is theirs.handler is cli.COMMANDS[name].handler

    def test_main_builds_one_command_or_the_full_table(self, monkeypatch, capsys):
        seen = []
        build = cli.build_parser

        def spy(name=None):
            seen.append(name)
            return build(name)

        monkeypatch.setattr(cli, "build_parser", spy)
        main(["runs", "--p", "7"])
        for argv in ([], ["bogus"], ["--version"], ["--help"], ["--p", "7"]):
            main(argv)
        capsys.readouterr()
        assert seen == ["runs"] + [None] * 5

    @pytest.mark.parametrize("argv, code", [pytest.param(*case, id=" ".join(case[0])) for case in EDGE_ARGV])
    def test_edge_argv_answered_as_by_the_full_table(self, monkeypatch, capsys, argv, code):
        ours = main(argv), capsys.readouterr()
        build = cli.build_parser

        def full_table(name=None):
            """The full table, reading the argv after `name` with `name` put back first."""
            parser = build()
            parse = parser.parse_args
            parser.parse_args = lambda args: parse([name, *args] if name else args)
            return parser

        monkeypatch.setattr(cli, "build_parser", full_table)
        assert (main(argv), capsys.readouterr()) == ours
        assert ours[0] == code

    def test_argv_none_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["modsquares", "runs", "--p", "7"])
        assert main() == ExitStatus.OK
        assert capsys.readouterr().out == "p,n_plus,n_minus,runs,expected_runs\n7,3,3,4,4\n"

    def test_top_level_exit_codes(self, capsys):
        assert main([]) == ExitStatus.USAGE
        assert "required: command" in capsys.readouterr().err
        assert main(["--version"]) == ExitStatus.OK
        assert capsys.readouterr().out.startswith("modsquares ")
        assert main(["bogus"]) == ExitStatus.USAGE
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert len(cli.COMMANDS) == 14
        for name in cli.COMMANDS:
            assert repr(name) in err


def reference_csv(rows, header, footers=None, precision=6):
    """The csv.writer + _fmt rendering of every table, as emit_csv had it
    before integer tables got their own path."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([cli._fmt(v, precision) if isinstance(v, (int, float, Fraction)) else v for v in row])
    for key, value in (footers or {}).items():
        buf.write(f"# {key}={cli._fmt(value, precision)}\n")
    return buf.getvalue().encode("utf-8")


INTS = st.one_of(st.integers(-10**6, 10**6), st.integers(2**63, 2**80), st.integers(-2**80, -2**63))
CELLS = st.one_of(
    INTS,
    st.booleans(),
    st.fractions(max_denominator=50),
    st.floats(allow_nan=False),
    st.just(""),
    st.text(alphabet=st.sampled_from('ab ,"\n\r-1'), max_size=6),
)


@st.composite
def tables(draw, cells):
    arity = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[cells] * arity), max_size=12))
    header = [f"c{i}" for i in range(arity)]
    footers = draw(st.dictionaries(st.sampled_from(["n", "mean"]), st.one_of(INTS, st.fractions())))
    return rows, header, footers


class TestEmitCsvFastPath:
    @given(tables(INTS), st.integers(0, 8))
    def test_integer_tables_match_the_reference(self, table, precision):
        rows, header, footers = table
        assert emit_csv(rows, header, footers, precision) == reference_csv(rows, header, footers, precision)

    @given(tables(CELLS), st.integers(0, 8))
    def test_mixed_tables_match_the_reference(self, table, precision):
        rows, header, footers = table
        assert emit_csv(rows, header, footers, precision) == reference_csv(rows, header, footers, precision)

    def test_bools_are_not_taken_for_ints(self):
        assert emit_csv([(True, False), (3, -4)], ["a", "b"]) == b"a,b\n1,0\n3,-4\n"

    def test_arity_mismatch_after_integer_rows(self):
        with pytest.raises(RuntimeError, match="row arity 1 does not match header arity 2"):
            emit_csv([(1, 2), (3,)], ["a", "b"])


def test_sorted_squares_from_symbols():
    for p in odd_primes_below(3000):
        assert cli._res_squares(p, None).rows == [(v,) for v in sorted(squares_set(p))]


class TestCsvOutput:
    def test_legendre_row_for_p11(self, tmp_path):
        data = run_to_file(tmp_path, "leg.csv", ["legendre", "--p", "11"])
        lines = data.decode().splitlines()
        assert lines[0] == "a,symbol"
        symbols = [int(line.split(",")[1]) for line in lines[1:11]]
        assert symbols == [1, -1, 1, 1, 1, -1, -1, -1, 1, -1]

    def test_period_command(self, tmp_path):
        data = run_to_file(tmp_path, "orbit.csv", ["period", "--m", "8191", "--a", "1904"])
        lines = data.decode().splitlines()
        assert lines == [
            "index,value",
            "0,1",
            "1,1904",
            "2,4794",
            "3,3002",
            "4,6681",
            "# period=5",
        ]

    def test_inversions_footer_means(self, tmp_path):
        data = run_to_file(tmp_path, "inv.csv", ["inversions", "--p", "29"])
        text = data.decode()
        lines = text.splitlines()
        assert lines[0] == "g,inversions"
        assert len([l for l in lines if not l.startswith("#") and l != lines[0]]) == 12
        assert "# sample_mean=175.5" in text
        assert "# theory_mean=175.5" in text

    def test_runs_scan_flag(self, tmp_path):
        data = run_to_file(tmp_path, "scan.csv", ["runs", "--scan", "200"])
        rows = [l for l in data.decode().splitlines()[1:] if not l.startswith("#")]
        assert len(rows) == 200
        for row in rows:
            p, runs = map(int, row.split(","))
            assert runs == (p + 1) // 2

    def test_empty_rows_give_header_only(self):
        assert emit_csv([], ["a", "b"]) == b"a,b\n"

    def test_arity_mismatch_is_internal(self):
        with pytest.raises(RuntimeError):
            emit_csv([(1, 2, 3)], ["a", "b"])

    def test_sqrt_of_a_nonresidue_leaves_root_blank(self, tmp_path):
        data = run_to_file(tmp_path, "s.csv", ["sqrt", "--p", "11", "--a", "2"])
        lines = data.decode().splitlines()
        assert lines[0] == "p,a,g,root,symbol"
        p, a, g, root, symbol = lines[1].split(",")
        assert (p, a, root, symbol) == ("11", "2", "", "-1")

    def test_sqrt_of_a_residue(self, tmp_path):
        data = run_to_file(tmp_path, "s.csv", ["sqrt", "--p", "8191", "--a", "2"])
        assert data.decode().splitlines()[1].endswith(",128,1")

    def test_precision_flag(self, tmp_path):
        coarse = run_to_file(
            tmp_path, "c.csv", ["inversions", "--p", "29", "--precision", "2"]
        )
        assert b"# sample_sd=26.02\n" in coarse
        fine = run_to_file(
            tmp_path, "f.csv", ["inversions", "--p", "29", "--precision", "6"]
        )
        assert b"# sample_sd=26.019224\n" in fine

    def test_precision_zero_keeps_the_zeros_before_the_point(self, tmp_path):
        assert [cli._fmt(x, 0) for x in (20.0, 100.0, 1870.5, -30.0)] == ["20", "100", "1870", "-30"]
        assert [cli._fmt(x, 0) for x in (0.0, 0.3, -0.3)] == ["0", "0", "0"]
        data = run_to_file(tmp_path, "inv.csv", ["inversions", "--p", "41", "--precision", "0"])
        assert b"# sample_mean=370\n" in data and b"# theory_mean=370\n" in data

    def test_a_value_that_rounds_to_zero_prints_unsigned(self):
        assert [cli._fmt(-0.0001, 3), cli._fmt(-0.0, 6), cli._fmt(-1e-9, 6)] == ["0", "0", "0"]
        assert [cli._fmt(x, 0) for x in (-0.0001, -0.0, -1e-9)] == ["0", "0", "0"]
        assert cli._fmt(-0.0001, 6) == "-0.0001"

    def test_precision_beyond_a_double_adds_nothing(self, tmp_path):
        for x in (5e-324, 2.2250738585072014e-308, 0.1, 1 / 3):
            assert cli._fmt(x, 10**12) == cli._fmt(x, 1074) == cli._fmt(x, 3000)
            assert Fraction(cli._fmt(x, 10**12)) == Fraction(x)  # the exact expansion
        argv = ["inversions", "--p", "29", "--precision"]
        assert run_to_file(tmp_path, "a.csv", argv + [str(10**12)]) == run_to_file(tmp_path, "b.csv", argv + ["1074"])


class TestDeterminism:
    def test_identical_argv_identical_bytes(self, tmp_path):
        argv = ["sim-inversions", "--p", "29", "--iterations", "800", "--seed", "99"]
        data = run_to_file(tmp_path, "a.csv", argv)
        assert run_to_file(tmp_path, "b.csv", argv) == data
        with contextlib.redirect_stdout(io.StringIO()) as text:  # a stdout without .buffer
            assert main(argv) == ExitStatus.OK
        assert text.getvalue().encode() == data

    def test_workers_above_one_still_deterministic(self, tmp_path):
        argv = [
            "sim-runs", "--p", "97", "--iterations", "900",
            "--seed", "4", "--workers", "3",
        ]
        assert run_to_file(tmp_path, "a.csv", argv) == run_to_file(tmp_path, "b.csv", argv)

    def test_workers_beyond_iterations_add_nothing(self, tmp_path):
        argv = ["sim-runs", "--p", "97", "--iterations", "10", "--workers"]
        many = run_to_file(tmp_path, "a.csv", argv + [str(10**12)])
        ten = run_to_file(tmp_path, "b.csv", argv + ["10"])
        assert many.replace(b"# streams=1000000000000\n", b"# streams=10\n") == ten

    def test_default_seed_is_fixed(self, tmp_path):
        argv = ["sim-inversions", "--p", "29", "--iterations", "300"]
        assert run_to_file(tmp_path, "a.csv", argv) == run_to_file(tmp_path, "b.csv", argv)


class TestJsonOutput:
    def test_shape_and_provenance(self, tmp_path):
        data = run_to_file(
            tmp_path, "sim.json",
            ["sim-runs", "--p", "97", "--iterations", "200", "--seed", "12",
             "--format", "json"],
        )
        payload = json.loads(data)
        assert set(payload) == {"inputs", "outputs", "provenance"}
        assert payload["inputs"]["p"] == 97
        assert payload["provenance"]["seed"] == 12
        assert payload["provenance"]["rng_algorithm"] == "splitmix64"
        assert sum(count for _, count in payload["outputs"]["rows"]) == 200

    def test_fractions_encode_as_numbers_and_nothing_else_is_guessed(self):
        result = cli.CommandResult(inputs={"command": "t"}, header=["x"],
                                   rows=[(Fraction(3, 2),), (Fraction(4, 2),)], footers={"n": Fraction(7)})
        payload = json.loads(cli.emit_json(result))
        assert payload["outputs"]["rows"] == [[1.5], [2]] and payload["outputs"]["summary"] == {"n": 7}
        result.rows.append((object(),))
        with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
            cli.emit_json(result)

    def test_table_command_json(self, tmp_path):
        data = run_to_file(tmp_path, "pr.json", ["primroots", "--p", "11", "--format", "json"])
        payload = json.loads(data)
        assert [row[0] for row in payload["outputs"]["rows"]] == [2, 6, 7, 8]
        assert payload["outputs"]["summary"]["count"] == 4


class TestSvgOutput:
    def test_histogram_is_valid_and_labelled(self, tmp_path):
        data = run_to_file(
            tmp_path, "h.svg",
            ["sim-inversions", "--p", "29", "--iterations", "400", "--seed", "3",
             "--format", "svg"],
        )
        root = ET.fromstring(data.decode())
        assert root.tag.endswith("svg")
        text = data.decode()
        assert "p=29" in text and "iterations=400" in text and "seed=3" in text
        assert text.count("<rect") > 10

    def test_scan_scatter(self, tmp_path):
        data = run_to_file(tmp_path, "s.svg", ["scan", "--count", "50", "--format", "svg"])
        ET.fromstring(data.decode())
        assert data.decode().count("<circle") == 50
        with pytest.raises(ValueError, match="empty scatter"):
            cli.emit_svg_scatter([], "empty", "p", "runs")

    def test_single_bin_histogram(self):
        config = SimConfig(seed=1, iterations=5)
        report = SimReport.from_counts([7, 7, 7, 7, 7], config)
        svg = emit_svg_histogram(report, "constant", "value").decode()
        assert svg.count('fill="steelblue"') == 1

    def test_empty_histogram_is_a_domain_error(self):
        report = SimReport(
            histogram={}, sample_mean=0.0, sample_sd=0.0,
            config=SimConfig(seed=1, iterations=1),
        )
        with pytest.raises(ValueError):
            emit_svg_histogram(report, "empty", "value")


class TestConfigFile:
    def test_config_sets_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("# defaults\niterations=250\nseed=6\n")
        from_config = run_to_file(
            tmp_path, "a.csv",
            ["sim-inversions", "--p", "29", "--config", str(cfg)],
        )
        assert b"# iterations=250\n" in from_config and b"# seed=6\n" in from_config
        overridden = run_to_file(
            tmp_path, "b.csv",
            ["sim-inversions", "--p", "29", "--config", str(cfg), "--iterations", "100"],
        )
        assert b"# iterations=100\n" in overridden and b"# seed=6\n" in overridden

    def test_scan_default_from_config(self, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("scan=5\n")
        data = run_to_file(tmp_path, "scan.csv", ["scan", "--config", str(cfg)])
        rows = [l for l in data.decode().splitlines()[1:] if not l.startswith("#")]
        assert len(rows) == 5

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        for data, message in [(b"workers: 3\n", "expected 'key=value'"),
                              (b"seed=abc\n", "value for seed must be an integer"),
                              (b"seed=\xff\xfe\n", f"cannot read config file {cfg}")]:
            cfg.write_bytes(data)
            assert main(["scan", "--count", "5", "--config", str(cfg)]) == ExitStatus.USAGE
            assert message in capsys.readouterr().err

    def test_config_counts_below_one(self, tmp_path, capsys):
        for key in ("iterations", "workers"):
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key}=0\n")
            argv = ["sim-inversions", "--p", "29", "--config", str(cfg)]
            assert main(argv) == ExitStatus.USAGE
            assert f"--{key} must be >= 1" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert (
            main(["scan", "--count", "5", "--config", str(tmp_path / "nope.cfg")])
            == ExitStatus.USAGE
        )
        capsys.readouterr()


class TestRepro:
    def test_writes_every_artifact(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        rc = main([
            "repro", "--out-dir", str(out_dir),
            "--iterations", "300", "--seed", "5",
        ])
        assert rc == 0
        manifest = capsys.readouterr().out
        expected = [
            "orbit_m8191_a1904.csv",
            "primitive_roots_p29.csv",
            "inversion_counts_p29.csv",
            "inversion_hist_p29.csv",
            "inversion_hist_p29.svg",
            "runs_hist_p97.csv",
            "runs_hist_p97.svg",
            "legendre_small_primes.csv",
            "runs_scan_200.csv",
        ]
        for name in expected:
            assert (out_dir / name).exists(), name
            assert name in manifest

    def test_repro_is_deterministic(self, tmp_path):
        for d in ("one", "two"):
            assert main(["repro", "--out-dir", str(tmp_path / d),
                         "--iterations", "200"]) == 0
        for name in ("inversion_hist_p29.csv", "runs_scan_200.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_every_artifact_is_its_commands_output(self, tmp_path, capsys):
        iterations, seed, precision = "150", "8", "3"
        out_dir = tmp_path / "artifacts"
        assert main(["repro", "--out-dir", str(out_dir), "--iterations", iterations,
                     "--seed", seed, "--precision", precision]) == 0
        capsys.readouterr()
        sim = ["--iterations", iterations, "--seed", seed, "--workers", "1"]
        commands = {
            "orbit_m8191_a1904.csv": ["period", "--m", "8191", "--a", "1904"],
            "primitive_roots_p29.csv": ["primroots", "--p", "29"],
            "inversion_counts_p29.csv": ["inversions", "--p", "29"],
            "inversion_hist_p29.csv": ["sim-inversions", "--p", "29", *sim],
            "inversion_hist_p29.svg": ["sim-inversions", "--p", "29", *sim, "--format", "svg"],
            "runs_hist_p97.csv": ["sim-runs", "--p", "97", *sim],
            "runs_hist_p97.svg": ["sim-runs", "--p", "97", *sim, "--format", "svg"],
            "runs_scan_200.csv": ["scan", "--count", "200"],
        }
        for name, argv in commands.items():
            own = run_to_file(tmp_path, name, argv + ["--precision", precision])
            assert (out_dir / name).read_bytes() == own, name


# sha256 of the `--out` bytes.  They pin the output bytes across code changes
# and are the same on the pure and compiled kernel backends.  `runs --scan 20`
# is an alias of `scan --count 20` and gives the same bytes.
GOLDEN_CONFIG = "iterations=250\nseed=6\nworkers=2\nprecision=3\nscan=7\n"
GOLDEN = [
    (("legendre", "--p", "11"),
     "42f83464088dfed665c85fafe69a3ca2ab74ca267d84d6594ca032264b185ec7"),
    (("legendre", "--p", "11", "--format", "json"),
     "7277bae08b698d2583f9c71bd3dba9f5a0cf25ba4e3429ea4f536d8bbe9e70ad"),
    (("primroots", "--p", "29"),
     "dfd6bd43cf613b60f28db0d2c050896dc9522eac2ecd235d21ead1a16378b3d6"),
    (("primroots", "--p", "29", "--format", "json"),
     "1bb665f878f0116dec3667599dc5aea9aed83196fe113a2f845584b88b0088bf"),
    (("cycle", "--p", "11", "--g", "2"),
     "52faa3d29c0145fdc4fbcddab802a4a378a729fe330b63b76b70b42c22143d2f"),
    (("cycle", "--p", "11", "--g", "2", "--format", "json"),
     "79ed68905842a8b711e3702f3998a5ac764a57a2e7c023a126264c2be7c6b811"),
    (("squares", "--p", "11"),
     "f01d884904e0ee0fed499a79154ebd3633f3e959a0b21fcd411c4629ebd92170"),
    (("squares", "--p", "11", "--g", "2"),
     "1594bbb378f4aa5c7e23d6279e3bb9197ae7410cab6460ea9f33494f5c3be3cd"),
    (("squares", "--p", "11", "--g", "2", "--format", "json"),
     "f85af43b8b996f1c502f6cff6ad1ba2aa63356d243d74de533fe7ec434b9c149"),
    (("period", "--m", "8191", "--a", "1904"),
     "9f93f4d85fb0eacd42a6c3ad181b200e85eae7a415e32e8a18e6155c99009abc"),
    (("period", "--m", "8191", "--a", "1904", "--format", "json"),
     "47199ad5ccb5e3da0556acea49b9eba44e7f463e774beea26cb1760fbeae1815"),
    (("inversions", "--p", "29"),
     "3eb35378d81d76fd5d45127b82cf5f53b93c050c1fa6a130a2840443b52d62c2"),
    (("inversions", "--p", "29", "--format", "json"),
     "85e91a5eed87e41590d65ff964ff8f08f849610fa2b2ae77c8b6bdc443b1f395"),
    (("inversions", "--p", "29", "--precision", "2"),
     "5c5a3f64ccd072ed9907039a4d41e25cbfd546bbec7a959e683b01d34fc69c45"),
    (("sim-inversions", "--p", "29", "--iterations", "300", "--seed", "7"),
     "7d8d45cfa2e67ed3c75a0f62bdc8e317f707feed65580221e59e75734a9696d1"),
    (("sim-inversions", "--p", "29", "--iterations", "300", "--seed", "7", "--format", "json"),
     "72653e19c91459687e314f14d5e59ab011d0a14d56d735e1fb1d3e8b1f6d29bd"),
    (("sim-inversions", "--p", "29", "--iterations", "300", "--seed", "7", "--format", "svg"),
     "751e4361a1eae205864f26404749092c68b598a5f1bbb3f69c7be56a7e56d6bc"),
    (("sim-inversions", "--p", "29", "--config", "defaults.cfg"),
     "2be9903e1e79ee163bbc9fb1b8ede316b9cf9eb380af5d619a1fc8f62979e41e"),
    (("runs", "--p", "7"),
     "4aa68fc1caaf9d7266471688c00804eb702616df9826d5527cd8cdb2126b50d7"),
    (("runs", "--p", "7", "--format", "json"),
     "08334fd5a1c64ae358cc68852ff6bdbedc0c5eb5d69e93874016f53be814d10a"),
    (("runs", "--scan", "20"),
     "578e240f570104abda3ce96c688fdf8e248e5d43a09382fea5b9f6392b96d296"),
    (("runs", "--scan", "20", "--format", "json"),
     "a98ebbce54b9b0d0ead004351ff422a682d73ede6c89cae1f0793c2d1a8946f6"),
    (("runs", "--scan", "20", "--format", "svg"),
     "a97901065448e6069df598cc466d6b4e787229a7ee53b36d24fc717929a25a75"),
    (("pairs", "--p", "13"),
     "bd40aadb73b7fba9acc6823f621cb4009ef112df514e24b8ca486e5c01bd5d70"),
    (("pairs", "--p", "13", "--format", "json"),
     "a47002c96437def394fda4ff94aa67f10288108e601dd87e5eb0714e0dff8753"),
    (("sim-runs", "--p", "97", "--iterations", "300", "--seed", "7"),
     "5105a9f0817cd4274354e334969635e266574ff7c0ca8a1ec6fc3dd323e76f3f"),
    (("sim-runs", "--p", "97", "--iterations", "300", "--seed", "7", "--format", "json"),
     "3ad2535af067bc8cfce7053c596ce1e71722b287e25e916dd227744617966c14"),
    (("sim-runs", "--p", "97", "--iterations", "300", "--seed", "7", "--format", "svg"),
     "45c59465869d36e9270ee035e3a3d90e9292a802b477781a913c9f49e6bd9ee8"),
    (("sim-runs", "--p", "97", "--iterations", "300", "--seed", "7", "--workers", "2"),
     "25c59f32701e8bd60f733c306b6959bcf226dc9904cab757bfcf3a766c72c83b"),
    (("scan", "--count", "20"),
     "578e240f570104abda3ce96c688fdf8e248e5d43a09382fea5b9f6392b96d296"),
    (("scan", "--count", "20", "--format", "json"),
     "a98ebbce54b9b0d0ead004351ff422a682d73ede6c89cae1f0793c2d1a8946f6"),
    (("scan", "--count", "20", "--format", "svg"),
     "a97901065448e6069df598cc466d6b4e787229a7ee53b36d24fc717929a25a75"),
    (("scan", "--p-max", "60"),
     "0ef282b4dfe9f565bb9034b9fe5ceef290794bb40cdf5ba250bf3eb2f8fcde09"),
    (("scan", "--config", "defaults.cfg"),
     "df5c5a665ac635fd9e02d4aea43cce89859de8483eefc8bcb8a6e14fa5b6d5ba"),
    (("dlog", "--p", "11", "--g", "2", "--a", "7"),
     "3a6fb0b76a928c692024344e5a5839a5ac0f1f7765e27971b1ff771c4d9ce043"),
    (("dlog", "--p", "11", "--g", "2", "--a", "7", "--format", "json"),
     "3a340fb695137b7499fc719b8e5e4dc1597ef36f318264865531357d4fe55080"),
    (("sqrt", "--p", "8191", "--a", "2"),
     "54c948ce8e62335b0fdae913cb634f2db3b7b1a9d14ffc37cb6a73097d803a45"),
    (("sqrt", "--p", "8191", "--a", "2", "--format", "json"),
     "dcada9bb1c8952e3ce9575468564affaf02e1dd75b5f984c98582ba614cdcf33"),
    (("repro", "--out-dir", "art", "--iterations", "200", "--seed", "5"),
     "9d65cf0861e5faf82505aedb971218bf0eb7d3c2619ec3441793f1fed5e9ffe7"),
    (("repro", "--out-dir", "art", "--iterations", "200", "--seed", "5", "--format", "json"),
     "30e487a54240ad79690d8263880b609a133979366aea70753cb4adc6cb1dbe07"),
]
GOLDEN_REPRO_ARTIFACTS = "c7aba83c9c0b902a602bab4214fcefe88a2ab6d89a48163a2db7791d13d618d1"


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_golden_output(tmp_path, monkeypatch, argv, digest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "defaults.cfg").write_text(GOLDEN_CONFIG)
    assert hashlib.sha256(run_to_file(tmp_path, "out", list(argv))).hexdigest() == digest


def test_golden_repro_artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_to_file(tmp_path, "manifest.csv", ["repro", "--out-dir", "art", "--iterations", "200", "--seed", "5"])
    digest = hashlib.sha256()
    for path in sorted((tmp_path / "art").iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == GOLDEN_REPRO_ARTIFACTS


def test_golden_output_on_the_pure_backend(tmp_path):
    """Every golden digest, and the repro artifacts', from a copy of the
    package without the compiled library, in one subprocess."""
    shutil.copytree(Path(cli.__file__).parent, tmp_path / "lib" / "modsquares",
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    work = tmp_path / "work"
    work.mkdir()
    (work / "defaults.cfg").write_text(GOLDEN_CONFIG)
    script = textwrap.dedent("""
        import hashlib, json, sys
        from pathlib import Path
        import modsquares
        from modsquares.cli import main
        assert modsquares.KERNEL_BACKEND == "python", modsquares.KERNEL_BACKEND
        digests = []
        for argv in json.loads(sys.argv[1]):
            assert main(argv + ["--out", "out"]) == 0, argv
            digests.append(hashlib.sha256(Path("out").read_bytes()).hexdigest())
        assert main(["repro", "--out-dir", "art", "--iterations", "200", "--seed", "5", "--out", "out"]) == 0
        digest = hashlib.sha256()
        for path in sorted(Path("art").iterdir()):
            digest.update(path.name.encode() + b"\\0" + path.read_bytes())
        print(json.dumps([digests, digest.hexdigest()]))
    """)
    proc = subprocess.run([sys.executable, "-c", script, json.dumps([list(argv) for argv, _ in GOLDEN])],
                          cwd=work, env={"PYTHONPATH": str(tmp_path / "lib")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    digests, artifacts = json.loads(proc.stdout)
    expected = {" ".join(argv): digest for argv, digest in GOLDEN}
    assert dict(zip(expected, digests)) == expected
    assert artifacts == GOLDEN_REPRO_ARTIFACTS
