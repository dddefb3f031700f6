"""CLI surface: exit codes, output formats, determinism, config handling."""

import json
import time
import xml.etree.ElementTree as ET

import pytest

from modsquares import cli
from modsquares.cli import ExitStatus, emit_csv, emit_svg_histogram, main, run_command
from modsquares.permstats import SimConfig, SimReport


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

    def test_run_command_alias(self, capsys):
        assert run_command(["runs", "--p", "7"]) == 0
        capsys.readouterr()


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


class TestDeterminism:
    def test_identical_argv_identical_bytes(self, tmp_path):
        argv = ["sim-inversions", "--p", "29", "--iterations", "800", "--seed", "99"]
        assert run_to_file(tmp_path, "a.csv", argv) == run_to_file(tmp_path, "b.csv", argv)

    def test_workers_above_one_still_deterministic(self, tmp_path):
        argv = [
            "sim-runs", "--p", "97", "--iterations", "900",
            "--seed", "4", "--workers", "3",
        ]
        assert run_to_file(tmp_path, "a.csv", argv) == run_to_file(tmp_path, "b.csv", argv)

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
        cfg.write_text("workers: 3\n")
        assert main(["scan", "--count", "5", "--config", str(cfg)]) == ExitStatus.USAGE
        capsys.readouterr()

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
