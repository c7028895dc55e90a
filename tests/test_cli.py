"""The ``python -m repro`` reproduction CLI."""

import pytest

from repro.cli import build_parser, main
from repro.core.registry import backend_names
from repro.scenarios import scenario_names
from repro.telemetry import exporter_names

BOGUS = "definitely-not-registered"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.size == 1024
        args = build_parser().parse_args(["hw"])
        assert args.group_size == 32


class TestCommands:
    def test_fft_command(self, capsys):
        assert main(["fft", "--size", "64"]) == 0
        out = capsys.readouterr().out
        assert "cycles = " in out
        assert "max error" in out

    def test_fft_fixed_point(self, capsys):
        assert main(["fft", "--size", "16", "--fixed-point"]) == 0
        assert "Q1.15" in capsys.readouterr().out

    def test_stream_command(self, capsys):
        assert main(["stream", "--size", "64", "--symbols", "6"]) == 0
        out = capsys.readouterr().out
        assert "Msample/s" in out
        assert "Mbps" in out
        assert "deterministic = True" in out

    def test_stream_fixed_point(self, capsys):
        assert main(["stream", "--size", "32", "--symbols", "4",
                     "--fixed-point", "--no-verify"]) == 0
        assert "Q1.15" in capsys.readouterr().out

    def test_hw_command(self, capsys):
        assert main(["hw", "--group-size", "16"]) == 0
        assert "BU + AC gates" in capsys.readouterr().out

    def test_listing_command(self, capsys):
        assert main(["listing", "--size", "8"]) == 0
        out = capsys.readouterr().out
        assert "but4" in out
        assert "stout" in out

    def test_table2_small(self, capsys):
        assert main(["table2", "--size", "64"]) == 0
        out = capsys.readouterr().out
        assert "X vs proposed" in out
        assert "Standard SW FFT" in out


class TestFacadeFlags:
    def test_fft_on_compiled_backend(self, capsys):
        assert main(["fft", "--size", "32", "--backend", "compiled"]) == 0
        out = capsys.readouterr().out
        assert "backend = compiled" in out
        assert "max error" in out
        assert "cycles = " not in out  # no simulated machine behind it

    def test_fft_precision_flag(self, capsys):
        assert main(["fft", "--size", "16", "--precision", "q15"]) == 0
        out = capsys.readouterr().out
        assert "Q1.15" in out
        assert "overflow count" in out

    def test_stream_backend_flag(self, capsys):
        assert main(["stream", "--size", "32", "--symbols", "4",
                     "--backend", "compiled"]) == 0
        out = capsys.readouterr().out
        assert "backend = compiled" in out
        assert "deterministic = True" in out

    def test_stream_records_row(self, tmp_path, capsys):
        target = tmp_path / "bench.json"
        assert main(["stream", "--size", "32", "--symbols", "4",
                     "--record", str(target)]) == 0
        assert "recorded" in capsys.readouterr().out
        import json

        stored = json.loads(target.read_text())
        row = stored["cli_stream"]["latest"]["rows"][0]
        assert row["backend"] == "asip-batch"
        assert row["symbols"] == 4

    def test_bench_all_backends(self, tmp_path, capsys):
        target = tmp_path / "bench.json"
        assert main(["bench", "--sizes", "16", "--symbols", "4",
                     "--record", str(target)]) == 0
        out = capsys.readouterr().out
        for name in ("compiled", "reference", "sharded",
                     "asip", "asip-batch"):
            assert name in out
        import json

        stored = json.loads(target.read_text())
        rows = stored["cli_bench"]["latest"]["rows"]
        assert {r["backend"] for r in rows} == {
            "compiled", "reference", "sharded", "asip", "asip-batch"
        }

    def test_bench_unknown_backend_exits_with_menu(self):
        with pytest.raises(SystemExit, match="compiled"):
            main(["bench", "--sizes", "16", "--backend", "bogus",
                  "--record", ""])

    def test_fft_workers_on_serial_backend_is_loud(self):
        with pytest.raises(SystemExit, match="workers"):
            main(["fft", "--size", "16", "--backend", "compiled",
                  "--workers", "2"])

    def test_bench_single_backend_no_write(self, capsys):
        assert main(["bench", "--sizes", "16", "--symbols", "2",
                     "--backend", "compiled", "--record", ""]) == 0
        out = capsys.readouterr().out
        assert "compiled" in out
        assert "recorded" not in out

    def test_bench_history_appends(self, tmp_path):
        target = tmp_path / "bench.json"
        for _ in range(2):
            assert main(["bench", "--sizes", "16", "--symbols", "2",
                         "--backend", "compiled",
                         "--record", str(target)]) == 0
        import json

        stored = json.loads(target.read_text())
        assert len(stored["cli_bench"]["history"]) == 2
        assert (stored["cli_bench"]["latest"]
                == stored["cli_bench"]["history"][-1])


class TestReport:
    def test_report_small(self, capsys):
        assert main(["report", "--size", "64"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "Table I" in out and "Table II" in out
        assert "FAIL" not in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--size", "64",
                     "--output", str(target)]) == 0
        assert "Hardware cost" in target.read_text()


class TestUarch:
    def test_overlay_table_and_sandwich(self, capsys):
        assert main(["uarch", "--size", "64"]) == 0
        out = capsys.readouterr().out
        assert "Timing overlay" in out
        assert "critical-path" in out
        assert "dual-issue" in out
        assert "sandwich:" in out and "ok" in out
        assert "VIOLATED" not in out

    def test_scenario_positional_sets_size(self, capsys):
        assert main(["uarch", "multipath-eq"]) == 0
        assert "128-point" in capsys.readouterr().out

    def test_unknown_scenario_exits_with_menu(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["uarch", "definitely-not-a-scenario"])
        assert "uwb-ofdm" in str(excinfo.value)

    def test_study_records_section(self, tmp_path, capsys):
        import json

        target = tmp_path / "bench.json"
        assert main(["uarch", "--size", "64", "--study",
                     "--record", str(target)]) == 0
        out = capsys.readouterr().out
        assert "Issue-width design study" in out
        assert "extended Table II" in out
        stored = json.loads(target.read_text())
        rows = stored["uarch"]["latest"]["rows"]
        assert {row["config"] for row in rows} == {
            "w1/32kB-4way", "w2/32kB-4way", "w1/8kB-2way", "w2/8kB-2way",
        }
        for row in rows:
            assert row["floor_cycles"] <= row["cycles"]
            assert row["energy_uj"] > 0


class TestUnknownNames:
    """``main()`` turns every unknown registry name into one exit path:
    the registry's own message, sorted menu included."""

    @pytest.mark.parametrize("argv,noun,names", [
        (["run", BOGUS], "scenario", scenario_names),
        (["trace", BOGUS], "scenario", scenario_names),
        (["trace", "spectral", "--exporter", BOGUS], "exporter",
         exporter_names),
        (["verify", "--coexec", BOGUS], "scenario", scenario_names),
        (["uarch", BOGUS], "scenario", scenario_names),
        (["bench", "--sizes", "16", "--backend", BOGUS, "--record", ""],
         "backend", backend_names),
    ], ids=["run", "trace", "trace-exporter", "verify-coexec", "uarch",
            "bench"])
    def test_unknown_name_exits_with_menu(self, argv, noun, names):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert str(excinfo.value) == (
            f"unknown {noun} {BOGUS!r}; registered {noun}s: "
            f"{', '.join(names())}"
        )
