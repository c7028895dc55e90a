"""The ``python -m repro`` reproduction CLI."""

import pytest

from repro.cli import build_parser, main
from repro.core.registry import backend_names
from repro.scenarios import scenario_names
from repro.telemetry import exporter_names, validate_trace_events

BOGUS = "definitely-not-registered"


def _table_body(text: str) -> list:
    """The body rows of the rendered table in ``text``, as cell lists."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line and set(line) <= set("-+")) + 1
    return [[cell.strip() for cell in line.split("|")]
            for line in lines[start:] if "|" in line]


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
        assert "backend = asip-batch)  symbols = 6" in out
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

    def test_bench_all_backends(self, capsys):
        assert main(["bench", "--sizes", "16", "--symbols", "4"]) == 0
        rows = _table_body(capsys.readouterr().out)
        assert {row[0] for row in rows} == {
            "compiled", "reference", "sharded", "asip", "asip-batch"
        }

    def test_bench_unknown_backend_exits_with_menu(self):
        with pytest.raises(SystemExit, match="compiled"):
            main(["bench", "--sizes", "16", "--backend", "bogus"])

    @pytest.mark.parametrize("command,backend", [
        ("fft", "compiled"), ("stream", "compiled"), ("stream", "asip"),
        ("stream", "asip-batch"), ("serve", "compiled"),
    ])
    def test_workers_on_serial_backend_is_loud(self, command, backend):
        with pytest.raises(SystemExit, match="workers"):
            main([command, "--size", "16", "--backend", backend,
                  "--workers", "2"])

    def test_workers_on_serial_bench_backend_is_loud(self):
        with pytest.raises(SystemExit, match="does not take workers"):
            main(["bench", "--sizes", "16", "--symbols", "2",
                  "--backend", "compiled", "--workers", "2"])

    def test_serve_forwards_workers_to_pooled_engines(self, monkeypatch,
                                                      capsys):
        from repro.serve import pool

        built = []
        real_build = pool.build_engine

        def spy(*args, **kwargs):
            built.append(kwargs.get("workers"))
            return real_build(*args, **kwargs)

        monkeypatch.setattr(pool, "build_engine", spy)
        assert main(["serve", "--tenants", "2", "--symbols", "8",
                     "--size", "16", "--backend", "sharded",
                     "--workers", "3"]) == 0
        assert built == [3]
        rows = dict(_table_body(capsys.readouterr().out))
        assert rows["oracle check"] == "ok"

    @pytest.mark.parametrize("command", ["run", "trace"])
    @pytest.mark.parametrize("backend", ["compiled", "asip-batch"])
    def test_workers_on_serial_scenario_backend_is_loud(
            self, command, backend, tmp_path):
        with pytest.raises(SystemExit, match="does not take workers"):
            main([command, "uwb-ofdm", "--size", "64", "--symbols", "2",
                  "--backend", backend, "--workers", "2",
                  *(["--out", str(tmp_path / "t.json")]
                    if command == "trace" else [])])

    def test_bench_single_backend_no_write(self, capsys):
        assert main(["bench", "--sizes", "16", "--symbols", "2",
                     "--backend", "compiled"]) == 0
        rows = _table_body(capsys.readouterr().out)
        assert [row[0] for row in rows] == ["compiled"]


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

    def test_study_table(self, capsys):
        assert main(["uarch", "--size", "64", "--study"]) == 0
        out = capsys.readouterr().out
        assert "Issue-width design study" in out
        assert "extended Table II" in out
        rows = _table_body(out)
        assert {row[0] for row in rows} == {
            "w1/32kB-4way", "w2/32kB-4way", "w1/8kB-2way", "w2/8kB-2way",
        }
        for _, cycles, floor_cycles, *_, energy_uj in rows:
            assert int(floor_cycles) <= int(cycles)
            assert float(energy_uj) > 0


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
        (["bench", "--sizes", "16", "--backend", BOGUS],
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


class TestFileWrites:
    """No command writes a file by default; ``--trace PATH`` writes one
    trace-event file, at PATH."""

    SPECTRAL = ["spectral", "--size", "64", "--symbols", "2"]

    @pytest.mark.parametrize("argv", [
        ["bench", "--sizes", "16", "--symbols", "2"],
        ["stream", "--size", "32", "--symbols", "4"],
        ["serve", "--tenants", "2", "--symbols", "8", "--size", "16"],
        ["uarch", "--size", "64"],
        ["uarch", "--size", "64", "--study"],
        ["run", *SPECTRAL],
    ], ids=["bench", "stream", "serve", "uarch", "uarch-study", "run"])
    def test_default_flags_write_nothing(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["bench", "--sizes", "16", "--symbols", "2"],
        ["serve", "--tenants", "2", "--symbols", "8", "--size", "16"],
        ["run", *SPECTRAL],
    ], ids=["bench", "serve", "run"])
    def test_trace_flag_writes_one_file_at_path(self, argv, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--trace", "spans.json"]) == 0
        assert list(tmp_path.iterdir()) == [tmp_path / "spans.json"]
        assert validate_trace_events((tmp_path / "spans.json").read_text())
        assert "trace -> spans.json" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["bench", "serve", "run"])
    def test_trace_flag_requires_a_path(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--trace"])
        assert excinfo.value.code == 2
        assert "--trace: expected one argument" in capsys.readouterr().err
