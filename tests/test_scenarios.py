"""The scenario registry, presets, wiring and the `run` CLI."""

import json

import numpy as np
import pytest

import repro
from repro.analysis import scenario_sweep
from repro.cli import main
from repro.scenarios import (
    ScenarioSpec,
    build_scenario,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_names,
    scenario_specs,
    unregister_scenario,
)

PRESETS = ("uwb-ofdm", "wimax-ofdm", "multipath-eq", "spectral")


class TestRegistry:
    def test_builtin_presets_registered(self):
        names = scenario_names()
        for name in PRESETS:
            assert name in names
        assert len(names) >= 4

    def test_unknown_scenario_lists_menu(self):
        with pytest.raises(KeyError, match="uwb-ofdm"):
            get_scenario("nope")
        with pytest.raises(ValueError, match="registered scenarios"):
            get_scenario("nope")
        assert isinstance(
            pytest.raises(repro.UnknownNameError, get_scenario, "x").value,
            LookupError,
        )

    def test_register_and_unregister(self):
        spec = ScenarioSpec(name="tiny", description="test", n_points=16,
                            snr_db=30.0, symbols=2)
        register_scenario(spec)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(spec)
            assert get_scenario("tiny") is spec
            result = run_scenario("tiny")
            assert result.symbols == 2
            assert result.n_points == 16
        finally:
            unregister_scenario("tiny")
        with pytest.raises(KeyError):
            get_scenario("tiny")

    def test_spec_type_checked(self):
        with pytest.raises(TypeError, match="ScenarioSpec"):
            register_scenario({"name": "dict"})

    def test_specs_snapshot(self):
        specs = scenario_specs()
        assert specs["spectral"].precision == "q15"
        assert specs["multipath-eq"].channel_profile == (3, 0.4, 2)


class TestPresets:
    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_builds_and_runs_small(self, name):
        result = run_scenario(name, symbols=2, n_points=64)
        assert result.name == name
        assert result.symbols == 2
        assert result.spectrum.shape == (2, 64)
        if get_scenario(name).scheme is not None:
            assert result.ber is not None

    def test_channel_taps_reproducible(self):
        spec = get_scenario("multipath-eq")
        taps_a = spec.make_channel().taps
        taps_b = spec.make_channel().taps
        assert np.array_equal(taps_a, taps_b)

    def test_backend_override(self):
        result = run_scenario("wimax-ofdm", symbols=2, n_points=32,
                              backend="asip-batch")
        assert result.transform.backend == "asip-batch"
        assert result.total_cycles > 0

    def test_workers_override_selects_sharded(self):
        with build_scenario("uwb-ofdm", workers=2) as pipe:
            assert pipe.engine.backend == "sharded"
        with pytest.raises(ValueError, match="does not take workers"):
            build_scenario("uwb-ofdm", backend="compiled", workers=2)

    def test_spectral_preset_is_q15(self):
        result = run_scenario("spectral", symbols=3, n_points=32)
        assert result.precision == "q15"
        assert "overflow_count" in result.metrics


class TestScenarioParity:
    """Presets through the pipeline match the link composed by hand."""

    @pytest.mark.parametrize("backend",
                             ("compiled", "asip-batch", "sharded"))
    @pytest.mark.parametrize("name",
                             ("uwb-ofdm", "wimax-ofdm", "multipath-eq"))
    def test_ber_and_bits_match_link(self, name, backend, hand_chain):
        spec = get_scenario(name)
        n = 32  # shrink the geometry; the chain shape is what's under test
        with spec.build(n_points=n, backend=backend) as pipe:
            result = pipe.run(symbols=3)
        link = hand_chain(n, 3, backend=backend, scheme=spec.scheme,
                          channel=spec.make_channel(), snr_db=spec.snr_db,
                          seed=spec.seed)
        assert np.array_equal(result.rx_bits, link.rx_bits)
        assert np.array_equal(result.equalised, link.equalised)
        assert result.metrics["bit_errors"] == link.bit_errors
        assert result.transform.cycles == link.cycles

    def test_spectral_matches_streaming_fft_engine(self):
        spec = get_scenario("spectral")
        with spec.build(n_points=32, backend="asip-batch") as pipe:
            result = pipe.run(symbols=4)
        blocks = result.stage_outputs["block-source"]
        with repro.engine(32, backend="asip-batch", precision="q15") as eng:
            streamed = eng.stream(blocks, verify=True)
            assert streamed.n_symbols == 4
            assert result.transform.cycles == streamed.cycles
            # Same blocks through the persistent machine: bit-identical.
            spectra, _ = eng.machine.run_batch(eng.impl.program, blocks)
        assert np.array_equal(result.spectrum, spectra)

    def test_link_from_scenario_rejects_unmodulated(self):
        from repro.analysis import ber_sweep

        with pytest.raises(ValueError, match="'spectral' carries no bits"):
            ber_sweep(snr_dbs=(10,), scenario="spectral")


class TestScenarioSweepHelpers:
    def test_sweep_rows_for_all_presets(self):
        rows = scenario_sweep(symbols=2, n_points=32)
        assert {row["scenario"] for row in rows} == set(scenario_names())
        for row in rows:
            assert row["symbols"] == 2
            assert row["wall_ms"] > 0

    def test_ber_sweep_accepts_scenario(self):
        from repro.analysis import ber_sweep

        curve = ber_sweep(snr_dbs=(10, 20), symbols=2,
                          scenario="wimax-ofdm", n_points=32)
        assert set(curve) == {10.0, 20.0}

    def test_ber_sweep_needs_geometry(self):
        from repro.analysis import ber_sweep

        with pytest.raises(ValueError, match="n_points or scenario"):
            ber_sweep(snr_dbs=(10,))

    def test_ber_sweep_of_coded_preset_is_decoded_ber(self):
        from repro.analysis import ber_sweep

        curve = ber_sweep(snr_dbs=(2.0,), symbols=2, n_points=256,
                          scenario="uwb-ofdm-coded")
        result = run_scenario("uwb-ofdm-coded", symbols=2, n_points=256,
                              snr_db=2.0)
        assert curve == {2.0: result.metrics["coded_ber"]}
        assert result.metrics["coded_ber"] < result.metrics["uncoded_ber"]

    def test_ber_sweep_rejects_scenario_conflicts(self):
        from repro.analysis import ber_sweep

        channel = get_scenario("multipath-eq").make_channel()
        for field, value in (("scheme", "bpsk"), ("channel", channel)):
            with pytest.raises(ValueError, match=f"already fixes {field}"):
                ber_sweep(snr_dbs=(10,), symbols=2, n_points=32,
                          scenario="wimax-ofdm", **{field: value})


class TestRunCli:
    def test_run_list(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_run_single_scenario(self, capsys):
        assert main(["run", "multipath-eq", "--size", "32",
                     "--symbols", "2"]) == 0
        out = capsys.readouterr().out
        assert "multipath-eq" in out
        assert "BER" in out
        assert "source -> modulate" in out

    def test_run_scenario_on_asip_backend(self, capsys):
        assert main(["run", "wimax-ofdm", "--size", "32", "--symbols", "2",
                     "--backend", "asip-batch"]) == 0
        out = capsys.readouterr().out
        assert "cycles/symbol" in out

    def test_run_all_records_rows(self, tmp_path, capsys):
        target = tmp_path / "bench.json"
        assert main(["run", "--all", "--size", "32", "--symbols", "2",
                     "--record", str(target)]) == 0
        out = capsys.readouterr().out
        assert "Scenario sweep" in out
        stored = json.loads(target.read_text())
        rows = stored["cli_run"]["latest"]["rows"]
        assert {r["scenario"] for r in rows} == set(scenario_names())
        assert all("wall_ms" in r for r in rows)

    def test_run_unknown_scenario_exits_with_menu(self):
        with pytest.raises(SystemExit, match="uwb-ofdm"):
            main(["run", "bogus"])

    def test_run_without_name_exits_helpfully(self):
        with pytest.raises(SystemExit, match="--list"):
            main(["run"])

    def test_run_q15_shows_overflow(self, capsys):
        assert main(["run", "spectral", "--size", "32",
                     "--symbols", "2"]) == 0
        assert "overflow count" in capsys.readouterr().out
