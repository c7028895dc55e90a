"""The coded OFDM chain through pipelines, scenarios, CLI and metrics."""

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.pipelines import CODED_OFDM_CHAIN
from repro.scenarios import get_scenario, scenario_names

CODED_PRESETS = ("dvbt-2k", "dvbt-8k", "uwb-ofdm-coded",
                 "wimax-ofdm-coded")


class TestCodedChain:
    def test_chain_constant_matches_acceptance_shape(self):
        assert CODED_OFDM_CHAIN == (
            "source", "encode", "interleave", "modulate", "ifft",
            "channel", "transform", "equalize", "soft-demodulate",
            "deinterleave", "decode", "coded-metrics",
        )

    def test_coded_chain_validates(self):
        pipe = repro.pipeline(64, CODED_OFDM_CHAIN, scheme="qpsk",
                              snr_db=12.0, code="conv-k7")
        assert pipe.stage_names == list(CODED_OFDM_CHAIN)
        pipe.close()

    def test_coded_pipeline_runs_and_reports(self):
        with repro.pipeline(64, CODED_OFDM_CHAIN, scheme="qpsk",
                            snr_db=14.0, code="conv-k7",
                            code_rate="2/3") as pipe:
            result = pipe.run(symbols=4)
        metrics = result.metrics
        assert metrics["code"] == "conv-k7 r2/3"
        assert metrics["coded_ber"] == metrics["ber"]
        assert metrics["coded_ber"] <= metrics["uncoded_ber"]
        assert 0.0 <= metrics["fer"] <= 1.0
        assert metrics["info_bits_per_symbol"] * 4 == metrics["total_bits"]
        # per-stage outputs flow with the declared kinds
        assert result.stage_outputs["soft-demodulate"].shape == (4, 128)
        assert result.stage_outputs["decode"].shape == (
            4, metrics["info_bits_per_symbol"]
        )

    def test_unknown_code_fails_at_build(self):
        with pytest.raises(repro.UnknownNameError, match="conv-k7"):
            repro.pipeline(64, CODED_OFDM_CHAIN, code="turbo")

    def test_unknown_interleaver_fails_at_build(self):
        with pytest.raises(repro.UnknownNameError, match="block"):
            repro.pipeline(64, CODED_OFDM_CHAIN, code="conv-k7",
                           interleaver="helical")

    def test_unregistered_demapper_scheme_fails_at_build(self):
        # 64qam maps fine but has no registered soft demapper yet; a
        # coded pipeline must refuse at build time, not mid-run.
        with pytest.raises(repro.UnknownNameError, match="16qam"):
            repro.pipeline(64, CODED_OFDM_CHAIN, scheme="64qam",
                           code="conv-k7")

    def test_interleaver_without_code_is_loud(self):
        with pytest.raises(ValueError, match="coded pipeline"):
            repro.pipeline(64, code=None, interleaver="block")

    def test_coded_stage_outside_coded_pipeline_is_loud(self):
        with repro.pipeline(
            64, ("source", "encode", "metrics"), scheme="qpsk"
        ) as pipe:
            with pytest.raises(ValueError, match="coded pipeline"):
                pipe.run(symbols=2)

    def test_reference_decode_stage_is_bit_identical(self):
        spec = get_scenario("uwb-ofdm-coded")
        with spec.build(n_points=64) as fast, \
                spec.build(n_points=64).with_stage(
                    "decode", "decode", reference=True) as oracle:
            a = fast.run(symbols=3)
            b = oracle.run(symbols=3)
        assert np.array_equal(a.output, b.output)
        assert a.metrics["coded_ber"] == b.metrics["coded_ber"]

    def test_payload_injection_round_trip(self):
        with repro.pipeline(64, CODED_OFDM_CHAIN, scheme="qpsk",
                            snr_db=30.0, code="conv-k7") as pipe:
            info = np.zeros((2, 58), dtype=int)
            info[:, :4] = 1
            result = pipe.run(data=info)
        assert np.array_equal(result.output, info)


class TestCodedPresets:
    @pytest.mark.parametrize("name", CODED_PRESETS)
    def test_preset_registered_and_coded(self, name):
        spec = get_scenario(name)
        assert name in scenario_names()
        assert spec.code == "conv-k7"
        assert tuple(spec.stages) == CODED_OFDM_CHAIN

    @pytest.mark.parametrize("name", CODED_PRESETS)
    def test_preset_runs_small(self, name):
        result = repro.run_scenario(name, symbols=2, n_points=64)
        assert result.name == name
        assert "coded_ber" in result.metrics
        assert "uncoded_ber" in result.metrics
        assert "fer" in result.metrics

    @pytest.mark.parametrize("name", CODED_PRESETS)
    def test_high_snr_coded_ber_never_worse_than_uncoded(self, name):
        """The sanity property: at high SNR, coding never hurts."""
        spec = get_scenario(name)
        result = repro.run_scenario(
            name, symbols=4, n_points=64,
            snr_db=(spec.snr_db or 20.0) + 8.0,
        )
        assert result.metrics["coded_ber"] <= result.metrics["uncoded_ber"]
        assert result.metrics["coded_ber"] == 0.0

    def test_preset_on_asip_backend_reports_cycles(self):
        result = repro.run_scenario("wimax-ofdm-coded", symbols=2,
                                    n_points=32, backend="asip-batch")
        assert result.transform.backend == "asip-batch"
        assert result.total_cycles > 0
        assert "coded_ber" in result.metrics


class TestCodedLinkParity:
    """The coded chain equals the coded link composed by hand, bit for
    bit, on every parity backend."""

    @pytest.mark.parametrize("name",
                             ("uwb-ofdm-coded", "wimax-ofdm-coded"))
    def test_pipeline_matches_coded_link(self, name, hand_chain):
        spec = get_scenario(name)
        for backend in ("compiled", "asip-batch", "sharded"):
            with spec.build(n_points=64, backend=backend) as pipe:
                pres = pipe.run(symbols=3)
            link = hand_chain(64, 3, backend=backend, scheme=spec.scheme,
                              channel=spec.make_channel(),
                              snr_db=spec.snr_db, seed=spec.seed,
                              code=spec.code, code_rate=spec.code_rate,
                              interleaver=spec.interleaver)
            assert np.array_equal(pres.stage_outputs["source"],
                                  link.tx_info), backend
            assert np.array_equal(pres.output, link.rx_info), backend
            assert np.array_equal(pres.equalised, link.equalised), backend
            assert pres.transform.cycles == link.cycles, backend
            assert pres.metrics["coded_ber"] == link.coded_ber, backend
            assert pres.metrics["uncoded_ber"] == link.uncoded_ber, backend
            assert pres.metrics["fer"] == link.fer, backend


class TestStageSeconds:
    def test_every_stage_is_accounted(self):
        with repro.pipeline(64, scheme="qpsk", snr_db=20.0) as pipe:
            result = pipe.run(symbols=2)
        seconds = result.metrics["stage_seconds"]
        assert list(seconds) == list(pipe.stage_names)
        assert all(v >= 0.0 for v in seconds.values())

    def test_repeated_stage_names_get_suffixes(self):
        with repro.pipeline(
            32, ("block-source", "transform", "metrics", "metrics"),
            scheme=None,
        ) as pipe:
            result = pipe.run(symbols=2)
        assert "metrics#2" in result.metrics["stage_seconds"]

    def test_sweep_rows_carry_stage_seconds(self):
        from repro.analysis import scenario_sweep

        rows = scenario_sweep(names=["uwb-ofdm-coded"], symbols=2,
                              n_points=64)
        assert "stage_seconds" in rows[0]
        assert "decode" in rows[0]["stage_seconds"]


class TestCodedCli:
    def test_run_coded_scenario_prints_both_bers(self, capsys):
        assert main(["run", "wimax-ofdm-coded", "--size", "64",
                     "--symbols", "2"]) == 0
        out = capsys.readouterr().out
        assert "coded BER" in out
        assert "uncoded BER" in out
        assert "FER" in out
        assert "slowest stages" in out

    def test_run_record_includes_coded_rows(self):
        from repro.analysis import scenario_sweep

        # The rows ``run --all`` tabulates.
        rows = scenario_sweep(n_points=64, symbols=2)
        by_name = {row["scenario"]: row for row in rows}
        assert set(by_name) == set(scenario_names())
        for name in CODED_PRESETS:
            assert "coded_ber" in by_name[name]
            assert "stage_seconds" in by_name[name]

    def test_run_list_shows_coded_presets(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        for name in CODED_PRESETS:
            assert name in out
