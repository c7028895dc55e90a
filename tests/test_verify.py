"""Co-execution, fault injection and fuzzing (repro.verify).

Three layers of coverage:

* clean lockstep runs over every runner — no false divergences;
* the fault-injection self-test — every fault class in
  ``FAULT_CLASSES`` must be *detected* and *localised to the injected
  coordinates*, and the hooks must restore state on exit;
* the seeded fuzzer — a fixed-seed smoke (the tier-1 acceptance
  criterion: zero real divergences across all registered backends),
  determinism, and the shrinker.
"""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.array_fft import ArrayFFT
from repro.verify import (
    FAULT_CLASSES,
    FUZZ_KINDS,
    branch_metric_flip,
    coexec_asip,
    coexec_backends,
    coexec_demap,
    coexec_fft,
    coexec_llrs,
    coexec_viterbi,
    demonstrate_fault,
    fuzz_backends,
    shrink_config,
    slicer_threshold_shift,
    twiddle_flip,
)


class TestCoexecClean:
    """Lockstep runs over healthy twins report no divergence."""

    def test_fft_float(self):
        result = coexec_fft(64)
        assert result.ok and result.report is None
        assert result.steps > 0

    def test_fft_q15(self):
        assert coexec_fft(64, fixed_point=True).ok

    def test_asip_lockstep(self):
        result = coexec_asip(16)
        assert result.ok
        assert result.steps > 0  # instructions actually stepped

    def test_asip_q15(self):
        assert coexec_asip(16, fixed_point=True).ok

    def test_viterbi_trellis(self):
        result = coexec_viterbi(steps=24)
        assert result.ok
        assert result.steps == 24

    def test_viterbi_trellis_steps_both_acs_modes(self, viterbi_calls):
        """The default finite grid steps the two-call kernel, a grid
        holding ``±inf`` the per-step select, one trellis step at a time
        (one ``maximum``, or the select's two copies, per step)."""
        assert coexec_viterbi(steps=24).ok
        assert viterbi_calls["maximum"] == 24
        assert not viterbi_calls["copyto"]
        viterbi_calls.clear()
        llrs = np.random.default_rng(5).standard_normal((24, 2))
        llrs[[3, 10], 0] = np.inf, -np.inf
        with np.errstate(invalid="ignore"):
            result = coexec_viterbi(llrs=llrs)
        assert result.ok and result.steps == 24
        assert viterbi_calls["copyto"] == 2 * 24
        assert not viterbi_calls["maximum"]

    @pytest.mark.parametrize("scheme", ["bpsk", "qpsk", "16qam", "64qam"])
    def test_demap_slicer(self, scheme):
        from repro.ofdm import CONSTELLATIONS

        rng = np.random.default_rng(3)
        symbols = rng.standard_normal((3, 40)) \
            + 1j * rng.standard_normal((3, 40))
        result = coexec_demap(CONSTELLATIONS[scheme], symbols)
        assert result.ok
        assert result.steps == 120

    def test_backend_pair(self):
        result = coexec_backends(64, ("compiled", "reference"), symbols=4)
        assert result.ok
        assert result.steps == 4
        assert result.seconds > 0

    def test_backend_pair_q15(self):
        assert coexec_backends(32, ("compiled", "asip"), symbols=2,
                               precision="q15").ok

    def test_backends_need_a_pair(self):
        with pytest.raises(ValueError, match="two backends"):
            coexec_backends(64, ("compiled",))

    def test_fft_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coexec_fft(a=ArrayFFT(32), b=ArrayFFT(64))


class TestFaultLocalisation:
    """Acceptance: every injected fault class is detected *and*
    localised to the exact injected coordinates."""

    @pytest.mark.parametrize("kind", FAULT_CLASSES)
    def test_fault_detected(self, kind):
        fault, result = demonstrate_fault(kind)
        assert not result.ok, f"{kind}: harness missed {fault.describe()}"
        assert result.report.backends  # a named backend pair
        assert kind.split("-")[0] in fault.kind

    def test_twiddle_localised_to_butterfly(self):
        fault, result = demonstrate_fault("twiddle")
        loc = result.report.location
        assert result.report.kind == "fft-butterfly"
        assert loc["phase"] == "epoch0"
        assert loc["stage"] == fault.location["stage"] == 1
        assert loc["butterfly"] == fault.location["butterfly"] == 2
        # The diverging operand pair carries both sides' weights.
        assert "weight_a" in result.report.operands

    def test_branch_metric_localised_to_trellis_step(self):
        fault, result = demonstrate_fault("branch-metric")
        assert result.report.kind == "viterbi-step"
        assert result.report.location["state"] == fault.location["state"]
        assert result.report.location["mismatch"] == "metric"
        # Pinned where the three-call select kernel reported it: the
        # finite default grid now steps the two-call kernel.
        assert result.steps == 3 and result.report.step_index == 2
        assert result.report.location == {"step": 2, "state": 1,
                                          "mismatch": "metric"}
        operands = result.report.operands
        assert operands["a_decision"] == operands["b_decision"] == 1
        assert operands["a_metric"] == 15.984047339528248
        assert operands["b_metric"] == 9.15567510705377

    def test_llr_sign_localised_to_bit(self):
        fault, result = demonstrate_fault("llr-sign")
        assert result.report.kind == "llr"
        assert result.report.location["bit"] == fault.location["position"]
        assert result.report.location["sign_flipped"] is True

    @pytest.mark.parametrize("atol", [0.0, 1e-9])
    def test_llr_nan_on_one_side_localised_to_symbol_bit(self, atol):
        """``|a - b|`` is NaN where one side is, and ``NaN > atol`` is
        False: a NaN must still count as a mismatch."""
        from repro.coding.demap import get_demapper

        clean = get_demapper("16qam")

        class NanBit3:
            def llrs(self, symbols, noise_var=None):
                out = clean.llrs(symbols, noise_var)
                out[..., 3] = np.nan
                return out

        rng = np.random.default_rng(4)
        symbols = rng.standard_normal((4, 16)) \
            + 1j * rng.standard_normal((4, 16))
        result = coexec_llrs(NanBit3(), clean, symbols, atol=atol)
        assert result.report.kind == "llr"
        assert result.report.location["symbol"] == 0
        assert result.report.location["bit"] == 3
        assert result.report.message == "4 LLR(s) differ"
        assert coexec_llrs(NanBit3(), NanBit3(), symbols, atol=atol).ok

    def test_llr_exact_compare_sees_signed_zeros(self):
        """At ``atol=0`` the sign bits must agree, as for the slicer."""

        class Const:
            def __init__(self, value):
                self.value = value

            def llrs(self, symbols, noise_var=None):
                return np.full((3, 8), self.value)

        symbols = np.zeros((3, 4), dtype=complex)
        result = coexec_llrs(Const(0.0), Const(-0.0), symbols)
        assert result.report.location == {"symbol": 0, "bit": 0,
                                          "sign_flipped": True}
        assert coexec_llrs(Const(0.0), Const(-0.0), symbols, atol=1e-9).ok

    def test_slicer_threshold_localised_to_symbol_bit(self):
        fault, result = demonstrate_fault("slicer-threshold")
        report = result.report
        assert report.kind == "demap"
        assert fault.location["axis"] == "Q"
        # The diverging symbol lies between the old and the moved
        # threshold, and the diverging bit is a quadrature (low-half) bit.
        low, high = sorted((fault.location["old"], fault.location["new"]))
        assert low < report.operands["symbol"].imag < high
        assert report.location["bit"] >= 2
        assert report.operands["a"] != report.operands["b"]

    def test_worker_shard_localised_to_symbol(self):
        fault, result = demonstrate_fault("worker-shard")
        assert result.report.kind == "spectrum"
        assert result.report.location["symbol"] == fault.location["symbol"]

    def test_asip_step_localised_to_instruction(self):
        fault, result = demonstrate_fault("asip-step")
        assert result.report.kind == "asip-instruction"
        # at_step is 1-based; the diff surfaces after that instruction.
        assert result.report.step_index == fault.location["at_step"] - 1
        assert result.report.operands["register"] == \
            fault.location["register"]
        assert "opcode" in result.report.location

    def test_engine_stall_localised_to_tenant(self):
        fault, result = demonstrate_fault("engine-stall")
        assert result.report.kind == "engine-stall"
        assert result.report.location["tenant"] == "stalled"
        # The clean tenant on the same server kept serving bit-exact
        # results while the stalled one's watchdog fired exactly once.
        assert result.report.operands["clean_ok"] is True
        assert result.report.operands["recorded_timeouts"] == 1

    def test_unknown_fault_class_raises(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            demonstrate_fault("cosmic-ray")

    def test_twiddle_hook_restores_on_exit(self):
        a = ArrayFFT(64, compiled=True)
        b = ArrayFFT(64, compiled=False)
        with twiddle_flip(a, epoch=0, stage=1, index=2):
            assert not coexec_fft(a=a, b=b).ok
        assert coexec_fft(a=a, b=b).ok  # tables restored

    def test_slicer_threshold_hook_restores_on_exit(self):
        from repro.ofdm.modulation import Constellation

        c = Constellation("qpsk", 2)
        symbols = np.array([0.1 + 0.5j, -0.4 - 0.1j])
        with slicer_threshold_shift(c, axis=0, threshold=0):
            assert not coexec_demap(c, symbols).ok
        assert coexec_demap(c, symbols).ok  # threshold restored

    def test_branch_metric_hook_restores_on_exit(self):
        from repro.coding.convolutional import get_code
        from repro.coding.viterbi import ViterbiDecoder

        a = ViterbiDecoder(get_code("conv-k3"))
        b = ViterbiDecoder(get_code("conv-k3"))
        with branch_metric_flip(a, state=1, branch=1):
            assert not coexec_viterbi(a=a, b=b).ok
        assert coexec_viterbi(a=a, b=b).ok


class TestFuzz:
    def test_fixed_seed_smoke(self):
        # The tier-1 acceptance smoke: a fixed-seed sweep across every
        # generator family and registered backend finds nothing.
        report = fuzz_backends(8, seed=1234)
        assert report.ok
        assert report.cases == 8
        assert "0 divergences" in report.summary()

    def test_covers_all_kinds_round_robin(self):
        report = fuzz_backends(len(FUZZ_KINDS), seed=3)
        assert report.ok and report.cases == len(FUZZ_KINDS)

    def test_coded_family_checks_the_soft_demapper(self, monkeypatch):
        from repro.coding.demap import SoftDemapper

        def one_ulp_off(self, symbols, noise_var=None):
            out = self.llrs_reference(symbols, noise_var)
            out[..., 1] = np.nextafter(out[..., 1], np.inf)
            return out

        monkeypatch.setattr(SoftDemapper, "llrs", one_ulp_off)
        report = fuzz_backends(2, seed=3, kinds=("coded",), shrink=False)
        assert len(report.failures) == 2
        divergence = report.failures[0].report
        assert divergence.kind == "llr"
        assert divergence.backends == ("demap-points-major",
                                       "demap-reference")
        # Row 0's LLR in column 1 is not finite in this case, and one
        # ulp off NaN or inf is itself: row 1 is the first to differ.
        assert divergence.location == {
            "symbol": 1, "bit": 1, "sign_flipped": False, "code": "conv-k7",
            "rate": "1/2", "interleaver": "block", "constellation": "16qam"}

    def test_coded_family_reaches_the_serial_traceback(self, monkeypatch):
        """Seed 0's case decodes a 9-block burst of the 64-state code:
        9 x 64 is above ``_WINDOWED_TRACEBACK_MAX``, so the serial walk
        runs, and it agrees with the oracle."""
        from repro.coding.viterbi import ViterbiDecoder, \
            _WINDOWED_TRACEBACK_MAX

        serial = ViterbiDecoder._traceback_serial
        shapes = []

        def counted(self, decisions):
            shapes.append(decisions.shape)
            return serial(self, decisions)

        monkeypatch.setattr(ViterbiDecoder, "_traceback_serial", counted)
        report = fuzz_backends(1, seed=0, kinds=("coded",))
        assert report.ok
        assert shapes == [(28, 9, 64)]
        assert 9 * 64 > _WINDOWED_TRACEBACK_MAX

    def test_coded_family_localises_a_burst_bit(self, monkeypatch):
        from repro.coding.viterbi import ViterbiDecoder

        serial = ViterbiDecoder._traceback_serial

        def flip_one(self, decisions):
            bits = serial(self, decisions)
            bits[3, 5] ^= 1
            return bits

        monkeypatch.setattr(ViterbiDecoder, "_traceback_serial", flip_one)
        report = fuzz_backends(1, seed=0, kinds=("coded",), shrink=False)
        assert len(report.failures) == 1
        divergence = report.failures[0].report
        assert divergence.kind == "viterbi-step"
        assert divergence.backends == ("viterbi-vectorized",
                                       "viterbi-reference")
        assert divergence.step_index == 5
        assert divergence.location == {
            "block": 3, "info_bit": 5, "blocks": 9, "code": "conv-k7",
            "rate": "2/3", "interleaver": "identity",
            "constellation": "16qam"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fuzz kind"):
            fuzz_backends(2, kinds=("isa", "quantum"))

    def test_generators_are_deterministic(self):
        from repro.verify.fuzz import _gen_coded, _gen_isa

        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        assert _gen_isa(a) == _gen_isa(b)
        assert _gen_coded(a) == _gen_coded(b)

    def test_shrink_reaches_the_floors(self):
        from repro.verify.coexec import DivergenceReport

        report = DivergenceReport(kind="spectrum", backends=("a", "b"),
                                  step_index=0)
        minimal = shrink_config(
            {"n_points": 64, "symbols": 4, "seed": 1},
            lambda config: report,  # never stops failing
        )
        assert minimal == {"n_points": 16, "symbols": 1, "seed": 1}

    def test_shrink_keeps_failing_configs_only(self):
        from repro.verify.coexec import DivergenceReport

        report = DivergenceReport(kind="spectrum", backends=("a", "b"),
                                  step_index=0)

        def run_case(config):
            # Fails only while symbols stays above 2: the shrinker must
            # stop at 2, not push through to the floor of 1.
            return report if config["symbols"] >= 2 else None

        minimal = shrink_config({"symbols": 8, "seed": 0}, run_case)
        assert minimal["symbols"] == 2


class TestCli:
    def test_fuzz_mode(self, capsys):
        assert cli_main(["verify", "--fuzz", "4", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "fuzz: 4 cases, 0 divergences" in out

    def test_inject_mode(self, capsys):
        assert cli_main(["verify", "--inject", "twiddle"]) == 0
        out = capsys.readouterr().out
        assert "injected twiddle-flip" in out
        assert "detected" in out

    def test_coexec_mode(self, capsys):
        assert cli_main(["verify", "--coexec", "uwb-ofdm",
                         "--symbols", "2"]) == 0
        assert "parity: OK" in capsys.readouterr().out

    def test_exactly_one_mode_required(self):
        with pytest.raises(SystemExit):
            cli_main(["verify"])
        with pytest.raises(SystemExit):
            cli_main(["verify", "--fuzz", "2", "--inject", "twiddle"])

    def test_unknown_scenario_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["verify", "--coexec", "not-a-scenario"])

    def test_inject_choices_cover_fault_classes(self):
        from repro.cli import build_parser

        parser = build_parser()
        for kind in FAULT_CLASSES:
            args = parser.parse_args(["verify", "--inject", kind])
            assert args.inject == kind
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "--inject", "bogus"])
