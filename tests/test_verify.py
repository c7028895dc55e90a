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

import inspect
import textwrap

import numpy as np
import pytest

from repro.asip import FFTASIP, generate_fft_program
from repro.asip.fft_asip import _FlushSchedule
from repro.cli import main as cli_main
from repro.coding.convolutional import get_code
from repro.coding.viterbi import ViterbiDecoder
from repro.core.array_fft import ArrayFFT
from repro.core.compiled import CompiledArrayFFT
from repro.core.fixed_point import quantize_array
from repro.engines import engine as build_engine
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


def _mutant(monkeypatch, owner, name, old, new):
    """Patch a one-line fault into the shipped ``owner.name``: recompile
    its source with ``old`` (which must occur exactly once) read as
    ``new``."""
    func = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{old!r} is not one site in {name}"
    namespace = {}
    exec(compile(source.replace(old, new), f"<mutant {name}>", "exec"),
         func.__globals__, namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def faulted_after_run(n, fixed_point, faults):
    """An ``FFTASIP`` whose ``run_interpreted`` applies each of
    ``faults`` to it once the run ends."""
    machine = FFTASIP(n, fixed_point=fixed_point)
    interpret = machine.run_interpreted

    def interpret_then_fault(program):
        stats = interpret(program)
        for fault in faults:
            fault(machine)
        return stats

    machine.run_interpreted = interpret_then_fault
    return machine


class TestCoexecClean:
    """Lockstep runs over healthy twins report no divergence."""

    def test_fft_float(self):
        result = coexec_fft(64)
        assert result.ok and result.report is None
        assert result.steps > 0

    def test_fft_q15(self):
        assert coexec_fft(64, fixed_point=True).ok

    def test_asip_lockstep(self):
        """The shipped ``run`` against the step interpreter."""
        result = coexec_asip(16)
        assert result.ok
        assert result.kind == "machine-state"
        assert result.backends == ("asip-run", "asip-interpreted")
        # Every instruction one run retires.
        machine = FFTASIP(16)
        machine.run_interpreted(generate_fft_program(16))
        assert result.steps == machine.stats.instructions == 60

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

    @pytest.mark.parametrize("precision", ["q15", "fixed"])
    def test_backend_pair_overflow_only_divergence(self, precision):
        """Every Q1.15 alias compares exactly and checks the overflow
        counts: spectra that agree with 3 more counts on one side
        diverge."""
        eng_a = build_engine(32, backend="compiled", precision=precision)
        eng_b = build_engine(32, backend="reference", precision=precision)
        transform = eng_a.transform_many

        def three_more(blocks):
            result = transform(blocks)
            result.overflow_count += 3
            return result

        eng_a.transform_many = three_more
        result = coexec_backends(32, engines=(eng_a, eng_b), symbols=2,
                                 precision=precision, close=True)
        assert result.report.location == {"mismatch": "overflow_count"}
        assert result.report.operands == {"a": 3, "b": 0}

    def test_backend_pair_compares_in_the_engines_precision(self):
        """Given engines, the compare mode is their own: a Q1.15 pair
        whose one side reports 3 more overflow counts diverges without
        ``precision=``."""
        eng_a = build_engine(32, backend="compiled", precision="q15")
        eng_b = build_engine(32, backend="reference", precision="q15")
        transform = eng_b.transform_many

        def three_more(blocks):
            result = transform(blocks)
            result.overflow_count += 3
            return result

        eng_b.transform_many = three_more
        result = coexec_backends(32, engines=(eng_a, eng_b), symbols=2,
                                 close=True)
        assert not result.ok
        assert result.report.location == {"mismatch": "overflow_count"}
        assert result.report.operands == {"a": 0, "b": 3}

    def test_backend_pair_of_two_precisions_raises(self):
        with build_engine(32, precision="q15") as q15, \
                build_engine(32, backend="reference") as float_engine:
            with pytest.raises(ValueError, match="one precision"):
                coexec_backends(32, engines=(q15, float_engine))
            with pytest.raises(ValueError, match="one precision"):
                coexec_backends(32, engines=(q15, q15), precision="float")
            assert coexec_backends(32, engines=(q15, q15),
                                   precision="fixed").ok

    def test_backends_need_a_pair(self):
        with pytest.raises(ValueError, match="two backends"):
            coexec_backends(64, ("compiled",))

    def test_fft_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coexec_fft(a=ArrayFFT(32), b=ArrayFFT(64))

    @pytest.mark.parametrize("codes", [("conv-k3", "conv-k7"),
                                       ("conv-k7", "conv-k3")])
    def test_viterbi_code_mismatch_rejected(self, codes):
        a, b = (ViterbiDecoder(get_code(name)) for name in codes)
        with pytest.raises(ValueError, match=f"{codes[0]}/{codes[1]}"):
            coexec_viterbi(a=a, b=b)


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

    @pytest.mark.parametrize("fixed_point", [False, True],
                             ids=["float", "q15"])
    @pytest.mark.parametrize("epoch", [0, 1])
    def test_twiddle_localised_in_each_epoch(self, epoch, fixed_point):
        a = ArrayFFT(64, fixed_point=fixed_point, compiled=True)
        b = ArrayFFT(64, fixed_point=fixed_point, compiled=False)
        with twiddle_flip(a, epoch=epoch, stage=1, index=2):
            result = coexec_fft(a=a, b=b)
        # Three epoch-0 stages and the pre-rotation precede epoch 1.
        assert result.steps == 2 + 4 * epoch
        assert result.report.location == {
            "phase": f"epoch{epoch}", "stage": 1, "group": 0, "lane": 2,
            "butterfly": 2, "role": "sum"}
        # The oracle's Q1.15 ROM holds the quantised weight.
        operands = result.report.operands
        assert abs(operands["weight_a"] + operands["weight_b"]) <= 2 ** -15

    @pytest.mark.parametrize("fixed_point", [False, True],
                             ids=["float", "q15"])
    def test_prerotation_fault_localised_to_element(self, fixed_point):
        """The pre-rotation is element-wise: a flipped weight is one
        (group, lane) site with no butterfly or role."""
        a = ArrayFFT(64, fixed_point=fixed_point, compiled=True)
        eng = a.compiled_engine()
        eng.prerotation[3, 5] = -eng.prerotation[3, 5]
        if fixed_point:
            eng.pr, eng.pi = quantize_array(eng.prerotation)
        result = coexec_fft(a=a, fixed_point=fixed_point)
        assert result.steps == 4
        assert result.report.location == {
            "phase": "prerotate", "stage": 0, "group": 3, "lane": 5}
        operands = result.report.operands
        assert operands["weight_a"] == -operands["weight_b"]

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


class TestCoexecDrivesTheShippedWalks:
    """A one-line fault in a shipped walk, not in its tables, is seen
    and localised: the runners co-execute the engines' own code."""

    def test_compiled_glue_fault_localised_to_prerotation(self,
                                                          monkeypatch):
        _mutant(monkeypatch, CompiledArrayFFT, "_transform_many_float",
                "* self.prerotation", "* self.prerotation.conj()")
        result = coexec_fft(64)
        assert result.steps == 4
        # Row and column 0 of W are 1, so W[1, 1] is the first weight
        # the conjugate changes; the table itself is intact.
        assert result.report.location == {
            "phase": "prerotate", "stage": 0, "group": 1, "lane": 1}
        operands = result.report.operands
        assert operands["weight_a"] == operands["weight_b"]

    def test_oracle_stage_fault_localised_to_first_stage(self,
                                                         monkeypatch):
        _mutant(monkeypatch, ArrayFFT, "_run_group_fixed",
                "s, d = self.fx.butterfly", "d, s = self.fx.butterfly")
        result = coexec_fft(64, fixed_point=True)
        assert result.steps == 1
        assert result.report.backends == ("compiled", "reference")
        assert result.report.location == {
            "phase": "epoch0", "stage": 0, "group": 0, "lane": 0,
            "butterfly": 0, "role": "sum"}

    def test_levelized_run_fault_localised_to_end_state(self,
                                                        monkeypatch):
        """``coexec_asip`` co-executes the ``run`` that ships: a one-line
        fault in the flush schedule's float butterfly is seen."""
        _mutant(monkeypatch, _FlushSchedule, "_evaluate",
                "np.subtract(a, t, out=out[lo:hi, 1])",
                "np.add(a, t, out=out[lo:hi, 1])")
        result = coexec_asip(16)
        assert not result.ok
        report = result.report
        assert report.kind == "machine-state"
        assert report.backends == ("asip-run", "asip-interpreted")
        assert "crf_entry" in report.location \
            or "memory_word" in report.location
        assert report.max_error > 1e-3

    @pytest.mark.parametrize("fixed", [False, True])
    def test_asip_end_state_compared_in_order(self, fixed):
        """Registers, then SimStats counters, both CRF banks, then the
        data window; an output word also reports its bin."""
        n = 16

        def bump_output_word(m):
            word = 2 * n + 5
            m.memory.write_complex(word, m.memory.read_complex(word) + 0.25)

        def bump_shadow_entry(m):
            bank = 1 - m.crf.active_bank
            m.crf.bank_arrays()[0][bank, 2] += 1000 if fixed else 0.5

        def count_a_branch(m):
            m.stats.branches += 1

        def bump_register(m):
            m.registers[9] += 1

        expected = [
            (bump_output_word, {"memory_word": 2 * n + 5,
                                "region": "output", "bin": 5}),
            (bump_shadow_entry, {"bank": "shadow", "crf_entry": 2}),
            (count_a_branch, {"stat": "branches"}),
            (bump_register, {"register": 9}),
        ]
        for count, (_, location) in enumerate(expected, 1):
            twin = faulted_after_run(n, fixed,
                                     [fault for fault, _ in expected[:count]])
            result = coexec_asip(n, b=twin, fixed_point=fixed)
            assert result.report.location == location
            assert result.report.step_index == result.steps

    @pytest.mark.parametrize("fixed", [False, True])
    def test_asip_compares_q15_exactly_and_float_to_atol(self, fixed):
        """One LSB in a Q1.15 output word diverges; a float word 1e-12
        off reads equal at the default ``atol``."""
        n = 16
        word = 2 * n + 1

        def nudge(m):
            if fixed:
                m.memory.write_word(word, m.memory.read_word(word) + 1)
            else:
                m.memory.write_complex(word, m.memory.read_complex(word)
                                       + 1e-12)

        result = coexec_asip(n, b=faulted_after_run(n, fixed, [nudge]),
                             fixed_point=fixed)
        if fixed:
            assert result.report.location == {
                "memory_word": word, "region": "output", "bin": 1}
        else:
            assert result.ok

    def test_oracle_select_fault_localised_to_first_tie(self,
                                                        monkeypatch):
        grid = np.random.default_rng(6).integers(-1, 2, (24, 2)) * 1.0
        clean = ViterbiDecoder(get_code("conv-k3"))
        # The first (step, state) whose candidates tie, in walk order.
        tie = next((t, state) for t, (_, _, candidates)
                   in enumerate(clean._reference_steps(grid))
                   for state, (c0, c1) in enumerate(candidates)
                   if c0 == c1)
        _mutant(monkeypatch, ViterbiDecoder, "_reference_steps",
                "cand[1] > cand[0]", "cand[1] >= cand[0]")
        result = coexec_viterbi(llrs=grid)
        assert result.steps == tie[0] + 1
        assert result.report.location == {
            "step": tie[0], "state": tie[1], "mismatch": "decision"}
        operands = result.report.operands
        assert (operands["a_decision"], operands["b_decision"]) == (0, 1)
        assert operands["b_cand0"] == operands["b_cand1"]


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
