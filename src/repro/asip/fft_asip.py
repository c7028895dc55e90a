"""The array-FFT ASIP: base core + BU, CRF, ROM and AC-logic extension.

Microarchitectural conventions (our concrete realisation of Section III,
recorded in DESIGN.md):

* **Memory layout** (point addresses; one 32-bit word per complex point,
  the 64-bit bus moves two points per beat):
  input at ``[0, N)`` in the paper's AI0 (corner-turned, group-contiguous)
  order, inter-epoch scratch at ``[N, 2N)`` laid out ``s*Q + l``, output
  at ``[2N, 3N)`` in natural spectral order.
* **LDIN rs, rt** loads points ``mem[rs], mem[rs + k0]`` into CRF entries
  ``rt, rt+1`` and post-increments ``rs += 2*k0``, ``rt += 2`` — the
  hardware post-increment that "removes all the address calculation
  instructions from the assembly code" (Section III-A).  ``k0`` (r26) is
  the memory point-stride configuration register.
* **STOUT rs, rt** stores CRF entries ``rs, rs+1`` to ``mem[rt],
  mem[rt + k0]`` with the same post-increment; ``imm = 1`` selects the
  epoch-0 variant that applies the inter-epoch pre-rotation ``W_N^{sl}``
  on the way out (Algorithm 1 line 15), with ``(s, l)`` decoded from the
  scratch-relative store address.
* **BUT4 rs, rt** executes one BU op for module ``reg[rs]`` and stage
  ``reg[rt]`` (both 1-origin).  All CRF/ROM addresses come from the AC
  logic.  Completing the last module of a stage swaps the ping-pong CRF
  banks.  ``k1`` (r27) holds the current epoch's group size; the decoder
  re-configures the AC logic when it changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..addressing.bitops import bit_width_of
from ..addressing.coefficients import PreRotationStore, prerotation_matrix
from ..core.fixed_point import (
    LANE_DTYPE,
    FixedComplex,
    FixedPointContext,
    fixed_to_complex_array,
    fixed_to_words_array,
    quantize,
    quantize_array,
    words_to_fixed_array,
)
from ..core.plan import ArrayFFTPlan, build_plan
from ..isa.instructions import Instruction, Opcode
from ..sim.ac_logic import AddressChangingLogic
from ..sim.bu_unit import BUFunctionalUnit
from ..sim.cache import CacheConfig
from ..sim.crf import CustomRegisterFile
from ..sim.errors import SimulationError
from ..sim.machine import Machine
from ..sim.memory import MainMemory
from ..sim.pipeline import PipelineConfig
from ..sim.rom import CoefficientROM
from ..sim.stats import SimStats

__all__ = ["FFTASIP", "STRIDE_REG", "STOUT_STRIDE_REG", "GROUP_SIZE_REG"]

STRIDE_REG = 26        # k0: LDIN memory point stride
STOUT_STRIDE_REG = 25  # STOUT memory point stride
GROUP_SIZE_REG = 27    # k1: current epoch group size (points)


class _QuantizedButterflyArithmetic:
    """Adapter running BU lanes through the Q1.15 datapath.

    The scalar oracle reads CRF entries as Python complex; every value
    the int-mode CRF holds lies on the Q1.15 grid, so re-quantising
    inputs is lossless and the sequence of operations is bit-true.
    """

    def __init__(self, context: FixedPointContext):
        self.context = context

    def butterfly(self, a: complex, b: complex, w: complex) -> tuple:
        s, d = self.context.butterfly(
            quantize(complex(a)), quantize(complex(b)), quantize(complex(w))
        )
        return s.to_complex(), d.to_complex()


class FFTASIP(Machine):
    """The paper's processor: PISA-like core with the FFT extension.

    One fast path sits beside one oracle: :meth:`run` and
    :meth:`run_batch` execute a program as a levelized pass over one
    symbol or many (recorded once per entry control state, replayed
    after), and :meth:`run_interpreted` steps the scalar per-lane
    datapath both are tested against.

    Parameters
    ----------
    n_points:
        FFT size the datapath is provisioned for (CRF depth = P, ROM = P/2
        entries).  Programs for smaller sizes also run: the CRF is sized
        by the largest group.
    fixed_point:
        Selects the bit-true Q1.15 datapath (with per-stage scaling) or
        the idealised float datapath.  Q1.15 keeps the CRF as int32
        ``re``/``im`` lanes.
    """

    def __init__(self, n_points: int, cache_config: CacheConfig = None,
                 pipeline: PipelineConfig = None, fixed_point: bool = False,
                 memory_words: int = None):
        plan = build_plan(n_points)
        words = memory_words or max(4 * n_points, 4096)
        super().__init__(
            MainMemory(words, float_mode=not fixed_point),
            cache_config=cache_config,
            pipeline=pipeline or PipelineConfig(),
        )
        self.plan: ArrayFFTPlan = plan
        self.n_points = n_points
        self.fixed_point = fixed_point
        self.fx = FixedPointContext() if fixed_point else None
        arithmetic = _QuantizedButterflyArithmetic(self.fx) if fixed_point else None
        self.crf = CustomRegisterFile(plan.crf_entries, int_mode=fixed_point)
        self.rom = CoefficientROM(plan.split.P)
        self.ac = AddressChangingLogic()
        self.bu = BUFunctionalUnit(arithmetic=arithmetic)
        self.prerotation = (
            PreRotationStore(n_points) if n_points >= 8
            else _SmallPreRotation(n_points)
        )
        # Pre-rotation weights flattened over the scratch layout (rel =
        # s*Q + l), built lazily on first use with the vectorised
        # symmetry reconstruction so STOUT's per-point lookup is a single
        # array index.  Values are bit-identical to per-(s, l)
        # ``prerotation.weight`` calls, and the lazy build keeps the
        # fault-injection seam: replacing ``self.prerotation`` before the
        # first run is honoured, as with ArrayFFT's compiled engine.
        self._prerot_flat = None
        self._prerot_fx = None
        self._prerot_components = None
        # The levelized pass being recorded (see run_batch), or None;
        # _records keeps the replayable passes.
        self._batch = None
        self._records = []
        self.input_base = 0
        self.scratch_base = n_points
        self.output_base = 2 * n_points
        self._configured_group_size = None
        self._modules_per_stage = None
        # AI0 corner-turn permutation: input point i holds
        # x[(i % P) * Q + i // P]; plan-static, shared by load_input and
        # the batch stager.
        idx = np.arange(n_points, dtype=np.int64)
        split = plan.split
        self._input_perm = (idx % split.P) * split.Q + idx // split.P
        # Hardware address sequencers for LDIN / STOUT: within-group point
        # count and the latched group start address (Section III-A: the
        # decoder generates the whole AO0/AI1 address walk; software only
        # issues the ops).
        self._flow = {"ldin": [0, 0], "stout": [0, 0]}

    # Data staging ---------------------------------------------------------

    def load_input(self, x) -> None:
        """Stage the input vector in the paper's AI0 memory order.

        Natural-order ``x`` is corner-turned so that epoch-0 group ``l``
        occupies the contiguous points ``[l*P, (l+1)*P)``: point
        ``l*P + m`` holds ``x[Q*m + l]``.
        """
        x = np.asarray(x, dtype=complex)
        if len(x) != self.n_points:
            raise ValueError(
                f"ASIP provisioned for N={self.n_points}, got {len(x)}"
            )
        self.memory.scatter_complex(
            self.input_base + np.arange(self.n_points),
            x[self._input_perm],
        )

    def read_output(self) -> np.ndarray:
        """Read back the natural-order spectrum from the output region."""
        return self.memory.read_complex_vector(self.output_base, self.n_points)

    # Levelized execution ----------------------------------------------------

    #: Control records kept per machine (see run_batch): a stream passes
    #: through the power-on entry state and then one steady one.
    CONTROL_RECORDS = 2

    def run(self, program) -> SimStats:
        """Run ``program`` over the staged input; returns the stats.

        A batchable program (:meth:`_can_batch`) runs as a one-symbol
        :meth:`run_batch` pass over the words already in
        ``[input_base, input_base + N)``: recorded from a new entry
        control state, replayed from a known one, and evaluated into the
        memory window and both CRF banks.  Unbatchable programs run per
        op on :meth:`Machine.run`, and so do programs the recorder
        refuses, from the entry state it puts back.  A recording pass
        comes back here and runs on :meth:`Machine.run` too.
        """
        if self._batch is not None or not self._can_batch(program):
            return super().run(program)
        words = self.input_base + np.arange(self.n_points)
        if self.fixed_point:
            inputs = tuple(part[:, None] for part in words_to_fixed_array(
                self.memory.gather_words(words)))
        else:
            inputs = (self.memory.gather_complex(words)[:, None],)
        try:
            self._pass(program, inputs)
        except _Unbatchable:
            return super().run(program)
        return self.stats

    def run_batch(self, program, blocks) -> tuple:
        """Run ``program`` over an ``(n_symbols, N)`` block batch.

        Fast path: the program's control plane — predecoded interpreter,
        registers, branches, the LDIN/STOUT address sequencers and every
        :class:`SimStats` counter — runs at most once, valid because
        generated programs have no data-dependent control flow.  The data
        plane is levelized (see :class:`_SymbolBatch`): custom ops only
        record which value each CRF entry and data-window word names, and
        the recording compiles into a :class:`_FlushSchedule` that runs
        each FFT stage once as a few wide column ops over every symbol and
        every group of its epoch.

        No instruction moves data into a register, so a pass depends only
        on the entry control state (:meth:`_control_key`).  The first
        batch from a state interprets the program and keeps a
        :class:`_ControlRecord` of the pass (at most
        :attr:`CONTROL_RECORDS`); later batches from that state replay it
        without interpreting, unless its instruction count now exceeds
        ``max_instructions``.  Either way every counter retires
        ``n_symbols`` times its per-pass delta, data-cache hits, misses
        and writebacks come from :meth:`DataCache.replay` of the recorded
        walk, and data (memory, CRF, ROM, pre-rotation weights) is read
        live.  The end state (registers, memory, both CRF banks, cache)
        equals that of ``n_symbols`` :meth:`run` calls, one per symbol.

        A Q1.15 batch holding NaN or infinity raises ``ValueError`` while
        it is staged, before the pass runs or retires.  A program whose
        data plane the recorder refuses (it reads data-region state a
        previous symbol would produce, or its custom ops leave
        ``[0, 3N)``) raises :class:`SimulationError`, with the machine
        left as it was.

        Returns ``(outputs, per_symbol_cycles)``.  Falls back to the
        serial per-symbol loop whenever exact batched semantics cannot be
        guaranteed: instrumented machines, programs containing LW/SW, or
        charged cache latency.
        """
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 2 or blocks.shape[1] != self.n_points:
            raise ValueError(
                f"expected an (n_symbols, {self.n_points}) batch, "
                f"got shape {blocks.shape}"
            )
        n = blocks.shape[0]
        if n == 0:
            return blocks.copy(), []
        if not self._can_batch(program):
            outputs = np.empty_like(blocks)
            cycles = []
            for k in range(n):
                before = self.stats.cycles
                self.load_input(blocks[k])
                self.run(program)
                cycles.append(self.stats.cycles - before)
                outputs[k] = self.read_output()
            return outputs, cycles
        # Stage the symbols in AI0 order, position-major, before anything
        # runs or retires: a batch whose Q1.15 quantisation raises leaves
        # the machine untouched.
        inputs = (quantize_array(blocks.T[self._input_perm])
                  if self.fixed_point else (blocks.T[self._input_perm],))
        record, outputs = self._pass(program, inputs, restage=True)
        return outputs, [record.cycles] * n

    def _pass(self, program, inputs: tuple, restage: bool = False) -> tuple:
        """Record or replay one pass over the ``(N, n_symbols)``
        ``inputs``, retire it once per symbol and evaluate it; returns
        ``(record, outputs)``.  With ``restage`` (inputs from a batch, not
        the input region) the last symbol's input is left there."""
        key = self._control_key()
        record = self._find_record(program, key)
        if record is None:
            record = self._record_pass(program, key)
        self._retire(record, inputs[0].shape[1])
        return record, record.schedule.evaluate(self, inputs, restage)

    def _control_key(self) -> tuple:
        """The entry control state a batch pass reads: the 32 registers,
        both sequencer cursors, the configured group size, the active CRF
        bank, the pipeline timing, whether a D-cache exists and the
        predecode token (the program's identity is matched separately)."""
        flow = self._flow
        return (
            tuple(self.registers), tuple(flow["ldin"]),
            tuple(flow["stout"]), self._configured_group_size,
            self.crf.active_bank, self.pipeline, self.dcache is not None,
            self._predecode_token(),
        )

    def _control_state(self) -> tuple:
        """Copies of the control state a pass changes: the registers, pc,
        ``halted``, both sequencer cursors, the group size and the active
        CRF bank."""
        flow = self._flow
        return (tuple(self.registers), self.pc, self.halted,
                (tuple(flow["ldin"]), tuple(flow["stout"])),
                self._configured_group_size, self.crf.active_bank)

    def _set_control_state(self, state: tuple) -> None:
        """Enter a state taken by :meth:`_control_state`; the AC logic is
        re-configured with the group size."""
        registers, pc, halted, flow, group_size, active_bank = state
        self.registers[:] = registers
        self.pc = pc
        self.halted = halted
        self._last_load_reg = None
        self._flow = {"ldin": list(flow[0]), "stout": list(flow[1])}
        if group_size != self._configured_group_size:
            self._configure_group(group_size)
        if self.crf.active_bank != active_bank:
            self.crf.swap_banks()

    def _find_record(self, program, key: tuple):
        """The replayable record of ``program`` from ``key``, or None."""
        records = self._records
        for index, record in enumerate(records):
            if record.program is program and record.key == key:
                if record.instructions > self.max_instructions:
                    return None
                records.append(records.pop(index))
                return record
        return None

    def _batch_counters(self) -> tuple:
        """``(object, attribute)`` of every counter a batch retires per
        symbol, ``cycles`` and ``instructions`` first."""
        stats = self.stats
        return tuple((stats, name) for name in _STATS_COUNTERS) + (
            (self.crf, "reads"), (self.crf, "writes"),
            (self.rom, "reads"), (self.bu.unit, "op_count"),
        )

    def _record_pass(self, program, key: tuple) -> "_ControlRecord":
        """Interpret ``program`` once over value names and keep the pass.

        Counters are left at their entry values; :meth:`_retire` then
        applies the record like any replayed one.  A refused pass
        (:class:`_Unbatchable`) puts back the whole entry state, so the
        program can run per op from it.
        """
        counters = self._batch_counters()
        before = [getattr(obj, name) for obj, name in counters]
        ops = self.stats.custom_ops
        ops_before = dict(ops)
        crf = self.crf
        crf_state = (crf.active_bank, crf.reads, crf.writes)
        entry = self._control_state()

        def restore_counters():
            for (obj, name), value in zip(counters, before):
                setattr(obj, name, value)
            ops.clear()
            ops.update(ops_before)

        batch = self._batch = _SymbolBatch(self)
        try:
            self.run(program)
            # Dataflow guard: a column both read-while-unwritten and
            # written during the run means the program consumed state
            # that, serially, a previous symbol would have produced — the
            # batch result would silently diverge for symbols >= 2.
            # Generated FFT programs are strictly write-before-read and
            # never trip this.
            if bool(np.any(batch.suspect & batch.written)):
                raise _Unbatchable(
                    "batched program reads data-region state carried "
                    "across symbols; FFTASIP.run runs it per op, one "
                    "symbol at a time"
                )
        except _Unbatchable:
            # Memory and CRF data are untouched until the flush.
            self._set_control_state(entry)
            restore_counters()
            raise
        except Exception:
            # The CRF's data is untouched until the flush; put back the
            # bank selection and counters the recording advanced.
            if crf.active_bank != crf_state[0]:
                crf.swap_banks()
            crf.reads, crf.writes = crf_state[1:]
            raise
        finally:
            self._batch = None
        record = _ControlRecord(
            program=program,
            key=key,
            deltas=tuple(getattr(obj, name) - value
                         for (obj, name), value in zip(counters, before)),
            op_deltas=tuple((op, count - ops_before.get(op, 0))
                            for op, count in ops.items()
                            if count != ops_before.get(op, 0)),
            end=self._control_state(),
            walk=(np.concatenate(batch.walk, dtype=_INDEX)
                  if batch.walk else None),
            schedule=batch.schedule(),
        )
        restore_counters()
        self._records.append(record)
        if len(self._records) > self.CONTROL_RECORDS:
            del self._records[0]
        return record

    def _retire(self, record: "_ControlRecord", n: int) -> None:
        """Retire ``n`` symbols of a recorded pass: counters, end control
        state and D-cache, exactly as ``n`` serial runs leave them."""
        for (obj, name), delta in zip(self._batch_counters(), record.deltas):
            setattr(obj, name, getattr(obj, name) + n * delta)
        ops = self.stats.custom_ops
        for op, delta in record.op_deltas:
            ops[op] = ops.get(op, 0) + n * delta
        self._set_control_state(record.end)
        if self.dcache is not None and record.walk is not None:
            hits, misses = self.dcache.replay(record.walk, n)
            self.stats.dcache_hits += hits
            self.stats.dcache_misses += misses

    def _can_batch(self, program) -> bool:
        """Whether a levelized pass reproduces per-op runs exactly."""
        if self.charge_cache_latency:
            return False
        patched = ("step", "execute_custom", "load_input", "read_output",
                   "_exec_but4", "_exec_ldin", "_exec_stout")
        if any(name in self.__dict__ for name in patched):
            return False
        return not program.opcodes & {Opcode.LW, Opcode.SW}

    # Custom instruction execution ------------------------------------------

    def execute_custom(self, instr: Instruction) -> int:
        if instr.opcode is Opcode.BUT4:
            return self._exec_but4(instr)
        if instr.opcode is Opcode.LDIN:
            return self._exec_ldin(instr)
        if instr.opcode is Opcode.STOUT:
            return self._exec_stout(instr)
        raise SimulationError(f"unexpected custom opcode {instr.opcode}")

    def custom_executor(self, instr: Instruction):
        """Resolve the custom-op dispatch once at predecode time."""
        handlers = {
            Opcode.BUT4: self._exec_but4,
            Opcode.LDIN: self._exec_ldin,
            Opcode.STOUT: self._exec_stout,
        }
        executor = handlers.get(instr.opcode)
        if executor is None:
            raise SimulationError(f"unexpected custom opcode {instr.opcode}")
        return executor

    def _predecode_token(self):
        """Decoded handlers specialise on whether a pass is being
        recorded (only a recording fuses custom-op bursts) and on any
        instance-level patch of the custom-op executors (a patch between
        runs of the same program must rebuild the handlers)."""
        instance = self.__dict__
        return (
            self._batch is not None,
            instance.get("_exec_but4"),
            instance.get("_exec_ldin"),
            instance.get("_exec_stout"),
        )

    def custom_burst_executor(self, program, start: int, end: int):
        """Fused recorders for LDIN/STOUT/BUT4 runs (predecode hook).

        Only a recording pass fuses.  Generated programs issue these ops
        in long straight-line bursts whose addressing is
        hardware-sequenced, so a whole run records as a few column ops
        over value names, with the statistics and cycle charges of the
        per-op path.  Outside a recording every custom op runs the
        scalar datapath per op.
        """
        if self._batch is None:
            return None
        instrs = [program[i] for i in range(start, end)]
        op = instrs[0].opcode
        first = instrs[0]
        identical = all(
            i.rs == first.rs and i.rt == first.rt and i.imm == first.imm
            for i in instrs
        )
        if op is Opcode.LDIN and identical:
            return self._make_ldin_burst(first, len(instrs))
        if op is Opcode.STOUT and identical:
            return self._make_stout_burst(first, len(instrs))
        if op is Opcode.BUT4:
            return self._make_but4_burst(instrs)
        return None

    def _make_ldin_burst(self, instr: Instruction, count: int):
        def burst(self=self, rs=instr.rs, rt=instr.rt, count=count):
            size = self._group_size()
            stride = self._stride()
            stats = self.stats
            ops = stats.custom_ops
            ops["ldin"] = ops.get("ldin", 0) + count
            stats.loads += count
            return self._ldin_burst(rs, rt, count, size, stride)
        return burst

    def _make_stout_burst(self, instr: Instruction, count: int):
        def burst(self=self, rs=instr.rs, rt=instr.rt,
                  prerotate=bool(instr.imm & 1), count=count):
            size = self._group_size()
            stride = self._stride(STOUT_STRIDE_REG)
            stats = self.stats
            ops = stats.custom_ops
            ops["stout"] = ops.get("stout", 0) + count
            stats.stores += count
            return self._stout_burst(rs, rt, prerotate, count, size, stride)
        return burst

    def _make_but4_burst(self, instrs: list):
        operand_regs = [(i.rs, i.rt) for i in instrs]

        def burst(self=self, operand_regs=operand_regs, count=len(instrs)):
            size = self._group_size()
            stats = self.stats
            ops = stats.custom_ops
            ops["but4"] = ops.get("but4", 0) + count
            read_reg = self.read_reg
            modules_per_stage = self._modules_per_stage
            index = 0
            while index < count:
                rs, rt = operand_regs[index]
                module = read_reg(rs)
                stage = read_reg(rt)
                # Extend over consecutive modules of the same stage; the
                # whole span records as one column op.
                last_module = module
                span_end = index + 1
                while span_end < count:
                    rs2, rt2 = operand_regs[span_end]
                    if (read_reg(rt2) != stage
                            or read_reg(rs2) != last_module + 1):
                        break
                    last_module += 1
                    span_end += 1
                reads, rom_addresses, writes, lanes = self.ac.span_arrays(
                    module, last_module, stage
                )
                self._batch.butterflies(reads, rom_addresses, writes, lanes,
                                        span_end - index, size)
                if last_module == modules_per_stage:
                    self.crf.swap_banks()
                index = span_end
            return count * (self.pipeline.but4_latency - 1)
        return burst

    # Recorded LDIN/STOUT bursts --------------------------------------------
    #
    # A fused burst has the architectural effect of the per-op loop: it
    # runs the hardware address sequencer for the whole burst, records
    # every cache beat in op order, and moves value names as whole
    # columns.  CRF chunks never exceed the group size, so positions
    # within a chunk are unique and a chunk's scatter equals the
    # sequential writes.

    def _sequence_walk(self, kind: str, size: int, stride: int,
                       mem: int, count: int) -> tuple:
        """Address walk of ``count`` two-point ops; mutates the flow state.

        Returns ``(addresses, final_cursor)`` with ``addresses`` shaped
        ``(count, 2)`` — exactly the pairs the per-op loop would touch,
        with the flow state left as ``count`` calls of
        :meth:`_advance_cursor` would leave it.
        """
        flow = self._flow[kind]
        group_count, group_start = flow
        addresses = np.empty((count, 2), dtype=np.int64)
        for k in range(count):
            if group_count == 0:
                group_start = mem
            addresses[k, 0] = mem
            addresses[k, 1] = mem + stride
            group_count += 2
            if group_count >= size:
                mem = group_start + (1 if stride > 1 else size)
                group_count = 0
                group_start = mem
            else:
                mem += 2 * stride
        flow[0] = group_count
        flow[1] = group_start
        return addresses, mem

    def _ldin_burst(self, rs: int, rt: int, count: int, size: int,
                    stride: int) -> int:
        mem = self.read_reg(rs)
        crf_start = self.read_reg(rt)
        addresses, mem_final = self._sequence_walk(
            "ldin", size, stride, mem, count
        )
        if self.dcache is not None:
            self._batch.record_walk(addresses, is_write=False)
        flat = addresses.reshape(-1)
        self._check_window(flat, "LDIN")
        offsets = np.arange(2 * count, dtype=np.int64)
        for lo in range(0, 2 * count, size):
            chunk = slice(lo, min(lo + size, 2 * count))
            positions = (crf_start + offsets[chunk]) % size
            self._batch.ldin(flat[chunk], positions)
        self.write_reg(rs, int(mem_final))
        self.write_reg(rt, int((crf_start + 2 * count) % size))
        return count * (self.pipeline.custom_mem_latency - 1)

    def _stout_burst(self, rs: int, rt: int, prerotate: bool, count: int,
                     size: int, stride: int) -> int:
        crf_start = self.read_reg(rs)
        mem = self.read_reg(rt)
        addresses, mem_final = self._sequence_walk(
            "stout", size, stride, mem, count
        )
        if self.dcache is not None:
            self._batch.record_walk(addresses, is_write=True)
        flat = addresses.reshape(-1)
        self._check_window(flat, "STOUT")
        offsets = np.arange(2 * count, dtype=np.int64)
        for lo in range(0, 2 * count, size):
            chunk = slice(lo, min(lo + size, 2 * count))
            positions = (crf_start + offsets[chunk]) % size
            self._record_stout(flat[chunk], positions, prerotate)
        self.write_reg(rs, int((crf_start + 2 * count) % size))
        self.write_reg(rt, int(mem_final))
        return count * (self.pipeline.custom_mem_latency - 1)

    def _record_stout(self, flat: np.ndarray, positions: np.ndarray,
                      prerotate: bool) -> None:
        """Record one chunk of STOUT points CRF -> memory."""
        self._batch.stout(
            flat, positions, self._scratch_rel(flat) if prerotate else None,
        )

    def _scratch_rel(self, flat: np.ndarray) -> np.ndarray:
        """Scratch-relative indices of pre-rotating STOUT addresses."""
        rel = flat - self.scratch_base
        if rel.size and (
            int(rel.min()) < 0 or int(rel.max()) >= self.n_points
        ):
            raise SimulationError(
                f"pre-rotating STOUT targets addresses outside the "
                f"scratch region [{self.scratch_base}, "
                f"{self.scratch_base + self.n_points})"
            )
        self._prerotation_table()  # ensure the weight tables exist
        return rel

    def _check_window(self, flat: np.ndarray, op: str) -> None:
        """Recorded custom ops must stay inside the staged data regions."""
        window = self._batch.window
        if flat.size and (
            int(flat.min()) < 0 or int(flat.max()) >= window
        ):
            raise _Unbatchable(
                f"batched {op} touches memory outside the data regions "
                f"[0, {window}); FFTASIP.run runs such programs per op"
            )

    def _group_size(self) -> int:
        size = self.read_reg(GROUP_SIZE_REG)
        if size <= 0:
            raise SimulationError(
                "group-size register k1 not configured before custom op"
            )
        if size != self._configured_group_size:
            self._configure_group(size)
            self._flow = {"ldin": [0, 0], "stout": [0, 0]}
        return size

    def _configure_group(self, size) -> None:
        """Latch group size ``size`` into the AC logic; None leaves it
        unconfigured, so the next custom op configures it."""
        self._configured_group_size = size
        if size is None:
            self._modules_per_stage = None
            return
        self.ac.configure(size)
        self._modules_per_stage = self.ac.modules_per_stage()

    def _stride(self, register: int = STRIDE_REG) -> int:
        stride = self.read_reg(register)
        return stride if stride > 0 else 1

    def _exec_but4(self, instr: Instruction) -> int:
        self.stats.count_custom("but4")
        size = self._group_size()
        module = self.read_reg(instr.rs)
        stage = self.read_reg(instr.rt)
        if self._batch is None:
            addresses = self.ac.addresses(module, stage)
            self.bu.execute(addresses, self.crf, self.rom, size)
        else:
            reads, rom_addresses, writes, lanes = self.ac.index_arrays(
                module, stage
            )
            self._batch.butterflies(reads, rom_addresses, writes, lanes, 1,
                                    size)
        if module == self._modules_per_stage:
            self.crf.swap_banks()
        return self.pipeline.but4_latency - 1

    def _advance_cursor(self, kind: str, size: int, stride: int,
                        mem: int) -> int:
        """Hardware address sequencing for one 2-point LDIN/STOUT.

        Within a group of ``size`` points the cursor advances by
        ``2*stride``; completing a group rewinds to the next group's start
        (``group_start + 1`` for strided walks — the transpose pattern of
        AO0/AI1 — or ``group_start + size`` for contiguous ones).  The
        group start is latched from the software-visible cursor whenever a
        group begins, so software may reload the pointer register at any
        group boundary.
        """
        count, start = self._flow[kind]
        if count == 0:
            start = mem
        count += 2
        if count >= size:
            next_start = start + (1 if stride > 1 else size)
            self._flow[kind] = [0, next_start]
            return next_start
        self._flow[kind] = [count, start]
        return mem + 2 * stride

    def _exec_ldin(self, instr: Instruction) -> int:
        self.stats.count_custom("ldin")
        self.stats.loads += 1
        size = self._group_size()
        stride = self._stride()
        mem = self.read_reg(instr.rs)
        crf = self.read_reg(instr.rt)
        # The two bus beats, unrolled (the 64-bit bus moves two points).
        second_address = mem + stride
        extra = self._probe_cache_pair(mem, second_address, is_write=False)
        if self._batch is not None:
            flat = np.array([mem, second_address], dtype=np.int64)
            self._check_window(flat, "LDIN")
            positions = np.array(
                [crf % size, (crf + 1) % size], dtype=np.int64
            )
            self._batch.ldin(flat, positions)
        else:
            # A Q1.15 CRF quantises on write.
            first, second = self.memory.read_complex_pair(
                mem, second_address
            )
            self.crf.write(crf % size, first)
            self.crf.write((crf + 1) % size, second)
        self.write_reg(instr.rs, self._advance_cursor("ldin", size, stride, mem))
        self.write_reg(instr.rt, (crf + 2) % size)
        return self.pipeline.custom_mem_latency - 1 + extra

    def _exec_stout(self, instr: Instruction) -> int:
        self.stats.count_custom("stout")
        self.stats.stores += 1
        size = self._group_size()
        stride = self._stride(STOUT_STRIDE_REG)
        crf = self.read_reg(instr.rs)
        mem = self.read_reg(instr.rt)
        prerotate = bool(instr.imm & 1)
        second_address = mem + stride
        extra = self._probe_cache_pair(mem, second_address, is_write=True)
        if self._batch is not None:
            flat = np.array([mem, second_address], dtype=np.int64)
            self._check_window(flat, "STOUT")
            positions = np.array(
                [crf % size, (crf + 1) % size], dtype=np.int64
            )
            self._record_stout(flat, positions, prerotate)
        else:
            first = self.crf.read(crf % size)
            second = self.crf.read((crf + 1) % size)
            if prerotate:
                first = self._apply_prerotation(mem, first)
                second = self._apply_prerotation(second_address, second)
            self.memory.write_complex_pair(
                mem, second_address, first, second
            )
        self.write_reg(instr.rs, (crf + 2) % size)
        self.write_reg(instr.rt, self._advance_cursor("stout", size, stride, mem))
        return self.pipeline.custom_mem_latency - 1 + extra

    def _prerotation_table(self) -> np.ndarray:
        """The flat scratch-order weight table, built on first use."""
        if self._prerot_flat is None:
            split = self.plan.split
            self._prerot_flat = prerotation_matrix(
                self.prerotation, split.P, split.Q
            ).reshape(-1)
            if self.fixed_point:
                re, im = quantize_array(self._prerot_flat)
                self._prerot_components = (re, im)
                self._prerot_fx = [
                    FixedComplex(int(r), int(i)) for r, i in zip(re, im)
                ]
        return self._prerot_flat

    def _apply_prerotation(self, address: int, value: complex) -> complex:
        rel = address - self.scratch_base
        if not (0 <= rel < self.n_points):
            raise SimulationError(
                f"pre-rotating STOUT targets {address}, outside the "
                f"scratch region [{self.scratch_base}, "
                f"{self.scratch_base + self.n_points})"
            )
        # rel = s*Q + l indexes the flat weight table directly.
        table = self._prerotation_table()
        if self.fixed_point:
            product = self.fx.multiply(
                quantize(complex(value)), self._prerot_fx[rel]
            )
            return product.to_complex()
        return value * table[rel]

    def _probe_cache_pair(self, first: int, second: int,
                          is_write: bool) -> int:
        """Cache-account both beats of one LDIN/STOUT.

        Per access: miss counting always happens, and the miss penalty
        only enters the returned extra latency when
        ``charge_cache_latency`` is set (the two beats overlap, so the
        charge is the worst of the pair beyond one hit).
        """
        dcache = self.dcache
        if dcache is None:
            return 0
        if self._batch is not None:
            self._batch.record_walk(
                np.array([first, second], dtype=np.int64), is_write
            )
            return 0
        stats = self.stats
        hit_latency = dcache.config.hit_latency
        latency_a = dcache.access(first, is_write)
        latency_b = dcache.access(second, is_write)
        for latency in (latency_a, latency_b):
            if latency > hit_latency:
                stats.dcache_misses += 1
            else:
                stats.dcache_hits += 1
        if not self.charge_cache_latency:
            return 0
        return max(latency_a, latency_b) - hit_latency


# A value name is ``storage << _NAME_SHIFT | position`` and a storage id is
# ``2 * depth + kind``, so the deepest of a set of names is one max.  At
# depth 0, kind 0 holds the staged inputs and kind 1 the initial state
# every symbol shares; at each later depth, kind 0 holds that level's
# butterflies and kind 1 its pre-rotations.
_NAME_SHIFT = 32
_NAME_POSITION = (1 << _NAME_SHIFT) - 1
_DEPTH_SHIFT = _NAME_SHIFT + 1
_INPUTS, _INITIAL = 0, 1
_BUTTERFLY, _ROTATION = 0, 1
#: Index dtype of what a control record keeps (schedule positions, weight
#: indices, the cache walk): every value fits in 32 bits, and records
#: persist, so they take half the memory of int64 indices.
_INDEX = np.int32

#: SimStats counters a batch retires per symbol (FFTASIP._batch_counters).
_STATS_COUNTERS = ("cycles", "instructions", "loads", "stores", "branches",
                   "taken_branches", "stall_cycles")


class _Unbatchable(SimulationError):
    """The recorder's refusal: a program whose data plane a levelized
    pass cannot reproduce (it reads data-region state a previous symbol
    would produce, or its custom ops leave ``[0, 3N)``)."""


@dataclass(frozen=True, eq=False)
class _ControlRecord:
    """The n-independent result of one recorded batch pass.

    Every field is a copy taken when the pass ended.  ``deltas`` follow
    :meth:`FFTASIP._batch_counters` and ``op_deltas`` the custom-op
    counters, each per symbol; ``end`` is the end control state (see
    :meth:`FFTASIP._control_state`); ``walk`` is the pass's D-cache
    address walk (None without a cache); ``schedule`` evaluates the data
    plane.
    """

    program: object
    key: tuple
    deltas: tuple
    op_deltas: tuple
    end: tuple
    walk: object
    schedule: "_FlushSchedule"

    @property
    def cycles(self) -> int:
        """Cycles of one symbol."""
        return self.deltas[0]

    @property
    def instructions(self) -> int:
        """Instructions one symbol retires."""
        return self.deltas[1]


class _SymbolBatch:
    """Levelized dataflow recording of one batched pass.

    While the program runs once, custom ops move value *names*, not
    values.  Every CRF entry and data-window word (``[0, 3N)``) holds a
    name; LDIN and plain STOUT copy names, so they only rename.  A BUT4
    span or a pre-rotating STOUT burst is recorded into its *level*, one
    deeper than the deepest value it reads, and names its outputs by
    (level, position).  CRF/ROM accesses and BU ops are tallied once per
    op, as one serial run would.  At HALT, :meth:`schedule` compiles the
    recording into a :class:`_FlushSchedule`.  Nothing recorded depends
    on the batch's symbols or their count, so the machine keeps the
    schedule with the pass's control record and every batch that replays
    the record evaluates it again.
    """

    def __init__(self, machine: "FFTASIP"):
        points = machine.n_points
        self.machine = machine
        self.window = 3 * points
        entries = machine.crf.entries
        base = machine.input_base
        # Per storage id: recorded ops [(operand names, op data), ...]
        # and output count.
        self._ops = [None, None]
        self._sizes = [points, self.window + 2 * entries]
        # BUT4s of the current stage, recorded as one op group once the
        # stage ends (see butterflies).
        self._pending = []
        self._pending_key = None
        self._patterns = {}
        words = np.arange(self.window, dtype=np.int64)
        initial = _INITIAL << _NAME_SHIFT
        self.mem_names = words | initial
        self.mem_names[base:base + points] = np.arange(points)
        self.crf_names = (
            initial | (self.window + np.arange(2 * entries, dtype=np.int64))
        ).reshape(2, entries)
        # One pass of the data-cache address walk (see DataCache.replay).
        self.walk = []
        # Cross-symbol dataflow guard: ``written`` marks columns this run
        # has produced (the staged input counts — it is re-staged per
        # symbol either way); ``suspect`` marks columns read while still
        # unwritten.  A column in both sets means the program consumed
        # state a previous symbol would have produced — batching cannot
        # reproduce the serial loop for such programs.
        self.written = np.zeros(self.window, dtype=bool)
        self.written[base:base + points] = True
        self.suspect = np.zeros(self.window, dtype=bool)
        # Words the program stores: the only ones a pass writes back.
        self.stored = np.zeros(self.window, dtype=bool)

    # Recording (runs inside the program's single pass) --------------------

    def record_walk(self, addresses: np.ndarray, is_write: bool) -> None:
        """Append bus beats, in op order, to the cache address walk."""
        self.walk.append((addresses.reshape(-1) << 1) | int(is_write))

    def ldin(self, flat: np.ndarray, positions: np.ndarray) -> None:
        """LDIN: CRF entries take the names of the memory words."""
        self._commit()
        crf = self.machine.crf
        fresh = ~self.written[flat]
        if fresh.any():
            self.suspect[flat[fresh]] = True
        self.crf_names[crf.active_bank, positions] = self.mem_names[flat]
        crf.writes += len(positions)

    def stout(self, flat: np.ndarray, positions: np.ndarray,
              rel: np.ndarray = None) -> None:
        """STOUT: memory words take the CRF entries' names, or, with
        scratch offsets ``rel``, the names of their pre-rotations."""
        self._commit()
        crf = self.machine.crf
        names = self.crf_names[crf.active_bank, positions]
        crf.reads += len(positions)
        if rel is not None:
            names = self._record(_ROTATION, names, rel, len(rel)) + (
                np.arange(len(rel), dtype=np.int64))
        self.written[flat] = True
        self.stored[flat] = True
        self.mem_names[flat] = names

    def butterflies(self, reads: np.ndarray, rom_addresses: np.ndarray,
                    writes: np.ndarray, lanes: int, ops: int,
                    group_size: int) -> None:
        """BUT4 span: tally it and queue it with the rest of its stage.

        Ops of one stage read only the active bank and write only the
        shadow one, so the queue holds while the bank and group size stay
        put; a change of either, or an LDIN/STOUT, records it as one op
        group (:meth:`_commit`).
        """
        machine = self.machine
        crf = machine.crf
        machine.bu.count_span(reads, rom_addresses, writes, ops, crf,
                              machine.rom)
        key = (crf.active_bank, group_size)
        if key != self._pending_key:
            self._commit()
            self._pending_key = key
        self._pending.append((reads, rom_addresses, writes, lanes))

    def _commit(self) -> None:
        """Record the queued BUT4s as one op group of their level."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        bank, group_size = self._pending_key
        reads, rom_addresses, writes, lanes = zip(*pending)
        if len(pending) > 1:
            reads, rom_addresses, writes = (
                np.concatenate(reads), np.concatenate(rom_addresses),
                np.concatenate(writes),
            )
        else:
            reads, rom_addresses, writes = reads[0], rom_addresses[0], writes[0]
        base = self._record(_BUTTERFLY, self.crf_names[bank, reads],
                            (rom_addresses, group_size, lanes), len(reads))
        self.crf_names[1 - bank, writes] = self._write_pattern(lanes) + base

    def _write_pattern(self, lanes: tuple) -> np.ndarray:
        """Level positions, in write order, of an op group's outputs.

        The ``i``-th butterfly of a level keeps its sum at position ``2i``
        and its difference at ``2i + 1``; each op writes its ``lanes`` sums
        and then its ``lanes`` differences.
        """
        pattern = self._patterns.get(lanes)
        if pattern is None:
            parts = []
            offset = 0
            for count in lanes:
                sums = 2 * np.arange(offset, offset + count, dtype=np.int64)
                parts += [sums, sums + 1]
                offset += count
            pattern = self._patterns[lanes] = np.concatenate(parts)
        return pattern

    def _record(self, kind: int, names: np.ndarray, data,
                outputs: int) -> int:
        """File one op group at its level; returns its first output name."""
        sid = 2 * ((int(names.max()) >> _DEPTH_SHIFT) + 1) + kind
        while sid >= len(self._ops):
            self._ops.append([])
            self._sizes.append(0)
        self._ops[sid].append((names, data))
        first = self._sizes[sid]
        self._sizes[sid] = first + outputs
        return (sid << _NAME_SHIFT) | first

    # Compilation (at HALT) ------------------------------------------------

    def schedule(self) -> "_FlushSchedule":
        """Compile the recording into its flush schedule: the levels in
        order, the storages free after each, and where the values that
        end the run go (the last symbol's memory window and CRF banks,
        and every symbol's output row)."""
        machine = self.machine
        self._commit()
        sids = [sid for sid in range(2, len(self._ops)) if self._ops[sid]]
        levels = []
        last_read = [0] * len(self._ops)
        for sid in sids:
            operands, weights_at = self._plan(sid)
            names = np.concatenate(operands)
            for read in np.unique(names >> _NAME_SHIFT).tolist():
                last_read[read] = sid >> 1
            levels.append((sid, [self._resolve(names) for names in operands],
                           weights_at.astype(_INDEX)))
        # A level frees every storage whose readers have all run: they sit
        # at depths below the next level's.
        frees = []
        live = {_INPUTS, _INITIAL}
        for index, sid in enumerate(sids):
            live.add(sid)
            following = (sids[index + 1] >> 1
                         if index + 1 < len(sids) else None)
            done = [s for s in live
                    if following is None or last_read[s] < following]
            live.difference_update(done)
            frees.append(done)
        finals = np.concatenate((self.mem_names, self.crf_names.ravel()))
        lo = machine.output_base
        copies = {}
        for target, names in enumerate(
                (finals, self.mem_names[lo:lo + machine.n_points])):
            storages = names >> _NAME_SHIFT
            for sid in np.unique(storages).tolist():
                where = np.flatnonzero(storages == sid)
                copies.setdefault(sid, [None, None])[target] = (
                    where.astype(_INDEX),
                    (names[where] & _NAME_POSITION).astype(_INDEX))
        return _FlushSchedule(
            levels, frees, copies, len(self._ops), len(finals), self.window,
            initial=last_read[_INITIAL] > 0 or _INITIAL in copies,
            stored=self.stored,
        )

    def _plan(self, sid: int) -> tuple:
        """Concatenate a level's recorded ops into ``(operand name
        arrays, weight indices)``.

        Each BUT4 read its ``lanes`` first operands and then its ``lanes``
        second ones; the operands come out in butterfly order.  Butterfly
        weights are full-ROM indices of the recorded group-relative
        twiddle addresses.
        """
        ops = self._ops[sid]
        self._ops[sid] = None
        names = np.concatenate([names for names, _ in ops])
        if sid & 1 == _ROTATION:
            return (names,), np.concatenate([rel for _, rel in ops])
        lanes = [count for _, (_, _, counts) in ops for count in counts]
        first = np.repeat(np.tile([True, False], len(lanes)),
                          np.repeat(lanes, 2))
        rom = self.machine.rom
        sizes = {size for _, (_, size, _) in ops}
        if len(sizes) == 1:
            twiddles = rom.table_indices(
                np.concatenate([d[0] for _, d in ops]), sizes.pop()
            )
        else:
            twiddles = np.concatenate(
                [rom.table_indices(*d[:2]) for _, d in ops]
            )
        return (names[first], names[~first]), twiddles

    @staticmethod
    def _resolve(names: np.ndarray) -> tuple:
        """``(storage ids, positions)`` of a name array; the ids collapse
        to one int when every name lives in the same storage."""
        sids = names >> _NAME_SHIFT
        positions = (names & _NAME_POSITION).astype(_INDEX)
        if sids.size and sids.min() == sids.max():
            return int(sids[0]), positions
        return sids, positions


class _FlushSchedule:
    """The data plane of one recorded batch pass, compiled once.

    It holds no data and no symbol count: per level (in dependency
    order), its storage id, its resolved operand storages and positions
    and its weight indices; the storages each level frees; per storage,
    which end-state entries (the memory window, then both CRF banks) and
    output points it supplies; and the window words a pass writes back.
    :meth:`evaluate` runs it over any batch, reading the inputs, the
    initial state and the ROM and pre-rotation weights live.

    Each level runs as a few wide column ops over symbols x every group
    of its epoch — legal because the conflict-free CRF addressing makes
    the groups of an epoch independent, and exact because every op is
    element-wise (``FixedPointContext.butterfly_arrays`` /
    ``multiply_arrays``, or the float ``w*b``, ``a±t``, ``x*w``, whose
    results do not depend on how many elements one call covers) and the
    overflow count is a sum.  Values are stored position-major,
    ``(positions, n_symbols)``, so operand gathers copy whole rows.  Only
    the input region differs between symbols; the initial state (memory
    window and both CRF banks at entry) is one column every symbol
    shares.  A level is freed once its last reader has run, after the
    memory words, CRF entries and outputs that end the run naming it
    have been copied out.
    """

    #: elements (symbols x lanes) per column op while evaluating a level;
    #: bounds the temporaries of the Q1.15 datapath (DESIGN.md, "Levelized
    #: batch dataflow", has the chunk sweep).
    FIXED_CHUNK = 16384
    #: the float levels are gather-bound, so they run in larger chunks.
    FLOAT_CHUNK = 32768

    def __init__(self, levels: list, frees: list, copies: dict,
                 storages: int, finals: int, window: int, initial: bool,
                 stored: np.ndarray):
        self.levels = levels
        self.frees = frees
        self.copies = copies
        self.storages = storages
        self.finals = finals
        self.window = window
        self.initial = initial
        # Mask of the window words the program stores.
        self.stored = stored
        self.widest = max([len(weights) for *_, weights in levels] or [1])

    def evaluate(self, machine: FFTASIP, inputs: tuple,
                 restage: bool) -> np.ndarray:
        """Evaluate every level over the ``inputs`` (``(N, n_symbols)``
        Q1.15 lanes or complex values, in AI0 order); return the
        ``(n_symbols, N)`` outputs.

        Leaves both CRF banks and the words the program stores holding
        the last symbol's end state, as one run per symbol would; other
        memory words keep their raw values.  With ``restage``, the input
        region takes the last symbol's input, as ``load_input`` would.
        """
        n = inputs[0].shape[1]
        fixed = machine.fixed_point
        values = [None] * self.storages
        values[_INPUTS] = inputs
        if self.initial:
            values[_INITIAL] = self._initial_values(machine)
        dtype = LANE_DTYPE if fixed else complex
        parts = 2 if fixed else 1
        end_state = [np.empty(self.finals, dtype) for _ in range(parts)]
        outputs = [np.empty((machine.n_points, n), dtype)
                   for _ in range(parts)]
        step = max(1, (self.FIXED_CHUNK if fixed else self.FLOAT_CHUNK) // n)
        # Operand gather buffers, reused by every chunk of every level.
        width = min(step, self.widest)
        buffers = [[np.empty((width, n), dtype) for _ in range(parts)]
                   for _ in range(2)]
        for sid in (_INPUTS, _INITIAL):
            self._copy_out(sid, values, end_state, outputs)
        for level, done in zip(self.levels, self.frees):
            sid = level[0]
            values[sid] = self._evaluate(machine, level, values, buffers,
                                         step)
            self._copy_out(sid, values, end_state, outputs)
            for freed in done:
                values[freed] = None
        self._write_back(machine, end_state, restage)
        if fixed:
            return fixed_to_complex_array(outputs[0].T, outputs[1].T)
        return np.ascontiguousarray(outputs[0].T)

    def _evaluate(self, machine: FFTASIP, level: tuple, values: list,
                  buffers: list, step: int) -> tuple:
        """Run one level in chunks of ``step`` ops; returns its
        ``(positions, n)`` component arrays."""
        sid, operands, weights_at = level
        firsts, seconds = buffers
        n = firsts[0].shape[1]
        count = len(weights_at)
        rotation = sid & 1 == _ROTATION
        shape = (count, n) if rotation else (count, 2, n)
        if rotation:
            machine._prerotation_table()  # ensure the weight tables exist
        if machine.fixed_point:
            fx = machine.fx
            if rotation:
                weights = machine._prerot_components
            else:
                weights = machine.rom.fixed_table()
            re = np.empty(shape, dtype=LANE_DTYPE)
            im = np.empty(shape, dtype=LANE_DTYPE)
            for lo in range(0, count, step):
                hi = min(lo + step, count)
                chunk = weights_at[lo:hi]
                wr = weights[0][chunk][:, None]
                wi = weights[1][chunk][:, None]
                if rotation:
                    xr, xi = self._take(values, operands[0], lo, hi, firsts)
                    re[lo:hi], im[lo:hi] = fx.multiply_arrays(xr, xi, wr, wi)
                    continue
                ar, ai = self._take(values, operands[0], lo, hi, firsts)
                br, bi = self._take(values, operands[1], lo, hi, seconds)
                (re[lo:hi, 0], im[lo:hi, 0],
                 re[lo:hi, 1], im[lo:hi, 1]) = fx.butterfly_arrays(
                    ar, ai, br, bi, wr, wi)
            return re.reshape(-1, n), im.reshape(-1, n)
        if rotation:
            weights = machine._prerotation_table()
        else:
            weights = machine.rom.table()
        out = np.empty(shape, dtype=complex)
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            w = weights[weights_at[lo:hi]][:, None]
            if rotation:
                (x,) = self._take(values, operands[0], lo, hi, firsts)
                np.multiply(x, w, out=out[lo:hi])
                continue
            (a,) = self._take(values, operands[0], lo, hi, firsts)
            (b,) = self._take(values, operands[1], lo, hi, seconds)
            t = np.multiply(w, b, out=b)
            np.add(a, t, out=out[lo:hi, 0])
            np.subtract(a, t, out=out[lo:hi, 1])
        return (out.reshape(-1, n),)

    @staticmethod
    def _take(values: list, operand: tuple, lo: int, hi: int,
              out: list) -> list:
        """Gather ``operand[lo:hi]`` into the ``(hi - lo, n)`` heads of
        the component buffers ``out``."""
        sids, positions = operand
        positions = positions[lo:hi]
        parts = [buffer[:hi - lo] for buffer in out]
        if isinstance(sids, int):
            if sids == _INITIAL:
                # The initial state: every symbol reads the same value.
                for part, v in zip(parts, values[sids]):
                    part[...] = v[positions]
            else:
                # Positions are in range by construction, so "clip" only
                # skips numpy's bounds-checked buffering.
                for part, v in zip(parts, values[sids]):
                    np.take(v, positions, axis=0, out=part, mode="clip")
            return parts
        sids = sids[lo:hi]
        for sid in np.unique(sids).tolist():
            mask = sids == sid
            for part, v in zip(parts, values[sid]):
                part[mask] = v[positions[mask]]
        return parts

    def _initial_values(self, machine: FFTASIP) -> tuple:
        """The memory window and both CRF banks at entry, as one shared
        ``(positions, 1)`` column per component."""
        words = np.arange(self.window, dtype=np.int64)
        if machine.fixed_point:
            memory = words_to_fixed_array(machine.memory.gather_words(words))
        else:
            memory = (machine.memory.gather_complex(words),)
        banks = machine.crf.bank_arrays()
        return tuple(
            np.concatenate((m, b.ravel()))[:, None]
            for m, b in zip(memory, banks)
        )

    def _copy_out(self, sid: int, values: list, end_state: list,
                  outputs: list) -> None:
        """Copy the values that end the run named in storage ``sid``."""
        finals, outs = self.copies.get(sid, (None, None))
        if finals is not None:
            where, positions = finals
            for target, v in zip(end_state, values[sid]):
                target[where] = v[positions, -1]
        if outs is not None:
            where, positions = outs
            for target, v in zip(outputs, values[sid]):
                target[where] = v[positions]

    def _write_back(self, machine: FFTASIP, end_state: list,
                    restage: bool) -> None:
        """Leave the CRF banks and the words the program stores (with
        ``restage``, the input region too) holding the last symbol's end
        state — that of one run per symbol."""
        keep = self.stored
        if restage:
            base = machine.input_base
            keep = keep.copy()
            keep[base:base + machine.n_points] = True
        words = np.flatnonzero(keep)
        window = [part[words] for part in end_state]
        if machine.fixed_point:
            machine.memory.scatter_words(words, fixed_to_words_array(*window))
        else:
            machine.memory.scatter_complex(words, window[0])
        for bank, part in zip(machine.crf.bank_arrays(), end_state):
            bank[...] = part[self.window:].reshape(bank.shape)


class _SmallPreRotation:
    """Exact weights for N < 8 where the octant store degenerates."""

    def __init__(self, n_points: int):
        bit_width_of(n_points)
        self.n_points = n_points

    def weight(self, s: int, l: int) -> complex:
        angle = -2.0 * np.pi * ((s * l) % self.n_points) / self.n_points
        return complex(np.cos(angle), np.sin(angle))
