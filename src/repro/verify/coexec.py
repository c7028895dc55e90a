"""Lockstep differential co-execution with divergence *localisation*.

Every hot path in this repo has an oracle/vectorized twin (array FFT
compiled vs per-butterfly walk, ASIP vectorized vs scalar lanes,
Viterbi column trellis vs per-state walk, facade backends against each
other), but the existing parity checks only compare end-of-run output —
a wrong answer says *that* two datapaths diverge, never *where*.

This module runs the two sides of a twin **side by side**, comparing
architectural state after every lockstep step, and stops at the first
mismatch with a structured :class:`DivergenceReport` naming the exact
site:

* :func:`coexec_fft` — stage-granular walk of two :class:`ArrayFFT`
  engines (each using its *own* twiddle/pre-rotation tables, so a fault
  injected into one engine's ROM is visible); localises to the first
  mismatching (epoch, stage, group, butterfly lane).
* :func:`coexec_machines` / :func:`coexec_asip` — single-`step()`
  co-execution of two :class:`~repro.sim.machine.Machine` instances in
  the style of Libre-SOC's co-execution Test API: after every dynamic
  instruction the PCs, the 32 scalar registers and (when present) the
  CRF banks are compared; localises to the first mismatching dynamic
  instruction.
* :func:`coexec_viterbi` — the shipped butterfly add-compare-select of
  one decoder against the per-state oracle walk of another, compared
  per trellis step; localises to the first mismatching (step, state)
  with both sides' decisions and path metrics.
* :func:`coexec_llrs` — two soft demappers over the same symbols,
  exact at ``atol=0`` (NaN and sign bits included); localises to the
  first mismatching (symbol, bit) LLR.
* :func:`coexec_demap` — the hard slicer of one constellation against
  its argmin oracle; localises to the first mismatching (symbol, bit).
* :func:`coexec_backends` — end-to-end facade diff between two
  registered engine backends; localises to the first mismatching
  (symbol, bin) and carries the overflow-count delta.

All runners return a :class:`CoexecResult`; ``result.report`` is None
when the sides agree.  Fixed-point comparisons are exact (the Q1.15
paths are bit-identical by contract); float comparisons use ``atol``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.array_fft import ArrayFFT
from ..core.fixed_point import fixed_to_complex_array, quantize, quantize_array
from ..sim.errors import SimulationError

__all__ = [
    "DivergenceReport",
    "CoexecResult",
    "coexec_fft",
    "coexec_machines",
    "coexec_asip",
    "coexec_viterbi",
    "coexec_llrs",
    "coexec_demap",
    "coexec_backends",
]


@dataclass
class DivergenceReport:
    """Structured description of the first lockstep mismatch.

    Attributes
    ----------
    kind:
        The comparison plane: ``"fft-butterfly"``, ``"asip-instruction"``,
        ``"viterbi-step"``, ``"llr"``, ``"demap"``, ``"spectrum"`` or
        ``"machine-state"``.
    backends:
        ``(side_a, side_b)`` labels of the co-executed datapaths.
    step_index:
        0-based index of the first diverging lockstep step (global stage
        counter, dynamic instruction count, trellis step, or symbol).
    location:
        Structured coordinates of the site — e.g. ``{"phase": "epoch0",
        "stage": 1, "group": 3, "lane": 2, "butterfly": 2}`` for the
        FFT, ``{"pc": 17, "opcode": "BUT4", ...}`` for the ASIP,
        ``{"step": 4, "state": 12}`` for the trellis.
    operands:
        The diverging values (side a vs side b) plus site context such
        as the twiddle/branch weights each side used.
    max_error:
        Largest absolute difference observed at the diverging step.
    overflow_delta:
        ``(side_a, side_b)`` Q1.15 saturation counts accumulated up to
        the divergence (both 0 on float paths).
    message:
        Optional free-text annotation.
    """

    kind: str
    backends: tuple
    step_index: int
    location: dict = field(default_factory=dict)
    operands: dict = field(default_factory=dict)
    max_error: float = 0.0
    overflow_delta: tuple = (0, 0)
    message: str = ""

    def describe(self) -> str:
        """One-line human rendering of the divergence site."""
        loc = ", ".join(f"{k}={v}" for k, v in self.location.items())
        out = (
            f"[{self.kind}] {self.backends[0]} vs {self.backends[1]} "
            f"diverged at step {self.step_index}"
        )
        if loc:
            out += f" ({loc})"
        if self.operands:
            ops = ", ".join(f"{k}={v}" for k, v in self.operands.items())
            out += f"; operands: {ops}"
        if self.max_error:
            out += f"; max error {self.max_error:.3g}"
        if any(self.overflow_delta):
            out += f"; overflow delta {self.overflow_delta}"
        if self.message:
            out += f" -- {self.message}"
        return out

    def __str__(self) -> str:
        return self.describe()


@dataclass
class CoexecResult:
    """Outcome of one lockstep co-execution run."""

    kind: str
    backends: tuple
    steps: int
    report: DivergenceReport = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the two sides agreed at every lockstep step."""
        return self.report is None


# FFT stage-granular lockstep ---------------------------------------------


def _trace_compiled(fft: ArrayFFT, x: np.ndarray):
    """Stage snapshots of ``fft``'s compiled datapath, using its own
    lowered :class:`CompiledStage` tables (so a fault injected into the
    compiled weights is part of the trace)."""
    eng = fft.compiled_engine()
    n = fft.n_points
    if fft.fixed_point:
        re, im = quantize_array(x)
        re, im = re[eng.gather0], im[eng.gather0]
        for si, stage in enumerate(eng.epoch0):
            re, im = eng._stage_fixed(re, im, stage)
            yield ("epoch0", si, fixed_to_complex_array(re, im))
        re, im = eng.fx.multiply_arrays(
            re.swapaxes(-1, -2), im.swapaxes(-1, -2), eng.pr, eng.pi
        )
        yield ("prerotate", 0, fixed_to_complex_array(re, im))
        for si, stage in enumerate(eng.epoch1):
            re, im = eng._stage_fixed(re, im, stage)
            yield ("epoch1", si, fixed_to_complex_array(re, im))
        out = np.empty(n, dtype=complex)
        out[eng.scatter1.reshape(-1)] = fixed_to_complex_array(
            re.reshape(-1), im.reshape(-1)
        )
        yield ("output", 0, out)
        return
    state = np.asarray(x, dtype=complex)[eng.gather0]
    for si, stage in enumerate(eng.epoch0):
        state = eng._stage_float(state, stage)
        yield ("epoch0", si, state)
    state = state.swapaxes(-1, -2) * eng.prerotation
    yield ("prerotate", 0, state)
    for si, stage in enumerate(eng.epoch1):
        state = eng._stage_float(state, stage)
        yield ("epoch1", si, state)
    out = np.empty(n, dtype=complex)
    out[eng.scatter1.reshape(-1)] = state.reshape(-1)
    yield ("output", 0, out)


def _ref_stage_fixed(fft: ArrayFFT, row: list, stage_plan, rom) -> list:
    size = len(row)
    half = size // 2
    column = [row[a] for a in stage_plan.read_addresses]
    out = [None] * size
    for m in range(half):
        w = rom[stage_plan.coefficient_indices[m]]
        s, d = fft.fx.butterfly(column[m], column[m + half], w)
        out[m] = s
        out[m + half] = d
    return out


def _trace_reference(fft: ArrayFFT, x: np.ndarray):
    """Stage snapshots of ``fft``'s per-butterfly oracle datapath, using
    its own ``_rom``/``_rom_fx``/``prerotation`` tables."""
    split = fft.plan.split
    P, Q, N = split.P, split.Q, split.N
    epoch0, epoch1 = fft.plan.epochs
    x = np.asarray(x, dtype=complex)
    if fft.fixed_point:
        rows = [[quantize(complex(v)) for v in x[l::Q]] for l in range(Q)]
        rom0 = fft._rom_fx[epoch0.group_size]
        for si, stage_plan in enumerate(epoch0.stages):
            rows = [_ref_stage_fixed(fft, row, stage_plan, rom0)
                    for row in rows]
            yield ("epoch0", si, np.array(
                [[c.to_complex() for c in row] for row in rows]))
        rot = [
            [fft.fx.multiply(rows[l][s],
                             quantize(fft.prerotation.weight(s, l)))
             for l in range(Q)]
            for s in range(P)
        ]
        yield ("prerotate", 0, np.array(
            [[c.to_complex() for c in row] for row in rot]))
        rows = rot
        rom1 = fft._rom_fx[epoch1.group_size]
        for si, stage_plan in enumerate(epoch1.stages):
            rows = [_ref_stage_fixed(fft, row, stage_plan, rom1)
                    for row in rows]
            yield ("epoch1", si, np.array(
                [[c.to_complex() for c in row] for row in rows]))
        out = np.empty(N, dtype=complex)
        for s in range(P):
            for k2 in range(Q):
                out[s + P * k2] = rows[s][k2].to_complex()
        yield ("output", 0, out)
        return

    def run_stage(row, stage_plan, rom):
        column = row[list(stage_plan.read_addresses)]
        coeffs = rom[list(stage_plan.coefficient_indices)]
        return fft.bu.execute_column(column, coeffs)

    state = np.array([x[l::Q] for l in range(Q)])  # (Q, P) group block
    rom0 = fft._rom[epoch0.group_size]
    for si, stage_plan in enumerate(epoch0.stages):
        state = np.stack([run_stage(row, stage_plan, rom0)
                          for row in state])
        yield ("epoch0", si, state)
    weights = np.array(
        [[fft.prerotation.weight(s, l) for l in range(Q)]
         for s in range(P)]
    )
    state = state.T * weights
    yield ("prerotate", 0, state)
    rom1 = fft._rom[epoch1.group_size]
    for si, stage_plan in enumerate(epoch1.stages):
        state = np.stack([run_stage(row, stage_plan, rom1)
                          for row in state])
        yield ("epoch1", si, state)
    out = np.empty(N, dtype=complex)
    for s in range(P):
        out[s + P * np.arange(Q)] = state[s]
    yield ("output", 0, out)


def _trace_array_fft(fft: ArrayFFT, x: np.ndarray):
    if fft.use_compiled:
        return _trace_compiled(fft, x)
    return _trace_reference(fft, x)


def _fft_stage_weight(fft: ArrayFFT, phase: str, stage: int,
                      butterfly: int):
    """The twiddle ``fft``'s datapath uses at (phase, stage, butterfly)."""
    epoch_index = {"epoch0": 0, "epoch1": 1}.get(phase)
    if epoch_index is None:
        return None
    if fft.use_compiled:
        eng = fft.compiled_engine()
        stages = eng.epoch0 if epoch_index == 0 else eng.epoch1
        return complex(stages[stage].weights[butterfly])
    epoch = fft.plan.epochs[epoch_index]
    stage_plan = epoch.stages[stage]
    ci = stage_plan.coefficient_indices[butterfly]
    if fft.fixed_point:
        return fft._rom_fx[epoch.group_size][ci].to_complex()
    return complex(fft._rom[epoch.group_size][ci])


def coexec_fft(n: int = None, *, a: ArrayFFT = None, b: ArrayFFT = None,
               x=None, seed: int = 0, fixed_point: bool = False,
               atol: float = 1e-9, names: tuple = None) -> CoexecResult:
    """Stage-lockstep two array-FFT datapaths over the same input.

    Defaults to the canonical twin: side a runs ``n``-point compiled,
    side b the per-butterfly reference oracle.  Pass pre-built engines
    (e.g. one with a fault injected into its tables) via ``a``/``b``.
    Fixed-point engines are compared exactly; float with ``atol``.
    """
    if a is None:
        a = ArrayFFT(n, fixed_point=fixed_point, compiled=True)
    if b is None:
        b = ArrayFFT(a.n_points, fixed_point=a.fixed_point, compiled=False)
    if a.n_points != b.n_points or a.fixed_point != b.fixed_point:
        raise ValueError(
            "coexec_fft needs engines of matching size and precision, "
            f"got N={a.n_points}/{b.n_points}, "
            f"fixed={a.fixed_point}/{b.fixed_point}"
        )
    n = a.n_points
    if x is None:
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if a.fixed_point:
            x *= 0.3 / max(1.0, float(np.abs(x.real).max()),
                           float(np.abs(x.imag).max()))
    x = np.asarray(x, dtype=complex)
    if names is None:
        names = tuple("compiled" if e.use_compiled else "reference"
                      for e in (a, b))
    tol = 0.0 if a.fixed_point else atol
    ov_a0 = a.fx.overflow_count if a.fx else 0
    ov_b0 = b.fx.overflow_count if b.fx else 0
    start = time.perf_counter()
    steps = 0
    for (pa, sa, st_a), (pb, sb, st_b) in zip(
            _trace_array_fft(a, x), _trace_array_fft(b, x)):
        step = steps
        steps += 1
        err = np.abs(st_a - st_b)
        if not err.size or float(err.max()) <= tol:
            continue
        idx = tuple(int(i) for i in np.argwhere(err > tol)[0])
        location = {"phase": pa, "stage": sa}
        operands = {}
        if len(idx) == 2:
            group, lane = idx
            half = st_a.shape[-1] // 2
            butterfly = lane if lane < half else lane - half
            location.update({
                "group": group,
                "lane": lane,
                "butterfly": butterfly,
                "role": "sum" if lane < half else "diff",
            })
            operands = {
                "a": complex(st_a[group, lane]),
                "b": complex(st_b[group, lane]),
            }
            wa = _fft_stage_weight(a, pa, sa, butterfly)
            wb = _fft_stage_weight(b, pb, sb, butterfly)
            if wa is not None:
                operands["weight_a"] = wa
                operands["weight_b"] = wb
        else:
            location["bin"] = idx[0]
            operands = {"a": complex(st_a[idx]), "b": complex(st_b[idx])}
        report = DivergenceReport(
            kind="fft-butterfly",
            backends=names,
            step_index=step,
            location=location,
            operands=operands,
            max_error=float(err.max()),
            overflow_delta=(
                (a.fx.overflow_count - ov_a0) if a.fx else 0,
                (b.fx.overflow_count - ov_b0) if b.fx else 0,
            ),
        )
        return CoexecResult("fft-butterfly", names, steps, report,
                            time.perf_counter() - start)
    return CoexecResult("fft-butterfly", names, steps, None,
                        time.perf_counter() - start)


# Machine / ASIP instruction-granular lockstep ----------------------------


def _machine_state_diff(a, b, atol: float) -> dict:
    """First architectural-state mismatch between two machines, or {}."""
    if a.halted != b.halted:
        return {"halted": (a.halted, b.halted)}
    for r in range(32):
        va, vb = a.read_reg(r), b.read_reg(r)
        if va != vb:
            return {"register": r, "a": va, "b": vb}
    crf_a = getattr(a, "crf", None)
    crf_b = getattr(b, "crf", None)
    if crf_a is not None and crf_b is not None:
        snap_a = crf_a.snapshot()
        snap_b = crf_b.snapshot()
        if snap_a.shape == snap_b.shape:
            err = np.abs(snap_a - snap_b)
            if err.size and float(err.max()) > atol:
                entry = int(np.argwhere(err > atol)[0][0])
                return {
                    "crf_entry": entry,
                    "a": complex(snap_a[entry]),
                    "b": complex(snap_b[entry]),
                    "max_error": float(err.max()),
                }
    return {}


def coexec_machines(a, b, program, *, names: tuple = ("a", "b"),
                    atol: float = 0.0,
                    max_steps: int = 2_000_000) -> CoexecResult:
    """Single-step two machines through ``program`` in lockstep.

    Mirrors :meth:`Machine.run_interpreted`'s loop on both machines at
    once, comparing PC, the scalar register file and (for ASIPs) the
    CRF after **every** dynamic instruction.  Instance-level ``step``
    patches (the fault-injection seam honoured by ``Machine.run``) are
    exercised naturally, since this driver calls ``step`` directly.
    """
    for m in (a, b):
        m.pc = 0
        m.halted = False
        m._last_load_reg = None
    length = len(program)
    ov_a0 = a.fx.overflow_count if getattr(a, "fx", None) else 0
    ov_b0 = b.fx.overflow_count if getattr(b, "fx", None) else 0
    start = time.perf_counter()
    steps = 0

    def overflow_delta():
        return (
            (a.fx.overflow_count - ov_a0) if getattr(a, "fx", None) else 0,
            (b.fx.overflow_count - ov_b0) if getattr(b, "fx", None) else 0,
        )

    def diverged(location, operands, message=""):
        report = DivergenceReport(
            kind="asip-instruction",
            backends=names,
            step_index=steps - 1 if steps else 0,
            location=location,
            operands=operands,
            overflow_delta=overflow_delta(),
            message=message,
        )
        return CoexecResult("asip-instruction", names, steps, report,
                            time.perf_counter() - start)

    while not (a.halted and b.halted):
        if a.pc != b.pc or a.halted != b.halted:
            instr = program[a.pc] if 0 <= a.pc < length else None
            return diverged(
                {"pc_a": a.pc, "pc_b": b.pc,
                 "instruction": str(instr) if instr else "<out of range>"},
                {"halted_a": a.halted, "halted_b": b.halted},
                "control flow diverged",
            )
        if not (0 <= a.pc < length):
            raise SimulationError(
                f"PC {a.pc} outside program of length {length}"
            )
        if steps >= max_steps:
            raise RuntimeError(
                f"lockstep run exceeded {max_steps} instructions"
            )
        pc = a.pc
        instr = program[pc]
        a.step(instr)
        b.step(instr)
        steps += 1
        diff = _machine_state_diff(a, b, atol)
        if diff:
            return diverged(
                {"pc": pc, "opcode": instr.opcode.name,
                 "instruction": str(instr)},
                diff,
            )
    return CoexecResult("asip-instruction", names, steps, None,
                        time.perf_counter() - start)


def coexec_asip(n: int = 16, *, a=None, b=None, x=None, seed: int = 0,
                fixed_point: bool = False, atol: float = 1e-9,
                program=None) -> CoexecResult:
    """Instruction-lockstep the vectorized ASIP against its scalar twin.

    Both machines run the same generated FFT program over the same
    staged input; divergence is localised to the first dynamic
    instruction whose architectural state (registers, CRF) differs.
    """
    from ..asip import FFTASIP, generate_fft_program

    if a is None:
        a = FFTASIP(n, fixed_point=fixed_point)
    if b is None:
        b = FFTASIP(a.n_points, fixed_point=a.fixed_point,
                    vectorized=False)
    n = a.n_points
    if x is None:
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if a.fixed_point:
            x *= 0.3 / max(1.0, float(np.abs(x.real).max()),
                           float(np.abs(x.imag).max()))
    if program is None:
        program = generate_fft_program(n, a.plan)
    a.load_input(x)
    b.load_input(x)
    names = (
        "asip-vectorized" if a.vectorized else "asip-scalar",
        "asip-vectorized" if b.vectorized else "asip-scalar",
    )
    tol = 0.0 if a.fixed_point else atol
    result = coexec_machines(a, b, program, names=names, atol=tol)
    if not result.ok:
        return result
    out_a = a.read_output()
    out_b = b.read_output()
    err = np.abs(out_a - out_b)
    if err.size and float(err.max()) > tol:
        k = int(np.argwhere(err > tol)[0][0])
        result.report = DivergenceReport(
            kind="asip-instruction",
            backends=names,
            step_index=result.steps,
            location={"phase": "output", "bin": k},
            operands={"a": complex(out_a[k]), "b": complex(out_b[k])},
            max_error=float(err.max()),
        )
    return result


# Viterbi trellis-step lockstep -------------------------------------------


def coexec_viterbi(code="conv-k3", *, a=None, b=None, llrs=None,
                   steps: int = 24, seed: int = 0,
                   names: tuple = ("viterbi-vectorized",
                                   "viterbi-reference")) -> CoexecResult:
    """Trellis-lockstep two Viterbi decoders over the same LLR grid.

    Side a steps the kernels :meth:`ViterbiDecoder.decode` ships (branch
    sums, butterfly add-compare-select, predecessor-table traceback)
    with *its* branch-sign table; side b the per-state oracle walk with
    *its* own.  The add-compare-select runs in chunks of one step, in
    the mode the grid's branch sums select (two calls per step when all
    are finite, the masked select otherwise).  Survivor decisions and
    path metrics are compared after every trellis step (both paths are
    bit-identical by contract), then the traced-back info bits are
    compared.
    """
    from ..coding.convolutional import get_code
    from ..coding.viterbi import ViterbiDecoder

    if isinstance(code, str):
        code = get_code(code)
    if a is None:
        a = ViterbiDecoder(code)
    if b is None:
        b = ViterbiDecoder(code)
    code = a.code
    if llrs is None:
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, steps - code.memory)
        coded = code.encode(bits).reshape(-1, code.n_outputs)
        llrs = (1.0 - 2.0 * coded) * 4.0
        llrs = llrs + rng.normal(0.0, 0.8, llrs.shape)
    llr = np.asarray(llrs, dtype=np.float64)
    if llr.ndim != 2 or llr.shape[1] != code.n_outputs:
        raise ValueError(
            f"expected a (steps, {code.n_outputs}) LLR grid, "
            f"got shape {llr.shape}"
        )
    n_steps = llr.shape[0]
    n_states = code.n_states
    start = time.perf_counter()

    # Side a: the shipped butterfly recursion over one block.
    decisions_a = np.empty((n_steps, 1, n_states), dtype=bool)
    sums, table = a._branch_sums(llr[None])
    steps_a = a._acs(sums, table, decisions_a, chunk=1)
    # Side b: the per-state oracle walk, b's sign table.
    metrics_b = [0.0] + [-np.inf] * (n_states - 1)
    decisions_b = []

    def diverged(t, state, choose_a, metrics_a, cand_b, what):
        ma, mb = float(metrics_a[state]), float(metrics_b[state])
        report = DivergenceReport(
            kind="viterbi-step",
            backends=names,
            step_index=t,
            location={"step": t, "state": state, "mismatch": what},
            operands={
                "a_decision": int(choose_a[state]),
                "a_metric": ma,
                "b_decision": decisions_b[t][state],
                "b_metric": mb,
                "b_cand0": float(cand_b[state][0]),
                "b_cand1": float(cand_b[state][1]),
            },
            max_error=abs(ma - mb) if np.isfinite([ma, mb]).all() else 0.0,
        )
        return CoexecResult("viterbi-step", names, t + 1, report,
                            time.perf_counter() - start)

    for t, (choose_a, metrics_a) in enumerate(steps_a):
        choose_a, metrics_a = choose_a[0, 0], metrics_a[0]
        step_llr = llr[t]
        new_b = [None] * n_states
        chosen_b = [0] * n_states
        cand_b = [None] * n_states
        for state in range(n_states):
            cand = []
            for xb in (0, 1):
                branch = b._signs[state, xb, 0] * step_llr[0]
                for j in range(1, code.n_outputs):
                    branch = branch + b._signs[state, xb, j] * step_llr[j]
                cand.append(metrics_b[b._prev[state, xb]] + branch)
            pick = 1 if cand[1] > cand[0] else 0
            chosen_b[state] = pick
            new_b[state] = cand[pick]
            cand_b[state] = cand
        metrics_b = new_b
        decisions_b.append(chosen_b)

        for state in range(n_states):
            if int(choose_a[state]) != chosen_b[state]:
                return diverged(t, state, choose_a, metrics_a, cand_b,
                                "decision")
            ma, mb = float(metrics_a[state]), float(metrics_b[state])
            if ma != mb and not (np.isnan(ma) and np.isnan(mb)):
                return diverged(t, state, choose_a, metrics_a, cand_b,
                                "metric")

    # Traceback on both sides (decisions already proven equal, so this
    # only guards the traceback conventions): a's shipped table walk
    # against b's per-step walk, first mismatch in walk order.
    bits_a = a._traceback(decisions_a)[0]
    state_b = 0
    shift = code.memory - 1
    mask = code.n_states - 1
    for t in range(n_steps - 1, -1, -1):
        bit_b = state_b >> shift
        if t < len(bits_a) and int(bits_a[t]) != bit_b:
            report = DivergenceReport(
                kind="viterbi-step", backends=names, step_index=t,
                location={"step": t, "mismatch": "traceback"},
                operands={"a": int(bits_a[t]), "b": bit_b},
            )
            return CoexecResult("viterbi-step", names, n_steps, report,
                                time.perf_counter() - start)
        state_b = ((state_b << 1) & mask) | decisions_b[t][state_b]
    return CoexecResult("viterbi-step", names, n_steps, None,
                        time.perf_counter() - start)


# LLR demapper lockstep ---------------------------------------------------


def coexec_llrs(a, b, symbols, *, noise_var: float = None,
                atol: float = 0.0,
                names: tuple = ("demap-a", "demap-b")) -> CoexecResult:
    """Compare two soft demappers bit-position by bit-position.

    At ``atol=0`` the LLRs must be identical, as in :func:`coexec_demap`:
    NaN matches NaN and sign bits must agree.  At any ``atol`` a NaN on
    one side only is a mismatch.  The first mismatch localises to
    (symbol, bit): the row counted flat over any leading axes, and the
    LLR position within it.
    """
    start = time.perf_counter()
    symbols = np.asarray(symbols, dtype=complex)
    llr_a = np.atleast_2d(a.llrs(symbols, noise_var))
    llr_a = llr_a.reshape(-1, llr_a.shape[-1])
    llr_b = np.atleast_2d(b.llrs(symbols, noise_var))
    llr_b = llr_b.reshape(-1, llr_b.shape[-1])
    nan_a, nan_b = np.isnan(llr_a), np.isnan(llr_b)
    with np.errstate(invalid="ignore"):
        err = np.abs(llr_a - llr_b)
    if atol == 0:
        wrong = ~((llr_a == llr_b) | (nan_a & nan_b))
        wrong |= np.signbit(llr_a) != np.signbit(llr_b)
    else:
        wrong = (err > atol) | (nan_a != nan_b)
    steps = int(llr_a.shape[-1])
    if wrong.any():
        sym, bit = (int(i) for i in np.argwhere(wrong)[0])
        measured = err[~np.isnan(err)]
        report = DivergenceReport(
            kind="llr",
            backends=names,
            step_index=bit,
            location={"symbol": sym, "bit": bit,
                      "sign_flipped": bool(
                          np.sign(llr_a[sym, bit])
                          == -np.sign(llr_b[sym, bit]))},
            operands={"a": float(llr_a[sym, bit]),
                      "b": float(llr_b[sym, bit])},
            max_error=float(measured.max()) if measured.size else 0.0,
            message=f"{int(wrong.sum())} LLR(s) differ",
        )
        return CoexecResult("llr", names, steps, report,
                            time.perf_counter() - start)
    return CoexecResult("llr", names, steps, None,
                        time.perf_counter() - start)


# Hard-decision slicer vs its oracle -------------------------------------


def coexec_demap(constellation, symbols) -> CoexecResult:
    """Compare ``constellation``'s hard slicer with its argmin oracle.

    Both :meth:`~repro.ofdm.modulation.Constellation.unmap_symbols` and
    :meth:`~repro.ofdm.modulation.Constellation.unmap_symbols_reference`
    demap the same ``(..., N)`` symbols; bits and dtype must match
    exactly.  The first mismatch localises to (symbol, bit), the symbol
    counted flat over any leading axes, with the symbol's value and both
    sides' bits for it.
    """
    start = time.perf_counter()
    names = ("slicer", "argmin-reference")
    symbols = np.asarray(symbols, dtype=complex)
    width = constellation.bits_per_symbol
    fast = constellation.unmap_symbols(symbols)
    oracle = constellation.unmap_symbols_reference(symbols)
    steps = int(symbols.size)
    flat = symbols.reshape(-1)
    fast_rows = fast.reshape(-1, width)
    oracle_rows = oracle.reshape(-1, width)
    wrong = np.argwhere(fast_rows != oracle_rows)
    if len(wrong) or fast.dtype != oracle.dtype:
        sym, bit = (int(i) for i in wrong[0]) if len(wrong) else (0, 0)
        report = DivergenceReport(
            kind="demap",
            backends=names,
            step_index=sym,
            location={"symbol": sym, "bit": bit},
            operands={"symbol": complex(flat[sym]),
                      "a": fast_rows[sym].tolist(),
                      "b": oracle_rows[sym].tolist(),
                      "dtype_a": str(fast.dtype),
                      "dtype_b": str(oracle.dtype)},
            message=f"{len(wrong)} bit(s) differ",
        )
        return CoexecResult("demap", names, steps, report,
                            time.perf_counter() - start)
    return CoexecResult("demap", names, steps, None,
                        time.perf_counter() - start)


# End-to-end backend-pair lockstep ----------------------------------------


def coexec_backends(n_points: int, backends=("compiled", "reference"), *,
                    engines: tuple = None, blocks=None, symbols: int = 8,
                    precision: str = "float", seed: int = 0,
                    atol: float = 1e-9, workers: int = None,
                    close: bool = None) -> CoexecResult:
    """Run the same symbol batch through two facade backends and diff.

    The coarse end of the lockstep family: localisation is per (symbol,
    bin) rather than per butterfly — use :func:`coexec_fft` /
    :func:`coexec_asip` to then zoom into a diverging pair.  Fixed-point
    spectra must agree bit for bit, overflow counts included; float
    spectra to ``atol``.
    """
    from ..engines import engine as build_engine

    names = tuple(backends)
    if len(names) != 2:
        raise ValueError(f"need exactly two backends, got {names!r}")
    own_engines = engines is None
    if engines is None:
        engines = tuple(
            build_engine(n_points, backend=name, precision=precision,
                         workers=workers)
            for name in names
        )
    if close is None:
        close = own_engines
    eng_a, eng_b = engines
    if blocks is None:
        rng = np.random.default_rng(seed)
        blocks = rng.standard_normal((symbols, n_points)) \
            + 1j * rng.standard_normal((symbols, n_points))
        if precision == "q15":
            scale = max(1.0, float(np.abs(blocks.real).max()),
                        float(np.abs(blocks.imag).max()))
            blocks = blocks * (0.3 / scale)
    blocks = np.asarray(blocks, dtype=complex)
    start = time.perf_counter()
    try:
        res_a = eng_a.transform_many(blocks)
        res_b = eng_b.transform_many(blocks)
    finally:
        if close:
            for eng in engines:
                eng.close()
    tol = 0.0 if precision == "q15" else atol
    err = np.abs(res_a.spectrum - res_b.spectrum)
    steps = int(blocks.shape[0])
    seconds = time.perf_counter() - start
    overflow = (res_a.overflow_count, res_b.overflow_count)
    if err.size and float(err.max()) > tol:
        sym, k = (int(i) for i in np.argwhere(err > tol)[0])
        report = DivergenceReport(
            kind="spectrum",
            backends=names,
            step_index=sym,
            location={"symbol": sym, "bin": k},
            operands={"a": complex(res_a.spectrum[sym, k]),
                      "b": complex(res_b.spectrum[sym, k])},
            max_error=float(err.max()),
            overflow_delta=overflow,
        )
        return CoexecResult("spectrum", names, steps, report, seconds)
    if precision == "q15" and overflow[0] != overflow[1]:
        report = DivergenceReport(
            kind="spectrum",
            backends=names,
            step_index=0,
            location={"mismatch": "overflow_count"},
            operands={"a": overflow[0], "b": overflow[1]},
            overflow_delta=overflow,
        )
        return CoexecResult("spectrum", names, steps, report, seconds)
    return CoexecResult("spectrum", names, steps, None, seconds)
