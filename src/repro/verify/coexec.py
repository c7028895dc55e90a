"""Lockstep differential co-execution with divergence *localisation*.

Every hot path in this repo has an oracle twin (array FFT compiled vs
per-butterfly walk, the ASIP's levelized ``run`` vs its step
interpreter, Viterbi column trellis vs per-state walk, facade backends
against each other), but the existing parity checks only compare
end-of-run output — a wrong answer says *that* two datapaths diverge,
never *where*.

This module runs the two sides of a twin **side by side**, comparing
architectural state after every lockstep step, and stops at the first
mismatch with a structured :class:`DivergenceReport` naming the exact
site.  It holds no datapath of its own: each runner drives the code
that ships, through per-step seams the engines expose.

* :func:`coexec_fft` — each of two :class:`ArrayFFT` engines runs its
  own walk (compiled, or the per-butterfly oracle) with its *own*
  twiddle/pre-rotation tables, observed after every stage; localises
  to the first mismatching (phase, stage, group, lane), plus the
  butterfly and its sum/diff role on a butterfly stage.
* :func:`coexec_machines` — single-`step()` co-execution of two
  :class:`~repro.sim.machine.Machine` instances in the style of
  Libre-SOC's co-execution Test API: after every dynamic instruction
  the PCs, the 32 scalar registers and (when present) the CRF banks
  are compared; localises to the first mismatching dynamic
  instruction.
* :func:`coexec_asip` — the ASIP's shipped ``run`` (the levelized
  pass) against ``run_interpreted`` (the scalar per-op oracle) over
  one staged input; the end states are compared and a mismatch
  localises to the register, counter, CRF entry or memory word (with
  its spectral bin for an output word).
* :func:`coexec_viterbi` — the shipped butterfly add-compare-select of
  one decoder (``_acs(chunk=1)``) against the per-state walk
  ``decode_reference`` runs (``_reference_steps``) of another, compared
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
from ..core.fixed_point import fixed_to_complex_array
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
        ``(side_a, side_b)`` Q1.15 saturation counts each side
        accumulated while the runner ran it: up to the divergence in
        instruction lockstep, over the whole walk or burst for
        :func:`coexec_fft` and :func:`coexec_backends` (both 0 on float
        paths).
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


# FFT stage-granular comparison -------------------------------------------


def _as_complex(state) -> np.ndarray:
    """A copy of one observed datapath state as complex values: Q1.15
    ``(re, im)`` lanes and ``FixedComplex`` rows are converted."""
    if isinstance(state, tuple):
        return fixed_to_complex_array(*state)
    if isinstance(state, list):
        return np.array([c.to_complex() for c in state])
    return np.array(state, dtype=complex)


def _fft_walk(fft: ArrayFFT, x: np.ndarray) -> list:
    """Run ``fft``'s own datapath over ``x`` through its ``observe`` seam.

    Returns ``((phase, stage), state)`` pairs in walk order, the output
    spectrum last (``("output", 0)``).  The compiled walk reports each
    stage as one ``(groups, size)`` block; the oracle reports one group's
    row at a time, in group order, and those rows are stacked into the
    same block.
    """
    rows = {}

    def observe(phase, stage, state):
        rows.setdefault((phase, stage), []).append(_as_complex(state))

    if fft.use_compiled:
        eng = fft.compiled_engine()
        walk = (eng._transform_many_fixed if fft.fixed_point
                else eng._transform_many_float)
        out = walk(x[None], observe)[0]
    else:
        walk = (fft._transform_fixed if fft.fixed_point
                else fft._transform_float)
        out = walk(x, observe)
    trace = [(key, np.reshape(parts, (-1, parts[0].shape[-1])))
             for key, parts in rows.items()]
    return trace + [(("output", 0), out)]


def _fft_weight(fft: ArrayFFT, phase: str, stage: int, group: int,
                lane: int) -> complex:
    """The weight ``fft``'s tables hold for a site: the pre-rotation
    ``W[group, lane]``, or the twiddle of the butterfly that writes
    ``lane`` in ``phase``'s ``stage``."""
    if phase == "prerotate":
        if fft.use_compiled:
            return complex(fft.compiled_engine().prerotation[group, lane])
        return complex(fft.prerotation.weight(group, lane))
    epoch = fft.plan.epochs[int(phase[-1])]
    butterfly = lane % (epoch.group_size // 2)
    if fft.use_compiled:
        eng = fft.compiled_engine()
        stages = eng.epoch0 if epoch.epoch == 0 else eng.epoch1
        return complex(stages[stage].weights[butterfly])
    ci = epoch.stages[stage].coefficient_indices[butterfly]
    if fft.fixed_point:
        return fft._rom_fx[epoch.group_size][ci].to_complex()
    return complex(fft._rom[epoch.group_size][ci])


def coexec_fft(n: int = None, *, a: ArrayFFT = None, b: ArrayFFT = None,
               x=None, seed: int = 0, fixed_point: bool = False,
               atol: float = 1e-9, names: tuple = None) -> CoexecResult:
    """Compare two array-FFT datapaths stage by stage over one input.

    Defaults to the canonical twin: side a runs ``n``-point compiled,
    side b the per-butterfly reference oracle.  Each side runs its own
    shipped walk with its own tables, observed after every epoch-0
    stage, the pre-rotation and every epoch-1 stage, then the outputs
    are compared; the first differing step localises to (phase, stage,
    group, lane), plus (butterfly, role) on a butterfly stage.  Pass
    pre-built engines (e.g. one with a fault injected into its tables)
    via ``a``/``b``.  Fixed-point engines are compared exactly; float
    with ``atol``.
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
    pairs = list(zip(_fft_walk(a, x), _fft_walk(b, x)))
    overflow = ((a.fx.overflow_count - ov_a0) if a.fx else 0,
                (b.fx.overflow_count - ov_b0) if b.fx else 0)
    for step, (((phase, stage), st_a), (_, st_b)) in enumerate(pairs):
        err = np.abs(st_a - st_b)
        if float(err.max()) <= tol:
            continue
        idx = tuple(int(i) for i in np.argwhere(err > tol)[0])
        location = {"phase": phase, "stage": stage}
        operands = {"a": complex(st_a[idx]), "b": complex(st_b[idx])}
        if phase == "output":
            location["bin"] = idx[0]
        else:
            group, lane = idx
            location.update({"group": group, "lane": lane})
            if phase != "prerotate":
                half = st_a.shape[-1] // 2
                location.update({
                    "butterfly": lane % half,
                    "role": "sum" if lane < half else "diff",
                })
            operands["weight_a"] = _fft_weight(a, phase, stage, group, lane)
            operands["weight_b"] = _fft_weight(b, phase, stage, group, lane)
        report = DivergenceReport(
            kind="fft-butterfly",
            backends=names,
            step_index=step,
            location=location,
            operands=operands,
            max_error=float(err.max()),
            overflow_delta=overflow,
        )
        return CoexecResult("fft-butterfly", names, step + 1, report,
                            time.perf_counter() - start)
    return CoexecResult("fft-butterfly", names, len(pairs), None,
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


def _crf_banks(machine) -> np.ndarray:
    """Both CRF banks of an ASIP as complex values, active bank first."""
    banks = machine.crf.bank_arrays()
    values = (fixed_to_complex_array(*banks) if len(banks) == 2
              else banks[0])
    active = machine.crf.active_bank
    return values[[active, 1 - active]]


def _end_state_diff(a, b, atol: float) -> tuple:
    """First end-state mismatch of two ASIPs as ``(location, operands,
    max_error)``, or None.  Compared in order: the 32 registers, the
    SimStats counters, both CRF banks (active first), then the data
    window ``[0, 3N)``."""
    for r in range(32):
        va, vb = a.read_reg(r), b.read_reg(r)
        if va != vb:
            return {"register": r}, {"a": va, "b": vb}, 0.0
    stats_a, stats_b = a.stats.as_dict(), b.stats.as_dict()
    for key in {**stats_a, **stats_b}:
        if stats_a.get(key) != stats_b.get(key):
            return ({"stat": key},
                    {"a": stats_a.get(key), "b": stats_b.get(key)}, 0.0)
    n = a.n_points
    planes = (
        ("crf", _crf_banks(a), _crf_banks(b)),
        ("memory", a.memory.read_complex_vector(0, 3 * n),
         b.memory.read_complex_vector(0, 3 * n)),
    )
    for plane, values_a, values_b in planes:
        err = np.abs(values_a - values_b)
        if not (err.size and float(err.max()) > atol):
            continue
        site = tuple(int(i) for i in np.argwhere(err > atol)[0])
        if plane == "crf":
            bank, entry = site
            location = {"bank": ("active", "shadow")[bank],
                        "crf_entry": entry}
        else:
            (word,) = site
            region = ("input", "scratch", "output")[word // n]
            location = {"memory_word": word, "region": region}
            if region == "output":
                location["bin"] = word - 2 * n
        operands = {"a": complex(values_a[site]),
                    "b": complex(values_b[site])}
        return location, operands, float(err.max())
    return None


def coexec_asip(n: int = 16, *, a=None, b=None, x=None, seed: int = 0,
                fixed_point: bool = False, atol: float = 1e-9,
                program=None) -> CoexecResult:
    """Co-execute the ASIP's shipped path against its step interpreter.

    Side a runs :meth:`~repro.asip.FFTASIP.run` (the levelized pass the
    machine ships, recorded or replayed), side b
    :meth:`~repro.sim.machine.Machine.run_interpreted` (the scalar per-op
    oracle), on the same program over the same staged input.  The end
    states are compared in order: registers, ``SimStats`` counters, both
    CRF banks, then the data-window words ``[0, 3N)``; an output word
    also reports its spectral bin.  Q1.15 compares exactly, float to
    ``atol``.  ``steps`` counts the instructions side a retired.  A step
    fault needs per-instruction localisation: :func:`coexec_machines`.
    """
    from ..asip import FFTASIP, generate_fft_program

    if a is None:
        a = FFTASIP(n, fixed_point=fixed_point)
    if b is None:
        b = FFTASIP(a.n_points, fixed_point=a.fixed_point)
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
    names = ("asip-run", "asip-interpreted")
    tol = 0.0 if a.fixed_point else atol
    ov_a0 = a.fx.overflow_count if a.fx else 0
    ov_b0 = b.fx.overflow_count if b.fx else 0
    retired = a.stats.instructions
    start = time.perf_counter()
    a.run(program)
    b.run_interpreted(program)
    steps = a.stats.instructions - retired
    seconds = time.perf_counter() - start
    diff = _end_state_diff(a, b, tol)
    if diff is None:
        return CoexecResult("machine-state", names, steps, None, seconds)
    location, operands, max_error = diff
    report = DivergenceReport(
        kind="machine-state",
        backends=names,
        step_index=steps,
        location=location,
        operands=operands,
        max_error=max_error,
        overflow_delta=((a.fx.overflow_count - ov_a0) if a.fx else 0,
                        (b.fx.overflow_count - ov_b0) if b.fx else 0),
        message="end-of-run state mismatch",
    )
    return CoexecResult("machine-state", names, steps, report, seconds)


# Viterbi trellis-step lockstep -------------------------------------------


def coexec_viterbi(code="conv-k3", *, a=None, b=None, llrs=None,
                   steps: int = 24, seed: int = 0,
                   names: tuple = ("viterbi-vectorized",
                                   "viterbi-reference")) -> CoexecResult:
    """Trellis-lockstep two Viterbi decoders over the same LLR grid.

    Side a steps the kernels :meth:`ViterbiDecoder.decode` ships (branch
    sums, butterfly add-compare-select, traceback) with *its* branch-sign
    table; the add-compare-select runs in chunks of one step
    (``_acs(chunk=1)``), in the mode the grid's branch sums select (two
    calls per step when all are finite, the masked select otherwise).
    Side b steps the per-state walk :meth:`ViterbiDecoder.decode_reference`
    consumes (``_reference_steps``) with *its* own table.  Survivor
    decisions and path metrics are compared after every trellis step
    (both paths are bit-identical by contract), then each side's own
    traceback's info bits.  Both decoders must decode the same code.
    """
    from ..coding.convolutional import get_code
    from ..coding.viterbi import ViterbiDecoder

    if isinstance(code, str):
        code = get_code(code)
    if a is None:
        a = ViterbiDecoder(code)
    if b is None:
        b = ViterbiDecoder(code)
    if a.code.polynomials != b.code.polynomials:
        raise ValueError(
            "coexec_viterbi needs decoders of one code, "
            f"got {a.code.name}/{b.code.name}"
        )
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
    start = time.perf_counter()
    decisions_a = np.empty((n_steps, 1, code.n_states), dtype=bool)
    sums, table = a._branch_sums(llr[None])
    steps_a = a._acs(sums, table, decisions_a, chunk=1)
    decisions_b = []
    for t, ((choose_a, metrics_a), (choose_b, metrics_b, cand_b)) in \
            enumerate(zip(steps_a, b._reference_steps(llr))):
        choose_a, metrics_a = choose_a[0, 0], metrics_a[0]
        decisions_b.append(choose_b)
        for state in range(code.n_states):
            ma, mb = float(metrics_a[state]), float(metrics_b[state])
            if int(choose_a[state]) != choose_b[state]:
                what = "decision"
            elif ma != mb and not (np.isnan(ma) and np.isnan(mb)):
                what = "metric"
            else:
                continue
            report = DivergenceReport(
                kind="viterbi-step",
                backends=names,
                step_index=t,
                location={"step": t, "state": state, "mismatch": what},
                operands={
                    "a_decision": int(choose_a[state]),
                    "a_metric": ma,
                    "b_decision": choose_b[state],
                    "b_metric": mb,
                    "b_cand0": float(cand_b[state][0]),
                    "b_cand1": float(cand_b[state][1]),
                },
                max_error=abs(ma - mb) if np.isfinite([ma, mb]).all()
                else 0.0,
            )
            return CoexecResult("viterbi-step", names, t + 1, report,
                                time.perf_counter() - start)

    # Each side's own traceback (decisions already proven equal, so this
    # only guards the traceback conventions); the first mismatch in walk
    # order is the last step, as the walk runs backwards.
    bits_a = a._traceback(decisions_a)[0]
    bits_b = b._traceback_reference(decisions_b)
    wrong = np.flatnonzero(bits_a != bits_b)
    report = None
    if wrong.size:
        t = int(wrong[-1])
        report = DivergenceReport(
            kind="viterbi-step", backends=names, step_index=t,
            location={"step": t, "mismatch": "traceback"},
            operands={"a": int(bits_a[t]), "b": int(bits_b[t])},
        )
    return CoexecResult("viterbi-step", names, n_steps, report,
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
                    precision: str = None, seed: int = 0,
                    atol: float = 1e-9, workers: int = None,
                    close: bool = None) -> CoexecResult:
    """Run the same symbol batch through two facade backends and diff.

    The coarse end of the lockstep family: localisation is per (symbol,
    bin) rather than per butterfly — use :func:`coexec_fft` /
    :func:`coexec_asip` to then zoom into a diverging pair.  Fixed-point
    spectra must agree bit for bit, overflow counts included; float
    spectra to ``atol``.  ``precision`` takes every name
    :func:`repro.engine` accepts (``"fixed"`` is Q1.15) and defaults to
    float; given ``engines``, the compare mode is the engines' own
    precision, and a pair of two precisions, or a ``precision`` that
    disagrees with theirs, raises ``ValueError``.
    """
    from ..engines import engine as build_engine, normalize_precision

    names = tuple(backends)
    if len(names) != 2:
        raise ValueError(f"need exactly two backends, got {names!r}")
    own_engines = engines is None
    if engines is None:
        precision = normalize_precision(precision)
        engines = tuple(
            build_engine(n_points, backend=name, precision=precision,
                         workers=workers)
            for name in names
        )
    else:
        own = {eng.precision for eng in engines}
        if len(own) != 1 or (precision is not None and
                             normalize_precision(precision) not in own):
            raise ValueError(
                "coexec_backends needs engines of one precision matching "
                f"precision={precision!r}, got "
                f"{tuple(eng.precision for eng in engines)}"
            )
        (precision,) = own
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
