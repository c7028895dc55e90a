"""Context-manager fault injection for the co-execution harness.

Each hook flips exactly one value in *one* engine/decoder instance's
private tables (or wraps one instance method), records the injected
coordinates in an :class:`InjectedFault`, and restores the original
state on exit.  Because every engine owns its own tables (``ArrayFFT``
builds its ROM per instance, ``ViterbiDecoder`` its sign table, and so
on), a fault injected into one side of a co-execution pair leaves the
other side pristine — which is precisely what lets
:mod:`repro.verify.coexec` *localise* the fault rather than merely
observe two equally wrong outputs.

The hooks double as the self-test of the harness
(:func:`demonstrate_fault` proves every fault class is detected and
localised to the injected site) and as the drivers for the
graceful-degradation paths: :func:`pool_failure` breaks a
:class:`~repro.core.parallel.ShardedEngine`'s pool mid-run, exercising
its serial fallback and ``degraded`` marker.

Fault classes
-------------
* :func:`twiddle_flip` — one ROM/compiled-stage twiddle coefficient of
  one :class:`ArrayFFT`.
* :func:`branch_metric_flip` — one branch-sign entry of one
  :class:`~repro.coding.viterbi.ViterbiDecoder`.
* :func:`llr_sign_flip` — one LLR output position of one
  :class:`~repro.coding.demap.SoftDemapper`.
* :func:`slicer_threshold_shift` — one decision threshold of one
  :class:`~repro.ofdm.modulation.Constellation`'s hard slicer.
* :func:`worker_shard_corruption` — one symbol of one
  :class:`~repro.core.parallel.ShardedEngine`'s merged result (models a
  worker returning a corrupted shard).
* :func:`asip_step_corruption` — one register after the k-th dynamic
  instruction of one machine (instance-level ``step`` patch, honoured by
  ``Machine.run`` via its instrumentation seam).
* :func:`pool_failure` — the sharded pool raises mid-``map`` (models a
  shard raising in a worker thread, a thread that cannot start or a
  shut-down executor; the engine's circuit breaker opens and later
  self-heals).
* :func:`engine_stall` — one engine/lease's ``transform_many`` hangs
  (models a wedged pool or pathological input); the serving tier's
  watchdog must convert it into a structured timeout localized to the
  stalled tenant.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..core.fixed_point import quantize, quantize_array

__all__ = [
    "InjectedFault",
    "FAULT_CLASSES",
    "twiddle_flip",
    "branch_metric_flip",
    "llr_sign_flip",
    "slicer_threshold_shift",
    "worker_shard_corruption",
    "asip_step_corruption",
    "pool_failure",
    "engine_stall",
    "demonstrate_fault",
]


@dataclass
class InjectedFault:
    """Record of one injected fault: its class and exact coordinates."""

    kind: str
    target: str
    location: dict = field(default_factory=dict)

    def describe(self) -> str:
        loc = ", ".join(f"{k}={v}" for k, v in self.location.items())
        return f"injected {self.kind} into {self.target} ({loc})"

    def __str__(self) -> str:
        return self.describe()


@contextmanager
def twiddle_flip(fft, epoch: int = 0, stage: int = 0, index: int = 0,
                 factor: complex = -1.0):
    """Scale one twiddle coefficient of ``fft`` by ``factor`` (default:
    sign flip) in *both* of the engine's datapath tables — the
    per-instance ROM the oracle walk reads and, if built, the lowered
    :class:`CompiledStage` weights — so the engine is consistently
    faulty whichever path executes it."""
    epoch_plan = fft.plan.epochs[epoch]
    stage_plan = epoch_plan.stages[stage]
    ci = stage_plan.coefficient_indices[index]
    rom = fft._rom[epoch_plan.group_size]
    old_rom = complex(rom[ci])
    rom[ci] = old_rom * factor
    old_fx = None
    if fft.fixed_point:
        old_fx = fft._rom_fx[epoch_plan.group_size][ci]
        fft._rom_fx[epoch_plan.group_size][ci] = quantize(old_rom * factor)
    saved_stage = None
    if fft.use_compiled:
        eng = fft.compiled_engine()
        stages = eng.epoch0 if epoch == 0 else eng.epoch1
        cs = stages[stage]
        saved_stage = (cs, cs.weights.copy(), cs.wr, cs.wi)
        cs.weights = cs.weights.copy()
        cs.weights[index] = cs.weights[index] * factor
        if fft.fixed_point:
            cs.wr, cs.wi = quantize_array(cs.weights)
    try:
        yield InjectedFault(
            kind="twiddle-flip",
            target=f"ArrayFFT(N={fft.n_points}, "
                   f"{'compiled' if fft.use_compiled else 'reference'})",
            location={"epoch": epoch, "stage": stage, "butterfly": index,
                      "coefficient_index": int(ci)},
        )
    finally:
        rom[ci] = old_rom
        if old_fx is not None:
            fft._rom_fx[epoch_plan.group_size][ci] = old_fx
        if saved_stage is not None:
            cs, weights, wr, wi = saved_stage
            cs.weights = weights
            cs.wr, cs.wi = wr, wi


@contextmanager
def branch_metric_flip(decoder, state: int = 0, branch: int = 0,
                       output_bit: int = 0):
    """Negate one branch-sign entry of ``decoder``'s private correlation
    table — every trellis step touching (state, branch) then computes a
    wrong branch metric on this decoder only."""
    old = float(decoder._signs[state, branch, output_bit])
    decoder._signs[state, branch, output_bit] = -old
    try:
        yield InjectedFault(
            kind="branch-metric-flip",
            target=f"ViterbiDecoder({decoder.code.name})",
            location={"state": state, "branch": branch,
                      "output_bit": output_bit},
        )
    finally:
        decoder._signs[state, branch, output_bit] = old


@contextmanager
def llr_sign_flip(demapper, position: int = 0):
    """Negate one flattened LLR output position of ``demapper`` via an
    instance-level ``llrs`` wrap (the registry singletons stay clean —
    inject into a fresh :class:`SoftDemapper`)."""
    original = demapper.llrs

    def faulty_llrs(symbols, noise_var=None):
        out = np.array(original(symbols, noise_var))
        flat = out.reshape(-1)
        flat[position % flat.size] = -flat[position % flat.size]
        return out

    demapper.llrs = faulty_llrs
    try:
        yield InjectedFault(
            kind="llr-sign-flip",
            target="SoftDemapper("
                   f"{getattr(getattr(demapper, 'constellation', None), 'name', '?')})",
            location={"position": position},
        )
    finally:
        del demapper.__dict__["llrs"]


@contextmanager
def slicer_threshold_shift(constellation, axis: int = 0,
                           threshold: int = 0):
    """Move one decision threshold of ``constellation``'s hard slicer up
    by 0.2 (``axis`` 0 is in-phase, 1 quadrature).  Symbols between the
    old and the new threshold then slice to the wrong level; the argmin
    oracle reads only the points, so it stays right (inject into a
    fresh :class:`~repro.ofdm.modulation.Constellation`, not a registry
    one)."""
    thresholds = constellation._thresholds[axis]
    old = float(thresholds[threshold])
    new = old + 0.2
    thresholds[threshold] = new
    try:
        yield InjectedFault(
            kind="slicer-threshold",
            target=f"Constellation({constellation.name})",
            location={"axis": "IQ"[axis], "threshold": threshold,
                      "old": old, "new": new},
        )
    finally:
        thresholds[threshold] = old


@contextmanager
def worker_shard_corruption(sharded, symbol: int = 0,
                            factor: complex = -1.0):
    """Scale one symbol row of ``sharded``'s merged ``transform_many``
    result — the signature of a pool worker returning a corrupted shard.
    Wraps the instance, so the serial-fallback path (1-CPU containers)
    exhibits the same corruption as a real broken worker would."""
    original = sharded.transform_many

    def faulty_transform_many(blocks):
        out = np.array(original(blocks))
        if 0 <= symbol < out.shape[0]:
            out[symbol] = out[symbol] * factor
        return out

    sharded.transform_many = faulty_transform_many
    try:
        yield InjectedFault(
            kind="worker-shard-corruption",
            target=f"ShardedEngine(N={sharded.engine.plan.n_points}, "
                   f"workers={sharded.workers})",
            location={"symbol": symbol},
        )
    finally:
        del sharded.__dict__["transform_many"]


@contextmanager
def asip_step_corruption(machine, at_step: int, register: int = 8,
                         xor: int = 0x4):
    """XOR one scalar register after the ``at_step``-th dynamic
    instruction of ``machine`` (1-based).  Installed as an instance-level
    ``step`` patch, which ``Machine.run`` detects and honours through its
    interpreter seam."""
    original = machine.step
    count = {"n": 0}

    def faulty_step(instr):
        original(instr)
        count["n"] += 1
        if count["n"] == at_step:
            machine.write_reg(register,
                              machine.read_reg(register) ^ xor)

    machine.step = faulty_step
    try:
        yield InjectedFault(
            kind="asip-step-corruption",
            target=f"{type(machine).__name__}",
            location={"at_step": at_step, "register": register,
                      "xor": xor},
        )
    finally:
        del machine.__dict__["step"]


@contextmanager
def pool_failure(sharded, exc: Exception = None):
    """Install a pool whose ``map`` raises — the next parallel-eligible
    ``transform_many`` hits the graceful-degradation path (single
    warning, serial fallback, ``degraded`` marker).  Works on 1-CPU
    hosts because the fake pool never starts threads."""
    error = exc if exc is not None else RuntimeError("worker died")

    class _ExplodingPool:
        def map(self, *args, **kwargs):
            raise error

        def shutdown(self, *args, **kwargs):
            pass

    saved_pool = sharded._pool
    saved_degraded = sharded.degraded
    sharded._pool = _ExplodingPool()
    sharded.breaker.reset()
    try:
        yield InjectedFault(
            kind="pool-failure",
            target=f"ShardedEngine(workers={sharded.workers})",
            location={"error": repr(error)},
        )
    finally:
        # A pool the engine built itself stays; otherwise restore.
        if sharded._pool is None or isinstance(sharded._pool, _ExplodingPool):
            sharded._pool = None if sharded.degraded else saved_pool
        if saved_degraded and not sharded.degraded:
            sharded.breaker.force_open("marked broken")


@contextmanager
def engine_stall(engine, seconds: float = 30.0):
    """Make ``engine.transform_many`` sleep ``seconds`` before executing
    — the signature of a wedged worker pool or a pathological input.
    Wraps the *instance* (a facade :class:`Engine` or a serve-tier
    :class:`EngineLease`), so only sessions executing through it stall;
    the serving watchdog must turn the stall into a
    :class:`~repro.sessions.SessionExecutionTimeout` rather than a
    hang."""
    original = engine.transform_many

    def stalled_transform_many(blocks):
        time.sleep(seconds)
        return original(blocks)

    engine.transform_many = stalled_transform_many
    try:
        yield InjectedFault(
            kind="engine-stall",
            target=f"{type(engine).__name__}(N={engine.n_points})",
            location={"seconds": seconds},
        )
    finally:
        del engine.__dict__["transform_many"]


# Self-test drivers --------------------------------------------------------

#: the fault classes the acceptance criteria require the harness to
#: detect *and* localise; each maps to a zero-argument demonstration.
FAULT_CLASSES = ("twiddle", "branch-metric", "llr-sign",
                 "slicer-threshold", "worker-shard", "asip-step",
                 "engine-stall")


def demonstrate_fault(kind: str, seed: int = 0):
    """Inject one fault of class ``kind`` and co-execute the faulted
    instance against a clean twin.

    Returns ``(InjectedFault, CoexecResult)``; the result's report is
    the localisation proof (None would mean the harness *missed* the
    fault — the self-test asserts it never is).
    """
    from .coexec import (
        coexec_backends,
        coexec_demap,
        coexec_fft,
        coexec_llrs,
        coexec_machines,
        coexec_viterbi,
    )

    if kind == "twiddle":
        from ..core.array_fft import ArrayFFT

        a = ArrayFFT(64, compiled=True)
        b = ArrayFFT(64, compiled=False)
        with twiddle_flip(a, epoch=0, stage=1, index=2) as fault:
            result = coexec_fft(a=a, b=b, seed=seed)
        return fault, result

    if kind == "branch-metric":
        from ..coding.convolutional import get_code
        from ..coding.viterbi import ViterbiDecoder

        code = get_code("conv-k3")
        a = ViterbiDecoder(code)
        b = ViterbiDecoder(code)
        with branch_metric_flip(a, state=1, branch=1,
                                output_bit=0) as fault:
            result = coexec_viterbi(a=a, b=b, steps=24, seed=seed)
        return fault, result

    if kind == "llr-sign":
        from ..coding.demap import SoftDemapper, get_demapper

        clean = get_demapper("qpsk")
        faulted = SoftDemapper(clean.constellation)
        rng = np.random.default_rng(seed)
        symbols = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        with llr_sign_flip(faulted, position=5) as fault:
            result = coexec_llrs(faulted, clean, symbols,
                                 names=("demap-faulted", "demap-clean"))
        return fault, result

    if kind == "slicer-threshold":
        from ..ofdm.modulation import Constellation

        faulted = Constellation("16qam", 4)
        rng = np.random.default_rng(seed)
        symbols = faulted.map_bits(rng.integers(0, 2, 16 * 4))
        symbols = symbols + 0.02 * (rng.standard_normal(16)
                                    + 1j * rng.standard_normal(16))
        # Symbol 5 sits between the quadrature threshold at 0 and where
        # the fault moves it, so only the faulted slicer misreads it.
        symbols[5] = symbols[5].real + 0.1j
        with slicer_threshold_shift(faulted, axis=1,
                                    threshold=1) as fault:
            result = coexec_demap(faulted, symbols)
        return fault, result

    if kind == "worker-shard":
        from ..engines import engine as build_engine

        eng_a = build_engine(64, backend="sharded", workers=2)
        eng_b = build_engine(64, backend="compiled")
        try:
            with worker_shard_corruption(eng_a.impl.sharded,
                                         symbol=3) as fault:
                result = coexec_backends(
                    64, ("sharded", "compiled"),
                    engines=(eng_a, eng_b), symbols=6, seed=seed)
        finally:
            eng_a.close()
            eng_b.close()
        return fault, result

    if kind == "asip-step":
        from ..asip import FFTASIP, generate_fft_program

        a = FFTASIP(16)
        b = FFTASIP(16, vectorized=False)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        a.load_input(x)
        b.load_input(x)
        program = generate_fft_program(16, a.plan)
        with asip_step_corruption(a, at_step=7, register=9) as fault:
            result = coexec_machines(
                a, b, program, atol=1e-9,
                names=("asip-faulted", "asip-clean"))
        return fault, result

    if kind == "engine-stall":
        from ..serve import SessionServer
        from ..sessions import SessionExecutionTimeout
        from .coexec import CoexecResult, DivergenceReport

        rng = np.random.default_rng(seed)
        blocks = (rng.standard_normal((4, 16))
                  + 1j * rng.standard_normal((4, 16)))
        start = time.perf_counter()
        with SessionServer(batch=4, exec_timeout=0.2) as server:
            stalled = server.open_session("stalled", 16)
            server.open_session("clean", 16)
            timeout_msg = None
            with engine_stall(stalled.lease, seconds=1.0) as fault:
                try:
                    server.submit("stalled", blocks, deadline=5.0)
                except SessionExecutionTimeout as exc:
                    timeout_msg = str(exc)
                # The clean tenant keeps serving while the stalled
                # one's watchdog fires — localisation, not detection,
                # is what this demonstration proves.
                server.submit("clean", blocks, deadline=5.0)
            tail = server.close_session("clean")
            clean_spectra = np.concatenate([r.spectrum for r in tail])
            clean_ok = np.allclose(
                clean_spectra, np.fft.fft(blocks, axis=1), atol=1e-6,
            )
            timeouts = server.health()["tenants"]["stalled"]["timeouts"]
        seconds = time.perf_counter() - start
        detected = timeout_msg is not None and clean_ok and timeouts == 1
        report = DivergenceReport(
            kind="engine-stall",
            backends=("tenant:stalled", "tenant:clean"),
            step_index=0,
            location={"tenant": "stalled", "exec_timeout_s": 0.2},
            operands={"timeout": timeout_msg, "clean_ok": clean_ok,
                      "recorded_timeouts": timeouts},
            message="watchdog converted the stalled chunk into a "
                    "structured timeout; the clean tenant kept serving "
                    "bit-exact results",
        ) if detected else None
        result = CoexecResult(
            kind="engine-stall",
            backends=("serve:stalled", "serve:clean"),
            steps=1, report=report, seconds=seconds,
        )
        return fault, result

    raise ValueError(
        f"unknown fault class {kind!r}; known classes: "
        f"{', '.join(FAULT_CLASSES)}"
    )
