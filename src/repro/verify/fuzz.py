"""Seeded property fuzzing across every registered backend, with
shrinking to a minimal reproducer.

Six generator families, all driven by one ``numpy`` PCG64 stream so a
``(kinds, n_cases, seed)`` triple replays exactly:

* ``isa`` — random-but-safe ISA programs (ALU mix, word loads/stores in
  a scratch region, forward branches to a common join, HALT) executed
  on the predecoded ``Machine.run`` fast path *and* the
  ``run_interpreted`` oracle of a twin machine; registers, statistics
  and the touched memory window must match exactly.
* ``engine`` — random ``(n_points, precision, symbols)`` transform
  workloads diffed across **all** registered facade backends against
  the ``compiled`` baseline via
  :func:`~repro.verify.coexec.coexec_backends` (Q1.15 bit-exact,
  overflow counts included; float to 1e-9).
* ``scenario`` — a registered scenario preset with randomised
  ``n_points``/``symbols`` overrides, run twice with the same seed on a
  random backend pair; spectra and the received bits must agree, and
  for a modulated preset the hard slicer must equal its argmin oracle
  on the equalised subcarriers (:func:`~repro.verify.coexec.coexec_demap`).
* ``coded`` — random coded-link parameters (code, puncture rate,
  interleaver, constellation, SNR): encoder fast path vs the
  shift-register oracle, interleave/deinterleave round trip, the
  vectorised Viterbi vs the per-state walk over the same noisy LLR
  grid, and the constellation's soft demapper vs its oracle twin on
  random symbols with a few ``±inf``, NaN and ``±1e308`` components
  (:func:`~repro.verify.coexec.coexec_llrs`) — all exact.
* ``serve`` — a random multi-tenant serving workload (tenant count,
  feed sizes, batch, deadlines, optionally one injected pool fault on
  tenant 0) run deterministically through a
  :class:`~repro.serve.server.SessionServer` and diffed per tenant
  against the serial :class:`ArrayFFT` oracle: clean tenants must stay
  bit-identical, an injected ``pool-failure`` must degrade (not
  corrupt) only tenant 0, and an injected ``worker-shard`` corruption
  must surface in tenant 0's spectrum alone.
* ``uarch`` — random ISA programs and small FFT runs recorded through
  :func:`repro.uarch.record_trace`: the recorded machine must end
  bit-identical to an un-instrumented interpreted twin (registers,
  memory/spectrum, statistics, retirement count), and the re-timed
  trace must obey the cycle sandwich (dataflow critical path <=
  dual-issue <= single-issue).

A failing case is *shrunk* greedily: every registered reduction
(halving symbol counts and sizes, dropping halves of a fuzzed program)
is retried while the divergence persists, and the smallest still-failing
config is reported alongside the original.  :func:`fuzz_backends`
returns a :class:`FuzzReport`; the fixed-seed tier-1 smoke asserts its
``ok``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .coexec import (
    DivergenceReport,
    coexec_backends,
    coexec_demap,
    coexec_llrs,
    coexec_viterbi,
)

__all__ = [
    "FuzzCase",
    "FuzzReport",
    "FUZZ_KINDS",
    "fuzz_backends",
    "shrink_config",
]

FUZZ_KINDS = ("isa", "engine", "scenario", "coded", "serve", "uarch")

#: scratch word region the fuzzed ISA programs confine their
#: loads/stores to (compared word by word after the run).
_MEM_LO, _MEM_HI = 64, 192


@dataclass
class FuzzCase:
    """One executed fuzz case and, on failure, its shrunk reproducer."""

    kind: str
    config: dict
    report: DivergenceReport = None
    minimal: dict = None

    @property
    def ok(self) -> bool:
        return self.report is None


@dataclass
class FuzzReport:
    """Aggregate outcome of one :func:`fuzz_backends` sweep."""

    seed: int
    cases: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return f"fuzz: {self.cases} cases, 0 divergences (seed {self.seed})"
        lines = [
            f"fuzz: {self.cases} cases, {len(self.failures)} divergence(s) "
            f"(seed {self.seed})"
        ]
        for case in self.failures:
            lines.append(f"  [{case.kind}] {case.config}")
            lines.append(f"    {case.report.describe()}")
            if case.minimal is not None and case.minimal != case.config:
                lines.append(f"    minimal reproducer: {case.minimal}")
        return "\n".join(lines)


# ISA program fuzzing ------------------------------------------------------

_R_OPS = ("add", "sub", "mul", "mulh", "and", "or", "xor", "slt", "sllv")
_I_OPS = ("addi", "andi", "ori", "xori", "slti")
_SHIFT_OPS = ("sll", "srl", "sra")
_BRANCH_OPS = ("beq", "bne", "blt", "bge")


def _gen_isa(rng) -> dict:
    length = int(rng.integers(6, 40))
    ops = []
    for _ in range(length):
        roll = float(rng.random())
        rd = int(rng.integers(1, 16))
        rs = int(rng.integers(0, 16))
        rt = int(rng.integers(0, 16))
        if roll < 0.35:
            ops.append((str(rng.choice(_R_OPS)), rd, rs, rt))
        elif roll < 0.55:
            imm = int(rng.integers(-200, 200))
            ops.append((str(rng.choice(_I_OPS)), rd, rs, imm))
        elif roll < 0.65:
            ops.append((str(rng.choice(_SHIFT_OPS)), rd, rs,
                        int(rng.integers(0, 31))))
        elif roll < 0.75:
            word = int(rng.integers(_MEM_LO, _MEM_HI))
            ops.append(("sw", rs, word))
        elif roll < 0.85:
            word = int(rng.integers(_MEM_LO, _MEM_HI))
            ops.append(("lw", rd, word))
        elif roll < 0.92:
            ops.append(("lui", rd, int(rng.integers(0, 1 << 16))))
        else:
            ops.append((str(rng.choice(_BRANCH_OPS)), rs, rt))
    return {"ops": ops}


def _build_isa_program(ops):
    from ..isa.instructions import Opcode
    from ..isa.program import ProgramBuilder

    builder = ProgramBuilder("fuzz")
    for op in ops:
        kind = op[0]
        if kind in _R_OPS:
            builder.emit(Opcode(kind), rd=op[1], rs=op[2], rt=op[3])
        elif kind in _I_OPS or kind in _SHIFT_OPS:
            builder.emit(Opcode(kind), rt=op[1], rs=op[2], imm=op[3])
        elif kind == "lui":
            builder.emit(Opcode.LUI, rt=op[1], imm=op[2])
        elif kind == "sw":
            builder.emit(Opcode.SW, rt=op[1], rs=0, imm=op[2])
        elif kind == "lw":
            builder.emit(Opcode.LW, rt=op[1], rs=0, imm=op[2])
        else:  # forward branch to the common join before HALT
            builder.branch(Opcode(kind), rs=op[1], rt=op[2], target="join")
    builder.label("join")
    builder.halt()
    return builder.build()


def _run_isa(config) -> DivergenceReport:
    from ..sim.machine import Machine
    from ..sim.memory import MainMemory

    program = _build_isa_program(config["ops"])
    fast = Machine(MainMemory(256, float_mode=False))
    oracle = Machine(MainMemory(256, float_mode=False))
    fast.run(program)
    oracle.run_interpreted(program)
    names = ("machine-predecoded", "machine-interpreted")
    for r in range(32):
        va, vb = fast.read_reg(r), oracle.read_reg(r)
        if va != vb:
            return DivergenceReport(
                kind="machine-state", backends=names,
                step_index=fast.stats.instructions,
                location={"register": r},
                operands={"a": va, "b": vb},
                message="end-of-run register mismatch",
            )
    for word in range(_MEM_LO, _MEM_HI):
        va, vb = fast.memory.read_word(word), oracle.memory.read_word(word)
        if va != vb:
            return DivergenceReport(
                kind="machine-state", backends=names,
                step_index=fast.stats.instructions,
                location={"memory_word": word},
                operands={"a": va, "b": vb},
                message="end-of-run memory mismatch",
            )
    sa, sb = fast.stats.as_dict(), oracle.stats.as_dict()
    for key in sorted(set(sa) | set(sb)):
        if sa.get(key) != sb.get(key):
            return DivergenceReport(
                kind="machine-state", backends=names,
                step_index=fast.stats.instructions,
                location={"stat": key},
                operands={"a": sa.get(key), "b": sb.get(key)},
                message="statistics mismatch",
            )
    return None


# Engine backend fuzzing ---------------------------------------------------


def _gen_engine(rng) -> dict:
    return {
        "n_points": int(rng.choice((16, 32, 64))),
        "precision": str(rng.choice(("float", "q15"))),
        "symbols": int(rng.integers(1, 5)),
        "seed": int(rng.integers(0, 2**31)),
    }


def _run_engine(config) -> DivergenceReport:
    from ..core.registry import backend_specs

    baseline = "compiled"
    for name, spec in backend_specs().items():
        if name == baseline:
            continue
        if not spec.supports_precision(config["precision"]):
            continue
        result = coexec_backends(
            config["n_points"], (baseline, name),
            symbols=config["symbols"], precision=config["precision"],
            seed=config["seed"],
        )
        if not result.ok:
            return result.report
    return None


# Scenario fuzzing ---------------------------------------------------------


def _gen_scenario(rng) -> dict:
    from ..scenarios import scenario_names

    return {
        "scenario": str(rng.choice(scenario_names())),
        "n_points": int(rng.choice((32, 64))),
        "symbols": int(rng.integers(2, 4)),
        "seed": int(rng.integers(0, 2**31)),
        "backends": ("compiled", "reference"),
    }


def _run_scenario(config) -> DivergenceReport:
    from ..scenarios import get_scenario

    spec = get_scenario(config["scenario"])
    results = []
    for backend in config["backends"]:
        with spec.build(backend=backend,
                        n_points=config["n_points"]) as pipe:
            results.append(pipe.run(symbols=config["symbols"],
                                    seed=config["seed"]))
    res_a, res_b = results
    names = tuple(config["backends"])
    tol = 0.0 if spec.precision == "q15" else 1e-9
    if res_a.spectrum is not None and res_b.spectrum is not None:
        err = np.abs(np.asarray(res_a.spectrum)
                     - np.asarray(res_b.spectrum))
        if err.size and float(err.max()) > tol:
            sym, k = (int(i) for i in np.argwhere(err > tol)[0][:2])
            return DivergenceReport(
                kind="spectrum", backends=names, step_index=sym,
                location={"scenario": config["scenario"], "symbol": sym,
                          "bin": k},
                operands={"a": complex(np.atleast_2d(res_a.spectrum)[sym, k]),
                          "b": complex(np.atleast_2d(res_b.spectrum)[sym, k])},
                max_error=float(err.max()),
            )
    bits_a, bits_b = res_a.rx_bits, res_b.rx_bits
    if bits_a is not None and bits_b is not None \
            and not np.array_equal(bits_a, bits_b):
        diff = np.argwhere(np.asarray(bits_a) != np.asarray(bits_b))[0]
        return DivergenceReport(
            kind="spectrum", backends=names,
            step_index=int(diff[0]),
            location={"scenario": config["scenario"],
                      "bit_index": tuple(int(i) for i in diff)},
            operands={"a": int(np.asarray(bits_a)[tuple(diff)]),
                      "b": int(np.asarray(bits_b)[tuple(diff)])},
            message="received bits diverged between backends",
        )
    if spec.scheme is not None and res_a.equalised is not None:
        from ..ofdm.modulation import CONSTELLATIONS

        demap = coexec_demap(CONSTELLATIONS[spec.scheme], res_a.equalised)
        if not demap.ok:
            demap.report.location["scenario"] = config["scenario"]
            return demap.report
    return None


# Coded-link fuzzing -------------------------------------------------------


def _gen_coded(rng) -> dict:
    from ..coding import (
        PUNCTURE_PATTERNS,
        code_names,
        demapper_names,
        interleaver_names,
    )

    return {
        "code": str(rng.choice(code_names())),
        "rate": str(rng.choice(sorted(PUNCTURE_PATTERNS))),
        "interleaver": str(rng.choice(interleaver_names())),
        "constellation": str(rng.choice(demapper_names())),
        "snr_db": float(rng.uniform(4.0, 14.0)),
        "info_bits": int(rng.integers(16, 96)),
        "seed": int(rng.integers(0, 2**31)),
    }


def _run_coded(config) -> DivergenceReport:
    from ..coding import build_interleaver, get_code, get_demapper

    rng = np.random.default_rng(config["seed"])
    code = get_code(config["code"])
    bits = rng.integers(0, 2, config["info_bits"]).astype(np.uint8)

    # Encoder fast path vs the shift-register oracle (exact).
    enc_fast = code.encode(bits)
    enc_ref = code.encode_reference(bits)
    if not np.array_equal(enc_fast, enc_ref):
        k = int(np.argwhere(enc_fast != enc_ref)[0][0])
        return DivergenceReport(
            kind="machine-state",
            backends=("encode-vectorized", "encode-reference"),
            step_index=k, location={"coded_bit": k, **_coords(config)},
            operands={"a": int(enc_fast[k]), "b": int(enc_ref[k])},
        )

    # Interleaver round trip (exact identity).  The block interleaver
    # needs a depth-divisible payload, so pad as the coded chain does.
    punctured = code.punctured(config["rate"])
    coded = punctured.encode(bits)
    pad = (-len(coded)) % 8
    payload = np.concatenate([coded, np.zeros(pad, dtype=coded.dtype)]) \
        if pad else coded
    interleaver = build_interleaver(config["interleaver"], len(payload))
    round_trip = interleaver.deinterleave(interleaver.interleave(payload))
    if not np.array_equal(np.asarray(round_trip), payload):
        k = int(np.argwhere(np.asarray(round_trip) != payload)[0][0])
        return DivergenceReport(
            kind="machine-state",
            backends=(f"interleave-{config['interleaver']}", "identity"),
            step_index=k, location={"position": k, **_coords(config)},
            message="interleave/deinterleave round trip broke",
        )

    # Viterbi twins over the same noisy LLR grid (exact, ties included).
    # Constellation/SNR shape the LLR magnitudes and noise floor.
    demapper = get_demapper(config["constellation"])
    scale = 4.0 / max(1, demapper.bits_per_symbol) \
        if hasattr(demapper, "bits_per_symbol") else 4.0
    sigma = float(10.0 ** (-config["snr_db"] / 20.0))
    llr_flat = (1.0 - 2.0 * coded.astype(np.float64)) * scale
    llr_flat = llr_flat + rng.normal(0.0, sigma * scale, llr_flat.shape)
    grid = punctured.depuncture(llr_flat)
    result = coexec_viterbi(code=code, llrs=grid)
    if not result.ok:
        result.report.location.update(_coords(config))
        return result.report

    dec_fast = punctured.decode(llr_flat)
    dec_ref = punctured.decode(llr_flat, reference=True)
    if not np.array_equal(dec_fast, dec_ref):
        k = int(np.argwhere(dec_fast != dec_ref)[0][0])
        return DivergenceReport(
            kind="viterbi-step",
            backends=("viterbi-vectorized", "viterbi-reference"),
            step_index=k, location={"info_bit": k, **_coords(config)},
            operands={"a": int(dec_fast[k]), "b": int(dec_ref[k])},
        )

    # Soft demapper vs its oracle twin (exact, NaN and sign bits
    # included) on random symbols, some components inf, NaN or huge.
    # Drawn after the single block, so those draws do not depend on it.
    reference = getattr(demapper, "llrs_reference", None)
    if reference is not None:
        parts = rng.standard_normal((2, 2, 16))
        odd = rng.random(parts.shape) < 0.1
        parts[odd] = rng.choice([np.inf, -np.inf, np.nan, 1e308, -1e308],
                                size=int(odd.sum()))
        symbols = parts[0] + 0j
        symbols.imag = parts[1]
        with np.errstate(over="ignore", invalid="ignore"):
            result = coexec_llrs(demapper, SimpleNamespace(llrs=reference),
                                 symbols, names=("demap-points-major",
                                                 "demap-reference"))
        if not result.ok:
            result.report.location.update(_coords(config))
            return result.report

    # Multi-block decode vs the oracle, drawn last.  Up to twice
    # _WINDOWED_TRACEBACK_MAX blocks x states, so about half the cases
    # take the serial traceback and the rest the windowed one.
    from ..coding.viterbi import _WINDOWED_TRACEBACK_MAX

    most = max(2, 2 * _WINDOWED_TRACEBACK_MAX // code.n_states)
    blocks = int(rng.integers(2, most + 1))
    burst = rng.integers(0, 2, (blocks, config["info_bits"])).astype(np.uint8)
    llrs = (1.0 - 2.0 * punctured.encode(burst)) * scale
    llrs = llrs + rng.normal(0.0, sigma * scale, llrs.shape)
    dec_fast = punctured.decode(llrs)
    dec_ref = punctured.decode(llrs, reference=True)
    if not np.array_equal(dec_fast, dec_ref):
        block, k = (int(i) for i in np.argwhere(dec_fast != dec_ref)[0])
        return DivergenceReport(
            kind="viterbi-step",
            backends=("viterbi-vectorized", "viterbi-reference"),
            step_index=k,
            location={"block": block, "info_bit": k, "blocks": blocks,
                      **_coords(config)},
            operands={"a": int(dec_fast[block, k]),
                      "b": int(dec_ref[block, k])},
        )
    return None


def _coords(config) -> dict:
    return {key: config[key]
            for key in ("code", "rate", "interleaver", "constellation")
            if key in config}


# Serve-workload fuzzing ---------------------------------------------------

_SERVE_INJECTIONS = ("none", "none", "pool-failure", "worker-shard")


def _gen_serve(rng) -> dict:
    return {
        "tenants": int(rng.integers(2, 5)),
        "n_points": int(rng.choice((16, 32))),
        "symbols": int(rng.integers(4, 17)),
        "batch": int(rng.integers(1, 5)),
        "deadline": float(rng.uniform(2.0, 8.0)),
        "inject": str(rng.choice(_SERVE_INJECTIONS)),
        "seed": int(rng.integers(0, 2**31)),
    }


def _run_serve(config) -> DivergenceReport:
    """Serve a random tenant mix and diff every tenant against the
    serial oracle.

    Tenant 0 rides the ``sharded`` backend when a fault is injected
    (so the fault has a pool to hit) and ``compiled`` otherwise; other
    tenants always share one pooled ``compiled`` engine.  Feeding is
    sequential round-robin — no threads — so a ``(config)`` replays
    bit-exactly.  The fault must be *observed where expected and
    nowhere else*: any leak into a clean tenant, any corruption from a
    fault that should only degrade, and any injected corruption that
    fails to surface all return a :class:`DivergenceReport`.
    """
    import warnings as _warnings

    from ..core.array_fft import ArrayFFT
    from ..serve import SessionServer
    from .faults import pool_failure, worker_shard_corruption

    inject = config["inject"]
    n = config["n_points"]
    rng = np.random.default_rng(config["seed"])
    names = [f"t{i}" for i in range(config["tenants"])]
    streams = {
        name: (rng.standard_normal((config["symbols"], n))
               + 1j * rng.standard_normal((config["symbols"], n)))
        for name in names
    }
    oracle = ArrayFFT(n)
    collected = {name: [] for name in names}
    with SessionServer(batch=config["batch"]) as server:
        for index, name in enumerate(names):
            if index == 0 and inject != "none":
                # min_parallel_symbols=1 only for the pool-death case:
                # the exploding pool never starts threads, while the
                # shard corruption wraps `transform_many` outermost and
                # shows identically on the serial path — so the fuzzer
                # never starts real worker pools.
                server.open_session(
                    name, n, backend="sharded", workers=2,
                    min_parallel_symbols=(
                        1 if inject == "pool-failure" else None
                    ),
                )
            else:
                server.open_session(name, n)
        if inject == "pool-failure":
            sharded = server._tenant(names[0]).lease.engine.impl.sharded
            context = pool_failure(sharded)
        elif inject == "worker-shard":
            sharded = server._tenant(names[0]).lease.engine.impl.sharded
            context = worker_shard_corruption(sharded, symbol=0)
        else:
            context = None
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", RuntimeWarning)
            if context is not None:
                context.__enter__()
            try:
                step = max(config["batch"], 1)
                for lo in range(0, config["symbols"], step):
                    for name in names:
                        server.submit(name, streams[name][lo:lo + step],
                                      deadline=config["deadline"])
                        collected[name].extend(server.drain(name))
            finally:
                if context is not None:
                    context.__exit__(None, None, None)
        for name in names:
            collected[name].extend(server.close_session(name))
        health = server.health()["tenants"]

    backends = ("serve", "serial-oracle")
    for index, name in enumerate(names):
        got = np.concatenate([r.spectrum for r in collected[name]])
        want = oracle.transform_many(streams[name])
        exact = got.shape == want.shape and np.array_equal(got, want)
        corrupted = index == 0 and inject == "worker-shard"
        if exact == corrupted:
            # Clean/degraded tenants must match exactly; the corrupted
            # tenant must *not* (a match means the fault was missed).
            err = np.abs(got - want) if got.shape == want.shape \
                else np.array([np.inf])
            return DivergenceReport(
                kind="spectrum", backends=backends,
                step_index=index,
                location={"tenant": name, "inject": inject},
                operands={"expected_corruption": corrupted},
                max_error=float(err.max()) if err.size else 0.0,
                message=("injected corruption never surfaced" if corrupted
                         else "tenant diverged from the serial oracle"),
            )
        degraded = health[name]["degraded_transitions"]
        if index == 0 and inject == "pool-failure" and degraded == 0:
            return DivergenceReport(
                kind="spectrum", backends=backends, step_index=index,
                location={"tenant": name, "inject": inject},
                message="pool failure never degraded the injected tenant",
            )
        if (index > 0 or inject != "pool-failure") and degraded != 0:
            return DivergenceReport(
                kind="spectrum", backends=backends, step_index=index,
                location={"tenant": name, "inject": inject},
                operands={"degraded_transitions": degraded},
                message="degradation leaked into a clean tenant",
            )
    return None


# Shrinking ----------------------------------------------------------------


def _reductions(config: dict):
    """Candidate smaller configs, most aggressive first."""
    ops = config.get("ops")
    if ops is not None and len(ops) > 1:
        half = len(ops) // 2
        yield {**config, "ops": ops[:half]}
        yield {**config, "ops": ops[half:]}
        yield {**config, "ops": ops[:-1]}
    for key, floor in (("symbols", 1), ("info_bits", 8), ("tenants", 2),
                       ("batch", 1)):
        value = config.get(key)
        if isinstance(value, int) and value > floor:
            yield {**config, key: max(floor, value // 2)}
    n = config.get("n_points")
    if isinstance(n, int) and n > 16:
        yield {**config, "n_points": n // 2}


def shrink_config(config: dict, run_case, max_rounds: int = 32) -> dict:
    """Greedy shrink: keep applying the first reduction that still
    reproduces a divergence; stop at a fixpoint (or the round cap)."""
    current = dict(config)
    for _ in range(max_rounds):
        for candidate in _reductions(current):
            try:
                still_failing = run_case(candidate) is not None
            except Exception:
                still_failing = False  # reduction broke the case; skip
            if still_failing:
                current = candidate
                break
        else:
            return current
    return current


# Microarchitecture overlay fuzzing ----------------------------------------
#
# Two properties per case: (1) recording the retirement trace must not
# perturb the architectural oracle — the recorded machine ends bit-equal
# to an un-instrumented twin, and retires exactly as many ops as the twin
# counts; (2) the cycle sandwich holds — dataflow critical path <=
# dual-issue <= single-issue for the recorded trace.  Cases alternate
# random ISA programs (branches, load-use chains, multiplies) and small
# FFT runs (the custom LDIN/BUT4/STOUT ops with CRF bank swaps).


def _gen_uarch(rng) -> dict:
    if float(rng.random()) < 0.5:
        return {"ops": _gen_isa(rng)["ops"]}
    return {
        "n_points": int(rng.choice((16, 32, 64))),
        "seed": int(rng.integers(0, 2**31)),
    }


def _diverge_uarch(location, a, b, step_index, message) -> DivergenceReport:
    return DivergenceReport(
        kind="uarch-overlay",
        backends=("machine-recorded", "machine-oracle"),
        step_index=step_index, location=location,
        operands={"a": a, "b": b}, message=message,
    )


def _run_uarch(config) -> DivergenceReport:
    from ..uarch import record_trace, sandwich_cycles

    if "ops" in config:
        from ..sim.machine import Machine
        from ..sim.memory import MainMemory

        program = _build_isa_program(config["ops"])
        recorded = Machine(MainMemory(256, float_mode=False))
        oracle = Machine(MainMemory(256, float_mode=False))
        ops = record_trace(recorded, program)
        oracle.run_interpreted(program)
        for r in range(32):
            va, vb = recorded.read_reg(r), oracle.read_reg(r)
            if va != vb:
                return _diverge_uarch(
                    {"register": r}, va, vb, len(ops),
                    "recording perturbed register state",
                )
        for word in range(_MEM_LO, _MEM_HI):
            va = recorded.memory.read_word(word)
            vb = oracle.memory.read_word(word)
            if va != vb:
                return _diverge_uarch(
                    {"memory_word": word}, va, vb, len(ops),
                    "recording perturbed memory state",
                )
    else:
        import numpy as np

        from ..asip import FFTASIP, generate_fft_program

        n = config["n_points"]
        rng = np.random.default_rng(config["seed"])
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        program = generate_fft_program(n)
        recorded = FFTASIP(n)
        recorded.load_input(x)
        ops = record_trace(recorded, program)
        oracle = FFTASIP(n)
        oracle.load_input(x)
        oracle.run_interpreted(program)
        ours, theirs = recorded.read_output(), oracle.read_output()
        if not np.array_equal(ours, theirs):
            point = int(np.argmax(np.abs(ours - theirs)))
            return _diverge_uarch(
                {"output_point": point},
                complex(ours[point]), complex(theirs[point]), len(ops),
                "recording perturbed the spectrum",
            )
    sa, sb = recorded.stats.as_dict(), oracle.stats.as_dict()
    for key in sorted(set(sa) | set(sb)):
        if sa.get(key) != sb.get(key):
            return _diverge_uarch(
                {"stat": key}, sa.get(key), sb.get(key), len(ops),
                "recording perturbed statistics",
            )
    if len(ops) != oracle.stats.instructions:
        return _diverge_uarch(
            {"stat": "instructions"}, len(ops), oracle.stats.instructions,
            len(ops), "retirement count differs from the oracle",
        )
    critical, dual, single = sandwich_cycles(ops)
    if not critical <= dual <= single:
        return _diverge_uarch(
            {"cycles": "sandwich"}, (critical, dual), (dual, single),
            len(ops),
            f"cycle sandwich violated: critical-path {critical} <= "
            f"dual-issue {dual} <= single-issue {single} does not hold",
        )
    return None


# Driver -------------------------------------------------------------------

_GENERATORS = {
    "isa": (_gen_isa, _run_isa),
    "engine": (_gen_engine, _run_engine),
    "scenario": (_gen_scenario, _run_scenario),
    "coded": (_gen_coded, _run_coded),
    "serve": (_gen_serve, _run_serve),
    "uarch": (_gen_uarch, _run_uarch),
}


def fuzz_backends(n_cases: int = 20, seed: int = 0,
                  kinds=FUZZ_KINDS, shrink: bool = True,
                  log=None) -> FuzzReport:
    """Run ``n_cases`` seeded fuzz cases round-robin over ``kinds``.

    Deterministic for a fixed ``(n_cases, seed, kinds)``: the same
    cases run in the same order with the same data.  Failures are
    shrunk (unless ``shrink=False``) and collected in the returned
    :class:`FuzzReport`.
    """
    kinds = tuple(kinds)
    unknown = [kind for kind in kinds if kind not in _GENERATORS]
    if unknown:
        raise ValueError(
            f"unknown fuzz kind(s) {unknown}; known kinds: "
            f"{', '.join(FUZZ_KINDS)}"
        )
    rng = np.random.default_rng(seed)
    report = FuzzReport(seed=seed)
    for index in range(n_cases):
        kind = kinds[index % len(kinds)]
        generate, run = _GENERATORS[kind]
        config = generate(rng)
        divergence = run(config)
        report.cases += 1
        if divergence is None:
            continue
        case = FuzzCase(kind=kind, config=config, report=divergence)
        if shrink:
            case.minimal = shrink_config(config, run)
        report.failures.append(case)
        if log is not None:
            log(f"[{kind}] divergence: {divergence.describe()}")
    return report
