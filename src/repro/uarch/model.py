"""Issue-width / functional-unit timing model over a retired trace.

``sim/machine.py`` stays the bit-exact architectural oracle; this module
only *re-times* what the oracle already executed.  :func:`retime` walks a
:func:`~repro.uarch.replay.record_trace` op list through a greedy
in-order scheduler: up to ``issue_width`` instructions issue per cycle,
each on its functional unit (``alu`` — the scalar ALU doubling as the
AGU, ``mul``, ``lsu`` — the 64-bit memory port LDIN/STOUT/LW/SW share,
``bu`` — the butterfly unit), no earlier than the
:class:`~repro.uarch.hazards.Scoreboard` clears its read/write hazards.
Dual issue therefore buys exactly the overlaps the paper's datapath
allows — AGU arithmetic beside BUT4, LDIN/STOUT beside BUT4 — while
same-unit ops still serialise.  Cache timing replays the recorded
address trace through a fresh :class:`~repro.sim.cache.DataCache`
*once, in retirement order*, so hit/miss outcomes (and hence the
per-op miss extras) are identical across issue widths by construction;
a blocking miss holds the memory port and stalls dependents.

Three invariants follow (asserted for every fuzzed program by the
``uarch`` verify family):

* the oracle's architectural results are untouched (the overlay never
  executes);
* misses are width-invariant (single shared replay order);
* the cycle sandwich — :func:`critical_path_cycles` (pure dataflow,
  infinite width) ≤ wider issue ≤ narrower issue, because the greedy
  in-order schedule is monotone in ``issue_width`` and every schedule
  honours the same hazards and latencies the critical path uses.

Configurations live in the package's eighth name registry
(:func:`register_uarch` / :func:`get_uarch` / :func:`uarch_names` /
:func:`uarch_specs`) with the same sorted
:class:`~repro.core.registry.UnknownNameError` menus as the other seven.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import telemetry
from ..core.registry import Registry
from ..sim.cache import CacheConfig, DataCache
from ..sim.pipeline import PipelineConfig
from .hazards import Scoreboard, dataflow_critical_path

__all__ = [
    "UarchSpec",
    "UarchResult",
    "register_uarch",
    "unregister_uarch",
    "get_uarch",
    "uarch_names",
    "uarch_specs",
    "cache_timeline",
    "retime",
    "critical_path_cycles",
    "sandwich_cycles",
]

#: functional unit per RetiredOp kind
_UNIT = {
    "alu": "alu", "branch": "alu", "jump": "alu", "nop": "alu",
    "mul": "mul",
    "load": "lsu", "store": "lsu", "ldin": "lsu", "stout": "lsu",
    "but4": "bu",
}


@dataclass(frozen=True)
class UarchSpec:
    """One overlay configuration: issue width + pipeline penalties.

    ``pipeline`` reuses the oracle's frozen
    :class:`~repro.sim.pipeline.PipelineConfig` as the single source of
    timing truth — the overlay derives every per-op latency from it.
    ``charge_cache`` selects blocking-cache timing (miss extras from the
    replayed address trace enter latencies and hold the memory port);
    with it off the cache still counts hits/misses but never stalls,
    matching the oracle's default accounting.
    """

    name: str
    description: str = ""
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    issue_width: int = 1
    charge_cache: bool = True

    def __post_init__(self):
        if self.issue_width < 1:
            raise ValueError(
                f"issue_width must be >= 1, got {self.issue_width}"
            )


@dataclass(frozen=True)
class UarchResult:
    """Cycle count and stall/occupancy breakdown of one retiming."""

    name: str
    issue_width: int
    charge_cache: bool
    instructions: int
    cycles: int
    stalls: dict
    unit_issues: dict
    dcache_hits: int
    dcache_misses: int

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


# --- the eighth name registry ---------------------------------------------


def _check_uarch(name: str, spec) -> None:
    if not isinstance(spec, UarchSpec):
        raise TypeError(f"expected a UarchSpec, got {type(spec).__name__}")


_UARCHS = Registry("uarch config", _check_uarch)


def register_uarch(spec: UarchSpec, replace: bool = False) -> None:
    """Register ``spec`` under ``spec.name`` (loud on duplicates)."""
    _UARCHS.register(spec, replace=replace)


unregister_uarch = _UARCHS.unregister
get_uarch = _UARCHS.get
uarch_names = _UARCHS.names
uarch_specs = _UARCHS.specs

for _preset in (
    UarchSpec(
        "base-300mhz",
        "the oracle's single-issue timing as a preset: default "
        "pipeline penalties, cache counted but never stalling",
        charge_cache=False,
    ),
    UarchSpec(
        "no-interlock",
        "idealised single issue: no branch/load-use/multiply "
        "penalties, non-blocking cache",
        pipeline=PipelineConfig(
            branch_penalty=0, load_use_stall=0, mul_extra=0
        ),
        charge_cache=False,
    ),
    UarchSpec(
        "single-issue",
        "one instruction per cycle with a blocking data cache "
        "(the study baseline)",
    ),
    UarchSpec(
        "dual-issue",
        "two instructions per cycle across alu/mul/lsu/bu units "
        "(AGU beside BUT4, LDIN/STOUT beside BUT4), blocking cache",
        issue_width=2,
    ),
):
    register_uarch(_preset, replace=True)


# --- timing ----------------------------------------------------------------

_DEFAULT_CACHE = object()   # sentinel: "the oracle's 32 KB default"


def _resolve_cache(cache_config):
    if cache_config is _DEFAULT_CACHE:
        return CacheConfig()
    return cache_config


def _latency(kind: str, pipeline: PipelineConfig) -> int:
    """Result latency of one op in cycles, cache extras excluded.

    Loads carry ``1 + load_use_stall`` so a dependent issuing the next
    cycle waits exactly the oracle's load-use interlock; BUT4 and
    LDIN/STOUT latencies come straight from the pipeline's
    ``but4_latency`` / ``custom_mem_latency`` occupancy figures.
    """
    if kind == "mul":
        return 1 + pipeline.mul_extra
    if kind == "load":
        return 1 + pipeline.load_use_stall
    if kind == "but4":
        return max(1, pipeline.but4_latency)
    if kind in ("ldin", "stout"):
        return max(1, pipeline.custom_mem_latency)
    return 1


def cache_timeline(ops, cache_config=_DEFAULT_CACHE):
    """Replay the recorded address trace once, in retirement order.

    Returns ``(extras, hits, misses)`` where ``extras[i]`` is op *i*'s
    worst-beat latency beyond one hit (the same beyond-overlap charge
    the oracle's ``_probe_cache_pair`` uses).  Every retiming shares
    this single replay, which is what makes miss counts — and the
    extras entering the sandwich latencies — identical across widths.
    """
    config = _resolve_cache(cache_config)
    if config is None:
        return [0] * len(ops), 0, 0
    dcache = DataCache(config)
    hit_latency = config.hit_latency
    extras = []
    for op in ops:
        worst = 0
        for address, is_write in op.mem:
            latency = dcache.access(address, is_write) - hit_latency
            if latency > worst:
                worst = latency
        extras.append(worst)
    return extras, dcache.hits, dcache.misses


def retime(ops, spec: UarchSpec, cache_config=_DEFAULT_CACHE) -> UarchResult:
    """Re-time a retired trace under ``spec``; the trace is untouched.

    Greedy in-order issue: each op starts at the earliest cycle allowed
    by (a) at most ``issue_width`` issues per cycle, (b) its scoreboard
    hazards, (c) its functional unit being free.  A taken branch or
    jump redirects the front end, so the next op issues no earlier than
    ``branch_penalty`` cycles after the redirect slot.  With
    ``charge_cache``, a missing memory op holds the ``lsu`` port for
    its miss extra (blocking cache).
    """
    pipeline = spec.pipeline
    width = spec.issue_width
    charge = spec.charge_cache
    extras, hits, misses = cache_timeline(ops, cache_config)
    board = Scoreboard()
    unit_free = {}
    unit_issues = {}
    stalls = {"raw": 0, "structural": 0, "branch": 0, "cache": 0}
    cycle = 0
    slots = 0
    finish = 0
    with telemetry.span(
        "uarch.replay", config=spec.name, width=width, instructions=len(ops)
    ):
        for op, extra in zip(ops, extras):
            extra = extra if charge else 0
            t = cycle + 1 if slots >= width else cycle
            ready = board.ready(op)
            if ready > t:
                stalls["raw"] += ready - t
                t = ready
            unit = _UNIT[op.kind]
            free = unit_free.get(unit, 0)
            if free > t:
                stalls["structural"] += free - t
                t = free
            if t > cycle:
                cycle = t
                slots = 0
            slots += 1
            unit_issues[unit] = unit_issues.get(unit, 0) + 1
            # A blocking miss occupies the port past its issue slot.
            occupancy = 1 + (extra if op.mem else 0)
            unit_free[unit] = cycle + occupancy
            completion = cycle + _latency(op.kind, pipeline) + extra
            board.commit(op, completion)
            if completion > finish:
                finish = completion
            if cycle + 1 > finish:
                finish = cycle + 1
            stalls["cache"] += extra
            if op.taken:
                stalls["branch"] += pipeline.branch_penalty
                cycle = cycle + 1 + pipeline.branch_penalty
                slots = 0
        for kind, cycles in stalls.items():
            if cycles:
                telemetry.event(
                    f"uarch.stall.{kind}", config=spec.name, cycles=cycles
                )
    return UarchResult(
        name=spec.name,
        issue_width=width,
        charge_cache=charge,
        instructions=len(ops),
        cycles=finish,
        stalls=stalls,
        unit_issues=unit_issues,
        dcache_hits=hits,
        dcache_misses=misses,
    )


def critical_path_cycles(ops, pipeline: PipelineConfig = None,
                         cache_config=_DEFAULT_CACHE,
                         charge_cache: bool = True) -> int:
    """Dataflow lower bound: hazards and latencies only, infinite width.

    Uses the same per-op latencies (including the shared cache-replay
    extras when ``charge_cache``) as :func:`retime`, so it bounds every
    retiming of the same trace from below.
    """
    pipeline = pipeline or PipelineConfig()
    extras, _, _ = cache_timeline(ops, cache_config)
    if not charge_cache:
        extras = [0] * len(ops)
    latencies = [
        _latency(op.kind, pipeline) + extra
        for op, extra in zip(ops, extras)
    ]
    return dataflow_critical_path(ops, latencies)


def sandwich_cycles(ops, cache_config=_DEFAULT_CACHE) -> tuple:
    """``(critical_path, dual_issue, single_issue)`` for one trace.

    The sandwich invariant requires ``critical_path <= dual_issue <=
    single_issue``; the verify family and the quick bench assert it on
    every program they touch.
    """
    single = get_uarch("single-issue")
    dual = get_uarch("dual-issue")
    return (
        critical_path_cycles(ops, single.pipeline, cache_config),
        retime(ops, dual, cache_config).cycles,
        retime(ops, single, cache_config).cycles,
    )
