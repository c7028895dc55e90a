"""Stage capability registry for the declarative pipeline API.

Mirrors :mod:`repro.core.registry` (the engine-backend registry) one
layer up: a :class:`StageSpec` declares a named, capability-described
pipeline component — what kind of data it consumes and produces, and a
factory building a fresh stage instance.  :class:`repro.Pipeline`
resolves stage names here and validates that consecutive stages chain
(``produces`` of one feeds ``consumes`` of the next), so an impossible
graph fails loudly at build time, not mid-run.

The registry is open: register a :class:`StageSpec` under a new name
and it is immediately reachable from ``repro.pipeline(stages=[...,
"<name>", ...])`` and every scenario preset that names it.  Unknown
names raise :class:`~repro.core.registry.UnknownNameError` listing the
registered menu.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.registry import Registry

__all__ = [
    "DATA_KINDS",
    "StageSpec",
    "register_stage",
    "unregister_stage",
    "get_stage",
    "build_stage",
    "stage_names",
    "stage_specs",
]

#: the data kinds flowing between stages.  "none" is the empty input a
#: source stage accepts; "llrs" is the soft-decision bit-likelihood
#: matrix the coded receive chain carries between the demapper and the
#: decoder; "any"/"same" are the wildcard consume/produce declarations
#: of pass-through stages (metrics, taps, ...).
DATA_KINDS = ("none", "bits", "symbols", "signal", "spectrum", "llrs")


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage's capability declaration.

    Parameters
    ----------
    name:
        Registry key (used in stage chains and scenario presets).
    factory:
        ``factory(**params)`` returning a fresh stage instance — an
        object with ``run(ctx, data) -> data`` (see DESIGN.md,
        "Composable pipeline API", for the full stage contract).
    consumes:
        Data kind the stage expects: one of :data:`DATA_KINDS` or
        ``"any"``.
    produces:
        Data kind the stage emits: one of :data:`DATA_KINDS` or
        ``"same"`` (pass-through).
    description:
        One-line human description (shown by the CLI).
    """

    name: str
    factory: object
    consumes: str = "any"
    produces: str = "same"
    description: str = ""


def _check_stage(name: str, spec) -> None:
    if not isinstance(spec, StageSpec):
        raise TypeError(f"expected a StageSpec, got {type(spec).__name__}")
    for attr in ("consumes", "produces"):
        kind = getattr(spec, attr)
        valid = DATA_KINDS + (("any",) if attr == "consumes" else ("same",))
        if kind not in valid:
            raise ValueError(
                f"stage {name!r} declares unknown {attr} kind "
                f"{kind!r}; valid kinds are {list(valid)}"
            )


def _load_stages() -> None:
    # The built-in stages register on import: the OFDM chain from
    # .stages and the coded chain from repro.coding.stages.
    from . import stages  # noqa: F401
    from ..coding import stages as coding_stages  # noqa: F401


_STAGES = Registry("stage", _check_stage, _load_stages)


def register_stage(spec: StageSpec, replace: bool = False) -> None:
    """Register ``spec`` under ``spec.name`` (loud on duplicates)."""
    _STAGES.register(spec, replace=replace)


unregister_stage = _STAGES.unregister
get_stage = _STAGES.get
stage_names = _STAGES.names
stage_specs = _STAGES.specs


def build_stage(name: str, **params):
    """Build a fresh stage instance from its registered spec.

    The instance inherits the spec's ``name`` / ``consumes`` /
    ``produces`` declarations unless it sets its own.
    """
    spec = get_stage(name)
    stage = spec.factory(**params)
    for attr, value in (("name", spec.name), ("consumes", spec.consumes),
                        ("produces", spec.produces)):
        if getattr(stage, attr, None) is None:
            setattr(stage, attr, value)
    return stage
