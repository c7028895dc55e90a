"""Name registries: the one :class:`Registry` type, and engine backends.

Every open registry in the package is a :class:`Registry` instance
behind thin module-level bindings: facade backends (here), pipeline
stages (:mod:`repro.pipelines.registry`), scenarios
(:mod:`repro.scenarios`), codes, interleavers and demappers
(:mod:`repro.coding`), trace exporters (:mod:`repro.telemetry.export`)
and uarch configs (:mod:`repro.uarch.model`).  They share one contract:
a per-registry validation hook on ``register``, loud duplicates unless
``replace=True``, name-sorted ``names()`` / ``specs()``, and
:class:`UnknownNameError` carrying the sorted menu on a failed ``get``.

The facade (:func:`repro.engine`) resolves backend names through the
backend registry.  Each backend registers a :class:`BackendSpec`
declaring

* a **factory** building the backend implementation for a plan size;
* the **precisions** it supports (``"float"``, ``"q15"``);
* whether it accepts thread-pool **workers**;
* which uniform-result fields it actually **emits** (per-symbol cycles,
  :class:`~repro.sim.stats.SimStats`) — array-level engines compute the
  same spectra as the instruction-level ones but have no simulated
  machine behind them, so those fields stay empty/None.

Anything satisfying the backend contract documented in DESIGN.md
("Unified engine facade") can be registered under a new name and
immediately becomes reachable from ``repro.engine(n, backend="<name>")``,
the CLI ``--backend`` flag and the parity test suite.  The five built-in
backends are registered by :mod:`repro.engines`, loaded on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Registry",
    "BackendSpec",
    "UnknownNameError",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "backend_names",
    "backend_specs",
]


class UnknownNameError(KeyError, ValueError):
    """An unknown registry name; the message lists what *is* registered.

    :meth:`Registry.get` raises this on a failed lookup.  It subclasses
    both ``KeyError`` (it is a failed name lookup) and ``ValueError``
    (what historical callers catch), so existing ``except ValueError``
    handlers keep working.
    """

    def __str__(self) -> str:
        # KeyError.__str__ shows repr(args[0]); we carry a sentence.
        return self.args[0] if self.args else ""


class Registry:
    """A name -> entry table with the package's registry contract.

    Parameters
    ----------
    noun:
        What one entry is called in messages (``"backend"``, ``"uarch
        config"``); the unknown-name menu lists the ``noun + "s"``.
    validate:
        ``validate(name, entry)``, run before every registration; raises
        ``TypeError`` / ``ValueError`` on a malformed entry.
    loader:
        Zero-argument callable importing the modules that register the
        built-in entries.  It runs before the first read (``get`` /
        ``names`` / ``specs``), even when something was registered
        earlier, and must tolerate a concurrent second call (an import
        does).
    """

    def __init__(self, noun: str, validate=None, loader=None):
        self.noun = noun
        self._validate = validate
        self._loader = loader
        self._entries = {}

    def register(self, entry, name: str = None, replace: bool = False) -> None:
        """Register ``entry`` under ``name`` (default: ``entry.name``).

        Re-registering an existing name raises unless ``replace=True`` —
        accidental shadowing of a built-in should be loud.
        """
        if name is None:
            name = getattr(entry, "name", None)
        if self._validate is not None:
            self._validate(name, entry)
        if not replace and name in self._entries:
            raise ValueError(f"{self.noun} {name!r} is already registered")
        self._entries[name] = entry

    def unregister(self, name: str) -> None:
        """Remove ``name`` if present (tests registering throwaways)."""
        self._entries.pop(name, None)

    def _load(self) -> None:
        # Cleared only once the loader has returned: a racing first read
        # re-runs the import and waits on the import lock instead of
        # reading a half-filled table.
        loader = self._loader
        if loader is not None:
            loader()
            self._loader = None

    def get(self, name: str):
        """The entry under ``name``; raises :class:`UnknownNameError`
        listing the sorted menu."""
        self._load()
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(
                f"unknown {self.noun} {name!r}; registered {self.noun}s: "
                f"{', '.join(self.names())}"
            ) from None

    def names(self) -> list:
        """Sorted names of every registered entry."""
        self._load()
        return sorted(self._entries)

    def specs(self) -> dict:
        """Name-sorted snapshot (name -> entry), so listings, menus and
        their tests are deterministic regardless of registration order."""
        self._load()
        return {name: self._entries[name] for name in sorted(self._entries)}


#: canonical precision names understood by the facade
PRECISIONS = ("float", "q15")


@dataclass(frozen=True)
class BackendSpec:
    """One backend's capability declaration.

    Parameters
    ----------
    name:
        Registry key (``repro.engine(..., backend=name)``).
    factory:
        ``factory(n_points, fixed_point, workers, batch, **options)``
        returning a backend implementation object (see DESIGN.md for the
        required interface: ``transform_many(blocks) -> (spectra,
        cycles)``, ``close()``, and the ``fx`` / ``sim_stats`` /
        ``machine`` attributes).
    description:
        One-line human description (shown by the CLI and benches).
    precisions:
        Subset of :data:`PRECISIONS` the backend supports.
    supports_workers:
        Whether the factory accepts ``workers >= 2`` (thread-pool
        sharding).
    emits_cycles:
        Whether results carry real per-symbol simulated cycle counts.
    emits_sim_stats:
        Whether results carry a :class:`SimStats` delta.
    """

    name: str
    factory: object
    description: str = ""
    precisions: tuple = field(default=PRECISIONS)
    supports_workers: bool = False
    emits_cycles: bool = False
    emits_sim_stats: bool = False

    def supports_precision(self, precision: str) -> bool:
        """Whether ``precision`` (canonical name) is supported."""
        return precision in self.precisions


def _check_backend(name: str, spec) -> None:
    if not isinstance(spec, BackendSpec):
        raise TypeError(f"expected a BackendSpec, got {type(spec).__name__}")
    unknown = [p for p in spec.precisions if p not in PRECISIONS]
    if unknown:
        raise ValueError(
            f"backend {name!r} declares unknown precisions {unknown}; "
            f"valid names are {list(PRECISIONS)}"
        )


def _load_backends() -> None:
    # Imported lazily so ``repro.core`` never depends on ``repro.asip``
    # at import time; the first registry read pulls the defaults in.
    import repro.engines  # noqa: F401  (registers on import)


_BACKENDS = Registry("backend", _check_backend, _load_backends)


def register_backend(spec: BackendSpec, replace: bool = False) -> None:
    """Register ``spec`` under ``spec.name`` (loud on duplicates)."""
    _BACKENDS.register(spec, replace=replace)


unregister_backend = _BACKENDS.unregister
get_backend = _BACKENDS.get
backend_names = _BACKENDS.names
backend_specs = _BACKENDS.specs
