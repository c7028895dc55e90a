"""Deterministic registries: sorted menus and stable error messages.

Every registry in the repo (facade backends, pipeline stages, scenario
presets, codes, interleavers, demappers, trace exporters, uarch configs)
must present its contents in name order regardless of registration order
— so ``*_specs()`` snapshots iterate deterministically and
``UnknownNameError`` menus are byte-stable across runs and
re-registrations.  All eight are :class:`~repro.core.registry.Registry`
instances, so one throwaway-entry round trip pins the shared contract
(loud duplicates, ``replace=True``, ``unregister``, type validation) on
each, and the loader contract is pinned on a bare ``Registry``.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.coding.convolutional import (
    ConvolutionalCode,
    code_names,
    code_specs,
    get_code,
    register_code,
    unregister_code,
)
from repro.coding.demap import (
    demapper_names,
    demapper_specs,
    get_demapper,
    register_demapper,
    unregister_demapper,
)
from repro.coding.interleave import (
    IdentityInterleaver,
    get_interleaver,
    interleaver_names,
    interleaver_specs,
    register_interleaver,
    unregister_interleaver,
)
from repro.core.registry import (
    BackendSpec,
    Registry,
    UnknownNameError,
    backend_names,
    backend_specs,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.pipelines.registry import (
    StageSpec,
    get_stage,
    register_stage,
    stage_names,
    stage_specs,
    unregister_stage,
)
from repro.scenarios import (
    ScenarioSpec,
    get_scenario,
    register_scenario,
    scenario_names,
    scenario_specs,
    unregister_scenario,
)
from repro.telemetry import (
    ExporterSpec,
    exporter_names,
    exporter_specs,
    get_exporter,
    register_exporter,
    unregister_exporter,
)
from repro.uarch import (
    UarchSpec,
    get_uarch,
    register_uarch,
    uarch_names,
    uarch_specs,
    unregister_uarch,
)

#: a throwaway entry name sorting between the built-ins
THROWAWAY = "mm-throwaway"

# label, names, specs, lookup, register, unregister, and the positional
# register() arguments of a well-formed throwaway entry (the entry last).
REGISTRIES = [
    ("backend", backend_names, backend_specs, get_backend,
     register_backend, unregister_backend,
     (BackendSpec(THROWAWAY, factory=None),)),
    ("stage", stage_names, stage_specs, get_stage,
     register_stage, unregister_stage,
     (StageSpec(THROWAWAY, factory=None),)),
    ("scenario", scenario_names, scenario_specs, get_scenario,
     register_scenario, unregister_scenario,
     (ScenarioSpec(THROWAWAY, description="", n_points=16),)),
    ("code", code_names, code_specs, get_code,
     register_code, unregister_code,
     (ConvolutionalCode(THROWAWAY, (0o5, 0o7)),)),
    ("interleaver", interleaver_names, interleaver_specs, get_interleaver,
     register_interleaver, unregister_interleaver,
     (THROWAWAY, IdentityInterleaver)),
    ("demapper", demapper_names, demapper_specs, get_demapper,
     register_demapper, unregister_demapper,
     (THROWAWAY, get_demapper("qpsk"))),
    ("exporter", exporter_names, exporter_specs, get_exporter,
     register_exporter, unregister_exporter,
     (ExporterSpec(THROWAWAY, factory=None),)),
    ("uarch", uarch_names, uarch_specs, get_uarch,
     register_uarch, unregister_uarch,
     (UarchSpec(THROWAWAY),)),
]

IDS = [row[0] for row in REGISTRIES]


LOOKUPS = [row[:4] for row in REGISTRIES]


@pytest.mark.parametrize("label,names,specs,lookup", LOOKUPS, ids=IDS)
def test_specs_iterate_in_name_order(label, names, specs, lookup):
    snapshot = specs()
    assert list(snapshot) == sorted(snapshot)
    assert list(snapshot) == list(names())


@pytest.mark.parametrize("label,names,specs,lookup", LOOKUPS, ids=IDS)
def test_unknown_name_menu_is_sorted(label, names, specs, lookup):
    with pytest.raises(UnknownNameError) as excinfo:
        lookup("definitely-not-registered")
    message = str(excinfo.value)
    assert "definitely-not-registered" in message
    # The menu embedded in the message is the full sorted name list.
    assert ", ".join(names()) in message
    assert names() == sorted(names())


def test_specs_order_survives_unsorted_registration():
    from repro.coding.demap import (
        register_demapper,
        unregister_demapper,
    )

    clean = get_demapper("qpsk")
    try:
        register_demapper("zz-last", clean, replace=True)
        register_demapper("aa-first", clean, replace=True)
        snapshot = list(demapper_specs())
        assert snapshot == sorted(snapshot)
        assert snapshot[0] == "16qam" and "zz-last" in snapshot
    finally:
        unregister_demapper("zz-last")
        unregister_demapper("aa-first")


@pytest.mark.parametrize(
    "label,names,specs,lookup,register,unregister,args", REGISTRIES, ids=IDS
)
def test_throwaway_entry_round_trip(label, names, specs, lookup, register,
                                    unregister, args):
    entry = args[-1]
    try:
        register(*args)
        assert THROWAWAY in names() and names() == sorted(names())
        assert lookup(THROWAWAY) is entry
        with pytest.raises(ValueError, match="already registered"):
            register(*args)
        register(*args, replace=True)
        assert lookup(THROWAWAY) is entry
    finally:
        unregister(THROWAWAY)
    assert THROWAWAY not in names()
    with pytest.raises(UnknownNameError):
        lookup(THROWAWAY)
    with pytest.raises(TypeError):
        register(*args[:-1], object())
    assert THROWAWAY not in names()


def test_loader_runs_once_before_first_read_even_after_a_register():
    calls = []

    def load():
        calls.append(len(calls))
        registry.register("built-in", name="b")

    registry = Registry("widget", loader=load)
    registry.register("early", name="a")
    assert calls == []  # registering is not a read
    assert registry.names() == ["a", "b"]
    assert registry.get("b") == "built-in"
    assert registry.specs() == {"a": "early", "b": "built-in"}
    with pytest.raises(UnknownNameError, match="registered widgets: a, b"):
        registry.get("c")
    assert calls == [0]


def test_fresh_interpreter_lists_every_builtin_stage():
    # In-process tests have usually triggered the stage loader already,
    # so only a fresh interpreter shows what `import repro` alone lists.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    listed = subprocess.run(
        [sys.executable, "-c",
         "import repro; print(' '.join(repro.stage_names()))"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert listed == stage_names()
    assert {"encode", "interleave", "soft-demodulate", "deinterleave",
            "decode", "coded-metrics"} <= set(listed)
