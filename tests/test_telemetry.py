"""Telemetry subsystem: spans, metrics, exporters, the measured run.

The acceptance spine of :mod:`repro.telemetry`:

* the shared nearest-rank ``percentile`` (now the single
  implementation behind the serve tier's latency quantiles) holds its
  edge cases;
* spans nest per thread, carry attributes/events, and propagate across
  thread boundaries via ``current_span``/``attach`` — including the
  real serve path, where a request span opened in
  ``SessionServer.submit`` must parent the chunk/engine spans executed
  on the session's watchdog thread;
* the disabled path allocates nothing: ``span()`` hands back one
  cached no-op context manager, and with no tracer installed the
  engine facade reaches its datapath after three Python calls, no C
  call (so no clock read) and no allocation;
* exported Chrome trace-event files validate (sorted ``ts``,
  non-negative ``dur``, complete ``X`` events) and the simulator's
  instruction timeline merges into the same file;
* a traced scenario sweep, and the ``trace`` / ``run --trace`` CLI on
  top of it, record the measured run only: the warm-up stays out.
"""

import json
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.core import CircuitBreaker
from repro.telemetry import (
    ConsoleExporter,
    NULL_SPAN,
    Tracer,
    get_exporter,
    percentile,
    validate_trace_events,
)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50.0) == 0.0
        assert percentile([], 0.0) == 0.0
        assert percentile([], 100.0) == 0.0

    def test_single_sample_any_q(self):
        for q in (0.0, 1.0, 50.0, 99.0, 100.0):
            assert percentile([7.5], q) == 7.5

    def test_q0_is_min_q100_is_max(self):
        data = [5.0, 1.0, 9.0, 3.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 100.0) == 9.0

    def test_nearest_rank_ties(self):
        # The pinned rule (moved verbatim from the serve tier):
        # rank(q) = round(q/100 * n + 0.5) clamped to [1, n], with
        # Python's banker's rounding breaking the .5 ties — so on
        # [10, 20, 30, 40] both q=25 and q=50 land on the 2nd sample
        # (1.5 and 2.5 both round to 2) while q=75 rounds up to the
        # 4th (3.5 -> 4).
        data = [40.0, 10.0, 30.0, 20.0]
        assert percentile(data, 25.0) == 20.0
        assert percentile(data, 50.0) == 20.0
        assert percentile(data, 75.0) == 40.0
        assert percentile(data, 99.0) == 40.0

    def test_input_order_is_irrelevant(self):
        data = list(range(1, 101))
        shuffled = data[::2] + data[1::2]
        for q in (1.0, 50.0, 90.0, 99.0):
            assert percentile(data, q) == percentile(shuffled, q)


class TestSpans:
    def test_disabled_by_default_and_cached_noop(self):
        assert not telemetry.enabled()
        ctx_a = telemetry.span("anything", key="value")
        ctx_b = telemetry.span("other")
        assert ctx_a is ctx_b  # one cached context, zero allocation
        with ctx_a as span:
            assert span is NULL_SPAN
            assert not span.is_recording
            span.set("ignored", 1)
            span.add_event("ignored")
        assert telemetry.current_span() is None
        telemetry.event("dropped")  # no-op, no error

    def test_nesting_attributes_and_parentage(self):
        with telemetry.trace("unit") as tracer:
            with telemetry.span("outer", layer="top") as outer:
                assert telemetry.current_span() is outer
                with telemetry.span("inner") as inner:
                    inner.set("k", 2)
                    telemetry.event("tick", n=1)
            assert telemetry.current_span() is None
        assert not telemetry.enabled()
        spans = {record.name: record for record in tracer.finished()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert spans["outer"].attributes["layer"] == "top"
        assert spans["inner"].attributes["k"] == 2
        assert spans["inner"].events[0][0] == "tick"
        assert spans["inner"].duration <= spans["outer"].duration

    def test_exception_sets_error_attribute(self):
        with telemetry.trace() as tracer:
            with pytest.raises(RuntimeError):
                with telemetry.span("doomed"):
                    raise RuntimeError("boom")
        (record,) = tracer.finished()
        assert record.attributes["error"] == "RuntimeError"
        assert record.end is not None

    def test_install_stacking_restores_previous(self):
        outer, inner = Tracer("outer"), Tracer("inner")
        telemetry.install(outer)
        try:
            telemetry.install(inner)
            assert telemetry.active_tracer() is inner
            telemetry.uninstall(inner)
            assert telemetry.active_tracer() is outer
        finally:
            telemetry.uninstall(outer)
        assert not telemetry.enabled()

    def test_attach_reparents_worker_thread_spans(self):
        with telemetry.trace() as tracer:
            with telemetry.span("request") as request:
                parent = telemetry.current_span()

                def worker():
                    with telemetry.attach(parent):
                        with telemetry.span("chunk"):
                            pass

                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        spans = {record.name: record for record in tracer.finished()}
        assert spans["chunk"].parent_id == spans["request"].span_id
        assert spans["chunk"].thread_id != spans["request"].thread_id

    def test_tracer_event_outside_spans_is_orphan(self):
        with telemetry.trace() as tracer:
            telemetry.event("lonely", reason="no span open")
        (orphan,) = tracer.orphan_events()
        assert orphan[0] == "lonely"
        assert orphan[2]["reason"] == "no span open"


class TestDisabledEnginePath:
    """With no tracer installed, ``Engine._run_many`` costs a fixed,
    clock-free, allocation-free prologue before the datapath.

    These are counts, not timings, so they hold on any host; the full
    engine-speed bench keeps the wall-clock ceiling (<= 1.02x).
    """

    @pytest.fixture
    def warm(self):
        rng = np.random.default_rng(17)
        blocks = rng.standard_normal((64, 512)) + 1j * rng.standard_normal(
            (64, 512)
        )
        with repro.engine(512, backend="compiled") as eng:
            batch = eng._as_batch(blocks)
            eng.transform_many(blocks)  # compile the plan
            assert not telemetry.enabled()
            yield eng, batch

    def test_three_python_calls_and_no_c_call(self, warm):
        eng, batch = warm
        inner = type(eng)._run_many_inner.__code__

        def calls_before_inner():
            calls = []

            def probe(frame, event, arg):
                if event == "call" and frame.f_code is inner:
                    sys.setprofile(None)
                elif event == "call":
                    calls.append(frame.f_code.co_name)
                elif event == "c_call":
                    calls.append(f"C:{arg.__name__}")

            sys.setprofile(probe)
            try:
                eng._run_many(batch)
            finally:
                sys.setprofile(None)
            return calls

        for _ in range(3):
            # A clock read or any other builtin call shows up as "C:...".
            assert calls_before_inner() == [
                "_run_many", "_ensure_open", "fixed_point", "enabled",
            ]

    def test_no_allocation_before_the_datapath(self, warm):
        eng, batch = warm
        result = eng._run_many_inner(batch)
        seen = [None]

        def inner(blocks):
            # Traced (current, peak) bytes since clear_traces(); the
            # reading is taken before its own tuple is allocated.
            seen[0] = tracemalloc.get_traced_memory()
            return result

        eng._run_many_inner = inner  # shadows the method on this engine
        # tracemalloc counts every thread; a long switch interval keeps
        # other threads off the GIL inside the measured microseconds.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        tracemalloc.start()
        try:
            for call in (inner, eng._run_many, eng._run_many):
                tracemalloc.clear_traces()
                assert call(batch) is result
                assert seen[0] == (0, 0), call
        finally:
            tracemalloc.stop()
            sys.setswitchinterval(interval)


class TestLayerInstrumentation:
    def test_engine_transform_spans(self):
        blocks = np.ones((3, 16), dtype=complex)
        with telemetry.trace() as tracer:
            with repro.engine(16, backend="compiled") as eng:
                eng.transform_many(blocks)
        rows = [r for r in tracer.finished() if r.name == "engine.transform"]
        assert rows and rows[0].attributes["symbols"] == 3
        assert rows[0].attributes["backend"] == "compiled"

    def test_pipeline_stage_spans_and_stage_seconds_compat(self):
        untraced = repro.run_scenario("uwb-ofdm", symbols=2, n_points=32)
        with telemetry.trace() as tracer:
            traced = repro.run_scenario("uwb-ofdm", symbols=2, n_points=32)
        # The compat view keeps its schema: same stages, positive times.
        assert set(traced.metrics["stage_seconds"]) == \
            set(untraced.metrics["stage_seconds"])
        assert all(v >= 0 for v in traced.metrics["stage_seconds"].values())
        names = {record.name for record in tracer.finished()}
        assert "pipeline.run" in names
        stage_keys = {record.attributes["stage"]
                      for record in tracer.finished()
                      if record.name.startswith("stage.")}
        assert stage_keys == set(traced.metrics["stage_seconds"])
        # Engine transforms nest under their stage span.
        by_id = {r.span_id: r for r in tracer.finished()}
        engine_rows = [r for r in tracer.finished()
                       if r.name == "engine.transform"]
        assert engine_rows
        assert all(by_id[r.parent_id].name.startswith("stage.")
                   for r in engine_rows)

    def test_sharded_shard_spans_nest_under_dispatch(self):
        from repro.core import ShardedEngine

        # Shards of ~10 ms: long enough that the second pool thread has
        # picked up its shard before the first one finishes.
        rng = np.random.default_rng(40)
        blocks = rng.standard_normal((256, 1024)) + 0j
        with ShardedEngine(1024, workers=2) as sharded:
            with telemetry.trace() as tracer:
                sharded.transform_many(blocks)
        (dispatch,) = [r for r in tracer.finished()
                       if r.name == "sharded.dispatch"]
        shards = [r for r in tracer.finished() if r.name == "sharded.shard"]
        assert len(shards) == 2
        assert {r.parent_id for r in shards} == {dispatch.span_id}
        assert len({r.thread_id for r in shards}) == 2
        assert [r.attributes for r in shards] == \
            [{"symbols": 128}] * 2
        payload = get_exporter("chrome-trace").factory().render(tracer)
        validate_trace_events(payload)

    def test_scenario_sweep_traces_the_measured_run_only(self):
        from repro.analysis import scenario_sweep

        with telemetry.trace("caller") as tracer:
            (row,) = scenario_sweep(names=["spectral"], n_points=64,
                                    symbols=2)
            assert telemetry.active_tracer() is tracer
        spans = tracer.finished()
        (run,) = [r for r in spans if r.name == "pipeline.run"]
        assert run.attributes["symbols"] == 2
        stages = [r for r in spans if r.name.startswith("stage.")]
        assert {r.parent_id for r in stages} == {run.span_id}
        assert {r.attributes["stage"]: r.duration for r in stages} == \
            row["stage_seconds"]

    def test_viterbi_subphase_spans(self):
        with telemetry.trace() as tracer:
            repro.run_scenario("uwb-ofdm-coded", symbols=2, n_points=64)
        names = {record.name for record in tracer.finished()}
        assert {"viterbi.branch-metrics", "viterbi.acs",
                "viterbi.traceback"} <= names

    def test_breaker_state_changes_emit_events(self):
        clock = [0.0]
        breaker = CircuitBreaker(backoff_initial=1.0,
                                 clock=lambda: clock[0])
        with telemetry.trace() as tracer:
            assert breaker.record_failure("injected") is True
            assert not breaker.allow_attempt()
            clock[0] = 2.0
            assert breaker.allow_attempt()  # half-open probe
            breaker.record_success()
        names = [orphan[0] for orphan in tracer.orphan_events()]
        assert names == ["breaker.open", "breaker.half-open",
                         "breaker.closed"]
        opened = tracer.orphan_events()[0]
        assert opened[2]["fresh"] is True
        assert opened[2]["reason"] == "injected"


class TestServeTracePropagation:
    def test_submit_span_parents_watchdog_chunk_spans(self, tmp_path):
        """A request span crosses into the execution watchdog thread.

        With ``exec_timeout`` set, the engine call runs on a watchdog
        thread; the span opened in ``SessionServer.submit`` must still
        parent the chunk/pool/engine spans recorded over there, and the
        exported trace-event file must validate.
        """
        rng = np.random.default_rng(3)
        blocks = rng.standard_normal((4, 16)) + 1j * rng.standard_normal(
            (4, 16)
        )
        with telemetry.trace("serve-unit") as tracer:
            with repro.SessionServer(batch=2, exec_timeout=5.0) as server:
                server.open_session("alice", 16)
                server.submit("alice", blocks, deadline=5.0)
                list(server.results("alice"))
        spans = tracer.finished()
        by_id = {record.span_id: record for record in spans}
        requests = [r for r in spans if r.name == "serve.request"]
        assert len(requests) == 1
        assert requests[0].attributes["tenant"] == "alice"
        assert requests[0].attributes["symbols"] == 4
        assert requests[0].attributes["deadline"] == 5.0

        def root_of(record):
            while record.parent_id is not None:
                record = by_id[record.parent_id]
            return record

        engine_rows = [r for r in spans if r.name == "engine.transform"]
        assert engine_rows
        # The watchdog executes on its own thread, yet every engine
        # span still chains up to the submitting request span.
        assert any(r.thread_id != requests[0].thread_id
                   for r in engine_rows)
        assert all(root_of(r) is requests[0] for r in engine_rows)
        chunk_rows = [r for r in spans if r.name == "session.chunk"]
        assert chunk_rows
        assert all(root_of(r) is requests[0] for r in chunk_rows)

        out = tmp_path / "serve_trace.json"
        get_exporter("chrome-trace").factory().export(tracer, out)
        count = validate_trace_events(out.read_text())
        assert count >= len(spans)


class TestExporters:
    def _tracer(self):
        with telemetry.trace() as tracer:
            with telemetry.span("outer", n=8):
                with telemetry.span("inner"):
                    telemetry.event("mark", hit=True)
        return tracer

    def test_chrome_trace_renders_and_validates(self):
        tracer = self._tracer()
        exporter = get_exporter("chrome-trace").factory()
        payload = json.loads(exporter.render(tracer))
        count = validate_trace_events(payload)
        assert count == len(payload["traceEvents"])
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        inner = next(e for e in complete if e["name"] == "inner")
        assert inner["args"]["parent_id"] == next(
            e for e in complete if e["name"] == "outer"
        )["args"]["span_id"]
        metas = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert metas and metas[0]["name"] == "thread_name"

    def test_extra_events_merge_ts_sorted(self):
        tracer = self._tracer()
        exporter = get_exporter("chrome-trace").factory()
        extra = [{"name": "instr", "cat": "sim", "ph": "X", "ts": 0.5,
                  "dur": 1.0, "pid": 1, "tid": "asip", "args": {}}]
        events = exporter.events(tracer, extra_events=extra)
        body = [e for e in events if e["ph"] != "M"]
        timestamps = [e["ts"] for e in body]
        assert timestamps == sorted(timestamps)
        assert any(e["name"] == "instr" for e in body)

    def test_jsonl_one_object_per_span(self):
        tracer = self._tracer()
        text = get_exporter("jsonl").factory().render(tracer)
        rows = [json.loads(line) for line in text.splitlines()]
        assert [row["name"] for row in rows] == ["outer", "inner"]
        assert rows[1]["parent_id"] == rows[0]["span_id"]
        assert rows[1]["events"][0]["name"] == "mark"

    def test_console_tree_aggregates(self):
        tracer = self._tracer()
        text = ConsoleExporter().render(tracer)
        assert "outer" in text and "inner" in text
        # Nested name indented under its parent.
        outer_line = next(l for l in text.splitlines() if "outer" in l)
        inner_line = next(l for l in text.splitlines() if "inner" in l)
        assert len(inner_line) - len(inner_line.lstrip()) > \
            len(outer_line) - len(outer_line.lstrip())

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_trace_events([{"name": "x", "ph": "X", "pid": 1,
                                    "tid": 1, "ts": 0.0, "dur": -1.0}])
        with pytest.raises(ValueError):
            validate_trace_events([
                {"name": "a", "ph": "i", "pid": 1, "tid": 1, "ts": 2.0},
                {"name": "b", "ph": "i", "pid": 1, "tid": 1, "ts": 1.0},
            ])
        with pytest.raises(ValueError):
            validate_trace_events([{"name": "open", "ph": "B", "pid": 1,
                                    "tid": 1, "ts": 0.0}])

    def test_sim_instruction_timeline_merges(self):
        from repro.asip import generate_fft_program
        from repro.asip.fft_asip import FFTASIP
        from repro.sim.trace import ExecutionTrace

        machine = FFTASIP(16)
        trace = ExecutionTrace(capacity=4096)
        machine.step = trace.wrap(machine)
        machine.load_input(np.ones(16, dtype=complex))
        machine.run_interpreted(generate_fft_program(16))
        events = trace.trace_events(tid="asip-16")
        assert events
        assert all(e["ph"] == "X" and e["dur"] >= 1.0 for e in events)
        validate_trace_events(events)
        # Merges into a traced run's export on its own lane.
        tracer = self._tracer()
        exporter = get_exporter("chrome-trace").factory()
        merged = exporter.events(tracer, extra_events=events)
        assert validate_trace_events(merged) >= len(events)


class TestCli:
    def test_run_trace_flag_writes_valid_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run_trace.json"
        assert main(["run", "uwb-ofdm", "--symbols", "2", "--size", "32",
                     "--trace", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert f"trace -> {out}" in stdout
        payload = json.loads(out.read_text())
        validate_trace_events(payload)
        names = {e["name"] for e in payload["traceEvents"]
                 if e["ph"] == "X"}
        assert {"pipeline.run", "engine.transform"} <= names
        assert not telemetry.enabled()  # CLI uninstalled its tracer

    def test_trace_command_with_instructions(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        assert main(["trace", "uwb-ofdm", "--symbols", "2", "--size", "32",
                     "--out", str(out), "--instructions", "16"]) == 0
        stdout = capsys.readouterr().out
        assert "span tree" in stdout
        payload = json.loads(out.read_text())
        validate_trace_events(payload)
        lanes = {e["tid"] for e in payload["traceEvents"]}
        assert "asip-16" in lanes  # the simulator's instruction lane

    @staticmethod
    def _pipeline_runs(path) -> list:
        events = json.loads(path.read_text())["traceEvents"]
        return [e["args"] for e in events if e["name"] == "pipeline.run"]

    def test_trace_exports_the_measured_run_only(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.json"
        assert main(["trace", "spectral", "--size", "64", "--symbols", "2",
                     "--out", str(out)]) == 0
        (run,) = self._pipeline_runs(out)
        assert run["symbols"] == 2
        tree = capsys.readouterr().out
        assert re.search(r"^pipeline\.run +1 ", tree, re.MULTILINE)

    def test_run_all_trace_holds_one_run_per_scenario(self, tmp_path):
        from repro.cli import main
        from repro.scenarios import scenario_names

        out = tmp_path / "p.json"
        assert main(["run", "--all", "--size", "64", "--symbols", "2",
                     "--trace", str(out)]) == 0
        runs = self._pipeline_runs(out)
        assert sorted(run["pipeline"] for run in runs) == \
            sorted(scenario_names())
        assert {run["symbols"] for run in runs} == {2}

    def test_trace_unknown_exporter_exits_with_menu(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["trace", "uwb-ofdm", "--symbols", "2", "--size", "32",
                  "--out", str(tmp_path / "t.json"),
                  "--exporter", "bogus"])
