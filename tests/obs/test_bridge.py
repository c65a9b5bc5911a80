"""TraceLog → span replay, and the engine's automatic bridging."""

import threading

import hypothesis.strategies as st
from hypothesis import given, settings

import repro.runtime.engine as engine_module
from repro.experiments.workloads import submit_tiled_dgemm
from repro.obs import (
    SIM_CLOCK,
    WALL_CLOCK,
    Tracer,
    bridge,
    chrome_trace,
    record_trace_log,
    render_tree,
    trace_payload,
    use_tracer,
)
from repro.pdl import load_platform
from repro.session import Session
from repro.runtime.engine import RuntimeEngine
from repro.runtime.trace import FaultTrace, TaskTrace, TraceLog, TransferTrace

TRACE_ID = "feedfacefeedface"


def _small_run(platform_name="xeon_x5550_dual"):
    engine = RuntimeEngine(load_platform(platform_name), scheduler="eager")
    a = engine.register(shape=(256, 256), name="A")
    engine.submit("dgemm", [(a, "rw")], dims=(256, 256, 256), tag="t0")
    return engine, engine.run()


def eager_replay(tracer, trace, *, parent=None, mode="sim", wall_offset=0.0):
    """The oracle: the per-record replay ``record_trace_log`` ran before it
    deferred, one ``record_span`` call per record.  Under a tracer with a
    fixed ``trace_id`` its spans must equal the deferred replay's."""
    sim = mode != "real"
    clock = SIM_CLOCK if sim else WALL_CLOCK
    offset = 0.0 if sim else wall_offset
    recorded = 0
    for tt in trace.tasks:
        tracer.record_span(
            f"task:{tt.kernel}",
            offset + tt.start,
            offset + tt.end,
            parent=parent,
            clock=clock,
            track=tt.worker_id,
            tag=tt.tag,
            task_id=tt.task_id,
            kernel=tt.kernel,
            worker=tt.worker_id,
            architecture=tt.architecture,
            transfer_wait_s=tt.transfer_wait,
        )
        recorded += 1
    for tr in trace.transfers:
        tracer.record_span(
            f"transfer:{tr.handle_name}",
            offset + tr.start,
            offset + tr.end,
            parent=parent,
            clock=clock,
            track=f"xfer:{tr.src_node}->{tr.dst_node}",
            handle=tr.handle_name,
            nbytes=tr.nbytes,
            src_node=tr.src_node,
            dst_node=tr.dst_node,
        )
        recorded += 1
    for fault in trace.faults:
        tracer.record_span(
            f"fault:{fault.kind}",
            offset + fault.time,
            offset + fault.time,
            parent=parent,
            clock=clock,
            track=fault.worker_id or "faults",
            status="error" if fault.kind in ("task-fault", "worker-fault") else "ok",
            kind=fault.kind,
            task_tag=fault.task_tag,
            worker=fault.worker_id,
            detail=fault.detail,
        )
        recorded += 1
    return recorded


def _frozen_tracer():
    """A fixed-trace-id tracer whose wall clock reads 0, so two tracers
    fed the same calls produce equal payloads."""
    tracer = Tracer(trace_id=TRACE_ID)
    tracer.now = lambda: 0.0
    return tracer


def _payloads(tracer):
    return [s.to_payload() for s in tracer.finished()]


def _fault_log():
    log = TraceLog()
    log.record_task(TaskTrace(1, "t0", "dgemm", "gpu0#0", "gpu", 0.0, 1.0, 0.1))
    log.record_task(TaskTrace(2, "t1", "dgemm", "", "x86_64", 0.5, 1.5, 0.0))
    log.record_transfer(TransferTrace("A", 1024, 0, 1, 0.0, 0.2))
    log.record_fault(FaultTrace("task-fault", 1.0, "t0", "gpu0#0", "boom"))
    log.record_fault(FaultTrace("retry", 1.1, "t0", "gpu0#0"))
    log.record_fault(FaultTrace("requeue", 1.2, "t0", ""))
    return log


def _replay_both(log, **kwargs):
    """(deferred, oracle) tracers after replaying ``log`` into each."""
    deferred, oracle = _frozen_tracer(), _frozen_tracer()
    assert record_trace_log(deferred, log, **kwargs) == eager_replay(
        oracle, log, **kwargs
    )
    return deferred, oracle


class TestRecordTraceLog:
    def test_sim_replay(self):
        log = TraceLog()
        log.record_task(
            TaskTrace(1, "t", "dgemm", "cpu#0", "x86_64", 0.0, 1.0, 0.1)
        )
        log.record_transfer(TransferTrace("A", 1024, 0, 1, 0.0, 0.2))
        tracer = Tracer()
        count = record_trace_log(tracer, log)
        assert count == 2
        spans = tracer.finished()
        assert {s.clock for s in spans} == {SIM_CLOCK}
        task = next(s for s in spans if s.name == "task:dgemm")
        assert task.track == "cpu#0"
        assert task.attributes["transfer_wait_s"] == 0.1

    def test_real_replay_offsets_onto_wall_clock(self):
        log = TraceLog()
        log.record_task(
            TaskTrace(1, "t", "dgemm", "cpu#0", "x86_64", 0.5, 1.5, 0.0)
        )
        tracer = Tracer()
        record_trace_log(tracer, log, mode="real", wall_offset=10.0)
        (span_,) = tracer.finished()
        assert span_.clock == WALL_CLOCK
        assert span_.start == 10.5
        assert span_.end == 11.5

    def test_faults_become_zero_length_error_spans(self):
        log = TraceLog()
        log.record_fault(FaultTrace("task-fault", 1.0, "t0", "gpu0#0", "boom"))
        log.record_fault(FaultTrace("retry", 1.1, "t0", "gpu0#0"))
        tracer = Tracer()
        record_trace_log(tracer, log)
        by_name = {s.name: s for s in tracer.finished()}
        assert by_name["fault:task-fault"].status == "error"
        assert by_name["fault:retry"].status == "ok"
        assert by_name["fault:task-fault"].duration == 0.0

    def test_parent_links_replayed_spans(self):
        log = TraceLog()
        log.record_task(
            TaskTrace(1, "t", "dgemm", "cpu#0", "x86_64", 0.0, 1.0, 0.0)
        )
        tracer = Tracer()
        with tracer.span("runtime.run") as run_span:
            record_trace_log(tracer, log, parent=run_span)
        task = next(s for s in tracer.finished() if s.name == "task:dgemm")
        assert task.parent_id == run_span.span_id
        assert task.trace_id == run_span.trace_id

    def test_replay_without_parent_is_one_trace(self):
        tracer = Tracer()
        assert record_trace_log(tracer, _fault_log()) == 6
        spans = tracer.finished()
        assert all(s.parent_id is None for s in spans)
        assert len({s.trace_id for s in spans}) == 1
        # a second log is a second trace
        record_trace_log(tracer, _fault_log())
        assert len({s.trace_id for s in tracer.finished()}) == 2

    def test_replay_without_parent_joins_the_fixed_trace_id(self):
        tracer = Tracer(trace_id=TRACE_ID)
        record_trace_log(tracer, _fault_log())
        assert {s.trace_id for s in tracer.finished()} == {TRACE_ID}

    def test_empty_log_records_nothing(self):
        tracer = Tracer()
        assert record_trace_log(tracer, TraceLog()) == 0
        assert len(tracer) == 0
        with tracer.span("after") as after:
            pass
        assert after.span_id == 1


class TestDeferredReplay:
    """The deferred replay against the per-record oracle, span for span."""

    def test_traced_fig5_run_matches_eager_replay(self, monkeypatch):
        def traced_run(tracer):
            engine = RuntimeEngine(load_platform("xeon_x5550_2gpu"), scheduler="dmda")
            submit_tiled_dgemm(engine, 4096, 512)
            with use_tracer(tracer):
                result = engine.run()
            return result

        deferred = _frozen_tracer()
        result = traced_run(deferred)
        unread = len(deferred)
        oracle = _frozen_tracer()
        monkeypatch.setattr(engine_module, "record_trace_log", eager_replay)
        traced_run(oracle)
        payloads = _payloads(deferred)
        assert payloads == _payloads(oracle)
        events = len(result.trace.tasks) + len(result.trace.transfers)
        assert unread == len(payloads) == events + 1  # + the runtime.run span
        assert deferred.fingerprint() == oracle.fingerprint()

    def test_faults_and_laneless_records(self):
        deferred, oracle = _replay_both(_fault_log())
        assert _payloads(deferred) == _payloads(oracle)
        tracks = [s.track for s in deferred.finished()]
        assert tracks[1] == threading.current_thread().name  # a task without a lane
        assert tracks[-1] == "faults"  # a fault without a lane

    def test_real_mode_with_wall_offset(self):
        log = _fault_log()
        deferred, oracle = _frozen_tracer(), _frozen_tracer()
        for tracer, replay in ((deferred, record_trace_log), (oracle, eager_replay)):
            with tracer.span("runtime.run_real") as run_span:
                replay(tracer, log, parent=run_span, mode="real", wall_offset=12.5)
        assert _payloads(deferred) == _payloads(oracle)
        assert {s.clock for s in deferred.finished()} == {WALL_CLOCK}

    def test_bounded_ring_log(self):
        log = TraceLog(max_events=3)
        for i in range(7):
            log.record_task(
                TaskTrace(i, f"t{i}", "dgemm", f"cpu#{i % 2}", "x86_64", i, i + 1, 0.0)
            )
            log.record_transfer(TransferTrace(f"H{i}", 64, 0, 1, i, i + 0.5))
        assert log.dropped_events == 8
        deferred, oracle = _replay_both(log)
        assert _payloads(deferred) == _payloads(oracle)
        assert [s.attributes.get("task_id") for s in deferred.finished()[:3]] == [
            4, 5, 6
        ]

    def test_spans_opened_after_the_replay_keep_their_ids(self):
        deferred, oracle = _frozen_tracer(), _frozen_tracer()
        for tracer, replay in ((deferred, record_trace_log), (oracle, eager_replay)):
            with tracer.span("before"):
                pass
            replay(tracer, _fault_log())
            with tracer.span("after"):
                pass
            replay(tracer, _fault_log())
        after = next(s for s in deferred.finished() if s.name == "after")
        assert after.span_id == 1 + 6 + 1
        assert _payloads(deferred) == _payloads(oracle)

    def test_len_counts_deferred_spans_without_building_them(self, monkeypatch):
        built = []
        task_row = bridge._task_row
        monkeypatch.setattr(
            bridge, "_task_row", lambda tt: built.append(tt) or task_row(tt)
        )
        tracer = Tracer()
        with tracer.span("run") as run_span:
            record_trace_log(tracer, _fault_log(), parent=run_span)
        assert len(tracer) == 7
        assert built == []
        first = tracer.finished()
        assert len(first) == 7 and len(built) == 2
        assert tracer.finished() == first  # built once, then kept
        assert len(built) == 2

    def test_every_reader_builds(self):
        readers = [
            lambda t: t.finished(),
            lambda t: t.spans,
            lambda t: t.roots(),
            lambda t: list(t),
            lambda t: t.to_payload(),
            lambda t: t.fingerprint(),
            chrome_trace,
            trace_payload,
            render_tree,
            lambda t: Session(trace=t).to_payload(),
        ]
        for read in readers:
            tracer = Tracer()
            record_trace_log(tracer, _fault_log())
            read(tracer)
            assert tracer._deferred_blocks == 0
            assert len(tracer.spans) == 6

    def test_children_of_builds(self):
        tracer = Tracer()
        with tracer.span("run") as run_span:
            record_trace_log(tracer, _fault_log(), parent=run_span)
        kids = tracer.children_of(run_span)
        assert len(kids) == 6

    def test_appending_to_the_log_after_run_changes_nothing(self):
        tracer = _frozen_tracer()
        with use_tracer(tracer):
            _, result = _small_run()
        before = len(tracer)
        result.trace.record_task(
            TaskTrace(99, "late", "dgemm", "cpu#0", "x86_64", 5.0, 6.0, 0.0)
        )
        result.trace.record_fault(FaultTrace("retry", 5.0, "late", "cpu#0"))
        spans = tracer.finished()
        assert len(spans) == before
        assert not any(s.attributes.get("tag") == "late" for s in spans)

    def test_clear_drops_pending_blocks(self):
        tracer = Tracer()
        record_trace_log(tracer, _fault_log())
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.finished() == []
        with tracer.span("after") as after:
            pass
        assert after.span_id == 7  # the cleared block's ids stay spent
        assert [s.name for s in tracer.finished()] == ["after"]


_text = st.text("abcxyz#0123", max_size=6)
_times = st.floats(0.0, 1e3, allow_nan=False)


@st.composite
def trace_logs(draw):
    log = TraceLog(max_events=draw(st.sampled_from([None, 2, 5])))
    for _ in range(draw(st.integers(0, 8))):
        start = draw(_times)
        log.record_task(
            TaskTrace(
                draw(st.integers(0, 99)),
                draw(_text),
                draw(st.sampled_from(["dgemm", "dpotrf", "dvecadd"])),
                draw(_text),
                draw(st.sampled_from(["x86_64", "gpu"])),
                start,
                start + draw(_times),
                draw(_times),
            )
        )
    for _ in range(draw(st.integers(0, 5))):
        start = draw(_times)
        log.record_transfer(
            TransferTrace(
                draw(_text),
                draw(st.integers(0, 1 << 30)),
                draw(st.integers(0, 3)),
                draw(st.integers(0, 3)),
                start,
                start + draw(_times),
            )
        )
    for _ in range(draw(st.integers(0, 4))):
        log.record_fault(
            FaultTrace(
                draw(
                    st.sampled_from(
                        ["task-fault", "worker-fault", "retry", "requeue", "watchdog"]
                    )
                ),
                draw(_times),
                draw(_text),
                draw(_text),
                draw(_text),
            )
        )
    return log


@given(
    trace_logs(),
    st.sampled_from(["none", "current", "explicit"]),
    st.sampled_from(["sim", "real"]),
    _times,
)
@settings(max_examples=150, deadline=None)
def test_deferred_replay_equals_the_oracle(log, parent_kind, mode, wall_offset):
    results = []
    for replay in (record_trace_log, eager_replay):
        tracer = _frozen_tracer()
        with tracer.span("before"):
            pass
        if parent_kind == "none":
            count = replay(tracer, log, mode=mode, wall_offset=wall_offset)
        elif parent_kind == "current":
            with tracer.span("run"):
                count = replay(tracer, log, mode=mode, wall_offset=wall_offset)
        else:
            run_span = tracer.start_span("run")
            count = replay(
                tracer, log, parent=run_span, mode=mode, wall_offset=wall_offset
            )
            tracer.end_span(run_span)
        with tracer.span("after"):
            pass
        unread = len(tracer)
        results.append((count, unread, _payloads(tracer)))
    (count, unread, payloads), oracle = results
    assert (count, unread, payloads) == oracle
    assert unread == len(payloads)


class TestEngineBridging:
    def test_run_replays_trace_under_run_span(self):
        tracer = Tracer()
        with use_tracer(tracer):
            _, result = _small_run()
        spans = tracer.finished()
        run_span = next(s for s in spans if s.name == "runtime.run")
        assert run_span.attributes["makespan_s"] == result.makespan
        tasks = [s for s in spans if s.name.startswith("task:")]
        assert len(tasks) == result.task_count
        assert all(s.parent_id == run_span.span_id for s in tasks)
        assert all(s.clock == SIM_CLOCK for s in tasks)

    def test_traced_dgemm_pass_spans_every_record(self):
        """A traced 2048/512 dmda pass on the Figure-5 GPU box: one span
        per task and transfer record under the run span."""
        engine = RuntimeEngine(load_platform("xeon_x5550_2gpu"), scheduler="dmda")
        submit_tiled_dgemm(engine, 2048, 512)
        tracer = Tracer()
        with use_tracer(tracer):
            result = engine.run()
        records = len(result.trace.tasks) + len(result.trace.transfers)
        assert records > 0
        assert len(tracer.finished()) == records + 1

    def test_disabled_tracing_records_nothing(self):
        _, result = _small_run()
        assert result.makespan > 0  # and no tracer captured anything
