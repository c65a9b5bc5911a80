"""Bridge the runtime's :class:`~repro.runtime.trace.TraceLog` into spans.

The simulated engine times tasks in *simulated seconds*; the tracer
times spans in *wall seconds*.  Replaying a finished ``TraceLog`` under
the run's span keeps both views in one trace: the wall-clock span says
how long the simulation took to compute, the sim-clock spans (exported
as a separate Chrome trace process) say what the simulated schedule
looked like — per worker lane, with transfers and fault events.

Real-mode runs measure wall time already; their task records are
replayed on the wall clock, offset to the run span's start, so kernel
executions nest under the run that produced them.

A replay is deferred: the tracer reserves the spans' ids and their place
in completion order at once, and builds them from a snapshot of the log
on its first read, so a traced run that nobody exports pays no per-span
cost.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import TYPE_CHECKING, Optional

from repro.obs.spans import SIM_CLOCK, WALL_CLOCK, Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.spans import Tracer
    from repro.runtime.trace import FaultTrace, TaskTrace, TraceLog, TransferTrace

__all__ = ["record_trace_log"]


def _task_row(tt: "TaskTrace") -> tuple:
    return (
        f"task:{tt.kernel}",
        tt.start,
        tt.end,
        tt.worker_id,
        "ok",
        {
            "tag": tt.tag,
            "task_id": tt.task_id,
            "kernel": tt.kernel,
            "worker": tt.worker_id,
            "architecture": tt.architecture,
            "transfer_wait_s": tt.transfer_wait,
        },
    )


def _transfer_row(tr: "TransferTrace") -> tuple:
    return (
        f"transfer:{tr.handle_name}",
        tr.start,
        tr.end,
        f"xfer:{tr.src_node}->{tr.dst_node}",
        "ok",
        {
            "handle": tr.handle_name,
            "nbytes": tr.nbytes,
            "src_node": tr.src_node,
            "dst_node": tr.dst_node,
        },
    )


def _fault_row(fault: "FaultTrace") -> tuple:
    return (
        f"fault:{fault.kind}",
        fault.time,
        fault.time,
        fault.worker_id or "faults",
        "error" if fault.kind in ("task-fault", "worker-fault") else "ok",
        {
            "kind": fault.kind,
            "task_tag": fault.task_tag,
            "worker": fault.worker_id,
            "detail": fault.detail,
        },
    )


def record_trace_log(
    tracer: "Tracer",
    trace: "TraceLog",
    *,
    parent: Optional[Span] = None,
    mode: str = "sim",
    wall_offset: float = 0.0,
) -> int:
    """Replay one finished run trace as spans; returns #spans recorded.

    ``mode="sim"`` replays on the simulated clock verbatim;
    ``mode="real"`` shifts task times by ``wall_offset`` (the run span's
    start) onto the wall clock.  Fault events become zero-length spans so
    they surface as instants in every exporter.  Every span joins one
    trace: ``parent``'s (default: the current span's), else one new
    trace for the whole log.

    The spans are built on the tracer's first read, from the records the
    log holds now: records appended to ``trace`` later are not replayed.
    """
    tasks = tuple(trace.tasks)
    transfers = tuple(trace.transfers)
    faults = tuple(trace.faults)
    count = len(tasks) + len(transfers) + len(faults)
    if not count:
        return 0
    parent, trace_id = tracer._resolve_parent(parent)
    parent_id = parent.span_id if parent is not None else None
    sim = mode != "real"
    clock = SIM_CLOCK if sim else WALL_CLOCK
    offset = 0.0 if sim else wall_offset
    # a record without a lane lands on the replaying thread's track
    thread = threading.current_thread().name

    def build(first_id: int) -> list[Span]:
        rows = chain(
            map(_task_row, tasks),
            map(_transfer_row, transfers),
            map(_fault_row, faults),
        )
        return [
            Span(
                name,
                span_id,
                trace_id,
                parent_id,
                offset + start,
                offset + end,
                attributes,
                status=status,
                clock=clock,
                track=track or thread,
            )
            for span_id, (name, start, end, track, status, attributes) in enumerate(
                rows, first_id
            )
        ]

    tracer.defer_spans(count, build)
    return count
