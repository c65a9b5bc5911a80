"""The simulator's event loop: lanes tick, tasks start, tasks finish.

One :class:`SimLoop` is one discrete-event pass over the lanes of a
:class:`~repro.runtime.engine.RuntimeEngine`, and the only one in the
code base.  Two drivers run it:

* :meth:`RuntimeEngine.run <repro.runtime.engine.RuntimeEngine.run>`
  releases a submitted task graph, applies dynamic events and gathers
  written data home;
* :class:`~repro.serve.engine.ServeEngine` releases admitted requests as
  they arrive and moves lanes on- and offline as it autoscales.

A driver talks to the loop through a few entry points:

* :meth:`release` hands a ready task to the scheduler and wakes idle
  lanes (batch seeding, a finished dependency, a retry, a request);
* :meth:`lane_offline` / :meth:`lane_online` take a lane out of service
  (draining its queue back to the scheduler) or bring it back, and
  :meth:`wake` ticks the lanes that sit idle;
* :meth:`fail_attempt` fails one execution attempt under the retry
  policy, and :meth:`forget` drops the per-handle state of a datum no
  task will name again;
* ``on_complete(task, record)`` runs after each finished task, and
  :attr:`trace` is the :class:`~repro.runtime.trace.TraceLog` every task,
  transfer and fault is recorded into.

A lane with nothing to do parks in an idle set; :meth:`wake` ticks the
parked lanes in the order they went idle.  Every lane ticks once at
t = 0.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import TaskFailureError
from repro.runtime.capacity import MemoryCapacityManager
from repro.runtime.coherence import TransferNeed
from repro.runtime.data import DataHandle
from repro.runtime.faults import FaultPolicy
from repro.runtime.simclock import EventQueue
from repro.runtime.tasks import RuntimeTask, TaskState
from repro.runtime.trace import FaultTrace, TaskTrace, TraceLog, TransferTrace
from repro.runtime.workers import WorkerContext

if TYPE_CHECKING:  # the engine module imports this one
    from repro.runtime.engine import RuntimeEngine

__all__ = ["SimLoop"]

_RUNNING = TaskState.RUNNING


class SimLoop:
    """One simulated pass over an engine's lanes (see the module doc)."""

    __slots__ = (
        "engine",
        "clock",
        "trace",
        "on_complete",
        "policy",
        "stats",
        "done",
        "written",
        "offline",
        "_idle",
        "_prefetched",
        "_scheduler",
        "_capacity",
        "_vec",
        "_workers_by_id",
        "_required_transfer",
    )

    def __init__(
        self,
        engine: "RuntimeEngine",
        trace: TraceLog,
        *,
        fault_policy: Optional[FaultPolicy] = None,
        on_complete: Optional[Callable[[RuntimeTask, TaskTrace], None]] = None,
    ):
        self.engine = engine
        self.clock = EventQueue()
        self.trace = trace
        self.on_complete = on_complete
        self.policy = fault_policy if fault_policy is not None else FaultPolicy()
        self.stats = {
            "task_failures": 0,
            "retries": 0,
            "requeues": 0,
            "worker_failures": 0,
        }
        #: tasks finished so far
        self.done = 0
        #: handle id → handle, for every handle a task wrote, in the
        #: order of first write (the set the batch driver gathers home)
        self.written: dict[int, DataHandle] = {}
        #: instance ids of the lanes out of service (the engine's set,
        #: which its cost models mask)
        self.offline: set[str] = engine._offline
        #: lanes with nothing to do, in the order they went idle
        self._idle: dict[str, WorkerContext] = {}
        #: task id → (memory node a prefetch targeted, initiation time);
        #: the staging is committed when the task starts there
        self._prefetched: dict[int, tuple[int, float]] = {}
        self._scheduler = engine.scheduler
        self._workers_by_id = {w.instance_id: w for w in engine.workers}

        engine.transfer_model.reset()
        engine.coherence.reset()
        for worker in engine.workers:
            worker.reset()
        if engine.model_capacity:
            # node 0 (host RAM) is unbounded; a device node holds the sum
            # of its anchor's declared MemoryRegion sizes
            node_capacity: dict[int, Optional[float]] = {0: None}
            for node, anchor_id in engine.node_anchor.items():
                if node == 0:
                    continue
                sizes = [
                    r.size_bytes
                    for r in engine.platform.pu(anchor_id).memory_regions
                    if r.size_bytes is not None
                ]
                node_capacity[node] = sum(sizes) if sizes else None
            engine.capacity = MemoryCapacityManager(engine.coherence, node_capacity)
        self._capacity = engine.capacity
        # the vectorized engine resolves transfer needs through the
        # memoized lanes (identical results); the scalar engine keeps
        # the reference implementation so the two stay independently
        # checkable
        self._vec = engine._vec_cost
        coherence = engine.coherence
        self._required_transfer = (
            coherence.required_transfer_cached
            if self._vec is not None
            else coherence.required_transfer
        )
        for worker in engine.workers:
            self.clock.schedule_call(0.0, self._tick, worker)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Fire events until none is left."""
        self.clock.run()

    def release(self, task: RuntimeTask, now: float) -> None:
        """Hand a ready ``task`` to the scheduler and wake idle lanes."""
        task.state = TaskState.READY
        self._scheduler.task_ready(task, now)
        self.wake()

    def wake(self) -> None:
        """Tick every idle lane, in the order the lanes went idle."""
        idle = self._idle
        if idle:
            schedule = self.clock.schedule_call_in
            tick = self._tick
            for worker in idle.values():
                schedule(0.0, tick, worker)
            idle.clear()

    def lane_offline(
        self, worker: WorkerContext, reason: str, *, fault: Optional[str] = None
    ) -> None:
        """Take ``worker`` out of service.

        The lane takes no new work and its queued tasks go back to the
        scheduler, each recorded as a ``requeue`` with ``reason``.  The
        task it is executing finishes there, unless ``fault`` describes
        a worker fault: then that attempt is lost and requeued too, and
        the lane never comes back.  The caller wakes idle lanes after.
        """
        instance_id = worker.instance_id
        if instance_id in self.offline:
            return
        self.offline.add(instance_id)
        self._idle.pop(instance_id, None)
        now = self.clock.now
        if fault is not None:
            worker.retired = True
            self.stats["worker_failures"] += 1
            self._record_fault("worker-fault", "", instance_id, fault)
            self._abort_inflight(worker, now, fault)
        scheduler = self._scheduler
        for task in scheduler.drain(worker):
            self.stats["requeues"] += 1
            self._record_fault("requeue", task.tag, instance_id, reason)
            scheduler.task_ready(task, now)

    def lane_online(self, worker: WorkerContext) -> None:
        """Put an offline lane back in service (a faulted lane stays out)."""
        instance_id = worker.instance_id
        if instance_id in self.offline and not worker.retired:
            self.offline.discard(instance_id)
            self._idle.pop(instance_id, None)
            self.clock.schedule_call_in(0.0, self._tick, worker)

    def fail_attempt(
        self, task: RuntimeTask, worker_id: Optional[str], detail: str
    ) -> None:
        """One execution attempt failed; retry with backoff or give up."""
        now = self.clock.now
        task.incarnation += 1
        task.attempt += 1
        task.last_error = detail
        self.stats["task_failures"] += 1
        self._record_fault("task-fault", task.tag, worker_id or "", detail)
        if task.state is _RUNNING:
            worker = self._workers_by_id[task.worker_id]
            self._release_pins(task, worker)
            worker.busy_until = now
            self.clock.schedule_call_in(0.0, self._tick, worker)
        task.worker_id = None
        task.start_time = task.end_time = None
        if task.attempt > self.policy.max_retries:
            task.state = TaskState.FAILED
            raise TaskFailureError(
                f"task {task.tag!r} failed permanently after"
                f" {task.attempt} attempt(s); last error: {detail}",
                task_tag=task.tag,
                attempts=task.attempt,
            )
        task.state = TaskState.READY
        self.stats["retries"] += 1
        delay = self.policy.backoff(task.attempt)
        self._record_fault(
            "retry", task.tag, worker_id or "",
            f"attempt {task.attempt + 1} after {delay:.4g}s backoff",
        )
        self.clock.schedule_call_in(delay, self._resubmit, task)

    def forget(self, handle: DataHandle) -> None:
        """Drop the coherence, residency and gather state of ``handle``
        (a datum no task will name again)."""
        self.engine.coherence.forget(handle)
        if self._vec is not None:
            self._vec.forget(handle)
        self.written.pop(handle.id, None)
        # its memoized task parameters refer back to the handle; with the
        # cycle gone, reference counting frees the datum with its last task
        handle._accesses.clear()

    def _record_fault(
        self, kind: str, task_tag: str, worker_id: str, detail: str
    ) -> None:
        self.trace.record_fault(
            FaultTrace(kind, self.clock.now, task_tag, worker_id, detail)
        )

    # ------------------------------------------------------------------
    # the hot path: tick → start → finish
    # ------------------------------------------------------------------
    def _tick(self, worker: WorkerContext) -> None:
        if worker.instance_id in self.offline:
            return  # out of service; no new work
        now = self.clock.now
        if now < worker.busy_until - 1e-15:
            return  # still executing; its completion re-ticks
        task = self._scheduler.next_task(worker, now)
        if task is None:
            self._idle[worker.instance_id] = worker
            return
        self._start(task, worker, now)

    def _start(self, task: RuntimeTask, worker: WorkerContext, now: float) -> None:
        if task.fault_armed:
            # an injected TaskFault armed before the task started: this
            # attempt fails at once; the retry policy decides
            task.fault_armed = False
            self.fail_attempt(task, worker.instance_id, "injected task fault")
            self.clock.schedule_call_in(0.0, self._tick, worker)
            return
        engine = self.engine
        capacity = self._capacity
        node = worker.memory_node
        task.state = _RUNNING
        # pin the task's working set first so staging one operand can
        # never evict another operand of the same task
        if capacity is not None:
            for access in task.accesses:
                capacity.pin(access.handle, node)
        # stage operands; a prefetch noted for this worker's node is
        # committed here, back-dated to its initiation time, so the
        # transfers overlap the previous task's compute — and a task
        # that was drained or stolen after the peek never charges
        # transfers or link occupancy it did not use
        staged = self._prefetched.pop(task.id, None)
        stage_at = now
        if staged is not None and staged[0] == node:
            stage_at = staged[1]
        data_ready = max(now, self._stage(task, worker, stage_at))
        transfer_wait = data_ready - now

        start = data_ready + engine.task_overhead_s
        vec = self._vec
        if vec is not None:
            end = start + vec.truth_duration(task, worker)
        else:
            end = start + engine.exec_estimate(task, worker)

        # coherence transition at start (write ownership is claimed when
        # the kernel begins mutating the buffer)
        note_access = engine.coherence.note_access
        for access in task.accesses:
            handle = access.handle
            note_access(handle, node, access.mode)
            if access.mode.writes:
                self.written[handle.id] = handle
                if capacity is not None:
                    capacity.note_invalidated(handle, node)
                    capacity.note_resident(handle, node, start)

        worker.busy_until = end
        task.worker_id = worker.instance_id
        task.start_time = start
        task.end_time = end
        self.clock.schedule_call(
            end, self._finish, (task, worker, transfer_wait, task.incarnation)
        )

        # data prefetch: note the *next* queued task's operands for
        # staging while this one computes (StarPU's dmda-prefetch
        # behaviour); the commit is deferred to its own start
        if engine.prefetch:
            upcoming = self._scheduler.peek(worker)
            if upcoming is not None and upcoming.id not in self._prefetched:
                self._prefetched[upcoming.id] = (node, now)

    def _stage(self, task: RuntimeTask, worker: WorkerContext, now: float) -> float:
        """Schedule missing-operand transfers; returns their finish time."""
        engine = self.engine
        capacity = self._capacity
        required_transfer = self._required_transfer
        node = worker.memory_node
        data_ready = now
        for access in task.accesses:
            handle = access.handle
            need = required_transfer(handle, node, access.mode)
            if need is None:
                # already resident (or write-only): room still needed
                # for write-only claims under capacity modeling
                if capacity is not None:
                    if engine.coherence.is_valid_on(handle, node):
                        capacity.touch(handle, node, now)
                    elif access.mode.writes:
                        ready = capacity.make_room(
                            node, handle.nbytes, now,
                            writeback=self._charge_writeback,
                        )
                        capacity.note_resident(handle, node, ready)
                        data_ready = max(data_ready, ready)
                continue
            nbytes = handle.nbytes
            start_at = now
            if capacity is not None:
                start_at = capacity.make_room(
                    node, nbytes, now, writeback=self._charge_writeback
                )
            est = engine.transfer_model.schedule(
                engine.node_anchor[need.src_node], worker.entity_id, nbytes, start_at
            )
            engine.coherence.note_transfer(need)
            if capacity is not None:
                capacity.note_resident(handle, node, est.finish)
            self.trace.record_transfer(
                TransferTrace(
                    handle.name, nbytes, need.src_node, node, est.start, est.finish
                )
            )
            data_ready = max(data_ready, est.finish)
        return data_ready

    def _finish(self, item: tuple) -> None:
        # single-tuple signature: scheduled through the clock's
        # closure-free lane (no per-completion lambda allocation)
        task, worker, transfer_wait, incarnation = item
        if task.incarnation != incarnation or task.state is not _RUNNING:
            return  # attempt aborted by a fault event; stale completion
        now = self.clock.now
        engine = self.engine
        # the payload runs at completion, not dispatch, so an aborted
        # attempt never half-applies a non-idempotent kernel
        if engine.execute_kernels:
            engine._execute_payload(task, worker)
        task.state = TaskState.DONE
        self.done += 1
        # _start set both times for this incarnation
        worker.busy_time += task.end_time - task.start_time
        worker.tasks_executed += 1
        capacity = self._capacity
        if capacity is not None:
            for access in task.accesses:
                capacity.unpin(access.handle, worker.memory_node)
                capacity.touch(access.handle, worker.memory_node, now)
        record = TaskTrace(
            task.id,
            task.tag,
            task.kernel,
            worker.instance_id,
            worker.architecture,
            task.start_time,
            now,
            transfer_wait,
        )
        self.trace.record_task(record)
        if self.on_complete is not None:
            self.on_complete(task, record)
        for dep in task.dependents:
            if dep.notify_producer_done():
                self.release(dep, now)
        self._tick(worker)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _resubmit(self, task: RuntimeTask) -> None:
        self.release(task, self.clock.now)

    def _charge_writeback(self, need: TransferNeed, when: float) -> float:
        engine = self.engine
        nbytes = need.handle.nbytes
        est = engine.transfer_model.schedule(
            engine.node_anchor[need.src_node],
            engine.node_anchor[need.dst_node],
            nbytes,
            when,
        )
        self.trace.record_transfer(
            TransferTrace(
                need.handle.name, nbytes, need.src_node, need.dst_node,
                est.start, est.finish,
            )
        )
        return est.finish

    def _release_pins(self, task: RuntimeTask, worker: WorkerContext) -> None:
        if self._capacity is not None:
            for access in task.accesses:
                self._capacity.unpin(access.handle, worker.memory_node)

    def _abort_inflight(self, worker: WorkerContext, now: float, reason: str) -> None:
        """Requeue the task executing on a faulted lane (work lost).

        Worker faults come only from a batch run's dynamic events, so the
        task is looked up among the engine's submitted tasks."""
        for task in self.engine._tasks:
            if task.state is _RUNNING and task.worker_id == worker.instance_id:
                task.incarnation += 1  # the scheduled finish is void
                self._release_pins(task, worker)
                task.worker_id = None
                task.start_time = task.end_time = None
                task.state = TaskState.READY
                self.stats["requeues"] += 1
                self._record_fault("requeue", task.tag, worker.instance_id, reason)
                self._scheduler.task_ready(task, now)
        worker.busy_until = now
