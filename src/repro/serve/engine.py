"""The long-lived serving front end: ingestion → scheduling → autoscaling → tuning.

:class:`ServeEngine` is a front end on the runtime's own simulator loop
(:class:`~repro.runtime.loop.SimLoop`) over a
:class:`~repro.runtime.engine.RuntimeEngine` built from the platform:
the same lane tick, task start and completion, operand staging through
coherence and the contention-aware
:class:`~repro.perf.transfer.TransferModel`, and cost rows from the
vectorized cost model.  Each admitted request becomes a runtime task
that reads one private, host-resident operand handle (``req-<id>``),
dropped from the runtime's state when the request completes.

Serving itself keeps four concerns:

* **Ingestion** — each arrival passes per-tenant token buckets and the
  bounded-queue :class:`~repro.service.admission.CapacityGate` (the
  registry server's 429 machinery); rejects are shed, admits become
  :class:`~repro.serve.request.ServeTask` objects with absolute
  deadlines, released to the loop.
* **Autoscaling** — a fixed-cadence policy tick brings lanes online or
  takes them offline through the loop's lane calls.  Drain-down is the
  runtime's drain/requeue path: queued tasks go back to the scheduler
  (so dmda's est-free clocks stay honest) and the lane finishes its
  in-flight task first.
* **SLO accounting** — the loop's completion hook records latency and
  deadline hits per tenant.
* **Online tuning** — completed windows are folded into a
  :class:`~repro.tune.database.TuningDatabase` via
  :func:`~repro.tune.calibrate.harvest_run`, and the scheduler-side
  :class:`~repro.tune.model.HistoryPerfModel` refits, improving
  placement *while serving*.

Everything is simulated-deterministic: same platform + config + arrival
stream ⇒ an identical :class:`~repro.serve.report.ServingReport`
fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import KernelError, SchedulerError, ServeError
from repro.model.platform import Platform
from repro.obs import spans as _obs
from repro.perf.calibration import TASK_SCHEDULING_OVERHEAD_S
from repro.runtime.engine import RuntimeEngine
from repro.runtime.loop import SimLoop
from repro.runtime.trace import FaultTrace, TaskTrace, TraceLog, TransferTrace
from repro.runtime.workers import WorkerContext
from repro.serve.autoscale import AutoscalePolicy, Autoscaler
from repro.serve.report import ServingReport
from repro.serve.request import ServeTask, TaskRequest, validate_stream
from repro.serve.scheduler import make_serve_scheduler
from repro.serve.slo import SLOTracker
from repro.service.admission import CapacityGate, TenantRateLimiter

__all__ = ["ServeConfig", "ServeEngine"]

_EPS = 1e-12


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one serving run."""

    #: placement policy: ``dmda-slo`` (deadline-aware) or a plain
    #: runtime policy (``dmda``/``dm``/``eager``) as ablation baseline
    scheduler: str = "dmda-slo"
    #: predicted-lateness penalty weight of ``dmda-slo``
    miss_weight: float = 4.0
    #: relative SLO deadline for requests that carry none
    default_deadline_s: float = 0.05
    #: ready-queue bound; arrivals beyond it are shed (429-style)
    max_queue: int = 256
    #: default per-tenant token rate (None = tenants are not rate-limited
    #: unless individually configured via :meth:`ServeEngine.limit_tenant`)
    tenant_rate_per_s: Optional[float] = None
    tenant_burst: float = 16.0
    #: per-task dispatch overhead, same constant the runtime engine uses
    task_overhead_s: float = TASK_SCHEDULING_OVERHEAD_S
    autoscale: AutoscalePolicy = field(default_factory=AutoscalePolicy)
    #: continuously harvest completed windows into the tuning database
    #: and refit the scheduler-side history model
    online_tuning: bool = False
    harvest_interval_s: float = 0.25
    tuning_blend: float = 1.0
    #: ring bound of the serving TraceLog (None = unbounded)
    trace_max_events: Optional[int] = 65536
    #: per-tenant latency reservoir size
    latency_window: int = 8192

    def __post_init__(self):
        if self.default_deadline_s <= 0.0:
            raise ServeError(
                f"default_deadline_s must be positive,"
                f" got {self.default_deadline_s!r}"
            )
        if self.max_queue < 1:
            raise ServeError(f"max_queue must be >= 1, got {self.max_queue!r}")
        if self.harvest_interval_s <= 0.0:
            raise ServeError(
                f"harvest_interval_s must be positive,"
                f" got {self.harvest_interval_s!r}"
            )
        if self.tenant_rate_per_s is not None and self.tenant_rate_per_s <= 0.0:
            raise ServeError(
                f"tenant_rate_per_s must be positive or None,"
                f" got {self.tenant_rate_per_s!r}"
            )
        if self.tenant_burst <= 0.0:
            raise ServeError(
                f"tenant_burst must be positive, got {self.tenant_burst!r}"
            )
        if self.latency_window < 1:
            raise ServeError(
                f"latency_window must be >= 1, got {self.latency_window!r}"
            )
        if self.trace_max_events is not None and self.trace_max_events < 1:
            raise ServeError(
                f"trace_max_events must be >= 1 or None,"
                f" got {self.trace_max_events!r}"
            )

    def to_payload(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "miss_weight": self.miss_weight,
            "default_deadline_s": self.default_deadline_s,
            "max_queue": self.max_queue,
            "tenant_rate_per_s": self.tenant_rate_per_s,
            "tenant_burst": self.tenant_burst,
            "task_overhead_s": self.task_overhead_s,
            "autoscale": self.autoscale.to_payload(),
            "online_tuning": self.online_tuning,
            "harvest_interval_s": self.harvest_interval_s,
            "tuning_blend": self.tuning_blend,
            "trace_max_events": self.trace_max_events,
            "latency_window": self.latency_window,
        }


class _WindowedTrace(TraceLog):
    """The serving trace ring, which also keeps the transfers of the
    current online-tuning window (a request stages its operand when it
    starts, before the completion hook sees it)."""

    def __init__(self, max_events: Optional[int]):
        super().__init__(max_events=max_events)
        self.window = TraceLog()

    def record_transfer(self, trace: TransferTrace) -> None:
        super().record_transfer(trace)
        self.window.record_transfer(trace)


class ServeEngine:
    """One serving fleet bound to a platform; :meth:`run` drives a stream."""

    def __init__(
        self,
        platform: Platform,
        *,
        config: Optional[ServeConfig] = None,
        registry=None,
        truth_perf_model=None,
        sched_perf_model=None,
        tuning_database=None,
        metrics=None,
    ):
        self.config = config or ServeConfig()
        self.platform = platform
        self.metrics = metrics

        # scheduler-side model: explicit > online-tuned history > truth
        self.tuning_database = tuning_database
        self.digest: Optional[str] = None
        self._harvests = 0
        self._harvested_samples = 0
        if self.config.online_tuning:
            from repro.pdl.catalog import content_digest
            from repro.pdl.writer import write_pdl

            self.digest = content_digest(write_pdl(platform))
            if sched_perf_model is None:
                from repro.tune.database import TuningDatabase
                from repro.tune.model import HistoryPerfModel

                if self.tuning_database is None:
                    self.tuning_database = TuningDatabase()
                sched_perf_model = HistoryPerfModel(
                    self.tuning_database, self.digest,
                    blend=self.config.tuning_blend,
                )

        self.runtime = RuntimeEngine(
            platform,
            scheduler=make_serve_scheduler(
                self.config.scheduler, miss_weight=self.config.miss_weight
            ),
            registry=registry,
            perf_model=truth_perf_model,
            sched_perf_model=sched_perf_model,
            task_overhead_s=self.config.task_overhead_s,
        )
        self.registry = self.runtime.registry
        self.workers: list[WorkerContext] = self.runtime.workers
        self.node_anchor: dict[int, str] = self.runtime.node_anchor
        self.sched_perf = self.runtime.sched_perf
        self.scheduler = self.runtime.scheduler

        # fleet shape: activation order puts one lane per architecture
        # first (the always-on "core", so every fleet-supported kernel
        # keeps a compatible active lane through any drain-down), then
        # the rest in platform order
        core: dict[str, str] = {}
        rest: list[str] = []
        for worker in self.workers:
            if worker.architecture not in core:
                core[worker.architecture] = worker.instance_id
            else:
                rest.append(worker.instance_id)
        self._core: set[str] = set(core.values())
        self._lane_order: list[str] = list(core.values()) + rest
        self._lane_of = {w.instance_id: w for w in self.workers}
        self.autoscaler = Autoscaler(self.config.autoscale, len(self.workers))

        # admission machinery (shared with the registry server)
        self.capacity_gate = CapacityGate(self.config.max_queue)
        self.rate_limiter = TenantRateLimiter(
            default_rate_per_s=self.config.tenant_rate_per_s,
            default_burst=self.config.tenant_burst,
        )
        self._consecutive_shed: dict[str, int] = {}

        self.trace: TraceLog = (
            _WindowedTrace(self.config.trace_max_events)
            if self.config.online_tuning
            else TraceLog(max_events=self.config.trace_max_events)
        )
        #: the runtime's event loop; its lanes are the fleet, offline
        #: while inactive or draining
        self.loop = SimLoop(self.runtime, self.trace, on_complete=self._on_complete)
        self.slo = SLOTracker(
            latency_window=self.config.latency_window, metrics=metrics
        )
        self._next_id = 0
        self._arrivals: Optional[Iterable[TaskRequest]] = None
        self._stream_open = False

        #: the tasks completed in the current online-tuning window (the
        #: name ``harvest_run`` reads a run's tasks under)
        self._tasks: list[ServeTask] = []

    # -- configuration -------------------------------------------------------
    def limit_tenant(self, tenant: str, rate_per_s: float, burst: float) -> None:
        """Give one tenant an explicit token-bucket budget."""
        self.rate_limiter.configure(tenant, rate_per_s, burst)

    def _fleet_supports(self, kernel: str) -> bool:
        try:
            self.runtime.check_runnable(kernel)
        except (KernelError, SchedulerError):
            return False
        return True

    # -- fleet shape ---------------------------------------------------------
    def _activate_initial(self) -> None:
        want = max(self.autoscaler.initial_active(), len(self._core))
        for instance_id in self._lane_order[want:]:
            # nothing is queued yet, so nothing is requeued
            self.loop.lane_offline(self._lane_of[instance_id], "inactive")
        self.autoscaler.observe(want)

    def _activate_lanes(self, count: int) -> int:
        """Bring up to ``count`` offline lanes online; returns how many."""
        moved = 0
        for instance_id in self._lane_order:
            if moved == count:
                break
            if instance_id in self.loop.offline:
                self.loop.lane_online(self._lane_of[instance_id])
                moved += 1
        return moved

    def _retire_candidate(self) -> Optional[str]:
        """Last online lane that is not core; prefer an idle one so
        retirement is instant."""
        offline = self.loop.offline
        candidates = [
            iid
            for iid in reversed(self._lane_order)
            if iid not in offline and iid not in self._core
        ]
        now = self.loop.clock.now
        for iid in candidates:
            if self._lane_of[iid].busy_until <= now + _EPS:
                return iid
        return candidates[0] if candidates else None

    def _retire_lane(self, instance_id: str) -> None:
        """Graceful drain-down: requeue queued work, finish in-flight."""
        self.loop.lane_offline(self._lane_of[instance_id], "autoscale-retire")
        self.loop.wake()

    def _autoscale_tick(self, _arg=None) -> None:
        if self._finished():
            return
        clock = self.loop.clock
        now = clock.now
        backlog = self.scheduler.pending_count()
        online = [w for w in self.workers if w.instance_id not in self.loop.offline]
        active = len(online)
        idle = sum(1 for w in online if w.busy_until <= now + _EPS)
        if self.metrics is not None:
            self.metrics.gauge("serve.active_workers").set(active)
            self.metrics.gauge("serve.queue_depth").set(backlog)
        want = self.autoscaler.decide(
            now, backlog=backlog, active=active, idle=idle
        )
        if want > 0:
            moved = self._activate_lanes(want)
            if moved:
                self.autoscaler.commit(now, "up", moved, backlog)
        elif want < 0:
            candidate = self._retire_candidate()
            if candidate is not None:
                self._retire_lane(candidate)
                self.autoscaler.commit(now, "down", 1, backlog)
        clock.schedule_call_in(
            self.config.autoscale.interval_s, self._autoscale_tick, None
        )

    # -- ingestion -----------------------------------------------------------
    def _admit(self, request: TaskRequest, now: float):
        """Run the admission pipeline; returns the decision."""
        tenant = request.tenant
        if not self._fleet_supports(request.kernel):
            self.slo.observe_rejected(tenant, "shed")
            self.trace.record_fault(
                FaultTrace(
                    kind="shed",
                    time=now,
                    task_tag=f"{tenant}:{request.kernel}",
                    worker_id="",
                    detail="unsupported-kernel",
                )
            )
            return None
        decision = self.rate_limiter.admit(tenant, now)
        if not decision:
            self.slo.observe_rejected(tenant, "rate-limited")
            self._observe_retry_after(decision.retry_after_s)
            self.trace.record_fault(
                FaultTrace(
                    kind="rate-limited",
                    time=now,
                    task_tag=f"{tenant}:{request.kernel}",
                    worker_id="",
                    detail=f"retry_after={decision.retry_after_s:.3f}",
                )
            )
            return None
        consecutive = self._consecutive_shed.get(tenant, 0)
        decision = self.capacity_gate.check(
            self.scheduler.pending_count(), consecutive=consecutive
        )
        if not decision:
            self._consecutive_shed[tenant] = consecutive + 1
            self.slo.observe_rejected(tenant, "shed")
            self._observe_retry_after(decision.retry_after_s)
            self.trace.record_fault(
                FaultTrace(
                    kind="shed",
                    time=now,
                    task_tag=f"{tenant}:{request.kernel}",
                    worker_id="",
                    detail=f"retry_after={decision.retry_after_s:.3f}",
                )
            )
            return None
        self._consecutive_shed[tenant] = 0
        return decision

    def _observe_retry_after(self, retry_after_s: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram("serve.retry_after_s").observe(retry_after_s)

    def _on_arrival(self, request: TaskRequest) -> None:
        now = self.loop.clock.now
        if self._admit(request, now) is not None:
            deadline = (
                request.deadline_s
                if request.deadline_s is not None
                else self.config.default_deadline_s
            )
            task = ServeTask(
                self._next_id, request, deadline_abs=request.arrival_s + deadline
            )
            self._next_id += 1
            self.slo.observe_admitted(request.tenant)
            self.loop.release(task, now)
        self._pull_next_arrival()

    def _pull_next_arrival(self) -> None:
        assert self._arrivals is not None
        try:
            request = next(self._arrivals)
        except StopIteration:
            self._stream_open = False
            return
        self.loop.clock.schedule_call(request.arrival_s, self._on_arrival, request)

    # -- completion ----------------------------------------------------------
    def _on_complete(self, task: ServeTask, record: TaskTrace) -> None:
        now = record.end
        self.slo.observe_completion(
            task.tenant, now - task.arrival, met_deadline=now <= task.deadline + _EPS
        )
        # the request's operand is never named again
        self.loop.forget(task.accesses[0].handle)
        if self.config.online_tuning:
            self._tasks.append(task)
            self.trace.window.record_task(record)

    # -- online tuning -------------------------------------------------------
    def _harvest_tick(self, _arg=None) -> None:
        self._harvest_window()
        if not self._finished():
            self.loop.clock.schedule_call_in(
                self.config.harvest_interval_s, self._harvest_tick, None
            )

    def _harvest_window(self) -> None:
        if not self._tasks:
            return
        from repro.runtime.trace import RunResult
        from repro.tune.calibrate import harvest_run

        window = self.trace.window
        result = RunResult(
            makespan=window.makespan,
            mode="sim",
            scheduler=self.scheduler.name,
            task_count=len(self._tasks),
            trace=window,
        )
        self._harvested_samples += harvest_run(
            self, result, self.tuning_database, digest=self.digest, source="serve"
        )
        self._harvests += 1
        self._tasks = []
        self.trace.window = TraceLog()
        # refit: drop fitted curves and every memoized placement estimate
        self.runtime.invalidate_estimates()

    # -- the run -------------------------------------------------------------
    def _finished(self) -> bool:
        return not self._stream_open and self.loop.done == self._next_id

    def run(self, arrivals: Iterable[TaskRequest]) -> ServingReport:
        """Serve the stream to completion; returns the serving report."""
        tracer = _obs.get_tracer()
        if tracer is None:
            return self._run(arrivals)
        with tracer.span(
            "serve.run",
            platform=self.platform.name,
            scheduler=self.scheduler.name,
            fleet=len(self.workers),
        ) as span_:
            report = self._run(arrivals)
            span_.set(
                offered=report.totals["offered"],
                completed=report.totals["completed"],
                deadline_misses=report.totals["deadline_misses"],
            )
            return report

    def _run(self, arrivals: Iterable[TaskRequest]) -> ServingReport:
        if self._next_id:
            raise ServeError(
                "ServeEngine.run is one-shot; build a fresh engine per run"
            )
        self._arrivals = iter(validate_stream(arrivals))
        self._stream_open = True
        self._activate_initial()
        self._pull_next_arrival()
        if not self._stream_open:
            raise ServeError("arrival stream is empty")
        clock = self.loop.clock
        clock.schedule_call(0.0, self._autoscale_tick, None)
        if self.config.online_tuning:
            clock.schedule_call_in(
                self.config.harvest_interval_s, self._harvest_tick, None
            )
        self.loop.run()
        if self.config.online_tuning:
            self._harvest_window()  # fold the tail window
        return self._build_report()

    def _build_report(self) -> ServingReport:
        return ServingReport(
            platform=self.platform.name,
            scheduler=self.scheduler.name,
            config=self.config.to_payload(),
            duration_s=self.trace.makespan,
            totals=self.slo.totals(),
            tenants=self.slo.tenant_payload(),
            autoscaler=self.autoscaler.to_payload(),
            tuning={
                "online": self.config.online_tuning,
                "harvests": self._harvests,
                "samples": self._harvested_samples,
            },
            requeues=self.loop.stats["requeues"],
            trace=self.trace,
        )
