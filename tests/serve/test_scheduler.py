"""DeadlineScheduler unit tests: scoring, EDF lanes, drain rewind."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.runtime.workers import WorkerContext
from repro.serve.scheduler import (
    SERVE_SCHEDULER_NAMES,
    DeadlineScheduler,
    make_serve_scheduler,
)


class _Task:
    """Minimal scheduler-facing task (id, kernel, dims, deadline)."""

    _next = 0

    def __init__(self, deadline=None, kernel="dgemm"):
        self.id = _Task._next
        _Task._next += 1
        self.kernel = kernel
        self.dims = (8, 8, 8)
        self.priority = 0
        self.tag = f"t{self.id}"
        self.deadline = deadline


class _Cost:
    """Stub cost model: per-lane execution seconds, no transfers."""

    def __init__(self, costs):
        self.costs = costs

    def exec_estimate(self, task, worker):
        return self.costs[worker.instance_id]

    def transfer_estimate(self, task, worker):
        return 0.0

    def supports(self, task, worker):
        return worker.instance_id in self.costs


def _worker(instance_id):
    return WorkerContext(
        instance_id=instance_id,
        entity_id=instance_id,
        pu=None,
        architecture="x86_64",
        memory_node=0,
    )


def _attach(costs, **kwargs):
    sched = DeadlineScheduler(**kwargs)
    workers = [_worker(name) for name in costs]
    sched.attach(workers, _Cost(costs))
    return sched, {w.instance_id: w for w in workers}


class TestScoring:
    def test_no_deadline_behaves_like_dmda(self):
        # fast lane busy until t=3, slow lane free: dmda picks the slow
        # lane (finish 2.0 < 4.0) and so must dmda-slo without a deadline
        sched, workers = _attach({"fast": 1.0, "slow": 2.0})
        sched._set_est_free("fast", 3.0)
        sched.task_ready(_Task(deadline=None), 0.0)
        assert sched.pending_count() == 1
        assert sched.next_task(workers["slow"], 0.0) is not None

    def test_consolidates_on_fast_lane_when_deadline_met(self):
        # same queue state, but a loose deadline: both placements meet it,
        # so the task consolidates onto the fast-executing lane even
        # though it finishes later behind the queue
        sched, workers = _attach({"fast": 1.0, "slow": 2.0})
        sched._set_est_free("fast", 3.0)
        sched.task_ready(_Task(deadline=10.0), 0.0)
        assert sched.next_task(workers["fast"], 3.0) is not None

    def test_spills_when_deadline_at_risk(self):
        # tight deadline: the fast lane's backlog would miss it, the free
        # slow lane meets it — spill wins
        sched, workers = _attach({"fast": 1.0, "slow": 2.0})
        sched._set_est_free("fast", 3.0)
        sched.task_ready(_Task(deadline=2.5), 0.0)
        assert sched.next_task(workers["slow"], 0.0) is not None

    def test_least_lateness_under_total_overload(self):
        # nobody meets the deadline: least predicted lateness wins
        sched, workers = _attach({"fast": 1.0, "slow": 2.0})
        sched._set_est_free("fast", 3.0)
        sched._set_est_free("slow", 3.0)
        sched.task_ready(_Task(deadline=1.0), 0.0)
        assert sched.next_task(workers["fast"], 3.0) is not None

    def test_miss_weight_zero_is_plain_dmda(self):
        sched, workers = _attach({"fast": 1.0, "slow": 2.0}, miss_weight=0.0)
        sched._set_est_free("fast", 3.0)
        sched.task_ready(_Task(deadline=10.0), 0.0)
        assert sched.next_task(workers["slow"], 0.0) is not None

    def test_unsupported_kernel_raises(self):
        sched, _ = _attach({"fast": 1.0})
        task = _Task()
        task.kernel = "nope"
        cost = sched.cost
        cost.supports = lambda task, worker: False
        with pytest.raises(SchedulerError, match="no worker supports"):
            sched.task_ready(task, 0.0)

    def test_negative_miss_weight_rejected(self):
        with pytest.raises(SchedulerError):
            DeadlineScheduler(miss_weight=-1.0)


class _Rows:
    """Batch stub over a scalar cost model: one row per task, +inf on
    lanes without an implementation (what the runtime's cost rows give)."""

    def __init__(self, cost, workers):
        self.cost = cost
        self.workers = workers

    def cost_row(self, task, data_aware):
        return np.array(
            [
                self.cost.exec_estimate(task, w) + self.cost.transfer_estimate(task, w)
                if self.cost.supports(task, w)
                else np.inf
                for w in self.workers
            ]
        )


_lane_costs = st.lists(
    st.one_of(st.none(), st.floats(0.001, 4.0)), min_size=1, max_size=6
).filter(lambda costs: any(c is not None for c in costs))


@settings(max_examples=60, deadline=None)
@given(
    costs=_lane_costs,
    arrivals=st.lists(
        st.tuples(st.floats(0.0, 2.0), st.one_of(st.none(), st.floats(0.0, 8.0))),
        min_size=1,
        max_size=12,
    ),
    miss_weight=st.sampled_from([0.0, 0.5, 4.0]),
)
def test_row_scoring_places_like_scalar_scoring(costs, arrivals, miss_weight):
    """Scoring from a cost row and from the scalar cost model place every
    task on the same lane, with the same charges and est-free clocks."""
    lane_costs = {f"w{i}": c for i, c in enumerate(costs) if c is not None}
    names = [f"w{i}" for i in range(len(costs))]
    scalar = DeadlineScheduler(miss_weight=miss_weight)
    scalar.attach([_worker(n) for n in names], _Cost(lane_costs))
    rows = DeadlineScheduler(miss_weight=miss_weight)
    row_workers = [_worker(n) for n in names]
    rows.attach(row_workers, _Cost(lane_costs))
    assert rows.enable_batch(_Rows(_Cost(lane_costs), row_workers))
    now = 0.0
    for step, deadline in arrivals:
        now += step
        task = _Task(deadline=None if deadline is None else now + deadline)
        scalar.task_ready(task, now)
        rows.task_ready(task, now)
    assert {n: list(q) for n, q in rows._queues.items()} == {
        n: list(q) for n, q in scalar._queues.items()
    }
    assert rows._charge == scalar._charge
    assert rows._est_free == scalar._est_free


class TestEDFQueues:
    def test_pops_earliest_deadline_first(self):
        sched, workers = _attach({"only": 1.0})
        loose = _Task(deadline=9.0)
        tight = _Task(deadline=2.0)
        none = _Task(deadline=None)
        sched.task_ready(loose, 0.0)
        sched.task_ready(none, 0.0)
        sched.task_ready(tight, 0.0)
        order = [
            sched.next_task(workers["only"], 0.0) for _ in range(3)
        ]
        assert order == [tight, loose, none]

    def test_deadline_ties_break_by_admission_order(self):
        sched, workers = _attach({"only": 1.0})
        first = _Task(deadline=5.0)
        second = _Task(deadline=5.0)
        sched.task_ready(first, 0.0)
        sched.task_ready(second, 0.0)
        assert sched.next_task(workers["only"], 0.0) is first


class TestDrainRewind:
    def test_drain_rewinds_est_free_accounting(self):
        # the autoscaler's graceful retirement path: drain must rewind the
        # lane's est-free clock to its committed (in-flight) work only
        sched, workers = _attach({"a": 1.0, "b": 1.0})
        lane = workers["a"]
        tasks = [_Task(deadline=100.0 + i) for i in range(4)]
        for t in tasks:
            sched.task_ready(t, 0.0)
        queued_on_a = len(sched._queues["a"])
        drained = sched.drain(lane)
        assert len(drained) == queued_on_a
        assert sched._queues["a"] == type(sched._queues["a"])()
        assert sched._est_free["a"] == sched._committed["a"]
        # the engine deactivates the lane (supports() goes false) before
        # requeueing, so re-placement lands on the surviving lane only
        del sched.cost.costs["a"]
        for t in drained:
            sched.task_ready(t, 0.0)
        assert len(sched._queues["a"]) == 0
        assert len(sched._queues["b"]) >= queued_on_a


class TestFactory:
    def test_names(self):
        for name in SERVE_SCHEDULER_NAMES:
            sched = make_serve_scheduler(name)
            assert sched.name == name

    def test_miss_weight_forwarded(self):
        sched = make_serve_scheduler("dmda-slo", miss_weight=7.0)
        assert sched.miss_weight == 7.0

    def test_unknown_and_unsupported_rejected(self):
        with pytest.raises(SchedulerError):
            make_serve_scheduler("nope")
        # ws/random lack the est-free accounting drain-down relies on
        with pytest.raises(SchedulerError):
            make_serve_scheduler("ws")
