"""Tests for mid-run dynamic events (failures/recovery during simulation).

This is the strongest form of the paper's §VI future work: the descriptor
changes *while the runtime is executing*, and the scheduler adapts —
queued work drains off dead workers, frequency changes re-rate the cost
models, recovery brings lanes back.
"""

import pytest

from repro.dynamic import FrequencyChange, PUOffline, PUOnline
from repro.pdl.catalog import load_platform
from repro.runtime.engine import RuntimeEngine
from repro.runtime.tasks import TaskState
from repro.experiments.workloads import submit_tiled_cholesky, submit_tiled_dgemm


def run_with(events, *, scheduler="dmda", n=4096, bs=512,
             builder=submit_tiled_dgemm):
    engine = RuntimeEngine(load_platform("xeon_x5550_2gpu"),
                           scheduler=scheduler)
    builder(engine, n, bs)
    result = engine.run(dynamic_events=events)
    return engine, result


class TestOutage:
    def test_all_tasks_complete_despite_outage(self):
        engine, result = run_with([(0.2, PUOffline("gpu0"))])
        assert all(t.state == TaskState.DONE for t in engine._tasks)
        assert len(result.trace.tasks) == engine.task_count

    def test_no_starts_on_dead_worker(self):
        _, result = run_with([
            (0.2, PUOffline("gpu0")),
            (0.6, PUOnline("gpu0")),
        ])
        during = [
            t for t in result.trace.tasks
            if t.worker_id == "gpu0" and 0.2 < t.start < 0.6
        ]
        assert during == []

    def test_recovery_resumes_worker(self):
        _, result = run_with([
            (0.1, PUOffline("gpu0")),
            (0.3, PUOnline("gpu0")),
        ])
        after = [
            t for t in result.trace.tasks
            if t.worker_id == "gpu0" and t.start >= 0.3
        ]
        assert after  # the revived gpu picked work back up

    def test_paper_size_outage_window(self):
        """gpu0 out during [1 s, 3 s) of the 8192/1024 run: nothing starts
        on it in the window, nothing is lost, and the run costs more but
        less than 1.6x."""
        _, base = run_with([], n=8192, bs=1024)
        _, outage = run_with(
            [(1.0, PUOffline("gpu0")), (3.0, PUOnline("gpu0"))],
            n=8192, bs=1024,
        )
        started_during = [
            t for t in outage.trace.tasks
            if t.worker_id == "gpu0" and 1.0 < t.start < 3.0
        ]
        assert started_during == []
        assert base.makespan < outage.makespan < base.makespan * 1.6
        assert len(outage.trace.tasks) == 512

    def test_outage_costs_time(self):
        _, base = run_with([])
        _, degraded = run_with([(0.1, PUOffline("gpu0"))])
        assert degraded.makespan > base.makespan

    def test_permanent_cpu_death_moves_work_to_gpus(self):
        _, result = run_with([(0.1, PUOffline("cpu"))])
        late_cpu = [
            t for t in result.trace.tasks
            if t.architecture == "x86_64" and t.start > 0.11
        ]
        assert late_cpu == []
        assert result.trace.tasks_per_architecture()["gpu"] > 0

    @pytest.mark.parametrize("scheduler", ["eager", "ws", "dm", "dmda"])
    def test_every_policy_survives_outage(self, scheduler):
        engine, result = run_with(
            [(0.1, PUOffline("gpu1")), (0.5, PUOnline("gpu1"))],
            scheduler=scheduler, n=2048,
        )
        assert all(t.state == TaskState.DONE for t in engine._tasks)

    def test_running_task_finishes_gracefully(self):
        # a task already running on gpu0 when it dies still completes
        engine, result = run_with([(0.05, PUOffline("gpu0"))])
        spanning = [
            t for t in result.trace.tasks
            if t.worker_id == "gpu0" and t.start < 0.05 < t.end
        ]
        for t in spanning:
            assert t.end > 0.05  # it ran to completion

    def test_cholesky_survives_outage(self):
        engine, result = run_with(
            [(0.05, PUOffline("gpu0"))],
            builder=submit_tiled_cholesky, n=4096, bs=512,
        )
        assert all(t.state == TaskState.DONE for t in engine._tasks)


class TestMidRunDVFS:
    def test_downclock_slows_remaining_work(self):
        _, base = run_with([])
        _, slowed = run_with([(0.05, FrequencyChange("cpu", new_ghz=1.0))])
        assert slowed.makespan > base.makespan

    def test_event_list_order_irrelevant(self):
        events = [(0.3, PUOffline("gpu0")), (0.1, PUOffline("gpu1"))]
        engine, result = run_with(events)
        assert all(t.state == TaskState.DONE for t in engine._tasks)


class TestDrainSemantics:
    def test_queued_tasks_requeued(self):
        """dmda pre-assigns queues; a dead worker's queue must migrate."""
        engine, result = run_with([(0.01, PUOffline("gpu0"))], n=8192, bs=1024)
        # gpu0 got almost nothing (killed nearly immediately)...
        gpu0_tasks = [t for t in result.trace.tasks if t.worker_id == "gpu0"]
        assert len(gpu0_tasks) <= 3
        # ...yet everything completed elsewhere
        assert len(result.trace.tasks) == 512
