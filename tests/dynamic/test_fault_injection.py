"""Fault injection through the dynamic-event stream (sim mode).

``WorkerFault`` is abrupt lane death (in-flight work lost and requeued,
the lane never revives); ``TaskFault`` fails one attempt of one task and
hands the decision to the engine's retry policy.  Also hosts the
prefetch-accounting regression test and the acceptance scenario: a DGEMM
tile run on the Figure-5 GPU platform with a GPU killed mid-run, in both
execution modes.
"""

import numpy as np
import pytest

from repro.dynamic import PUOffline, PUOnline, TaskFault, WorkerFault
from repro.errors import RuntimeEngineError, TaskFailureError
from repro.experiments.workloads import submit_tiled_dgemm
from repro.model import PlatformBuilder
from repro.model.entities import MemoryRegion
from repro.pdl.catalog import load_platform
from repro.runtime.engine import RuntimeEngine
from repro.runtime.faults import FaultPolicy
from repro.runtime.tasks import TaskState

NO_BACKOFF = FaultPolicy(max_retries=2, backoff_base_s=0.0)


def run_dgemm_with(events, *, scheduler="dmda", n=4096, bs=512, **kwargs):
    engine = RuntimeEngine(load_platform("xeon_x5550_2gpu"), scheduler=scheduler)
    submit_tiled_dgemm(engine, n, bs)
    result = engine.run(dynamic_events=events, **kwargs)
    return engine, result


class TestWorkerFault:
    def test_inflight_aborted_yet_all_tasks_complete(self):
        engine, result = run_dgemm_with([(0.05, WorkerFault("gpu0"))])
        assert all(t.state is TaskState.DONE for t in engine._tasks)
        assert len(result.trace.tasks) == engine.task_count
        # abrupt death: unlike graceful PUOffline, nothing completes on
        # the lane after the fault lands
        assert not any(
            t.worker_id == "gpu0" and t.end > 0.05 for t in result.trace.tasks
        )
        assert result.worker_failures == 1
        assert result.requeue_count >= 1
        counts = result.trace.fault_counts()
        assert counts["worker-fault"] == 1
        assert counts["requeue"] == result.requeue_count

    def test_retired_lane_ignores_online_event(self):
        engine, result = run_dgemm_with([
            (0.05, WorkerFault("gpu0")),
            (0.10, PUOnline("gpu0")),
        ])
        assert all(t.state is TaskState.DONE for t in engine._tasks)
        # a WorkerFault is permanent; PUOnline must not revive the lane
        assert not any(
            t.worker_id == "gpu0" and t.start > 0.05 for t in result.trace.tasks
        )

    def test_graceful_offline_still_revivable(self):
        # sanity: plain PUOffline keeps its revive-on-online semantics
        engine, result = run_dgemm_with([
            (0.05, PUOffline("gpu0")),
            (0.10, PUOnline("gpu0")),
        ])
        assert any(
            t.worker_id == "gpu0" and t.start > 0.10 for t in result.trace.tasks
        )

    def test_requeue_does_not_consume_retry_budget(self):
        # with retry disabled entirely, lane-death requeues must still work
        engine, result = run_dgemm_with(
            [(0.05, WorkerFault("gpu0"))],
            fault_policy=FaultPolicy(max_retries=0),
        )
        assert all(t.state is TaskState.DONE for t in engine._tasks)
        assert result.task_failures == 0

    def test_worker_fault_costs_time(self):
        _, base = run_dgemm_with([])
        _, degraded = run_dgemm_with([(0.05, WorkerFault("gpu0"))])
        assert degraded.makespan > base.makespan

    @pytest.mark.parametrize("scheduler", ["eager", "ws", "dm", "dmda"])
    def test_every_policy_survives_worker_fault(self, scheduler):
        engine, result = run_dgemm_with(
            [(0.05, WorkerFault("gpu1"))], scheduler=scheduler, n=2048
        )
        assert all(t.state is TaskState.DONE for t in engine._tasks)


class TestTaskFault:
    def _solo_engine(self, platform):
        engine = RuntimeEngine(platform, scheduler="dmda")
        c = engine.register(shape=(256, 256), name="C")
        a = engine.register(shape=(256, 256), name="A")
        b = engine.register(shape=(256, 256), name="B")
        engine.submit(
            "dgemm", [(c, "rw"), (a, "r"), (b, "r")],
            dims=(256, 256, 256), tag="solo",
        )
        return engine

    def test_running_task_faulted_and_retried(self, small_platform):
        engine = self._solo_engine(small_platform)
        result = engine.run(
            dynamic_events=[(1e-6, TaskFault(task_tag="solo"))],
            fault_policy=NO_BACKOFF,
        )
        assert engine._tasks[0].state is TaskState.DONE
        assert result.task_failures == 1
        assert result.retry_count == 1
        assert result.trace.fault_counts() == {"task-fault": 1, "retry": 1}
        assert "faults:" in result.summary()

    def test_armed_fault_fails_next_start(self, small_platform):
        engine = RuntimeEngine(small_platform, scheduler="dmda")
        c = engine.register(shape=(256, 256), name="C")
        a = engine.register(shape=(256, 256), name="A")
        b = engine.register(shape=(256, 256), name="B")
        first = engine.submit(
            "dgemm", [(c, "rw"), (a, "r"), (b, "r")],
            dims=(256, 256, 256), tag="first",
        )
        engine.submit(  # WAW on c: blocked until `first` completes
            "dgemm", [(c, "rw"), (a, "r"), (b, "r")],
            dims=(256, 256, 256), tag="second",
        )
        result = engine.run(
            dynamic_events=[(1e-6, TaskFault(task_tag="second"))],
            fault_policy=NO_BACKOFF,
        )
        assert all(t.state is TaskState.DONE for t in engine._tasks)
        assert result.task_failures == 1
        assert result.retry_count == 1

    def test_retry_budget_exhaustion_raises(self, small_platform):
        engine = self._solo_engine(small_platform)
        with pytest.raises(TaskFailureError, match="failed permanently"):
            engine.run(
                dynamic_events=[(1e-6, TaskFault(task_tag="solo"))],
                fault_policy=FaultPolicy(max_retries=0),
            )
        assert engine._tasks[0].state is TaskState.FAILED

    def test_unknown_tag_rejected(self, small_platform):
        engine = self._solo_engine(small_platform)
        with pytest.raises(RuntimeEngineError, match="no submitted task"):
            engine.run(dynamic_events=[(0.0, TaskFault(task_tag="nope"))])

    def test_fault_after_completion_is_noop(self, small_platform):
        engine = self._solo_engine(small_platform)
        result = engine.run(
            dynamic_events=[(1e9, TaskFault(task_tag="solo"))]
        )
        assert result.task_failures == 0
        assert engine._tasks[0].state is TaskState.DONE

    def test_backoff_delays_retry(self, small_platform):
        engine = self._solo_engine(small_platform)
        slow = engine.run(
            dynamic_events=[(1e-6, TaskFault(task_tag="solo"))],
            fault_policy=FaultPolicy(
                max_retries=1, backoff_base_s=0.5, backoff_cap_s=0.5
            ),
        )
        retry_trace = [t for t in slow.trace.tasks if t.tag == "solo"]
        assert retry_trace and retry_trace[0].start >= 0.5


def twin_gpu_platform():
    """Two GPU lanes with private memory, one 20x faster than the other."""
    platform = (
        PlatformBuilder("twin")
        .master("host", architecture="x86_64")
        .memory("main", size="4 GB")
        .worker(
            "gfast", architecture="gpu",
            properties={"PEAK_GFLOPS_DP": "100.0", "DGEMM_EFFICIENCY": "1.0"},
        )
        .worker(
            "gslow", architecture="gpu",
            properties={"PEAK_GFLOPS_DP": "5.0", "DGEMM_EFFICIENCY": "1.0"},
        )
        .interconnect("host", "gfast", type="PCIe", bandwidth="5 GB/s",
                      latency="10 us")
        .interconnect("host", "gslow", type="PCIe", bandwidth="5 GB/s",
                      latency="10 us")
        .build()
    )
    # private device memory => each gpu is its own memory node, so any
    # staging to the wrong lane is visible in the transfer trace
    platform.pu("gfast").add_memory_region(MemoryRegion("gfast_mem"))
    platform.pu("gslow").add_memory_region(MemoryRegion("gslow_mem"))
    return platform


class TestPrefetchAccounting:
    """A prefetch peeked for a lane the task never runs on must not be
    charged: transfers commit at task start, not at the peek."""

    def _submit_two_independent(self, engine):
        tasks = []
        for i in (1, 2):
            c = engine.register(shape=(256, 256), name=f"C{i}")
            a = engine.register(shape=(256, 256), name=f"A{i}")
            b = engine.register(shape=(256, 256), name=f"B{i}")
            tasks.append(engine.submit(
                "dgemm", [(c, "rw"), (a, "r"), (b, "r")],
                dims=(256, 256, 256), tag=f"t{i}",
            ))
        return tasks

    def test_drained_task_operands_transferred_once(self):
        # dry run to learn when t1 executes on the fast lane
        probe = RuntimeEngine(
            twin_gpu_platform(), scheduler="dmda", prefetch=True
        )
        self._submit_two_independent(probe)
        dry = probe.run()
        t1 = next(t for t in dry.trace.tasks if t.tag == "t1")
        assert t1.worker_id == "gfast"  # both tasks queue on the fast lane
        mid_t1 = (t1.start + t1.end) / 2

        # live run: gfast dies mid-t1, after t2's operands were peeked
        # for prefetch onto gfast's node
        engine = RuntimeEngine(
            twin_gpu_platform(), scheduler="dmda", prefetch=True
        )
        self._submit_two_independent(engine)
        result = engine.run(
            dynamic_events=[(mid_t1, PUOffline("gfast"))]
        )
        assert all(t.state is TaskState.DONE for t in engine._tasks)
        t2 = next(t for t in result.trace.tasks if t.tag == "t2")
        assert t2.worker_id == "gslow"
        assert result.requeue_count == 1
        # the regression: t2's operands used to be staged to gfast at the
        # peek *and* to gslow at start — double-charged
        for name in ("A2", "B2", "C2"):
            device_transfers = [
                tr for tr in result.trace.transfers
                if tr.handle_name == name and tr.dst_node != 0
            ]
            assert len(device_transfers) == 1, name
            assert device_transfers[0].dst_node == engine._node_of_entity["gslow"]

    def test_prefetch_still_commits_when_task_runs_in_place(self):
        engine = RuntimeEngine(
            twin_gpu_platform(), scheduler="dmda", prefetch=True
        )
        self._submit_two_independent(engine)
        result = engine.run()
        t1 = next(t for t in result.trace.tasks if t.tag == "t1")
        t2 = next(t for t in result.trace.tasks if t.tag == "t2")
        # prefetch overlaps t2's staging with t1's compute: the transfers
        # are back-dated to t1's execution window
        t2_stage = [
            tr for tr in result.trace.transfers
            if tr.handle_name in ("A2", "B2", "C2") and tr.dst_node != 0
        ]
        assert t2_stage
        assert min(tr.start for tr in t2_stage) < t1.end
        assert t2.transfer_wait < t2_stage[0].end - t2_stage[0].start + 1e-9


class TestAcceptance:
    """DGEMM tile run on the Figure-5 GPU platform with one GPU lane
    killed mid-run, in both execution modes, and faults at the paper
    size."""

    @pytest.fixture(scope="class")
    def paper_baseline(self):
        """Makespan of the fault-free 8192/1024 dmda run."""
        return run_dgemm_with([], n=8192, bs=1024)[1].makespan

    def test_sim_gpu_killed_midrun(self):
        engine, result = run_dgemm_with([(0.1, WorkerFault("gpu0"))])
        assert all(t.state is TaskState.DONE for t in engine._tasks)
        assert result.worker_failures == 1
        assert result.requeue_count >= 1
        assert "faults:" in result.summary()

    def test_paper_size_gpu_death_degrades_boundedly(self, paper_baseline):
        """gpu0 dies at t = 1 s of the 8192/1024 run: every task still
        completes exactly once and the survivors absorb the work."""
        engine, hit = run_dgemm_with(
            [(1.0, WorkerFault("gpu0", reason="ecc"))], n=8192, bs=1024
        )
        assert all(t.state is TaskState.DONE for t in engine._tasks)
        assert len(hit.trace.tasks) == 512  # nothing lost, nothing doubled
        assert hit.worker_failures == 1
        assert hit.requeue_count >= 1
        assert paper_baseline < hit.makespan < paper_baseline * 2.5

    def test_paper_size_transient_faults_retried(self, paper_baseline):
        """Four transient task faults on the 8192/1024 run, retried."""
        _, faulted = run_dgemm_with(
            [(0.01 * (i + 1), TaskFault(task_tag=f"dgemm[{i},{i},0]"))
             for i in range(4)],
            n=8192, bs=1024,
            fault_policy=FaultPolicy(max_retries=2, backoff_base_s=0.001),
        )
        assert faulted.retry_count == faulted.task_failures
        assert len(faulted.trace.tasks) == 512
        assert faulted.makespan < paper_baseline * 1.5

    def test_real_gpu_killed_midrun(self, gpgpu_platform):
        engine = RuntimeEngine(gpgpu_platform, scheduler="eager")
        handles = submit_tiled_dgemm(engine, 1024, 128, materialize=True)
        a, b = handles.A.array.copy(), handles.B.array.copy()
        result = engine.run_real(
            watchdog_s=30.0, kill_at=[(0.01, "gpu0")]
        )
        assert all(t.state is TaskState.DONE for t in engine._tasks)
        assert result.worker_failures == 1
        np.testing.assert_allclose(handles.C.array, a @ b, rtol=1e-8)
