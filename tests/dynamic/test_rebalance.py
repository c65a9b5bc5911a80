"""Integration tests: descriptor-driven re-scheduling across revisions."""

import pytest

from repro.dynamic import (
    DynamicPlatform,
    FrequencyChange,
    PUOffline,
    PUOnline,
    run_across_revisions,
)
from repro.pdl.catalog import load_platform
from repro.experiments.workloads import submit_tiled_dgemm


@pytest.fixture(scope="module")
def runs():
    dyn = DynamicPlatform(load_platform("xeon_x5550_2gpu"))
    return run_across_revisions(
        dyn,
        lambda engine: submit_tiled_dgemm(engine, 4096, 512),
        [
            PUOffline("gpu0", reason="thermal emergency"),
            PUOffline("gpu1", reason="driver crash"),
            PUOnline("gpu0"),
        ],
    )


class TestRevisionRuns:
    def test_one_run_per_revision(self, runs):
        assert [r.revision for r in runs] == [0, 1, 2, 3]
        assert runs[0].event == ""
        assert "thermal" in runs[1].event

    def test_losing_gpus_slows_down(self, runs):
        base, one_gpu, no_gpu, recovered = runs
        assert one_gpu.makespan > base.makespan
        assert no_gpu.makespan > one_gpu.makespan

    def test_recovery_helps(self, runs):
        no_gpu, recovered = runs[2], runs[3]
        assert recovered.makespan < no_gpu.makespan

    def test_task_migration_visible(self, runs):
        base, _, no_gpu, _ = runs
        assert base.tasks_by_architecture.get("gpu", 0) > 0
        assert no_gpu.tasks_by_architecture.get("gpu", 0) == 0
        assert no_gpu.tasks_by_architecture["x86_64"] == 512

    def test_cpu_only_degradation_factor(self, runs):
        base, _, no_gpu, _ = runs
        # losing both GPUs should cost roughly the fig5 gpu/cpu ratio (~2.5x)
        assert 1.5 < no_gpu.makespan / base.makespan < 4.5


class TestPaperSize:
    """XTRA-DYN at the Figure-5 size (DGEMM 8192/1024): both GPUs fail,
    the CPUs are downclocked, then everything recovers."""

    @pytest.fixture(scope="class")
    def runs(self):
        dyn = DynamicPlatform(load_platform("xeon_x5550_2gpu"))
        return run_across_revisions(
            dyn,
            lambda engine: submit_tiled_dgemm(engine, 8192, 1024),
            [
                PUOffline("gpu0", reason="thermal"),
                PUOffline("gpu1", reason="driver"),
                FrequencyChange("cpu", new_ghz=2.0),
                PUOnline("gpu0"),
                PUOnline("gpu1"),
                FrequencyChange("cpu", new_ghz=2.66),
            ],
        )

    def test_degraded_revision_is_cpu_only_and_slow(self, runs):
        base, degraded = runs[0], runs[3]  # no GPUs + downclocked CPUs
        assert degraded.makespan > 2.0 * base.makespan
        assert degraded.tasks_by_architecture.get("gpu", 0) == 0

    def test_full_recovery_returns_to_baseline(self, runs):
        assert runs[-1].makespan == pytest.approx(runs[0].makespan, rel=0.05)


class TestDVFS:
    def test_downclock_slows_cpu_platform(self):
        dyn = DynamicPlatform(load_platform("xeon_x5550_dual"))
        runs = run_across_revisions(
            dyn,
            lambda engine: submit_tiled_dgemm(engine, 2048, 512),
            [FrequencyChange("cpu", new_ghz=1.33)],
        )
        base, slow = runs
        # half the clock => about twice the time (compute-bound DGEMM)
        assert slow.makespan / base.makespan == pytest.approx(2.0, rel=0.1)
