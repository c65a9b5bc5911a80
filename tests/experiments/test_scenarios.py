"""Tests for the ablation scenarios (XTRA-SCHED, block sweep, scale)."""

import pytest

from repro.experiments.scenarios import (
    block_size_sweep,
    scheduler_ablation,
    synthetic_manycore_platform,
)
from repro.experiments.workloads import submit_tiled_dgemm
from repro.model.groups import GroupRegistry
from repro.model.validation import collect_violations
from repro.pdl.catalog import load_platform
from repro.pdl.parser import parse_pdl
from repro.pdl.writer import write_pdl
from repro.query.selectors import select
from repro.runtime.engine import RuntimeEngine


class TestSchedulerAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        return scheduler_ablation(n=2048, block_size=256)

    def test_all_policies_run(self, rows):
        assert [r.scheduler for r in rows] == [
            "eager", "ws", "dm", "dmda", "random",
        ]
        assert all(r.time_s > 0 for r in rows)

    def test_informed_policies_competitive(self, rows):
        by_name = {r.scheduler: r for r in rows}
        # dmda should never lose badly to random placement
        assert by_name["dmda"].time_s <= by_name["random"].time_s * 1.5

    def test_gpu_usage_tracked(self, rows):
        assert all(r.tasks_on_gpu >= 0 for r in rows)
        assert any(r.tasks_on_gpu > 0 for r in rows)

    def test_custom_scheduler_subset(self):
        rows = scheduler_ablation(
            n=1024, block_size=256, schedulers=("eager", "dmda")
        )
        assert len(rows) == 2


class TestBlockSizeSweep:
    @pytest.fixture(scope="class")
    def rows(self):
        return block_size_sweep(n=4096, block_sizes=(256, 512, 1024, 2048))

    def test_task_counts(self, rows):
        assert [r.tasks for r in rows] == [16**3, 8**3, 4**3, 2**3]

    def test_u_curve(self, rows):
        """Neither extreme should win: the sweet spot is interior."""
        best = min(rows, key=lambda r: r.time_s)
        assert best.block_size not in (rows[0].block_size, rows[-1].block_size)

    def test_gflops_positive(self, rows):
        assert all(r.gflops > 0 for r in rows)


class TestPaperSize:
    """The ablations at the Figure-5 size: DGEMM 8192 on xeon_x5550_2gpu."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return block_size_sweep(n=8192, block_sizes=(256, 512, 1024, 2048, 4096))

    def test_scheduler_ablation(self):
        rows = scheduler_ablation(n=8192, block_size=1024)
        by_name = {r.scheduler: r for r in rows}
        # informed policies beat the random baseline or tie
        assert by_name["dmda"].time_s <= by_name["random"].time_s * 1.25
        # every policy gives the GPUs work
        assert all(r.tasks_on_gpu > 0 for r in rows)

    def test_block_size_sweet_spot_is_interior(self, sweep):
        best = min(sweep, key=lambda r: r.time_s)
        assert best.block_size in (512, 1024, 2048)

    def test_prefetch_never_hurts(self, sweep):
        """dmda with operand prefetching against the sweep's runs
        (prefetch is off by default) at tiles 256, 512 and 1024."""
        base = {r.block_size: r.time_s for r in sweep}
        for bs in (256, 512, 1024):
            engine = RuntimeEngine(
                load_platform("xeon_x5550_2gpu"), scheduler="dmda", prefetch=True
            )
            submit_tiled_dgemm(engine, 8192, bs)
            assert engine.run().makespan <= base[bs] * 1.001, bs


class TestSyntheticManycore:
    def test_platform_valid_at_scale(self):
        for n in (4, 64, 256):
            platform = synthetic_manycore_platform(n)
            platform.validate()
            assert len(platform.workers()) == n
            assert len(platform.interconnects()) == n

    def test_architecture_mix(self):
        platform = synthetic_manycore_platform(10)
        archs = {pu.architecture for pu in platform.workers()}
        assert archs == {"x86_64", "gpu"}

    @pytest.mark.parametrize("workers", [10, 100, 1000])
    def test_serialized_descriptor_validates(self, workers):
        text = write_pdl(synthetic_manycore_platform(workers))
        platform = parse_pdl(text, validate=False)
        assert platform.total_pu_count() == workers + 1
        assert collect_violations(platform) == []

    def test_queries_at_1000_workers(self):
        platform = synthetic_manycore_platform(1000)
        assert collect_violations(platform) == []
        assert len(select(platform, "Worker[ARCHITECTURE=gpu]")) == 500
        assert len(GroupRegistry(platform)) >= 2

    def test_groups_populated(self):
        platform = synthetic_manycore_platform(16, groups_per_worker=2)
        groups = platform.groups()
        assert len(groups) >= 2
        total_memberships = sum(len(v) for v in groups.values())
        assert total_memberships == 16 * 2  # every worker in 2 groups
