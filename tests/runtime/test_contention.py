"""Tests for the link-contention ablation (`model_contention`)."""

import pytest

from repro.pdl.catalog import load_platform
from repro.runtime.engine import RuntimeEngine
from repro.perf.transfer import TransferModel
from repro.experiments.scenarios import synthetic_mesh_platform
from repro.experiments.workloads import submit_tiled_dgemm


def run(platform, *, contention, n=4096, bs=512):
    engine = RuntimeEngine(platform, scheduler="dmda",
                           model_contention=contention)
    submit_tiled_dgemm(engine, n, bs)
    return engine.run()


class TestAblation:
    def test_ideal_links_never_slower(self):
        with_c = run(load_platform("xeon_x5550_2gpu"), contention=True)
        without = run(load_platform("xeon_x5550_2gpu"), contention=False)
        assert without.makespan <= with_c.makespan + 1e-9

    def test_fig5_robust_to_contention_model(self):
        """Finding: each GPU has its own PCIe link in the testbed, so the
        Figure-5 result barely depends on contention modeling (<5%).
        This is why the paper never discusses bus contention."""
        with_c = run(load_platform("xeon_x5550_2gpu"), contention=True,
                     n=8192, bs=1024)
        without = run(load_platform("xeon_x5550_2gpu"), contention=False,
                      n=8192, bs=1024)
        assert without.makespan == pytest.approx(with_c.makespan, rel=0.05)

    def test_mesh_with_contention_not_faster(self):
        def mesh_run(contention):
            platform = synthetic_mesh_platform(4, 4, distributed_memory=True)
            engine = RuntimeEngine(platform, scheduler="dmda",
                                   model_contention=contention)
            submit_tiled_dgemm(engine, 2048, 256)
            return engine.run().makespan

        assert mesh_run(False) <= mesh_run(True) + 1e-9


class TestInterference:
    def test_fluid_model_engages_in_the_same_regime(self):
        """Declared contention domains on the Figure-5 GPU box (DGEMM
        4096/512): the model changes the timeline, but neither halves
        the makespan nor doubles it."""

        def makespan(model_interference):
            engine = RuntimeEngine(
                load_platform("xeon_x5550_2gpu"), scheduler="dmda",
                model_interference=model_interference,
            )
            submit_tiled_dgemm(engine, 4096, 512)
            return engine.run().makespan

        clean, contended = makespan(False), makespan(True)
        assert contended != clean
        assert 0.9 <= contended / clean < 2.0


class TestTransferModelFlag:
    def test_ideal_mode_no_queueing(self, gpgpu_platform):
        model = TransferModel(gpgpu_platform, model_contention=False)
        nbytes = 64 * 2**20
        first = model.schedule("host", "gpu0", nbytes, now=0.0)
        second = model.schedule("host", "gpu0", nbytes, now=0.0)
        # both start immediately: links are infinitely shareable
        assert first.start == second.start == 0.0
        assert first.finish == pytest.approx(second.finish)
        assert first.finish == pytest.approx(
            model.ideal_time("host", "gpu0", nbytes)
        )

    def test_contended_mode_queues(self, gpgpu_platform):
        model = TransferModel(gpgpu_platform, model_contention=True)
        nbytes = 64 * 2**20
        model.schedule("host", "gpu0", nbytes, now=0.0)
        second = model.schedule("host", "gpu0", nbytes, now=0.0)
        assert second.start > 0.0


class TestTransferModelCaches:
    """Memoized lanes of the transfer model (vectorized engine): exact
    scalar floats, dropped on fabric invalidation."""

    def test_ideal_time_cached_bit_identical(self, gpgpu_platform):
        model = TransferModel(gpgpu_platform)
        nbytes = 8 * 2**20
        assert model.ideal_time_cached("host", "gpu0", nbytes) == model.ideal_time(
            "host", "gpu0", nbytes
        )
        # second hit comes from the memo and stays identical
        assert model.ideal_time_cached("host", "gpu0", nbytes) == model.ideal_time(
            "host", "gpu0", nbytes
        )

    def test_invalidate_routes_drops_ideal_memo(self, gpgpu_platform):
        model = TransferModel(gpgpu_platform)
        model.ideal_time_cached("host", "gpu0", 1024.0)
        assert model._ideal_cache
        model.invalidate_routes()
        assert not model._ideal_cache

    def test_bulk_ideal_times(self, gpgpu_platform):
        model = TransferModel(gpgpu_platform)
        reqs = [("host", "gpu0", 1024.0), ("host", "gpu1", 2048.0)]
        assert model.bulk_ideal_times(reqs) == [
            model.ideal_time(*r) for r in reqs
        ]

    def test_param_cache_schedules_identically(self, gpgpu_platform):
        cached = TransferModel(gpgpu_platform)
        cached.param_cache_enabled = True
        plain = TransferModel(gpgpu_platform)
        nbytes = 16 * 2**20
        for now in (0.0, 0.0, 0.1):
            a = cached.schedule("host", "gpu0", nbytes, now)
            b = plain.schedule("host", "gpu0", nbytes, now)
            assert (a.start, a.finish) == (b.start, b.finish)

    def test_param_cache_dropped_on_invalidation(self, gpgpu_platform):
        model = TransferModel(gpgpu_platform)
        model.param_cache_enabled = True
        model.schedule("host", "gpu0", 1024.0, 0.0)
        assert model._link_params
        model.invalidate_routes()
        assert not model._link_params
