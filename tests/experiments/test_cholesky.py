"""Tests for the tiled-Cholesky workload (second domain application)."""

import numpy as np
import pytest

from repro.errors import DistributionError
from repro.pdl.catalog import load_platform
from repro.runtime.engine import RuntimeEngine
from repro.experiments.workloads import cholesky_flops, submit_tiled_cholesky


def task_count(p):
    """POTRF: p, TRSM: p(p-1)/2, SYRK: p(p-1)/2, GEMM: p(p-1)(p-2)/6."""
    return p + p * (p - 1) // 2 + p * (p - 1) // 2 + p * (p - 1) * (p - 2) // 6


class TestGraphShape:
    def test_task_counts(self, small_platform):
        for n, bs in ((1024, 256), (2048, 256)):
            engine = RuntimeEngine(small_platform)
            submit_tiled_cholesky(engine, n, bs)
            assert engine.task_count == task_count(n // bs)

    def test_kernel_mix(self, small_platform):
        engine = RuntimeEngine(small_platform)
        submit_tiled_cholesky(engine, 1024, 256)
        kernels = {}
        for task in engine._tasks:
            kernels[task.kernel] = kernels.get(task.kernel, 0) + 1
        assert kernels == {"dpotrf": 4, "dtrsm": 6, "dsyrk": 6, "dgemm_nt": 4}

    def test_only_first_potrf_ready(self, small_platform):
        engine = RuntimeEngine(small_platform)
        submit_tiled_cholesky(engine, 1024, 256)
        ready = [t for t in engine._tasks if t.ready]
        assert len(ready) == 1
        assert ready[0].kernel == "dpotrf"

    def test_size_must_divide(self, small_platform):
        engine = RuntimeEngine(small_platform)
        with pytest.raises(DistributionError):
            submit_tiled_cholesky(engine, 1000, 256)


class TestFunctional:
    @pytest.mark.parametrize("scheduler", ["eager", "dmda"])
    def test_factorization_correct_sim(self, small_platform, scheduler):
        engine = RuntimeEngine(small_platform, scheduler=scheduler,
                               execute_kernels=True)
        A = submit_tiled_cholesky(engine, 128, 32, materialize=True)
        original = A.array.copy()
        engine.run()
        L = np.tril(A.array)
        np.testing.assert_allclose(L @ L.T, original, rtol=1e-8)

    def test_factorization_correct_real_threads(self, small_platform):
        engine = RuntimeEngine(small_platform, scheduler="ws")
        A = submit_tiled_cholesky(engine, 128, 32, materialize=True)
        original = A.array.copy()
        engine.run_real()
        L = np.tril(A.array)
        np.testing.assert_allclose(L @ L.T, original, rtol=1e-8)


class TestPerformance:
    @pytest.fixture(scope="class")
    def runs(self):
        """The XTRA-CHOL figure: 8192/512 dmda on both Figure-5 boxes."""
        runs = {}
        for name in ("xeon_x5550_dual", "xeon_x5550_2gpu"):
            engine = RuntimeEngine(load_platform(name), scheduler="dmda")
            submit_tiled_cholesky(engine, 8192, 512)
            runs[name] = (engine.task_count, engine.run())
        return runs

    def test_gpu_platform_faster(self, runs):
        times = {name: result.makespan for name, (_, result) in runs.items()}
        assert times["xeon_x5550_2gpu"] < times["xeon_x5550_dual"]

    def test_figure_shape(self, runs):
        """816 tasks; the 8 CPU cores beat one core by 3-8.1x (the spine
        caps scaling below DGEMM's)."""
        from repro.perf.models import PerfModel

        cpu = load_platform("xeon_x5550_dual").pu("cpu")
        t_single = cholesky_flops(8192) / (
            PerfModel().pu_performance(cpu).sustained_dgemm_gflops * 1e9
        )
        assert [count for count, _ in runs.values()] == [816, 816]
        _, cpu_run = runs["xeon_x5550_dual"]
        assert 3.0 < t_single / cpu_run.makespan <= 8.1

    def test_flops_helper(self):
        assert cholesky_flops(8192) == pytest.approx(8192**3 / 3)

    def test_less_parallel_than_dgemm(self):
        """Cholesky's dependency structure limits speedup vs DGEMM."""
        from repro.experiments.workloads import submit_tiled_dgemm

        platform = load_platform("xeon_x5550_dual")

        e1 = RuntimeEngine(platform, scheduler="dmda")
        submit_tiled_cholesky(e1, 4096, 512)
        chol = e1.run()
        chol_eff = cholesky_flops(4096) / chol.makespan

        e2 = RuntimeEngine(load_platform("xeon_x5550_dual"), scheduler="dmda")
        submit_tiled_dgemm(e2, 4096, 512)
        gemm = e2.run()
        gemm_eff = (2.0 * 4096**3) / gemm.makespan

        assert chol_eff < gemm_eff  # achieved FLOP/s lower for Cholesky
