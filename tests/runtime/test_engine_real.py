"""Integration tests: real (threaded) execution mode."""

import numpy as np
import pytest

from repro.errors import RuntimeEngineError
from repro.runtime.engine import RuntimeEngine
from repro.experiments.workloads import submit_tiled_dgemm, submit_vecadd


class TestRealExecution:
    def test_dgemm_correct(self, small_platform, rng):
        engine = RuntimeEngine(small_platform, scheduler="eager")
        handles = submit_tiled_dgemm(engine, 256, 64, materialize=True)
        a, b = handles.A.array.copy(), handles.B.array.copy()
        result = engine.run_real()
        assert result.mode == "real"
        np.testing.assert_allclose(handles.C.array, a @ b, rtol=1e-10)

    def test_vecadd_correct(self, small_platform):
        engine = RuntimeEngine(small_platform, scheduler="ws")
        A, B = submit_vecadd(engine, 4096, 6, materialize=True)
        expected = A.array + B.array
        engine.run_real()
        np.testing.assert_allclose(A.array, expected)

    def test_vecadd_on_the_figure5_cpu_box(self, cpu_platform):
        """4M-element vecadd in 32 chunks on the 8 host cores."""
        engine = RuntimeEngine(cpu_platform, scheduler="eager")
        submit_vecadd(engine, 1 << 22, 32, materialize=True)
        result = engine.run_real()
        assert result.task_count == 32
        assert result.mode == "real"

    def test_all_schedulers_produce_correct_results(self, small_platform):
        for scheduler in ("eager", "ws", "dm", "dmda", "random"):
            engine = RuntimeEngine(small_platform, scheduler=scheduler)
            handles = submit_tiled_dgemm(engine, 128, 32, materialize=True)
            a, b = handles.A.array.copy(), handles.B.array.copy()
            engine.run_real()
            np.testing.assert_allclose(
                handles.C.array, a @ b, rtol=1e-10,
                err_msg=f"scheduler {scheduler}",
            )

    def test_metadata_only_handles_rejected(self, small_platform):
        engine = RuntimeEngine(small_platform)
        submit_vecadd(engine, 128, 2, materialize=False)
        from repro.errors import DataError

        with pytest.raises(DataError, match="no backing array"):
            engine.run_real()

    def test_trace_recorded(self, small_platform):
        engine = RuntimeEngine(small_platform)
        submit_vecadd(engine, 4096, 6, materialize=True)
        result = engine.run_real()
        assert len(result.trace.tasks) == 6
        assert result.makespan > 0
        assert result.wall_time >= result.makespan * 0.5

    def test_max_threads_limits_workers(self, small_platform):
        engine = RuntimeEngine(small_platform, scheduler="eager")
        submit_vecadd(engine, 4096, 6, materialize=True)
        result = engine.run_real(max_threads=1)
        workers_used = {t.worker_id for t in result.trace.tasks}
        assert len(workers_used) == 1

    def test_kernel_exception_propagates(self, small_platform):
        from repro.kernels.registry import KernelRegistry

        registry = KernelRegistry()
        registry.define("boom", flops=lambda d: 1.0, bytes_touched=lambda d: 1.0)

        @registry.variant("boom", "x86_64")
        def boom_cpu(X):
            raise ValueError("kaboom")

        @registry.variant("boom", "gpu")
        def boom_gpu(X):
            raise ValueError("kaboom")

        engine = RuntimeEngine(small_platform, registry=registry)
        h = engine.register(np.zeros(4))
        engine.submit("boom", [(h, "rw")], dims=(4,))
        with pytest.raises(ValueError, match="kaboom"):
            engine.run_real()

    def test_dependencies_respected(self, small_platform):
        """RW chain must execute in submission order even with threads."""
        engine = RuntimeEngine(small_platform, scheduler="eager")
        x = engine.register(np.zeros(1))
        # each task appends its index via closure-free kernel args: use dscal
        # with alpha chosen so order matters: x = (((0+1)*2+1)*2+1)*2 ...
        a = engine.register(np.ones(1))
        for _ in range(8):
            engine.submit("dvecadd", [(x, "rw"), (a, "r")], dims=(1,))
            engine.submit("dscal", [(x, "rw")], dims=(1,), args={"alpha": 2.0})
        engine.run_real()
        expected = 0.0
        for _ in range(8):
            expected = (expected + 1.0) * 2.0
        assert x.array[0] == pytest.approx(expected)

    def test_double_run_rejected(self, small_platform):
        engine = RuntimeEngine(small_platform)
        submit_vecadd(engine, 128, 2, materialize=True)
        engine.run_real()
        with pytest.raises(RuntimeEngineError, match="already ran"):
            engine.run_real()
