"""Tests for analytic makespan prediction (XTRA-PREDICT)."""

import pytest

from repro.errors import PerfModelError
from repro.pdl.catalog import load_platform
from repro.predict import predict_engine
from repro.runtime.engine import RuntimeEngine
from repro.experiments.workloads import (
    submit_tiled_cholesky,
    submit_tiled_dgemm,
    submit_vecadd,
)


def fresh_engine(platform_name="xeon_x5550_2gpu", **kwargs):
    return RuntimeEngine(load_platform(platform_name), **kwargs)


class TestBounds:
    def test_requires_tasks(self):
        with pytest.raises(PerfModelError, match="no tasks"):
            predict_engine(fresh_engine())

    def test_area_bound_exact_for_uniform_cpu_workload(self):
        """Homogeneous platform + uniform tasks: area bound is tight."""
        engine = fresh_engine("xeon_x5550_dual", scheduler="dmda")
        submit_tiled_dgemm(engine, 8192, 1024)
        prediction = predict_engine(engine)
        result = engine.run()
        assert prediction.binding_bound == "area"
        assert prediction.compare(result) == pytest.approx(1.0, rel=0.05)

    def test_heterogeneous_dgemm_within_25_percent(self):
        engine = fresh_engine(scheduler="dmda")
        submit_tiled_dgemm(engine, 8192, 1024)
        prediction = predict_engine(engine)
        result = engine.run()
        assert prediction.task_count == 512
        assert 0.9 < prediction.compare(result) < 1.25

    def test_cholesky_within_35_percent(self):
        # p=16 tiles: enough parallelism for the area bound to be useful
        engine = fresh_engine(scheduler="dmda")
        submit_tiled_cholesky(engine, 8192, 512)
        prediction = predict_engine(engine)
        result = engine.run()
        assert 0.9 < prediction.compare(result) < 1.35

    def test_cholesky_on_cell_within_60_percent(self):
        engine = fresh_engine("cell_qs22", scheduler="dmda")
        submit_tiled_cholesky(engine, 8192, 512)
        prediction = predict_engine(engine)
        result = engine.run()
        assert 0.9 < prediction.compare(result) < 1.6

    def test_cholesky_small_tile_count_degrades_gracefully(self):
        # p=8: the dependency spine dominates and the bounds loosen,
        # but stay within 2x
        engine = fresh_engine(scheduler="dmda")
        submit_tiled_cholesky(engine, 4096, 512)
        prediction = predict_engine(engine)
        result = engine.run()
        assert 1.0 <= prediction.compare(result) < 2.0

    def test_chain_workload_is_cp_bound(self):
        """A pure RW chain has no parallelism: CP bound must dominate."""
        engine = fresh_engine()
        x = engine.register(shape=(512, 512), name="x")
        a = engine.register(shape=(512, 512), name="a")
        b = engine.register(shape=(512, 512), name="b")
        for _ in range(20):
            engine.submit("dgemm", [(x, "rw"), (a, "r"), (b, "r")],
                          dims=(512, 512, 512))
        prediction = predict_engine(engine)
        assert prediction.binding_bound == "critical-path"
        result = engine.run()
        assert prediction.compare(result) == pytest.approx(1.0, rel=0.25)

    def test_cp_and_area_are_true_lower_bounds(self):
        """CP and area bounds must never exceed the simulated makespan
        (the transfer term is a heuristic refinement, not a bound)."""
        for builder, args in [
            (submit_tiled_dgemm, (4096, 512)),
            (submit_tiled_cholesky, (4096, 512)),
            (submit_vecadd, (1 << 22, 16)),
        ]:
            engine = fresh_engine(scheduler="dmda")
            builder(engine, *args)
            prediction = predict_engine(engine)
            result = engine.run()
            lower = max(prediction.critical_path_s, prediction.area_s)
            assert result.makespan >= lower * 0.999, builder


class TestReporting:
    def test_summary_and_groups(self):
        engine = fresh_engine()
        submit_tiled_cholesky(engine, 2048, 512)
        prediction = predict_engine(engine)
        text = prediction.summary()
        assert "predicted" in text and "bound" in text
        assert any(g.startswith("dpotrf") for g in prediction.groups)
        assert prediction.task_count == sum(prediction.groups.values())

    def test_transfer_bound_zero_on_cpu_platform(self):
        engine = fresh_engine("xeon_x5550_dual")
        submit_tiled_dgemm(engine, 2048, 512)
        assert predict_engine(engine).transfer_s == 0.0

    def test_transfer_bound_positive_with_gpus(self):
        engine = fresh_engine()
        submit_tiled_dgemm(engine, 2048, 512)
        assert predict_engine(engine).transfer_s > 0.0
