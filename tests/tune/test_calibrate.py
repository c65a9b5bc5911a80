"""Unit tests for the calibration harness."""

import pytest

from repro.errors import TuningError
from repro.pdl.catalog import content_digest, load_platform
from repro.pdl.writer import write_pdl
from repro.runtime.engine import RuntimeEngine
from repro.experiments.workloads import submit_tiled_dgemm
from repro.tune.calibrate import (
    CalibrationConfig,
    Calibrator,
    PinnedScheduler,
    calibrate_platform,
    dims_for,
    harvest_run,
)
from repro.tune.database import TuningDatabase
from repro.tune.model import GroundTruthPerfModel


class TestDimsFor:
    def test_gemm_kernels_cubic(self):
        assert dims_for("dgemm", 256) == (256, 256, 256)
        assert dims_for("dgemm_nt", 128) == (128, 128, 128)

    def test_tile_kernels_edge(self):
        assert dims_for("dpotrf", 512) == (512,)
        assert dims_for("dtrsm", 512) == (512,)
        assert dims_for("dsyrk", 512) == (512,)

    def test_vector_kernels_squared_elements(self):
        assert dims_for("dvecadd", 1024) == (1024 * 1024,)


class TestPinnedScheduler:
    def test_every_task_lands_on_the_pinned_lane(self, gpgpu_platform):
        engine = RuntimeEngine(
            gpgpu_platform, scheduler=PinnedScheduler("gpu1")
        )
        for i in range(4):
            h = engine.register(shape=(256, 256), name=f"m{i}")
            engine.submit("dgemm", [(h, "rw")], dims=(256, 256, 256))
        result = engine.run()
        assert {t.worker_id for t in result.trace.tasks} == {"gpu1"}

    def test_unknown_lane_raises(self, gpgpu_platform):
        with pytest.raises(TuningError):
            RuntimeEngine(gpgpu_platform, scheduler=PinnedScheduler("nope#9"))


class TestCalibrationConfig:
    def test_validation(self):
        with pytest.raises(TuningError):
            CalibrationConfig(repeats=0)
        with pytest.raises(TuningError):
            CalibrationConfig(noise=-0.1)
        with pytest.raises(TuningError):
            CalibrationConfig(kernels=())
        with pytest.raises(TuningError):
            CalibrationConfig(sizes=())


class TestCalibrator:
    def test_sweep_covers_every_entity_kernel_size(
        self, gpgpu_platform, quick_config, degraded_truth
    ):
        db, digest = calibrate_platform(
            gpgpu_platform, config=quick_config, perf_model=degraded_truth
        )
        assert digest == content_digest(write_pdl(gpgpu_platform))
        # 3 worker entities x 1 kernel x 2 sizes x 2 repeats
        assert db.sample_count(digest) == 12
        assert db.pus(digest) == ["cpu", "gpu0", "gpu1"]
        assert set(db.kernels(digest)) == {"dgemm"}
        for pu in db.pus(digest):
            for size in quick_config.sizes:
                dims = dims_for("dgemm", size)
                hits = [
                    s
                    for s in db.samples(digest, pu=pu)
                    if s.dims == dims
                ]
                assert len(hits) == quick_config.repeats

    def test_samples_record_truth_not_descriptor_claim(
        self, gpgpu_platform, quick_config, degraded_truth
    ):
        db, digest = calibrate_platform(
            gpgpu_platform, config=quick_config, perf_model=degraded_truth
        )
        gpu0 = gpgpu_platform.pu("gpu0")
        for size in quick_config.sizes:
            hits = [
                s
                for s in db.samples(digest, pu="gpu0")
                if s.dims == (size, size, size)
            ]
            expected = degraded_truth.dgemm_time(gpu0, size, size, size)
            for s in hits:
                assert s.seconds == pytest.approx(expected, rel=1e-9)

    def test_noise_is_deterministic_per_seed(self, gpgpu_platform):
        cfg = CalibrationConfig(
            kernels=("dgemm",), sizes=(256,), repeats=3, noise=0.1, seed=11
        )
        db1, d1 = calibrate_platform(gpgpu_platform, config=cfg)
        db2, _ = calibrate_platform(gpgpu_platform, config=cfg)
        assert db1.fingerprint() == db2.fingerprint()
        # repeats actually differ from each other under noise
        seconds = {
            s.seconds
            for s in db1.samples(d1, pu="cpu")
            if s.dims == (256, 256, 256)
        }
        assert len(seconds) == 3

    def test_transfers_recorded_for_gpu_lanes(self, calibrated):
        db, digest = calibrated
        transfers = db.transfers(digest)
        assert transfers
        assert {t.src for t in transfers} | {t.dst for t in transfers} >= {
            "host",
            "gpu0",
        }

    def test_unsupported_kernel_yields_no_samples(self, cpu_platform):
        # dgemm runs everywhere; an all-unsupported sweep must fail loudly
        # rather than writing an empty profile
        calibrator = Calibrator(
            cpu_platform,
            config=CalibrationConfig(kernels=("dgemm",), sizes=(128,), repeats=1),
        )
        db = calibrator.run()
        assert db.pus(calibrator.digest) == ["cpu"]


class TestHarvestRun:
    def test_production_run_feeds_the_database(self, gpgpu_platform):
        engine = RuntimeEngine(gpgpu_platform, scheduler="dmda")
        submit_tiled_dgemm(engine, 1024, 512)
        result = engine.run()
        db = TuningDatabase()
        recorded = harvest_run(engine, result, db, source="prod")
        digest = content_digest(write_pdl(gpgpu_platform))
        assert recorded == 8  # (1024/512)^3 tasks
        assert db.sample_count(digest) == 8
        assert all(s.source == "prod" for s in db.samples(digest))
        assert all(s.dims == (512, 512, 512) for s in db.samples(digest))
