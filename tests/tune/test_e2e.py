"""End-to-end acceptance: the full measure → model → select loop.

Calibrate a Figure-5 scenario against distorted "actual hardware",
persist the tuning database, late-bind the measurements into the
descriptor, and verify that a dmda scheduler planning with the
history-based model never does worse than one planning with the
descriptor's analytic optimism.
"""

import pytest

from repro.model.properties import Property
from repro.pdl.catalog import content_digest
from repro.pdl.validator import validate_document
from repro.pdl.writer import write_pdl
from repro.perf.models import PerfModel
from repro.runtime.engine import RuntimeEngine
from repro.experiments.workloads import submit_tiled_dgemm
from repro.tune.calibrate import CalibrationConfig, calibrate_platform
from repro.tune.database import TuningDatabase
from repro.tune.latebind import late_bind
from repro.tune.model import GroundTruthPerfModel, HistoryPerfModel


def run_dgemm(platform, truth, sched_model, *, n=2048, block=512):
    engine = RuntimeEngine(
        platform, scheduler="dmda", perf_model=truth, sched_perf_model=sched_model
    )
    submit_tiled_dgemm(engine, n, block)
    return engine.run().makespan


def test_measure_model_select_loop(gpgpu_platform, tmp_path):
    truth = GroundTruthPerfModel({"gpu0": 0.15})
    config = CalibrationConfig(kernels=("dgemm",), sizes=(256, 512, 1024), repeats=2)

    # 1. calibrate and persist
    db, digest = calibrate_platform(
        gpgpu_platform, config=config, perf_model=truth
    )
    path = str(tmp_path / "tuning.json")
    db.save(path)

    # 2. a fresh toolchain process reloads the same profile
    reloaded = TuningDatabase.load(path)
    assert reloaded.fingerprint() == db.fingerprint()

    # 3. late-bind measurements into a descriptor carrying unfixed slots;
    #    the tuned document re-validates and re-serializes stably
    platform = gpgpu_platform.copy()
    platform.pu("gpu0").descriptor.add(
        Property("SUSTAINED_GFLOPS_DP", "", fixed=False)
    )
    report = late_bind(platform, reloaded, digest=digest)
    assert any(e.action == "instantiated" for e in report.entries)
    assert validate_document(platform).ok
    tuned_xml = write_pdl(platform)
    assert content_digest(tuned_xml) == content_digest(write_pdl(platform))

    # 4. dmda planning with measured history beats (or ties) dmda planning
    #    with the descriptor's optimistic analytic model
    analytic_makespan = run_dgemm(gpgpu_platform, truth, PerfModel())
    tuned_makespan = run_dgemm(
        gpgpu_platform, truth, HistoryPerfModel(reloaded, digest)
    )
    assert tuned_makespan <= analytic_makespan * (1.0 + 1e-9)
    # with gpu0 this degraded, history-driven placement wins outright
    assert tuned_makespan < analytic_makespan


def test_tuning_routes_around_a_sick_gpu(gpgpu_platform):
    """gpu0 delivers 15% of its descriptor's claim: on DGEMM 4096/1024,
    dmda planning with the calibrated history beats the analytic plan by
    more than 1.5x."""
    truth = GroundTruthPerfModel({"gpu0": 0.15})
    db, digest = calibrate_platform(
        gpgpu_platform,
        config=CalibrationConfig(kernels=("dgemm",), sizes=(512, 1024), repeats=2),
        perf_model=truth,
    )
    analytic = run_dgemm(gpgpu_platform, truth, PerfModel(), n=4096, block=1024)
    tuned = run_dgemm(
        gpgpu_platform, truth, HistoryPerfModel(db, digest), n=4096, block=1024
    )
    assert tuned <= analytic * (1.0 + 1e-9)
    assert analytic / tuned > 1.5


def test_undistorted_truth_ties_analytic(gpgpu_platform):
    """With no distortion, history and analytic agree — the tuned
    scheduler must not regress the baseline."""
    truth = PerfModel()
    db, digest = calibrate_platform(
        gpgpu_platform,
        config=CalibrationConfig(kernels=("dgemm",), sizes=(512,), repeats=1),
        perf_model=truth,
    )
    analytic = run_dgemm(gpgpu_platform, truth, PerfModel(), n=1024, block=512)
    tuned = run_dgemm(
        gpgpu_platform, truth, HistoryPerfModel(db, digest), n=1024, block=512
    )
    assert tuned == pytest.approx(analytic, rel=1e-6)
