"""ServeEngine end to end: determinism, admission, autoscaling, tuning."""

import pytest

from repro.errors import ServeError
from repro.pdl.catalog import load_platform
from repro.serve import (
    AutoscalePolicy,
    ServeConfig,
    ServeEngine,
    TenantSpec,
    synthetic_arrivals,
)


@pytest.fixture(scope="module")
def platform():
    return load_platform("xeon_x5550_2gpu")


def _stream(duration=0.5, seed=0, **tenant_kwargs):
    kwargs = {"rate_per_s": 300.0, "size": 128}
    kwargs.update(tenant_kwargs)
    return synthetic_arrivals(
        [TenantSpec(name="t0", **kwargs)], duration_s=duration, seed=seed
    )


@pytest.mark.parametrize(
    "field,value",
    [
        ("tenant_rate_per_s", -5.0),
        ("tenant_rate_per_s", 0.0),
        ("tenant_burst", 0.0),
        ("tenant_burst", -1.0),
        ("latency_window", 0),
        ("latency_window", -1),
        ("trace_max_events", 0),
        ("trace_max_events", -3),
    ],
)
def test_config_rejects_bad_numbers(field, value):
    with pytest.raises(ServeError, match=field):
        ServeConfig(**{field: value})


def test_config_accepts_the_unbounded_defaults():
    config = ServeConfig(tenant_rate_per_s=None, trace_max_events=None)
    assert config.latency_window == 8192


class TestBasicServing:
    def test_serves_everything_under_light_load(self, platform):
        arrivals = _stream()
        report = ServeEngine(platform).run(arrivals)
        assert report.totals["offered"] == len(arrivals)
        assert report.totals["completed"] == len(arrivals)
        assert report.totals["shed"] == 0
        assert report.totals["rate_limited"] == 0
        # every admitted task has a trace record
        assert len(report.trace.tasks) == len(arrivals)

    def test_latency_digest_shape(self, platform):
        report = ServeEngine(platform).run(_stream())
        latency = report.totals["latency"]
        assert set(latency) == {"count", "p50", "p99"}
        assert 0.0 < latency["p50"] <= latency["p99"]

    def test_engine_is_one_shot(self, platform):
        engine = ServeEngine(platform)
        engine.run(_stream(duration=0.1))
        with pytest.raises(ServeError, match="one-shot"):
            engine.run(_stream(duration=0.1))

    def test_empty_stream_rejected(self, platform):
        with pytest.raises(ServeError, match="empty"):
            ServeEngine(platform).run([])

    def test_completed_requests_leave_no_runtime_state(self, platform):
        # every request is a runtime task with a private operand handle;
        # completion drops the handle's coherence, residency and gather
        # entries, so a long stream does not grow the runtime's state
        from repro.serve.request import TaskRequest

        arrivals = _stream(rate_per_s=800.0, size=256) + [
            TaskRequest(arrival_s=0.6, tenant="t0", kernel="dgemm",
                        dims=(64, 64, 64)),  # no operand bytes: writes only
        ]
        engine = ServeEngine(platform)
        report = engine.run(arrivals)
        assert report.totals["completed"] == report.totals["admitted"] == len(arrivals)
        assert report.trace.transfers  # operands were staged
        coherence = engine.runtime.coherence
        assert coherence._valid == {}
        assert coherence._need_cache == {}
        assert coherence._epoch == {}
        assert engine.runtime._vec_cost._handle_residency == {}
        assert engine.loop.written == {}

    def test_duration_is_simulated_not_wall(self, platform):
        report = ServeEngine(platform).run(_stream(duration=0.3))
        # makespan tracks the stream horizon, not host wall time
        assert 0.2 < report.duration_s < 1.0


class TestDeterminism:
    def test_same_stream_same_fingerprint(self, platform):
        arrivals = _stream(seed=5)
        fps = set()
        for _ in range(2):
            report = ServeEngine(platform).run(arrivals)
            fps.add(report.fingerprint())
            fps.add(report.trace.fingerprint())
        assert len(fps) == 2  # one report fp + one trace fp, twice each

    def test_different_seed_different_fingerprint(self, platform):
        one = ServeEngine(platform).run(_stream(seed=1)).fingerprint()
        two = ServeEngine(platform).run(_stream(seed=2)).fingerprint()
        assert one != two


class TestAdmission:
    def test_overload_sheds_with_bounded_queue(self, platform):
        arrivals = _stream(duration=0.5, rate_per_s=4000.0, size=512)
        config = ServeConfig(
            max_queue=32,
            autoscale=AutoscalePolicy(enabled=False, min_workers=2),
        )
        report = ServeEngine(platform, config=config).run(arrivals)
        totals = report.totals
        assert totals["shed"] > 0
        assert totals["admitted"] + totals["shed"] == totals["offered"]
        assert totals["completed"] == totals["admitted"]
        # shed events land in the fault trace
        assert report.trace.fault_counts().get("shed", 0) == totals["shed"]

    def test_rate_limiter_rejects_beyond_budget(self, platform):
        config = ServeConfig(tenant_rate_per_s=50.0, tenant_burst=4.0)
        report = ServeEngine(platform, config=config).run(
            _stream(duration=0.5, rate_per_s=1000.0)
        )
        totals = report.totals
        assert totals["rate_limited"] > 0
        # ~50/s budget + 4 burst over 0.5s => ~29 admits
        assert totals["admitted"] < 60
        assert totals["completed"] == totals["admitted"]

    def test_per_tenant_limit_via_limit_tenant(self, platform):
        arrivals = synthetic_arrivals(
            [TenantSpec(name="greedy", rate_per_s=1000.0, size=64),
             TenantSpec(name="modest", rate_per_s=100.0, size=64)],
            duration_s=0.5,
        )
        engine = ServeEngine(platform)
        engine.limit_tenant("greedy", 100.0, 8.0)
        report = engine.run(arrivals)
        greedy = report.tenants["greedy"]
        modest = report.tenants["modest"]
        assert greedy["rate_limited"] > 0
        assert modest["rate_limited"] == 0

    def test_unsupported_kernel_is_shed_not_fatal(self, platform):
        from repro.serve.request import TaskRequest

        arrivals = [
            TaskRequest(arrival_s=0.0, tenant="a", kernel="no_such_kernel",
                        dims=(8,)),
            TaskRequest(arrival_s=0.01, tenant="a", kernel="dgemm",
                        dims=(64, 64, 64)),
        ]
        report = ServeEngine(platform).run(arrivals)
        assert report.totals["shed"] == 1
        assert report.totals["completed"] == 1


class TestAutoscaling:
    def test_fleet_grows_under_load_and_drains_after(self, platform):
        # burst load early, then silence: fleet must grow past the floor
        # and retire back down
        arrivals = synthetic_arrivals(
            [TenantSpec(name="t0", rate_per_s=1500.0, size=256,
                        burst_factor=2.0)],
            duration_s=1.0,
        )
        config = ServeConfig(
            default_deadline_s=0.05,
            autoscale=AutoscalePolicy(min_workers=2, cooldown_s=0.05),
        )
        engine = ServeEngine(platform, config=config)
        report = engine.run(arrivals)
        scaler = report.autoscaler
        assert scaler["spawned"] > 0
        assert scaler["retired"] > 0
        assert scaler["max_active"] > 2
        assert report.totals["completed"] == report.totals["admitted"]

    def test_fixed_fleet_when_disabled(self, platform):
        config = ServeConfig(
            autoscale=AutoscalePolicy(enabled=False, min_workers=3)
        )
        report = ServeEngine(platform, config=config).run(
            _stream(rate_per_s=2000.0, size=256)
        )
        assert report.autoscaler["spawned"] == 0
        assert report.autoscaler["retired"] == 0
        assert report.autoscaler["max_active"] == 3

    def test_core_lanes_cover_every_architecture(self, platform):
        engine = ServeEngine(platform)
        covered = {engine._lane_of[i].architecture for i in engine._core}
        assert covered == {w.architecture for w in engine.workers}

    def test_graceful_retirement_requeues_and_loses_nothing(self, platform):
        # force the drain path directly: queue work on a lane, retire it,
        # and serve to completion — nothing lost, requeues recorded
        arrivals = _stream(duration=0.4, rate_per_s=800.0, size=256)
        config = ServeConfig(
            autoscale=AutoscalePolicy(enabled=False, min_workers=10)
        )
        engine = ServeEngine(platform, config=config)

        victims = []

        def sabotage(_arg=None):
            # retire the busiest non-core active lane mid-run
            for iid in reversed(engine._lane_order):
                if iid not in engine.loop.offline and iid not in engine._core:
                    victims.append(iid)
                    engine._retire_lane(iid)
                    return

        engine.loop.clock.schedule_call(0.05, sabotage, None)
        report = engine.run(arrivals)
        assert victims
        assert report.totals["completed"] == report.totals["admitted"]
        # the retired lane's est-free clock was rewound cleanly
        sched = engine.scheduler
        lane = victims[0]
        assert sched._est_free[lane] == pytest.approx(sched._committed[lane])
        assert lane in engine.loop.offline  # not active
        # not draining: its in-flight task finished by run end
        assert engine._lane_of[lane].busy_until <= engine.loop.clock.now


class TestOnlineTuning:
    def test_harvests_samples_while_serving(self, platform):
        config = ServeConfig(online_tuning=True, harvest_interval_s=0.1)
        engine = ServeEngine(platform, config=config)
        report = engine.run(_stream(duration=0.5))
        assert report.tuning["online"] is True
        assert report.tuning["harvests"] >= 1
        assert report.tuning["samples"] == report.totals["completed"]
        # the database actually holds the samples, keyed by the digest
        samples = engine.tuning_database.samples(engine.digest)
        assert len(samples) == report.totals["completed"]
        assert all(s.source == "serve" for s in samples)

    def test_tuning_run_still_deterministic(self, platform):
        arrivals = _stream(duration=0.3)
        config = ServeConfig(online_tuning=True, harvest_interval_s=0.1)
        one = ServeEngine(platform, config=config).run(arrivals)
        two = ServeEngine(platform, config=config).run(arrivals)
        assert one.fingerprint() == two.fingerprint()

    def test_history_model_converges_to_truth(self, platform):
        # scheduler starts with a miscalibrated model (GPU believed slow);
        # online tuning must close the gap within the run
        from repro.tune.model import GroundTruthPerfModel

        truth = GroundTruthPerfModel({})  # calibrated analytic baseline
        config = ServeConfig(online_tuning=True, harvest_interval_s=0.05)
        engine = ServeEngine(
            platform, config=config, truth_perf_model=truth
        )
        report = engine.run(_stream(duration=0.5))
        assert report.tuning["harvests"] >= 2
        # post-run, the history model's estimate matches truth closely
        worker = engine.workers[0]
        task_kernel = "dgemm"
        kernel_def = engine.registry.get(task_kernel)
        dims = (128, 128, 128)
        t_truth = truth.estimate(
            worker.pu, kernel=task_kernel, flops=kernel_def.flops(dims),
            bytes_touched=kernel_def.bytes_touched(dims), dims=dims,
        )
        t_hist = engine.sched_perf.estimate(
            worker.pu, kernel=task_kernel, flops=kernel_def.flops(dims),
            bytes_touched=kernel_def.bytes_touched(dims), dims=dims,
        )
        assert t_hist == pytest.approx(t_truth, rel=0.2)


class TestMetricsAndSpans:
    def test_metrics_registry_feeds(self, platform):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        ServeEngine(platform, metrics=metrics).run(_stream(duration=0.2))
        payload = metrics.to_payload()
        counters = payload["counters"]
        assert counters["serve.admitted"] > 0
        assert counters["serve.completed"] > 0

    def test_span_emitted_under_tracer(self, platform):
        from repro.obs import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            ServeEngine(platform).run(_stream(duration=0.2))
        names = [s.name for s in tracer.spans]
        assert "serve.run" in names


class TestSessionFacade:
    def test_session_serve_verb(self):
        import repro

        session = repro.Session("xeon_x5550_2gpu")
        report = session.serve(duration_s=0.2)
        assert session.last_serving is report
        payload = session.to_payload()
        assert payload["last_serving"]["fingerprint"] == report.fingerprint()
