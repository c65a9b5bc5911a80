"""Pinned serving outputs and the claims made on them.

Four configurations serve one fixed overload stream (1.5 s, two
tenants, seed 0) on the dual-GPU Xeon descriptor: ``dmda`` and
``dmda-slo``, each on a fixed two-lane fleet and with the autoscaler.
The ``serve_slo`` configuration of pdlbench (6 s stream, seed 1) is
pinned too.  A change to the serving loop, its cost model, staging or
admission that moves any simulated time, placement, trace record or
counter moves one of these digests; a report's fingerprint covers its
trace's, so a pinned digest also pins the replay.  The runs behind the
pins also carry the serving claims: deadline scheduling with
autoscaling cuts the fixed-fleet ``dmda`` miss rate, and ``dmda-slo``
favours the tight-deadline tenant.
"""

import pytest

from repro.pdl.catalog import load_platform
from repro.serve import (
    AutoscalePolicy,
    ServeConfig,
    ServeEngine,
    TenantSpec,
    synthetic_arrivals,
)

TENANTS = [
    TenantSpec(name="interactive", rate_per_s=400.0, size=256, deadline_s=0.01),
    TenantSpec(name="batch", rate_per_s=400.0, size=256, burst_factor=2.5),
]

BENCH_SERVE = {
    ("dmda", False): "fbe66e3ed5366b63046351f7146bc099c61ea0c86f58630df281f1c15b90bce2",
    ("dmda-slo", False): "8cdc3411d7388ccb290bc96ae33f0e57d2ddc2236c26e34bddf1cd10140c5c1f",
    ("dmda", True): "3b12c67a98a545a8983d6f6733e86ab4a1cb1ae0cbac00cc18e812fc6e4ea214",
    ("dmda-slo", True): "2665c5753559d5e09e9b7dcd3223226012f6ca190543f61e4394f9019449e0f3",
}

SERVE_SLO_SEED1 = "d83df325658f30767f36a62106b9eb50d7ac8094b068045fd1f749b8987206cc"


def _config(scheduler, autoscale):
    return ServeConfig(
        scheduler=scheduler,
        default_deadline_s=0.03,
        max_queue=512,
        autoscale=AutoscalePolicy(enabled=autoscale, min_workers=2),
    )


@pytest.fixture(scope="module")
def platform():
    return load_platform("xeon_x5550_2gpu")


@pytest.fixture(scope="module")
def overload_reports(platform):
    """The four configurations served over the seed-0 overload stream."""
    arrivals = synthetic_arrivals(TENANTS, duration_s=1.5, seed=0)
    assert len(arrivals) == 1557
    return {
        key: ServeEngine(platform, config=_config(*key)).run(arrivals)
        for key in sorted(BENCH_SERVE)
    }


@pytest.mark.parametrize(
    "scheduler,autoscale", sorted(BENCH_SERVE), ids=lambda v: str(v)
)
def test_bench_serve_configurations_are_pinned(
    overload_reports, scheduler, autoscale
):
    report = overload_reports[(scheduler, autoscale)]
    assert report.fingerprint() == BENCH_SERVE[(scheduler, autoscale)]


def test_deadline_scheduling_with_autoscaling_beats_fixed_dmda(overload_reports):
    baseline = overload_reports[("dmda", False)]
    full = overload_reports[("dmda-slo", True)]
    assert baseline.totals["offered"] == full.totals["offered"]
    assert full.totals["completed"] == full.totals["admitted"]
    # at equal offered load: at least half the miss rate, lower p99
    assert full.miss_rate * 2.0 < baseline.miss_rate
    assert full.p99_latency < baseline.p99_latency


def test_dmda_slo_differentiates_tenants(platform):
    """Fixed four-lane fleet, mixed SLOs: dmda-slo cuts the 5 ms
    tenant's miss rate without pushing the 200 ms tenant over its SLO."""
    arrivals = synthetic_arrivals(
        [TenantSpec(name="interactive", rate_per_s=300.0, size=256,
                    deadline_s=0.005),
         TenantSpec(name="batch", rate_per_s=600.0, size=256,
                    deadline_s=0.2, burst_factor=2.0)],
        duration_s=1.5,
        seed=0,
    )
    reports = {
        scheduler: ServeEngine(
            platform,
            config=ServeConfig(
                scheduler=scheduler,
                default_deadline_s=0.03,
                max_queue=512,
                autoscale=AutoscalePolicy(enabled=False, min_workers=4),
            ),
        ).run(arrivals)
        for scheduler in ("dmda", "dmda-slo")
    }
    dmda, slo = reports["dmda"].tenants, reports["dmda-slo"].tenants
    assert slo["interactive"]["miss_rate"] < dmda["interactive"]["miss_rate"]
    assert slo["batch"]["miss_rate"] <= dmda["batch"]["miss_rate"] + 0.01


def test_serve_slo_seed1_is_pinned(platform):
    arrivals = synthetic_arrivals(TENANTS, duration_s=6.0, seed=1)
    assert len(arrivals) == 6626
    report = ServeEngine(platform, config=_config("dmda-slo", True)).run(arrivals)
    assert report.totals["completed"] == report.totals["admitted"]
    assert report.fingerprint() == SERVE_SLO_SEED1
