"""Scalar vs vectorized engine parity: byte-identical trace fingerprints.

The vectorized fast path (``RuntimeEngine(vectorized=True)``, the
default) must be a pure performance change: same placements, same
timestamps, same fault handling — down to the last ulp.  These tests run
the same DAG through both engines and compare
:meth:`TraceLog.fingerprint`, which hashes every task/transfer/fault
record including exact float start/end times, across:

* schedulers with an array fast path (eager, dm, dmda, dmda+steal),
* platforms (Figure-5 CPU+GPU box, a many-core mesh NoC),
* fault scenarios (worker death, task fault + retry, offline/online
  cycles with interconnect re-instantiation),
* a link whose bandwidth is re-instantiated mid-run.
"""

from dataclasses import dataclass

import pytest

from repro.dynamic import (
    FrequencyChange,
    PropertyUpdate,
    PlatformEvent,
    PUOffline,
    PUOnline,
    TaskFault,
    WorkerFault,
)
from repro.experiments.scenarios import synthetic_mesh_platform
from repro.experiments.workloads import submit_tiled_cholesky, submit_tiled_dgemm
from repro.model.properties import PropertyValue
from repro.pdl.catalog import load_platform
from repro.runtime.engine import RuntimeEngine
from repro.runtime.faults import FaultPolicy
from repro.runtime.schedulers import DequeModelScheduler

SCHEDULERS = {
    "eager": lambda: "eager",
    "dm": lambda: "dm",
    "dmda": lambda: "dmda",
    "dmda-steal": lambda: DequeModelScheduler(data_aware=True, steal=True),
}


def _fingerprints(make_scheduler, *, workload="dgemm", platform="xeon",
                  events=None, policy=None, interference=False):
    """Run the identical DAG scalar and vectorized; return both prints."""
    out = []
    for vectorized in (False, True):
        if platform == "xeon":
            plat = load_platform("xeon_x5550_2gpu")
        else:
            plat = synthetic_mesh_platform(4, 4)
        engine = RuntimeEngine(
            plat,
            scheduler=make_scheduler(),
            vectorized=vectorized,
            model_interference=interference,
        )
        if workload == "dgemm":
            submit_tiled_dgemm(engine, 2048, 256)
        else:
            submit_tiled_cholesky(engine, 2048, 256)
        kwargs = {}
        if events is not None:
            kwargs["dynamic_events"] = list(events)
        if policy is not None:
            kwargs["fault_policy"] = policy
        result = engine.run(**kwargs)
        out.append((result.trace.fingerprint(), result.makespan, engine))
    return out


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_clean_run_parity_xeon(name):
    (fp_s, mk_s, _), (fp_v, mk_v, _) = _fingerprints(SCHEDULERS[name])
    assert mk_s == mk_v  # exact, not approx: same IEEE doubles
    assert fp_s == fp_v


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_clean_run_parity_mesh(name):
    (fp_s, mk_s, _), (fp_v, mk_v, _) = _fingerprints(
        SCHEDULERS[name], platform="mesh"
    )
    assert mk_s == mk_v
    assert fp_s == fp_v


#: The scalar engine's trace fingerprint and makespan for the tiled DGEMM
#: on two wide meshes, where a scalar run takes seconds: label ->
#: (rows, cols, scheduler, n, block, fingerprint, makespan).  Regenerate
#: with ``RuntimeEngine(..., vectorized=False)`` only when the scalar
#: engine's semantics change on purpose.
WIDE_MESH_SCALAR = {
    "mesh16x16-dmda": (
        16, 16, "dmda", 4096, 256,
        "74c1e3555e26cc1b211a15a2e6c427d00202379e1a0bbcb9effbd7e47180e0c0",
        0.1777211105882354,
    ),
    "mesh8x8-eager": (
        8, 8, "eager", 8192, 256,
        "e976338ec80adbf3293481a9be3448f4cc4f0f098dfbdbfa8c2f3a1b782dfd23",
        5.687075538823501,
    ),
}


@pytest.mark.parametrize("label", sorted(WIDE_MESH_SCALAR))
def test_wide_mesh_matches_the_scalar_trace(label):
    """256 dmda workers, and 32768 eager tasks on 64: the widths where
    the array paths pay off give the scalar engine's trace bit for bit."""
    rows, cols, scheduler, n, block, fingerprint, makespan = (
        WIDE_MESH_SCALAR[label]
    )
    engine = RuntimeEngine(
        synthetic_mesh_platform(rows, cols), scheduler=scheduler
    )
    submit_tiled_dgemm(engine, n, block)
    result = engine.run()
    assert len(engine.workers) == rows * cols
    assert result.makespan == makespan
    assert result.trace.fingerprint() == fingerprint


@pytest.mark.parametrize("name", ["eager", "dmda"])
def test_cholesky_multi_kernel_parity(name):
    """Four kernel kinds exercise the interned-kind mask paths."""
    (fp_s, mk_s, _), (fp_v, mk_v, _) = _fingerprints(
        SCHEDULERS[name], workload="cholesky"
    )
    assert mk_s == mk_v
    assert fp_s == fp_v


@pytest.mark.parametrize("name", ["eager", "dmda", "dmda-steal"])
def test_worker_fault_parity(name):
    """Abrupt lane death mid-run: requeues and fault records must match."""
    (fp_s, _, e_s), (fp_v, _, e_v) = _fingerprints(
        SCHEDULERS[name], events=[(0.05, WorkerFault("gpu0"))]
    )
    assert fp_s == fp_v
    assert len(e_s.trace.tasks if hasattr(e_s, "trace") else []) == len(
        e_v.trace.tasks if hasattr(e_v, "trace") else []
    )


@pytest.mark.parametrize("name", ["eager", "dmda"])
def test_task_fault_retry_parity(name):
    """An injected task fault burns one attempt; backoff timing matches."""
    policy = FaultPolicy(max_retries=2, backoff_base_s=0.001)
    (fp_s, _, _), (fp_v, _, _) = _fingerprints(
        SCHEDULERS[name],
        events=[(1e-6, TaskFault(task_tag="dgemm[0,0,0]"))],
        policy=policy,
    )
    assert fp_s == fp_v


@pytest.mark.parametrize("name", ["eager", "dmda", "dmda-steal"])
def test_offline_online_cycle_parity(name):
    """Graceful offline + revival; the drained lane's clock re-derives
    identically on both paths."""
    (fp_s, _, _), (fp_v, _, _) = _fingerprints(
        SCHEDULERS[name],
        events=[(0.03, PUOffline("gpu0")), (0.08, PUOnline("gpu0"))],
    )
    assert fp_s == fp_v


@pytest.mark.parametrize("name", ["dmda"])
def test_dynamic_reinstantiation_parity(name):
    """Events that invalidate memoized exec rows: a frequency change
    re-prices kernels.  The ``PropertyUpdate`` sets a BANDWIDTH property
    on the gpu0 *PU*; it counts as an interconnect event and drops the
    route caches, but no route reads PU properties, so no transfer is
    re-priced (see the link-bandwidth test below for that)."""
    events = [
        (0.02, FrequencyChange("cpu", new_ghz=1.33)),
        (0.05, PropertyUpdate("gpu0", "BANDWIDTH", "4", unit="GB/s")),
    ]
    (fp_s, _, _), (fp_v, _, _) = _fingerprints(SCHEDULERS[name], events=events)
    assert fp_s == fp_v


@dataclass(frozen=True)
class LinkBandwidth(PlatformEvent):
    """Re-instantiate an interconnect's BANDWIDTH mid-run (the shipped
    descriptor fixes it, so the event unfixes it first)."""

    gbps: float = 0.0

    def apply(self, platform) -> None:
        prop = platform.find_interconnect(self.pu_id).descriptor.find("BANDWIDTH")
        prop.fixed = False
        prop.instantiate(PropertyValue(str(self.gbps), "GB/s"))

    @property
    def affects_interconnect(self) -> bool:
        return True


@pytest.mark.parametrize("when", [0.02, 0.08])
def test_link_bandwidth_event_reprices_vectorized_transfer_rows(when):
    """pcie0 drops from 5.7 to 0.5 GB/s mid-run.  Every memoized
    transfer and cost row must go with the routes, or the vectorized
    engine keeps placing with the old link price while the scalar one
    re-prices (the later event catches stale whole-cost rows)."""
    (fp_s, mk_s, _), (fp_v, mk_v, _) = _fingerprints(
        SCHEDULERS["dmda"], events=[(when, LinkBandwidth("pcie0", 0.5))]
    )
    assert mk_s == mk_v
    assert fp_s == fp_v


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_contended_run_parity_xeon(name):
    """Fluid contention-domain sharing must vectorize identically."""
    (fp_s, mk_s, _), (fp_v, mk_v, _) = _fingerprints(
        SCHEDULERS[name], interference=True
    )
    assert mk_s == mk_v
    assert fp_s == fp_v


@pytest.mark.parametrize("name", ["eager", "dmda"])
def test_contended_differs_from_uncontended(name):
    """On the Figure-5 box the ddr/ioh domains reshape the transfer
    timeline, so contended traces must not collide with clean ones."""
    (fp_clean, _, _), _ = _fingerprints(SCHEDULERS[name])
    (fp_s, _, _), (fp_v, _, _) = _fingerprints(
        SCHEDULERS[name], interference=True
    )
    assert fp_s == fp_v
    assert fp_s != fp_clean


def test_uncontended_flag_is_trace_identical():
    """With the flag on but no concurrent domain crossers forced, a
    platform without declarations produces byte-identical traces."""
    fingerprints = []
    for interference in (False, True):
        engine = RuntimeEngine(
            synthetic_mesh_platform(4, 4),
            scheduler="dmda",
            model_interference=interference,
        )
        submit_tiled_dgemm(engine, 2048, 256)
        fingerprints.append(engine.run().trace.fingerprint())
    assert fingerprints[0] == fingerprints[1]


def test_vectorized_is_default_and_scalar_optable():
    plat = load_platform("xeon_x5550_2gpu")
    assert RuntimeEngine(plat).vectorized is True
    assert RuntimeEngine(plat, vectorized=False).vectorized is False


def test_fingerprint_is_deterministic_across_engines():
    """Two vectorized engines over the same DAG agree with themselves."""
    fp = []
    for _ in range(2):
        engine = RuntimeEngine(load_platform("xeon_x5550_2gpu"))
        submit_tiled_dgemm(engine, 2048, 256)
        fp.append(engine.run().trace.fingerprint())
    assert fp[0] == fp[1]
