"""XTRA-CROSS: where the two GPUs stop paying off.

A GPU only helps when a kernel's arithmetic intensity amortizes the PCIe
crossing the descriptor declares.  96 independent C(1024x1024) +=
A(1024xk)·B(kx1024) tasks sweep the intensity through k; the benefit of
the GPU box over the CPU box rises from below 1x (bandwidth-bound) to
the Figure-5 factor (compute-bound).  A streaming vecadd stays a wash.
"""

import pytest

from repro.experiments.workloads import submit_vecadd
from repro.pdl.catalog import load_platform
from repro.runtime.engine import RuntimeEngine

M = N = 1024
K_SWEEP = (16, 64, 256, 1024, 4096)
TASKS = 96


def submit_rect_gemm(engine, k):
    for i in range(TASKS):
        c = engine.register(shape=(M, N), name=f"C{i}")
        a = engine.register(shape=(M, k), name=f"A{i}")
        b = engine.register(shape=(k, N), name=f"B{i}")
        engine.submit(
            "dgemm",
            [(c, "rw"), (a, "r"), (b, "r")],
            dims=(M, N, k),
            tag=f"gemm[{i}]k{k}",
        )


def benefit(submit):
    """cpu-only makespan / cpu+2gpu makespan under dmda."""
    makespans = []
    for name in ("xeon_x5550_dual", "xeon_x5550_2gpu"):
        engine = RuntimeEngine(load_platform(name), scheduler="dmda")
        submit(engine)
        makespans.append(engine.run().makespan)
    return makespans[0] / makespans[1]


@pytest.fixture(scope="module")
def benefits():
    return [
        benefit(lambda engine, k=k: submit_rect_gemm(engine, k))
        for k in K_SWEEP
    ]


def test_compute_bound_gemm_pays_off(benefits):
    assert benefits[-1] > 2.0


def test_bandwidth_bound_gemm_gains_much_less(benefits):
    assert benefits[0] < benefits[-1] / 1.5


def test_benefit_grows_with_intensity(benefits):
    # sorted, or off by less than 0.35 anywhere (scheduling wiggle)
    assert benefits == sorted(benefits) or max(
        abs(a - b) for a, b in zip(benefits, sorted(benefits))
    ) < 0.35


def test_streaming_vecadd_is_a_wash():
    # 512 MiB in 40 chunks: PCIe caps the gain of a streaming kernel
    assert benefit(lambda engine: submit_vecadd(engine, 1 << 26, 40)) < 1.5
