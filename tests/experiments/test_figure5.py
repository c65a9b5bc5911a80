"""FIG5: the reproduced Figure 5 must match the paper's shape.

We are not expected to match the authors' absolute numbers (their substrate
was real hardware; ours is a calibrated simulator), but who-wins, by
roughly what factor, must hold:

* ``starpu`` (8 CPU cores) beats ``single`` near-linearly (~7x),
* ``starpu+2gpu`` beats ``starpu`` by another ~2-3x (~15-20x total).
"""

import pytest

from repro.experiments.figure5 import (
    Figure5Config,
    run_configuration,
    run_figure5,
    single_thread_time,
)


@pytest.fixture(scope="module")
def figure5():
    # a reduced size keeps the suite fast; shape is scale-invariant here
    return run_figure5(Figure5Config(n=4096, block_size=512))


class TestShape:
    def test_three_bars(self, figure5):
        assert [r.configuration for r in figure5.rows] == [
            "single", "starpu", "starpu+2gpu",
        ]

    def test_ordering(self, figure5):
        single, starpu, gpu = figure5.rows
        assert single.time_s > starpu.time_s > gpu.time_s
        assert single.speedup == 1.0

    def test_starpu_near_linear_8core(self, figure5):
        starpu = figure5.row("starpu")
        assert 5.0 < starpu.speedup < 8.2

    def test_gpu_configuration_factor(self, figure5):
        starpu = figure5.row("starpu")
        gpu = figure5.row("starpu+2gpu")
        assert 1.5 < gpu.speedup / starpu.speedup < 4.0
        assert 10.0 < gpu.speedup < 30.0

    def test_gpus_do_work(self, figure5):
        gpu = figure5.row("starpu+2gpu")
        assert gpu.tasks_by_architecture.get("gpu", 0) > 0
        assert gpu.tasks_by_architecture.get("x86_64", 0) > 0

    def test_gflops_consistent(self, figure5):
        for row in figure5.rows:
            flops = 2.0 * 4096**3
            assert row.gflops == pytest.approx(flops / row.time_s / 1e9)

    def test_table_rendering(self, figure5):
        text = figure5.table()
        assert "single" in text and "starpu+2gpu" in text
        assert "paper shape" in text

    def test_row_lookup(self, figure5):
        assert figure5.row("starpu").configuration == "starpu"
        with pytest.raises(KeyError):
            figure5.row("quantum")


class TestAnchors:
    def test_single_thread_anchor(self):
        # 2*8192^3 / (10.64 GF * 0.9) ≈ 115 s — the paper's serial baseline
        t = single_thread_time(8192)
        assert 105 < t < 125

    def test_full_size_shape_holds(self):
        """Run the exact paper size once (fast: simulation only)."""
        result = run_figure5(Figure5Config(n=8192, block_size=1024))
        single = result.row("single")
        starpu = result.row("starpu")
        gpu = result.row("starpu+2gpu")
        assert single.time_s > 100  # ~115 s serial anchor
        assert 6.5 < starpu.speedup < 8.1
        assert 14.0 < gpu.speedup < 26.0
        assert 1.8 < gpu.speedup / starpu.speedup < 3.5

    @pytest.mark.parametrize(
        "platform", ["xeon_x5550_dual", "xeon_x5550_2gpu"]
    )
    def test_paper_size_runs(self, platform):
        """Each bar's run at the paper size: all 512 tiles complete; the
        CPU box runs them all on x86_64, the GPU box gives the GPUs the
        bulk and models PCIe traffic."""
        run = run_configuration(platform, Figure5Config())
        per_arch = run.trace.tasks_per_architecture()
        assert run.task_count == 512
        if platform == "xeon_x5550_dual":
            assert per_arch == {"x86_64": 512}
        else:
            assert per_arch["gpu"] > per_arch["x86_64"]
            assert run.transfer_count > 0

    def test_run_configuration_returns_trace(self):
        config = Figure5Config(n=2048, block_size=512)
        run = run_configuration("xeon_x5550_2gpu", config)
        assert run.task_count == 64
        assert run.scheduler == "dmda"


#: The simulated outputs of the Figure-5 engine pass at 8192/512 dmda:
#: RunResult fingerprint, makespan (s), tasks, transfers, MiB moved,
#: trace events, TraceLog fingerprint.  A speed-only change to the
#: runtime must leave every one of them as it is.
FIG5_PINNED = {
    "xeon_x5550_dual": (
        "d13c8dc3ae6fcca2984aeb5fea39b413b2b509b16a3e2744755cc2f130a83e7c",
        15.252026172096725, 4096, 0, 0.0, 4096,
        "550bb03890b61b898be04d1aa6b3bd17d955adc88a7a8fc552e64a3ce78c95a5",
    ),
    "xeon_x5550_2gpu": (
        "50a784041e835d95d78d53bce5e746c9755e2a5acbc80037c88592f52faaa3b7",
        7.218766663505322, 4096, 3818, 7636.0, 7914,
        "70acadf49382681bf5c622e808f428537842c06cc4ea21a2cd6b04e61a70b7d0",
    ),
}


@pytest.mark.parametrize("platform", sorted(FIG5_PINNED))
def test_figure5_engine_outputs_are_pinned(platform):
    """The pipeline the Figure-5 benchmark times: a dmda engine on the
    shipped descriptor, the tiled 8192/512 DGEMM, one run."""
    from repro.experiments.workloads import submit_tiled_dgemm
    from repro.pdl import load_platform
    from repro.runtime.engine import RuntimeEngine

    engine = RuntimeEngine(load_platform(platform), scheduler="dmda")
    submit_tiled_dgemm(engine, 8192, 512)
    result = engine.run()
    trace = result.trace
    assert (
        result.fingerprint(),
        result.makespan,
        result.task_count,
        result.transfer_count,
        result.bytes_transferred / 2**20,
        len(trace.tasks) + len(trace.transfers) + len(trace.faults),
        trace.fingerprint(),
    ) == FIG5_PINNED[platform]


def test_scalar_engine_matches_the_pinned_trace():
    """The scalar engine (the executable spec) gives the pinned
    vectorized trace of the Figure-5 8192/512 dmda pass bit for bit."""
    from repro.experiments.workloads import submit_tiled_dgemm
    from repro.pdl import load_platform
    from repro.runtime.engine import RuntimeEngine

    engine = RuntimeEngine(
        load_platform("xeon_x5550_2gpu"), scheduler="dmda", vectorized=False
    )
    submit_tiled_dgemm(engine, 8192, 512)
    result = engine.run()
    pinned = FIG5_PINNED["xeon_x5550_2gpu"]
    assert result.makespan == pinned[1]
    assert result.trace.fingerprint() == pinned[6]
