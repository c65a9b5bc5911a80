"""Property-based robustness tests of the runtime engine.

Random task graphs over random handle sets must, under every scheduling
policy: complete all tasks, never start a task before its producers end,
never overlap two tasks on one worker lane, and keep coherence sane
(transfers only when accelerator nodes exist).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.model.builder import PlatformBuilder
from repro.model.entities import MemoryRegion
from repro.runtime.engine import RuntimeEngine
from repro.runtime.tasks import TaskState

KERNELS = [
    ("dgemm", 3, (64, 64, 64)),  # (kernel, arity, dims)
    ("dvecadd", 2, (4096,)),
    ("dscal", 1, (4096,)),
]


def build_platform(n_cpu, n_gpu):
    builder = PlatformBuilder("prop").master("m", architecture="x86_64")
    builder.worker("cpu", architecture="x86_64", quantity=max(1, n_cpu))
    for g in range(n_gpu):
        builder.worker(f"g{g}", architecture="gpu")
        builder.interconnect("m", f"g{g}", type="PCIe",
                             bandwidth="5.7 GB/s", latency="15 us")
    builder.interconnect("m", "cpu", type="SHM")
    platform = builder.build(validate=False)
    for g in range(n_gpu):
        # device memory: each GPU is its own memory node, so operands
        # move over PCIe and coherence has copies to track
        platform.find_pu(f"g{g}").add_memory_region(MemoryRegion(f"g{g}mem"))
    return platform


@st.composite
def workloads(draw):
    n_cpu = draw(st.integers(1, 4))
    n_gpu = draw(st.integers(0, 2))
    n_handles = draw(st.integers(1, 6))
    tasks = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(KERNELS) - 1),
                st.lists(st.integers(0, n_handles - 1), min_size=1, max_size=3),
                st.sampled_from(["r", "w", "rw"]),
                st.integers(0, 5),  # priority
            ),
            min_size=1,
            max_size=25,
        )
    )
    scheduler = draw(st.sampled_from(["eager", "ws", "dm", "dmda", "random"]))
    return n_cpu, n_gpu, n_handles, tasks, scheduler


def submit_workload(engine, n_handles, task_specs, shapes=((64, 64),)):
    """Submit a drawn task list; handle ``i`` takes ``shapes[i % len]``.
    False when the draw names too few distinct handles for a kernel."""
    handles = [
        engine.register(shape=shapes[i % len(shapes)], name=f"h{i}")
        for i in range(n_handles)
    ]
    for kernel_idx, handle_idxs, first_mode, priority in task_specs:
        kernel, arity, dims = KERNELS[kernel_idx]
        chosen = []
        seen = set()
        for idx in handle_idxs:
            if idx not in seen:
                seen.add(idx)
                chosen.append(handles[idx])
        while len(chosen) < arity:
            for h in handles:
                if h.id not in {c.id for c in chosen}:
                    chosen.append(h)
                    break
            else:
                return False
        chosen = chosen[:arity]
        accesses = [(chosen[0], first_mode)] + [(h, "r") for h in chosen[1:]]
        engine.submit(kernel, accesses, dims=dims, priority=priority)
    return True


@given(workloads())
@settings(max_examples=60, deadline=None)
def test_random_graphs_complete_correctly(spec):
    n_cpu, n_gpu, n_handles, task_specs, scheduler = spec
    platform = build_platform(n_cpu, n_gpu)
    engine = RuntimeEngine(platform, scheduler=scheduler)
    if not submit_workload(engine, n_handles, task_specs):
        return  # not enough distinct handles; skip this case

    result = engine.run()

    # every task done
    assert all(t.state == TaskState.DONE for t in engine._tasks)
    assert len(result.trace.tasks) == len(engine._tasks)

    # dependency times respected
    by_id = {t.id: t for t in engine._tasks}
    for task in engine._tasks:
        for dep_id in task.depends_on:
            assert by_id[dep_id].end_time <= task.start_time + 1e-12

    # no overlap per worker lane
    for worker, spans in result.trace.gantt_rows().items():
        for (s1, e1, _), (s2, e2, _) in zip(spans, spans[1:]):
            assert e1 <= s2 + 1e-12

    # transfers only exist when accelerator memory nodes exist
    if n_gpu == 0:
        assert result.transfer_count == 0


@given(workloads())
@settings(max_examples=40, deadline=None)
def test_scalar_and_vectorized_engines_agree_on_random_graphs(spec):
    """The scalar engine is the executable spec of the vectorized one:
    identical trace fingerprints and makespans on every drawn DAG.  Two
    handle shapes give handles in the same coherence state different
    transfer costs, so the memoized transfer rows must tell them apart."""
    n_cpu, n_gpu, n_handles, task_specs, _ = spec
    for scheduler in ("eager", "dm", "dmda"):
        runs = []
        for vectorized in (False, True):
            engine = RuntimeEngine(
                build_platform(n_cpu, n_gpu),
                scheduler=scheduler,
                vectorized=vectorized,
            )
            shapes = ((64, 64), (128, 64))
            if not submit_workload(engine, n_handles, task_specs, shapes):
                return  # not enough distinct handles; skip this case
            result = engine.run()
            runs.append((result.trace.fingerprint(), result.makespan))
        assert runs[0] == runs[1], scheduler


class TestPriority:
    def test_eager_respects_priority(self, small_platform):
        """With one CPU lane, higher-priority ready tasks run first."""
        engine = RuntimeEngine(small_platform, scheduler="eager")
        handles = [engine.register(shape=(4096,)) for _ in range(6)]
        tasks = []
        for i, h in enumerate(handles):
            tasks.append(
                engine.submit("dscal", [(h, "rw")], dims=(4096,), priority=i)
            )
        result = engine.run()
        # restrict to one architecture lane for a clean ordering signal:
        # check that among tasks run on the same worker, priority order is
        # non-increasing (all were ready at t=0)
        rows = result.trace.gantt_rows()
        by_tag = {t.tag: t for t in engine._tasks}
        for worker, spans in rows.items():
            priorities = [by_tag[tag].priority for _, _, tag in spans]
            assert priorities == sorted(priorities, reverse=True), worker
