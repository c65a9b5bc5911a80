"""Runtime tasks and implicit dependency inference.

Tasks reference a kernel (codelet) plus data handles with access modes;
dependencies between tasks are inferred from data hazards in submission
order, exactly like StarPU's implicit data-dependency mode and as the
paper motivates ("explicit task outlining with parameter access-specifiers
helps ... derive inter-task data-dependencies", §IV-A):

* RAW — a reader depends on the last writer of each handle it reads;
* WAW — a writer depends on the last writer;
* WAR — a writer depends on every reader since the last writer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from repro.errors import RuntimeEngineError
from repro.runtime.coherence import AccessMode
from repro.runtime.data import DataHandle

__all__ = [
    "TaskState",
    "Access",
    "RuntimeTask",
    "DependencyTracker",
    "TaskTable",
    "task_signature",
]

_task_ids = itertools.count(1)


class TaskState(str, Enum):
    BLOCKED = "blocked"
    READY = "ready"
    RUNNING = "running"
    DONE = "done"
    #: permanently failed (retry budget exhausted); terminal like DONE
    FAILED = "failed"


@dataclass(frozen=True, slots=True)
class Access:
    """One (handle, mode) task parameter.

    Immutable, so tasks share one instance per pair: :func:`_access_of`
    builds it once per handle and mode instead of once per task.
    """

    handle: DataHandle
    mode: AccessMode


def _access_of(handle: DataHandle, mode) -> Access:
    """The shared :class:`Access` for ``(handle, mode)``.

    ``mode`` is an :class:`AccessMode` or any spelling
    :meth:`AccessMode.parse` accepts.  The memo lives on the handle and
    is keyed by the mode as given, so a repeated spelling skips parsing.
    """
    memo = handle._accesses
    access = memo.get(mode)
    if access is None:
        parsed = mode if isinstance(mode, AccessMode) else AccessMode.parse(mode)
        access = memo.get(parsed)
        if access is None:
            access = memo[parsed] = Access(handle, parsed)
        memo[mode] = access
    return access


class RuntimeTask:
    """A schedulable unit of work.

    Parameters
    ----------
    kernel:
        Kernel (codelet) name resolved against the engine's registry.
    accesses:
        ``(handle, mode)`` pairs; modes accept strings (``"r"|"w"|"rw"``)
        or :class:`AccessMode`.
    dims:
        Cost-model dims (e.g. ``(m, n, k)`` for GEMM tiles).
    args:
        Extra keyword arguments passed to the kernel function.
    priority:
        Larger = more urgent; schedulers may use it as a tie-break.
    tag:
        Free-form label for traces.
    task_id:
        Explicit id.  The engine assigns run-local ids (1..n in submit
        order) so that two engines simulating the same DAG produce the
        same ids — and hence identical default tags and byte-identical
        trace fingerprints.  Standalone tasks fall back to a process-wide
        counter.
    """

    __slots__ = (
        "id",
        "kernel",
        "accesses",
        "dims",
        "args",
        "priority",
        "tag",
        "state",
        "depends_on",
        "dependents",
        "_unfinished_deps",
        "worker_id",
        "start_time",
        "end_time",
        "kind_id",
        "cost_sig",
        "attempt",
        "incarnation",
        "fault_armed",
        "last_error",
    )

    def __init__(
        self,
        kernel: str,
        accesses: Sequence[tuple],
        *,
        dims: Optional[tuple] = None,
        args: Optional[dict] = None,
        priority: int = 0,
        tag: str = "",
        task_id: Optional[int] = None,
    ):
        self.id = next(_task_ids) if task_id is None else task_id
        self.kernel = kernel
        self.accesses: tuple[Access, ...] = tuple(
            [_access_of(handle, mode) for handle, mode in accesses]
        )
        if not self.accesses:
            raise RuntimeEngineError(f"task {kernel!r} has no data accesses")
        self.dims = tuple(dims) if dims is not None else None
        self.args = dict(args or {})
        self.priority = priority
        self.tag = tag or f"{kernel}#{self.id}"

        self.state = TaskState.BLOCKED
        #: tasks that must finish before this one starts
        self.depends_on: set[int] = set()
        #: tasks waiting on this one
        self.dependents: list["RuntimeTask"] = []
        self._unfinished_deps = 0

        # filled by the engine at completion
        self.worker_id: Optional[str] = None
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None

        # filled by TaskTable.add for engine-managed tasks
        self.kind_id: Optional[int] = None
        self.cost_sig: Optional[int] = None

        # -- fault-tolerance state -------------------------------------
        #: failed execution attempts so far (retry budget consumed)
        self.attempt = 0
        #: bumped whenever an in-flight execution is aborted/requeued, so
        #: a stale completion event (sim) or thread (real) can detect it
        #: no longer owns the task
        self.incarnation = 0
        #: armed by a TaskFault injection event: the next start fails
        self.fault_armed = False
        #: repr of the most recent execution failure, for diagnostics
        self.last_error: Optional[str] = None

    # -- dependency bookkeeping ----------------------------------------------
    def add_dependency(self, producer: "RuntimeTask") -> None:
        if producer.id == self.id:
            raise RuntimeEngineError(f"task {self.tag} cannot depend on itself")
        if producer.id in self.depends_on:
            return
        self.depends_on.add(producer.id)
        if producer.state != TaskState.DONE:
            producer.dependents.append(self)
            self._unfinished_deps += 1

    @property
    def ready(self) -> bool:
        return self._unfinished_deps == 0 and self.state == TaskState.BLOCKED

    def notify_producer_done(self) -> bool:
        """Called when one producer finishes; True when the task became ready."""
        if self._unfinished_deps <= 0:
            raise RuntimeEngineError(
                f"task {self.tag}: dependency counter underflow"
            )
        self._unfinished_deps -= 1
        return self._unfinished_deps == 0

    # -- introspection -----------------------------------------------------------
    def handles(self) -> list[DataHandle]:
        return [access.handle for access in self.accesses]

    def reads(self) -> list[DataHandle]:
        return [a.handle for a in self.accesses if a.mode.reads]

    def writes(self) -> list[DataHandle]:
        return [a.handle for a in self.accesses if a.mode.writes]

    @property
    def duration(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    def __repr__(self) -> str:
        return f"RuntimeTask({self.tag!r}, state={self.state.value})"


def task_signature(task: RuntimeTask) -> tuple:
    """The cost-model identity of a task: ``(kernel, effective dims)``.

    Two tasks with the same signature get identical execution estimates
    on every worker (the performance models read only kernel name and
    dims), so the vectorized engine computes cost rows once per
    signature instead of once per task — a tiled DGEMM is one signature,
    a tiled Cholesky four, regardless of task count.

    The dims fallback mirrors :meth:`RuntimeEngine._estimate_with`: when
    a task carries no explicit dims, the first access's handle shape is
    the size proxy.
    """
    dims = task.dims if task.dims is not None else task.accesses[0].handle.shape
    return (task.kernel, tuple(dims))


class TaskTable:
    """Kernel and cost-signature interning for the engine's tasks.

    :meth:`add` gives each task a small-integer kernel kind
    (``task.kind_id``) and cost signature (``task.cost_sig``,
    :func:`task_signature`), and remembers one task per signature.  The
    vectorized cost model keys its execution rows, support rows and
    cost-row memo on these ids instead of on per-task state.
    """

    def __init__(self):
        self._kernels: dict[str, int] = {}
        self.kernel_names: list[str] = []
        self._sigs: dict[tuple, int] = {}
        #: sig id → one task carrying that signature (cost-row probe)
        self.sig_representative: list[RuntimeTask] = []

    def add(self, task: RuntimeTask) -> None:
        """Intern ``task``; sets ``task.kind_id`` and ``task.cost_sig``."""
        kid = self._kernels.get(task.kernel)
        if kid is None:
            kid = len(self.kernel_names)
            self._kernels[task.kernel] = kid
            self.kernel_names.append(task.kernel)
        sig = task_signature(task)
        sid = self._sigs.get(sig)
        if sid is None:
            sid = len(self.sig_representative)
            self._sigs[sig] = sid
            self.sig_representative.append(task)
        task.kind_id = kid
        task.cost_sig = sid

    def signature_count(self) -> int:
        return len(self.sig_representative)


class DependencyTracker:
    """Per-handle hazard state for implicit dependency inference."""

    def __init__(self):
        #: handle id → last task that wrote it
        self._last_writer: dict[int, RuntimeTask] = {}
        #: handle id → readers since the last write
        self._readers: dict[int, list[RuntimeTask]] = {}

    def register(self, task: RuntimeTask) -> None:
        """Infer and record dependencies for ``task`` (submission order).

        One pass: each access takes its dependencies from the hazard
        state, then updates it.  A handle the task names twice may show
        the task itself as last writer or reader; it skips itself, and
        a writing access has already taken every dependency the handle
        implies, so the result equals inferring all dependencies before
        updating any state.
        """
        last_writer = self._last_writer
        readers = self._readers
        for access in task.accesses:
            hid = access.handle.id
            writer = last_writer.get(hid)
            if writer is not task:
                # every mode reads or writes: RAW or WAW on the writer
                if writer is not None:
                    task.add_dependency(writer)
                if access.mode.writes:
                    for reader in readers.get(hid, ()):  # WAR
                        if reader is not task:
                            task.add_dependency(reader)
            if access.mode.writes:
                last_writer[hid] = task
                readers[hid] = []
            else:
                readers.setdefault(hid, []).append(task)

    def reset(self) -> None:
        self._last_writer.clear()
        self._readers.clear()
