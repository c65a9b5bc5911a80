"""Worker contexts: the runtime's view of one executable processing unit.

The engine expands PDL Worker entities (``quantity=8`` → eight worker
contexts) and binds each to a memory node.  A worker context carries the
PU *entity* id (used for interconnect routing — links are declared against
entities) and a unique *instance* id (used for traces and scheduling).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RuntimeEngineError
from repro.kernels.registry import KernelRegistry
from repro.model.entities import ProcessingUnit

__all__ = ["WorkerContext"]


@dataclass
class WorkerContext:
    """One schedulable execution lane."""

    instance_id: str  # unique, e.g. "cpu#3" or "gpu0"
    entity_id: str  # PDL entity id, e.g. "cpu" (for routing)
    pu: ProcessingUnit  # the (possibly shared) PDL entity
    architecture: str
    memory_node: int

    # -- simulation state ------------------------------------------------
    busy_until: float = 0.0
    #: accumulated busy seconds (exec only, not transfers)
    busy_time: float = 0.0
    tasks_executed: int = 0
    #: lane died mid-run (worker fault); it never comes back, unlike an
    #: AVAILABLE=false lane that a PUOnline event can revive
    retired: bool = False

    def reset(self) -> None:
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.tasks_executed = 0
        self.retired = False

    def supports(self, registry: KernelRegistry, kernel: str) -> bool:
        """Whether this worker has an implementation variant for ``kernel``."""
        return registry.get(kernel).supports(self.architecture)

    def __repr__(self) -> str:
        return (
            f"WorkerContext({self.instance_id!r}, arch={self.architecture!r},"
            f" node={self.memory_node})"
        )


def expand_workers(
    leaf_pus: list[ProcessingUnit],
    node_of_entity: dict[str, int],
) -> list[WorkerContext]:
    """Expand PDL worker entities into per-instance contexts."""
    workers: list[WorkerContext] = []
    for pu in leaf_pus:
        arch = pu.architecture
        if arch is None:
            raise RuntimeEngineError(
                f"worker PU {pu.id!r} lacks an ARCHITECTURE property"
            )
        node = node_of_entity[pu.id]
        if pu.quantity == 1:
            workers.append(
                WorkerContext(
                    instance_id=pu.id,
                    entity_id=pu.id,
                    pu=pu,
                    architecture=arch,
                    memory_node=node,
                )
            )
        else:
            for k in range(pu.quantity):
                workers.append(
                    WorkerContext(
                        instance_id=f"{pu.id}#{k}",
                        entity_id=pu.id,
                        pu=pu,
                        architecture=arch,
                        memory_node=node,
                    )
                )
    return workers
