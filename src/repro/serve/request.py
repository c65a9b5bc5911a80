"""Serving requests, tenants and synthetic arrival streams.

The serving subsystem is *open-loop*: an arrival stream decides when
requests show up, independent of how fast the fleet drains them (the
standard methodology for latency benchmarks — closed loops hide queueing
collapse).  A stream is any iterable of :class:`TaskRequest` in
nondecreasing arrival order; this module provides the synthetic Poisson
generator, and :mod:`repro.serve.replay` derives streams from recorded
:class:`~repro.runtime.trace.TraceLog` files.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import ServeError
from repro.runtime.coherence import AccessMode
from repro.runtime.data import DataHandle
from repro.runtime.tasks import RuntimeTask

__all__ = ["TaskRequest", "TenantSpec", "ServeTask", "synthetic_arrivals"]


@dataclass(frozen=True)
class TaskRequest:
    """One task arriving at the serving front end.

    ``deadline_s`` is the *relative* SLO: the task should complete within
    that many seconds of its arrival.  ``None`` falls back to the serving
    config's default deadline.
    """

    arrival_s: float
    tenant: str
    kernel: str
    dims: tuple[int, ...]
    deadline_s: Optional[float] = None
    priority: int = 0
    tag: str = ""
    #: operand bytes staged host → worker before execution (0 = none;
    #: whole bytes, a fraction is dropped)
    nbytes: float = 0.0


@dataclass(frozen=True)
class TenantSpec:
    """Offered load and SLO of one tenant in a synthetic/replayed stream."""

    name: str
    rate_per_s: float = 100.0
    kernel: str = "dgemm"
    size: int = 128
    deadline_s: Optional[float] = None
    priority: int = 0
    #: rate multiplier during burst windows (1.0 = no bursts)
    burst_factor: float = 1.0
    #: burst window cadence: every other ``burst_every_s`` window runs at
    #: ``rate_per_s * burst_factor``
    burst_every_s: float = 0.5

    def __post_init__(self):
        if self.rate_per_s <= 0.0:
            raise ServeError(
                f"tenant {self.name!r}: rate_per_s must be positive,"
                f" got {self.rate_per_s!r}"
            )
        if self.burst_factor < 1.0:
            raise ServeError(
                f"tenant {self.name!r}: burst_factor must be >= 1.0,"
                f" got {self.burst_factor!r}"
            )


class ServeTask(RuntimeTask):
    """An admitted request as a runtime task.

    It reads one private, host-resident handle of the request's operand
    bytes, named ``req-<id>``, so the runtime stages and prices it like
    any batch operand.  A request without operand bytes writes its
    handle instead, which stages nothing.  On top of the task it carries
    the serving-side state: tenant, arrival time and absolute deadline.
    Serving tasks are independent by construction: no dependencies.
    """

    __slots__ = ("tenant", "arrival", "deadline")

    def __init__(
        self,
        task_id: int,
        request: TaskRequest,
        *,
        deadline_abs: float,
    ):
        nbytes = int(request.nbytes)
        operand = DataHandle(shape=(nbytes,), dtype=np.uint8, name=f"req-{task_id}")
        super().__init__(
            request.kernel,
            [(operand, AccessMode.READ if nbytes > 0 else AccessMode.WRITE)],
            dims=request.dims,
            priority=request.priority,
            tag=request.tag or f"{request.tenant}:{request.kernel}#{task_id}",
            task_id=task_id,
        )
        self.tenant = request.tenant
        self.arrival = request.arrival_s
        self.deadline = deadline_abs

    def __repr__(self) -> str:
        return (
            f"ServeTask(id={self.id}, tenant={self.tenant!r},"
            f" kernel={self.kernel!r}, deadline={self.deadline:.4f})"
        )


def _tenant_rng(seed: int, name: str) -> random.Random:
    """Per-tenant RNG derived deterministically from (seed, tenant name)."""
    return random.Random((seed << 32) ^ zlib.crc32(name.encode("utf-8")))


def _tenant_arrivals(
    spec: TenantSpec, duration_s: float, seed: int
) -> list[TaskRequest]:
    rng = _tenant_rng(seed, spec.name)
    out: list[TaskRequest] = []
    t = 0.0
    from repro.tune.calibrate import dims_for

    dims = dims_for(spec.kernel, spec.size)
    # one square double-precision operand worth of staging per request
    nbytes = float(spec.size * spec.size * 8)
    while True:
        rate = spec.rate_per_s
        if spec.burst_factor > 1.0:
            window = int(t / spec.burst_every_s)
            if window % 2 == 1:
                rate *= spec.burst_factor
        t += rng.expovariate(rate)
        if t >= duration_s:
            return out
        out.append(
            TaskRequest(
                arrival_s=t,
                tenant=spec.name,
                kernel=spec.kernel,
                dims=dims,
                deadline_s=spec.deadline_s,
                priority=spec.priority,
                nbytes=nbytes,
            )
        )


def synthetic_arrivals(
    tenants: Sequence[TenantSpec],
    *,
    duration_s: float,
    seed: int = 0,
) -> list[TaskRequest]:
    """Merged multi-tenant Poisson arrival stream over ``[0, duration_s)``.

    Each tenant gets an independent exponential-interarrival process
    (optionally bursty) seeded from ``(seed, tenant name)``, so the
    stream is deterministic, and adding a tenant never perturbs the
    arrivals of the others.  The merge is stable: ties in arrival time
    keep tenant declaration order.
    """
    if not tenants:
        raise ServeError("synthetic_arrivals needs at least one tenant")
    if duration_s <= 0.0:
        raise ServeError(f"duration_s must be positive, got {duration_s!r}")
    names = [spec.name for spec in tenants]
    if len(set(names)) != len(names):
        raise ServeError(f"duplicate tenant names in stream: {names}")
    order = {spec.name: i for i, spec in enumerate(tenants)}
    merged: list[TaskRequest] = []
    for spec in tenants:
        merged.extend(_tenant_arrivals(spec, duration_s, seed))
    merged.sort(key=lambda r: (r.arrival_s, order[r.tenant]))
    return merged


def validate_stream(arrivals: Iterable[TaskRequest]) -> Iterable[TaskRequest]:
    """Yield the stream, raising on out-of-order arrivals."""
    last = float("-inf")
    for request in arrivals:
        if request.arrival_s < last:
            raise ServeError(
                f"arrival stream is not time-ordered:"
                f" {request.arrival_s} after {last}"
            )
        last = request.arrival_s
        yield request
