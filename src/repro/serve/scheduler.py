"""Deadline-augmented dmda placement (``dmda-slo``).

StarPU's ``dmda`` minimizes estimated finish time.  Under an SLO that is
not quite the right objective: any placement finishing *before* the
deadline is equally acceptable, so among those the scheduler should
optimize fleet efficiency instead — and min-finish does the opposite,
eagerly spilling work onto slow-but-idle lanes the moment a fast lane's
queue builds.  :class:`DeadlineScheduler` keeps the dmda machinery —
per-worker estimated-free clocks, queued-charge accounting, drain rewind
— and changes the *score*:

* lane predicted to **meet** the deadline:
  ``score = cost + (finish - deadline) / miss_weight`` — dominated by
  execution cost, so requests consolidate onto the lanes that execute
  them fastest (the GPUs) even behind a queue, as long as the deadline
  still holds; the slack term (negative for meeting lanes) breaks ties
  toward earlier finishes, and ``miss_weight`` sets the trade-off
  (large = pure consolidation, small = dmda-like).
* lane predicted to **miss**:
  ``score = finish + miss_weight * (finish - deadline)`` — strictly
  positive and above any meeting lane's score, so a meeting lane always
  wins; under total overload the least-late placement wins.

Tasks without a deadline — and the whole policy at ``miss_weight = 0`` —
score by plain finish time, i.e. degenerate to dmda.  Queued tasks
within one lane additionally pop in earliest-deadline-first order, so a
tight-deadline task is not stuck behind a loose-deadline one that merely
arrived earlier.
"""

from __future__ import annotations

import bisect
from typing import Optional

from repro.errors import SchedulerError
from repro.runtime.schedulers import (
    DequeModelScheduler,
    Scheduler,
    make_scheduler,
)
from repro.runtime.workers import WorkerContext

__all__ = ["DeadlineScheduler", "make_serve_scheduler", "SERVE_SCHEDULER_NAMES"]

_INF = float("inf")


def _deadline_of(task) -> Optional[float]:
    deadline = getattr(task, "deadline", None)
    if deadline is None or deadline == float("inf"):
        return None
    return deadline


def _edf_key(task) -> tuple[float, int]:
    deadline = _deadline_of(task)
    return (deadline if deadline is not None else _INF, task.id)


class DeadlineScheduler(DequeModelScheduler):
    """dmda with predicted-lateness penalties and EDF lane queues."""

    def __init__(self, *, miss_weight: float = 4.0, data_aware: bool = True):
        super().__init__(data_aware=data_aware, steal=False)
        if miss_weight < 0.0:
            raise SchedulerError(
                f"miss_weight must be >= 0, got {miss_weight!r}"
            )
        self.miss_weight = miss_weight
        self.name = "dmda-slo"

    def task_ready(self, task, now: float) -> None:
        if self._batch is not None:
            # the memoized cost row: +inf where a lane is offline or has
            # no implementation.  A plain loop over its floats beats
            # numpy's per-call cost on fleets of a few lanes.
            costs = self._batch.cost_row(task, self.data_aware).tolist()
        else:
            costs = [
                self._task_cost(task, w) if self.cost.supports(task, w) else _INF
                for w in self.workers
            ]
        deadline = _deadline_of(task)
        weight = self.miss_weight
        best: Optional[WorkerContext] = None
        best_score = _INF
        best_finish = 0.0
        best_cost = 0.0
        for worker, cost in zip(self.workers, costs):
            if cost == _INF:
                continue
            begin = max(now, self._est_free[worker.instance_id])
            finish = begin + cost
            if deadline is None or weight == 0.0:
                score = finish
            elif finish <= deadline:
                # meets the SLO: consolidate onto the fastest-executing
                # lane; slack (negative) breaks ties toward early finish
                score = cost + (finish - deadline) / weight
            else:
                # misses: least predicted lateness, always worse than any
                # meeting lane (which scores at most cost <= finish)
                score = finish + weight * (finish - deadline)
            if score < best_score:
                best_score = score
                best_finish = finish
                best = worker
                best_cost = cost
        if best is None:
            raise SchedulerError(f"no worker supports kernel {task.kernel!r}")
        self._insert_edf(best.instance_id, task)
        self._charge[best.instance_id][task.id] = best_cost
        self._set_est_free(best.instance_id, best_finish)

    def _insert_edf(self, instance_id: str, task) -> None:
        """Insert into the lane queue in (deadline, id) order.

        ``id`` breaks deadline ties by admission order, keeping the queue
        deterministic.  Tasks without a deadline sort last (+inf).
        """
        queue = self._queues[instance_id]
        queue.insert(bisect.bisect_right(queue, _edf_key(task), key=_edf_key), task)


SERVE_SCHEDULER_NAMES = ("dmda-slo", "dmda", "dm", "eager")


def make_serve_scheduler(name: str, *, miss_weight: float = 4.0) -> Scheduler:
    """Factory over the serving-capable policies.

    ``dmda-slo`` is the deadline-aware policy; the plain runtime policies
    (``dmda``/``dm``/``eager``) serve as ablation baselines.  ``ws`` and
    ``random`` are excluded: neither maintains the est-free accounting the
    autoscaler's drain-down relies on for clean rewinds.
    """
    if name == "dmda-slo":
        return DeadlineScheduler(miss_weight=miss_weight)
    if name in ("dmda", "dm", "eager"):
        return make_scheduler(name)
    raise SchedulerError(
        f"unknown serving scheduler {name!r}; available: {SERVE_SCHEDULER_NAMES}"
    )
