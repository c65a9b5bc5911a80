"""Per-candidate scoring: the full toolchain pipeline as a pure function.

One candidate in, one :class:`PointScore` out — parse the canonical
XML, strict-lint it, translate the workload's annotated program
(variant pre-selection included), then simulate the workload on the
vectorized runtime.  Everything a sweep worker needs travels in the
arguments and everything it produces returns in the score, so the
function runs identically inline, in a fork pool, or in a spawn pool.

Runtime-emitted diagnostics (e.g. ``RT001`` corrupt-AVAILABLE) mark the
point ``degraded`` rather than letting a silently-crippled platform
post a competitive makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ExploreError
from repro.explore.synth import Candidate

__all__ = [
    "WorkloadSpec",
    "PointScore",
    "score_candidate",
    "available_workloads",
]

#: canonical annotated programs per workload — what the paper's
#: toolchain front-end would see; preselect prunes their variants
#: against every synthesized descriptor
_PROGRAMS: dict[str, str] = {
    "dgemm": """\
#pragma cascabel task : x86 : Idgemm : dgemm_cpu : (C: readwrite, A: read, B: read)
void matmul(double *C, double *A, double *B) { }

#pragma cascabel task : cuda,opencl : Idgemm : dgemm_gpu : (C: readwrite, A: read, B: read)
void matmul_gpu(double *C, double *A, double *B) { }

int main(void) {
    double *C, *A, *B;
    #pragma cascabel execute Idgemm : executionset01 (C:BLOCK:N, A:BLOCK:N, B:BLOCK:N)
    matmul(C, A, B);
    return 0;
}
""",
    "cholesky": """\
#pragma cascabel task : x86 : Ipotrf : potrf_cpu : (A: readwrite)
void potrf(double *A) { }

#pragma cascabel task : cuda,opencl : Ipotrf : potrf_gpu : (A: readwrite)
void potrf_gpu(double *A) { }

int main(void) {
    double *A;
    #pragma cascabel execute Ipotrf : executionset01 (A:BLOCK:N)
    potrf(A);
    return 0;
}
""",
    "vecadd": """\
#pragma cascabel task : x86 : Ivecadd : vecadd_cpu : (A: readwrite, B: read)
void vectoradd(double *A, double *B) { }

int main(void) {
    double *A, *B;
    #pragma cascabel execute Ivecadd : executionset01 (A:BLOCK:N, B:BLOCK:N)
    vectoradd(A, B);
    return 0;
}
""",
}


def _submit_dgemm(engine, spec: "WorkloadSpec") -> None:
    from repro.experiments.workloads import submit_tiled_dgemm

    submit_tiled_dgemm(engine, spec.n, spec.block_size)


def _submit_cholesky(engine, spec: "WorkloadSpec") -> None:
    from repro.experiments.workloads import submit_tiled_cholesky

    submit_tiled_cholesky(engine, spec.n, spec.block_size)


def _submit_vecadd(engine, spec: "WorkloadSpec") -> None:
    from repro.experiments.workloads import submit_vecadd

    submit_vecadd(engine, spec.n, max(1, spec.n // spec.block_size))


def _flops_dgemm(spec: "WorkloadSpec") -> float:
    from repro.experiments.workloads import dgemm_flops

    return dgemm_flops(spec.n)


def _flops_cholesky(spec: "WorkloadSpec") -> float:
    from repro.experiments.workloads import cholesky_flops

    return cholesky_flops(spec.n)


def _flops_vecadd(spec: "WorkloadSpec") -> float:
    return float(spec.n)


#: name → (submitter, flops); looked up by *name* so a WorkloadSpec
#: pickles as plain data and resolves in any worker process
_WORKLOADS: dict[str, tuple[Callable, Callable]] = {
    "dgemm": (_submit_dgemm, _flops_dgemm),
    "cholesky": (_submit_cholesky, _flops_cholesky),
    "vecadd": (_submit_vecadd, _flops_vecadd),
}


def available_workloads() -> list[str]:
    return sorted(_WORKLOADS)


@dataclass(frozen=True)
class WorkloadSpec:
    """The workload every candidate is scored on (pickle-safe data)."""

    name: str = "dgemm"
    n: int = 2048
    block_size: int = 256
    scheduler: str = "dmda"

    def __post_init__(self):
        if self.name not in _WORKLOADS:
            raise ExploreError(
                f"unknown workload {self.name!r}"
                f" (choose from {', '.join(sorted(_WORKLOADS))})"
            )
        if self.n < 1 or self.block_size < 1:
            raise ExploreError("workload n and block_size must be >= 1")

    @property
    def program(self) -> str:
        return _PROGRAMS[self.name]

    def submit(self, engine) -> None:
        _WORKLOADS[self.name][0](engine, self)

    def flops(self) -> float:
        return _WORKLOADS[self.name][1](self)

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "block_size": self.block_size,
            "scheduler": self.scheduler,
        }


@dataclass
class PointScore:
    """The sweep's verdict on one candidate platform.

    ``status`` is ``"ok"`` (clean run), ``"degraded"`` (the run
    completed but the runtime emitted diagnostics — the score is
    suspect), or ``"error"`` (the pipeline failed; ``error`` says
    where).  Wall-clock time is deliberately absent so payloads —
    and the frontier fingerprint built over them — are deterministic.
    """

    digest: str
    name: str
    params: dict
    area_mm2: float
    power_w: float
    aggregate_bandwidth_gbs: float
    status: str = "ok"
    makespan_s: Optional[float] = None
    gflops: Optional[float] = None
    task_count: int = 0
    transfer_count: int = 0
    tasks_by_architecture: dict = field(default_factory=dict)
    selection_fingerprint: Optional[str] = None
    tuned: bool = False
    diagnostics: list = field(default_factory=list)
    error: Optional[str] = None

    def to_payload(self) -> dict:
        return {
            "digest": self.digest,
            "name": self.name,
            "params": dict(self.params),
            "area_mm2": round(self.area_mm2, 6),
            "power_w": round(self.power_w, 6),
            "aggregate_bandwidth_gbs": round(self.aggregate_bandwidth_gbs, 6),
            "status": self.status,
            "makespan_s": self.makespan_s,
            "gflops": self.gflops,
            "task_count": self.task_count,
            "transfer_count": self.transfer_count,
            "tasks_by_architecture": dict(
                sorted(self.tasks_by_architecture.items())
            ),
            "selection_fingerprint": self.selection_fingerprint,
            "tuned": self.tuned,
            "diagnostics": list(self.diagnostics),
            "error": self.error,
        }


def _error_score(candidate: Candidate, stage: str, exc: Exception) -> PointScore:
    return PointScore(
        digest=candidate.digest,
        name=candidate.name,
        params=candidate.params.to_payload(),
        area_mm2=candidate.area_mm2,
        power_w=candidate.power_w,
        aggregate_bandwidth_gbs=candidate.aggregate_bandwidth_gbs,
        status="error",
        error=f"{stage}: {type(exc).__name__}: {exc}",
    )


def score_candidate(
    candidate: Candidate,
    workload: WorkloadSpec,
    *,
    tuning_path: Optional[str] = None,
) -> PointScore:
    """Run the whole pipeline on one candidate; never raises.

    parse → strict lint → translate (with variant pre-selection) →
    vectorized simulation.  With ``tuning_path`` naming a
    :class:`~repro.tune.database.TuningDatabase` JSON store, the
    scheduler plans with a :class:`~repro.tune.model.HistoryPerfModel`
    keyed by the candidate's digest (analytic fallback when the family
    has no measured profile).
    """
    from repro.analysis.engine import Linter
    from repro.cascabel.driver import translate
    from repro.pdl.catalog import parse_cached
    from repro.runtime.engine import RuntimeEngine

    # 1. parse the canonical document back (catalog-identical semantics);
    #    cheap insurance that what we score is what the XML says, not a
    #    stale in-memory object
    try:
        platform = parse_cached(
            candidate.xml, name=candidate.name, digest=candidate.digest
        )
    except Exception as exc:  # noqa: BLE001 — every failure becomes a row
        return _error_score(candidate, "parse", exc)

    # 2. strict lint: a generated descriptor that trips the PDL pack is a
    #    synthesizer bug and must surface as a failed point, not a score
    try:
        report = Linter().lint_platform(platform)
        if not report.ok:
            findings = "; ".join(d.format() for d in report.sorted())
            return _error_score(
                candidate, "lint", ExploreError(f"strict lint failed: {findings}")
            )
    except Exception as exc:  # noqa: BLE001
        return _error_score(candidate, "lint", exc)

    # 3. translate: variant pre-selection against this candidate
    try:
        translation = translate(workload.program, platform, lint="off")
        selection_fp = translation.selection.fingerprint()
    except Exception as exc:  # noqa: BLE001
        return _error_score(candidate, "translate", exc)

    # 4. simulate
    try:
        sched_perf_model = None
        tuned = False
        if tuning_path is not None:
            from repro.tune.database import TuningDatabase
            from repro.tune.model import HistoryPerfModel

            database = TuningDatabase(tuning_path)
            sched_perf_model = HistoryPerfModel(database, candidate.digest)
            tuned = True
        engine = RuntimeEngine(
            platform,
            scheduler=workload.scheduler,
            sched_perf_model=sched_perf_model,
        )
        workload.submit(engine)
        result = engine.run()
    except Exception as exc:  # noqa: BLE001
        return _error_score(candidate, "simulate", exc)

    diagnostics = list(result.diagnostics)
    return PointScore(
        digest=candidate.digest,
        name=candidate.name,
        params=candidate.params.to_payload(),
        area_mm2=candidate.area_mm2,
        power_w=candidate.power_w,
        aggregate_bandwidth_gbs=candidate.aggregate_bandwidth_gbs,
        status="degraded" if diagnostics else "ok",
        makespan_s=result.makespan,
        gflops=result.gflops(workload.flops()),
        task_count=result.task_count,
        transfer_count=result.transfer_count,
        tasks_by_architecture=result.trace.tasks_per_architecture(),
        selection_fingerprint=selection_fp,
        tuned=tuned,
        diagnostics=diagnostics,
    )
