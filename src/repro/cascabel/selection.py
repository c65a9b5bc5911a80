"""Static task-variant pre-selection (Cascabel step 2, §IV-C).

"The platform patterns specified for available task implementation
variants are compared to the platform description of the target
environment.  This serves pre-pruning of task variants not suitable for
the target as well as static mapping of tasks to potentially available
hardware resources."

A variant is eligible on a target platform when

1. its *target platform list* names an execution environment the platform
   provides (``cuda``/``opencl`` need a gpu Worker, ``cellsdk``/``spe`` an
   spe Worker, ``x86``/``x86_64`` an x86-class PU), and
2. its *required pattern*, if any, matches the concrete platform
   (:mod:`repro.query.patterns`).

At least one eligible fallback (x86-class) variant must remain per
executed interface; otherwise the program cannot be translated for the
target (the paper requires a sequential fallback so "the application can
always be compiled for a Master PU").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SelectionError
from repro.model.platform import Platform
from repro.obs import spans as _obs
from repro.obs.digest import fingerprint_payload
from repro.query.patterns import pattern_matches
from repro.cascabel.program import AnnotatedProgram
from repro.cascabel.repository import TaskRepository, TaskVariant

__all__ = [
    "TARGET_ARCHITECTURES",
    "target_available",
    "eligible_variants",
    "SelectionReport",
    "preselect",
    "annotate_predictions",
]

#: target platform identifier → PU architectures that can host it
TARGET_ARCHITECTURES: dict[str, tuple[str, ...]] = {
    "x86": ("x86", "x86_64"),
    "x86_64": ("x86", "x86_64"),
    "opencl": ("gpu",),
    "cuda": ("gpu",),
    "cellsdk": ("spe",),
    "spe": ("spe",),
}


def target_available(target: str, platform: Platform) -> bool:
    """Whether ``platform`` offers an execution environment for ``target``.

    ``x86``-class targets are portable serial C: they are available on any
    platform with a Master PU ("the high-level input program can be
    executed on all systems where an appropriate C/C++ compiler is
    available", §IV-A), not only on x86 hardware.
    """
    return _target_in(target, platform.architectures(), bool(platform.masters))


def _target_in(target: str, present: set[str], has_masters: bool) -> bool:
    """:func:`target_available` over a platform's precomputed
    architecture set and whether it has a Master PU."""
    architectures = TARGET_ARCHITECTURES.get(target)
    if architectures is None:
        return False
    if any(arch in present for arch in architectures):
        return True
    return target in ("x86", "x86_64") and has_masters


def eligible_variants(
    variants: list[TaskVariant], platform: Platform
) -> tuple[list[TaskVariant], dict[str, str]]:
    """Filter ``variants`` against ``platform``.

    Returns (eligible, pruned) where ``pruned`` maps variant name →
    human-readable pruning reason.
    """
    eligible: list[TaskVariant] = []
    pruned: dict[str, str] = {}
    present = platform.architectures()
    has_masters = bool(platform.masters)
    for variant in variants:
        if not any(_target_in(t, present, has_masters) for t in variant.targets):
            pruned[variant.name] = (
                f"no hardware for targets {list(variant.targets)}"
                f" (platform architectures: {sorted(present)})"
            )
            continue
        if variant.required_pattern is not None and not pattern_matches(
            variant.required_pattern, platform
        ):
            pruned[variant.name] = "required platform pattern does not match"
            continue
        eligible.append(variant)
    return eligible, pruned


@dataclass
class SelectionReport:
    """Outcome of pre-selection for one program on one target platform."""

    platform_name: str
    #: interface → eligible variants (ordered: accelerator variants first)
    selected: dict[str, list[TaskVariant]] = field(default_factory=dict)
    #: variant name → pruning reason
    pruned: dict[str, str] = field(default_factory=dict)
    #: interface → variant name → {"analytic": s, "tuned": s} predicted
    #: execution seconds (filled by :func:`annotate_predictions`)
    predictions: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)

    def variants_for(self, interface: str) -> list[TaskVariant]:
        try:
            return self.selected[interface]
        except KeyError:
            raise SelectionError(
                f"interface {interface!r} was not part of this selection"
            ) from None

    def accelerator_variants(self, interface: str) -> list[TaskVariant]:
        return [v for v in self.variants_for(interface) if not v.is_fallback]

    def fallback(self, interface: str) -> TaskVariant:
        for variant in self.variants_for(interface):
            if variant.is_fallback:
                return variant
        raise SelectionError(
            f"interface {interface!r} has no eligible sequential fallback"
        )

    def summary(self) -> str:
        lines = [f"variant pre-selection for target {self.platform_name!r}:"]
        for interface, variants in sorted(self.selected.items()):
            names = ", ".join(
                f"{v.name}({'/'.join(v.targets)})" for v in variants
            )
            lines.append(f"  {interface}: {names}")
            for name, figures in sorted(
                self.predictions.get(interface, {}).items()
            ):
                cells = "  ".join(
                    f"{model}={seconds:.4g}s"
                    for model, seconds in sorted(figures.items())
                )
                lines.append(f"    {name}: {cells}")
        for name, reason in sorted(self.pruned.items()):
            lines.append(f"  pruned {name}: {reason}")
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """JSON-serializable representation (wire format of the registry
        service's ``/preselect`` endpoint).

        Deterministic: interfaces and pruned variants are emitted sorted,
        and :func:`preselect` orders variants canonically, so two
        selections of the same program against the same descriptor
        produce byte-identical payloads.
        """
        payload = {
            "platform": self.platform_name,
            "selected": {
                interface: [
                    {
                        "name": v.name,
                        "targets": list(v.targets),
                        "is_fallback": v.is_fallback,
                        "provenance": v.provenance,
                    }
                    for v in variants
                ]
                for interface, variants in sorted(self.selected.items())
            },
            "pruned": dict(sorted(self.pruned.items())),
        }
        if self.predictions:
            # present only when annotated, so un-annotated payloads (and
            # their fingerprints / service memo keys) are unchanged
            payload["predictions"] = {
                interface: {
                    name: dict(sorted(figures.items()))
                    for name, figures in sorted(variants.items())
                }
                for interface, variants in sorted(self.predictions.items())
            }
        return payload

    def fingerprint(self) -> str:
        """Stable sha256 over :meth:`to_payload` (cheap memoization key /
        equality check for services caching selection results)."""
        return fingerprint_payload(self.to_payload())


def preselect(
    repository: TaskRepository,
    program: AnnotatedProgram,
    platform: Platform,
    *,
    require_fallback: bool = True,
) -> SelectionReport:
    """Run static pre-selection for every interface the program executes.

    Interfaces that are defined but never executed are still selected
    (they may be called indirectly); interfaces with *zero* eligible
    variants raise :class:`~repro.errors.SelectionError`.
    """
    tracer = _obs.get_tracer()
    if tracer is None:
        return _preselect(
            repository, program, platform, require_fallback=require_fallback
        )
    with tracer.span(
        "cascabel.preselect", platform=platform.name
    ) as span_:
        report = _preselect(
            repository, program, platform, require_fallback=require_fallback
        )
        span_.set(
            interfaces=len(report.selected),
            pruned=len(report.pruned),
            fingerprint=report.fingerprint(),
        )
        return report


def _preselect(
    repository: TaskRepository,
    program: AnnotatedProgram,
    platform: Platform,
    *,
    require_fallback: bool,
) -> SelectionReport:
    report = SelectionReport(platform_name=platform.name)
    for interface in repository.interfaces():
        variants = repository.variants(interface)
        eligible, pruned = eligible_variants(variants, platform)
        report.pruned.update(pruned)
        if not eligible:
            raise SelectionError(
                f"interface {interface!r}: no variant is suitable for"
                f" platform {platform.name!r}"
                f" (pruned: {pruned})"
            )
        if require_fallback and not any(v.is_fallback for v in eligible):
            raise SelectionError(
                f"interface {interface!r}: no sequential fallback variant"
                f" remains for platform {platform.name!r}; the paper requires"
                " at least one Master-executable implementation"
            )
        # canonical order: accelerator variants first (output generation
        # prefers them), then by name — deterministic regardless of the
        # repository's registration order, so SelectionReport payloads
        # and fingerprints are stable and safely memoizable
        ordered = sorted(eligible, key=lambda v: (v.is_fallback, v.name))
        report.selected[interface] = ordered
    return report


def _kernel_for_interface(interface: str, registry) -> str | None:
    """Map a task interface name onto a runtime kernel.

    Interface names follow the paper's ``I<kernel>`` convention
    (``Idgemm``, ``Ivecadd``); kernels carry BLAS-style ``d`` prefixes.
    Candidates are tried in order: the name itself, the name without the
    ``I`` prefix, and the de-prefixed name with a ``d`` prepended.
    """
    candidates = [interface]
    if interface.startswith("I") and len(interface) > 1:
        stripped = interface[1:]
        candidates += [stripped, f"d{stripped}"]
    for candidate in candidates:
        if candidate in registry.names():
            return candidate
    return None


def annotate_predictions(
    report: SelectionReport,
    platform: Platform,
    *,
    models: dict,
    probe_size: int = 1024,
    registry=None,
) -> SelectionReport:
    """Fill ``report.predictions`` with estimated execution seconds.

    ``models`` maps a column label to a perf model — typically
    ``{"analytic": PerfModel(), "tuned": HistoryPerfModel(...)}`` — so a
    selection report can show how an empirically tuned model re-ranks the
    selected variants against the analytic guesses.  For every variant,
    the predicted time is the *best* (minimum) estimate over the platform
    Workers its targets can run on, probing a canonical
    ``probe_size``-sized problem of the interface's kernel.  Interfaces
    with no kernel mapping or no matching Worker are left un-annotated.

    Returns ``report`` (annotated in place) for chaining.
    """
    # local imports keep the static toolchain layer import-light; the
    # runtime/tune layers are only pulled in when annotation is requested
    from repro.kernels.registry import default_kernel_registry
    from repro.tune.calibrate import dims_for

    if registry is None:
        registry = default_kernel_registry()
    workers = platform.workers()
    for interface, variants in report.selected.items():
        kernel = _kernel_for_interface(interface, registry)
        if kernel is None:
            continue
        kernel_def = registry.get(kernel)
        dims = dims_for(kernel, probe_size)
        flops = kernel_def.flops(dims)
        nbytes = kernel_def.bytes_touched(dims)
        for variant in variants:
            architectures: set[str] = set()
            for target in variant.targets:
                architectures.update(TARGET_ARCHITECTURES.get(target, ()))
            candidates = [w for w in workers if w.architecture in architectures]
            if not candidates:
                continue
            figures: dict[str, float] = {}
            for label, model in models.items():
                figures[label] = min(
                    model.estimate(
                        pu,
                        kernel=kernel,
                        flops=flops,
                        bytes_touched=nbytes,
                        dims=dims if len(dims) == 3 else None,
                    )
                    for pu in candidates
                )
            report.predictions.setdefault(interface, {})[variant.name] = figures
    return report
