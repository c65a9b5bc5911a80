"""Program-local lint rules (``CAS0xx``) over annotated translation units.

The context parses the unit *leniently*: a malformed pragma becomes a
``CAS000`` diagnostic instead of aborting the run, and every well-formed
pragma is still analyzed.  The semantic checks mirror (and subsume)
:meth:`repro.cascabel.program.AnnotatedProgram.validate`, plus dataflow
over the declared access modes: two executions submitted to *different*
execution groups run concurrently (only same-group submissions are
serialized by the runtime queue), so a shared argument written by either
side is a statically detectable race.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.analysis.diagnostics import Finding, Severity, SourceLocation
from repro.errors import PragmaSyntaxError
from repro.cascabel.frontend import bind_directives
from repro.cascabel.lexer import LexedUnit
from repro.cascabel.program import AnnotatedProgram

__all__ = ["CascabelContext", "build_context", "RULES"]


@dataclass
class CascabelContext:
    """Input of the Cascabel pack: a leniently parsed translation unit."""

    source: str
    filename: str
    program: AnnotatedProgram
    syntax_findings: list[Finding] = field(default_factory=list)

    def location(
        self, line: Optional[int] = None, column: Optional[int] = None
    ) -> SourceLocation:
        return SourceLocation(file=self.filename, line=line, column=column)

    def pragma_location(self, pragma) -> SourceLocation:
        return self.location(pragma.line, getattr(pragma, "column", None))


def build_context(source: str, *, filename: str = "<string>") -> CascabelContext:
    """Parse for lint: collect syntax failures instead of raising."""
    program = AnnotatedProgram(source=source, filename=filename)
    ctx = CascabelContext(source=source, filename=filename, program=program)
    unit = LexedUnit(source)
    try:
        directives = unit.pragmas()
    except PragmaSyntaxError as exc:
        ctx.syntax_findings.append(_syntax_finding(exc, filename))
        return ctx

    def record(exc: PragmaSyntaxError, directive) -> None:
        ctx.syntax_findings.append(
            _syntax_finding(exc, filename, fallback_line=directive.line,
                            fallback_column=directive.column)
        )

    bind_directives(unit, directives, program, on_error=record)
    return ctx


def _syntax_finding(
    exc: PragmaSyntaxError,
    filename: str,
    *,
    fallback_line: Optional[int] = None,
    fallback_column: Optional[int] = None,
) -> Finding:
    line = exc.line if exc.line is not None else fallback_line
    column = getattr(exc, "column", None)
    if column is None:
        column = fallback_column
    return Finding(
        message=str(exc),
        location=SourceLocation(file=filename, line=line, column=column),
        hint="see the pragma grammar in docs/pdl-language-reference.md",
    )


# ---------------------------------------------------------------------------
# CAS000–CAS008 — structural program checks
# ---------------------------------------------------------------------------
def check_syntax(ctx: CascabelContext) -> Iterable[Finding]:
    return list(ctx.syntax_findings)


def check_unknown_interface(ctx: CascabelContext) -> Iterable[Finding]:
    known = set(ctx.program.interfaces())
    for execution in ctx.program.executions:
        if execution.interface not in known:
            yield Finding(
                message=(
                    f"execute pragma references unknown task interface"
                    f" {execution.interface!r}"
                    f" (defined: {sorted(known) or '(none)'})"
                ),
                location=ctx.pragma_location(execution.pragma),
                subject=execution.interface,
                hint="annotate a task definition for this interface first",
            )


def check_use_before_definition(ctx: CascabelContext) -> Iterable[Finding]:
    """Execute pragmas textually before the task they invoke is registered.

    The paper requires annotations "placed before the respective function
    invocation"; Cascabel registers tasks in document order, so an execute
    above its task definition invokes an unregistered interface.
    """
    first_definition = {}
    for definition in ctx.program.definitions:
        first_definition.setdefault(definition.interface, definition.pragma.line)
    for execution in ctx.program.executions:
        defined_at = first_definition.get(execution.interface)
        if defined_at is not None and execution.pragma.line < defined_at:
            yield Finding(
                message=(
                    f"interface {execution.interface!r} is executed at line"
                    f" {execution.pragma.line} but its first task definition"
                    f" appears later (line {defined_at})"
                ),
                location=ctx.pragma_location(execution.pragma),
                subject=execution.interface,
                hint="move the task definition above its first execution",
            )


def check_unused_task(ctx: CascabelContext) -> Iterable[Finding]:
    for interface in ctx.program.interfaces():
        if ctx.program.executions_for(interface):
            continue
        definition = ctx.program.definitions_for(interface)[0]
        yield Finding(
            message=(
                f"task interface {interface!r} is defined but never"
                f" executed in this translation unit"
            ),
            location=ctx.pragma_location(definition.pragma),
            subject=interface,
            hint="remove the dead task pragma or add an execute pragma",
        )


def check_dead_execute(ctx: CascabelContext) -> Iterable[Finding]:
    """Execute pragmas whose bound call does not invoke the interface."""
    for execution in ctx.program.executions:
        definitions = ctx.program.definitions_for(execution.interface)
        if not definitions:
            continue  # CAS001 covers unknown interfaces
        variant_functions = {d.function.name for d in definitions}
        if execution.call.name not in variant_functions:
            yield Finding(
                message=(
                    f"execute pragma for {execution.interface!r} binds to the"
                    f" call {execution.call.name!r} (line"
                    f" {execution.call.line}), which is not a variant of that"
                    f" interface ({sorted(variant_functions)}) — the pragma"
                    f" is dead"
                ),
                location=ctx.pragma_location(execution.pragma),
                subject=execution.interface,
                hint=(
                    "place the execute pragma directly above the variant"
                    " call it annotates"
                ),
            )


def check_unknown_distribution_parameter(
    ctx: CascabelContext,
) -> Iterable[Finding]:
    for execution in ctx.program.executions:
        definitions = ctx.program.definitions_for(execution.interface)
        if not definitions:
            continue
        params = {p.name for d in definitions for p in d.pragma.parameters}
        for dist in execution.pragma.distributions:
            if dist.name not in params:
                yield Finding(
                    message=(
                        f"execute of {execution.interface!r} distributes"
                        f" unknown parameter {dist.name!r}"
                        f" (parameters: {sorted(params)})"
                    ),
                    location=ctx.pragma_location(execution.pragma),
                    subject=execution.interface,
                    hint="distribution names must match task parameters",
                )


def check_duplicate_variant(ctx: CascabelContext) -> Iterable[Finding]:
    seen: dict[str, int] = {}
    for definition in ctx.program.definitions:
        name = definition.variant_name
        if name in seen:
            yield Finding(
                message=(
                    f"duplicate taskname {name!r} (first defined at line"
                    f" {seen[name]})"
                ),
                location=ctx.pragma_location(definition.pragma),
                subject=name,
                hint="tasknames must be unique across the translation unit",
            )
        else:
            seen[name] = definition.pragma.line


def check_signature_consistency(ctx: CascabelContext) -> Iterable[Finding]:
    for interface in ctx.program.interfaces():
        definitions = ctx.program.definitions_for(interface)
        reference = definitions[0].function
        for other in definitions[1:]:
            if (
                other.function.param_names != reference.param_names
                or other.function.return_type != reference.return_type
            ):
                yield Finding(
                    message=(
                        f"interface {interface!r}: variant"
                        f" {other.variant_name!r} signature"
                        f" ({other.function.signature}) differs from"
                        f" {definitions[0].variant_name!r}"
                        f" ({reference.signature})"
                    ),
                    location=ctx.pragma_location(other.pragma),
                    subject=interface,
                    hint=(
                        "all variants of one interface must share the"
                        " function signature"
                    ),
                )


def check_pragma_parameters(ctx: CascabelContext) -> Iterable[Finding]:
    for definition in ctx.program.definitions:
        declared = set(definition.function.param_names)
        for param in definition.pragma.parameters:
            if param.name not in declared:
                yield Finding(
                    message=(
                        f"task {definition.interface!r} variant"
                        f" {definition.variant_name!r}: pragma names"
                        f" parameter {param.name!r} but the function"
                        f" signature declares {sorted(declared)}"
                    ),
                    location=ctx.pragma_location(definition.pragma),
                    subject=definition.variant_name,
                    hint="pragma parameters must name function parameters",
                )


# ---------------------------------------------------------------------------
# CAS010 / CAS011 — static race detection over access modes
# ---------------------------------------------------------------------------
def _normalize_argument(text: str) -> str:
    return " ".join(text.split()).lstrip("&").strip()


def _argument_accesses(ctx: CascabelContext, execution: TaskExecution):
    """``(argument, parameter name, mode)`` per annotated call argument."""
    definitions = ctx.program.definitions_for(execution.interface)
    if not definitions:
        return []
    params = definitions[0].pragma.parameters
    out = []
    for param, argument in zip(params, execution.call.arguments):
        key = _normalize_argument(argument)
        if key:
            out.append((key, param.name, param.mode))
    return out


def _concurrent(a: TaskExecution, b: TaskExecution) -> bool:
    """Submissions to the same (non-wildcard) group are serialized by the
    runtime queue; everything else may overlap in time."""
    return a.execution_group != b.execution_group


def _race_findings(ctx: CascabelContext, *, write_write: bool):
    executions = ctx.program.executions
    for i, first in enumerate(executions):
        for second in executions[i + 1 :]:
            if not _concurrent(first, second):
                continue
            accesses = {key: mode for key, _n, mode in _argument_accesses(ctx, first)}
            for key, param, mode in _argument_accesses(ctx, second):
                other = accesses.get(key)
                if other is None:
                    continue
                both_write = other.writes and mode.writes
                if write_write != both_write:
                    continue
                if not both_write and not (other.writes or mode.writes):
                    continue  # read/read never conflicts
                kind = (
                    "both write"
                    if both_write
                    else "one writes while the other reads"
                )
                yield Finding(
                    message=(
                        f"argument {key!r} is shared by {first.interface!r}"
                        f" (group {first.execution_group or '<all>'!r}, line"
                        f" {first.pragma.line}) and {second.interface!r}"
                        f" (group {second.execution_group or '<all>'!r}, line"
                        f" {second.pragma.line}); the executions run in"
                        f" different execution groups and {kind} — a data"
                        f" race"
                    ),
                    location=ctx.pragma_location(second.pragma),
                    subject=key,
                    hint=(
                        "submit both executions to one execution group"
                        " (same-group tasks are serialized) or privatize"
                        " the buffer"
                    ),
                )


def check_write_write_races(ctx: CascabelContext) -> Iterable[Finding]:
    return _race_findings(ctx, write_write=True)


def check_read_write_races(ctx: CascabelContext) -> Iterable[Finding]:
    return _race_findings(ctx, write_write=False)


def _rule(rule_id, name, severity, summary, check):
    from repro.analysis.rules import Rule

    return Rule(
        id=rule_id,
        name=name,
        pack="cascabel",
        severity=severity,
        summary=summary,
        check=check,
    )


RULES = [
    _rule(
        "CAS000",
        "pragma-syntax",
        Severity.ERROR,
        "malformed #pragma cascabel annotation",
        check_syntax,
    ),
    _rule(
        "CAS001",
        "unknown-interface",
        Severity.ERROR,
        "execute pragma references an undefined task interface",
        check_unknown_interface,
    ),
    _rule(
        "CAS002",
        "use-before-definition",
        Severity.WARNING,
        "interface executed before its task definition registers it",
        check_use_before_definition,
    ),
    _rule(
        "CAS003",
        "unused-task",
        Severity.WARNING,
        "task interface is defined but never executed",
        check_unused_task,
    ),
    _rule(
        "CAS004",
        "dead-execute-pragma",
        Severity.ERROR,
        "execute pragma binds to a call that is not a variant of its interface",
        check_dead_execute,
    ),
    _rule(
        "CAS005",
        "unknown-distribution-parameter",
        Severity.ERROR,
        "distribution references a parameter the task does not declare",
        check_unknown_distribution_parameter,
    ),
    _rule(
        "CAS006",
        "duplicate-variant",
        Severity.ERROR,
        "taskname reused across the translation unit",
        check_duplicate_variant,
    ),
    _rule(
        "CAS007",
        "signature-mismatch",
        Severity.ERROR,
        "variants of one interface disagree on the function signature",
        check_signature_consistency,
    ),
    _rule(
        "CAS008",
        "parameter-not-in-signature",
        Severity.ERROR,
        "pragma parameter does not name a function parameter",
        check_pragma_parameters,
    ),
    _rule(
        "CAS010",
        "write-write-race",
        Severity.ERROR,
        "two concurrent executions write the same argument",
        check_write_write_races,
    ),
    _rule(
        "CAS011",
        "read-write-race",
        Severity.WARNING,
        "concurrent executions read and write the same argument",
        check_read_write_races,
    ),
]
