"""Cascabel frontend: source text → :class:`AnnotatedProgram`.

Walks the cascabel pragmas of a translation unit; every ``task`` pragma
binds to the next function definition, every ``execute`` pragma to the
next call statement ("must be placed before the respective function
invocation", §IV-A).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import PragmaSyntaxError
from repro.cascabel.lexer import LexedUnit, PragmaDirective
from repro.cascabel.pragmas import TaskPragma, parse_pragma
from repro.cascabel.program import AnnotatedProgram, TaskDefinition, TaskExecution
from repro.obs import spans as _obs

__all__ = ["parse_program", "parse_program_file", "bind_directives"]


def parse_program(
    source: str, *, filename: str = "<string>", validate: bool = True
) -> AnnotatedProgram:
    """Parse an annotated C/C++ translation unit."""
    tracer = _obs.get_tracer()
    if tracer is None:
        return _parse_program(source, filename=filename, validate=validate)
    with tracer.span(
        "cascabel.frontend", filename=filename, nbytes=len(source)
    ) as span_:
        program = _parse_program(source, filename=filename, validate=validate)
        span_.set(
            definitions=len(program.definitions),
            executions=len(program.executions),
        )
        return program


def _parse_program(
    source: str, *, filename: str, validate: bool
) -> AnnotatedProgram:
    program = AnnotatedProgram(source=source, filename=filename)
    with _obs.span("cascabel.lex"):
        unit = LexedUnit(source)
        directives = unit.pragmas()
    with _obs.span("cascabel.parse"):
        bind_directives(unit, directives, program)
        if validate:
            program.validate()
    return program


def bind_directives(
    unit: LexedUnit,
    directives: list[PragmaDirective],
    program: AnnotatedProgram,
    *,
    on_error: Optional[
        Callable[[PragmaSyntaxError, PragmaDirective], None]
    ] = None,
) -> None:
    """Bind each directive of ``unit`` to the code that follows it.

    A task pragma binds to the next function definition, an execute
    pragma to the next call statement; both are appended to ``program``
    in document order.  A malformed directive raises
    :class:`~repro.errors.PragmaSyntaxError`, or, given ``on_error``, is
    handed to ``on_error(exc, directive)`` and skipped.
    """
    for directive in directives:
        try:
            pragma = parse_pragma(directive)
            if isinstance(pragma, TaskPragma):
                program.definitions.append(
                    TaskDefinition(
                        pragma=pragma,
                        function=unit.function_at(directive.end_line + 1),
                    )
                )
            else:
                program.executions.append(
                    TaskExecution(
                        pragma=pragma, call=unit.call_at(directive.end_line + 1)
                    )
                )
        except PragmaSyntaxError as exc:
            if on_error is None:
                raise
            on_error(exc, directive)


def parse_program_file(path, **kwargs) -> AnnotatedProgram:
    """Parse an annotated translation unit from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    kwargs.setdefault("filename", str(path))
    return parse_program(source, **kwargs)
