"""Cascabel rule pack: program-local defects and the access-mode
dataflow race checks."""

from __future__ import annotations

import pytest

from repro.analysis.cascabel_rules import build_context
from repro.analysis.diagnostics import Severity
from repro.cascabel import lexer
from repro.cascabel.cli import available_samples, sample_source
from repro.cascabel.frontend import parse_program
from repro.errors import PragmaSyntaxError

from tests.analysis.conftest import (
    RACY_PROGRAM,
    READ_WRITE_RACE_PROGRAM,
    rule_ids,
)


def test_write_write_race_fires_cas010(linter):
    report = linter.lint_program(RACY_PROGRAM, filename="racy.c")
    assert rule_ids(report) == ["CAS010"]
    diag = report.diagnostics[0]
    assert diag.severity is Severity.ERROR
    assert diag.subject == "buf"
    assert diag.location.file == "racy.c"
    assert diag.location.line == 7  # the second execute pragma
    assert diag.location.column == 1


def test_read_write_race_fires_cas011(linter):
    report = linter.lint_program(READ_WRITE_RACE_PROGRAM)
    assert rule_ids(report) == ["CAS011"]
    diag = report.diagnostics[0]
    assert diag.severity is Severity.WARNING
    assert diag.subject == "shared"


def test_same_group_executions_do_not_race(linter):
    source = RACY_PROGRAM.replace("executionset01", "cpus")
    assert rule_ids(linter.lint_program(source)) == []


def test_syntax_error_becomes_cas000(linter):
    source = "#pragma cascabel task : x86 : OnlyTwoSections\n"
    report = linter.lint_program(source, filename="broken.c")
    assert rule_ids(report) == ["CAS000"]
    diag = report.diagnostics[0]
    assert diag.location.line == 1
    assert "4 ':'-separated sections" in diag.message


def test_unknown_interface_fires_cas001(linter):
    source = """\
#pragma cascabel execute Imissing : cpus (A:BLOCK:4)
something(A);
"""
    assert rule_ids(linter.lint_program(source)) == ["CAS001"]


def test_use_before_definition_fires_cas002(linter):
    source = """\
#pragma cascabel execute Ilate : cpus (A:BLOCK:4)
late_cpu(A);

#pragma cascabel task : x86 : Ilate : late_cpu : (A: readwrite)
void late_cpu(double *A) { }
"""
    report = linter.lint_program(source)
    assert rule_ids(report) == ["CAS002"]
    assert report.diagnostics[0].severity is Severity.WARNING


def test_unused_task_fires_cas003(linter):
    source = """\
#pragma cascabel task : x86 : Idead : dead_cpu : (A: read)
void dead_cpu(double *A) { }
"""
    report = linter.lint_program(source)
    assert rule_ids(report) == ["CAS003"]
    assert report.diagnostics[0].subject == "Idead"


def test_dead_execute_pragma_fires_cas004(linter):
    source = """\
#pragma cascabel task : x86 : Iwork : work_cpu : (A: readwrite)
void work_cpu(double *A) { }

#pragma cascabel execute Iwork : cpus (A:BLOCK:4)
completely_unrelated(A);
"""
    report = linter.lint_program(source)
    assert rule_ids(report) == ["CAS004"]
    assert "completely_unrelated" in report.diagnostics[0].message


def test_unknown_distribution_parameter_fires_cas005(linter):
    source = """\
#pragma cascabel task : x86 : Iwork : work_cpu : (A: readwrite)
void work_cpu(double *A) { }

#pragma cascabel execute Iwork : cpus (Z:BLOCK:4)
work_cpu(A);
"""
    assert rule_ids(linter.lint_program(source)) == ["CAS005"]


def test_duplicate_variant_fires_cas006(linter):
    source = """\
#pragma cascabel task : x86 : Ia : twice : (A: readwrite)
void fa(double *A) { }

#pragma cascabel task : cuda : Ia : twice : (A: readwrite)
void fb(double *A) { }

#pragma cascabel execute Ia : cpus (A:BLOCK:4)
fa(A);
"""
    assert rule_ids(linter.lint_program(source)) == ["CAS006"]


def test_signature_mismatch_fires_cas007(linter):
    source = """\
#pragma cascabel task : x86 : Ia : va : (A: readwrite)
void fa(double *A) { }

#pragma cascabel task : cuda : Ia : vb : (A: readwrite)
void fb(double *A, int n) { }

#pragma cascabel execute Ia : cpus (A:BLOCK:4)
fa(A);
"""
    assert rule_ids(linter.lint_program(source)) == ["CAS007"]


def test_parameter_not_in_signature_fires_cas008(linter):
    source = """\
#pragma cascabel task : x86 : Ia : va : (Z: readwrite)
void fa(double *A) { }

#pragma cascabel execute Ia : cpus ()
fa(A);
"""
    report = linter.lint_program(source)
    assert "CAS008" in rule_ids(report)


@pytest.mark.parametrize("name", available_samples())
def test_shipped_samples_lint_clean(linter, name):
    report = linter.lint_program(sample_source(name), filename=name)
    assert rule_ids(report) == [], report.summary()


#: nine task pragmas and three executes, with comments and a string
#: literal that hides comment markers
MANY_PRAGMA_PROGRAM = "".join(
    f"""\
// {iface} on {arch}
#pragma cascabel task : {arch} : {iface} : {iface.lower()}_{suffix} : (C: readwrite, A: read)
void {iface.lower()}_{suffix}(double *C, double *A) {{ /* body */ }}
"""
    for iface in ("Idgemm", "Idtrsm", "Idsyrk")
    for arch, suffix in (("x86", "cpu"), ("cuda,opencl", "gpu"), ("cellsdk", "spe"))
) + """\
int main(void) {
    double C[64], A[64];
    const char *tag = "/* not a comment */";
#pragma cascabel execute Idgemm : cpus (C:BLOCK:8, A:BLOCK:8)
    idgemm_cpu(C, A);
#pragma cascabel execute Idtrsm : cpus (C:BLOCK:8, A:BLOCK:8)
    idtrsm_cpu(C, A);
#pragma cascabel execute Idsyrk : cpus (C:BLOCK:8, A:BLOCK:8)
    idsyrk_cpu(C, A);
    return 0;
}
"""


@pytest.mark.parametrize(
    "parse", [parse_program, build_context], ids=["frontend", "lint"]
)
def test_unit_is_stripped_once(monkeypatch, parse):
    calls = []
    strip = lexer.strip_comments

    def counting_strip(source):
        calls.append(source)
        return strip(source)

    monkeypatch.setattr(lexer, "strip_comments", counting_strip)
    parse(MANY_PRAGMA_PROGRAM)
    assert calls == [MANY_PRAGMA_PROGRAM]


@pytest.mark.parametrize(
    "source",
    [sample_source(name) for name in available_samples()] + [MANY_PRAGMA_PROGRAM],
    ids=available_samples() + ["many_pragmas"],
)
def test_lint_context_parses_like_the_frontend(source):
    ctx = build_context(source)
    assert ctx.syntax_findings == []
    assert ctx.program == parse_program(source)


def test_many_pragma_unit_binds_every_directive():
    program = parse_program(MANY_PRAGMA_PROGRAM)
    assert len(program.definitions) == 9
    assert [e.call.name for e in program.executions] == [
        "idgemm_cpu", "idtrsm_cpu", "idsyrk_cpu"
    ]
    assert [d.function.start_line for d in program.definitions] == list(
        range(3, 28, 3)
    )
    assert [e.call.line for e in program.executions] == [32, 34, 36]
    assert {e.call.column for e in program.executions} == {5}


#: malformed units → their CAS000 findings as (line, column, message)
MALFORMED_UNITS = {
    "continuation_at_eof": (
        "#pragma cascabel task : x86 : I : v : \\",
        [(1, None, "pragma syntax error at line 1:"
                   " pragma continuation at end of file")],
    ),
    "declaration_only": (
        "#pragma cascabel task : x86 : I : v : (A: read)\n"
        "void f(double *A);\n",
        [(2, 1, "pragma syntax error at line 2: task pragma must precede"
                " a function *definition* (body required)")],
    ),
    "no_call": (
        "#pragma cascabel task : x86 : I : v : (A: read)\n"
        "void f(double *A) { }\n"
        "#pragma cascabel execute I : g (A:BLOCK:4)\n"
        "int x = 1;\n",
        [(4, 1, "pragma syntax error at line 4:"
                " no call statement found after execute pragma")],
    ),
    "unknown_kind": (
        "int a;\n  #pragma cascabel launch I\nf(a);\n",
        [(2, 3, "pragma syntax error at line 2: unknown cascabel pragma kind"
                " in 'cascabel launch I' (expected 'task' or 'execute')")],
    ),
    "bad_mode_then_good": (
        "#pragma cascabel task : x86 : I : v : (A: sideways)\n"
        "void f(double *A) { }\n"
        "#pragma cascabel task : x86 : J : w : (A: read)\n"
        "void g(double *A) { }\n",
        [(1, 1, "pragma syntax error at line 1:"
                " unknown access mode ' sideways'; use read|write|readwrite")],
    ),
}


@pytest.mark.parametrize(
    "source,expected", MALFORMED_UNITS.values(), ids=list(MALFORMED_UNITS)
)
def test_syntax_findings_match_the_strict_parse(linter, source, expected):
    report = linter.lint_program(source)
    assert [
        (d.location.line, d.location.column, d.message)
        for d in report
        if d.rule == "CAS000"
    ] == expected
    with pytest.raises(PragmaSyntaxError) as raised:
        parse_program(source)
    assert str(raised.value) == expected[0][2]
