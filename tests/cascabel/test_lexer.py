"""Unit tests for the C-source scanner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PragmaSyntaxError
from repro.cascabel.cli import available_samples, sample_source
from repro.cascabel.lexer import (
    extract_call,
    extract_function,
    parse_signature,
    scan_pragmas,
    strip_comments,
)


def reference_strip_comments(source: str) -> str:
    """Character-at-a-time state machine: the executable spec that
    :func:`strip_comments` must match byte for byte."""
    out = []
    i = 0
    n = len(source)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "string":
            out.append(c)
            if c == "\\" and nxt:
                out.append(nxt)
                i += 2
                continue
            if c == '"':
                state = "code"
        elif state == "char":
            out.append(c)
            if c == "\\" and nxt:
                out.append(nxt)
                i += 2
                continue
            if c == "'":
                state = "code"
        i += 1
    return "".join(out)


#: every character that opens, closes or escapes a C comment or literal,
#: plus a few neutral ones
C_LEXEME_ALPHABET = "/*\"'\\\na#(){};"


class TestStripComments:
    def test_line_comment(self):
        out = strip_comments("int x; // comment\nint y;")
        assert "comment" not in out
        assert "int x;" in out and "int y;" in out

    def test_block_comment_preserves_newlines(self):
        src = "a /* one\ntwo\nthree */ b"
        out = strip_comments(src)
        assert out.count("\n") == 2
        assert "one" not in out and "a" in out and "b" in out

    def test_offsets_preserved(self):
        src = "abc /* xx */ def"
        out = strip_comments(src)
        assert len(out) == len(src)
        assert out.index("def") == src.index("def")

    def test_comment_markers_in_strings_kept(self):
        src = 'char *s = "// not a comment /* neither */";'
        assert strip_comments(src) == src

    def test_escaped_quote_in_string(self):
        src = 'char *s = "a\\"b // x"; int y; // real\nz'
        out = strip_comments(src)
        assert '"a\\"b // x"' in out
        assert "real" not in out

    def test_char_literals(self):
        src = "char c = '/'; char d = '*'; // gone"
        out = strip_comments(src)
        assert "'/'" in out and "'*'" in out and "gone" not in out

    @pytest.mark.parametrize("source", [
        "a /* never closed\n still comment",
        'x = "never closed // not a comment\n /* nor this',
        "c = 'never closed",
        's = "ends in a backslash \\',
    ])
    def test_unterminated_runs_to_end_of_input(self, source):
        assert strip_comments(source) == reference_strip_comments(source)

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=C_LEXEME_ALPHABET, max_size=60))
    def test_matches_reference_state_machine(self, source):
        assert strip_comments(source) == reference_strip_comments(source)

    @pytest.mark.parametrize("name", available_samples())
    def test_matches_reference_on_samples(self, name):
        source = sample_source(name)
        assert strip_comments(source) == reference_strip_comments(source)


class TestScanPragmas:
    def test_simple(self):
        src = "#pragma cascabel task : x86 : I : v : (A: read)\nvoid f() {}"
        pragmas = scan_pragmas(src)
        assert len(pragmas) == 1
        assert pragmas[0].text.startswith("cascabel task")
        assert pragmas[0].line == 1

    def test_continuation_lines(self):
        src = (
            "#pragma cascabel task : x86 \\\n"
            "    : Ivecadd \\\n"
            "    : vecadd01 \\\n"
            "    : (A: readwrite, B: read)\n"
            "void f() {}\n"
        )
        pragmas = scan_pragmas(src)
        assert len(pragmas) == 1
        assert "(A: readwrite, B: read)" in pragmas[0].text
        assert pragmas[0].line == 1 and pragmas[0].end_line == 4

    def test_other_pragmas_ignored(self):
        src = "#pragma omp parallel\n#pragma cascabel execute I : g ()\nf();"
        assert len(scan_pragmas(src)) == 1

    def test_pragma_inside_comment_ignored(self):
        src = "/* #pragma cascabel task : x : y : z : () */\nint x;"
        assert scan_pragmas(src) == []

    def test_continuation_at_eof(self):
        with pytest.raises(PragmaSyntaxError, match="continuation"):
            scan_pragmas("#pragma cascabel task \\")

    def test_whitespace_normalized(self):
        src = "#pragma   cascabel    task :  x86 : I : v : (A: read)\nvoid f(){}"
        assert scan_pragmas(src)[0].text == "cascabel task : x86 : I : v : (A: read)"


class TestExtractFunction:
    SRC = """\
int other;

#pragma cascabel task : x86 : I : v : (A: readwrite, B: read)
void vectoradd(double *A, double *B)
{
    for (long i = 0; i < N; i++) {
        A[i] += B[i];
    }
}

int main(void) { return 0; }
"""

    def test_extracts_following_function(self):
        fn = extract_function(self.SRC, 4)
        assert fn.name == "vectoradd"
        assert fn.return_type == "void"
        assert fn.params == ("double *A", "double *B")
        assert fn.param_names == ("A", "B")
        assert fn.body.startswith("{") and fn.body.endswith("}")
        assert "A[i] += B[i];" in fn.body

    def test_nested_braces_matched(self):
        assert extract_function(self.SRC, 4).body.count("{") == 2

    def test_declaration_not_accepted(self):
        src = "void proto(double *A);\n"
        with pytest.raises(PragmaSyntaxError, match="definition"):
            extract_function(src, 1)

    def test_no_function(self):
        with pytest.raises(PragmaSyntaxError):
            extract_function("int x = 3;", 1)

    def test_pointer_return_type(self):
        src = "double *alloc_it(int n)\n{ return 0; }\n"
        fn = extract_function(src, 1)
        assert fn.name == "alloc_it"
        assert fn.param_names == ("n",)

    def test_array_parameters(self):
        src = "void f(double A[], int n)\n{ }\n"
        fn = extract_function(src, 1)
        assert fn.param_names == ("A", "n")

    def test_void_params(self):
        fn = extract_function("int main(void)\n{ return 0; }", 1)
        assert fn.params == ()


class TestExtractCall:
    def test_simple_call(self):
        src = "int main() {\n  setup();\n  vectoradd(A, B);\n}"
        call = extract_call(src, 3)
        assert call.name == "vectoradd"
        assert call.arguments == ("A", "B")
        assert call.text == "vectoradd(A, B);"

    def test_nested_call_arguments(self):
        src = "f(g(x, y), z);"
        call = extract_call(src, 1)
        assert call.name == "f"
        assert call.arguments == ("g(x, y)", "z")

    def test_no_call(self):
        with pytest.raises(PragmaSyntaxError):
            extract_call("int x = 1;", 1)


class TestParseSignature:
    def test_basic(self):
        rt, name, params = parse_signature("void f(double *A, int n)")
        assert (rt, name) == ("void", "f")
        assert params == ("double *A", "int n")

    def test_pointer_return(self):
        rt, name, params = parse_signature("double * make(int n)")
        assert name == "make"

    def test_garbage(self):
        with pytest.raises(PragmaSyntaxError):
            parse_signature("not a signature")
