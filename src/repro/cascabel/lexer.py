"""Minimal C/C++ source scanner for the Cascabel frontend.

The paper's prototype used the ROSE compiler framework; it needs only a
small slice of C parsing: locate ``#pragma cascabel`` directives (with
backslash continuations), skip comments and string literals correctly,
extract the function definition following a task pragma, and the call
statement following an execute pragma.  This module provides exactly that
slice over raw source text, keeping line numbers for diagnostics.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from repro.errors import PragmaSyntaxError

__all__ = [
    "SourceLine",
    "PragmaDirective",
    "FunctionDef",
    "CallStatement",
    "LexedUnit",
    "strip_comments",
    "scan_pragmas",
    "extract_function",
    "extract_call",
    "parse_signature",
]


@dataclass(frozen=True)
class PragmaDirective:
    """One (continuation-joined) ``#pragma`` line."""

    text: str  # joined pragma text, single-spaced, without '#pragma'
    line: int  # 1-based line of the first physical line
    end_line: int  # last physical line of the directive
    column: int = 1  # 1-based column of the '#' on the first line


@dataclass(frozen=True)
class FunctionDef:
    """A function definition extracted from source."""

    return_type: str
    name: str
    params: tuple[str, ...]  # raw parameter declarations
    param_names: tuple[str, ...]
    body: str  # includes the braces
    start_line: int
    end_line: int

    @property
    def signature(self) -> str:
        return f"{self.return_type} {self.name}({', '.join(self.params)})"


@dataclass(frozen=True)
class CallStatement:
    """A function-call statement (``foo(a, b);``)."""

    name: str
    arguments: tuple[str, ...]
    text: str
    line: int
    column: int = 1  # 1-based column where the statement starts


#: one C lexeme that can hide a comment marker: a comment, or a string or
#: character literal (backslash escapes included).  An unterminated
#: comment or literal runs to the end of the input.
_COMMENT_OR_LITERAL = re.compile(
    r"""//[^\n]*
      | /\*.*?(?:\*/|\Z)
      | "(?:[^"\\]|\\.?)*"?
      | '(?:[^'\\]|\\.?)*'?
    """,
    re.DOTALL | re.VERBOSE,
)
_NOT_NEWLINE = re.compile(r"[^\n]")


def _blank_comment(match: re.Match) -> str:
    text = match.group()
    if text[0] != "/":
        return text  # a literal stays as it is
    return _NOT_NEWLINE.sub(" ", text)


def strip_comments(source: str) -> str:
    """Replace comments with spaces (preserving newlines and offsets).

    Handles ``//`` and ``/* */`` while respecting string and character
    literals.
    """
    return _COMMENT_OR_LITERAL.sub(_blank_comment, source)


class LexedUnit:
    """A translation unit lexed once.

    Holds the comment-stripped text and the offset of every line, so the
    pragma scan and every function/call extraction of one parse share a
    single pass over the source.
    """

    __slots__ = ("source", "clean", "lines", "line_starts")

    def __init__(self, source: str):
        self.source = source
        self.clean = strip_comments(source)
        self.lines = self.clean.split("\n")
        #: offset of the first character of each line, then one past the end
        self.line_starts = list(
            accumulate((len(line) + 1 for line in self.lines), initial=0)
        )

    def _line_offset(self, line: int) -> int:
        """Offset of 1-based ``line`` (one past the end beyond the last)."""
        return self.line_starts[min(max(line, 1), len(self.lines) + 1) - 1]

    def _line_of(self, offset: int) -> int:
        """1-based line holding ``offset``."""
        return bisect_right(self.line_starts, offset)

    def pragmas(self, *, prefix: str = "cascabel") -> list[PragmaDirective]:
        """All ``#pragma <prefix> ...`` directives, continuations joined."""
        lines = self.lines
        directives = []
        i = 0
        while i < len(lines):
            stripped = lines[i].strip()
            if stripped.startswith("#pragma"):
                start = i
                column = lines[i].index("#") + 1
                text = stripped
                while text.endswith("\\"):
                    text = text[:-1].rstrip()
                    i += 1
                    if i >= len(lines):
                        raise PragmaSyntaxError(
                            "pragma continuation at end of file", line=start + 1
                        )
                    text += " " + lines[i].strip()
                body = text[len("#pragma") :].strip()
                if body.split(None, 1)[0:1] == [prefix]:
                    directives.append(
                        PragmaDirective(
                            text=" ".join(body.split()),
                            line=start + 1,
                            end_line=i + 1,
                            column=column,
                        )
                    )
            i += 1
        return directives

    def function_at(self, after_line: int) -> FunctionDef:
        """The first function definition at or after ``after_line``.

        Scans for ``<decl>(<params>) {<body>}``; the body is
        brace-matched.
        """
        text = self.clean
        offset = self._line_offset(after_line)
        i = offset
        # find the opening parenthesis of the parameter list
        paren = text.find("(", i)
        while paren != -1:
            # candidate: walk back over the declarator to check it's plausible
            head = text[i:paren].strip()
            if head and not head.endswith((";", "}", "{")):
                break
            i = paren + 1
            paren = text.find("(", i)
        if paren == -1:
            raise PragmaSyntaxError(
                "no function definition found after task pragma", line=after_line
            )

        close = _match(text, paren, "(", ")")
        brace = text.find("{", close)
        semi = text.find(";", close)
        if brace == -1 or (semi != -1 and semi < brace):
            raise PragmaSyntaxError(
                "task pragma must precede a function *definition* (body required)",
                line=after_line,
            )
        end = _match(text, brace, "{", "}")

        head = " ".join(text[offset:paren].split())
        if not head:
            raise PragmaSyntaxError("cannot parse function header", line=after_line)
        name = head.split()[-1].lstrip("*&")
        return_type = head[: head.rfind(name.split("::")[-1])].strip() or "void"
        # strip any leading declarator noise from the return type
        params_text = text[paren + 1 : close].strip()
        params = tuple(_split_params(params_text))
        param_names = tuple(_param_name(p) for p in params)
        return FunctionDef(
            return_type=return_type,
            name=name,
            params=params,
            param_names=param_names,
            body=self.source[brace : end + 1],
            start_line=self._line_of(offset),
            end_line=self._line_of(end),
        )

    def call_at(self, after_line: int) -> CallStatement:
        """The first function-call statement at or after ``after_line``."""
        text = self.clean
        offset = self._line_offset(after_line)
        paren = text.find("(", offset)
        if paren == -1:
            raise PragmaSyntaxError(
                "no call statement found after execute pragma", line=after_line
            )
        close = _match(text, paren, "(", ")")
        head = text[offset:paren].strip()
        if not head:
            raise PragmaSyntaxError(
                "cannot parse call statement after execute pragma", line=after_line
            )
        name = head.split()[-1].lstrip("*&")
        args = tuple(a.strip() for a in _split_params(text[paren + 1 : close]))
        # column of the statement's first non-whitespace character on its line
        stmt_start = offset
        while stmt_start < paren and text[stmt_start].isspace():
            stmt_start += 1
        column = stmt_start - self.line_starts[self._line_of(stmt_start) - 1] + 1
        stmt_end = text.find(";", close)
        stmt = text[offset : stmt_end + 1 if stmt_end != -1 else close + 1].strip()
        return CallStatement(
            name=name,
            arguments=args,
            text=stmt,
            line=self._line_of(offset),
            column=column,
        )


def scan_pragmas(source: str, *, prefix: str = "cascabel") -> list[PragmaDirective]:
    """All ``#pragma <prefix> ...`` directives, continuations joined."""
    return LexedUnit(source).pragmas(prefix=prefix)


def extract_function(source: str, after_line: int) -> FunctionDef:
    """The first function definition at or after ``after_line`` (1-based).

    Scans comment-stripped source for ``<decl>(<params>) {<body>}``; the
    body is brace-matched.
    """
    return LexedUnit(source).function_at(after_line)


def extract_call(source: str, after_line: int) -> CallStatement:
    """The first function-call statement at or after ``after_line``."""
    return LexedUnit(source).call_at(after_line)


def parse_signature(decl: str) -> tuple[str, str, tuple[str, ...]]:
    """Parse ``"void f(double *A, int n)"`` → (return type, name, params)."""
    paren = decl.find("(")
    if paren == -1 or not decl.rstrip().endswith(")"):
        raise PragmaSyntaxError(f"cannot parse signature {decl!r}")
    close = _match(decl, paren, "(", ")")
    head = " ".join(decl[:paren].split())
    if not head:
        raise PragmaSyntaxError(f"signature {decl!r} lacks a name")
    name = head.split()[-1].lstrip("*&")
    return_type = head[: head.rfind(name)].strip() or "void"
    params = tuple(_split_params(decl[paren + 1 : close]))
    return return_type, name, params


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _match(text: str, open_idx: int, open_ch: str, close_ch: str) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    raise PragmaSyntaxError(
        f"unbalanced {open_ch}{close_ch} starting at offset {open_idx}"
    )


def _split_params(text: str) -> list[str]:
    """Split a parameter/argument list on top-level commas."""
    if not text.strip() or text.strip() == "void":
        return []
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "(<[":
            depth += 1
        elif ch in ")>]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current).strip())
    return [p for p in parts if p]


def _param_name(param: str) -> str:
    """Last identifier of a parameter declaration (``double *A`` → ``A``)."""
    cleaned = param.replace("*", " ").replace("&", " ")
    cleaned = cleaned.split("[")[0]
    tokens = cleaned.split()
    return tokens[-1] if tokens else param
