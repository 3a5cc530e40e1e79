"""Tokenizer for the ECMAScript subset.

Handles line/block comments, decimal and hex numbers, single- and
double-quoted strings with the common escapes, identifiers/keywords, and the
punctuator set in :mod:`repro.js.tokens`.  Regex literals are not part of
the subset; template literals desugar to string concatenation.

One master regex, compiled at import, takes one token per match.  Each
match's prefix swallows the whitespace and ``//`` comments before the token,
and ``line``/``col`` are advanced by counting the newlines of the skipped
span, so no code walks the source a character at a time.  Numbers are ASCII
digits only, as in the ES grammar; a malformed escape, a hex literal without
digits or any other character outside the subset raises
:class:`~repro.js.errors.JSSyntaxError` with its ``line:col``.
"""

from __future__ import annotations

import re
from typing import List

from repro.js.errors import JSSyntaxError
from repro.js.tokens import KEYWORDS, PUNCTUATORS, Token, TokenType

__all__ = ["tokenize"]

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "0": "\0",
    "'": "'",
    '"': '"',
    "\\": "\\",
    "/": "/",
    "\n": "",  # line continuation
}


def _string_body(quote: str) -> str:
    """Body of a ``quote``-delimited string: no raw newline, and every
    ``\\x``/``\\u`` escape carries its full count of hex digits."""
    plain = f"[^{quote}\\\\\\n]*"
    return rf"{plain}(?:\\(?:x[0-9a-fA-F]{{2}}|u[0-9a-fA-F]{{4}}|[^xu]){plain})*"


# Token kinds, numbered by their capturing group in ``_TOKEN_RE``
# (``Match.lastindex`` names the alternative that matched).
_HEX, _DECIMAL, _IDENT, _BLOCK, _PUNCT, _DQ, _SQ, _TEMPLATE, _UIDENT, _END, _OTHER = (
    1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 13
)

_TOKEN_RE = re.compile(
    r"(?:[ \t\r\f\v\n]+|//[^\n]*)*"  # skipped: whitespace and line comments
    r"(?:"
    r"(0[xX][0-9a-fA-F]*)"
    r"|((?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|([A-Za-z_$][\w$]*)"
    r"|(/\*)"
    r"|(" + "|".join(re.escape(p) for p in PUNCTUATORS) + r")"
    r'|("(' + _string_body('"') + r')")'
    r"|('(" + _string_body("'") + r")')"
    r"|(`)"
    r"|([^\W\d\x00-\x7f][\w$]*)"  # non-ASCII identifier start, checked below
    r"|(\Z)"
    r"|([\s\S])"
    r")"
)

_PREFIXES = {'"': re.compile('"' + _string_body('"')), "'": re.compile("'" + _string_body("'"))}

_STRING_ESCAPE_RE = re.compile(r"\\(?:x([0-9a-fA-F]{2})|u([0-9a-fA-F]{4})|([\s\S]))")

# Template text up to the closing backtick or the next ``${``.  Escapes are
# kept verbatim except for the simple ones (no ``\x``/``\u`` decoding).
_TEMPLATE_TEXT_RE = re.compile(r"(?:[^`\\$]+|\\[\s\S]|\$(?!\{))*")
_TEMPLATE_ESCAPE_RE = re.compile(r"\\([\s\S])")

# Inside ``${...}``: braces, quoted strings skipped whole, or a quote that
# never closes.
_INTERPOLATION_RE = re.compile(
    r"(\{)|(\})"
    r"""|('[^'\\]*(?:\\[\s\S][^'\\]*)*'|"[^"\\]*(?:\\[\s\S][^"\\]*)*"|`[^`\\]*(?:\\[\s\S][^`\\]*)*`)"""
    r"""|(['"`])"""
)


def _unescape_string(match: "re.Match[str]") -> str:
    hex_digits = match.group(1) or match.group(2)
    if hex_digits:
        return chr(int(hex_digits, 16))
    esc = match.group(3)
    return _ESCAPES.get(esc, esc)


def _unescape_template(match: "re.Match[str]") -> str:
    esc = match.group(1)
    return _ESCAPES.get(esc, esc)


def _string_error(source: str, start: int, line: int, line_start: int, script: str) -> JSSyntaxError:
    """The error for the string opening at ``source[start]`` that
    ``_TOKEN_RE`` could not match whole."""
    col = start - line_start + 1
    end = _PREFIXES[source[start]].match(source, start).end()
    nl = source.rfind("\n", start, end)  # only line continuations get here
    if nl >= 0:
        line += source.count("\n", start, end)
        line_start = nl + 1
    if end >= len(source):
        return JSSyntaxError("unterminated string", line, script, col=col)
    if source[end] == "\n":
        return JSSyntaxError("newline in string", line, script, col=end - line_start + 1)
    if end + 1 >= len(source):
        return JSSyntaxError("bad escape at end of input", line, script, col=col)
    return JSSyntaxError(f"bad \\{source[end + 1]} escape", line, script, col=col)


def _lex_template(source: str, i: int, line: int, line_start: int, script: str, tokens: List[Token]):
    """Lex a template literal starting at the backtick at ``source[i]``.

    Desugars to a parenthesized string concatenation: ``("head" + (expr) +
    "tail")`` — empty head/tail strings are kept so the result is always a
    string, matching template semantics for our subset.  Synthetic tokens
    carry the column of the opening backtick; tokens lexed from ``${...}``
    parts keep their inner-relative positions (they are desugared code).
    """
    n = len(source)
    start_line = line
    col = i - line_start + 1
    i += 1
    tokens.append(Token(TokenType.PUNCT, "(", line, col))
    first_part = True
    while True:
        end = _TEMPLATE_TEXT_RE.match(source, i).end()
        if end >= n or source[end] == "\\":  # a lone backslash ends the input
            raise JSSyntaxError("unterminated template literal", start_line, script, col=col)
        text = source[i:end]
        nl = text.rfind("\n")
        if nl >= 0:
            line += text.count("\n")
            line_start = i + nl + 1
        if "\\" in text:
            text = _TEMPLATE_ESCAPE_RE.sub(_unescape_template, text)
        if not first_part:
            tokens.append(Token(TokenType.PUNCT, "+", line, col))
        tokens.append(Token(TokenType.STRING, text, line, col))
        first_part = False
        if source[end] == "`":
            break
        # ``${``: find the matching close brace (nesting- and string-aware).
        depth = 1
        j = end + 2
        while True:
            m = _INTERPOLATION_RE.search(source, j)
            if m is None or m.lastindex == 4:
                raise JSSyntaxError("unterminated ${...} in template", line, script, col=col)
            j = m.end()
            if m.lastindex == 1:
                depth += 1
            elif m.lastindex == 2:
                depth -= 1
                if not depth:
                    break
        inner = source[end + 2 : j - 1]
        tokens.append(Token(TokenType.PUNCT, "+", line, col))
        tokens.append(Token(TokenType.PUNCT, "(", line, col))
        tokens.extend(tokenize(inner, script)[:-1])  # drop the inner EOF
        tokens.append(Token(TokenType.PUNCT, ")", line, col))
        nl = inner.rfind("\n")
        if nl >= 0:
            line += inner.count("\n")
            line_start = end + 2 + nl + 1
        i = j
    tokens.append(Token(TokenType.PUNCT, ")", line, col))
    return end + 1, line, line_start


def tokenize(source: str, script: str = "<anonymous>") -> List[Token]:
    """Tokenize ``source``, returning a token list terminated by EOF."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    PUNCT = TokenType.PUNCT
    IDENT = TokenType.IDENT
    KEYWORD = TokenType.KEYWORD
    STRING = TokenType.STRING
    NUMBER = TokenType.NUMBER
    i = 0
    line = 1
    #: Index of the first character of the current line (col = i - line_start + 1).
    line_start = 0

    while True:
        m = match(source, i)
        kind = m.lastindex
        start = m.start(kind)
        if start != i:
            nl = source.count("\n", i, start)
            if nl:
                line += nl
                line_start = source.rfind("\n", i, start) + 1
        i = m.end()
        if kind == _PUNCT:
            append(Token(PUNCT, m.group(kind), line, start - line_start + 1))
        elif kind == _IDENT or (kind == _UIDENT and source[start].isalpha()):
            word = m.group(kind)
            append(Token(KEYWORD if word in KEYWORDS else IDENT, word, line, start - line_start + 1))
        elif kind == _DQ or kind == _SQ:
            body = m.group(kind + 1)
            col = start - line_start + 1
            if "\\" in body:
                nl = body.rfind("\n")  # line continuations
                if nl >= 0:
                    line += body.count("\n")
                    line_start = start + 1 + nl + 1
                body = _STRING_ESCAPE_RE.sub(_unescape_string, body)
            append(Token(STRING, body, line, col))
        elif kind == _DECIMAL:
            append(Token(NUMBER, float(m.group(kind)), line, start - line_start + 1))
        elif kind == _BLOCK:
            end = source.find("*/", i)
            if end < 0:
                raise JSSyntaxError("unterminated block comment", line, script, col=start - line_start + 1)
            nl = source.rfind("\n", start, end)
            if nl >= 0:
                line += source.count("\n", start, end)
                line_start = nl + 1
            i = end + 2
        elif kind == _HEX:
            text = m.group(kind)
            if len(text) == 2:
                raise JSSyntaxError("hex literal without digits", line, script, col=start - line_start + 1)
            try:
                value = float(int(text, 16))
            except OverflowError:  # ES: a hex literal past double range is Infinity
                value = float("inf")
            append(Token(NUMBER, value, line, start - line_start + 1))
        elif kind == _END:
            break
        elif kind == _TEMPLATE:
            i, line, line_start = _lex_template(source, start, line, line_start, script, tokens)
        else:  # _OTHER, or a non-letter that only regex calls a word start
            ch = source[start]
            if ch in "'\"":
                raise _string_error(source, start, line, line_start, script)
            raise JSSyntaxError(f"unexpected character {ch!r}", line, script, col=start - line_start + 1)

    append(Token(TokenType.EOF, "", line, len(source) - line_start + 1))
    return tokens
