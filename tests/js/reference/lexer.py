"""Tokenizer for the ECMAScript subset.

Handles line/block comments, decimal and hex numbers, single- and
double-quoted strings with the common escapes, identifiers/keywords, and the
punctuator set in :mod:`repro.js.tokens`.  Regex literals and template
strings are not part of the subset.
"""

from __future__ import annotations

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


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch in "_$"


def _is_ident_part(ch: str) -> bool:
    return ch.isalnum() or ch in "_$"


def _lex_template(source: str, i: int, line: int, line_start: int, script: str, tokens: List[Token]):
    """Lex a template literal starting at the backtick at ``source[i]``.

    Desugars to a parenthesized string concatenation: ``("head" + (expr) +
    "tail")`` — empty head/tail strings are kept so the result is always a
    string, matching template semantics for our subset.  Synthetic tokens
    carry the column of the opening backtick; tokens lexed from ``${...}``
    parts keep their inner-relative positions (they are desugared code).
    """
    assert source[i] == "`"
    n = len(source)
    start_line = line
    col = i - line_start + 1
    i += 1
    tokens.append(Token(TokenType.PUNCT, "(", line, col))
    parts: List[str] = []
    first_part = True

    def flush_literal(text: str) -> None:
        nonlocal first_part
        if not first_part:
            tokens.append(Token(TokenType.PUNCT, "+", line, col))
        tokens.append(Token(TokenType.STRING, text, line, col))
        first_part = False

    chars: List[str] = []
    while True:
        if i >= n:
            raise JSSyntaxError("unterminated template literal", start_line, script, col=col)
        c = source[i]
        if c == "`":
            i += 1
            break
        if c == "\\" and i + 1 < n:
            esc = source[i + 1]
            chars.append(_ESCAPES.get(esc, esc))
            if esc == "\n":
                line += 1
                line_start = i + 2
            i += 2
            continue
        if c == "$" and i + 1 < n and source[i + 1] == "{":
            flush_literal("".join(chars))
            chars = []
            # Find the matching close brace (nesting-aware, string-aware).
            j = i + 2
            depth = 1
            while j < n and depth:
                cj = source[j]
                if cj in "'\"`":
                    quote = cj
                    j += 1
                    while j < n and source[j] != quote:
                        j += 2 if source[j] == "\\" else 1
                elif cj == "{":
                    depth += 1
                elif cj == "}":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if depth:
                raise JSSyntaxError("unterminated ${...} in template", line, script, col=col)
            inner = source[i + 2 : j]
            tokens.append(Token(TokenType.PUNCT, "+", line, col))
            tokens.append(Token(TokenType.PUNCT, "(", line, col))
            inner_tokens = tokenize(inner, script)
            tokens.extend(inner_tokens[:-1])  # drop the inner EOF
            tokens.append(Token(TokenType.PUNCT, ")", line, col))
            nl = inner.rfind("\n")
            if nl >= 0:
                line += inner.count("\n")
                line_start = i + 2 + nl + 1
            i = j + 1
            continue
        if c == "\n":
            line += 1
            line_start = i + 1
        chars.append(c)
        i += 1
    flush_literal("".join(chars))
    tokens.append(Token(TokenType.PUNCT, ")", line, col))
    return i, line, line_start


def tokenize(source: str, script: str = "<anonymous>") -> List[Token]:
    """Tokenize ``source``, returning a token list terminated by EOF."""
    tokens: List[Token] = []
    i = 0
    line = 1
    #: Index of the first character of the current line (col = i - line_start + 1).
    line_start = 0
    n = len(source)

    while i < n:
        ch = source[i]

        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r\f\v":
            i += 1
            continue

        # Comments.
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "*":
            end = source.find("*/", i + 2)
            if end < 0:
                raise JSSyntaxError("unterminated block comment", line, script, col=i - line_start + 1)
            nl = source.rfind("\n", i, end)
            if nl >= 0:
                line += source.count("\n", i, end)
                line_start = nl + 1
            i = end + 2
            continue

        # Template literals: lexed as a STRING when interpolation-free, or
        # as a synthetic concatenation when it contains ${...} parts (the
        # parser sees `head` + ( expr ) + `tail` via TEMPLATE tokens).
        if ch == "`":
            i, line, line_start = _lex_template(source, i, line, line_start, script, tokens)
            continue

        # Strings.
        if ch in "'\"":
            quote = ch
            col = i - line_start + 1
            i += 1
            parts: List[str] = []
            while True:
                if i >= n:
                    raise JSSyntaxError("unterminated string", line, script, col=col)
                c = source[i]
                if c == quote:
                    i += 1
                    break
                if c == "\n":
                    raise JSSyntaxError("newline in string", line, script, col=i - line_start + 1)
                if c == "\\":
                    i += 1
                    if i >= n:
                        raise JSSyntaxError("bad escape at end of input", line, script, col=col)
                    esc = source[i]
                    if esc == "x":
                        hex_digits = source[i + 1 : i + 3]
                        if len(hex_digits) < 2:
                            raise JSSyntaxError("bad \\x escape", line, script, col=col)
                        parts.append(chr(int(hex_digits, 16)))
                        i += 3
                        continue
                    if esc == "u":
                        hex_digits = source[i + 1 : i + 5]
                        if len(hex_digits) < 4:
                            raise JSSyntaxError("bad \\u escape", line, script, col=col)
                        parts.append(chr(int(hex_digits, 16)))
                        i += 5
                        continue
                    parts.append(_ESCAPES.get(esc, esc))
                    if esc == "\n":
                        line += 1
                        line_start = i + 1
                    i += 1
                    continue
                parts.append(c)
                i += 1
            tokens.append(Token(TokenType.STRING, "".join(parts), line, col))
            continue

        # Numbers.
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            col = start - line_start + 1
            if ch == "0" and i + 1 < n and source[i + 1] in "xX":
                i += 2
                while i < n and source[i] in "0123456789abcdefABCDEF":
                    i += 1
                tokens.append(Token(TokenType.NUMBER, float(int(source[start:i], 16)), line, col))
                continue
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j
                    while i < n and source[i].isdigit():
                        i += 1
            tokens.append(Token(TokenType.NUMBER, float(source[start:i]), line, col))
            continue

        # Identifiers / keywords.
        if _is_ident_start(ch):
            start = i
            col = start - line_start + 1
            while i < n and _is_ident_part(source[i]):
                i += 1
            word = source[start:i]
            if word in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, word, line, col))
            else:
                tokens.append(Token(TokenType.IDENT, word, line, col))
            continue

        # Punctuators, longest match first.
        for punct in PUNCTUATORS:
            if source.startswith(punct, i):
                tokens.append(Token(TokenType.PUNCT, punct, line, i - line_start + 1))
                i += len(punct)
                break
        else:
            raise JSSyntaxError(f"unexpected character {ch!r}", line, script, col=i - line_start + 1)

    tokens.append(Token(TokenType.EOF, "", line, n - line_start + 1))
    return tokens
