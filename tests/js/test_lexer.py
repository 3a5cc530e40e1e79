"""Tests for the JS tokenizer."""

import pytest
from hypothesis import given, strategies as st

from repro.js.errors import JSSyntaxError
from repro.js.lexer import tokenize
from repro.js.tokens import TokenType


def kinds(source):
    return [(t.type, t.value) for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_source(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].type is TokenType.EOF

    def test_numbers(self):
        assert kinds("42 3.14 .5 1e3 2E-2 0xff") == [
            (TokenType.NUMBER, 42.0),
            (TokenType.NUMBER, 3.14),
            (TokenType.NUMBER, 0.5),
            (TokenType.NUMBER, 1000.0),
            (TokenType.NUMBER, 0.02),
            (TokenType.NUMBER, 255.0),
        ]

    def test_strings_both_quotes(self):
        assert kinds("""'a' "b" """) == [(TokenType.STRING, "a"), (TokenType.STRING, "b")]

    def test_string_escapes(self):
        assert kinds(r"'a\nb\t\\\' \x41 é'") == [(TokenType.STRING, "a\nb\t\\' A é")]

    def test_identifiers_and_keywords(self):
        out = kinds("var foo = function() {}")
        assert out[0] == (TokenType.KEYWORD, "var")
        assert out[1] == (TokenType.IDENT, "foo")
        assert out[3] == (TokenType.KEYWORD, "function")

    def test_dollar_and_underscore_idents(self):
        assert kinds("$a _b") == [(TokenType.IDENT, "$a"), (TokenType.IDENT, "_b")]

    def test_punctuator_longest_match(self):
        assert [v for _, v in kinds("=== == = => <= <")] == ["===", "==", "=", "=>", "<=", "<"]

    def test_line_numbers(self):
        toks = tokenize("a\nb\n\nc")
        assert [t.line for t in toks[:-1]] == [1, 2, 4]


class TestComments:
    def test_line_comment(self):
        assert kinds("a // comment\nb") == [(TokenType.IDENT, "a"), (TokenType.IDENT, "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [(TokenType.IDENT, "a"), (TokenType.IDENT, "b")]

    def test_block_comment_tracks_lines(self):
        toks = tokenize("/* a\nb\nc */ x")
        assert toks[0].line == 3

    def test_unterminated_block_comment(self):
        with pytest.raises(JSSyntaxError):
            tokenize("/* never closed")


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(JSSyntaxError):
            tokenize("'abc")

    def test_newline_in_string(self):
        with pytest.raises(JSSyntaxError):
            tokenize("'a\nb'")

    def test_unexpected_char(self):
        with pytest.raises(JSSyntaxError):
            tokenize("var a = @;")


@given(st.floats(min_value=0, max_value=1e9, allow_nan=False).map(lambda x: round(x, 4)))
def test_number_roundtrip(x):
    toks = tokenize(repr(x))
    assert toks[0].type is TokenType.NUMBER
    assert toks[0].value == pytest.approx(x)


_safe_text = st.text(
    alphabet=st.characters(blacklist_characters="\\'\"\n\r", min_codepoint=32, max_codepoint=0x2FF),
    max_size=40,
)


@given(_safe_text)
def test_string_roundtrip(s):
    toks = tokenize('"' + s + '"')
    assert toks[0].type is TokenType.STRING
    assert toks[0].value == s


class TestTemplateLiterals:
    def test_plain_template(self):
        toks = kinds("`hello`")
        assert (TokenType.STRING, "hello") in toks

    def test_desugars_to_concatenation(self):
        values = [v for _, v in kinds("`a${x}b`")]
        assert values == ["(", "a", "+", "(", "x", ")", "+", "b", ")"]

    def test_multiline_allowed(self):
        toks = kinds("`line1\nline2`")
        assert (TokenType.STRING, "line1\nline2") in toks

    def test_unterminated_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("`never closed")

    def test_unterminated_interpolation_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("`a${1 + 2`")

    def test_nested_template(self):
        # Must lex without error; semantics covered by interpreter tests.
        tokenize("`outer ${`inner ${x}`}`")

    def test_escaped_backtick(self):
        toks = kinds(r"`tick \` here`")
        assert (TokenType.STRING, "tick ` here") in toks


class TestMalformedLiterals:
    """Inputs the per-character lexer got wrong: it raised ``ValueError``
    (so one bad script aborted a whole page load) or read non-ASCII digits
    as numbers.  Each is a syntax error with a position now."""

    @pytest.mark.parametrize(
        "source,message,line,col",
        [
            ('var s = "\\xZZ";', "bad \\x escape", 1, 9),
            ('"\\u12"', "bad \\u escape", 1, 1),
            ('"\\u12"; x', "bad \\u escape", 1, 1),
            ("a;\n  'ok\\x4g'", "bad \\x escape", 2, 3),
            ('"\\x+1"', "bad \\x escape", 1, 1),
            ('"\\u 123"', "bad \\u escape", 1, 1),
            ("x = ²;", "unexpected character '²'", 1, 5),
            ("1²", "unexpected character '²'", 1, 2),
            ("١٢", "unexpected character '١'", 1, 1),
            ("1١", "unexpected character '١'", 1, 2),
            (".١", "unexpected character '١'", 1, 2),
            ("x = 0x;", "hex literal without digits", 1, 5),
        ],
    )
    def test_syntax_error_with_position(self, source, message, line, col):
        with pytest.raises(JSSyntaxError) as info:
            tokenize(source)
        assert (info.value.message, info.value.line, info.value.col) == (message, line, col)

    def test_hex_literal_past_double_range_is_infinity(self):
        assert kinds("0x" + "f" * 300) == [(TokenType.NUMBER, float("inf"))]

    def test_non_ascii_letters_and_digits_inside_identifiers(self):
        assert kinds("café a١ été") == [
            (TokenType.IDENT, "café"),
            (TokenType.IDENT, "a١"),
            (TokenType.IDENT, "été"),
        ]

    def test_valid_escapes_still_decode(self):
        assert kinds('"\\x41\\u00e9\\q\\0"') == [(TokenType.STRING, "Aéq\0")]


class TestPositions:
    def test_line_comment_and_crlf(self):
        toks = tokenize("a // c\r\n  b /* x\n\n */ c")
        assert [(t.value, t.line, t.col) for t in toks] == [
            ("a", 1, 1), ("b", 2, 3), ("c", 4, 5), ("", 4, 6)
        ]

    def test_string_line_continuation_keeps_opening_column(self):
        toks = tokenize("x = 'a\\\nb'; y")
        assert (toks[2].value, toks[2].line, toks[2].col) == ("ab", 2, 5)
        assert (toks[4].line, toks[4].col) == (2, 5)

    def test_template_tokens_carry_backtick_position(self):
        toks = tokenize("  `a\n${b}c`")
        assert [(t.value, t.line, t.col) for t in toks[:4]] == [
            ("(", 1, 3), ("a\n", 2, 3), ("+", 2, 3), ("(", 2, 3)
        ]
