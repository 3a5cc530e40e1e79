"""The regex scanner and table-driven parser against the code they replaced.

``tests/js/reference/`` keeps the per-character tokenizer and the
scan-ahead parser verbatim.  Every input here goes through both front ends,
which must agree on the token tuples ``(type, value, line, col)``, on the
AST ``repr`` and, for rejected input, on the ``JSSyntaxError`` message,
line and column.  Three kinds of input:

* the study's own scripts: every script ``build_world`` serves at two
  seeds, the 13 vendor scripts and the adversarial snippets of the
  compiler-equivalence suite;
* Hypothesis-generated source text over a JS-flavoured alphabet;
* Hypothesis token splices, plus generated expressions that parse.

The one allowed difference is the old lexer's bug class, pinned case by
case in ``OLD_LEXER_BUGS``: it raised ``ValueError``/``OverflowError``
instead of a syntax error, or it read non-ASCII digits and sign- or
space-padded ``\\x``/``\\u`` escapes through ``int()``/``float()``.
"""

import ast
import re

import pytest
from hypothesis import given, strategies as st

from repro.config import StudyScale
from repro.dom.html import parse_html
from repro.js.errors import JSSyntaxError
from repro.js.lexer import tokenize
from repro.js.parser import parse
from repro.webgen.ecosystem import build_world
from repro.webgen.vendors import VENDOR_SPECS
from tests.js.reference.lexer import tokenize as reference_tokenize
from tests.js.reference.parser import parse as reference_parse
from tests.js.test_compiler_equivalence import SNIPPETS


def _outcome(fn, source):
    try:
        return ("ok", fn(source))
    except JSSyntaxError as exc:
        return ("JSSyntaxError", exc.message, exc.line, exc.col)
    except (ValueError, OverflowError, RecursionError) as exc:
        return (type(exc).__name__,)


def _tokens(fn):
    return lambda source: [(t.type, t.value, t.line, t.col) for t in fn(source)]


def _ast(fn):
    return lambda source: repr(fn(source))


_HEX = re.compile(r"[0-9a-fA-F]+")


def _int_read_bad_escape(source):
    """Does ``source`` hold a ``\\x``/``\\u`` escape whose digits are not
    ASCII hex but that ``int(digits, 16)`` still accepts (a sign, a space,
    non-ASCII digits)?  The old lexer decoded those."""
    for m in re.finditer(r"\\([xu])", source):
        width = 2 if m.group(1) == "x" else 4
        digits = source[m.end() : m.end() + width]
        if len(digits) == width and not _HEX.fullmatch(digits):
            try:
                int(digits, 16)
            except ValueError:
                continue
            return True
    return False


def _allowed_difference(source, old, new):
    """The old lexer's bug class: a Python error where a syntax error
    belongs, or input it read wrongly (non-ASCII digits, lenient escapes)
    that is a syntax error now."""
    if old[0] == "ValueError":
        return new[0] == "JSSyntaxError"
    if old[0] == "OverflowError":  # a hex literal past double range
        return new[0] == "ok" and float("inf") in [t[1] for t in new[1]]
    if new[0] != "JSSyntaxError":
        return False
    message = new[1]
    if message.startswith("unexpected character "):
        ch = ast.literal_eval(message[len("unexpected character ") :])
        return ch.isdigit() and not ch.isascii()
    return message in ("bad \\x escape", "bad \\u escape") and _int_read_bad_escape(source)


def assert_same_front_end(source):
    old = _outcome(_tokens(reference_tokenize), source)
    new = _outcome(_tokens(tokenize), source)
    if old != new:
        assert _allowed_difference(source, old, new), (source, old, new)
        return
    if old[0] == "ok":
        assert _outcome(_ast(reference_parse), source) == _outcome(_ast(parse), source), source


# ---------------------------------------------------------------------------
# the study's scripts
# ---------------------------------------------------------------------------


def world_scripts(seed):
    world = build_world(StudyScale(fraction=0.005, seed=seed))
    sources = set()
    for _host, server in world.network.servers().items():
        for _path, resource in server.resources():
            if "javascript" in resource.content_type:
                sources.add(resource.body)
            elif "html" in resource.content_type:
                sources.update(s.source for s in parse_html(resource.body).scripts if s.source)
    return sorted(sources)


def vendor_scripts():
    return [
        spec.source("customer.example") if spec.per_site else spec.source()
        for spec in VENDOR_SPECS
    ]


class TestStudyCorpus:
    @pytest.mark.parametrize("seed", [20250504, 7])
    def test_every_world_script(self, seed):
        sources = world_scripts(seed)
        assert len(sources) > 300
        for source in sources:
            assert_same_front_end(source)

    def test_vendor_scripts(self):
        sources = vendor_scripts()
        assert len(sources) == 13
        for source in sources:
            assert_same_front_end(source)

    @pytest.mark.parametrize("name", sorted(SNIPPETS))
    def test_adversarial_snippet(self, name):
        assert_same_front_end(SNIPPETS[name])

    def test_corpus_parses_without_error(self):
        for source in vendor_scripts() + list(SNIPPETS.values()):
            parse(source)


#: Hand-picked inputs at the scanner's edges: where a token ends at end of
#: input, where an error column depends on a newline the span skipped.
EDGE_CASES = [
    "",
    " \n\t\r\f\v",
    "a // c",
    "a /* c */",
    "a /* c\n",
    "a\r\nb",
    '"\\',
    '"\\x',
    '"\\x4',
    "'\\u12",
    "'ab\\\ncd",
    "'ab\\\ncd\nx'",
    "x\n  'a\\\nb\\\n",
    "x = 'a\\\nb' + c;",
    "`",
    "`a\\",
    "`a${",
    "`a${b",
    "`a${'}'",
    "`a${\"x",
    "`a${'x}`",
    "`a$`",
    "`${a\n}` b",
    "`x${\n1}y\n` z",
    "`${ {a: `${b}`} }`",
    "`\\x41\\u00e9\\`\\\n`",
    "0x",
    "0xg",
    "1.e5 1e+ .5e 5..a 00x1",
    "a.b.c(d)(e)[f] = (g, h) => (i)",
    "((a)) => 1",
    "(a, (b)) => 1",
    "f((a) => a, (b, c) => { return b; })",
    "x = (a) + (b) => c",
    "(",
    "(a, b",
    "a => ",
    "var \u00e9l\u00e8ve = 1; \u00e9l\u00e8ve;",
]


@pytest.mark.parametrize("source", EDGE_CASES)
def test_edge_case(source):
    assert_same_front_end(source)


# ---------------------------------------------------------------------------
# the pinned differences
# ---------------------------------------------------------------------------

#: (source, what the old lexer did, the new syntax error message).
OLD_LEXER_BUGS = [
    ('var s = "\\xZZ";', ("ValueError",), "bad \\x escape"),
    ('"\\u12"; x', ("ValueError",), "bad \\u escape"),
    ("x = ²;", ("ValueError",), "unexpected character '²'"),
    ("1²", ("ValueError",), "unexpected character '²'"),
    ("x = 0x;", ("ValueError",), "hex literal without digits"),
    ("١٢", ("ok", 12.0), "unexpected character '١'"),
    ("1١", ("ok", 11.0), "unexpected character '١'"),
    (".١", ("ok", 0.1), "unexpected character '١'"),
    ('"\\x+1"', ("ok", "\x01"), "bad \\x escape"),
    ('"\\x 1"', ("ok", "\x01"), "bad \\x escape"),
    ('"\\u+123"', ("ok", "ģ"), "bad \\u escape"),
    ('"\\x١٢"', ("ok", "\x12"), "bad \\x escape"),
]


@pytest.mark.parametrize("source,old,message", OLD_LEXER_BUGS)
def test_old_lexer_bug_is_a_syntax_error_now(source, old, message):
    try:
        tokens = reference_tokenize(source)
    except ValueError:
        assert old == ("ValueError",)
    else:
        assert ("ok", tokens[0].value) == old
    with pytest.raises(JSSyntaxError) as info:
        tokenize(source)
    assert info.value.message == message
    assert info.value.line == 1 and info.value.col is not None
    assert_same_front_end(source)  # and the harness allows exactly this


def test_hex_overflow_is_infinity_not_overflow_error():
    source = "0x" + "f" * 300
    with pytest.raises(OverflowError):
        reference_tokenize(source)
    assert tokenize(source)[0].value == float("inf")
    assert_same_front_end(source)


# ---------------------------------------------------------------------------
# generated input
# ---------------------------------------------------------------------------

_ALPHABET = (
    "abcuxyz_$ \t\n\r019.eExX+-*/%=!<>&|^~?:;,()[]{}'\"`\\"
    "éß²١ "
)


@given(st.text(alphabet=_ALPHABET, max_size=60))
def test_generated_text(source):
    assert_same_front_end(source)


_ATOMS = [
    *("var let const function return if else for of in while do break continue true "
      "false null undefined typeof new try catch finally throw switch case default "
      "delete instanceof this").split(),
    "===", "!==", ">>>", "...", "=>", "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "{", "}", "(", ")",
    "[", "]", ";", ",", "<", ">", "+", "-", "*", "/", "%", "=", "!", "?", ":", ".",
    "&", "|", "^", "~",
    "a", "b", "fn", "$x", "_y", "é", "0", "42", "3.14", ".5", "1e3", "2E-2", "1.",
    "0xff", "0X1A", "'s'", '"d"', "'\\n\\t\\\\'", '"\\x41\\u00e9"', "'a\\\nb'", "``",
    "`t${a}u`", "`${`n${b}`}`", "`x\ny`", "/* c */", "/* \n */", "// c\n", "@", "#",
    "'open", '"\\xZ"', "`open", "/* open", '"\\', "'\\x4", '"\\u12', "`${", "`a\\",
    "`${a\n}`", "`x${\n1}y\n`",
]
_GLUE = st.sampled_from(["", " ", "\n", "\t"])


@st.composite
def token_splices(draw):
    atoms = draw(st.lists(st.sampled_from(_ATOMS), max_size=25))
    return "".join(atom + draw(_GLUE) for atom in atoms)


@given(token_splices())
def test_token_splices(source):
    assert_same_front_end(source)


_LEAVES = st.sampled_from(["a", "b", "1", "2.5", "'s'", "true", "null", "this", "`t${a}`"])


def _compose(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "*", "-", "<", "===", "&&", "||", "in"]), inner)
        .map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
        inner.map(lambda e: f"({e})"),
        st.tuples(inner, inner).map(lambda t: f"{t[0]} ? {t[1]} : a"),
        st.lists(inner, max_size=3).map(lambda es: f"fn({', '.join(es)})"),
        st.tuples(st.lists(st.sampled_from(["a", "b", "c"]), max_size=3, unique=True), inner)
        .map(lambda t: f"({', '.join(t[0])}) => {t[1]}"),
        inner.map(lambda e: f"x => {e}"),
        inner.map(lambda e: f"a.b[{e}]"),
        inner.map(lambda e: f"!{e}"),
        inner.map(lambda e: f"new F({e})"),
        inner.map(lambda e: f"{{k: {e}, 'q': [1, {e}]}}"),
        inner.map(lambda e: f"function (p) {{ return {e}; }}"),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _compose, max_leaves=12)


@given(st.lists(_EXPRESSIONS, min_size=1, max_size=4))
def test_generated_programs(expressions):
    source = "\n".join(f"var v{i} = {e};" for i, e in enumerate(expressions))
    assert_same_front_end(source)
