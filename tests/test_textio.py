import random
import unicodedata

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from understory import (
    EventExpression,
    SourceError,
    Var,
    Word,
    load_corpus,
    load_schema_file,
    parse_corpus,
    parse_schema_file,
)
from understory.model import CorpusDocument, _is_identifier
from understory.schema import SchemaDocument
import understory.textio
from understory.textio import (
    ParseError,
    ValidationError,
    render_expression_inline,
    render_word,
)
from understory.textio import (
    _BAD, _ESCAPES, _NOT_BARE, _QUOTED, _UNESCAPE, _WORDS, _bad_token, _locate)

from conftest import fixture_path
from documents import event_by_id, render_corpus, render_schema_file, schema_named, strict
from generators import star_texts, theorem_pair
from oracles import oracle_is_identifier, oracle_render_word, oracle_tokenize
from strategies import expressions


class TestFixtures:
    def test_day_corpus(self, day_corpus):
        assert day_corpus.event_ids() == ("e1", "e2", "e3", "e4")
        assert event_by_id(day_corpus, "e3").get("to") == Word("school")

    def test_morning_schemas(self, morning_doc):
        assert [mp.name for mp in morning_doc.schemas] == ["morning"]
        assert morning_doc.links == ()
        mp = schema_named(morning_doc, "morning")
        assert mp.roots == ("s1", "s3")
        assert mp.nodes["s1"].get("actor") == Var("P")

    def test_pair_schemas(self, pair_doc):
        assert [mp.name for mp in pair_doc.schemas] == ["waking", "going"]
        assert len(pair_doc.links) == 1
        link = pair_doc.links[0]
        assert (link.from_schema, link.from_node) == ("waking", "w1")
        assert (link.to_schema, link.to_node) == ("going", "g1")
        assert link.arrow() == "waking.w1 -sequel-> going.g1"


class TestLexical:
    def test_comments_and_whitespace_are_skipped(self):
        doc = parse_corpus("# top\nevent e1 { # inline\n  actor: kim }\n")
        assert doc.event_ids() == ("e1",)

    def test_bom_is_whitespace(self):
        doc = parse_corpus("﻿event e1 { actor: kim }")
        assert doc.event_ids() == ("e1",)

    def test_quoted_escapes(self):
        doc = parse_corpus(r'event e1 { actor: "a\"b\\c\nd\te\rf" }')
        assert event_by_id(doc, "e1").get("actor") == Word('a"b\\c\nd\te\rf')

    def test_quoted_word_may_contain_specials(self):
        doc = parse_corpus('event e1 { actor: "x{}[]:,=?$#.->" }')
        assert event_by_id(doc, "e1").get("actor") == Word("x{}[]:,=?$#.->")

    def test_keyword_event_as_word_must_be_quoted(self):
        doc = parse_corpus('event e1 { obj: "event" }')
        assert event_by_id(doc, "e1").get("obj") == Word("event")

    def test_bare_event_value_opens_a_nested_expression(self):
        doc = parse_corpus(
            "event e1 { actor: kim obj: event { actor: lee action: wave } }")
        value = event_by_id(doc, "e1").get("obj")
        assert isinstance(value, EventExpression)
        assert value.get("action") == Word("wave")

    def test_input_is_nfc_normalized(self):
        decomposed = "café"
        assert unicodedata.normalize("NFC", decomposed) != decomposed
        doc = parse_corpus("event e1 { actor: %s }" % decomposed)
        assert event_by_id(doc, "e1").get("actor") == Word("café")


CORPUS_ERRORS = [
    (">", ParseError, 1, 1, "unexpected character '>'"),
    ("\x01", ParseError, 1, 1, "unexpected control character"),
    ('event e1 { actor: "kim', ParseError, 1, 19, "unterminated string literal"),
    ('event e1 { actor: "k\\x" }', ParseError, 1, 21, "unknown escape"),
    ("event e1 { actor: , }", ParseError, 1, 19, "expected a value"),
    ("event e1 { : kim }", ParseError, 1, 12, "expected case label or '}'"),
    ("foo", ParseError, 1, 1, "expected 'event'"),
    ("event e1 { actor kim }", ParseError, 1, 18, "expected ':'"),
    ("event e1 { actor: kim", ParseError, 1, 22, "expected case label or '}'"),
    ("event e1 { color: red }", ValidationError, 1, 12, "unknown case label: 'color'"),
    ("event e1 { actor: kim actor: lee }", ValidationError, 1, 23,
     "duplicate case label: 'actor'"),
    ("event e1 { actor: kim }\nevent e1 { actor: lee }", ValidationError, 2, 7,
     "duplicate event id: 'e1'"),
    ("event e1 { actor: ?P }", ValidationError, 1, 19,
     "variables are not allowed in corpus events"),
    ('event e1 { actor: "" }', ValidationError, 1, 19, "empty word"),
]

GOOD_SCHEMA = """\
memory_schema m {
  roots: [a]
  node a = schema { actor: ?P }
}
"""

SCHEMA_ERRORS = [
    ("foo", ParseError, 1, 1, "expected 'memory_schema' or 'link'"),
    ("memory_schema m { roots: [a, a] node a = schema { actor: kim } }",
     ValidationError, 1, 30, "duplicate root: 'a'"),
    ("memory_schema m { roots: [z] node a = schema { actor: kim } }",
     ValidationError, 1, 27, "root 'z' is not a node"),
    ("memory_schema m { roots: [a] node a = schema { actor: kim } "
     "node a = schema { actor: lee } }",
     ValidationError, 1, 66, "duplicate node id: 'a'"),
    ("memory_schema m { roots: [a] node a = schema { actor: kim } "
     "a -part-> zz }",
     ValidationError, 1, 61, "edge references unknown node 'zz'"),
    ("memory_schema m { roots: [a] node a = schema { actor: kim } "
     "a -foo-> a }",
     ValidationError, 1, 64, "unknown relation label: 'foo'"),
    ("memory_schema m { roots: [a] node a = schema { actor: kim } "
     "node b = schema { actor: kim } a -part-> b a -part-> b }",
     ValidationError, 1, 104, "duplicate edge: a -part-> b"),
    ("memory_schema m { roots: [a] node a = schema { actor: kim } "
     "fs a = a fs a = a }",
     ValidationError, 1, 73, "duplicate fs link for 'a'"),
    # A duplicate fs source is reported only once its target has been read.
    ("memory_schema m { roots: [a] node a = schema { actor: kim } "
     "fs a = a fs a = 7x }",
     ParseError, 1, 77, "expected node id"),
    ("memory_schema m { roots: [a] node a = schema { actor: kim } "
     "fs a = zz }",
     ValidationError, 1, 64, "fs link references unknown node 'zz'"),
    # The diagnostics on the tree's shape are located at the schema name.
    ("memory_schema m { roots: [a] node a = schema { actor: kim } "
     "node b = schema { actor: lee } }",
     ValidationError, 1, 15, "schema m: node b has no tree parent"),
    ("memory_schema m { roots: [a, b] node a = schema { actor: kim } "
     "node b = schema { actor: lee } a -part-> b }",
     ValidationError, 1, 15, "schema m: edge a -part-> b makes a root a child"),
    ("memory_schema m { roots: [a] node a = schema { actor: kim } "
     "node b = schema { actor: lee } node c = schema { actor: kim } "
     "a -part-> b a -part-> c b -part-> c }",
     ValidationError, 1, 15, "schema m: node c has 2 tree parents"),
    (GOOD_SCHEMA + "memory_schema cycle {\n  roots: [a]\n"
     "  node a = schema { actor: kim }\n  node b = schema { actor: lee }\n"
     "  node c = schema { actor: lee }\n  b -part-> c\n  c -part-> b\n}",
     ValidationError, 5, 15, "schema cycle: node b is unreachable from any root; "
     "schema cycle: node c is unreachable from any root"),
    ("memory_schema m { roots: [a] node a = schema { actor: kim } "
     "node b = schema { actor: lee } a -goal$-> b }",
     ValidationError, 1, 15,
     "schema m: goal edge a -goal$-> b has no sequel chain ending in an fs link"),
    ("memory_schema m { roots: [a] node a = schema { actor: kim } "
     "node b = schema { actor: lee } node c = schema { actor: lee } a -goal$-> b }",
     ValidationError, 1, 15, "schema m: node c has no tree parent; schema m: "
     "goal edge a -goal$-> b has no sequel chain ending in an fs link"),
    (GOOD_SCHEMA + "memory_schema m {\n  roots: [a]\n"
     "  node a = schema { actor: kim }\n}",
     ValidationError, 5, 15, "duplicate schema name: 'm'"),
    (GOOD_SCHEMA + "link zz.a -sequel-> m.a",
     ValidationError, 5, 1, "link references unknown schema 'zz'"),
    (GOOD_SCHEMA + "link m.zz -sequel-> m.a",
     ValidationError, 5, 1, "link references unknown node 'm.zz'"),
    ("memory_schema m { roots: [a] node a = schema { actor: kim } "
     "node b = schema { actor: lee } a -part-> b }\n"
     "link m.b -sequel-> m.a",
     ValidationError, 2, 1, "link endpoint 'm.b' is not a root"),
    (GOOD_SCHEMA + "link m.a -part-> m.a",
     ValidationError, 5, 11, "cross-schema links must use sequel"),
    (GOOD_SCHEMA + "link m.a -foo-> m.a",
     ValidationError, 5, 11, "unknown relation label: 'foo'"),
    (GOOD_SCHEMA + "link m.a -sequel$-> m.a",
     ValidationError, 5, 17, "cross-schema links cannot carry '$'"),
    (GOOD_SCHEMA + "link m.a -sequel-> m.a\nlink m.a -sequel-> m.a",
     ValidationError, 6, 1, "duplicate link: m.a -sequel-> m.a"),
    ("memory_schema m { roots: [a] node a = schema { actor: kim } 42 }",
     ParseError, 1, 61, "expected edge source"),
]


class TestErrors:
    @pytest.mark.parametrize("text,exc,line,col,fragment", CORPUS_ERRORS)
    def test_corpus_errors_are_located(self, text, exc, line, col, fragment):
        with pytest.raises(exc) as err:
            parse_corpus(text)
        assert err.value.line == line
        assert err.value.col == col
        assert fragment in err.value.message
        assert str(err.value) == "%d:%d: %s" % (line, col, err.value.message)

    @pytest.mark.parametrize("text,exc,line,col,message", SCHEMA_ERRORS)
    def test_schema_errors(self, text, exc, line, col, message):
        with pytest.raises(exc) as err:
            parse_schema_file(text)
        assert err.value.message == message
        assert str(err.value) == "%d:%d: %s" % (line, col, message)

    def test_validation_reports_at_the_schema_name(self):
        text = "memory_schema broken {\n  roots: [a]\n" \
               "  node a = schema { actor: kim }\n" \
               "  node b = schema { actor: lee }\n}\n"
        with pytest.raises(ValidationError) as err:
            parse_schema_file(text)
        assert (err.value.line, err.value.col) == (1, 15)

    def test_nesting_guard(self):
        text = ("event e1 " + "{ obj: event " * 70
                + "{ actor: kim " + "}" * 71)
        with pytest.raises(ParseError) as err:
            parse_corpus(text)
        assert "nesting too deep" in err.value.message

    def test_non_utf8_file(self, tmp_path):
        bad = tmp_path / "bad.events"
        bad.write_bytes(b"event e1 {\xff\xfe}")
        with pytest.raises(ParseError) as err:
            load_corpus(str(bad))
        assert "not valid UTF-8" in err.value.message
        assert (err.value.line, err.value.col) == (1, 11)

    def test_non_utf8_byte_is_located_on_its_line(self, tmp_path):
        # Lines end in CRLF; "cafe" + U+0301 is one character after NFC, so
        # the bad byte follows "  obj: café " on line 3.
        bad = tmp_path / "bad.events"
        bad.write_bytes(b"event e1 {\r\n  actor: kim\r\n  obj: cafe\xcc\x81 \xff }")
        with pytest.raises(ParseError) as err:
            load_corpus(str(bad))
        assert err.value.message == "file is not valid UTF-8 (byte offset 40)"
        assert (err.value.line, err.value.col) == (3, 13)

    @pytest.mark.parametrize("tail,message,col", [
        (">", "unexpected character '>'", 18),
        ("}", "expected a value", 18),
    ])
    def test_errors_are_located_after_odd_whitespace(self, tail, message, col):
        # BOM, a CRLF line end, a comment holding a quote, then NEL and
        # U+2028: whitespace that takes a column but does not end a line.
        text = ('\ufeffevent e1 {\r\n  actor: kim # says "hi\r\n'
                "  obj:\x85ball\u2028 to: " + tail + "\n}")
        with pytest.raises(ParseError) as err:
            parse_corpus(text)
        assert err.value.message == message
        assert (err.value.line, err.value.col) == (3, col)

    def test_stray_character_deep_in_a_file_is_located(self, tmp_path):
        # star_texts(2000): the schema header and root take lines 1-2, the
        # kids lines 3-2002 and the edges r -part-> k1..k2000 lines 2003-4002.
        schema, _ = star_texts(2000)
        path = tmp_path / "star.mps"
        path.write_text(schema.replace("r -part-> k1990\n", "r -part> k1990\n"))
        with pytest.raises(ParseError) as err:
            load_schema_file(str(path))
        assert str(err.value) == "3992:8: unexpected character '>'"

    def test_statement_order_is_free_inside_a_schema(self):
        # Edges may precede the nodes they mention; resolution happens at
        # the closing brace.
        text = ("memory_schema m { roots: [a] a -part-> b "
                "node a = schema { actor: kim } node b = schema { actor: kim } }")
        mp = schema_named(parse_schema_file(text), "m")
        assert mp.edges[0].arrow() == "a -part-> b"

    def test_duplicate_edge_is_located_at_the_second_copy(self):
        # Line 1 opens the schema, line 2 lists the root, lines 3-2004 hold
        # the nodes, line 2005 the first r -part-> k1 and lines 2006-4005
        # two thousand other edges; the copy on line 4006 starts at col 4.
        kids = range(1, 2002)
        text = ("memory_schema star {\n  roots: [r]\n"
                "  node r = schema { action: w0 }\n"
                + "".join("  node k%d = schema { action: w%d }\n" % (k, k)
                          for k in kids)
                + "".join("  r -part-> k%d\n" % k for k in kids)
                + "   r -part-> k1\n}\n")
        with pytest.raises(ValidationError) as err:
            parse_schema_file(text)
        assert err.value.message == "duplicate edge: r -part-> k1"
        assert (err.value.line, err.value.col) == (4006, 4)

    def test_node_named_node_is_allowed(self):
        text = ("memory_schema m { roots: [node] "
                "node node = schema { actor: kim } node -part-> kid "
                "node kid = schema { actor: kim } }")
        mp = schema_named(parse_schema_file(text), "m")
        assert mp.roots == ("node",)
        assert mp.tree_of("node") == ("node", "kid")


def _tokenize(text):
    """(kind, text) per token of the one scan, ending in ("eof", ""), as
    oracle_tokenize gives them; the first bad token raises its error.

    A kind is a punctuation string, "bare" or "quoted"; a quoted token's
    text is its unescaped body.
    """
    tokens = []
    for i, word in enumerate(_WORDS.findall(text)):
        if not word:
            break
        if word in _BAD or (word[0] == '"' and _QUOTED.fullmatch(word) is None):
            raise _bad_token(text, i)
        if word[0] == '"':
            tokens.append(("quoted", _UNESCAPE.sub(lambda e: _ESCAPES[e.group(1)],
                                                   word[1:-1])))
        else:
            tokens.append((word, word) if word in _NOT_BARE else ("bare", word))
    return tokens + [("eof", "")]


def _scan(text):
    """Tokens as (kind, text, line, col), with line and col from the
    on-demand locator, or the ParseError as a tuple."""
    try:
        return [(kind, word) + _locate(text, i)
                for i, (kind, word) in enumerate(_tokenize(text))]
    except ParseError as err:
        return ("error", err.message, err.line, err.col)


def _oracle_scan(text):
    """The oracle's tokens as (kind, text, line, col), or the ParseError."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in oracle_tokenize(text)]
    except ParseError as err:
        return ("error", err.message, err.line, err.col)


# Every special, the backslash (also straight after a quote) and the escape
# letters, whitespace that does and does not end a line, BOM, control
# characters, non-ASCII letters (one of them decomposed) and the keyword
# that must be quoted.
TOKEN_ALPHABET = (list('{}[]:,=?$#".->') + ["\\", '"\\', "n", "t", "r"]
                  + ["\n", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
                     " ", "\ufeff", "\x00", "\x01", "\x7f"]
                  + ["a", "k", "_", "7", "é", "ß", "Ω", "漢", "e\u0301", "event"])


def _lone_code_points():
    """U+0000-U+00FF, every whitespace code point, U+FEFF and random others."""
    rng = random.Random(7)
    points = set(range(0x100)) | {0xFEFF}
    points |= {cp for cp in range(0x110000) if chr(cp).isspace()}
    points |= {rng.randrange(0x110000) for _ in range(2000)}
    return sorted(points)


class TestTokenizerOracle:
    """The compiled scanner against the character loop it replaced."""

    def test_random_strings(self):
        rng = random.Random(11)
        for _ in range(20_000):
            text = "".join(rng.choice(TOKEN_ALPHABET)
                           for _ in range(rng.randint(0, 12)))
            assert _scan(text) == _oracle_scan(text), repr(text)
            assert render_word(text) == oracle_render_word(text), repr(text)

    def test_every_code_point_in_four_contexts(self):
        for cp in _lone_code_points():
            ch = chr(cp)
            # alone, inside a bare word, inside a string, after a backslash
            for text in (ch, "a%sb" % ch, '"a%sb"' % ch, '"a\\%sb"' % ch):
                assert _scan(text) == _oracle_scan(text), repr(text)
                assert render_word(text) == oracle_render_word(text), repr(text)
                assert (_is_identifier(text) is not None) == oracle_is_identifier(text), repr(text)


class TestErrorPrecedence:
    """The parser reads token texts without checking them; when it fails,
    the first bad token anywhere is the error."""

    FRAMES = (
        (parse_corpus, "event e1 { actor: %s }"),
        (parse_schema_file,
         "memory_schema m { roots: [a] node a = schema { actor: %s } }"),
    )

    def test_random_text_in_a_frame_fails_as_the_scan_does(self):
        rng = random.Random(13)
        failures = 0
        for _ in range(4_000):
            word = "".join(rng.choice(TOKEN_ALPHABET)
                           for _ in range(rng.randint(1, 8)))
            for parser, frame in self.FRAMES:
                text = frame % word
                try:
                    oracle_tokenize(unicodedata.normalize("NFC", text))
                except ParseError as expected:
                    failures += 1
                    with pytest.raises(ParseError) as err:
                        parser(text)
                    got = (err.value.message, err.value.line, err.value.col)
                    assert got == (expected.message, expected.line, expected.col), \
                        repr(text)
        assert failures > 1_000

    @pytest.mark.parametrize("parser,text,where", [
        (parse_corpus, "event e1 { color: red }\nevent e2 { actor: a>b }", (2, 20)),
        (parse_corpus, "foo\n>", (2, 1)),
        (parse_schema_file, "memory_schema m { roots: [z] node a = schema "
                            "{ actor: kim } }\n# >\nlink m.a -sequel> m.a", (3, 17)),
    ])
    def test_stray_character_after_a_structural_error_wins(self, parser, text,
                                                           where):
        with pytest.raises(ParseError) as err:
            parser(text)
        assert err.value.message == "unexpected character '>'"
        assert (err.value.line, err.value.col) == where

    def test_string_ending_in_an_escaped_quote_is_unterminated(self):
        with pytest.raises(ParseError) as err:
            parse_corpus('event e1 { actor: "abc\\"\n}')
        assert err.value.message == "unterminated string literal"
        assert (err.value.line, err.value.col) == (1, 19)

    def test_quoted_keywords_stay_words(self):
        with pytest.raises(ParseError) as err:
            parse_corpus('"event" e1 { actor: kim }')
        assert (err.value.message, err.value.col) == ("expected 'event'", 1)
        with pytest.raises(ParseError) as err:
            parse_corpus('event e1 { obj: "event" { actor: kim } }')
        assert (err.value.message, err.value.col) == ("expected case label or '}'", 25)
        with pytest.raises(ParseError) as err:
            parse_schema_file('"memory_schema" m { roots: [a] }')
        assert err.value.message == "expected 'memory_schema' or 'link'"
        doc = parse_schema_file('memory_schema m { roots: [a] '
                                'node a = schema { obj: "event" } }')
        assert doc.schemas[0].nodes["a"].get("obj") == Word("event")

    @pytest.mark.parametrize("parser,text,bad", [
        (parse_corpus, "event e1 { actor: kim\nevent e2 { actor: lee }", 0),
        (parse_corpus, 'event e1 { actor: "x y" colour: red }', 0),
        (parse_schema_file, "memory_schema m { roots: [a, a] }", 0),
        (parse_corpus, "event e1 { actor: kim\nevent e2 { actor: a>b }", 1),
        (parse_corpus, 'event e1 { actor: kim\nevent e2 { actor: "ab }', 1),
        (parse_corpus, "event e1 { actor: kim\x01 }", 1),
    ])
    def test_bad_token_error_is_built_only_for_a_bad_token(
            self, monkeypatch, parser, text, bad):
        calls = []
        bad_token = understory.textio._bad_token

        def counted(text, index):
            calls.append(index)
            return bad_token(text, index)

        monkeypatch.setattr(understory.textio, "_bad_token", counted)
        with pytest.raises(SourceError):
            parser(text)
        assert len(calls) == bad


class TestLoading:
    @pytest.mark.parametrize("load,name", [(load_corpus, "day.events"),
                                           (load_schema_file, "morning.mps")])
    def test_each_load_builds_a_new_document(self, load, name):
        path = fixture_path(name)
        first = load(path)
        again = load(path)
        assert again is not first and strict(again) == strict(first)


MORNING_CANONICAL = """\
memory_schema morning {
  roots: [s1, s3]
  node s1 = schema {
    actor: ?P
    action: wake
  }
  node s2 = schema {
    actor: ?P
    action: wash
  }
  node s3 = schema {
    actor: ?P
    action: go
    to: ?D
  }
  node s4 = schema {
    actor: ?P
    verb2: at
    loc: ?D
  }
  s1 -part-> s2
  s3 -cons-> s4
}
"""

DAY_CANONICAL = """\
event e1 {
  actor: kim
  action: wake
}

event e2 {
  actor: kim
  action: wash
}

event e3 {
  actor: kim
  action: go
  to: school
}

event e4 {
  actor: kim
  verb2: at
  loc: school
}
"""


class TestRender:
    def test_morning_canonical_text(self, morning_doc):
        assert render_schema_file(morning_doc) == MORNING_CANONICAL

    def test_day_canonical_text(self, day_corpus):
        assert render_corpus(day_corpus) == DAY_CANONICAL

    def test_pair_links_render_last(self, pair_doc):
        text = render_schema_file(pair_doc)
        assert text.endswith("link waking.w1 -sequel-> going.g1\n")
        assert text.count("memory_schema") == 2

    def test_word_quoting_rules(self):
        assert render_word("kim") == "kim"
        assert render_word("event") == '"event"'
        assert render_word("a b") == '"a b"'
        assert render_word('x"y') == '"x\\"y"'
        assert render_word("tab\there") == '"tab\\there"'
        assert render_word("") == '""'
        assert render_word("café") == "café"

    def test_inline_expression_form(self, day_corpus):
        assert render_expression_inline(event_by_id(day_corpus, "e1")) == \
            "{actor: kim action: wake}"

    def test_fixture_round_trips(self, day_corpus, morning_doc, pair_doc,
                                 pair_nolink_doc):
        assert strict(parse_corpus(render_corpus(day_corpus))) == strict(day_corpus)
        for doc in (morning_doc, pair_doc, pair_nolink_doc):
            assert strict(parse_schema_file(render_schema_file(doc))) == strict(doc)


class TestRoundTripProperties:
    @given(st.lists(expressions(allow_vars=False, with_id=False),
                    min_size=0, max_size=5))
    @settings(max_examples=200)
    def test_corpus_round_trip(self, exprs):
        events = tuple(EventExpression("e%d" % i, expr.slots)
                       for i, expr in enumerate(exprs, 1))
        doc = CorpusDocument(events)
        again = parse_corpus(render_corpus(doc))
        assert strict(again) == strict(doc)
        assert strict(parse_corpus(render_corpus(again))) == strict(again)

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_schema_round_trip(self, seed):
        mp, _, _, _ = theorem_pair(random.Random(seed))
        text = render_schema_file(SchemaDocument((mp,)))
        doc = parse_schema_file(text)
        assert strict(doc) == strict(SchemaDocument((mp,)))
        assert render_schema_file(SchemaDocument((doc.schemas[0],))) == text

    @given(st.text(max_size=80))
    @settings(max_examples=300)
    def test_parsing_is_total(self, text):
        for parser in (parse_corpus, parse_schema_file):
            try:
                parser(text)
            except SourceError as err:
                assert err.line >= 1 and err.col >= 1
