"""Reading the corpus (.events) and schema (.mps) text formats, and
rendering words, values and one-line event labels for the CLI and the
diagrams.  The canonical whole-document writers are test code: they live
beside the test oracles as the round-trip reference.

Both formats share one token shape: `#` starts a line comment, whitespace
never matters, words are bare tokens or double-quoted strings.  One set of
patterns (_BARE, _ESCAPES, _KINDS) defines it for the reader and for
render_word alike, so every word is written in the form it is read back
in.  Documents are NFC-normalized before tokenizing, so word comparison
downstream is plain string equality.

Each match of the scan (_WORDS) yields one token, with the whitespace and
comments in front of it.  A document is read with one `findall` of that
scan, so tokens are plain strings, "" ending the text, and the parser
checks each one as it reads it: a quoted token must match the string
pattern whole before it is unescaped, and any other bad token fails every
check.  Model values are built from what the parser has checked without
checking them again.  Tokens carry no position.  Errors carry a 1-based
line and column of the NFC text, found only on failure.  When parsing
fails, the first bad token in the parser's own token list is the error,
as if the text had been checked before it was parsed; when there is none,
the parser's error stands.  Either is located by running the scan again
up to its token and counting the newlines before it (only `\\n` ends a
line; CR, NEL and U+2028 take a column).  ParseError means the token
stream or structure is malformed; ValidationError means the structure
parsed but violates a semantic constraint (unknown labels, duplicate ids,
unresolved references, bad tree shape).  Parsing is total: any input
string produces a document or one of these two errors, never anything
else.
"""

from __future__ import annotations

import itertools
import re
import unicodedata

from .model import (
    CASE_RELATIONS,
    RELATION_LABELS,
    CorpusDocument,
    EventExpression,
    SchemaEdge,
    Slot,
    SlotValue,
    Var,
    Word,
    _corpus,
    _edge,
    _event,
    _is_identifier,
    _var,
    _word,
)
# validate_memory_schema is not called here: bench/tracer.py wraps this name.
from .schema import CrossLink, MemorySchema, SchemaDocument, validate_memory_schema

MAX_NESTING = 64

# The token grammar, shared by the reader and the writer (render_word).  A
# bare word runs until whitespace, a BOM, a control character or one of
# {}[]:,=?$#".-> ; anything else must be quoted.
_BARE = re.compile(r'[^\s\ufeff\x00-\x1f{}\[\]:,=?$#".\->]+')
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}
_ENCODE = str.maketrans({char: "\\" + esc for esc, char in _ESCAPES.items()})
_UNESCAPE = re.compile(r"\\(.)", re.DOTALL)
_STRING_BODY = r'(?:[^"\\\n]|\\[%s])*' % re.escape("".join(_ESCAPES))
_QUOTED = re.compile('"%s"' % _STRING_BODY)
# One match per token: the whitespace and comments in front of it, then the
# token itself.  The token is optional so that trailing whitespace ends the
# text in an empty match instead of backtracking into `bad`; since `bad`
# takes any other character, only the end of the text matches no token.
_SKIP = r"(?:[\s\ufeff]|#[^\n]*)*"
_KINDS = (
    r"->|[{}\[\]:,=?$.-]",  # punctuation
    _QUOTED.pattern,
    _BARE.pattern,
    # `bad`: a string missing its closing quote, '>', or a control character.
    '"%s|.' % _STRING_BODY,
)
# One group, so `findall` returns each token's text.
_WORDS = re.compile("%s(%s)?" % (_SKIP, "|".join(_KINDS)), re.DOTALL)


class SourceError(Exception):
    """A located problem in an input document."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__("%d:%d: %s" % (line, col, message))
        self.message = message
        self.line = line
        self.col = col


class ParseError(SourceError):
    """Malformed token or structure."""


class ValidationError(SourceError):
    """Well-formed text that breaks a semantic constraint."""


def _match(text: str, index: int) -> re.Match | None:
    """The _WORDS match that yields token `index`, None past the last one."""
    return next(itertools.islice(_WORDS.finditer(text), index, None), None)


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of a character offset; only a newline ends
    a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _locate(text: str, index: int) -> tuple[int, int]:
    """Line and column of token `index` of _WORDS.findall(text); the ""
    that ends the tokens is at the end of the text."""
    m = _match(text, index)
    if m is None or m.start(1) < 0:
        return _line_col(text, len(text))
    return _line_col(text, m.start(1))


def _bad_token(text: str, index: int) -> ParseError:
    """The error for token `index`, which the `bad` alternative matched."""
    m = _match(text, index)
    word, start = m.group(1), m.start(1)
    if word[0] == '"':
        stop = m.end()  # where the string body stopped short of a quote
        if text.startswith("\\", stop) and stop + 1 < len(text):
            return ParseError("unknown escape '\\%s'" % text[stop + 1],
                              *_line_col(text, stop))
        return ParseError("unterminated string literal", *_line_col(text, start))
    if word == ">":
        return ParseError("unexpected character '>'", *_line_col(text, start))
    return ParseError("unexpected control character", *_line_col(text, start))


# The one-character `bad` tokens: '>' and the control characters (those
# _SKIP takes never reach the parser).  Every other `bad` token starts with
# a quote and fails to match _QUOTED whole.
_BAD = frozenset([">"] + [chr(code) for code in range(0x20)])
# The tokens of the one-group scan that are not bare words: punctuation,
# the end of the text ("") and the one-character `bad` tokens.  Any other
# token is a bare word unless it starts with a quote.
_NOT_BARE = frozenset(["->", ""] + list("{}[]:,=?$.-")) | _BAD


def _is_bare(token: str) -> bool:
    return token not in _NOT_BARE and token[0] != '"'


class _Parser:
    """Reads the token texts of _WORDS by index; `pos` is the next one to
    read, and "" is the end of the text.

    A bad token reaches the parser as a string and fails every check, so
    parsing stops at it or earlier; _parse then reports the first bad
    token in `tokens`.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _WORDS.findall(text)
        self.pos = 0

    def error(self, cls: type[SourceError], message: str,
              index: int | None = None) -> SourceError:
        """`cls` located at token `index`, by default the next one."""
        return cls(message, *_locate(self.text, self.pos if index is None else index))

    def expect(self, *tokens: str) -> None:
        """Read `tokens` in order; the first one missing is an error."""
        pos = self.pos
        for token in tokens:
            if self.tokens[pos] != token:
                raise self.error(ParseError, "expected '%s'" % token, pos)
            pos += 1
        self.pos = pos

    def expect_identifier(self, what: str, seen=(), duplicate: str = "") -> str:
        """An identifier; one already in the container `seen` is the located
        ValidationError `duplicate % identifier`."""
        token = self.tokens[self.pos]
        if _is_identifier(token) is None:
            raise self.error(ParseError, "expected %s" % what)
        if token in seen:
            raise self.error(ValidationError, duplicate % token)
        self.pos += 1
        return token

    # -- shared slot parsing ------------------------------------------------

    def parse_slots(self, allow_vars: bool, depth: int) -> tuple[Slot, ...]:
        """The slots up to and including the closing '}'."""
        if depth > MAX_NESTING:
            raise self.error(ParseError, "nesting too deep")
        tokens = self.tokens
        pos = self.pos
        slots: list[Slot] = []
        seen: set[str] = set()
        while True:
            case = tokens[pos]
            if case in CASE_RELATIONS and case not in seen and tokens[pos + 1] == ":":
                seen.add(case)
                value = tokens[pos + 2]
                if value in _NOT_BARE or value[0] == '"' or value == "event":
                    self.pos = pos + 2
                    slots.append((case, self.parse_value(allow_vars, depth)))
                    pos = self.pos
                else:  # `case: word`, the common slot, read in one step
                    slots.append((case, _word(value)))
                    pos += 3
                continue
            self.pos = pos
            if case == "}":
                self.pos = pos + 1
                return tuple(slots)
            if not _is_bare(case):
                raise self.error(ParseError, "expected case label or '}'")
            if case not in CASE_RELATIONS:
                raise self.error(ValidationError, "unknown case label: '%s'" % case)
            if case in seen:
                raise self.error(ValidationError, "duplicate case label: '%s'" % case)
            raise self.error(ParseError, "expected ':' after case label", pos + 1)

    def parse_value(self, allow_vars: bool, depth: int) -> SlotValue:
        i = self.pos
        token = self.tokens[i]
        if token == "?":
            if not allow_vars:
                raise self.error(ValidationError,
                                 "variables are not allowed in corpus events")
            self.pos = i + 1
            return _var(self.expect_identifier("variable name"))
        if token in _NOT_BARE:
            raise self.error(ParseError, "expected a value")
        if token[0] == '"':
            if _QUOTED.fullmatch(token) is None:
                # A `bad` token: _parse reports the first one in the text.
                raise self.error(ParseError, "unterminated string literal")
            body = token[1:-1]
            if not body:
                raise self.error(ValidationError, "empty word")
            if "\\" in body:
                body = _UNESCAPE.sub(lambda e: _ESCAPES[e.group(1)], body)
            self.pos = i + 1
            return _word(body)
        if token == "event" and self.tokens[i + 1] == "{":
            self.pos = i + 2
            return _event(None, self.parse_slots(allow_vars, depth + 1))
        self.pos = i + 1
        return _word(token)


def _parse(read, text: str):
    """read(parser) over the NFC text.

    When it fails, the first bad token the parser holds is the error: a
    bad token anywhere wins over the parser's error, as when the text was
    checked before it was parsed.
    """
    text = unicodedata.normalize("NFC", text)
    parser = _Parser(text)
    try:
        return read(parser)
    except SourceError as err:
        error = err
    for i, token in enumerate(parser.tokens):
        if token in _BAD or (token[:1] == '"' and _QUOTED.fullmatch(token) is None):
            raise _bad_token(text, i)
    raise error


# ---------------------------------------------------------------------------
# Corpus files


def parse_corpus(text: str) -> CorpusDocument:
    return _parse(_read_corpus, text)


def _read_corpus(p: _Parser) -> CorpusDocument:
    events: dict[str, EventExpression] = {}  # by id, in source order
    while p.tokens[p.pos]:
        p.expect("event")
        ident = p.expect_identifier("event id", events, "duplicate event id: '%s'")
        p.expect("{")
        events[ident] = _event(ident, p.parse_slots(allow_vars=False, depth=0))
    return _corpus(tuple(events.values()))


# ---------------------------------------------------------------------------
# Schema files


def parse_schema_file(text: str) -> SchemaDocument:
    return _parse(_read_schema_file, text)


def _read_schema_file(p: _Parser) -> SchemaDocument:
    schemas: dict[str, MemorySchema] = {}  # by name, in source order
    links: dict[CrossLink, int] = {}  # -> index of its 'link', in source order
    while True:
        token = p.tokens[p.pos]
        if not token:
            break
        if token == "memory_schema":
            p.pos += 1
            mp = _parse_memory_schema(p, schemas)
            schemas[mp.name] = mp
        elif token == "link":
            at = p.pos
            p.pos += 1
            link = _parse_link(p)
            if link in links:
                raise p.error(ValidationError, "duplicate link: %s" % link.arrow(), at)
            links[link] = at
        else:
            raise p.error(ParseError, "expected 'memory_schema' or 'link'")
    for link, where in links.items():
        for schema_name, node_id in (
            (link.from_schema, link.from_node),
            (link.to_schema, link.to_node),
        ):
            mp = schemas.get(schema_name)
            if mp is None:
                message = "link references unknown schema '%s'" % schema_name
            elif node_id not in mp.nodes:
                message = "link references unknown node '%s.%s'" % (schema_name, node_id)
            elif node_id not in mp.roots:
                message = "link endpoint '%s.%s' is not a root" % (schema_name, node_id)
            else:
                continue
            raise p.error(ValidationError, message, where)
    return SchemaDocument(tuple(schemas.values()), tuple(links))


def _parse_memory_schema(p: _Parser, schemas: dict[str, MemorySchema]) -> MemorySchema:
    """One schema after 'memory_schema'; `schemas` holds those read before it."""
    at_name = p.pos
    name = p.expect_identifier("schema name", schemas, "duplicate schema name: '%s'")
    p.expect("{", "roots", ":", "[")
    roots: dict[str, int] = {}  # root -> token index, in source order
    tokens = p.tokens
    while True:
        at = p.pos
        roots[p.expect_identifier("root node id", roots, "duplicate root: '%s'")] = at
        if tokens[p.pos] == ",":
            p.pos += 1
            continue
        if tokens[p.pos] != "]":
            raise p.error(ParseError, "expected ',' or ']'")
        p.pos += 1
        break
    nodes: dict[str, EventExpression] = {}
    edges: dict[SchemaEdge, int] = {}  # -> token index, in source order
    fs_links: dict[str, str] = {}
    fs_at: dict[str, int] = {}  # source -> token index, in source order
    while True:
        word = tokens[p.pos]
        if word == "}":
            p.pos += 1
            break
        if not _is_bare(word):
            raise p.error(ParseError, "expected 'node', 'fs', an edge, or '}'")
        if word == "node" and _is_bare(tokens[p.pos + 1]):
            p.pos += 1
            nid = p.expect_identifier("node id", nodes, "duplicate node id: '%s'")
            p.expect("=", "schema", "{")
            nodes[nid] = _event(nid, p.parse_slots(allow_vars=True, depth=0))
            continue
        if word == "fs" and _is_bare(tokens[p.pos + 1]):
            p.pos += 1
            at = p.pos
            src = p.expect_identifier("node id")
            p.expect("=")
            dst = p.expect_identifier("node id")
            if src in fs_links:
                raise p.error(ValidationError, "duplicate fs link for '%s'" % src, at)
            fs_links[src] = dst
            fs_at[src] = at
            continue
        at = p.pos
        src = p.expect_identifier("edge source")
        p.expect("-")
        at_rel = p.pos
        rel = p.expect_identifier("relation label")
        if rel not in RELATION_LABELS:
            raise p.error(ValidationError, "unknown relation label: '%s'" % rel, at_rel)
        test = tokens[p.pos] == "$"
        if test:
            p.pos += 1
        p.expect("->")
        edge = _edge(src, rel, p.expect_identifier("edge target"), test)
        if edge in edges:
            raise p.error(ValidationError, "duplicate edge: %s" % edge.arrow(), at)
        edges[edge] = at
    for root, at in roots.items():
        if root not in nodes:
            raise p.error(ValidationError, "root '%s' is not a node" % root, at)
    for edge, at in edges.items():
        for end in (edge.source, edge.target):
            if end not in nodes:
                raise p.error(ValidationError,
                              "edge references unknown node '%s'" % end, at)
    for src, at in fs_at.items():
        for end in (src, fs_links[src]):
            if end not in nodes:
                raise p.error(ValidationError,
                              "fs link references unknown node '%s'" % end, at)
    mp = MemorySchema(
        name=name,
        roots=tuple(roots),
        nodes=nodes,
        edges=tuple(edges),
        fs_links=fs_links,
    )
    # validate_memory_schema's other checks were made above, each located.
    problems = mp._structure.problems
    if problems:
        raise p.error(ValidationError, "; ".join(problems), at_name)
    return mp


def _parse_link(p: _Parser) -> CrossLink:
    """One cross-schema link after its 'link' keyword."""
    from_schema = p.expect_identifier("schema name")
    p.expect(".")
    from_node = p.expect_identifier("node id")
    p.expect("-")
    at_rel = p.pos
    rel = p.expect_identifier("relation label")
    if rel not in RELATION_LABELS:
        raise p.error(ValidationError, "unknown relation label: '%s'" % rel, at_rel)
    if p.tokens[p.pos] == "$":
        raise p.error(ValidationError, "cross-schema links cannot carry '$'")
    if rel != "sequel":
        raise p.error(ValidationError, "cross-schema links must use sequel", at_rel)
    p.expect("->")
    to_schema = p.expect_identifier("schema name")
    p.expect(".")
    return CrossLink(from_schema, from_node, to_schema, p.expect_identifier("node id"))


# ---------------------------------------------------------------------------
# File loading


def load_corpus(path: str) -> CorpusDocument:
    return parse_corpus(_read_text(path))


def load_schema_file(path: str) -> SchemaDocument:
    return parse_schema_file(_read_text(path))


def _read_text(path: str) -> str:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Located like every other error: in the NFC text read so far.
        prefix = unicodedata.normalize("NFC", data[:exc.start].decode("utf-8"))
        raise ParseError("file is not valid UTF-8 (byte offset %d)" % exc.start,
                         *_line_col(prefix, len(prefix)))


# ---------------------------------------------------------------------------
# Rendering


def render_value(value: SlotValue) -> str:
    """A slot value in the input syntax: ?name, a word, or event {...}."""
    if isinstance(value, Var):
        return "?%s" % value.name
    if isinstance(value, Word):
        return render_word(value.text)
    return "event " + render_expression_inline(value)


def render_word(text: str) -> str:
    if text != "event" and _BARE.fullmatch(text):
        return text
    return '"%s"' % text.translate(_ENCODE)


def render_expression_inline(expr: EventExpression) -> str:
    """One-line form used in diagram labels: {actor: kim action: wake}."""
    return "{%s}" % " ".join("%s: %s" % (case, render_value(value))
                             for case, value in expr.slots)
