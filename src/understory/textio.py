"""Reading and writing the corpus (.events) and schema (.mps) text formats.

Both formats share one token shape: `#` starts a line comment, whitespace
never matters, words are bare tokens or double-quoted strings.  One set of
patterns (_BARE, _ESCAPES, _SCAN) defines it for the reader and for
render_word alike, so every word is written in the form it is read back
in.  Documents are NFC-normalized before tokenizing, so word comparison
downstream is plain string equality.

Errors carry a 1-based line and column.  ParseError means the token stream
or structure is malformed; ValidationError means the structure parsed but
violates a semantic constraint (unknown labels, duplicate ids, unresolved
references, bad tree shape).  Parsing is total: any input string produces
a document or one of these two errors, never anything else.
"""

from __future__ import annotations

import re
import unicodedata
from typing import NamedTuple

from .model import (
    CASE_RELATIONS,
    RELATION_LABELS,
    CorpusDocument,
    EventExpression,
    Nested,
    SchemaEdge,
    Slot,
    SlotValue,
    Var,
    Word,
    _is_identifier,
)
from .schema import CrossLink, MemorySchema, SchemaDocument, validate_memory_schema

MAX_NESTING = 64

# The token grammar, shared by the reader (_tokenize) and the writer
# (render_word).  A bare word runs until whitespace, a BOM, a control
# character or one of {}[]:,=?$#".-> ; anything else must be quoted.
_BARE = re.compile(r'[^\s\ufeff\x00-\x1f{}\[\]:,=?$#".\->]+')
_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}
_ENCODE = str.maketrans({char: "\\" + esc for esc, char in _ESCAPES.items()})
_UNESCAPE = re.compile(r"\\(.)", re.DOTALL)
_STRING_BODY = r'(?:[^"\\\n]|\\[%s])*' % re.escape("".join(_ESCAPES))
_SCAN = re.compile("|".join((
    r"(?P<skip>(?:[\s\ufeff]|#[^\n]*)+)",
    r"(?P<punct>->|[{}\[\]:,=?$.-])",
    '"(?P<quoted>%s)"' % _STRING_BODY,
    "(?P<bare>%s)" % _BARE.pattern,
    # A string missing its closing quote, '>', or a control character.
    '(?P<bad>"%s|.)' % _STRING_BODY,
)), re.DOTALL)


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


class _Token(NamedTuple):
    kind: str  # one of the punctuation strings, or "bare", "quoted", "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0  # newlines occur only in skipped runs
    for m in _SCAN.finditer(text):
        kind, word = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "skip":
            newline = word.rfind("\n")
            if newline >= 0:
                line += word.count("\n")
                line_start = m.start() + newline + 1
        elif kind == "punct":
            tokens.append(_Token(word, word, line, col))
        elif kind == "bare":
            tokens.append(_Token("bare", word, line, col))
        elif kind == "quoted":
            body = m.group("quoted")
            if "\\" in body:
                body = _UNESCAPE.sub(lambda e: _ESCAPES[e.group(1)], body)
            tokens.append(_Token("quoted", body, line, col))
        elif word[0] == '"':
            stop = m.end()  # where the string body stopped short of a quote
            if text.startswith("\\", stop) and stop + 1 < len(text):
                raise ParseError("unknown escape '\\%s'" % text[stop + 1],
                                 line, stop - line_start + 1)
            raise ParseError("unterminated string literal", line, col)
        elif word == ">":
            raise ParseError("unexpected character '>'", line, col)
        else:
            raise ParseError("unexpected control character", line, col)
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(unicodedata.normalize("NFC", text))
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[self.pos + ahead]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError("expected %s" % what, tok.line, tok.col)
        return self.advance()

    def expect_identifier(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "bare" or not _is_identifier(tok.text):
            raise ParseError("expected %s" % what, tok.line, tok.col)
        return self.advance()

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "bare" or tok.text != word:
            raise ParseError("expected '%s'" % word, tok.line, tok.col)
        return self.advance()

    # -- shared slot parsing ------------------------------------------------

    def parse_slots(self, allow_vars: bool, depth: int) -> tuple[Slot, ...]:
        if depth > MAX_NESTING:
            tok = self.peek()
            raise ParseError("nesting too deep", tok.line, tok.col)
        slots: list[Slot] = []
        seen: set[str] = set()
        while True:
            tok = self.peek()
            if tok.kind == "}":
                self.advance()
                return tuple(slots)
            if tok.kind != "bare":
                raise ParseError("expected case label or '}'", tok.line, tok.col)
            self.advance()
            if tok.text not in CASE_RELATIONS:
                raise ValidationError("unknown case label: '%s'" % tok.text,
                                      tok.line, tok.col)
            if tok.text in seen:
                raise ValidationError("duplicate case label: '%s'" % tok.text,
                                      tok.line, tok.col)
            seen.add(tok.text)
            self.expect(":", "':' after case label")
            value = self.parse_value(allow_vars, depth)
            slots.append((tok.text, value))

    def parse_value(self, allow_vars: bool, depth: int) -> SlotValue:
        tok = self.peek()
        if tok.kind == "?":
            if not allow_vars:
                raise ValidationError("variables are not allowed in corpus events",
                                      tok.line, tok.col)
            self.advance()
            name = self.expect_identifier("variable name")
            return Var(name.text)
        if tok.kind == "quoted":
            self.advance()
            if not tok.text:
                raise ValidationError("empty word", tok.line, tok.col)
            return Word(tok.text)
        if tok.kind == "bare":
            if tok.text == "event" and self.peek(1).kind == "{":
                self.advance()
                self.advance()  # "{"
                slots = self.parse_slots(allow_vars, depth + 1)
                return Nested(EventExpression(None, slots))
            self.advance()
            return Word(tok.text)
        raise ParseError("expected a value", tok.line, tok.col)


# ---------------------------------------------------------------------------
# Corpus files


def parse_corpus(text: str, source: str = "<corpus>") -> CorpusDocument:
    p = _Parser(text)
    events: list[EventExpression] = []
    seen: set[str] = set()
    while True:
        tok = p.peek()
        if tok.kind == "eof":
            break
        if tok.kind == "bare" and tok.text == "event":
            p.advance()
        else:
            raise ParseError("expected 'event'", tok.line, tok.col)
        ident = p.expect_identifier("event id")
        if ident.text in seen:
            raise ValidationError("duplicate event id: '%s'" % ident.text,
                                  ident.line, ident.col)
        seen.add(ident.text)
        p.expect("{", "'{'")
        slots = p.parse_slots(allow_vars=False, depth=0)
        events.append(EventExpression(ident.text, slots))
    return CorpusDocument(tuple(events), source)


# ---------------------------------------------------------------------------
# Schema files


def parse_schema_file(text: str, source: str = "<schemas>") -> SchemaDocument:
    p = _Parser(text)
    schemas: list[MemorySchema] = []
    schema_tokens: dict[str, _Token] = {}
    links: list[tuple[CrossLink, _Token]] = []
    while True:
        tok = p.peek()
        if tok.kind == "eof":
            break
        if tok.kind == "bare" and tok.text == "memory_schema":
            p.advance()
            mp = _parse_memory_schema(p, schema_tokens)
            schemas.append(mp)
        elif tok.kind == "bare" and tok.text == "link":
            p.advance()
            links.append(_parse_link(p, tok))
        else:
            raise ParseError("expected 'memory_schema' or 'link'", tok.line, tok.col)
    by_name = {mp.name: mp for mp in schemas}
    for link, where in links:
        for schema_name, node_id in (
            (link.from_schema, link.from_node),
            (link.to_schema, link.to_node),
        ):
            mp = by_name.get(schema_name)
            if mp is None:
                raise ValidationError("link references unknown schema '%s'"
                                      % schema_name, where.line, where.col)
            if node_id not in mp.nodes:
                raise ValidationError(
                    "link references unknown node '%s.%s'" % (schema_name, node_id),
                    where.line, where.col)
            if node_id not in mp.roots:
                raise ValidationError(
                    "link endpoint '%s.%s' is not a root" % (schema_name, node_id),
                    where.line, where.col)
    return SchemaDocument(tuple(schemas), tuple(l for l, _ in links), source)


def _parse_memory_schema(p: _Parser, schema_tokens: dict[str, _Token]) -> MemorySchema:
    name = p.expect_identifier("schema name")
    if name.text in schema_tokens:
        raise ValidationError("duplicate schema name: '%s'" % name.text,
                              name.line, name.col)
    schema_tokens[name.text] = name
    p.expect("{", "'{'")
    p.expect_keyword("roots")
    p.expect(":", "':'")
    p.expect("[", "'['")
    roots: list[str] = []
    root_tokens: list[_Token] = []
    while True:
        ident = p.expect_identifier("root node id")
        if ident.text in roots:
            raise ValidationError("duplicate root: '%s'" % ident.text,
                                  ident.line, ident.col)
        roots.append(ident.text)
        root_tokens.append(ident)
        tok = p.peek()
        if tok.kind == ",":
            p.advance()
            continue
        p.expect("]", "',' or ']'")
        break
    nodes: dict[str, EventExpression] = {}
    edges: dict[SchemaEdge, _Token] = {}  # in source order
    fs_links: dict[str, str] = {}
    fs_tokens: list[tuple[str, str, _Token]] = []
    while True:
        tok = p.peek()
        if tok.kind == "}":
            p.advance()
            break
        if tok.kind != "bare":
            raise ParseError("expected 'node', 'fs', an edge, or '}'",
                             tok.line, tok.col)
        if tok.text == "node" and p.peek(1).kind == "bare":
            p.advance()
            nid = p.expect_identifier("node id")
            if nid.text in nodes:
                raise ValidationError("duplicate node id: '%s'" % nid.text,
                                      nid.line, nid.col)
            p.expect("=", "'='")
            p.expect_keyword("schema")
            p.expect("{", "'{'")
            slots = p.parse_slots(allow_vars=True, depth=0)
            nodes[nid.text] = EventExpression(nid.text, slots)
            continue
        if tok.text == "fs" and p.peek(1).kind == "bare":
            p.advance()
            src = p.expect_identifier("node id")
            p.expect("=", "'='")
            dst = p.expect_identifier("node id")
            if src.text in fs_links:
                raise ValidationError("duplicate fs link for '%s'" % src.text,
                                      src.line, src.col)
            fs_links[src.text] = dst.text
            fs_tokens.append((src.text, dst.text, src))
            continue
        src = p.expect_identifier("edge source")
        p.expect("-", "'-'")
        rel = p.expect_identifier("relation label")
        if rel.text not in RELATION_LABELS:
            raise ValidationError("unknown relation label: '%s'" % rel.text,
                                  rel.line, rel.col)
        test = False
        if p.peek().kind == "$":
            p.advance()
            test = True
        p.expect("->", "'->'")
        dst = p.expect_identifier("edge target")
        edge = SchemaEdge(src.text, rel.text, dst.text, test)
        if edge in edges:
            raise ValidationError("duplicate edge: %s" % edge.arrow(),
                                  src.line, src.col)
        edges[edge] = src
    for i, root in enumerate(roots):
        if root not in nodes:
            tok = root_tokens[i]
            raise ValidationError("root '%s' is not a node" % root,
                                  tok.line, tok.col)
    for edge, where in edges.items():
        for end in (edge.source, edge.target):
            if end not in nodes:
                raise ValidationError("edge references unknown node '%s'" % end,
                                      where.line, where.col)
    for src_id, dst_id, where in fs_tokens:
        for end in (src_id, dst_id):
            if end not in nodes:
                raise ValidationError("fs link references unknown node '%s'" % end,
                                      where.line, where.col)
    mp = MemorySchema(
        name=name.text,
        roots=tuple(roots),
        nodes=nodes,
        edges=tuple(edges),
        fs_links=fs_links,
    )
    diagnostics = validate_memory_schema(mp)
    if diagnostics:
        raise ValidationError("; ".join(diagnostics), name.line, name.col)
    return mp


def _parse_link(p: _Parser, where: _Token) -> tuple[CrossLink, _Token]:
    from_schema = p.expect_identifier("schema name")
    p.expect(".", "'.'")
    from_node = p.expect_identifier("node id")
    p.expect("-", "'-'")
    rel = p.expect_identifier("relation label")
    if rel.text not in RELATION_LABELS:
        raise ValidationError("unknown relation label: '%s'" % rel.text,
                              rel.line, rel.col)
    if p.peek().kind == "$":
        tok = p.peek()
        raise ValidationError("cross-schema links cannot carry '$'",
                              tok.line, tok.col)
    if rel.text != "sequel":
        raise ValidationError("cross-schema links must use sequel",
                              rel.line, rel.col)
    p.expect("->", "'->'")
    to_schema = p.expect_identifier("schema name")
    p.expect(".", "'.'")
    to_node = p.expect_identifier("node id")
    link = CrossLink(from_schema.text, from_node.text, to_schema.text, to_node.text)
    return link, where


# ---------------------------------------------------------------------------
# File loading


def load_corpus(path: str) -> CorpusDocument:
    return parse_corpus(_read_text(path), source=path)


def load_schema_file(path: str) -> SchemaDocument:
    return parse_schema_file(_read_text(path), source=path)


def _read_text(path: str) -> str:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("file is not valid UTF-8 (byte offset %d)" % exc.start, 1, 1)


# ---------------------------------------------------------------------------
# Rendering


def render(entity) -> str:
    """Canonical text for a document; parse(render(parse(d))) == parse(d)."""
    if isinstance(entity, CorpusDocument):
        return render_corpus(entity)
    if isinstance(entity, SchemaDocument):
        return render_schema_file(entity)
    if isinstance(entity, MemorySchema):
        return render_schema_file(SchemaDocument((entity,)))
    from .story import UnderstandingDiagram, render_diagram_text
    if isinstance(entity, UnderstandingDiagram):
        return render_diagram_text(entity)
    raise TypeError("cannot render %r" % type(entity).__name__)


def render_corpus(doc: CorpusDocument) -> str:
    blocks = []
    for ev in doc.events:
        lines = ["event %s {" % ev.id]
        lines.extend(_slot_lines(ev.slots, indent=2))
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def render_schema_file(doc: SchemaDocument) -> str:
    blocks = []
    for mp in doc.schemas:
        lines = ["memory_schema %s {" % mp.name]
        lines.append("  roots: [%s]" % ", ".join(mp.roots))
        for node_id, expr in mp.nodes.items():
            lines.append("  node %s = schema {" % node_id)
            lines.extend(_slot_lines(expr.slots, indent=4))
            lines.append("  }")
        for edge in mp.edges:
            lines.append("  %s" % edge.arrow())
        for src, dst in mp.fs_links.items():
            lines.append("  fs %s = %s" % (src, dst))
        lines.append("}")
        blocks.append("\n".join(lines))
    if doc.links:
        blocks.append("\n".join("link %s" % link.arrow() for link in doc.links))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def _slot_lines(slots: tuple[Slot, ...], indent: int) -> list[str]:
    pad = " " * indent
    lines = []
    for case, value in slots:
        if isinstance(value, Nested):
            lines.append("%s%s: event {" % (pad, case))
            lines.extend(_slot_lines(value.expr.slots, indent + 2))
            lines.append("%s}" % pad)
        else:
            lines.append("%s%s: %s" % (pad, case, render_value(value)))
    return lines


def render_value(value: SlotValue) -> str:
    if isinstance(value, Var):
        return "?%s" % value.name
    if isinstance(value, Word):
        return render_word(value.text)
    return render_expression_inline(value.expr)


def render_word(text: str) -> str:
    if text != "event" and _BARE.fullmatch(text):
        return text
    return '"%s"' % text.translate(_ENCODE)


def render_expression_inline(expr: EventExpression) -> str:
    """One-line form used in diagram labels: {actor: kim action: wake}."""
    parts = []
    for case, value in expr.slots:
        if isinstance(value, Nested):
            parts.append("%s: event %s" % (case, render_expression_inline(value.expr)))
        else:
            parts.append("%s: %s" % (case, render_value(value)))
    return "{%s}" % " ".join(parts)
