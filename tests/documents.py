"""Test-side helpers over documents: short constructors for events and
substitutions, the canonical writers, a strict view for round-trip
comparison, and lookups by event id and schema name.

The writers are the round-trip reference: parse_corpus(render_corpus(d))
holds what d holds for a parsed d, and so does parse_schema_file of
render_schema_file.  Documents compare by identity and events by their
set of slots, so a round trip compares `strict` views, which keep ids,
node order, slot order and nested slot order.
"""

from __future__ import annotations

from typing import Mapping, Optional

from understory.model import (
    CorpusDocument,
    EventExpression,
    Slot,
    SlotValue,
    Substitution,
)
from understory.schema import MemorySchema, SchemaDocument
from understory.textio import render_value


def event(id: Optional[str] = None, **slots: SlotValue) -> EventExpression:
    """An event with the keyword slots, in keyword order."""
    return EventExpression(id, tuple(slots.items()))


def substitution_of(mapping: Mapping[str, SlotValue]) -> Substitution:
    """The substitution binding each name of `mapping` to its value."""
    return Substitution(tuple(mapping.items()))


def render_corpus(doc: CorpusDocument) -> str:
    """Canonical .events text."""
    blocks = []
    for ev in doc.events:
        lines = ["event %s {" % ev.id]
        lines.extend(_slot_lines(ev.slots, indent=2))
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def render_schema_file(doc: SchemaDocument) -> str:
    """Canonical .mps text."""
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
        if isinstance(value, EventExpression):
            lines.append("%s%s: event {" % (pad, case))
            lines.extend(_slot_lines(value.slots, indent + 2))
            lines.append("%s}" % pad)
        else:
            lines.append("%s%s: %s" % (pad, case, render_value(value)))
    return lines


def strict(value):
    """Plain tuples that are equal exactly when two events, schemas or
    documents, or two tuples of them, agree in everything: ids, order,
    slot order, nested ids."""
    if isinstance(value, tuple):
        return tuple(strict(item) for item in value)
    if isinstance(value, EventExpression):
        return (value.id, tuple((case, strict(v) if isinstance(v, EventExpression) else v)
                                for case, v in value.slots))
    if isinstance(value, CorpusDocument):
        return tuple(strict(ev) for ev in value.events)
    if isinstance(value, MemorySchema):
        return (value.name, value.roots,
                tuple((k, strict(expr)) for k, expr in value.nodes.items()),
                value.edges, tuple(value.fs_links.items()))
    if isinstance(value, SchemaDocument):
        return tuple(strict(mp) for mp in value.schemas), value.links
    raise TypeError("no strict view of %r" % (value,))


def event_by_id(corpus: CorpusDocument, event_id: str) -> EventExpression:
    return next(ev for ev in corpus.events if ev.id == event_id)


def schema_named(doc: SchemaDocument, name: str) -> MemorySchema:
    return next(mp for mp in doc.schemas if mp.name == name)
