"""Core data model: case-slot event expressions, variables, substitutions.

An event expression is an identifier plus an ordered list of (case, value)
slots.  Values are opaque words, variables, or nested event expressions.
Equality between event expressions is semantic: slot order and the id are
ignored, word comparison is exact (documents are NFC-normalized when read,
see textio).

Every public constructor checks its value.  The parser has checked what it
reads already, so it builds values through the trusted constructors at the
end of this module, which skip those checks.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Mapping, Optional, Union

# The closed set of case labels an event slot may carry.
CASE_RELATIONS = frozenset({
    "actor", "action", "verb2", "isa", "time", "loc", "way",
    "obj", "source", "to", "det", "mod", "number", "no",
})

# The closed set of labels an edge between schema nodes may carry.
RELATION_LABELS = frozenset({
    "inherit", "accompany", "part", "pre", "goal", "cause", "cons", "sequel",
})


# Event ids, variable names, schema and node ids.
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class PreconditionError(Exception):
    """An operation was called outside its stated preconditions."""


@dataclass(frozen=True)
class SchemaEdge:
    """A labeled edge between two schema nodes.

    `test` marks the "$" factor: the edge states a condition to discharge
    rather than a consequence to propagate.
    """

    source: str
    label: str
    target: str
    test: bool = False

    def __post_init__(self) -> None:
        if self.label not in RELATION_LABELS:
            raise ValueError("unknown relation label: %r" % (self.label,))

    def arrow(self) -> str:
        """The edge in source -label-> target notation ("$" kept)."""
        return "%s -%s%s-> %s" % (
            self.source, self.label, "$" if self.test else "", self.target,
        )


@dataclass(frozen=True)
class Word:
    """An opaque token value; compared by exact text."""

    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("word must be non-empty")


@dataclass(frozen=True)
class Var:
    """A named placeholder; only meaningful inside schemas."""

    name: str

    def __post_init__(self) -> None:
        if not _is_identifier(self.name):
            raise ValueError("variable name must be an identifier: %r" % (self.name,))


@dataclass(frozen=True)
class Nested:
    """A slot value that is itself an event expression."""

    expr: "EventExpression"


SlotValue = Union[Word, Var, Nested]
Slot = tuple[str, SlotValue]


def _is_identifier(name: str) -> bool:
    return _IDENTIFIER.fullmatch(name) is not None


@dataclass(frozen=True, eq=False)
class EventExpression:
    """An event: optional id plus ordered case slots.

    Construction rejects unknown case labels and duplicate labels.  Two
    expressions are equal when they carry the same set of (case, value)
    pairs; ids and slot order do not participate.  Nested ids are likewise
    ignored.  The JSON writers write a nested event's id ("id"); the text
    and DOT forms leave it out, and parsed documents always hold None there.
    """

    id: Optional[str]
    slots: tuple[Slot, ...]

    def __post_init__(self) -> None:
        if self.id is not None and not _is_identifier(self.id):
            raise ValueError("event id must be an identifier: %r" % (self.id,))
        seen = set()
        for case, value in self.slots:
            if case not in CASE_RELATIONS:
                raise ValueError("unknown case label: %r" % (case,))
            if case in seen:
                raise ValueError("duplicate case label: %r" % (case,))
            if not isinstance(value, (Word, Var, Nested)):
                raise ValueError("bad slot value for %r" % (case,))
            seen.add(case)

    def get(self, case: str) -> Optional[SlotValue]:
        for c, v in self.slots:
            if c == case:
                return v
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventExpression):
            return NotImplemented
        return dict(self.slots) == dict(other.slots)

    def __hash__(self) -> int:
        return hash(frozenset(self.slots))

    def __repr__(self) -> str:
        inner = ", ".join("%s: %r" % (c, v) for c, v in self.slots)
        head = self.id or "_"
        return "<event %s {%s}>" % (head, inner)


def event(id: Optional[str] = None, **slots: SlotValue) -> EventExpression:
    """Convenience constructor used heavily by tests; keyword order is kept."""
    return EventExpression(id, tuple(slots.items()))


def variables_of(expr: EventExpression) -> frozenset[str]:
    """All variable names occurring anywhere in the expression."""
    names: set[str] = set()
    for _, value in expr.slots:
        if isinstance(value, Var):
            names.add(value.name)
        elif isinstance(value, Nested):
            names |= variables_of(value.expr)
    return frozenset(names)


def is_ground(expr: EventExpression) -> bool:
    """Whether no variable occurs anywhere in the expression; builds no set."""
    for _, value in expr.slots:
        if isinstance(value, Var) or (isinstance(value, Nested)
                                      and not is_ground(value.expr)):
            return False
    return True


@dataclass(frozen=True)
class Substitution:
    """An immutable variable binding map; every bound value is ground."""

    bindings: tuple[tuple[str, SlotValue], ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for name, value in self.bindings:
            if name in seen:
                raise ValueError("duplicate binding for ?%s" % name)
            seen.add(name)
            if isinstance(value, Var):
                raise ValueError("binding for ?%s is not ground" % name)
            if isinstance(value, Nested) and not is_ground(value.expr):
                raise ValueError("binding for ?%s is not ground" % name)
        # Canonical order so equal mappings compare equal.
        object.__setattr__(self, "bindings", tuple(sorted(self.bindings)))

    @classmethod
    def of(cls, mapping: Mapping[str, SlotValue]) -> "Substitution":
        return cls(tuple(mapping.items()))

    def get(self, name: str) -> Optional[SlotValue]:
        for n, v in self.bindings:
            if n == name:
                return v
        return None

    def domain(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.bindings)

    def as_dict(self) -> dict[str, SlotValue]:
        return dict(self.bindings)

    def bind(self, name: str, value: SlotValue) -> Optional["Substitution"]:
        """Extend with one binding; None when it conflicts with an existing one.

        The old bindings are checked and sorted already, so only the new
        value is checked, and it goes in at its place by name.
        """
        current = self.get(name)
        if current is not None:
            return self if current == value else None
        if isinstance(value, Var) or (isinstance(value, Nested)
                                      and not is_ground(value.expr)):
            raise ValueError("binding for ?%s is not ground" % name)
        bindings = self.bindings
        at = bisect_left(bindings, name, key=itemgetter(0))
        extended = _new(Substitution)
        _set(extended, "bindings", bindings[:at] + ((name, value),) + bindings[at:])
        return extended

    def __len__(self) -> int:
        return len(self.bindings)

    def __iter__(self) -> Iterator[tuple[str, SlotValue]]:
        return iter(self.bindings)


EMPTY_SUBSTITUTION = Substitution()


def apply_substitution(expr: EventExpression, subst: Substitution) -> EventExpression:
    """Replace bound variables; unbound ones stay in place.

    The id is preserved, so applying a total substitution to a schema node
    yields a ground expression with the node's identity intact.
    """
    new_slots: list[Slot] = []
    for case, value in expr.slots:
        if isinstance(value, Var):
            bound = subst.get(value.name)
            new_slots.append((case, bound if bound is not None else value))
        elif isinstance(value, Nested):
            new_slots.append((case, Nested(apply_substitution(value.expr, subst))))
        else:
            new_slots.append((case, value))
    return EventExpression(expr.id, tuple(new_slots))


def identical(a: EventExpression, b: EventExpression) -> bool:
    """Strict structural comparison: ids, slot order, everything.

    Semantic equality (==) deliberately ignores order and ids; round-trip
    checks need the strict version.
    """
    if a.id != b.id or len(a.slots) != len(b.slots):
        return False
    for (ca, va), (cb, vb) in zip(a.slots, b.slots):
        if ca != cb:
            return False
        if isinstance(va, Nested) and isinstance(vb, Nested):
            if not identical(va.expr, vb.expr):
                return False
        elif va != vb:
            return False
    return True


@dataclass(frozen=True, eq=False)
class CorpusDocument:
    """An ordered sequence of ground events parsed from a .events file."""

    events: tuple[EventExpression, ...]
    source: str = "<corpus>"

    def __post_init__(self) -> None:
        seen = set()
        for ev in self.events:
            if ev.id is None:
                raise ValueError("corpus events must carry an id")
            if ev.id in seen:
                raise ValueError("duplicate event id: %r" % (ev.id,))
            if not is_ground(ev):
                raise ValueError("corpus event %s is not ground" % (ev.id,))
            seen.add(ev.id)

    def __len__(self) -> int:
        return len(self.events)

    def event_ids(self) -> tuple[str, ...]:
        return tuple(ev.id for ev in self.events)  # type: ignore[misc]

    def by_id(self, event_id: str) -> EventExpression:
        for ev in self.events:
            if ev.id == event_id:
                return ev
        raise KeyError(event_id)

    def __eq__(self, other: object) -> bool:
        """Strict document equality: ids, order, slot order (source ignored)."""
        if not isinstance(other, CorpusDocument):
            return NotImplemented
        return len(self.events) == len(other.events) and all(
            identical(a, b) for a, b in zip(self.events, other.events)
        )

    def __hash__(self) -> int:
        return hash(tuple(ev.id for ev in self.events))


# Trusted construction.  The parser (textio) checks labels, duplicates,
# identifiers, groundness and non-empty words as it reads, so it builds
# its values through these, which set the fields without running
# __post_init__'s checks a second time.  The public constructors keep
# every check.
_new = object.__new__
_set = object.__setattr__


def _word(text: str) -> Word:
    value = _new(Word)
    _set(value, "text", text)
    return value


def _var(name: str) -> Var:
    value = _new(Var)
    _set(value, "name", name)
    return value


def _event(id: Optional[str], slots: tuple[Slot, ...]) -> EventExpression:
    expr = _new(EventExpression)
    _set(expr, "id", id)
    _set(expr, "slots", slots)
    return expr


def _edge(source: str, label: str, target: str, test: bool) -> SchemaEdge:
    edge = _new(SchemaEdge)
    _set(edge, "source", source)
    _set(edge, "label", label)
    _set(edge, "target", target)
    _set(edge, "test", test)
    return edge


def _corpus(events: tuple[EventExpression, ...], source: str) -> CorpusDocument:
    doc = _new(CorpusDocument)
    _set(doc, "events", events)
    _set(doc, "source", source)
    return doc
