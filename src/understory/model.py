"""Core data model: case-slot event expressions, variables, substitutions.

An event expression is an identifier plus an ordered list of (case, value)
slots.  A value is an opaque Word, a Var, or a nested EventExpression.
Equality between event expressions is semantic: slot order and the id are
ignored, word comparison is exact (documents are NFC-normalized when read,
see textio).

Words, variables, schema edges and substitutions compare by value through
one base, `_Value`: equal when of one type with equal fields.  A value is
ground when no variable occurs in it at any depth; `is_ground` is that one
test, for a word, a variable or an event.

Every public constructor checks its value and keeps a tuple of the
sequence it checked.  The parser has checked what it reads already, so it
builds values through the trusted constructors at the end of this module,
which skip those checks.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from operator import attrgetter, itemgetter
from typing import Iterator, Optional, Union

# The closed set of case labels an event slot may carry.
CASE_RELATIONS = frozenset({
    "actor", "action", "verb2", "isa", "time", "loc", "way",
    "obj", "source", "to", "det", "mod", "number", "no",
})

# The closed set of labels an edge between schema nodes may carry.
RELATION_LABELS = frozenset({
    "inherit", "accompany", "part", "pre", "goal", "cause", "cons", "sequel",
})


# Event ids, variable names, schema and node ids: the match, or None.
_is_identifier = re.compile(r"[A-Za-z_][A-Za-z0-9_]*").fullmatch


class PreconditionError(Exception):
    """An operation was called outside its stated preconditions."""


# Every value type below refuses attribute assignment once built, so its
# constructor sets its fields through _set.  The trusted constructors at
# the end of this module build values with _new and _set alone.
_new = object.__new__
_set = object.__setattr__


class _Frozen:
    """Base of the immutable types: no field is assigned after
    construction, and the repr names each slot but `__weakref__`."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % (name,))

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name))
            for name in self.__slots__ if name != "__weakref__"))


class _Value(_Frozen):
    """Base of the records that compare by value: two are equal when they
    are of one type and their fields are equal, and the hash is taken over
    the fields."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))


class SchemaEdge(_Value):
    """A labeled edge between two schema nodes.

    `test` marks the "$" factor: the edge states a condition to discharge
    rather than a consequence to propagate.
    """

    __slots__ = ("source", "label", "target", "test")

    def __init__(self, source: str, label: str, target: str, test: bool = False) -> None:
        if label not in RELATION_LABELS:
            raise ValueError("unknown relation label: %r" % (label,))
        _set(self, "source", source)
        _set(self, "label", label)
        _set(self, "target", target)
        _set(self, "test", test)

    def arrow(self) -> str:
        """The edge in source -label-> target notation ("$" kept)."""
        return "%s -%s%s-> %s" % (
            self.source, self.label, "$" if self.test else "", self.target,
        )


class Word(_Value):
    """An opaque token value; compared by exact text."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        if not text:
            raise ValueError("word must be non-empty")
        _set(self, "text", text)


class Var(_Value):
    """A named placeholder; only meaningful inside schemas."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not _is_identifier(name):
            raise ValueError("variable name must be an identifier: %r" % (name,))
        _set(self, "name", name)


SlotValue = Union[Word, Var, "EventExpression"]
Slot = tuple[str, SlotValue]


class EventExpression(_Frozen):
    """An event: optional id plus ordered case slots.

    Construction rejects unknown case labels and duplicate labels.  Two
    expressions are equal when they carry the same set of (case, value)
    pairs; ids and slot order do not participate.  The ids of nested events
    are likewise ignored.  The JSON writers write a nested event's id
    ("id"); the text and DOT forms leave it out, and parsed documents always
    hold None there.
    """

    __slots__ = ("id", "slots")

    def __init__(self, id: Optional[str], slots: tuple[Slot, ...]) -> None:
        if id is not None and not _is_identifier(id):
            raise ValueError("event id must be an identifier: %r" % (id,))
        slots = tuple(slots)
        seen = set()
        for case, value in slots:
            if case not in CASE_RELATIONS:
                raise ValueError("unknown case label: %r" % (case,))
            if case in seen:
                raise ValueError("duplicate case label: %r" % (case,))
            if not isinstance(value, (Word, Var, EventExpression)):
                raise ValueError("bad slot value for %r" % (case,))
            seen.add(case)
        _set(self, "id", id)
        _set(self, "slots", slots)

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


def variables_of(expr: EventExpression) -> frozenset[str]:
    """All variable names occurring anywhere in the expression."""
    names: set[str] = set()
    for _, value in expr.slots:
        if isinstance(value, Var):
            names.add(value.name)
        elif isinstance(value, EventExpression):
            names |= variables_of(value)
    return frozenset(names)


def is_ground(value: SlotValue) -> bool:
    """Whether no variable occurs in a slot value, an event included, at
    any depth; builds no set."""
    if isinstance(value, EventExpression):
        for _, inner in value.slots:
            if not is_ground(inner):
                return False
        return True
    return not isinstance(value, Var)


class Substitution(_Value):
    """An immutable variable binding map; every bound value is ground."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: tuple[tuple[str, SlotValue], ...] = ()) -> None:
        seen = set()
        for name, value in bindings:
            if name in seen:
                raise ValueError("duplicate binding for ?%s" % name)
            seen.add(name)
            if not is_ground(value):
                raise ValueError("binding for ?%s is not ground" % name)
        # Canonical order so equal mappings compare equal.
        _set(self, "bindings", tuple(sorted(bindings)))

    def get(self, name: str) -> Optional[SlotValue]:
        for n, v in self.bindings:
            if n == name:
                return v
        return None

    def domain(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.bindings)

    def bind(self, name: str, value: SlotValue) -> Optional["Substitution"]:
        """Extend with one binding; None when it conflicts with an existing one.

        The old bindings are checked and sorted already, so only the new
        value is checked, and it goes in at its place by name.
        """
        current = self.get(name)
        if current is not None:
            return self if current == value else None
        if not is_ground(value):
            raise ValueError("binding for ?%s is not ground" % name)
        bindings = self.bindings
        at = bisect_left(bindings, name, key=itemgetter(0))
        extended = _new(Substitution)
        _set(extended, "bindings", bindings[:at] + ((name, value),) + bindings[at:])
        return extended

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
        elif isinstance(value, EventExpression):
            new_slots.append((case, apply_substitution(value, subst)))
        else:
            new_slots.append((case, value))
    return EventExpression(expr.id, tuple(new_slots))


class CorpusDocument(_Frozen):
    """An ordered sequence of ground events parsed from a .events file.

    Documents compare by identity.
    """

    __slots__ = ("events", "__weakref__")

    def __init__(self, events: tuple[EventExpression, ...]) -> None:
        events = tuple(events)
        seen = set()
        for ev in events:
            if ev.id is None:
                raise ValueError("corpus events must carry an id")
            if ev.id in seen:
                raise ValueError("duplicate event id: %r" % (ev.id,))
            if not is_ground(ev):
                raise ValueError("corpus event %s is not ground" % (ev.id,))
            seen.add(ev.id)
        _set(self, "events", events)

    def __len__(self) -> int:
        return len(self.events)

    def event_ids(self) -> tuple[str, ...]:
        return tuple(ev.id for ev in self.events)  # type: ignore[misc]


# Trusted construction.  The parser (textio) checks labels, duplicates,
# identifiers, groundness and non-empty words as it reads, so it builds
# its values through these, which set the fields without running the
# public constructors' checks a second time.


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


def _corpus(events: tuple[EventExpression, ...]) -> CorpusDocument:
    doc = _new(CorpusDocument)
    _set(doc, "events", events)
    return doc
