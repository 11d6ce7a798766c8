"""Unification-style matching of schema expressions against ground events.

A schema expression matches an event when every schema slot is satisfied by
the event: equal word, consistently bindable variable, or recursively
matching nested expression.  Slots the event carries beyond the schema are
ignored.  Events are ground, so bindings always map variables to ground
values and there is never variable-against-variable binding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .model import (
    EMPTY_SUBSTITUTION,
    EventExpression,
    Nested,
    PreconditionError,
    Substitution,
    Var,
    Word,
    is_ground,
    variables_of,
)


@dataclass(frozen=True)
class MatchOutcome:
    """Result of match_event: a success flag and the binding found."""

    success: bool
    substitution: Optional[Substitution] = None

    def __bool__(self) -> bool:
        return self.success


# Outcomes are frozen, so every miss can share one.
_MISS = MatchOutcome(False)


def match_event(schema: EventExpression, event: EventExpression) -> MatchOutcome:
    """Match one schema expression against one ground event.

    On success the substitution binds exactly the variables the event
    forced.  The event must be ground.
    """
    if not is_ground(event):
        raise PreconditionError("match_event requires a ground event")
    subst = _match_into(schema, event, EMPTY_SUBSTITUTION)
    if subst is None:
        return _MISS
    return MatchOutcome(True, subst)


def _match_into(
    schema: EventExpression, event: EventExpression, subst: Substitution
) -> Optional[Substitution]:
    # Most pairs differ in a word, so every word slot is compared before
    # any variable is bound: a miss on a word allocates nothing.
    slots = schema.slots
    for case, wanted in slots:
        if type(wanted) is Word:
            actual = event.get(case)
            if type(actual) is not Word or wanted.text != actual.text:
                return None
    for case, wanted in slots:
        if type(wanted) is Word:
            continue
        actual = event.get(case)
        if actual is None:
            return None
        if type(wanted) is Var:
            subst = subst.bind(wanted.name, actual)
        elif type(actual) is Nested:
            subst = _match_into(wanted.expr, actual.expr, subst)
        else:
            return None
        if subst is None:
            return None
    return subst


def merge(a: Substitution, b: Substitution) -> Optional[Substitution]:
    """The union of two substitutions, or None when they bind a variable
    to different values."""
    for name, value in b:
        a = a.bind(name, value)
        if a is None:
            return None
    return a


def confirm_unmatched(nodes: Iterable[EventExpression], subst: Substitution) -> bool:
    """Whether schema nodes nothing matched are still accounted for: each
    is ground, or every variable it mentions is bound by `subst`."""
    domain = subst.domain()
    return all(variables_of(node) <= domain for node in nodes)
