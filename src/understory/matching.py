"""Unification-style matching of schema expressions against ground events.

A schema expression matches an event when every schema slot is satisfied by
the event: equal word, consistently bindable variable, or recursively
matching nested expression.  Slots the event carries beyond the schema are
ignored.  Events are ground, so bindings always map variables to ground
values and there is never variable-against-variable binding.  A match is
the substitution it found, and a miss is None.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .model import (
    EMPTY_SUBSTITUTION,
    EventExpression,
    PreconditionError,
    Substitution,
    Var,
    Word,
    is_ground,
    variables_of,
)


def match_event(schema: EventExpression, event: EventExpression) -> Optional[Substitution]:
    """Match one schema expression against one ground event.

    The result is the substitution binding exactly the variables the event
    forced, or None when the two do not match.  The event must be ground.
    """
    if not is_ground(event):
        raise PreconditionError("match_event requires a ground event")
    return _match_into(schema, event, EMPTY_SUBSTITUTION)


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
        elif type(actual) is EventExpression:
            subst = _match_into(wanted, actual, subst)
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
