"""Memory state and the forward-chaining rules that grow it.

Memory tracks which corpus events are currently held true and which
event-level relations have been confirmed.  The rules only ever add to
both sets; a search that backs out undoes what it added.  Three rules
fire over a matched schema instance:

  RULE1  a pre edge carrying "$" whose target event is true confirms the
         event-level pre relation (no truth is added),
  RULE2  a goal edge carrying "$" fires once its support chain and the
         chain's final state are all true: the goal event becomes true and
         the goal relation is confirmed,
  RULE3  any edge without "$" whose source event is true makes its target
         event true and confirms the relation.

Every rule has one form: once all its premise events are true, make one
event true (RULE1 makes none) and confirm one event-level edge.  A
SchemaInstance lowers its matched edges to RULE1 and RULE3 rules once,
when it is built; goal supports become RULE2 rules and declared
cross-schema links, which arrive as event edges, become RULE3 rules.
run_fixpoint_group fires them all from one loop, to exhaustion and in a
fixed order; the result does not depend on that order (tested, not
assumed).  Once a rule's premises hold, memory holds its truth and its
edge for good, so the rule has settled: it is checked in no later round.
A rule keeps its schema edge as its trace text, and the edge is written
out only when a trace line is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .model import SchemaEdge

ConfirmedEdge = tuple[str, str, str]  # (source event, label, target event)


class UnknownEvent(Exception):
    """An assertion or query used an event id the corpus does not contain."""

    def __init__(self, event_id: str) -> None:
        super().__init__("unknown event id: %r" % (event_id,))
        self.event_id = event_id


@dataclass
class MemoryState:
    """Truth set plus confirmed event relations over a fixed event universe."""

    known: frozenset[str]
    truths: set[str] = field(default_factory=set)
    confirmed: set[ConfirmedEdge] = field(default_factory=set)
    # While a list, what assert_true and confirm newly add, in order.
    trail: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def for_corpus(cls, corpus) -> "MemoryState":
        return cls(known=frozenset(corpus.event_ids()))

    def assert_true(self, event_id: str) -> None:
        if event_id not in self.known:
            raise UnknownEvent(event_id)
        if self.trail is not None and event_id not in self.truths:
            self.trail.append((self.truths, event_id))
        self.truths.add(event_id)

    def query(self, event_id: str) -> bool:
        """Closed world: anything not derived or asserted is false."""
        if event_id not in self.known:
            raise UnknownEvent(event_id)
        return event_id in self.truths

    def confirm(self, edge: ConfirmedEdge) -> None:
        if self.trail is not None and edge not in self.confirmed:
            self.trail.append((self.confirmed, edge))
        self.confirmed.add(edge)

    def undo(self, mark: int) -> None:
        """Take back what was added since the trail held `mark` entries."""
        for added_to, item in self.trail[mark:]:
            added_to.remove(item)
        del self.trail[mark:]

    def copy(self) -> "MemoryState":
        return MemoryState(self.known, set(self.truths), set(self.confirmed))


@dataclass(frozen=True)
class GoalSupport:
    """Evidence structure for one goal-"$" edge.

    chain is the sequel-linked node path starting at the goal edge source;
    final_state is the node the fs link of the chain's last node points at.
    """

    source: str
    target: str
    chain: tuple[str, ...]
    final_state: str


@dataclass(frozen=True)
class EventEdge:
    """An edge at event level, as RULE1 and RULE3 fire it."""

    source_event: str
    label: str
    target_event: str
    display: str  # schema-side text for the trace, e.g. "waking.w1 -sequel-> going.g1"


class _Rule(NamedTuple):
    """One lowered rule: once every premise event is true, make `truth`
    true (when given) and confirm `edge`."""

    name: str
    display: Union[str, SchemaEdge]  # schema-side text for the trace, or its edge
    premises: tuple[str, ...]
    truth: Optional[str]
    edge: ConfirmedEdge


def _rule3(ee: EventEdge) -> _Rule:
    return _Rule("RULE3", ee.display, (ee.source_event,), ee.target_event,
                 (ee.source_event, ee.label, ee.target_event))


_NODE_ORDER = attrgetter("source", "target", "label")


@dataclass(frozen=True)
class SchemaInstance:
    """A schema's edges together with the node-to-event map a match produced.

    The edges whose endpoints both matched are lowered once, on creation,
    into rules in (source, target, label) node order: `pre_rules` holds
    RULE1 for the pre edges carrying "$", `plain_rules` RULE3 for the edges
    without "$".  A rule keeps its edge as its trace text, so the edge is
    written out only when a trace is asked for.
    """

    schema_name: str
    edges: tuple[SchemaEdge, ...]
    node_events: Mapping[str, str]
    pre_rules: tuple[_Rule, ...] = field(init=False, repr=False, compare=False)
    plain_rules: tuple[_Rule, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pre_rules, plain_rules = [], []
        events = self.node_events
        matched = [e for e in self.edges if e.source in events and e.target in events]
        for edge in sorted(matched, key=_NODE_ORDER):
            src, dst = events[edge.source], events[edge.target]
            if not edge.test:
                plain_rules.append(_Rule("RULE3", edge, (src,), dst,
                                         (src, edge.label, dst)))
            elif edge.label == "pre":
                pre_rules.append(_Rule("RULE1", edge, (dst,), None, (src, "pre", dst)))
        object.__setattr__(self, "pre_rules", tuple(pre_rules))
        object.__setattr__(self, "plain_rules", tuple(plain_rules))

    def event_of(self, node_id: str) -> Optional[str]:
        return self.node_events.get(node_id)


def _goal_rules(instance: SchemaInstance,
                supports: Sequence[GoalSupport]) -> Iterator[_Rule]:
    """RULE2 for each support whose nodes all matched."""
    for sup in supports:
        events = [instance.event_of(n)
                  for n in (sup.source, sup.target) + sup.chain + (sup.final_state,)]
        if None not in events:
            src, goal, *premises = events
            yield _Rule("RULE2", "%s -goal$-> %s" % (sup.source, sup.target),
                        tuple(premises), goal, (src, "goal", goal))


def run_fixpoint_group(
    state: MemoryState,
    parts: Sequence[tuple[SchemaInstance, Sequence[GoalSupport]]],
    event_edges: Sequence[EventEdge] = (),
    trace: Optional[list[str]] = None,
) -> MemoryState:
    """Apply all rules over several instances until nothing changes.

    Each round fires, per instance, its RULE1s, RULE2s and RULE3s, then the
    event edges.  Every productive round adds at least one truth or one
    confirmed edge, which bounds the number of rounds.  A rule whose
    premises held has settled: memory holds its truth and its edge from
    then on, so it fires nothing again and later rounds leave it out.
    """
    rules: list[_Rule] = []
    for instance, supports in parts:
        rules += instance.pre_rules
        rules += _goal_rules(instance, supports)
        rules += instance.plain_rules
    rules += map(_rule3, event_edges)
    query = state.query
    for _ in range(len(state.known) + len(rules) + 2):
        changed = False
        waiting = []
        for rule in rules:
            for e in rule.premises:
                if not query(e):
                    waiting.append(rule)
                    break
            else:
                truth, edge = rule.truth, rule.edge
                adds_truth = truth is not None and truth not in state.truths
                adds_edge = edge not in state.confirmed
                if not (adds_truth or adds_edge):
                    continue
                if adds_truth:
                    state.assert_true(truth)
                state.confirm(edge)
                changed = True
                if trace is not None:
                    effect = []
                    if adds_truth:
                        effect.append("%s true" % truth)
                    if adds_edge:
                        effect.append("%s -%s-> %s confirmed" % edge)
                    display = rule.display
                    if not isinstance(display, str):
                        display = display.arrow()
                    trace.append("%s %s => %s" % (rule.name, display, "; ".join(effect)))
        if not changed:
            return state
        rules = waiting
    raise RuntimeError("fixpoint failed to settle within its bound")


def run_fixpoint(
    state: MemoryState,
    instance: SchemaInstance,
    supports: Sequence[GoalSupport] = (),
    trace: Optional[list[str]] = None,
) -> MemoryState:
    """Single-instance front of run_fixpoint_group."""
    return run_fixpoint_group(state, [(instance, supports)], (), trace)
