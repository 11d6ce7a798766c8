"""Memory state and the forward-chaining rules that grow it.

Memory tracks which corpus events are currently held true and which
event-level relations have been confirmed.  Both sets only ever grow.
Three rules fire over a matched schema instance:

  RULE1  a pre edge carrying "$" whose target event is true confirms the
         event-level pre relation (no truth is added),
  RULE2  a goal edge carrying "$" fires once its support chain and the
         chain's final state are all true: the goal event becomes true and
         the goal relation is confirmed,
  RULE3  any edge without "$" whose source event is true makes its target
         event true and confirms the relation.

A SchemaInstance lowers its matched edges to event level once, when it is
built, so RULE1 and RULE3 walk ready event edges; declared cross-schema
links arrive as event edges already and fire through the same RULE3 loop.
run_fixpoint_group applies the rules to exhaustion in a fixed order; the
result does not depend on that order (tested, not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

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

    @classmethod
    def for_corpus(cls, corpus) -> "MemoryState":
        return cls(known=frozenset(corpus.event_ids()))

    def assert_true(self, event_id: str) -> None:
        if event_id not in self.known:
            raise UnknownEvent(event_id)
        self.truths.add(event_id)

    def query(self, event_id: str) -> bool:
        """Closed world: anything not derived or asserted is false."""
        if event_id not in self.known:
            raise UnknownEvent(event_id)
        return event_id in self.truths

    def confirm(self, edge: ConfirmedEdge) -> None:
        self.confirmed.add(edge)

    def copy(self) -> "MemoryState":
        return MemoryState(self.known, set(self.truths), set(self.confirmed))

    def snapshot(self) -> tuple[frozenset[str], frozenset[ConfirmedEdge]]:
        return frozenset(self.truths), frozenset(self.confirmed)


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


@dataclass(frozen=True)
class SchemaInstance:
    """A schema's edges together with the node-to-event map a match produced.

    The edges whose endpoints both matched are lowered once, on creation,
    into event-level edges in (source, target, label) node order: `pre_tests`
    holds the pre edges carrying "$" (RULE1), `plain` the edges without "$"
    (RULE3).
    """

    schema_name: str
    edges: tuple[SchemaEdge, ...]
    node_events: Mapping[str, str]
    pre_tests: tuple[EventEdge, ...] = field(init=False, repr=False, compare=False)
    plain: tuple[EventEdge, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pre_tests, plain = [], []
        for edge in sorted(self.edges, key=lambda e: (e.source, e.target, e.label)):
            src = self.event_of(edge.source)
            dst = self.event_of(edge.target)
            if src is None or dst is None:
                continue
            lowered = EventEdge(src, edge.label, dst, edge.arrow())
            if not edge.test:
                plain.append(lowered)
            elif edge.label == "pre":
                pre_tests.append(lowered)
        object.__setattr__(self, "pre_tests", tuple(pre_tests))
        object.__setattr__(self, "plain", tuple(plain))

    def event_of(self, node_id: str) -> Optional[str]:
        return self.node_events.get(node_id)


def _fire_rule1(state: MemoryState, edges: Sequence[EventEdge],
                trace: Optional[list[str]]) -> bool:
    changed = False
    for ee in edges:
        confirmed = (ee.source_event, "pre", ee.target_event)
        if confirmed in state.confirmed or not state.query(ee.target_event):
            continue
        state.confirm(confirmed)
        changed = True
        if trace is not None:
            trace.append("RULE1 %s => %s -pre-> %s confirmed"
                         % (ee.display, ee.source_event, ee.target_event))
    return changed


def _fire_rule2(state: MemoryState, instance: SchemaInstance,
                supports: Sequence[GoalSupport],
                trace: Optional[list[str]]) -> bool:
    changed = False
    for sup in supports:
        events = [instance.event_of(n) for n in sup.chain]
        final_ev = instance.event_of(sup.final_state)
        goal_ev = instance.event_of(sup.target)
        src_ev = instance.event_of(sup.source)
        if None in events or final_ev is None or goal_ev is None or src_ev is None:
            continue
        if not all(state.query(e) for e in events):  # type: ignore[arg-type]
            continue
        if not state.query(final_ev):
            continue
        confirmed = (src_ev, "goal", goal_ev)
        adds_truth = goal_ev not in state.truths
        adds_edge = confirmed not in state.confirmed
        if not (adds_truth or adds_edge):
            continue
        state.assert_true(goal_ev)
        state.confirm(confirmed)
        changed = True
        if trace is not None:
            effect = []
            if adds_truth:
                effect.append("%s true" % goal_ev)
            if adds_edge:
                effect.append("%s -goal-> %s confirmed" % (src_ev, goal_ev))
            trace.append("RULE2 %s -goal$-> %s => %s"
                         % (sup.source, sup.target, "; ".join(effect)))
    return changed


def _fire_rule3(state: MemoryState, edges: Sequence[EventEdge],
                trace: Optional[list[str]]) -> bool:
    changed = False
    for ee in edges:
        if not state.query(ee.source_event):
            continue
        confirmed = (ee.source_event, ee.label, ee.target_event)
        adds_truth = ee.target_event not in state.truths
        adds_edge = confirmed not in state.confirmed
        if not (adds_truth or adds_edge):
            continue
        state.assert_true(ee.target_event)
        state.confirm(confirmed)
        changed = True
        if trace is not None:
            effect = []
            if adds_truth:
                effect.append("%s true" % ee.target_event)
            if adds_edge:
                effect.append("%s -%s-> %s confirmed"
                              % (ee.source_event, ee.label, ee.target_event))
            trace.append("RULE3 %s => %s" % (ee.display, "; ".join(effect)))
    return changed


def run_fixpoint_group(
    state: MemoryState,
    parts: Sequence[tuple[SchemaInstance, Sequence[GoalSupport]]],
    event_edges: Sequence[EventEdge] = (),
    trace: Optional[list[str]] = None,
) -> MemoryState:
    """Apply all rules over several instances until nothing changes.

    Every productive round adds at least one truth or one confirmed edge,
    which bounds the number of rounds.
    """
    edge_count = sum(len(inst.edges) for inst, _ in parts) + len(event_edges)
    support_count = sum(len(sups) for _, sups in parts)
    max_rounds = len(state.known) + edge_count + support_count + 2
    for _ in range(max_rounds):
        changed = False
        for instance, supports in parts:
            if _fire_rule1(state, instance.pre_tests, trace):
                changed = True
            if _fire_rule2(state, instance, supports, trace):
                changed = True
            if _fire_rule3(state, instance.plain, trace):
                changed = True
        if _fire_rule3(state, event_edges, trace):
            changed = True
        if not changed:
            return state
    raise RuntimeError("fixpoint failed to settle within its bound")


def run_fixpoint(
    state: MemoryState,
    instance: SchemaInstance,
    supports: Sequence[GoalSupport] = (),
    trace: Optional[list[str]] = None,
) -> MemoryState:
    """Single-instance front of run_fixpoint_group."""
    return run_fixpoint_group(state, [(instance, supports)], (), trace)
