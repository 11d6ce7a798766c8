import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from understory import MemoryState, run_fixpoint, run_fixpoint_group
from understory.memory import EventEdge, GoalSupport, SchemaInstance, UnknownEvent
from understory.model import SchemaEdge

from generators import random_group, random_instance
from oracles import atomic_fixpoint, reference_fixpoint


def state_over(*events, true=()):
    state = MemoryState(frozenset(events), set(true), set())
    return state


def snapshot(state):
    """The truths and confirmed edges, frozen."""
    return frozenset(state.truths), frozenset(state.confirmed)


class TestMemoryState:
    def test_closed_world_query(self):
        state = state_over("a", "b", true=["a"])
        assert state.query("a")
        assert not state.query("b")

    def test_unknown_ids_raise(self):
        state = state_over("a")
        with pytest.raises(UnknownEvent):
            state.query("zz")
        with pytest.raises(UnknownEvent):
            state.assert_true("zz")

    def test_assert_is_idempotent(self):
        state = state_over("a")
        state.assert_true("a")
        state.assert_true("a")
        assert state.truths == {"a"}

    def test_copy_is_independent(self):
        state = state_over("a", "b", true=["a"])
        twin = state.copy()
        twin.assert_true("b")
        twin.confirm(("a", "part", "b"))
        assert state.truths == {"a"} and not state.confirmed


class TestRule3:
    def test_truth_flows_and_confirms(self):
        inst = SchemaInstance("m", (
            SchemaEdge("n1", "part", "n2"),
            SchemaEdge("n1", "sequel", "n3"),
            SchemaEdge("n3", "cons", "n4"),
        ), {"n1": "e1", "n2": "e2", "n3": "e3", "n4": "e4"})
        state = state_over("e1", "e2", "e3", "e4", true=["e1"])
        trace = []
        run_fixpoint(state, inst, trace=trace)
        assert state.truths == {"e1", "e2", "e3", "e4"}
        assert state.confirmed == {("e1", "part", "e2"),
                                   ("e1", "sequel", "e3"),
                                   ("e3", "cons", "e4")}
        # Edges fire in (source, target, label) order and see truths added
        # earlier in the same round.
        assert trace == [
            "RULE3 n1 -part-> n2 => e2 true; e1 -part-> e2 confirmed",
            "RULE3 n1 -sequel-> n3 => e3 true; e1 -sequel-> e3 confirmed",
            "RULE3 n3 -cons-> n4 => e4 true; e3 -cons-> e4 confirmed",
        ]

    def test_false_source_is_inert(self):
        inst = SchemaInstance("m", (SchemaEdge("n1", "part", "n2"),),
                              {"n1": "e1", "n2": "e2"})
        state = state_over("e1", "e2")
        run_fixpoint(state, inst)
        assert not state.truths and not state.confirmed

    def test_unmapped_endpoint_is_inert(self):
        inst = SchemaInstance("m", (SchemaEdge("n1", "part", "n2"),),
                              {"n1": "e1"})
        state = state_over("e1", true=["e1"])
        run_fixpoint(state, inst)
        assert not state.confirmed


class TestRule1:
    def test_confirms_without_adding_truth(self):
        inst = SchemaInstance("m", (SchemaEdge("n1", "pre", "n2", test=True),),
                              {"n1": "a", "n2": "b"})
        state = state_over("a", "b", true=["b"])
        trace = []
        run_fixpoint(state, inst, trace=trace)
        assert state.truths == {"b"}  # the source is NOT made true
        assert state.confirmed == {("a", "pre", "b")}
        assert trace == ["RULE1 n1 -pre$-> n2 => a -pre-> b confirmed"]

    def test_needs_target_truth(self):
        inst = SchemaInstance("m", (SchemaEdge("n1", "pre", "n2", test=True),),
                              {"n1": "a", "n2": "b"})
        state = state_over("a", "b", true=["a"])
        run_fixpoint(state, inst)
        assert not state.confirmed

    def test_test_factor_on_other_labels_is_inert(self):
        inst = SchemaInstance("m", (SchemaEdge("n1", "part", "n2", test=True),),
                              {"n1": "a", "n2": "b"})
        state = state_over("a", "b", true=["a", "b"])
        run_fixpoint(state, inst)
        assert not state.confirmed


class TestRule2:
    def _instance(self):
        return SchemaInstance("m", (SchemaEdge("n1", "goal", "n9", test=True),),
                              {"n1": "a", "n2": "b", "n3": "c", "n9": "g"})

    def _support(self):
        return GoalSupport(source="n1", target="n9", chain=("n1", "n2"),
                           final_state="n3")

    def test_fires_when_chain_and_final_state_true(self):
        state = state_over("a", "b", "c", "g", true=["a", "b", "c"])
        trace = []
        run_fixpoint(state, self._instance(), supports=[self._support()],
                     trace=trace)
        assert "g" in state.truths
        assert ("a", "goal", "g") in state.confirmed
        assert trace == ["RULE2 n1 -goal$-> n9 => g true; a -goal-> g confirmed"]

    def test_needs_whole_chain(self):
        state = state_over("a", "b", "c", "g", true=["a", "c"])
        run_fixpoint(state, self._instance(), supports=[self._support()])
        assert "g" not in state.truths and not state.confirmed

    def test_needs_final_state(self):
        state = state_over("a", "b", "c", "g", true=["a", "b"])
        run_fixpoint(state, self._instance(), supports=[self._support()])
        assert "g" not in state.truths

    def test_goal_edge_without_support_is_inert(self):
        state = state_over("a", "b", "c", "g", true=["a", "b", "c"])
        run_fixpoint(state, self._instance(), supports=[])
        assert "g" not in state.truths and not state.confirmed

    def test_chain_truth_earned_by_rule3_feeds_rule2(self):
        inst = SchemaInstance("m", (
            SchemaEdge("n1", "part", "n2"),
            SchemaEdge("n2", "part", "n3"),
            SchemaEdge("n1", "goal", "n9", test=True),
        ), {"n1": "a", "n2": "b", "n3": "c", "n9": "g"})
        state = state_over("a", "b", "c", "g", true=["a"])
        run_fixpoint(state, inst, supports=[self._support()])
        assert state.truths == {"a", "b", "c", "g"}
        assert ("a", "goal", "g") in state.confirmed


class TestEventEdges:
    def test_cross_schema_edge_behaves_like_rule3(self):
        edge = EventEdge("a", "sequel", "b", "one.r -sequel-> two.r")
        state = state_over("a", "b", true=["a"])
        trace = []
        run_fixpoint_group(state, [], [edge], trace)
        assert state.truths == {"a", "b"}
        assert state.confirmed == {("a", "sequel", "b")}
        assert trace == ["RULE3 one.r -sequel-> two.r => b true; a -sequel-> b confirmed"]

    def test_group_shares_truth_across_instances(self):
        first = SchemaInstance("one", (SchemaEdge("x1", "part", "x2"),),
                               {"x1": "a", "x2": "b"})
        second = SchemaInstance("two", (SchemaEdge("y1", "cons", "y2"),),
                                {"y1": "b", "y2": "c"})
        state = state_over("a", "b", "c", true=["a"])
        run_fixpoint_group(state, [(first, ()), (second, ())])
        assert state.truths == {"a", "b", "c"}


class TestRuleOrder:
    def test_one_group_fires_every_rule_kind_in_round_order(self):
        """Per round: the instance's RULE1s, RULE2s, RULE3s, then links."""
        inst = SchemaInstance("m", (
            SchemaEdge("n1", "pre", "n2", test=True),
            SchemaEdge("n1", "goal", "n9", test=True),
            SchemaEdge("n3", "part", "n4"),
            SchemaEdge("n1", "sequel", "n3"),
        ), {"n1": "a", "n2": "b", "n3": "c", "n4": "d", "n9": "g"})
        support = GoalSupport(source="n1", target="n9", chain=("n1", "n3"),
                              final_state="n4")
        link = EventEdge("g", "sequel", "h", "m.n9 -sequel-> next.r")
        state = state_over("a", "b", "c", "d", "g", "h", true=["a", "b"])
        trace = []
        run_fixpoint_group(state, [(inst, [support])], [link], trace)
        assert trace == [
            "RULE1 n1 -pre$-> n2 => a -pre-> b confirmed",
            "RULE3 n1 -sequel-> n3 => c true; a -sequel-> c confirmed",
            "RULE3 n3 -part-> n4 => d true; c -part-> d confirmed",
            "RULE2 n1 -goal$-> n9 => g true; a -goal-> g confirmed",
            "RULE3 m.n9 -sequel-> next.r => h true; g -sequel-> h confirmed",
        ]
        assert state.truths == {"a", "b", "c", "d", "g", "h"}


class TestSettledRules:
    def test_settled_rules_leave_the_rounds(self, calls):
        """A chain a9 -> a8 -> ... -> a0 lowers to rules in node order,
        a1 -> a0 first, so each round fires only its last rule.  A rule
        whose premise held fires nothing again and is not checked in later
        rounds: round r checks 10 - r rules, 45 queries in all, where
        checking every rule in every round makes 90."""
        edges = tuple(SchemaEdge("a%d" % (i + 1), "part", "a%d" % i) for i in range(9))
        events = {"a%d" % i: "e%d" % i for i in range(10)}
        inst = SchemaInstance("m", edges, events)
        state = state_over(*events.values(), true=["e9"])
        calls.watch(MemoryState, "query", "confirm")
        trace = []
        run_fixpoint(state, inst, trace=trace)
        assert state.truths == set(events.values())
        assert trace == ["RULE3 a%d -part-> a%d => e%d true; e%d -part-> e%d confirmed"
                         % (i + 1, i, i, i + 1, i) for i in range(8, -1, -1)]
        assert calls.counts == {"query": 45, "confirm": 9}

    def test_trace_and_state_equal_the_reference(self):
        """Leaving settled rules out of later rounds, and lowering edges
        to rules without formatting them, changes no trace line and no
        state, on groups with pre$, goal$ and link rules."""
        fired = set()
        for seed in range(400):
            state, parts, event_edges = random_group(random.Random(seed))
            engine, engine_trace = state.copy(), []
            run_fixpoint_group(engine, parts, event_edges, engine_trace)
            reference, reference_trace = state.copy(), []
            reference_fixpoint(reference, parts, event_edges, reference_trace)
            assert engine_trace == reference_trace, seed
            assert snapshot(engine) == snapshot(reference), seed
            for line in engine_trace:
                name, source = line.split()[:2]
                # Links show event ids; the instances' rules show node ids.
                fired.add("link" if source.startswith("ev") else name)
        assert fired == {"RULE1", "RULE2", "RULE3", "link"}


# ---------------------------------------------------------------------------
# Fixpoint laws on random instances


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_fixpoint_laws_random(seed):
    rng = random.Random(seed)
    state, parts, event_edges = random_group(rng)
    initial = snapshot(state)
    engine = state.copy()
    run_fixpoint_group(engine, parts, event_edges)
    after = snapshot(engine)
    # Monotone: nothing is ever retracted.
    assert initial[0] <= after[0] and initial[1] <= after[1]
    # Idempotent: a second run adds nothing.
    trace = []
    run_fixpoint_group(engine, parts, event_edges, trace)
    assert snapshot(engine) == after and trace == []
    # Confluent: single random firings land on the same fixpoint.
    for order_seed in range(3):
        atomic = state.copy()
        atomic_fixpoint(atomic, parts, event_edges,
                        random.Random(order_seed))
        assert snapshot(atomic) == after


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_fixpoint_over_the_newest_instance_alone(seed):
    """With instances over disjoint events and links only from instance i-1
    into instance i, the rules of instances 0..i-1 fire nothing once they
    are at a fixpoint: running instance i and its links alone gives the
    same state and the same trace as running the whole group."""
    rng = random.Random(seed)
    count = rng.randint(2, 4)
    universes = [["g%de%d" % (i, j) for j in range(1, rng.randint(1, 4) + 1)]
                 for i in range(count)]
    parts = [random_instance(rng, events, "g%d" % i)
             for i, events in enumerate(universes)]
    links: list[list[EventEdge]] = [[]]
    for before, after in zip(universes, universes[1:]):
        pairs = dict.fromkeys((rng.choice(before), rng.choice(after))
                              for _ in range(rng.randint(1, 2)))
        links.append([EventEdge(a, "sequel", b, "%s -sequel-> %s" % (a, b))
                      for a, b in pairs])
    every = frozenset(ev for events in universes for ev in events)
    state = MemoryState(every, {ev for ev in every if rng.random() < 0.35}, set())
    i = count - 1
    earlier = [edge for edges in links[:i] for edge in edges]
    run_fixpoint_group(state, parts[:i], earlier)
    whole, whole_trace = state.copy(), []
    run_fixpoint_group(whole, parts, earlier + links[i], whole_trace)
    newest, newest_trace = state.copy(), []
    run_fixpoint_group(newest, parts[i:], links[i], newest_trace)
    assert snapshot(newest) == snapshot(whole)
    assert newest_trace == whole_trace
