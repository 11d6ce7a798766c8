import random
import tracemalloc
from collections import Counter
from typing import Optional

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from understory import (
    RELATION_LABELS,
    MemoryState,
    SchemaDocument,
    SegmentationFailure,
    Var,
    Word,
    build_instance,
    match_event,
    match_sequence,
    parse_corpus,
    parse_schema_file,
    run_fixpoint,
    understand,
)
from understory.memory import UnknownEvent
from understory.model import (
    CorpusDocument,
    PreconditionError,
    SchemaEdge,
)
import understory.schema
from understory.schema import (
    MemorySchema,
    Segment,
    check_understandable,
    validate_memory_schema,
)
from understory.report import report_json

from documents import event, schema_named, substitution_of
from generators import (
    blocked_chain_texts,
    flexible_chain_texts,
    linked_chain_texts,
    match_corpus,
    match_instance,
    star_texts,
    theorem_pair,
    twin_instance,
    wide_star_instance,
)
from oracles import (
    first_covering_key,
    oracle_check_understandable,
    oracle_match_sequence,
    oracle_understand,
    oracle_validate_memory_schema,
    partition_blocks,
)


def mk(name, roots, nodes, edges=(), fs=None):
    return MemorySchema(name, tuple(roots), nodes, tuple(edges), fs or {})


def node(nid, **slots):
    return event(nid, **slots)


class TestStructure:
    def test_root_chain_is_synthesized(self, morning_doc):
        mp = schema_named(morning_doc, "morning")
        assert mp.all_edges() == mp.edges + (SchemaEdge("s1", "sequel", "s3"),)

    def test_restated_sequel_is_not_duplicated(self):
        mp = mk("m", ["a", "b"],
                {"a": node("a", actor=Var("P")), "b": node("b", actor=Var("P"))},
                [SchemaEdge("a", "sequel", "b")])
        assert mp.all_edges() == mp.edges
        assert not validate_memory_schema(mp)

    def test_tree_membership(self, morning_doc):
        mp = schema_named(morning_doc, "morning")
        assert mp.tree_of("s1") == ("s1", "s2")
        assert mp.tree_of("s3") == ("s3", "s4")

    def test_fields_are_read_only_copies(self):
        """The constructor derives the structure once, so the fields it
        read may not change after it: `nodes` and `fs_links` refuse item
        assignment, and changing the lists and dicts the schema was built
        from changes nothing in it."""
        roots, edges = ["w1"], [SchemaEdge("w1", "part", "w2")]
        nodes = {"w1": node("w1", actor=Var("P")), "w2": node("w2", actor=Var("P"))}
        fs = {"w2": "w1"}
        mp = MemorySchema("m", roots, nodes, edges, fs)
        with pytest.raises(TypeError):
            mp.nodes["w3"] = mp.nodes["w2"]
        with pytest.raises(TypeError):
            mp.fs_links["w1"] = "w2"
        nodes["w3"] = nodes.pop("w2")
        fs["w9"] = "w1"
        roots.append("w3")
        edges.clear()
        assert mp.roots == ("w1",) and mp.tree_of("w1") == ("w1", "w2")
        assert mp.all_edges() == mp.edges == (SchemaEdge("w1", "part", "w2"),)
        assert validate_memory_schema(mp) == []
        assert list(mp.nodes) == ["w1", "w2"] and dict(mp.fs_links) == {"w2": "w1"}

    def test_fixture_schemas_are_well_formed(self, morning_doc, pair_doc):
        for doc in (morning_doc, pair_doc):
            for mp in doc.schemas:
                assert validate_memory_schema(mp) == []

    def test_structure_agrees_with_a_rescan_on_generated_schemas(self):
        rng = random.Random(7)
        for _ in range(100):
            assert_structure_agrees(theorem_pair(rng)[0])
            assert_structure_agrees(match_instance(rng)[0])

    def test_structure_agrees_with_a_rescan_on_invalid_schemas(self):
        cycle, orphan, two_parents = invalid_schemas()
        assert cycle.tree_of("r") == ("r",)
        assert orphan.tree_of("r") == ("r", "a")
        assert "schema m: node b has no tree parent" in validate_memory_schema(orphan)
        assert two_parents.tree_of("r") == ("r",)
        assert two_parents.tree_of("s") == ("s", "k")
        for mp in (cycle, orphan, two_parents):
            assert validate_memory_schema(mp)
            assert_structure_agrees(mp)

    def test_validation_agrees_with_a_rescan(self):
        """The diagnostics, in order, on the generated schemas, the invalid
        ones above and damaged copies of the generated ones."""
        rng = random.Random(7)
        generated = []
        for _ in range(100):
            generated += [theorem_pair(rng)[0], match_instance(rng)[0]]
        damage = random.Random(8)
        damaged = [damaged_copy(mp, damage) for mp in generated for _ in range(3)]
        seen = set()
        for mp in generated + list(invalid_schemas()) + damaged:
            diags = validate_memory_schema(mp)
            assert diags == oracle_validate_memory_schema(mp), render_edges(mp)
            seen.update(kind for kind in DIAGNOSTIC_KINDS for diag in diags
                        if kind in diag)
        assert seen == set(DIAGNOSTIC_KINDS)

    def test_thousand_node_cons_chain(self):
        # Nodes are declared last to first, so document order is not the
        # order a walk down the chain would visit them in.
        size = 1000
        ids = ["n%d" % i for i in range(size)]
        text = "memory_schema deep { roots: [n0]\n%s%s}\n" % (
            "".join("node %s = schema { actor: kim }\n" % nid
                    for nid in reversed(ids)),
            "".join("%s -cons-> %s\n" % pair for pair in zip(ids, ids[1:])))
        mp = schema_named(parse_schema_file(text), "deep")
        assert mp.tree_of("n0") == ("n0",) + tuple(reversed(ids[1:]))


DIAGNOSTIC_KINDS = (
    "uses unknown node", "duplicate edge", "makes a root a child",
    "has no tree parent", "tree parents", "unreachable from any root",
    "has no sequel chain",
)


def invalid_schemas():
    """A cycle, an orphan and a node with two tree parents."""
    p = {"actor": Var("P")}
    cycle = mk("m", ["r"], {nid: node(nid, **p) for nid in "rxy"},
               [SchemaEdge("x", "part", "y"), SchemaEdge("y", "part", "x")])
    orphan = mk("m", ["r"], {nid: node(nid, **p) for nid in "rab"},
                [SchemaEdge("r", "part", "a")])
    two_parents = mk("m", ["r", "s"], {nid: node(nid, **p) for nid in "rsk"},
                     [SchemaEdge("s", "cons", "k"), SchemaEdge("r", "part", "k")])
    return cycle, orphan, two_parents


def damaged_copy(mp, rng):
    """mp with one to three of its edges dropped, repeated, or added between
    random node ids (an unknown id among them)."""
    ids = sorted(mp.nodes) + ["zz"]
    edges = list(mp.edges)
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.3 and edges:
            edges.pop(rng.randrange(len(edges)))
        elif roll < 0.4 and edges:
            edges.append(rng.choice(edges))
        else:
            edges.append(SchemaEdge(rng.choice(ids), rng.choice(sorted(RELATION_LABELS)),
                                    rng.choice(ids), rng.random() < 0.3))
    return MemorySchema(mp.name, mp.roots, mp.nodes, tuple(edges), mp.fs_links)


def render_edges(mp):
    return "%s roots %s: %s" % (mp.name, mp.roots, ", ".join(e.arrow() for e in mp.edges))


def assert_structure_agrees(mp):
    """Every root's cached tree equals a naive rescan of the declared edges:
    the nodes whose chain of first tree parents ends at that root."""
    def parent(node_id):
        for e in mp.edges:
            if e.target == node_id and e.target not in mp.roots:
                return e.source
        return None

    def root(node_id):
        seen = set()
        while node_id not in mp.roots:
            if node_id in seen:
                return None
            seen.add(node_id)
            node_id = parent(node_id)
            if node_id is None:
                return None
        return node_id

    for r in mp.roots:
        assert mp.tree_of(r) == (r,) + tuple(
            nd for nd in mp.nodes if nd != r and root(nd) == r)


class TestValidation:
    def _base_nodes(self):
        return {"a": node("a", actor=Var("P")), "b": node("b", actor=Var("P"))}

    def test_no_roots(self):
        diags = validate_memory_schema(mk("m", [], self._base_nodes()))
        assert any("no roots" in d for d in diags)

    def test_duplicate_root(self):
        mp = mk("m", ["a", "a"], {"a": node("a", actor=Var("P"))})
        assert any("listed twice" in d for d in validate_memory_schema(mp))

    def test_root_must_be_a_node(self):
        mp = mk("m", ["z"], {"a": node("a", actor=Var("P"))})
        diags = validate_memory_schema(mp)
        assert any("root z is not a node" in d for d in diags)

    def test_edge_endpoints_must_exist(self):
        mp = mk("m", ["a"], {"a": node("a", actor=Var("P"))},
                [SchemaEdge("a", "part", "zz")])
        assert any("unknown node zz" in d for d in validate_memory_schema(mp))

    def test_fs_link_endpoints_must_exist(self):
        mp = mk("m", ["a"], {"a": node("a", actor=Var("P"))}, fs={"a": "zz"})
        assert validate_memory_schema(mp) == [
            "schema m: fs link a = zz uses unknown node zz"]

    def test_duplicate_edge(self):
        nodes = self._base_nodes()
        mp = mk("m", ["a"], nodes,
                [SchemaEdge("a", "part", "b"), SchemaEdge("a", "part", "b")])
        assert any("duplicate edge" in d for d in validate_memory_schema(mp))

    def test_edge_onto_root_is_rejected(self):
        mp = mk("m", ["a", "b"], self._base_nodes(),
                [SchemaEdge("a", "part", "b")])
        assert any("makes a root a child" in d for d in validate_memory_schema(mp))

    def test_orphan_node(self):
        mp = mk("m", ["a"], self._base_nodes())
        assert any("b has no tree parent" in d for d in validate_memory_schema(mp))

    def test_two_parents(self):
        nodes = self._base_nodes()
        mp = mk("m", ["a"], nodes,
                [SchemaEdge("a", "part", "b"), SchemaEdge("a", "cons", "b")])
        assert any("2 tree parents" in d for d in validate_memory_schema(mp))

    def test_cycle_is_unreachable(self):
        nodes = {"r": node("r", actor=Var("P")),
                 "x": node("x", actor=Var("P")),
                 "y": node("y", actor=Var("P"))}
        mp = mk("m", ["r"], nodes,
                [SchemaEdge("x", "part", "y"), SchemaEdge("y", "part", "x")])
        diags = validate_memory_schema(mp)
        assert any("unreachable" in d for d in diags)

    def test_goal_needs_support(self):
        nodes = {"a": node("a", actor=Var("P")), "g": node("g", actor=Var("P"))}
        mp = mk("m", ["a"], nodes, [SchemaEdge("a", "goal", "g", test=True)])
        assert any("no sequel chain" in d for d in validate_memory_schema(mp))

    def test_goal_support_resolves_via_fs(self):
        nodes = {"a": node("a", actor=Var("P")),
                 "b": node("b", actor=Var("P")),
                 "k": node("k", actor=Var("P")),
                 "g": node("g", actor=Var("P"))}
        mp = mk("m", ["a", "b"], nodes,
                [SchemaEdge("b", "part", "k"),
                 SchemaEdge("a", "goal", "g", test=True)],
                fs={"b": "k"})
        assert validate_memory_schema(mp) == []
        (sup,) = mp._structure.supports
        assert sup.chain == ("a", "b")
        assert sup.final_state == "k"
        assert sup.source == "a" and sup.target == "g"

    def test_goal_support_prefers_shortest_then_smallest(self):
        nodes = {"a": node("a", actor=Var("P")),
                 "k1": node("k1", actor=Var("P")),
                 "k2": node("k2", actor=Var("P")),
                 "g": node("g", actor=Var("P"))}
        mp = mk("m", ["a"], nodes,
                [SchemaEdge("a", "sequel", "k2"),
                 SchemaEdge("a", "sequel", "k1"),
                 SchemaEdge("a", "goal", "g", test=True)],
                fs={"k1": "a", "k2": "a"})
        (sup,) = mp._structure.supports
        assert sup.chain == ("a", "k1")  # neighbors visited in sorted order


class TestPartition:
    def test_desk_examples(self):
        assert partition_blocks(6, (2, 5)).blocks == ((1, 2, 3, 4), (5, 6))
        assert partition_blocks(3, (1,)).blocks == ((1, 2, 3),)
        assert partition_blocks(4, (1, 2, 3, 4)).blocks == ((1,), (2,), (3,), (4,))

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            partition_blocks(0, (1,))
        with pytest.raises(PreconditionError):
            partition_blocks(3, ())
        with pytest.raises(PreconditionError):
            partition_blocks(3, (2, 2))
        with pytest.raises(PreconditionError):
            partition_blocks(3, (3, 1))
        with pytest.raises(PreconditionError):
            partition_blocks(3, (0,))
        with pytest.raises(PreconditionError):
            partition_blocks(3, (4,))

    @given(st.data())
    @settings(max_examples=200)
    def test_blocks_cover_positions_exactly(self, data):
        n = data.draw(st.integers(1, 12))
        count = data.draw(st.integers(1, n))
        anchors = tuple(sorted(data.draw(
            st.sets(st.integers(1, n), min_size=count, max_size=count))))
        bp = partition_blocks(n, anchors)
        flat = [p for block in bp.blocks for p in block]
        assert flat == list(range(1, n + 1))
        for i, anchor in enumerate(anchors):
            assert anchor in bp.blocks[i]
            assert bp.blocks[i][0] <= anchor

    @given(st.data())
    @settings(max_examples=200)
    def test_engine_split_agrees_with_the_reference(self, data):
        """The matcher's own block split pairs each non-anchor event, in
        position order, with the kids of its reference block's root, and
        gives each block one unused-kid list with every kid linked."""
        n = data.draw(st.integers(1, 12))
        count = data.draw(st.integers(1, n))
        anchors = tuple(sorted(data.draw(
            st.sets(st.integers(1, n), min_size=count, max_size=count))))
        events = tuple(event("e%d" % p, actor=Word("kim")) for p in range(1, n + 1))
        kids = [tuple("k%d_%d" % (j, x) for x in range(data.draw(st.integers(0, 3))))
                for j in range(count)]
        blocks = [(j, p) for j, block in enumerate(partition_blocks(n, anchors).blocks)
                  for p in block if p != anchors[j]]
        tasks = understory.schema._split_blocks(events, anchors, kids)
        assert [(ev, tree) for ev, tree, _, _ in tasks] == \
            [(events[p - 1], kids[j]) for j, p in blocks]
        links = {}
        for (j, _), (_, _, after, before) in zip(blocks, tasks):
            # One block's events, those before the first anchor included,
            # hold one pair of lists; other blocks hold other lists.
            first = links.setdefault(j, (after, before))
            assert first[0] is after and first[1] is before
            # A fresh list links every kid: after[-1] is the first, w ends it.
            w = len(kids[j])
            order = [after[-1]]
            for _ in range(w):
                order.append(after[order[-1]])
            assert order == list(range(w + 1))
            assert [before[x] for x in range(w)] == list(range(-1, w - 1))
        lists = [id(a) for a, _ in links.values()] + [id(b) for _, b in links.values()]
        assert len(set(lists)) == len(lists)


def seeded(corpus, *true_ids):
    state = MemoryState.for_corpus(corpus)
    for ev_id in true_ids:
        state.assert_true(ev_id)
    return state


@pytest.fixture
def covering_steps(monkeypatch):
    """understory.schema._match_into calls, one entry each; past 10,000 the
    test fails."""
    steps = []
    match_into = understory.schema._match_into

    def counted(*args):
        steps.append(None)
        if len(steps) > 10_000:
            raise AssertionError("more than 10,000 covering steps")
        return match_into(*args)

    monkeypatch.setattr(understory.schema, "_match_into", counted)
    return steps


class TestMatchSequence:
    def test_morning_desk_match(self, morning_doc, day_corpus):
        mp = schema_named(morning_doc, "morning")
        result = match_sequence(mp, day_corpus, seeded(day_corpus, "e1"))
        assert result is not None
        assert result.chain_length == 2
        assert result.anchors == (("s1", "e1", 1), ("s3", "e3", 3))
        assert result.node_map == (("s2", "e2"), ("s4", "e4"))
        assert result.unmatched == frozenset()
        assert result.substitution == substitution_of(
            {"P": Word("kim"), "D": Word("school")})
        assert result.supports == ()
        assert result.node_events() == {"s1": "e1", "s2": "e2",
                                        "s3": "e3", "s4": "e4"}

    def test_first_root_needs_truth(self, morning_doc, day_corpus):
        mp = schema_named(morning_doc, "morning")
        assert match_sequence(mp, day_corpus,
                              MemoryState.for_corpus(day_corpus)) is None

    def test_chain_length_is_maximized(self):
        nodes = {"a": node("a", actor=Word("kim")),
                 "b": node("b", actor=Word("kim")),
                 "c": node("c", actor=Word("kim"))}
        mp = mk("m", ["a", "b"], nodes, [SchemaEdge("b", "part", "c")])
        corpus = CorpusDocument(tuple(
            event("e%d" % i, actor=Word("kim")) for i in (1, 2, 3)))
        result = match_sequence(mp, corpus, seeded(corpus, "e1", "e2"))
        assert result.chain_length == 2
        assert [pos for _, _, pos in result.anchors] == [1, 2]  # lexicographically first

    def test_root_vector_tie_break(self):
        nodes = {"a": node("a", actor=Word("lee")),
                 "b": node("b", actor=Word("kim"))}
        mp = mk("m", ["a", "b"], nodes)
        corpus = CorpusDocument((event("e1", actor=Word("kim")),))
        result = match_sequence(mp, corpus, seeded(corpus, "e1"))
        # Root a cannot match, so the single anchor falls to root b; the
        # first-root truth condition only constrains a chosen first root.
        assert result.anchors == (("b", "e1", 1),)
        assert result.unmatched == frozenset({"a"})

    def test_unmatched_nodes_need_bound_variables(self):
        nodes = {"a": node("a", actor=Var("P")),
                 "b": node("b", actor=Var("P"), to=Var("D"))}
        mp = mk("m", ["a", "b"], nodes)
        corpus = CorpusDocument((event("e1", actor=Word("kim")),))
        # b stays unmatched and ?D never binds: no admissible match at all.
        assert match_sequence(mp, corpus, seeded(corpus, "e1")) is None

    def test_pre_test_edge_requires_target_truth_at_match_time(self):
        nodes = {"a": node("a", action=Word("eat")),
                 "k": node("k", action=Word("hungry"))}
        mp = mk("m", ["a"], nodes, [SchemaEdge("a", "pre", "k", test=True)])
        corpus = CorpusDocument((event("e1", action=Word("eat")),
                                 event("e2", action=Word("hungry"))))
        assert match_sequence(mp, corpus, seeded(corpus, "e1")) is None
        result = match_sequence(mp, corpus, seeded(corpus, "e1", "e2"))
        assert result is not None
        assert result.node_map == (("k", "e2"),)

    def test_unresolvable_goal_blocks_matching(self):
        nodes = {"a": node("a", action=Word("eat")),
                 "g": node("g", action=Word("full"))}
        mp = mk("m", ["a"], nodes, [SchemaEdge("a", "goal", "g", test=True)])
        corpus = CorpusDocument((event("e1", action=Word("eat")),
                                 event("e2", action=Word("full"))))
        assert match_sequence(mp, corpus, seeded(corpus, "e1", "e2")) is None

    def test_empty_corpus_has_no_match(self, morning_doc):
        mp = schema_named(morning_doc, "morning")
        corpus = CorpusDocument(())
        assert match_sequence(mp, corpus, MemoryState.for_corpus(corpus)) is None

    def test_large_star_covers_every_event(self):
        schema_text, corpus_text = star_texts(1049)
        mp = schema_named(parse_schema_file(schema_text), "star")
        corpus = parse_corpus(corpus_text)
        result = match_sequence(mp, corpus, seeded(corpus, "e0"))
        assert result.anchors == (("r", "e0", 1),)
        assert result.node_events() == dict(
            [("r", "e0")] + [("k%d" % i, "e%d" % i) for i in range(1, 1050)])
        assert result.unmatched == frozenset()

    def test_twin_kids_are_not_permuted(self, covering_steps):
        """Twelve interchangeable kids cannot cover twelve steps when the
        last has another actor; the search must see that without trying
        the 12! orders of the kids over the first eleven."""
        schema_text, corpus_text = star_texts(12)
        mp = schema_named(parse_schema_file(schema_text), "star")
        corpus = parse_corpus(corpus_text.replace("event e12 { actor: kim",
                                                  "event e12 { actor: lee"))
        assert match_sequence(mp, corpus, seeded(corpus, "e0")) is None
        assert len(covering_steps) < 100

    def test_corpus_longer_than_the_schema_is_not_walked(self, covering_steps):
        """Every event of a match takes a node of its own, so thirteen steps
        cannot fit twelve kids.  Kids with distinct variables are no twins;
        without the length rule the walk passed 100,000 covering steps
        here without an answer."""
        k = 12
        mp = schema_named(parse_schema_file("memory_schema star { roots: [r]\n%s%s%s}\n" % (
            "node r = schema { actor: ?P action: start }\n",
            "".join("node k%d = schema { actor: ?P action: step obj: ?X%d }\n"
                    % (i, i) for i in range(1, k + 1)),
            "".join("r -part-> k%d\n" % i for i in range(1, k + 1)))), "star")
        corpus = parse_corpus("event e0 { actor: kim action: start }\n" + "".join(
            "event e%d { actor: kim action: step obj: o%d }\n" % (i, i)
            for i in range(1, k + 2)))
        assert match_sequence(mp, corpus, seeded(corpus, "e0")) is None
        assert covering_steps == []

    def test_twin_pruning_agrees_with_the_oracle(self):
        rng = random.Random(7)
        matched = twinned = pre_kids = 0
        for _ in range(400):
            mp, corpus, state = twin_instance(rng)
            twinned += bool(mp._structure.twins)
            pre_kids += any(e.test for e in mp.edges)
            admissible = oracle_match_sequence(mp, corpus, state)
            engine = match_sequence(mp, corpus, state)
            if not admissible:
                assert engine is None
                continue
            matched += 1
            assert engine == min(admissible, key=first_covering_key(mp, corpus))
        assert matched >= 80 and twinned >= 200 and pre_kids >= 100

    def test_wide_stars_agree_with_the_oracle(self):
        """The covering walks a list of its block's unused kids, unlinks a
        kid when it picks it and links it back when the walk backs out.
        Twins that share ?X, and a late event with another obj, make the
        walk back out of several picks before it tries another kid; with
        two roots, two blocks keep their lists side by side."""
        rng = random.Random(13)
        matched = failed = two_blocks = 0
        for _ in range(250):
            mp, corpus, state = wide_star_instance(rng)
            admissible = oracle_match_sequence(mp, corpus, state)
            engine = match_sequence(mp, corpus, state)
            if admissible:
                assert engine == min(admissible, key=first_covering_key(mp, corpus))
                matched += 1
                two_blocks += engine.chain_length == 2
            else:
                assert engine is None
                failed += 1
        assert matched >= 40 and failed >= 150 and two_blocks >= 8

    def test_wide_stars_at_an_offset_over_a_shared_table(self):
        """Every suffix of a wide star's corpus, searched at its offset
        over one unifier table, gives the oracle's first pick on the
        suffix as its own corpus, anchors shifted."""
        rng = random.Random(17)
        matched = 0
        for _ in range(150):
            mp, corpus, state = wide_star_instance(rng)
            table = {}
            for s in range(len(corpus)):
                alone = CorpusDocument(corpus.events[s:])
                found = understory.schema._search(mp, alone.events, state, False, s, table)
                admissible = oracle_match_sequence(mp, alone, state)
                if not admissible:
                    assert found is None
                    continue
                best = min(admissible, key=first_covering_key(mp, alone))
                assert found == best._replace(anchors=tuple(
                    (root, ev, pos + s) for root, ev, pos in best.anchors))
                matched += 1
        assert matched >= 120

    def test_oracle_agrees_on_the_desk_fixture(self, morning_doc, day_corpus):
        mp = schema_named(morning_doc, "morning")
        state = seeded(day_corpus, "e1")
        engine = match_sequence(mp, day_corpus, state)
        everything = oracle_match_sequence(mp, day_corpus, state)
        assert engine in everything
        best = max(r.chain_length for r in everything)
        assert engine.chain_length == best

    def test_offset_search_over_a_shared_table_agrees_with_a_fresh_match(self):
        """understand() searches corpus slices at their offset, with one
        unifier table per schema: that must return what match_sequence
        finds on the slice as its own corpus, anchors shifted, which is the
        exhaustive oracle's first pick."""
        def shifted(result, offset):
            return result._replace(anchors=tuple(
                (root, ev, pos + offset) for root, ev, pos in result.anchors))

        rng = random.Random(11)
        matched = 0
        for _ in range(250):
            mp, _, _ = match_instance(rng)
            corpus, state = match_corpus(rng, 12)
            n = len(corpus)
            table, licensed_table = {}, {}
            for _ in range(6):
                s = rng.randrange(n)
                e = rng.randint(s + 1, min(n, s + 4))
                segment = corpus.events[s:e]
                alone = CorpusDocument(segment)
                found = understory.schema._search(mp, segment, state, False, s, table)
                expected = match_sequence(mp, alone, state)
                admissible = oracle_match_sequence(mp, alone, state)
                if expected is None:
                    assert found is None and not admissible
                else:
                    assert expected == min(admissible, key=first_covering_key(mp, alone))
                    assert found == shifted(expected, s)
                    matched += 1
                fresh = understory.schema._search(mp, segment, state, True)
                licensed = understory.schema._search(mp, segment, state, True, s,
                                                     licensed_table)
                assert licensed == (None if fresh is None else shifted(fresh, s))
            # Every pair in the shared table was unified with the event at
            # its own corpus position.
            for (i, pos), subst in table.items():
                assert subst == match_event(mp.nodes[mp.roots[i]], corpus.events[pos - 1])
        assert matched >= 60

    def test_oracle_size_guard(self, morning_doc):
        mp = schema_named(morning_doc, "morning")
        corpus = CorpusDocument(tuple(
            event("e%d" % i, actor=Word("kim")) for i in range(1, 10)))
        with pytest.raises(PreconditionError):
            oracle_match_sequence(mp, corpus, MemoryState.for_corpus(corpus))


class TestCheckUnderstandable:
    def test_desk_verdict(self, day_corpus):
        state = seeded(day_corpus, "e1", "e2", "e3", "e4")
        state.confirm(("e1", "sequel", "e3"))
        report = check_understandable(state, day_corpus, [])
        assert report.understandable
        assert report.chain_length == 2
        assert report.anchor_chain == ("e1", "e3")
        assert report.diagnostics == ()

    def test_missing_truth_is_reported(self, day_corpus):
        state = seeded(day_corpus, "e1", "e3")
        state.confirm(("e1", "sequel", "e3"))
        report = check_understandable(state, day_corpus, [])
        assert not report.understandable
        assert "event e2 is not held true" in report.diagnostics
        assert "event e4 is not held true" in report.diagnostics

    def test_chain_of_one_is_not_enough(self, day_corpus):
        state = seeded(day_corpus, "e1", "e2", "e3", "e4")
        report = check_understandable(state, day_corpus, [])
        assert not report.understandable
        assert report.chain_length == 1
        assert any("sequel chain" in d for d in report.diagnostics)

    def test_longest_forward_chain_wins(self, day_corpus):
        state = seeded(day_corpus, "e1", "e2", "e3", "e4")
        for pair in (("e1", "e2"), ("e2", "e4"), ("e1", "e4")):
            state.confirm((pair[0], "sequel", pair[1]))
        report = check_understandable(state, day_corpus, [])
        assert report.chain_length == 3
        assert report.anchor_chain == ("e1", "e2", "e4")

    def test_backward_edges_do_not_chain(self, day_corpus):
        state = seeded(day_corpus, "e1", "e2", "e3", "e4")
        state.confirm(("e3", "sequel", "e1"))  # wrong direction
        report = check_understandable(state, day_corpus, [])
        assert report.chain_length == 1

    def test_agrees_with_the_pairwise_scan(self):
        for seed in range(400):
            rng = random.Random(seed)
            n = rng.randint(0, 12)
            corpus = CorpusDocument(tuple(
                event("e%d" % i, actor=Word("kim")) for i in range(1, n + 1)))
            ids = list(corpus.event_ids()) + ["x1"]  # x1 is not in the corpus
            state = MemoryState(frozenset(corpus.event_ids()),
                                {i for i in ids[:-1] if rng.random() < 0.8})
            for _ in range(rng.randint(0, 3 * n)):
                state.confirm((rng.choice(ids), rng.choice(("sequel", "part")),
                               rng.choice(ids)))
            assert check_understandable(state, corpus, []) == \
                oracle_check_understandable(state, corpus, []), seed


class TestUnderstand:
    def test_single_schema_document(self, morning_doc, day_corpus):
        trace = []
        report = understand(morning_doc, day_corpus, ("e1",), trace)
        assert report.understandable
        assert report.chain_length == 2
        assert report.anchor_chain == ("e1", "e3")
        assert report.segments == (Segment("morning", 1, 4,
                                           ("e1", "e2", "e3", "e4")),)
        assert report.state.truths == {"e1", "e2", "e3", "e4"}
        assert trace == [
            "RULE3 s1 -part-> s2 => e2 true; e1 -part-> e2 confirmed",
            "RULE3 s1 -sequel-> s3 => e3 true; e1 -sequel-> e3 confirmed",
            "RULE3 s3 -cons-> s4 => e4 true; e3 -cons-> e4 confirmed",
        ]

    def test_link_carries_truth_across_segments(self, pair_doc, day_corpus):
        trace = []
        report = understand(pair_doc, day_corpus, ("e1",), trace)
        assert report.understandable
        assert report.segments == (
            Segment("waking", 1, 2, ("e1", "e2")),
            Segment("going", 3, 4, ("e3", "e4")),
        )
        assert report.results[1].anchors == (("g1", "e3", 3),)
        assert ("e1", "sequel", "e3") in report.state.confirmed
        assert "RULE3 waking.w1 -sequel-> going.g1 => e3 true; " \
               "e1 -sequel-> e3 confirmed" in trace

    def test_without_link_segmentation_fails(self, pair_nolink_doc, day_corpus):
        with pytest.raises(SegmentationFailure) as err:
            understand(pair_nolink_doc, day_corpus, ("e1",))
        assert err.value.matched == 1
        assert err.value.total == 2
        assert any("going" in d for d in err.value.diagnostics)

    def test_no_assertion_fails_everywhere(self, pair_doc, day_corpus):
        with pytest.raises(SegmentationFailure):
            understand(pair_doc, day_corpus, ())

    def test_unknown_assertion_raises(self, morning_doc, day_corpus):
        with pytest.raises(UnknownEvent):
            understand(morning_doc, day_corpus, ("e9",))

    def test_fewer_events_than_schemas_names_both_counts(self, pair_doc):
        corpus = CorpusDocument((event("e1", actor=Word("kim"), action=Word("wake")),))
        with pytest.raises(SegmentationFailure) as err:
            understand(pair_doc, corpus, ("e1",))
        assert (err.value.matched, err.value.total) == (0, 2)
        assert err.value.diagnostics == (
            "the corpus has 1 event(s), fewer than the 2 schemas; every "
            "schema needs a segment of at least one event",)

    def test_unknown_assertion_raises_before_any_cut(self, pair_doc):
        corpus = CorpusDocument((event("e1", actor=Word("kim"), action=Word("wake")),))
        with pytest.raises(UnknownEvent):
            understand(pair_doc, corpus, ("nope",))

    def test_empty_schema_document(self, day_corpus):
        with pytest.raises(SegmentationFailure) as err:
            understand(SchemaDocument(()), day_corpus, ())
        assert err.value.total == 0

    def test_verdict_can_be_negative_after_full_match(self):
        # One schema, one root, one event: everything matches but a chain
        # of length two can never form.
        mp = mk("solo", ["a"], {"a": node("a", action=Word("wake"))})
        corpus = CorpusDocument((event("e1", action=Word("wake")),))
        doc = SchemaDocument((mp,))
        report = understand(doc, corpus, ("e1",))
        assert not report.understandable
        assert report.chain_length <= 1
        assert any("sequel chain" in d for d in report.diagnostics)


def _outcome(understand_fn, doc, corpus, assertions):
    """What a caller sees of one run: report bytes or failure, and the trace."""
    trace = []
    try:
        report = understand_fn(doc, corpus, assertions, trace)
    except SegmentationFailure as failure:
        return ("failure", failure.matched, failure.total, failure.diagnostics,
                failure.state.truths, trace)
    return ("report", report_json(report), trace)


class SearchCounter:
    """understory.schema._search calls, per schema name and in total; a
    call past `limit` in total fails the test."""

    def __init__(self) -> None:
        self.per_schema: Counter[str] = Counter()
        self.total = 0
        self.limit: Optional[int] = None


@pytest.fixture
def searches(monkeypatch):
    counter = SearchCounter()
    search = understory.schema._search

    def counted(mp, *args):
        counter.per_schema[mp.name] += 1
        counter.total += 1
        if counter.limit is not None and counter.total > counter.limit:
            raise AssertionError("more than %d searches" % counter.limit)
        return search(mp, *args)

    monkeypatch.setattr(understory.schema, "_search", counted)
    return counter


# s0 wakes; s1 goes and then arrives.
WAKE_THEN_GO = ("memory_schema s0 { roots: [r]\n"
                "  node r = schema { actor: ?P action: wake }\n}\n"
                "memory_schema s1 { roots: [r]\n"
                "  node r = schema { actor: ?P action: go }\n"
                "  node k = schema { actor: ?P action: arrive }\n"
                "  r -part-> k\n}\n"
                "link s0.r -sequel-> s1.r\n")


def kim_events(*actions: str) -> str:
    return "".join("event e%d { actor: kim action: %s }\n" % (j, action)
                   for j, action in enumerate(actions, 1))


class TestCutSearch:
    def test_agrees_with_full_cut_enumeration(self):
        kinds = set()
        for seed in range(300):
            rng = random.Random(seed)
            m = rng.randint(1, 4)
            schema_text, corpus_text = linked_chain_texts(
                rng, m, rng.randint(1, 2 if m > 2 else 3),
                dead_end=rng.random() < 0.3, mixed=rng.random() < 0.5)
            doc = parse_schema_file(schema_text)
            events = list(parse_corpus(corpus_text).events)
            change = rng.choice(("none", "swap", "drop"))
            if change == "swap" and len(events) > 1:
                i = rng.randrange(len(events) - 1)
                events[i], events[i + 1] = events[i + 1], events[i]
            elif change == "drop":
                events.pop(rng.randrange(len(events)))
            corpus = CorpusDocument(tuple(events))
            ids = corpus.event_ids()
            if rng.random() < 0.5:
                assertions = ids[:1]
            else:
                assertions = tuple(rng.sample(ids, rng.randint(0, len(ids))))
            expected = _outcome(oracle_understand, doc, corpus, assertions)
            assert _outcome(understand, doc, corpus, assertions) == expected, seed
            kinds.add(expected[:2] if expected[0] == "failure" else expected[0])
        # Understood documents and failures at every depth were compared.
        assert kinds >= {"report", ("failure", 0), ("failure", 1),
                         ("failure", 2), ("failure", 3)}

    def test_first_schema_is_searched_once_per_segment_end(self, searches):
        schema_text, corpus_text = linked_chain_texts(
            random.Random(1), 4, 2, dead_end=True)
        doc, corpus = parse_schema_file(schema_text), parse_corpus(corpus_text)
        with pytest.raises(SegmentationFailure) as err:
            understand(doc, corpus, ("e1",))
        assert (err.value.matched, err.value.total) == (3, 4)
        n, m = len(corpus), len(doc.schemas)
        assert searches.per_schema["s0"] <= n - m + 1

    def test_flexible_chain_agrees_with_full_cut_enumeration(self):
        """Schemas that may claim one event or two, with and without the
        stray event that leaves no cut working."""
        kinds = set()
        for m in range(1, 7):
            schema_text, corpus_text = flexible_chain_texts(m)
            doc = parse_schema_file(schema_text)
            full = parse_corpus(corpus_text)
            for corpus in (full, CorpusDocument(full.events[:-1])):
                ids = corpus.event_ids()
                for assertions in (ids[:1], (), ids[:2], ids[-2:]):
                    expected = _outcome(oracle_understand, doc, corpus, assertions)
                    assert _outcome(understand, doc, corpus, assertions) == expected, \
                        (m, len(corpus), assertions)
                    kinds.add(expected[0])
        assert kinds == {"report", "failure"}

    def test_blocked_chain_agrees_with_full_cut_enumeration(self):
        """A last schema whose pre$ kid is never true at match time, under
        the first event, no event, the last event and every event asserted."""
        kinds = set()
        for m in range(1, 8):
            schema_text, corpus_text = blocked_chain_texts(m)
            doc, corpus = parse_schema_file(schema_text), parse_corpus(corpus_text)
            ids = corpus.event_ids()
            for assertions in (ids[:1], (), ids[-1:], ids):
                expected = _outcome(oracle_understand, doc, corpus, assertions)
                assert _outcome(understand, doc, corpus, assertions) == expected, \
                    (m, assertions)
                kinds.add(expected[0])
        assert kinds == {"report", "failure"}

    def test_failed_suffixes_are_not_searched_again(self, searches):
        """The blocked chain's last schema never matches, yet no event is
        foreign to it and the corpus fits in the schemas' nodes, so only
        remembering failed cut suffixes bounds the search: each
        (schema, start, link view) fails at most once.  At m = 14 the
        blocked chain makes 277 searches; forgetting failed suffixes, it
        made 17,914."""
        m = 20
        schema_text, corpus_text = blocked_chain_texts(m)
        doc, corpus = parse_schema_file(schema_text), parse_corpus(corpus_text)
        n = len(corpus)
        searches.limit = 2 * m * n
        with pytest.raises(SegmentationFailure) as err:
            understand(doc, corpus, ("e1",))
        assert (err.value.matched, err.value.total) == (m - 1, m)
        assert err.value.diagnostics == (
            "schema s19 found no admissible match over events %s"
            % ", ".join("e%d" % j for j in range(m, n + 1)),)

    @pytest.mark.parametrize("over_capacity", [False, True], ids=["stray", "over-capacity"])
    def test_a_hopeless_search_stops_at_the_last_schema(self, searches, over_capacity):
        """No cut can work when the last event is foreign to the last schema
        (the flexible chain's stray) or when the corpus has more events than
        all the schemas have nodes (the stray replaced by m / 2 + 1 more `a`
        events).  A failing attempt reaches at most the last schema, so the
        first one that does decides the outcome.  Without this stop, these
        runs made 59,790 searches and more."""
        m = 200
        schema_text, corpus_text = flexible_chain_texts(m)
        if over_capacity:
            corpus_text = "".join("event e%d { action: a }\n" % j
                                  for j in range(1, 2 * m + 2))
        doc, corpus = parse_schema_file(schema_text), parse_corpus(corpus_text)
        n = len(corpus)
        searches.limit = 2 * m
        with pytest.raises(SegmentationFailure) as err:
            understand(doc, corpus, ("e1",))
        assert (err.value.matched, err.value.total) == (m - 1, m)
        assert err.value.diagnostics == (
            "schema s%d found no admissible match over events %s"
            % (m - 1, ", ".join("e%d" % j for j in range(m, n + 1))),)
        assert searches.total == m - 1

    def test_the_last_schema_reached_without_a_sequel_link_is_searched_on(self, searches):
        """The first cut gives s0 only e1, so s1 matches e2 e3, but the link
        leaves from s0's root q, which that cut left unmatched: "no declared
        sequel link" at the last schema.  A match of the last schema holds
        the last event and fits in its nodes, so neither test of a hopeless
        search can hold there, and the search goes on to the cut that
        works."""
        doc = parse_schema_file(
            "memory_schema s0 { roots: [r, q]\n"
            "  node r = schema { actor: ?P action: wake }\n"
            "  node q = schema { actor: kim action: wash }\n}\n"
            "memory_schema s1 { roots: [g]\n"
            "  node g = schema { actor: ?P action: go }\n"
            "  node w = schema { actor: kim action: wash }\n"
            "  g -part-> w\n}\n"
            "link s0.q -sequel-> s1.g\n")
        corpus = parse_corpus(kim_events("wake", "wash", "go"))
        assertions = ("e1", "e2", "e3")
        expected = _outcome(oracle_understand, doc, corpus, assertions)
        assert _outcome(understand, doc, corpus, assertions) == expected
        report = understand(doc, corpus, assertions)
        assert report.understandable
        assert [seg.event_ids for seg in report.segments] == [("e1", "e2"), ("e3",)]
        # Once in each run above: after the unlinked first cut, then for e3.
        assert searches.per_schema["s1"] == 4

    def test_foreign_events_stop_the_cut_search(self, searches):
        """An event no node of a schema matches fails every segment of that
        schema that holds it; once a failed search has found it, no later
        segment end over it is searched.  Without this, the cut search made
        14,884 searches here."""
        schema_text, corpus_text = linked_chain_texts(
            random.Random(1), 30, 3, kids=2, dead_end=True)
        doc, corpus = parse_schema_file(schema_text), parse_corpus(corpus_text)
        n = len(corpus)
        with pytest.raises(SegmentationFailure) as err:
            understand(doc, corpus, ("e1",))
        assert (err.value.matched, err.value.total) == (29, 30)
        assert err.value.diagnostics == (
            "schema s29 found no admissible match over events %s"
            % ", ".join("e%d" % j for j in range(171, n + 1)),)
        assert searches.total <= 4 * n

    @pytest.mark.parametrize("m, kids, dead_end, total, matched", [
        (3, 1, False, 6, None),
        (3, 1, True, 4, 2),
        (30, 2, False, 87, None),
        (30, 2, True, 85, 29),
    ], ids=["m3", "m3-dead-end", "m30", "m30-dead-end"])
    def test_ends_the_next_schema_cannot_follow_are_not_searched(
            self, searches, m, kids, dead_end, total, matched):
        """Once an attempt has reached schema i+1, a segment end of schema i
        whose next event is foreign to schema i+1 is not searched.  Without
        that lookahead, these runs made 17, 19, 326 and 355 searches; with
        it, but still searching segments longer than their schema has
        nodes, 7, 9, 88 and 117; and the dead ends made 5 and 86 before a
        hopeless search stopped at the last schema."""
        schema_text, corpus_text = linked_chain_texts(
            random.Random(1), m, 3, kids=kids, dead_end=dead_end)
        doc, corpus = parse_schema_file(schema_text), parse_corpus(corpus_text)
        if matched is None:
            assert len(understand(doc, corpus, ("e1",)).segments) == m
        else:
            with pytest.raises(SegmentationFailure) as err:
                understand(doc, corpus, ("e1",))
            assert err.value.matched == matched
        assert searches.total == total

    def test_segments_longer_than_their_schema_are_not_searched(self, monkeypatch):
        """Every event of a match takes a node of its own, so a segment with
        more events than its schema has nodes is never walked.  Without
        this rule, these runs searched 217 such segments."""
        search = understory.schema._search
        too_long = []

        def checked(mp, events, *args):
            if len(events) > len(mp.nodes):
                too_long.append((mp.name, len(events), len(mp.nodes)))
            return search(mp, events, *args)

        monkeypatch.setattr(understory.schema, "_search", checked)
        outcomes = set()
        for seed in range(12):
            for m, roots, dead_end in ((2, 1, True), (3, 2, True), (4, 2, False),
                                       (4, 2, True), (5, 3, True)):
                schema_text, corpus_text = linked_chain_texts(
                    random.Random(seed), m, roots, dead_end=dead_end)
                doc, corpus = parse_schema_file(schema_text), parse_corpus(corpus_text)
                outcomes.add(_outcome(understand, doc, corpus, ("e1",))[0])
        assert outcomes == {"report", "failure"}
        assert too_long == []

    def test_too_long_last_segment_is_reported_like_a_failed_search(self, searches):
        """The last schema's only segment end is the corpus end.  When that
        segment is too long and is the deepest schema reached, it must still
        set the best attempt: s1 takes two nodes but gets three events."""
        doc = parse_schema_file(WAKE_THEN_GO)
        corpus = parse_corpus(kim_events("wake", "go", "arrive", "arrive"))
        with pytest.raises(SegmentationFailure) as expected:
            oracle_understand(doc, corpus, ("e1",))
        with pytest.raises(SegmentationFailure) as err:
            understand(doc, corpus, ("e1",))
        assert str(err.value) == str(expected.value) \
            == "segmentation failed: best attempt matched 1 of 2 schemas"
        assert err.value.matched == expected.value.matched == 1
        assert err.value.diagnostics == expected.value.diagnostics == (
            "schema s1 found no admissible match over events e2, e3, e4",)
        assert dict(searches.per_schema) == {"s0": 1}

    def test_schema_with_no_nodes_fails_like_the_oracle(self):
        """A hand-built schema with no nodes matches no segment; the run
        fails at it with its diagnostic, as full cut enumeration does."""
        doc = SchemaDocument((mk("z", [], {}),
                              mk("s", ["a"], {"a": node("a", action=Word("wake"))})))
        corpus = CorpusDocument(tuple(event("e%d" % j, actor=Word("kim"),
                                            action=Word("wake")) for j in (1, 2, 3)))
        expected = _outcome(oracle_understand, doc, corpus, ("e1",))
        assert _outcome(understand, doc, corpus, ("e1",)) == expected
        assert expected[:4] == ("failure", 0, 2, (
            "schema z found no admissible match over events e1",))

    def test_stray_event_anywhere_agrees_with_full_cut_enumeration(self):
        """A stray event nothing matches, put anywhere in a chain, also in
        the middle of the last schema's segment."""
        stray = parse_corpus("event x { actor: kim action: stray }\n").events[0]
        for seed in range(60):
            rng = random.Random(seed)
            m = rng.randint(1, 3)
            schema_text, corpus_text = linked_chain_texts(
                rng, m, rng.randint(1, 3), kids=2, mixed=rng.random() < 0.5)
            doc = parse_schema_file(schema_text)
            events = list(parse_corpus(corpus_text).events)
            events.insert(rng.randint(0, len(events)), stray)
            corpus = CorpusDocument(tuple(events))
            for assertions in (corpus.event_ids()[:1], ("x",)):
                expected = _outcome(oracle_understand, doc, corpus, assertions)
                assert _outcome(understand, doc, corpus, assertions) == expected, seed

    def test_memory_does_not_grow_with_the_square_of_the_schemas(self):
        """One working memory serves every level of the search.  With a
        copy of the memory per level, the peak at 2,000 one-event schemas
        was 3.9 times the peak at 1,000."""
        peaks = []
        for m in (1000, 2000):
            schema_text, corpus_text = linked_chain_texts(random.Random(0), m, 1, kids=0)
            doc, corpus = parse_schema_file(schema_text), parse_corpus(corpus_text)
            tracemalloc.start()
            try:
                report = understand(doc, corpus, ("e1",))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.understandable and len(report.segments) == m
            assert report.state.trail is None
        assert peaks[1] < 3 * peaks[0], peaks

    def test_failure_carries_the_base_memory(self):
        """After a dead end that backtracked through many placements, the
        failure's memory is the corpus with only the asserted event true."""
        schema_text, corpus_text = flexible_chain_texts(8)
        doc, corpus = parse_schema_file(schema_text), parse_corpus(corpus_text)
        with pytest.raises(SegmentationFailure) as err:
            understand(doc, corpus, ("e1",))
        base = MemoryState.for_corpus(corpus)
        base.assert_true("e1")
        assert err.value.state == base
        assert err.value.state.trail is None


class TestUnificationTable:
    def test_each_root_event_pair_is_unified_once(self, calls):
        calls.watch(understory.schema, "match_event")
        for seed in range(40):
            rng = random.Random(seed)
            m = rng.randint(2, 4)
            schema_text, corpus_text = linked_chain_texts(
                rng, m, rng.randint(1, 3), kids=2, dead_end=True,
                mixed=rng.random() < 0.5)
            doc, corpus = parse_schema_file(schema_text), parse_corpus(corpus_text)
            calls.counts["match_event"] = 0
            with pytest.raises(SegmentationFailure):
                understand(doc, corpus, ("e1",))
            roots = sum(len(mp.roots) for mp in doc.schemas)
            assert calls["match_event"] <= roots * len(corpus), seed

    def test_table_is_filled_lazily(self, calls):
        """One root per event: filling every root/event pair up front
        would take a million unifications."""
        k = n = 1000
        schema_text = "memory_schema big { roots: [%s]\n%s}\n" % (
            ", ".join("r%d" % i for i in range(k)),
            "".join("node r%d = schema { actor: ?P action: w%d }\n" % (i, i)
                    for i in range(k)))
        corpus_text = "".join("event e%d { actor: kim action: w%d }\n" % (i, i)
                              for i in range(n))
        doc, corpus = parse_schema_file(schema_text), parse_corpus(corpus_text)
        calls.watch(understory.schema, "match_event")
        report = understand(doc, corpus, ("e0",))
        assert report.results[0].chain_length == k
        assert calls["match_event"] <= 2 * (k + n)


def _star_dead_end():
    # Thirteen events for thirteen nodes; the last step has another actor.
    schema_text, corpus_text = star_texts(12)
    mp = schema_named(parse_schema_file(schema_text), "star")
    corpus = parse_corpus(corpus_text.replace("event e12 { actor: kim",
                                              "event e12 { actor: lee"))
    assert match_sequence(mp, corpus, seeded(corpus, "e0")) is None


def _twin_seeds():
    for seed in range(20):
        match_sequence(*twin_instance(random.Random(seed)))


# Four linked schemas whose nodes say only an action; each root has the
# part kids listed after it.
FOREIGN_STOP = "".join(
    "memory_schema s%d { roots: [r]\n  node r = schema { action: %s }\n%s}\n"
    % (i, root, "".join("  node k%d = schema { action: %s }\n  r -part-> k%d\n"
                        % (j, kid, j) for j, kid in enumerate(kids, 1)))
    for i, (root, kids) in enumerate([("a", ""), ("b", "aa"), ("a", "ab"), ("b", "ba")])
) + "".join("link s%d.r -sequel-> s%d.r\n" % (i, i + 1) for i in range(3))


def _failing_understand(schema_text, corpus_text):
    def run():
        doc, corpus = parse_schema_file(schema_text), parse_corpus(corpus_text)
        with pytest.raises(SegmentationFailure):
            understand(doc, corpus, ("e1",))
    return run


class TestSearchCounts:
    """The matcher's work on fixed instances, call by call: root/event
    unifications, root merges, covering steps and memory queries.  A
    matcher that tries other candidates, or the same ones in another
    order, changes at least one of these numbers."""

    CASES = {
        "star-dead-end": (_star_dead_end, dict(
            match_event=13, merge=0, _match_into=12, query=1)),
        "twin-seeds": (_twin_seeds, dict(
            match_event=56, merge=0, _match_into=100, query=53)),
        "linked-dead-end": (_failing_understand(*linked_chain_texts(
            random.Random(1), 4, 2, dead_end=True)), dict(
            match_event=10, merge=2, _match_into=14, query=10)),
        "flexible-chain": (_failing_understand(*flexible_chain_texts(8)), dict(
            match_event=7, merge=0, _match_into=2, query=7)),
        "blocked-chain": (_failing_understand(*blocked_chain_texts(8)), dict(
            match_event=29, merge=0, _match_into=67, query=160)),
        # s1, the last schema, fails over e2 e3; the stop then asks whether
        # e3 is foreign to s1, which that failed search has already tested.
        "stray-after-link": (_failing_understand(
            WAKE_THEN_GO, kim_events("wake", "go", "stray")), dict(
            match_event=3, merge=0, _match_into=4, query=1)),
        # s3, the last schema, fails over e5 e6 e7, where e6 is foreign to it.
        # When s2 ends at e4 a second time, s3's only segment is e5 e6 e7
        # again; it is skipped unsearched, though the foreign e6 is not its end.
        "last-schema-foreign-stop": (_failing_understand(
            FOREIGN_STOP, kim_events(*"abaabcb")), dict(
            match_event=9, merge=0, _match_into=24, query=15)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_counts_are_pinned(self, calls, case):
        run, expected = self.CASES[case]
        # Every case makes a few hundred calls; a matcher that lost a pruning
        # rule fails here in a moment instead of running for minutes.
        calls.limit = 10_000
        calls.watch(understory.schema, "match_event", "merge", "_match_into")
        calls.watch(MemoryState, "query")
        run()
        assert calls.counts == expected


class TestBuildInstance:
    def test_merges_anchor_and_block_mappings(self, morning_doc, day_corpus):
        mp = schema_named(morning_doc, "morning")
        result = match_sequence(mp, day_corpus, seeded(day_corpus, "e1"))
        instance = build_instance(mp, result)
        assert instance.schema_name == "morning"
        assert instance.event_of("s1") == "e1"
        assert instance.event_of("s4") == "e4"
        assert len(instance.edges) == 3  # two declared plus the root chain

    def test_fixpoint_after_desk_match(self, morning_doc, day_corpus):
        mp = schema_named(morning_doc, "morning")
        state = seeded(day_corpus, "e1")
        result = match_sequence(mp, day_corpus, state)
        run_fixpoint(state, build_instance(mp, result), result.supports)
        assert state.truths == {"e1", "e2", "e3", "e4"}
        assert state.confirmed == {("e1", "part", "e2"),
                                   ("e1", "sequel", "e3"),
                                   ("e3", "cons", "e4")}
