import pytest

from understory import (
    MemoryState,
    Var,
    Word,
    build_understanding_diagram,
    export_dot,
    match_sequence,
    understand,
)
from understory.model import (
    CorpusDocument,
    PreconditionError,
    SchemaEdge,
    Substitution,
    event,
)
from understory.schema import MatchResult, MemorySchema
from understory.story import (
    Story,
    StoryLink,
    StoryNode,
    UnderstandingDiagram,
    build_story,
    render_diagram_text,
)
from understory.textio import render, render_expression_inline


def matched_morning(morning_doc, day_corpus):
    mp = morning_doc.by_name("morning")
    state = MemoryState.for_corpus(day_corpus)
    state.assert_true("e1")
    return mp, match_sequence(mp, day_corpus, state)


def events_by_id(corpus):
    return {ev.id: ev for ev in corpus.events}


def nodes_by_id(story):
    return {n.node_id: n for n in story.nodes}


class TestBuildStory:
    def test_matched_nodes_take_their_corpus_events(self, morning_doc, day_corpus):
        mp, result = matched_morning(morning_doc, day_corpus)
        story = build_story(mp, result, events_by_id(day_corpus))
        assert story.origin == "morning"
        assert [n.node_id for n in story.nodes] == ["s1", "s2", "s3", "s4"]
        nodes = nodes_by_id(story)
        assert nodes["s1"].event_id == "e1"
        assert nodes["s3"].expr.get("to") == Word("school")
        assert nodes["s4"].expr is day_corpus.by_id("e4")

    def test_edges_drop_the_test_flag_but_keep_the_count(self, morning_doc,
                                                         day_corpus):
        mp, result = matched_morning(morning_doc, day_corpus)
        story = build_story(mp, result, events_by_id(day_corpus))
        assert story.edges == (("s1", "part", "s2"),
                               ("s3", "cons", "s4"),
                               ("s1", "sequel", "s3"))
        assert len(story.edges) == len(mp.all_edges())

    def test_unmatched_node_is_grounded_by_the_substitution(self):
        mp = MemorySchema("m", ("a",), {
            "a": event("a", actor=Var("P"), action=Word("wake")),
            "b": event("b", actor=Var("P"), action=Word("wash")),
        }, (SchemaEdge("a", "part", "b"),), {})
        corpus = CorpusDocument((event("e1", actor=Word("kim"),
                                       action=Word("wake")),))
        state = MemoryState.for_corpus(corpus)
        state.assert_true("e1")
        result = match_sequence(mp, corpus, state)
        assert result.unmatched == frozenset({"b"})
        story = build_story(mp, result, events_by_id(corpus))
        ghost = nodes_by_id(story)["b"]
        assert ghost.event_id is None
        assert ghost.expr == event(None, actor=Word("kim"), action=Word("wash"))

    def test_unbound_unmatched_node_is_rejected(self):
        mp = MemorySchema("m", ("a",), {
            "a": event("a", actor=Var("P")),
            "b": event("b", actor=Var("P"), to=Var("D")),
        }, (SchemaEdge("a", "part", "b"),), {})
        corpus = CorpusDocument((event("e1", actor=Word("kim")),))
        forced = MatchResult(
            schema_name="m",
            chain_length=1,
            anchors=(("a", "e1", 1),),
            node_map=(),
            unmatched=frozenset({"b"}),
            substitution=Substitution.of({"P": Word("kim")}),
            supports=(),
        )
        with pytest.raises(PreconditionError) as err:
            build_story(mp, forced, events_by_id(corpus))
        assert "node 'b'" in str(err.value)

    def test_test_edge_appears_as_its_plain_label(self):
        mp = MemorySchema("m", ("a",), {
            "a": event("a", action=Word("eat")),
            "k": event("k", action=Word("hungry")),
        }, (SchemaEdge("a", "pre", "k", test=True),), {})
        corpus = CorpusDocument((event("e1", action=Word("eat")),
                                 event("e2", action=Word("hungry"))))
        state = MemoryState.for_corpus(corpus)
        state.assert_true("e1")
        state.assert_true("e2")
        result = match_sequence(mp, corpus, state)
        story = build_story(mp, result, events_by_id(corpus))
        assert story.edges == (("a", "pre", "k"),)


class TestDiagram:
    def build(self, pair_doc, day_corpus):
        report = understand(pair_doc, day_corpus, ("e1",))
        return build_understanding_diagram(pair_doc, day_corpus, report)

    def test_stories_follow_document_order(self, pair_doc, day_corpus):
        diagram = self.build(pair_doc, day_corpus)
        assert [s.origin for s in diagram.stories] == ["waking", "going"]
        assert diagram.links == (StoryLink(0, "w1", 1, "g1"),)

    def test_dot_output_is_deterministic(self, pair_doc, day_corpus):
        first = export_dot(self.build(pair_doc, day_corpus))
        second = export_dot(self.build(pair_doc, day_corpus))
        assert first == second
        assert first.startswith("digraph U {\n")
        assert first.endswith("}\n")
        assert '"0.w1" -> "1.g1" [label="sequel"];' in first
        assert '"0.w1" [label="w1 = e1 {actor: kim action: wake}"];' in first

    def test_dot_escapes_quotes_and_backslashes(self):
        expr = event("e1", actor=Word('say "hi"\\now'))
        story = Story("m", (StoryNode("a", "e1", expr),), ())
        text = export_dot(UnderstandingDiagram((story,), ()))
        # The label holds the quoted word form, escaped once more for DOT.
        label = "a = e1 %s" % render_expression_inline(expr)
        escaped = label.replace("\\", "\\\\").replace('"', '\\"')
        assert '    "0.a" [label="%s"];' % escaped in text

    def test_text_rendering_dispatch(self, pair_doc, day_corpus):
        diagram = self.build(pair_doc, day_corpus)
        text = render(diagram)
        assert text == render_diagram_text(diagram)
        assert text.splitlines()[0] == "diagram {"
        assert "  story 0 waking {" in text
        assert "  0.w1 -sequel-> 1.g1" in text

    def test_empty_diagram_renders(self):
        diagram = UnderstandingDiagram((), ())
        assert export_dot(diagram) == ("digraph U {\n  rankdir=LR;\n"
                                       "  node [shape=box];\n}\n")
