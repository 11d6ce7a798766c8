import importlib.util
import json
import pathlib
import random
import sys

import pytest

from understory import (
    MemoryState,
    SegmentationFailure,
    Var,
    Word,
    build_understanding_diagram,
    export_dot,
    parse_corpus,
    parse_schema_file,
    understand,
)
from understory.cli import _failure_report
from understory.memory import GoalSupport
from understory.model import EventExpression
from understory.report import diagram_json, dumps, report_json
from understory.schema import MatchResult, Segment, UnderstandingReport
from understory.story import Story, StoryLink, StoryNode, UnderstandingDiagram

from documents import event, event_by_id, substitution_of
from generators import linked_chain_texts
from oracles import (
    diagram_view,
    event_json,
    goal_support_json,
    memory_json,
    oracle_json,
    report_view,
    substitution_json,
    value_json,
)

BENCH_GEN = pathlib.Path(__file__).parent.parent / "bench" / "gen.py"


class TestValueShapes:
    def test_word(self):
        assert value_json(Word("kim")) == {"kind": "word", "text": "kim"}

    def test_var(self):
        assert value_json(Var("P")) == {"kind": "var", "name": "P"}

    def test_nested_event(self):
        nested = event(None, actor=Word("lee"))
        assert value_json(nested) == {
            "kind": "event",
            "id": None,
            "slots": [{"case": "actor",
                       "value": {"kind": "word", "text": "lee"}}],
        }

    def test_event_keeps_slot_order(self):
        expr = event("e1", to=Word("school"), actor=Word("kim"))
        cases = [slot["case"] for slot in event_json(expr)["slots"]]
        assert cases == ["to", "actor"]

    def test_substitution_is_canonically_ordered(self):
        subst = substitution_of({"Q": Word("x"), "P": Word("y")})
        assert [entry["var"] for entry in substitution_json(subst)] == ["P", "Q"]

    def test_goal_support(self):
        sup = GoalSupport("a", "g", ("a", "b"), "k")
        assert goal_support_json(sup) == {
            "kind": "goal_support", "source": "a", "target": "g",
            "chain": ["a", "b"], "final_state": "k",
        }


class TestMemoryShape:
    def test_sorted_fields(self, day_corpus):
        state = MemoryState.for_corpus(day_corpus)
        state.assert_true("e3")
        state.assert_true("e1")
        state.confirm(("e3", "cons", "e4"))
        state.confirm(("e1", "part", "e2"))
        assert memory_json(state) == {
            "kind": "memory_state",
            "truths": ["e1", "e3"],
            "confirmed_edges": [
                {"source": "e1", "label": "part", "target": "e2"},
                {"source": "e3", "label": "cons", "target": "e4"},
            ],
        }


class TestReportShape:
    def test_understanding_report(self, pair_doc, day_corpus):
        report = understand(pair_doc, day_corpus, ("e1",))
        data = json.loads(report_json(report))
        assert data["kind"] == "understanding_report"
        assert data["verdict"] == "understandable"
        assert data["chain_length"] == 2
        assert data["anchor_chain"] == ["e1", "e3"]
        assert [seg["schema"] for seg in data["segments"]] == ["waking", "going"]
        assert data["matches"][0]["anchors"] == [
            {"root": "w1", "event": "e1", "position": 1}]
        assert data["memory"]["truths"] == ["e1", "e2", "e3", "e4"]
        assert data["diagnostics"] == []

    def test_dumps_format(self):
        text = dumps({"a": "café"})
        assert text.endswith("\n")
        assert "café" in text  # ensure_ascii off
        assert json.loads(text) == {"a": "café"}


# One schema over three events, written to reach every branch of the
# writers: quoted words with escapes and non-ASCII text, nested events two
# and three levels deep in the corpus and in the substitution, one of them
# with no slots, unmatched nodes grounded through the substitution, and a
# goal support.  The diagram has no links.
RICH_SCHEMAS = r'''
memory_schema trip {
  roots: [a, b]
  node a = schema {
    actor: ?P
    action: go
    obj: ?X
  }
  node k = schema {
    actor: ?P
    action: "say \"hi\" \\ back\nnow"
    obj: ?X
  }
  node b = schema {
    actor: ?P
    action: "arrive café"
    mod: event { det: event { number: ?N } }
  }
  node f = schema {
    actor: ?P
    action: rest
  }
  node g = schema {
    actor: ?P
    action: "漢字"
    mod: ?N
  }
  a -part-> k
  b -part-> f
  fs b = f
  a -goal$-> g
}
'''

RICH_EVENTS = r'''
event e1 {
  actor: kim
  action: go
  obj: event { actor: lee obj: event { action: "café \"x\"\\y\nz" to: event { } } }
}
event e2 {
  actor: kim
  action: "arrive café"
  mod: event { det: event { number: seven } }
}
event e3 {
  actor: kim
  action: rest
}
'''

# Two one-node schemas linked root to root: stories with no edges, one
# link, no unmatched nodes.
EDGELESS_SCHEMAS = '''
memory_schema s0 {
  roots: [r]
  node r = schema { actor: ?P action: wake }
}
memory_schema s1 {
  roots: [r]
  node r = schema { actor: ?P action: go }
}
link s0.r -sequel-> s1.r
'''

EDGELESS_EVENTS = '''
event e1 { actor: kim action: wake }
event e2 { actor: kim action: go }
'''

STRAY_EVENT = '\nevent e9 { actor: kim action: "lost \\"one\\"" }\n'


def _nesting(expr: EventExpression) -> int:
    """How many `event {...}` values deep the expression goes."""
    return max([1 + _nesting(value) for _, value in expr.slots
                if isinstance(value, EventExpression)], default=0)


def _outcome(doc, corpus, asserts=("e1",)):
    """understand()'s report, or the report cli gives for its failure."""
    try:
        return understand(doc, corpus, asserts)
    except SegmentationFailure as failure:
        return _failure_report(failure)


def _check_writers(doc, corpus, report) -> None:
    """Each writer equals json.dumps of its oracle view."""
    assert report_json(report) == oracle_json(report_view(report))
    if report.understandable:
        diagram = build_understanding_diagram(doc, corpus, report)
        dot = export_dot(diagram)
        assert diagram_json(diagram, dot) == oracle_json(diagram_view(diagram, dot))


@pytest.fixture
def bench_gen(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while they are made.
    monkeypatch.setitem(sys.modules, "bench_gen", gen)
    spec.loader.exec_module(gen)
    return gen


# Each value with the text report.dumps must give for it, written out by
# hand: two-space indent, control characters escaped, and every other
# character (U+007F, U+2028, non-ASCII, a BOM) left as it is.
HAND_BUILT = [
    ({}, "{}\n"),
    ([], "[]\n"),
    ([[]], "[\n  []\n]\n"),
    ([{}], "[\n  {}\n]\n"),
    ({"a": {}}, '{\n  "a": {}\n}\n'),
    ({"a": []}, '{\n  "a": []\n}\n'),
    ({"a": [[], {}, [[{}]]]}, """\
{
  "a": [
    [],
    {},
    [
      [
        {}
      ]
    ]
  ]
}
"""),
    (None, "null\n"),
    (True, "true\n"),
    (False, "false\n"),
    (0, "0\n"),
    (-7, "-7\n"),
    (10 ** 40, "1" + "0" * 40 + "\n"),
    (-(10 ** 40), "-1" + "0" * 40 + "\n"),
    ("", '""\n'),
    ('say "hi"', '"say \\"hi\\""\n'),
    ("back\\slash", '"back\\\\slash"\n'),
    ("\x00\x01\x1f\x7f\t\n\r\b\f",
     '"\\u0000\\u0001\\u001f\x7f\\t\\n\\r\\b\\f"\n'),
    ("line\u2028sep\u2029", '"line\u2028sep\u2029"\n'),
    ("café 漢字 \U0001f600 \ufeff", '"café 漢字 \U0001f600 \ufeff"\n'),
    ({"kéy": [None, True, False, 1, "x"], "": {"\n": -1}}, """\
{
  "kéy": [
    null,
    true,
    false,
    1,
    "x"
  ],
  "": {
    "\\n": -1
  }
}
"""),
    ([1, [2, [3, {"d": [4]}]]], """\
[
  1,
  [
    2,
    [
      3,
      {
        "d": [
          4
        ]
      }
    ]
  ]
]
"""),
]


class TestWriter:
    """report_json and diagram_json against json.dumps of the oracle views;
    report.dumps against text written out by hand, and it refuses what JSON
    cannot hold."""

    def test_generated_reports_and_diagrams(self):
        rng = random.Random(5)
        kinds = set()
        for _ in range(60):
            schema_text, corpus_text = linked_chain_texts(
                rng, rng.randint(1, 4), rng.randint(1, 3), rng.randint(0, 2),
                dead_end=rng.random() < 0.3, mixed=rng.random() < 0.5)
            doc, corpus = parse_schema_file(schema_text), parse_corpus(corpus_text)
            try:
                report = understand(doc, corpus, ("e1",))
                kinds.add(report.verdict)
            except SegmentationFailure as failure:
                report = _failure_report(failure)
                kinds.add("segmentation failed")
            _check_writers(doc, corpus, report)
        assert kinds == {"understandable", "not-understandable",
                         "segmentation failed"}

    def test_nested_quoted_and_grounded_values(self):
        doc, corpus = parse_schema_file(RICH_SCHEMAS), parse_corpus(RICH_EVENTS)
        report = understand(doc, corpus, ("e1",))
        assert report.understandable
        (result,) = report.results
        assert result.unmatched == {"g", "k"}
        assert result.supports
        assert _nesting(event_by_id(corpus, "e1")) == 3
        bound = result.substitution.get("X")
        assert isinstance(bound, EventExpression) and _nesting(bound) == 2
        diagram = build_understanding_diagram(doc, corpus, report)
        assert diagram.links == ()
        text = diagram_json(diagram, export_dot(diagram))
        for piece in ('"id": null', '"slots": []', '\\"hi\\" \\\\ back\\nnow',
                      "漢字", "café"):
            assert piece in text
        _check_writers(doc, corpus, report)

    def test_a_dead_end_failure_report(self):
        doc = parse_schema_file(RICH_SCHEMAS)
        corpus = parse_corpus(RICH_EVENTS + STRAY_EVENT)
        report = _outcome(doc, corpus)
        assert report.results == () and len(report.diagnostics) > 1
        _check_writers(doc, corpus, report)

    def test_stories_with_no_edges(self):
        doc = parse_schema_file(EDGELESS_SCHEMAS)
        corpus = parse_corpus(EDGELESS_EVENTS)
        report = understand(doc, corpus, ("e1",))
        diagram = build_understanding_diagram(doc, corpus, report)
        assert [s.edges for s in diagram.stories] == [(), ()]
        assert len(diagram.links) == 1
        assert all(not r.unmatched for r in report.results)
        _check_writers(doc, corpus, report)

    def test_hand_built_reports_and_diagrams(self):
        empty = EventExpression(None, ())
        deep = event(None, obj=event(None, mod=empty), actor=Var("Q"))
        story = Story("s \"q\"", (
            StoryNode("n0", None, empty),
            StoryNode("n1", "e1", event("e1", actor=Word("ä\\b"), obj=deep)),
        ), ())
        diagram = UnderstandingDiagram((story, Story("t", (), ())),
                                       (StoryLink(0, "n1", 1, "n0"),))
        assert diagram_json(diagram, "") == oracle_json(diagram_view(diagram, ""))
        empty_diagram = UnderstandingDiagram((), ())
        assert (diagram_json(empty_diagram, "x\ny")
                == oracle_json(diagram_view(empty_diagram, "x\ny")))

        state = MemoryState(frozenset({"e1"}))
        result = MatchResult("m", 0, (), (), frozenset(),
                             substitution_of({"A": deep.slots[0][1], "B": Word("\n")}),
                             (GoalSupport("a", "g", (), "f"),))
        for report in (
                UnderstandingReport("not-understandable", 0, (), (), (), state, ()),
                UnderstandingReport("understandable", 3, ("e1",),
                                    (Segment("m", 1, 1, ("e1",)),), (result,),
                                    state, ("why \u2028 not",))):
            assert report_json(report) == oracle_json(report_view(report))

    @pytest.mark.parametrize("workload", ["linked-chain", "many-links", "deep-trees"])
    def test_bench_workload_shapes(self, bench_gen, workload):
        for generated in bench_gen.round_docs(workload, 1, 0):
            doc = parse_schema_file(generated.schemas_text)
            corpus = parse_corpus(generated.events_text)
            _check_writers(doc, corpus,
                           _outcome(doc, corpus, (generated.first_event,)))

    @pytest.mark.parametrize("obj", [obj for obj, _ in HAND_BUILT])
    def test_hand_built_values(self, obj):
        (text,) = [text for value, text in HAND_BUILT if value is obj]
        assert dumps(obj) == text

    @pytest.mark.parametrize("obj", [{"a": {"b"}}, b"x"])
    def test_other_types_are_refused(self, obj):
        with pytest.raises(TypeError):
            dumps(obj)
