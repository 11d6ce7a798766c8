import json
import random

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
from understory.model import Nested, Substitution, event
from understory.report import (
    diagram_json,
    dumps,
    event_json,
    memory_json,
    report_json,
    substitution_json,
    value_json,
    goal_support_json,
)

from generators import linked_chain_texts


class TestValueShapes:
    def test_word(self):
        assert value_json(Word("kim")) == {"kind": "word", "text": "kim"}

    def test_var(self):
        assert value_json(Var("P")) == {"kind": "var", "name": "P"}

    def test_nested_event(self):
        nested = Nested(event(None, actor=Word("lee")))
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
        subst = Substitution.of({"Q": Word("x"), "P": Word("y")})
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
        data = report_json(report)
        assert data["kind"] == "understanding_report"
        assert data["verdict"] == "understandable"
        assert data["chain_length"] == 2
        assert data["anchor_chain"] == ["e1", "e3"]
        assert [seg["schema"] for seg in data["segments"]] == ["waking", "going"]
        assert data["matches"][0]["anchors"] == [
            {"root": "w1", "event": "e1", "position": 1}]
        assert data["memory"]["truths"] == ["e1", "e2", "e3", "e4"]
        assert data["diagnostics"] == []
        json.dumps(data)  # everything must be plain JSON types

    def test_dumps_format(self):
        text = dumps({"a": "café"})
        assert text.endswith("\n")
        assert "café" in text  # ensure_ascii off
        assert json.loads(text) == {"a": "café"}


def _json_dumps(obj) -> str:
    """The oracle: the standard library's encoder in the layout dumps keeps."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


class TestWriter:
    """report.dumps against json.dumps(indent=2, ensure_ascii=False)."""

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
            objs = [report_json(report)]
            if report.understandable:
                diagram = build_understanding_diagram(doc, corpus, report)
                objs.append(diagram_json(diagram, dot=export_dot(diagram)))
            for obj in objs:
                assert dumps(obj) == _json_dumps(obj)
        assert kinds == {"understandable", "not-understandable",
                         "segmentation failed"}

    @pytest.mark.parametrize("obj", [
        {}, [], [[]], [{}], {"a": {}}, {"a": []}, {"a": [[], {}, [[{}]]]},
        None, True, False, 0, -7, 10 ** 40, -(10 ** 40),
        "", 'say "hi"', "back\\slash", "\x00\x01\x1f\x7f\t\n\r\b\f",
        "line\u2028sep\u2029", "café 漢字 \U0001f600 \ufeff",
        {"k\u00e9y": [None, True, False, 1, "x"], "": {"\n": -1}},
        [1, [2, [3, {"d": [4]}]]],
    ])
    def test_hand_built_values(self, obj):
        assert dumps(obj) == _json_dumps(obj)

    @pytest.mark.parametrize("obj", [1.5, (1, 2), {1: "a"}, {"a": {"b"}}, b"x"])
    def test_other_types_are_refused(self, obj):
        with pytest.raises(TypeError):
            dumps(obj)
