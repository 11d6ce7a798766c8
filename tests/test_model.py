import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from understory import (
    RELATION_LABELS,
    EventExpression,
    MemoryState,
    Var,
    Word,
    build_instance,
    build_understanding_diagram,
    match_event,
    parse_corpus,
    parse_schema_file,
    understand,
    variables_of,
)
from understory.matching import merge
from understory.memory import EventEdge, GoalSupport, SchemaInstance
from understory.model import (
    CASE_RELATIONS,
    EMPTY_SUBSTITUTION,
    CorpusDocument,
    SchemaEdge,
    Substitution,
    apply_substitution,
    is_ground,
)
from understory.schema import CrossLink, SchemaDocument

from conftest import FIXTURES
from documents import event, strict, substitution_of
from strategies import expressions


class TestLabelSets:
    def test_case_labels(self):
        assert CASE_RELATIONS == frozenset({
            "actor", "action", "verb2", "isa", "time", "loc", "way",
            "obj", "source", "to", "det", "mod", "number", "no",
        })

    def test_relation_labels(self):
        assert RELATION_LABELS == frozenset({
            "inherit", "accompany", "part", "pre", "goal", "cause",
            "cons", "sequel",
        })


class TestValues:
    def test_word_rejects_empty(self):
        with pytest.raises(ValueError):
            Word("")

    def test_word_keeps_text_opaque(self):
        assert Word("café 42!").text == "café 42!"

    def test_var_requires_identifier(self):
        Var("P")
        Var("long_name2")
        for bad in ("", "1x", "a-b", "a b", "?P"):
            with pytest.raises(ValueError):
                Var(bad)

    def test_nfc_comparison_is_exact(self):
        # Composed and decomposed accents are different words at this level;
        # the parser normalizes text before building them.
        assert Word("café") != Word("café")


class TestEventExpression:
    def test_rejects_unknown_case(self):
        with pytest.raises(ValueError):
            EventExpression(None, (("subject", Word("kim")),))

    def test_rejects_duplicate_case(self):
        with pytest.raises(ValueError):
            EventExpression(None, (("actor", Word("kim")), ("actor", Word("lee"))))

    def test_rejects_bad_id(self):
        with pytest.raises(ValueError):
            EventExpression("not ok", (("actor", Word("kim")),))

    def test_equality_ignores_slot_order_and_id(self):
        a = event("e1", actor=Word("kim"), action=Word("wake"))
        b = event("e2", action=Word("wake"), actor=Word("kim"))
        assert a == b
        assert hash(a) == hash(b)

    def test_equality_is_semantic_not_subset(self):
        a = event(None, actor=Word("kim"))
        b = event(None, actor=Word("kim"), action=Word("wake"))
        assert a != b

    def test_get(self):
        e = event(None, actor=Word("kim"), to=Word("school"))
        assert e.get("actor") == Word("kim")
        assert e.get("loc") is None

    def test_variables_of_sees_nested(self):
        e = event(None, actor=Var("P"),
                  obj=event(None, isa=Var("K"), det=Word("the")))
        assert variables_of(e) == frozenset({"P", "K"})
        assert not is_ground(e)
        assert is_ground(event(None, actor=Word("kim")))

    def test_is_ground_takes_any_slot_value(self):
        assert is_ground(Word("kim")) and not is_ground(Var("P"))
        assert not is_ground(event(None, det=event(None, isa=Var("K"))))


class TestSubstitution:
    def test_canonical_order(self):
        a = Substitution((("B", Word("x")), ("A", Word("y"))))
        b = Substitution((("A", Word("y")), ("B", Word("x"))))
        assert a == b
        assert a.bindings[0][0] == "A"

    def test_rejects_duplicates_and_nonground(self):
        with pytest.raises(ValueError):
            Substitution((("A", Word("x")), ("A", Word("x"))))
        with pytest.raises(ValueError):
            Substitution((("A", Var("B")),))
        with pytest.raises(ValueError):
            Substitution((("A", event(None, actor=Var("Q"))),))

    def test_bind_extends_and_detects_conflict(self):
        s = EMPTY_SUBSTITUTION.bind("P", Word("kim"))
        assert s is not None and s.get("P") == Word("kim")
        assert s.bind("P", Word("kim")) == s
        assert s.bind("P", Word("lee")) is None
        assert s.domain() == frozenset({"P"})
        assert len(s.bindings) == 1

    def test_the_empty_substitution_is_truthy(self):
        # None alone means "no substitution"; an empty one is a match.
        assert EMPTY_SUBSTITUTION
        assert merge(EMPTY_SUBSTITUTION, EMPTY_SUBSTITUTION)

    def test_bind_rejects_a_non_ground_value(self):
        s = EMPTY_SUBSTITUTION.bind("P", Word("kim"))
        with pytest.raises(ValueError):
            s.bind("X", Var("Y"))
        with pytest.raises(ValueError):
            s.bind("X", event(None, actor=Var("Q")))
        assert s.bind("X", event(None, actor=Word("lee"))) is not None

    @given(st.lists(st.tuples(st.sampled_from("ABCDEFG"),
                              st.sampled_from((Word("kim"), Word("lee")))),
                    unique_by=lambda pair: pair[0], max_size=5),
           st.sampled_from("ABCDEFG"), st.sampled_from((Word("kim"), Word("lee"))))
    @settings(max_examples=300)
    def test_bind_agrees_with_the_constructor(self, old, name, value):
        before = Substitution(tuple(old))
        after = before.bind(name, value)
        current = dict(old).get(name)
        if current is None:
            expected = Substitution(tuple(old) + ((name, value),))
            assert after == expected
            assert after.bindings == expected.bindings
        elif current == value:
            assert after is before
        else:
            assert after is None

    def test_apply_substitution(self):
        schema = event("s1", actor=Var("P"), obj=event(None, isa=Var("K")))
        subst = substitution_of({"P": Word("kim"), "K": Word("ball")})
        grounded = apply_substitution(schema, subst)
        assert grounded.id == "s1"
        assert grounded.get("actor") == Word("kim")
        assert grounded.get("obj") == event(None, isa=Word("ball"))
        assert is_ground(grounded)

    def test_apply_leaves_unbound_vars(self):
        schema = event(None, actor=Var("P"), to=Var("D"))
        out = apply_substitution(schema, substitution_of({"P": Word("kim")}))
        assert out.get("to") == Var("D")


class TestSchemaEdge:
    def test_arrow_text(self):
        assert SchemaEdge("s1", "part", "s2").arrow() == "s1 -part-> s2"
        assert SchemaEdge("s3", "pre", "s5", test=True).arrow() == "s3 -pre$-> s5"

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            SchemaEdge("a", "follows", "b")


class TestCorpusDocument:
    def test_requires_ids_unique_and_ground(self):
        ok = event("e1", actor=Word("kim"))
        with pytest.raises(ValueError):
            CorpusDocument((ok, event("e1", actor=Word("lee"))))
        with pytest.raises(ValueError):
            CorpusDocument((event(None, actor=Word("kim")),))
        with pytest.raises(ValueError):
            CorpusDocument((event("e1", actor=Var("P")),))

    def test_length_and_order(self):
        doc = CorpusDocument((event("e1", actor=Word("kim")),
                              event("e2", actor=Word("lee"))))
        assert len(doc) == 2
        assert doc.event_ids() == ("e1", "e2")


class TestSchemaDocument:
    def test_a_repeated_schema_name_is_refused(self):
        """Stories find their schema by name, so a document holds each
        name once, as a corpus holds each event id once."""
        first, = parse_schema_file(
            "memory_schema x { roots: [r] node r = schema { action: wake } "
            "node k = schema { action: eat } r -part-> k }").schemas
        second, = parse_schema_file(
            "memory_schema x { roots: [g] node g = schema { action: go } }").schemas
        with pytest.raises(ValueError, match="^duplicate schema name: 'x'$"):
            SchemaDocument((first, second), (CrossLink("x", "r", "x", "g"),))


class TestValueSemantics:
    """What callers may rely on of the package's records, whatever they
    are built with."""

    def test_no_field_of_an_immutable_record_can_be_assigned(self, pair_doc, day_corpus):
        report = understand(pair_doc, day_corpus, ("e1",))
        diagram = build_understanding_diagram(pair_doc, day_corpus, report)
        result = report.results[0]
        mp = pair_doc.schemas[0]
        records = [
            (Word("kim"), "text"), (Var("P"), "name"),
            (mp.edges[0], "label"), (day_corpus.events[0], "slots"),
            (result.substitution, "bindings"), (day_corpus, "events"),
            (GoalSupport("a", "b", ("a",), "c"), "chain"),
            (EventEdge("e1", "sequel", "e2", "a.x -sequel-> b.y"), "label"),
            (build_instance(mp, result), "edges"), (mp, "edges"),
            (pair_doc.links[0], "to_node"), (pair_doc, "schemas"),
            (result, "anchors"), (report.segments[0], "end"), (report, "verdict"),
            (diagram.stories[0].nodes[0], "expr"), (diagram.stories[0], "edges"),
            (diagram.links[0], "to_story"), (diagram, "stories"),
        ]
        for record, field in records:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))

    def test_no_field_of_an_immutable_record_can_be_deleted(self, pair_doc):
        for record, field in ((Word("kim"), "text"), (pair_doc.schemas[0].edges[0], "label"),
                              (EMPTY_SUBSTITUTION, "bindings"), (pair_doc, "links")):
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert getattr(record, field) is not None

    def test_a_slot_value_must_be_a_word_a_variable_or_an_event(self):
        for value in ("kim", None, ("kim",)):
            with pytest.raises(ValueError, match="bad slot value for 'actor'"):
                EventExpression("e1", (("actor", value),))

    def test_constructors_keep_only_what_they_checked(self, pair_doc):
        slots = [("actor", Word("kim"))]
        expr = EventExpression("e1", slots)
        slots += [("actor", Word("lee")), ("subject", Word("x"))]
        assert expr.slots == (("actor", Word("kim")),)
        events = [expr]
        corpus = CorpusDocument(events)
        events.append(event("e1", actor=Var("P")))
        assert corpus.events == (expr,) and corpus.event_ids() == ("e1",)
        schemas, links = list(pair_doc.schemas), list(pair_doc.links)
        doc = SchemaDocument(schemas, links)
        schemas.clear()
        links.clear()
        assert doc.schemas == pair_doc.schemas and doc.links == pair_doc.links
        assert type(doc.schemas) is tuple and type(doc.links) is tuple

    def test_records_compare_by_their_type_and_fields(self):
        edge = SchemaEdge("a", "pre", "b", test=True)
        assert Word("kim") != "kim" and edge != ("a", "pre", "b", True)
        subst = substitution_of({"P": Word("kim")})
        assert subst == substitution_of({"P": Word("kim")})
        assert hash(subst) == hash(substitution_of({"P": Word("kim")}))
        assert subst != substitution_of({"P": Word("lee")}) and subst != subst.bindings
        instance = SchemaInstance("m", [edge], {"a": "e1", "b": "e2"})
        assert instance == SchemaInstance("m", (edge,), {"b": "e2", "a": "e1"})
        assert instance != SchemaInstance("m", (edge,), {"a": "e1", "b": "e3"})
        assert instance != SchemaInstance("n", (edge,), {"a": "e1", "b": "e2"})
        with pytest.raises(TypeError):
            hash(instance)

    def test_a_word_and_a_variable_of_one_text_differ(self):
        assert Word("x") != Var("x")
        assert len({Word("x"), Var("x"), Word("x"), Var("x")}) == 2

    def test_edges_and_links_are_keys_by_value(self):
        edges = {SchemaEdge("a", "pre", "b", test=True): 1, SchemaEdge("a", "pre", "b"): 2}
        assert edges[SchemaEdge("a", "pre", "b", True)] == 1
        links = {CrossLink("m", "a", "n", "b"): 3}
        assert links[CrossLink("m", "a", "n", "b")] == 3
        assert CrossLink("m", "a", "n", "c") not in links

    def test_documents_compare_by_identity(self):
        text = (FIXTURES / "pair.mps").read_text(encoding="utf-8")
        first, second = parse_schema_file(text), parse_schema_file(text)
        assert first == first and first != second
        assert first.schemas[0] != second.schemas[0]
        events = (FIXTURES / "day.events").read_text(encoding="utf-8")
        corpus = parse_corpus(events)
        assert corpus == corpus and corpus != parse_corpus(events)

    def test_a_miss_is_falsy_and_a_hit_truthy(self):
        schema = event(None, actor=Var("P"), action=Word("wake"))
        assert not match_event(schema, event("e1", actor=Word("kim"), action=Word("go")))
        assert match_event(schema, event("e1", actor=Word("kim"), action=Word("wake")))

    def test_memory_state_equality_ignores_the_trail(self):
        state = MemoryState(frozenset({"e1", "e2"}), {"e1"})
        traced = state.copy()
        traced.trail = []
        traced.assert_true("e2")
        assert traced != state
        traced.undo(0)
        assert traced == state and traced.trail == [] and state.trail is None


# ---------------------------------------------------------------------------
# Properties


@given(expressions(allow_vars=True, depth=2))
@settings(max_examples=200)
def test_equality_invariant_under_slot_permutation(expr):
    reversed_slots = EventExpression(expr.id, tuple(reversed(expr.slots)))
    assert expr == reversed_slots
    assert hash(expr) == hash(reversed_slots)


@given(expressions(allow_vars=True, depth=2),
       st.sampled_from(("kim", "lee", "x")))
@settings(max_examples=200)
def test_total_substitution_grounds(expr, text):
    subst = substitution_of({name: Word(text) for name in variables_of(expr)})
    grounded = apply_substitution(expr, subst)
    assert is_ground(grounded)
    # A second application changes nothing.
    assert strict(apply_substitution(grounded, subst)) == strict(grounded)
