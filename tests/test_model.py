import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from understory import RELATION_LABELS, EventExpression, Var, Word, variables_of
from understory.model import (
    CASE_RELATIONS,
    EMPTY_SUBSTITUTION,
    CorpusDocument,
    Nested,
    SchemaEdge,
    Substitution,
    apply_substitution,
    event,
    identical,
    is_ground,
)

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

    def test_identical_is_strict(self):
        a = event("e1", actor=Word("kim"), action=Word("wake"))
        b = event("e1", action=Word("wake"), actor=Word("kim"))
        c = event("e9", actor=Word("kim"), action=Word("wake"))
        assert a == b and not identical(a, b)
        assert a == c and not identical(a, c)
        assert identical(a, event("e1", actor=Word("kim"), action=Word("wake")))

    def test_get(self):
        e = event(None, actor=Word("kim"), to=Word("school"))
        assert e.get("actor") == Word("kim")
        assert e.get("loc") is None

    def test_variables_of_sees_nested(self):
        e = event(None, actor=Var("P"),
                  obj=Nested(event(None, isa=Var("K"), det=Word("the"))))
        assert variables_of(e) == frozenset({"P", "K"})
        assert not is_ground(e)
        assert is_ground(event(None, actor=Word("kim")))


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
            Substitution((("A", Nested(event(None, actor=Var("Q")))),))

    def test_bind_extends_and_detects_conflict(self):
        s = EMPTY_SUBSTITUTION.bind("P", Word("kim"))
        assert s is not None and s.get("P") == Word("kim")
        assert s.bind("P", Word("kim")) == s
        assert s.bind("P", Word("lee")) is None
        assert s.domain() == frozenset({"P"})
        assert len(s) == 1

    def test_bind_rejects_a_non_ground_value(self):
        s = EMPTY_SUBSTITUTION.bind("P", Word("kim"))
        with pytest.raises(ValueError):
            s.bind("X", Var("Y"))
        with pytest.raises(ValueError):
            s.bind("X", Nested(event(None, actor=Var("Q"))))
        assert s.bind("X", Nested(event(None, actor=Word("lee")))) is not None

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
        schema = event("s1", actor=Var("P"),
                       obj=Nested(event(None, isa=Var("K"))))
        subst = Substitution.of({"P": Word("kim"), "K": Word("ball")})
        grounded = apply_substitution(schema, subst)
        assert grounded.id == "s1"
        assert grounded.get("actor") == Word("kim")
        assert grounded.get("obj") == Nested(event(None, isa=Word("ball")))
        assert is_ground(grounded)

    def test_apply_leaves_unbound_vars(self):
        schema = event(None, actor=Var("P"), to=Var("D"))
        out = apply_substitution(schema, Substitution.of({"P": Word("kim")}))
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

    def test_lookup_and_order(self):
        doc = CorpusDocument((event("e1", actor=Word("kim")),
                              event("e2", actor=Word("lee"))))
        assert len(doc) == 2
        assert doc.event_ids() == ("e1", "e2")
        assert doc.by_id("e2").get("actor") == Word("lee")
        with pytest.raises(KeyError):
            doc.by_id("e9")


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
    subst = Substitution.of({name: Word(text) for name in variables_of(expr)})
    grounded = apply_substitution(expr, subst)
    assert is_ground(grounded)
    # A second application changes nothing.
    assert identical(apply_substitution(grounded, subst), grounded)
