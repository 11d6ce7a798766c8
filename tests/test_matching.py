import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from understory import Var, Word, match_event, variables_of
from understory.matching import confirm_unmatched, merge
from understory.model import (
    EMPTY_SUBSTITUTION,
    PreconditionError,
    Substitution,
    apply_substitution,
)

from documents import event, substitution_of
from oracles import enumerate_matches
from strategies import expressions


class TestMatchEvent:
    def test_exact_words(self):
        schema = event(None, actor=Word("kim"), action=Word("wake"))
        outcome = match_event(schema, event("e1", actor=Word("kim"),
                                            action=Word("wake")))
        assert outcome
        assert outcome == EMPTY_SUBSTITUTION

    def test_word_mismatch_fails(self):
        schema = event(None, action=Word("wake"))
        assert not match_event(schema, event("e1", action=Word("wash")))

    def test_missing_case_fails(self):
        schema = event(None, actor=Word("kim"), action=Word("wake"))
        assert not match_event(schema, event("e1", actor=Word("kim")))

    def test_event_extras_are_ignored(self):
        schema = event(None, action=Word("go"))
        outcome = match_event(schema, event("e1", actor=Word("kim"),
                                            action=Word("go"),
                                            to=Word("school")))
        assert outcome

    def test_variable_binds(self):
        schema = event(None, actor=Var("P"), action=Word("wake"))
        outcome = match_event(schema, event("e1", actor=Word("kim"),
                                            action=Word("wake")))
        assert dict(outcome) == {"P": Word("kim")}

    def test_variable_reuse_must_agree(self):
        schema = event(None, actor=Var("P"), obj=Var("P"))
        assert match_event(schema, event("e1", actor=Word("kim"),
                                         obj=Word("kim")))
        assert not match_event(schema, event("e1", actor=Word("kim"),
                                             obj=Word("lee")))

    def test_nested_subset_recursion(self):
        schema = event(None, obj=event(None, isa=Var("K")))
        corpus_event = event("e1", obj=event(None, isa=Word("ball"), det=Word("the")))
        outcome = match_event(schema, corpus_event)
        assert dict(outcome) == {"K": Word("ball")}

    def test_nested_shares_bindings_with_top_level(self):
        schema = event(None, actor=Var("P"), obj=event(None, actor=Var("P")))
        assert match_event(schema, event(
            "e1", actor=Word("kim"), obj=event(None, actor=Word("kim"))))
        assert not match_event(schema, event(
            "e1", actor=Word("kim"), obj=event(None, actor=Word("lee"))))

    def test_nested_against_word_fails(self):
        schema = event(None, obj=event(None, isa=Word("ball")))
        assert not match_event(schema, event("e1", obj=Word("ball")))

    def test_variable_can_bind_nested_value(self):
        inner = event(None, isa=Word("ball"))
        schema = event(None, obj=Var("X"))
        outcome = match_event(schema, event("e1", obj=inner))
        assert dict(outcome) == {"X": inner}

    def test_rejects_nonground_event(self):
        with pytest.raises(PreconditionError):
            match_event(event(None, actor=Word("kim")),
                        event(None, actor=Var("P")))

    def test_empty_schema_matches_anything(self):
        assert match_event(event(None), event("e1", actor=Word("kim")))


class TestWordsFirst:
    def test_a_word_miss_binds_nothing(self, calls):
        """Every word slot is compared before any variable is bound, so a
        pair that differs in a word, even after a variable slot, costs no
        binding."""
        calls.watch(Substitution, "bind")
        schema = event(None, actor=Var("P"), obj=Var("X"), action=Word("step"))
        assert not match_event(schema, event("e1", actor=Word("kim"), obj=Word("tea"),
                                             action=Word("start")))
        assert calls["bind"] == 0
        outcome = match_event(schema, event("e2", actor=Word("kim"), obj=Word("tea"),
                                            action=Word("step")))
        assert outcome == substitution_of(
            {"P": Word("kim"), "X": Word("tea")})
        assert calls["bind"] == 2

    def test_a_variable_conflict_still_fails(self):
        schema = event(None, actor=Var("P"), to=Var("P"), action=Word("go"))
        assert not match_event(schema, event("e1", actor=Word("kim"), to=Word("lee"),
                                             action=Word("go")))
        nested = event(None, actor=Var("P"), obj=event(None, actor=Var("P")))
        assert not match_event(nested, event("e2", actor=Word("kim"),
                                             obj=event(None, actor=Word("lee"))))
        assert not match_event(nested, event("e3", actor=Word("kim"), obj=Word("tea")))


class TestMergeAndConfirm:
    def test_merge_disjoint(self):
        a = substitution_of({"P": Word("kim")})
        b = substitution_of({"D": Word("school")})
        assert dict(merge(a, b)) == {"P": Word("kim"), "D": Word("school")}

    def test_merge_of_empty_substitutions_is_not_a_failure(self):
        # The empty substitution is falsy, so callers test for None.
        assert merge(EMPTY_SUBSTITUTION, EMPTY_SUBSTITUTION) is EMPTY_SUBSTITUTION

    def test_merge_consistent_overlap(self):
        a = substitution_of({"P": Word("kim")})
        b = substitution_of({"P": Word("kim"), "D": Word("school")})
        assert merge(a, b) == b

    def test_merge_conflict_fails(self):
        a = substitution_of({"P": Word("kim")})
        b = substitution_of({"P": Word("lee")})
        assert merge(a, b) is None

    def test_confirm_unmatched(self):
        subst = substitution_of({"P": Word("kim")})
        bound = event("s2", actor=Var("P"))
        ground = event("s3", action=Word("wash"))
        free = event("s4", to=Var("D"))
        assert confirm_unmatched([], subst) is True
        assert confirm_unmatched([bound, ground], subst) is True
        assert confirm_unmatched([bound, free], subst) is False


# ---------------------------------------------------------------------------
# Properties


# Nested expressions two deep take a few milliseconds each to draw; on a
# busy machine the first ten can pass Hypothesis's one-second draw budget,
# so the timing health check is off here (and only here).
@given(expressions(allow_vars=True, depth=2),
       st.sampled_from(("kim", "lee", "ball")))
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
def test_match_recovers_the_grounding_substitution(schema, text):
    subst = substitution_of({name: Word(text) for name in variables_of(schema)})
    grounded = apply_substitution(schema, subst)
    outcome = match_event(schema, grounded)
    assert outcome
    assert outcome == subst


_FLAT_CASES = ("actor", "action", "to")
_VOCAB = ("wake", "wash", "go", "kim")


@st.composite
def flat_pair(draw):
    def pick(allow_vars):
        slots = []
        for case in _FLAT_CASES:
            options = ["skip"] + list(_VOCAB)
            if allow_vars:
                options += ["?X", "?Y"]
            choice = draw(st.sampled_from(options))
            if choice == "skip":
                continue
            value = Var(choice[1:]) if choice.startswith("?") else Word(choice)
            slots.append((case, value))
        return event(None, **dict(slots))
    return pick(True), pick(False)


@given(flat_pair())
@settings(max_examples=500)
def test_match_agrees_with_enumeration_oracle(pair):
    schema, corpus_event = pair
    oracle = enumerate_matches(schema, corpus_event, _VOCAB)
    outcome = match_event(schema, corpus_event)
    assert (outcome is not None) == bool(oracle)
    if oracle:
        assert len({tuple(sorted(b.items())) for b in oracle}) == 1
        assert dict(outcome) == oracle[0]
