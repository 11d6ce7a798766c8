"""Hypothesis strategies for expressions and documents."""

from __future__ import annotations

import itertools
import unicodedata

import hypothesis.strategies as st

from understory import EventExpression, Var, Word
from understory.model import CASE_RELATIONS, Nested

CASES = sorted(CASE_RELATIONS)

# Word texts lean on a nasty pool: quoting, escapes, the "event" keyword,
# specials, unicode.  NFC-normalized so constructed documents round-trip.
_NASTY = (
    "kim", "wake", "event", "a b", 'say "hi"', "tab\tchar", "café",
    "x.y", "e1->e2", "#hash", "?not_a_var", "{brace}", "$dollar", "éé",
    "line\nbreak", "back\\slash", "one",
)


def word_texts():
    freeform = st.text(min_size=1, max_size=6).map(
        lambda s: unicodedata.normalize("NFC", s)).filter(bool)
    return st.sampled_from(_NASTY) | freeform


def words():
    return st.builds(Word, word_texts())


def variables():
    return st.builds(Var, st.sampled_from(("P", "Q", "R", "D")))


def _expression_from(values, with_id: bool, min_slots: int):
    # The value strategy is built once up front; composing strategies inside
    # a draw makes generation crawl.
    @st.composite
    def strat(draw):
        cases = draw(_CASE_TUPLES[draw(st.integers(min_slots, 4))])
        slots = tuple((case, draw(values)) for case in cases)
        ident = draw(st.sampled_from(("e1", "e2", "x9"))) if with_id else None
        return EventExpression(ident, slots)

    return strat()


# Every ordered choice of distinct cases, by length: one draw picks all the
# cases of an expression, where a permutation of CASES took one per case.
_CASE_TUPLES = [st.sampled_from(list(itertools.permutations(CASES, count)))
                for count in range(5)]


def expressions(allow_vars: bool = True, depth: int = 1,
                with_id: bool = False, min_slots: int = 0):
    leaves = (words() | variables()) if allow_vars else words()
    values = leaves
    for _ in range(depth):
        values = leaves | st.builds(
            Nested, _expression_from(values, with_id=False, min_slots=0))
    return _expression_from(values, with_id=with_id, min_slots=min_slots)
