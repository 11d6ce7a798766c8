"""Acceptance gate: eight end-to-end checks, one visible verdict line each.

Each test reports PASS/FAIL through the terminal summary so the verdicts
survive pytest's capture.  The checks compare the engine against the
independent oracles in oracles.py, exercise the generators at scale, and
pin the command line output byte for byte.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import subprocess
import sys
import time

from understory import (
    EventExpression,
    MemoryState,
    RELATION_LABELS,
    SchemaDocument,
    SegmentationFailure,
    SourceError,
    Var,
    Word,
    build_instance,
    build_understanding_diagram,
    export_dot,
    load_corpus,
    load_schema_file,
    match_event,
    match_sequence,
    parse_corpus,
    parse_schema_file,
    run_fixpoint,
    run_fixpoint_group,
    understand,
    variables_of,
)

import conftest
from conftest import FIXTURES, fixture_path
from documents import schema_named
from generators import match_instance, random_group, theorem_pair
from oracles import (
    atomic_fixpoint,
    first_covering_key,
    ground_subset,
    oracle_match_sequence,
    substitute_total,
)

DAY = fixture_path("day.events")
PAIR = fixture_path("pair.mps")
PAIR_NOLINK = fixture_path("pair_nolink.mps")
MORNING = fixture_path("morning.mps")


def announce(line: str) -> None:
    # Into the captured stream (visible next to a failure) and into the
    # end-of-run summary (visible always).
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)


def criterion(number: int, summary: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                announce("FAIL criterion %d: %s" % (number, summary))
                raise
            announce("PASS criterion %d: %s (%.1fs)"
                     % (number, summary, time.monotonic() - start))
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1. Event matching agrees with exhaustive substitution enumeration.

_CASES = ("actor", "action", "to")
_WORDS = ("wake", "wash", "go", "kim")


def _all_templates():
    options = [None] + [Word(w) for w in _WORDS] + [Var("P"), Var("D")]
    for combo in itertools.product(options, repeat=len(_CASES)):
        slots = tuple((c, v) for c, v in zip(_CASES, combo) if v is not None)
        yield EventExpression(None, slots)


def _all_ground_events():
    options = [None] + [Word(w) for w in _WORDS]
    for i, combo in enumerate(itertools.product(options, repeat=len(_CASES))):
        slots = tuple((c, v) for c, v in zip(_CASES, combo) if v is not None)
        yield EventExpression("e%d" % i, slots)


@criterion(1, "event matcher agrees with the exhaustive oracle on all "
              "42875 template/event pairs in under 10s")
def test_criterion_1_event_match_oracle():
    start = time.monotonic()
    events = list(_all_ground_events())
    checked = 0
    for template in _all_templates():
        names = sorted(variables_of(template))
        grounded = []
        for combo in itertools.product(_WORDS, repeat=len(names)):
            binding = {n: Word(w) for n, w in zip(names, combo)}
            grounded.append((binding, substitute_total(template, binding)))
        for ev in events:
            witnesses = [b for b, g in grounded if ground_subset(g, ev)]
            outcome = match_event(template, ev)
            assert (outcome is not None) == bool(witnesses), (template, ev)
            if outcome is not None:
                engine = dict(outcome)
                # The event pins every variable, so the witness is unique
                # and must be exactly the engine's binding.
                assert witnesses == [engine], (template, ev, witnesses, engine)
            checked += 1
    assert checked == 343 * 125 == 42875
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 2. The rule engine is monotone, idempotent, and order-independent.


@criterion(2, "fixpoint is monotone, idempotent, and agrees with 10 random "
              "atomic firing orders on 500 generated groups in under 30s")
def test_criterion_2_fixpoint_laws():
    start = time.monotonic()
    rng = random.Random(93)
    for i in range(500):
        state, parts, event_edges = random_group(rng)
        base = state.copy()
        final = run_fixpoint_group(state, parts, event_edges)
        assert final.known == base.known
        assert base.truths <= final.truths
        assert base.confirmed <= final.confirmed
        rerun_trace: list[str] = []
        run_fixpoint_group(final, parts, event_edges, rerun_trace)
        assert rerun_trace == []
        for k in range(10):
            alt = atomic_fixpoint(base.copy(), parts, event_edges,
                                  random.Random(10_000 * i + k))
            assert alt.truths == final.truths, i
            assert alt.confirmed == final.confirmed, i
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 3. A full match plus its assertions makes the whole corpus true.


@criterion(3, "on 200 generated schema/corpus pairs with a full match, the "
              "rules make every corpus event true in under 30s")
def test_criterion_3_propagation():
    start = time.monotonic()
    rng = random.Random(7)
    for i in range(200):
        mp, corpus, assertions, node_to_event = theorem_pair(rng)
        state = MemoryState.for_corpus(corpus)
        for ev_id in assertions:
            state.assert_true(ev_id)
        result = match_sequence(mp, corpus, state)
        assert result is not None, i
        assert result.chain_length == len(mp.roots), i
        assert result.node_events() == node_to_event, i
        run_fixpoint(state, build_instance(mp, result), result.supports)
        assert state.truths == set(corpus.event_ids()), i
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 4. Sequence matching returns exactly the oracle's best result.


@criterion(4, "sequence matcher equals the exhaustive oracle's tie-broken "
              "optimum on 100 instances with at least one match")
def test_criterion_4_sequence_match_oracle():
    rng = random.Random(41)
    nonempty = 0
    attempts = 0
    while nonempty < 100:
        attempts += 1
        assert attempts < 5000, "generator starved the oracle comparison"
        mp, corpus, state = match_instance(rng)
        admissible = oracle_match_sequence(mp, corpus, state)
        engine = match_sequence(mp, corpus, state)
        if not admissible:
            assert engine is None
            continue
        nonempty += 1
        assert engine is not None
        assert engine in admissible
        assert engine == min(admissible, key=first_covering_key(mp, corpus))


# ---------------------------------------------------------------------------
# 5. One declared cross-schema link flips the verdict; report is pinned.


@criterion(5, "the linked schema pair understands the day corpus, the "
              "unlinked variant fails segmentation, and the JSON report "
              "matches the golden bytes")
def test_criterion_5_link_flip_and_golden_report():
    doc = load_schema_file(PAIR)
    corpus = load_corpus(DAY)
    report = understand(doc, corpus, ("e1",))
    assert report.understandable
    assert report.chain_length == 2
    assert ("e1", "sequel", "e3") in report.state.confirmed

    nolink = load_schema_file(PAIR_NOLINK)
    try:
        understand(nolink, corpus, ("e1",))
    except SegmentationFailure as failure:
        assert (failure.matched, failure.total) == (1, 2)
    else:
        raise AssertionError("the unlinked document must not segment")

    proc = subprocess.run(
        [sys.executable, "-m", "understory", "understand", PAIR, DAY,
         "--assert", "e1", "--format", "json"],
        capture_output=True)
    assert proc.returncode == 0
    golden = (FIXTURES / "golden" / "pair_understand.json").read_bytes()
    assert proc.stdout == golden


def test_story_json_matches_the_golden_bytes():
    proc = subprocess.run(
        [sys.executable, "-m", "understory", "story", PAIR, DAY,
         "--assert", "e1", "--format", "json"],
        capture_output=True)
    assert proc.returncode == 0
    assert proc.stderr == b""
    golden = (FIXTURES / "golden" / "pair_story.json").read_bytes()
    assert proc.stdout == golden


# ---------------------------------------------------------------------------
# 6. Stories are ground, faithful to the corpus, and deterministic.


@criterion(6, "stories from 60 understood documents are ground, keep every "
              "edge, quote matched events verbatim, and rebuild to "
              "identical bytes")
def test_criterion_6_story_hygiene():
    rng = random.Random(11)
    for i in range(60):
        mp, corpus, assertions, _ = theorem_pair(rng)
        doc = SchemaDocument((mp,))
        report = understand(doc, corpus, tuple(assertions))
        assert report.understandable, i
        diagram = build_understanding_diagram(doc, corpus, report)
        dot = export_dot(diagram)
        assert "$" not in dot
        events = {ev.id: ev for ev in corpus.events}
        for story in diagram.stories:
            origin = schema_named(doc, story.origin)
            assert len(story.edges) == len(origin.all_edges())
            assert all(label in RELATION_LABELS for _, label, _ in story.edges)
            for node in story.nodes:
                assert variables_of(node.expr) == set()
                if node.event_id is not None:
                    assert node.expr is events[node.event_id]
        again = build_understanding_diagram(
            doc, corpus, understand(doc, corpus, tuple(assertions)))
        assert export_dot(again) == dot

    fixture_dot = export_dot(build_understanding_diagram(
        load_schema_file(PAIR), load_corpus(DAY),
        understand(load_schema_file(PAIR), load_corpus(DAY), ("e1",))))
    golden = (FIXTURES / "golden" / "pair_diagram.dot").read_text()
    assert fixture_dot == golden


# ---------------------------------------------------------------------------
# 7. Parsing is total: a document or a located error, never anything else.

_PIECES = (
    "event", "memory_schema", "roots", "node", "fs", "link", "schema",
    "{", "}", "[", "]", ":", ",", "->", "-", "?", "$", "#", '"', ".", "=",
    ">", "\n", " ", "\t", "e1", "actor", "action", "part", "sequel",
    "sequel$", "kim", "café", "\\", "\x00", "\x1b", "﻿",
    '"open', 'x"y"', "?P", "s1", "-part->",
)


@criterion(7, "100000 parser runs over random and mutated inputs yield only "
              "documents or located errors")
def test_criterion_7_parser_totality():
    fixtures = [DAY, MORNING, PAIR, PAIR_NOLINK]
    texts = []
    for path in fixtures:
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    assert parse_corpus(texts[0]).event_ids() == ("e1", "e2", "e3", "e4")
    for text in texts[1:]:
        parse_schema_file(text)

    rng = random.Random(20260819)
    inputs = []
    for _ in range(25_000):
        count = rng.randint(0, 12)
        inputs.append("".join(rng.choice(_PIECES) for _ in range(count)))
    for _ in range(25_000):
        text = rng.choice(texts)
        a = rng.randrange(len(text) + 1)
        b = rng.randrange(len(text) + 1)
        a, b = min(a, b), max(a, b)
        roll = rng.random()
        if roll < 0.4:
            inputs.append(text[:a] + text[b:])
        elif roll < 0.8:
            inputs.append(text[:a] + rng.choice(_PIECES) + text[a:])
        else:
            inputs.append(text[:a] + text[a:b] + text[a:b] + text[b:])

    runs = 0
    for text in inputs:
        for parser in (parse_corpus, parse_schema_file):
            try:
                parser(text)
            except SourceError as err:
                assert err.line >= 1 and err.col >= 1
                assert str(err).startswith("%d:%d: " % (err.line, err.col))
            runs += 1
    assert runs == 100_000


# ---------------------------------------------------------------------------
# 8. Byte-identical output across interpreter hash seeds.


def _run_with_seed(seed: int, *argv: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    proc = subprocess.run([sys.executable, "-m", "understory", *argv],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@criterion(8, "understand and story JSON output is byte-identical across "
              "five interpreter hash seeds")
def test_criterion_8_deterministic_output():
    understand_outs = {
        _run_with_seed(seed, "understand", PAIR, DAY,
                       "--assert", "e1", "--format", "json")
        for seed in range(5)
    }
    assert len(understand_outs) == 1
    json.loads(understand_outs.pop().decode("utf-8"))

    story_outs = {
        _run_with_seed(seed, "story", PAIR, DAY,
                       "--assert", "e1", "--format", "json")
        for seed in range(5)
    }
    assert len(story_outs) == 1
