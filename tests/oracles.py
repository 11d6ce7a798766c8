"""Independent reference implementations the engine is tested against.

Everything here is deliberately naive: total enumeration for matching,
one rule instance at a time for memory.  The event-match and memory
oracles share no code with the package beyond the data types, so
agreement is meaningful; the reference fixpoint lowers the rules itself
and checks every rule in every round.  The sequence-match oracle builds
on the event matcher, the goal supports and its own block partition (each
tested on its own) and enumerates every anchor, root and node assignment
itself.  The understanding oracle tries every cut vector from scratch,
rerunning every schema's match and the rules over every instance so far,
on the engine's sequence matcher, and scans every declared link per
attempt; its verdict scans every pair of positions.  The tokenizer and
the bare-word test walk the text one character at a time.  The JSON views
build one plain dict per engine value, so `json.dumps` of a view is the
text the report writers must produce.  The command line's oracle is the
argparse parser the CLI used before its one-pass reader.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from understory import (
    EventExpression,
    MemoryState,
    SchemaDocument,
    SegmentationFailure,
    Var,
    Word,
    build_instance,
    match_event,
    run_fixpoint_group,
    variables_of,
)
from understory.cli import EXIT_USAGE
from understory.matching import confirm_unmatched, merge
from understory.memory import EventEdge, GoalSupport, SchemaInstance
from understory.model import (
    EMPTY_SUBSTITUTION,
    CorpusDocument,
    PreconditionError,
)
from understory.schema import (
    MatchResult,
    MemorySchema,
    Segment,
    UnderstandingReport,
    _search,
)
from understory.textio import ParseError

from documents import event_by_id

ORACLE_MAX_EVENTS = 8
ORACLE_MAX_NODES = 8


# ---------------------------------------------------------------------------
# Event matching by substitution enumeration


def substitute_total(expr: EventExpression, binding: dict[str, Word]) -> EventExpression:
    slots = []
    for case, value in expr.slots:
        if isinstance(value, Var):
            slots.append((case, binding[value.name]))
        elif isinstance(value, EventExpression):
            slots.append((case, substitute_total(value, binding)))
        else:
            slots.append((case, value))
    return EventExpression(expr.id, tuple(slots))


def ground_subset(schema: EventExpression, event: EventExpression) -> bool:
    """Every slot of the ground schema is satisfied by the event."""
    have = dict(event.slots)
    for case, value in schema.slots:
        if case not in have:
            return False
        other = have[case]
        if isinstance(value, EventExpression):
            if not isinstance(other, EventExpression):
                return False
            if not ground_subset(value, other):
                return False
        elif value != other:
            return False
    return True


def enumerate_matches(schema: EventExpression, event: EventExpression,
                      vocab: Sequence[str]) -> list[dict[str, Word]]:
    """All total word assignments over vocab under which schema covers event."""
    names = sorted(variables_of(schema))
    found = []
    for combo in itertools.product(vocab, repeat=len(names)):
        binding = {name: Word(text) for name, text in zip(names, combo)}
        if ground_subset(substitute_total(schema, binding), event):
            found.append(binding)
    return found


# ---------------------------------------------------------------------------
# Block partitioning


@dataclass(frozen=True)
class BlockPartition:
    """Corpus positions split into blocks around the anchors (all 1-based)."""

    anchors: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]


def partition_blocks(corpus_length: int, anchors: Sequence[int]) -> BlockPartition:
    """Split positions 1..corpus_length into one block per anchor.

    Every non-anchor position between anchor i and anchor i+1 joins block i
    (the left anchor's block); positions before the first anchor join block
    1 and positions after the last join the final block.
    """
    anchors = tuple(anchors)
    if corpus_length < 1:
        raise PreconditionError("corpus_length must be at least 1")
    if not anchors:
        raise PreconditionError("at least one anchor is required")
    if list(anchors) != sorted(set(anchors)):
        raise PreconditionError("anchors must be strictly increasing")
    if anchors[0] < 1 or anchors[-1] > corpus_length:
        raise PreconditionError("anchor positions out of range")
    blocks = []
    for i, a in enumerate(anchors):
        start = 1 if i == 0 else a
        end = corpus_length if i == len(anchors) - 1 else anchors[i + 1] - 1
        blocks.append(tuple(range(start, end + 1)))
    return BlockPartition(anchors=anchors, blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# Sequence matching by exhaustive enumeration


def oracle_match_sequence(
    mp: MemorySchema, corpus: CorpusDocument, state: MemoryState
) -> list[MatchResult]:
    """Every admissible match, by plain exhaustive enumeration.

    Deliberately unoptimized; the size guard keeps it honest.
    """
    n = len(corpus)
    k = len(mp.roots)
    if n > ORACLE_MAX_EVENTS:
        raise PreconditionError("oracle handles at most %d events" % ORACLE_MAX_EVENTS)
    if len(mp.nodes) > ORACLE_MAX_NODES:
        raise PreconditionError("oracle handles at most %d nodes" % ORACLE_MAX_NODES)
    results: list[MatchResult] = []
    if n == 0 or k == 0:
        return results
    if mp._structure.unresolved:
        return results
    supports = mp._structure.supports
    for l in range(1, min(n, k) + 1):
        for anchor_pos in itertools.combinations(range(1, n + 1), l):
            for root_idx in itertools.combinations(range(k), l):
                results.extend(
                    _oracle_candidates(mp, corpus, state, root_idx, anchor_pos, supports)
                )
    return results


def _oracle_candidates(
    mp: MemorySchema,
    corpus: CorpusDocument,
    state: MemoryState,
    root_idx: tuple[int, ...],
    anchor_pos: tuple[int, ...],
    supports: tuple[GoalSupport, ...],
) -> list[MatchResult]:
    n = len(corpus)
    chosen_roots = [mp.roots[i] for i in root_idx]
    base = EMPTY_SUBSTITUTION
    for root, pos in zip(chosen_roots, anchor_pos):
        outcome = match_event(mp.nodes[root], corpus.events[pos - 1])
        if not outcome:
            return []
        base = merge(base, outcome)
        if base is None:
            return []
    if root_idx[0] == 0 and not state.query(corpus.events[anchor_pos[0] - 1].id):
        return []
    blocks = partition_blocks(n, anchor_pos).blocks
    block_events: list[list[int]] = []
    block_nodes: list[tuple[str, ...]] = []
    for i, block in enumerate(blocks):
        block_events.append([p for p in block if p != anchor_pos[i]])
        tree = mp.tree_of(chosen_roots[i])
        block_nodes.append(tuple(nd for nd in tree if nd != chosen_roots[i]))
    assignments: list[list[tuple[str, str]]] = [[]]
    for events, nodes in zip(block_events, block_nodes):
        extended = []
        for chosen in itertools.permutations(nodes, len(events)):
            pairs = [(nd, corpus.events[p - 1].id) for nd, p in zip(chosen, events)]
            for prefix in assignments:
                extended.append(prefix + pairs)
        assignments = extended
        if not assignments:
            return []
    out = []
    anchor_events = {root: corpus.events[pos - 1].id
                     for root, pos in zip(chosen_roots, anchor_pos)}
    for assignment in assignments:
        subst = base
        ok = True
        for node_id, ev_id in assignment:
            outcome = match_event(mp.nodes[node_id], event_by_id(corpus, ev_id))
            if not outcome:
                ok = False
                break
            subst = merge(subst, outcome)
            if subst is None:
                ok = False
                break
        if not ok:
            continue
        node_map = dict(assignment)
        matched = set(chosen_roots) | set(node_map)
        unmatched = [nd for nd in mp.nodes if nd not in matched]
        if not confirm_unmatched([mp.nodes[nd] for nd in unmatched], subst):
            continue
        mapping = dict(anchor_events)
        mapping.update(node_map)
        ok = True
        for e in mp.all_edges():
            if e.test and e.label == "pre":
                src_ev = mapping.get(e.source)
                dst_ev = mapping.get(e.target)
                if src_ev is not None and dst_ev is not None and not state.query(dst_ev):
                    ok = False
                    break
        if not ok:
            continue
        out.append(MatchResult(
            schema_name=mp.name,
            chain_length=len(chosen_roots),
            anchors=tuple(
                (root, anchor_events[root], pos)
                for root, pos in zip(chosen_roots, anchor_pos)
            ),
            node_map=tuple(sorted(node_map.items())),
            unmatched=frozenset(unmatched),
            substitution=subst,
            supports=supports,
        ))
    return out


def first_covering_key(mp: MemorySchema, corpus: CorpusDocument):
    """Orders oracle matches as match_sequence prefers them: the longest
    chain, then the anchor positions, then the root indexes, then the
    covering, as the document index of the node that covers each block
    event, events in corpus position order.

    The order is total on the matches of one schema over one corpus: with
    the anchors fixed, every other event is covered, so the covering fixes
    the node map, and the node map fixes the rest of the match.  The
    oracle enumerates coverings in another order once two blocks have
    kids, so a key without the covering would leave the pick to it.
    """
    order = {nd: i for i, nd in enumerate(mp.nodes)}
    position = {ev.id: p for p, ev in enumerate(corpus.events)}

    def key(result: MatchResult):
        covering = sorted(result.node_map, key=lambda pair: position[pair[1]])
        return (-result.chain_length, tuple(pos for _, _, pos in result.anchors),
                tuple(mp.roots.index(root) for root, _, _ in result.anchors),
                tuple(order[nd] for nd, _ in covering))
    return key


# ---------------------------------------------------------------------------
# Memory rules, one atomic firing at a time

Move = tuple[Optional[str], tuple[str, str, str]]


def applicable_moves(
    state: MemoryState,
    parts: Sequence[tuple[SchemaInstance, Sequence[GoalSupport]]],
    event_edges: Sequence[EventEdge] = (),
) -> list[Move]:
    """Every rule instance that would add a truth or a confirmed edge now.

    A move is (event id to make true or None, edge to confirm).
    """
    moves: list[Move] = []

    def consequence(truth: str, edge: tuple[str, str, str]) -> None:
        adds_truth = truth not in state.truths
        adds_edge = edge not in state.confirmed
        if adds_truth or adds_edge:
            moves.append((truth if adds_truth else None, edge))

    for instance, supports in parts:
        for edge in instance.edges:
            src = instance.event_of(edge.source)
            dst = instance.event_of(edge.target)
            if src is None or dst is None:
                continue
            if edge.test:
                if (edge.label == "pre" and state.query(dst)
                        and (src, "pre", dst) not in state.confirmed):
                    moves.append((None, (src, "pre", dst)))
                continue
            if state.query(src):
                consequence(dst, (src, edge.label, dst))
        for sup in supports:
            chain_evs = [instance.event_of(n) for n in sup.chain]
            final_ev = instance.event_of(sup.final_state)
            goal_ev = instance.event_of(sup.target)
            src_ev = instance.event_of(sup.source)
            if None in chain_evs or final_ev is None or goal_ev is None or src_ev is None:
                continue
            if all(state.query(e) for e in chain_evs) and state.query(final_ev):
                consequence(goal_ev, (src_ev, "goal", goal_ev))
    for ee in event_edges:
        if state.query(ee.source_event):
            consequence(ee.target_event,
                        (ee.source_event, ee.label, ee.target_event))
    return moves


def atomic_fixpoint(
    state: MemoryState,
    parts: Sequence[tuple[SchemaInstance, Sequence[GoalSupport]]],
    event_edges: Sequence[EventEdge] = (),
    rng: Optional[random.Random] = None,
) -> MemoryState:
    """Fire one randomly chosen applicable instance until none remain."""
    rng = rng or random.Random(0)
    while True:
        moves = applicable_moves(state, parts, event_edges)
        if not moves:
            return state
        truth, edge = rng.choice(moves)
        if truth is not None:
            state.assert_true(truth)
        state.confirm(edge)


def reference_fixpoint(
    state: MemoryState,
    parts: Sequence[tuple[SchemaInstance, Sequence[GoalSupport]]],
    event_edges: Sequence[EventEdge] = (),
    trace: Optional[list[str]] = None,
) -> MemoryState:
    """run_fixpoint_group as one loop that checks every rule in every round.

    The rules are lowered here from the instances' edges, with each edge's
    text formatted up front: per instance its RULE1s, RULE2s and RULE3s in
    (source, target, label) node order, then the event edges.  The rounds
    run until one adds nothing, so trace lines come out in the engine's
    order.
    """
    rules: list[tuple[str, str, tuple[str, ...], Optional[str],
                      tuple[str, str, str]]] = []
    for instance, supports in parts:
        pre_rules, plain_rules = [], []
        for edge in sorted(instance.edges, key=lambda e: (e.source, e.target, e.label)):
            src = instance.event_of(edge.source)
            dst = instance.event_of(edge.target)
            if src is None or dst is None:
                continue
            if not edge.test:
                plain_rules.append(("RULE3", edge.arrow(), (src,), dst,
                                    (src, edge.label, dst)))
            elif edge.label == "pre":
                pre_rules.append(("RULE1", edge.arrow(), (dst,), None, (src, "pre", dst)))
        rules += pre_rules
        for sup in supports:
            events = [instance.event_of(n)
                      for n in (sup.source, sup.target) + sup.chain + (sup.final_state,)]
            if None not in events:
                src, goal, *premises = events
                rules.append(("RULE2", "%s -goal$-> %s" % (sup.source, sup.target),
                              tuple(premises), goal, (src, "goal", goal)))
        rules += plain_rules
    for ee in event_edges:
        rules.append(("RULE3", ee.display, (ee.source_event,), ee.target_event,
                      (ee.source_event, ee.label, ee.target_event)))
    while True:
        changed = False
        for name, display, premises, truth, edge in rules:
            if not all(state.query(e) for e in premises):
                continue
            adds_truth = truth is not None and truth not in state.truths
            adds_edge = edge not in state.confirmed
            if not (adds_truth or adds_edge):
                continue
            if adds_truth:
                state.assert_true(truth)
            state.confirm(edge)
            changed = True
            if trace is not None:
                effect = []
                if adds_truth:
                    effect.append("%s true" % truth)
                if adds_edge:
                    effect.append("%s -%s-> %s confirmed" % edge)
                trace.append("%s %s => %s" % (name, display, "; ".join(effect)))
        if not changed:
            return state


# ---------------------------------------------------------------------------
# Understanding by full cut enumeration


def oracle_understand(
    doc: SchemaDocument,
    corpus: CorpusDocument,
    assertions: Sequence[str] = (),
    trace: Optional[list[str]] = None,
) -> UnderstandingReport:
    """understand() by walking every cut vector from the first schema.

    Each attempt starts from the asserted state, matches the schemas left
    to right and reruns the rules over every instance so far after each
    segment.  The first vector that lets every schema match wins; otherwise
    the first attempt that matched the most schemas gives the diagnostics.
    """
    schemas = doc.schemas
    m = len(schemas)
    n = len(corpus)
    base = MemoryState.for_corpus(corpus)
    for ev_id in assertions:
        base.assert_true(ev_id)
    if m == 0:
        raise SegmentationFailure(0, 0, ("schema document declares no schemas",),
                                  base)
    if n < m:
        raise SegmentationFailure(0, m, (
            "the corpus has %d event(s), fewer than the %d schemas; every "
            "schema needs a segment of at least one event" % (n, m),), base)
    best_matched = -1
    best_diags: tuple[str, ...] = ()
    for cuts in itertools.combinations(range(1, n), m - 1):
        bounds = (0,) + cuts + (n,)
        state = base.copy()
        attempt_trace: list[str] = []
        parts: list[tuple[SchemaInstance, tuple[GoalSupport, ...]]] = []
        event_edges: list[EventEdge] = []
        results: list[MatchResult] = []
        segments: list[Segment] = []
        diags: list[str] = []
        ok = True
        for i, mp in enumerate(schemas):
            start, end = bounds[i], bounds[i + 1]
            seg_corpus = CorpusDocument(corpus.events[start:end])
            licensed = i > 0 and _link_license(doc, schemas[i - 1], results[-1],
                                               mp, state)
            result = _search(mp, seg_corpus.events, state, licensed, start)
            if result is None:
                diags.append(
                    "schema %s found no admissible match over events %s"
                    % (mp.name, ", ".join(seg_corpus.event_ids()) or "<none>"))
                ok = False
                break
            if i > 0:
                new_edges = _link_event_edges(doc, schemas[i - 1], results[-1],
                                              mp, result)
                if not new_edges:
                    diags.append(
                        "no declared sequel link carries %s into %s"
                        % (schemas[i - 1].name, mp.name))
                    ok = False
                    break
                event_edges.extend(new_edges)
            results.append(result)
            segments.append(Segment(
                schema_name=mp.name,
                start=start + 1,
                end=end,
                event_ids=seg_corpus.event_ids(),
            ))
            parts.append((build_instance(mp, result), result.supports))
            run_fixpoint_group(state, parts, event_edges, attempt_trace)
        if ok:
            if trace is not None:
                trace.extend(attempt_trace)
            return oracle_check_understandable(state, corpus, results, segments)
        if len(results) > best_matched:
            best_matched = len(results)
            best_diags = tuple(diags)
    raise SegmentationFailure(max(best_matched, 0), m, best_diags, base)


def _link_license(
    doc: SchemaDocument,
    prev_schema: MemorySchema,
    prev_result: MatchResult,
    current: MemorySchema,
    state: MemoryState,
) -> bool:
    """Whether an incoming declared link can satisfy the first-root condition.

    True when the previous schema matched one of its roots to an event that
    is already true, and a declared link carries that root into this
    schema's first root: the propagation rule would fire immediately, so
    the match may proceed as if the anchor were already true.
    """
    prev_map = prev_result.node_events()
    for link in doc.links:
        if link.from_schema != prev_schema.name or link.to_schema != current.name:
            continue
        if not current.roots or link.to_node != current.roots[0]:
            continue
        source_ev = prev_map.get(link.from_node)
        if source_ev is not None and state.query(source_ev):
            return True
    return False


def _link_event_edges(
    doc: SchemaDocument,
    prev_schema: MemorySchema,
    prev_result: MatchResult,
    cur_schema: MemorySchema,
    cur_result: MatchResult,
) -> list[EventEdge]:
    edges = []
    prev_map = prev_result.node_events()
    cur_map = cur_result.node_events()
    for link in doc.links:
        if link.from_schema != prev_schema.name or link.to_schema != cur_schema.name:
            continue
        src_ev = prev_map.get(link.from_node)
        dst_ev = cur_map.get(link.to_node)
        if src_ev is not None and dst_ev is not None:
            edges.append(EventEdge(src_ev, "sequel", dst_ev, link.arrow()))
    return edges


def oracle_check_understandable(
    state: MemoryState,
    corpus: CorpusDocument,
    results: Sequence[MatchResult],
    segments: Sequence[Segment] = (),
) -> UnderstandingReport:
    """check_understandable() by testing every pair of positions."""
    ids = corpus.event_ids()
    n = len(ids)
    pairs = {(a, b) for (a, lbl, b) in state.confirmed if lbl == "sequel"}
    # Longest chain starting at each position, scanning right to left.
    length_from = [1] * n
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if (ids[i], ids[j]) in pairs and 1 + length_from[j] > length_from[i]:
                length_from[i] = 1 + length_from[j]
    best = max(length_from, default=0)
    chain: tuple[str, ...] = ()
    if best >= 2:
        chain_list = []
        current = length_from.index(best)
        chain_list.append(ids[current])
        remaining = best - 1
        while remaining:
            for j in range(current + 1, n):
                if (ids[current], ids[j]) in pairs and length_from[j] == remaining:
                    chain_list.append(ids[j])
                    current = j
                    remaining -= 1
                    break
        chain = tuple(chain_list)
    diagnostics = []
    missing = [i for i in ids if i not in state.truths]
    for ev_id in missing:
        diagnostics.append("event %s is not held true" % ev_id)
    if best < 2:
        diagnostics.append("no confirmed sequel chain longer than one event")
    verdict = "understandable" if not missing and best >= 2 else "not-understandable"
    return UnderstandingReport(
        verdict=verdict,
        chain_length=best,
        anchor_chain=chain,
        segments=tuple(segments),
        results=tuple(results),
        state=state,
        diagnostics=tuple(diagnostics),
    )


# ---------------------------------------------------------------------------
# Tokenizing and word quoting, one character at a time

# Characters that can never appear in a bare word.
_SPECIALS = set('{}[]:,=?$#".->')


@dataclass(frozen=True)
class _Token:
    kind: str  # one of the punctuation strings, or "bare", "quoted", "eof"
    text: str
    line: int
    col: int


def oracle_tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def bump(ch: str) -> None:
        nonlocal line, col
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1

    while i < n:
        ch = text[i]
        if ch == "\ufeff" or ch.isspace():
            bump(ch)
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                bump(text[i])
                i += 1
            continue
        start_line, start_col = line, col
        if ch in "{}[]:,=?$.":
            tokens.append(_Token(ch, ch, start_line, start_col))
            bump(ch)
            i += 1
            continue
        if ch == "-":
            if i + 1 < n and text[i + 1] == ">":
                tokens.append(_Token("->", "->", start_line, start_col))
                bump("-")
                bump(">")
                i += 2
            else:
                tokens.append(_Token("-", "-", start_line, start_col))
                bump(ch)
                i += 1
            continue
        if ch == '"':
            bump(ch)
            i += 1
            parts: list[str] = []
            closed = False
            while i < n:
                c = text[i]
                if c == '"':
                    bump(c)
                    i += 1
                    closed = True
                    break
                if c == "\n":
                    break
                if c == "\\":
                    if i + 1 >= n:
                        break
                    esc = text[i + 1]
                    mapped = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}.get(esc)
                    if mapped is None:
                        raise ParseError("unknown escape '\\%s'" % esc, line, col)
                    parts.append(mapped)
                    bump(c)
                    bump(esc)
                    i += 2
                    continue
                parts.append(c)
                bump(c)
                i += 1
            if not closed:
                raise ParseError("unterminated string literal", start_line, start_col)
            tokens.append(_Token("quoted", "".join(parts), start_line, start_col))
            continue
        if ord(ch) < 0x20:
            raise ParseError("unexpected control character", start_line, start_col)
        if ch == ">":
            raise ParseError("unexpected character '>'", start_line, start_col)
        j = i
        while j < n:
            c = text[j]
            if c == "\ufeff" or c.isspace() or c in _SPECIALS or ord(c) < 0x20:
                break
            j += 1
        word = text[i:j]
        for c in word:
            bump(c)
        i = j
        tokens.append(_Token("bare", word, start_line, start_col))
    tokens.append(_Token("eof", "", line, col))
    return tokens


def oracle_render_word(text: str) -> str:
    bare_ok = (
        text != "event"
        and all(c != "\ufeff" and not c.isspace()
                and c not in _SPECIALS and ord(c) >= 0x20
                for c in text)
        and bool(text)
    )
    if bare_ok:
        return text
    escaped = (text.replace("\\", "\\\\").replace('"', '\\"')
               .replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r"))
    return '"%s"' % escaped


def oracle_is_identifier(name: str) -> bool:
    if not name:
        return False
    if not (name[0].isascii() and (name[0].isalpha() or name[0] == "_")):
        return False
    return all(c.isascii() and (c.isalnum() or c == "_") for c in name)


# ---------------------------------------------------------------------------
# Schema validation by rescans


def oracle_validate_memory_schema(mp: MemorySchema) -> list[str]:
    """The diagnostics of validate_memory_schema, in its order, found by
    rescanning the declared fields for every question instead of from one
    derived structure."""
    name, roots, nodes = mp.name, mp.roots, mp.nodes
    diags: list[str] = []
    if not roots:
        diags.append("schema %s: no roots declared" % name)
    for r in sorted({r for r in roots if roots.count(r) > 1}):
        diags.append("schema %s: root %s listed twice" % (name, r))
    for r in roots:
        if r not in nodes:
            diags.append("schema %s: root %s is not a node" % (name, r))
    for e in mp.edges:
        for end in (e.source, e.target):
            if end not in nodes:
                diags.append("schema %s: edge %s uses unknown node %s"
                             % (name, e.arrow(), end))
    for src, dst in mp.fs_links.items():
        for end in (src, dst):
            if end not in nodes:
                diags.append("schema %s: fs link %s = %s uses unknown node %s"
                             % (name, src, dst, end))
    for i, e in enumerate(mp.edges):
        if e in mp.edges[:i]:
            diags.append("schema %s: duplicate edge %s" % (name, e.arrow()))
    for i, e in enumerate(mp.edges):
        restates_chain = (e.label == "sequel" and not e.test
                          and any((e.source, e.target) == pair
                                  for pair in zip(roots, roots[1:])))
        if (e.target in roots and e.source in nodes and e.target in nodes
                and not restates_chain):
            diags.append("schema %s: edge %s makes a root a child" % (name, e.arrow()))

    def tree_parents(node_id):
        return [e.source for e in mp.edges
                if e.target == node_id and node_id not in roots]

    def reaches_a_root(node_id):
        seen = set()
        while node_id not in roots:
            if node_id in seen or not tree_parents(node_id):
                return False
            seen.add(node_id)
            node_id = tree_parents(node_id)[0]
        return True

    for node_id in nodes:
        if node_id in roots:
            continue
        count = len([p for p in tree_parents(node_id) if p in nodes])
        if count == 0:
            diags.append("schema %s: node %s has no tree parent" % (name, node_id))
        elif count > 1:
            diags.append("schema %s: node %s has %d tree parents" % (name, node_id, count))
        elif not reaches_a_root(node_id):
            diags.append("schema %s: node %s is unreachable from any root"
                         % (name, node_id))

    declared = [(e.source, e.target) for e in mp.edges
                if e.label == "sequel" and not e.test]
    sequels = declared + [pair for pair in zip(roots, roots[1:])
                          if pair not in declared]

    def supported(source):
        reached, frontier = {source}, [source]
        while frontier:
            node_id = frontier.pop()
            if node_id in mp.fs_links:
                return True
            for a, b in sequels:
                if a == node_id and b not in reached:
                    reached.add(b)
                    frontier.append(b)
        return False

    for e in mp.edges:
        if e.label == "goal" and e.test and e.source in nodes and not supported(e.source):
            diags.append("schema %s: goal edge %s has no sequel chain ending in an fs link"
                         % (name, e.arrow()))
    return diags


# ---------------------------------------------------------------------------
# JSON views: one plain dict per value, written with json.dumps


def value_json(value) -> dict:
    if isinstance(value, Word):
        return {"kind": "word", "text": value.text}
    if isinstance(value, Var):
        return {"kind": "var", "name": value.name}
    return event_json(value)


def event_json(expr: EventExpression) -> dict:
    return {
        "kind": "event",
        "id": expr.id,
        "slots": [{"case": case, "value": value_json(value)}
                  for case, value in expr.slots],
    }


def substitution_json(subst) -> list[dict]:
    return [{"var": name, "value": value_json(value)} for name, value in subst]


def goal_support_json(support: GoalSupport) -> dict:
    return {
        "kind": "goal_support",
        "source": support.source,
        "target": support.target,
        "chain": list(support.chain),
        "final_state": support.final_state,
    }


def match_result_json(result: MatchResult) -> dict:
    return {
        "kind": "match_result",
        "schema": result.schema_name,
        "chain_length": result.chain_length,
        "anchors": [{"root": root, "event": event, "position": pos}
                    for root, event, pos in result.anchors],
        "node_map": [{"node": node, "event": event}
                     for node, event in result.node_map],
        "unmatched_nodes": sorted(result.unmatched),
        "substitution": substitution_json(result.substitution),
        "goal_supports": [goal_support_json(s) for s in result.supports],
    }


def memory_json(state: MemoryState) -> dict:
    return {
        "kind": "memory_state",
        "truths": sorted(state.truths),
        "confirmed_edges": [{"source": s, "label": l, "target": t}
                            for s, l, t in sorted(state.confirmed)],
    }


def segment_json(segment: Segment) -> dict:
    return {
        "kind": "segment",
        "schema": segment.schema_name,
        "start": segment.start,
        "end": segment.end,
        "events": list(segment.event_ids),
    }


def report_view(report: UnderstandingReport) -> dict:
    return {
        "kind": "understanding_report",
        "verdict": report.verdict,
        "chain_length": report.chain_length,
        "anchor_chain": list(report.anchor_chain),
        "segments": [segment_json(s) for s in report.segments],
        "matches": [match_result_json(r) for r in report.results],
        "memory": memory_json(report.state),
        "diagnostics": list(report.diagnostics),
    }


def story_json(story) -> dict:
    return {
        "kind": "story",
        "origin": story.origin,
        "nodes": [{"node": n.node_id, "event": n.event_id,
                   "expression": event_json(n.expr)} for n in story.nodes],
        "edges": [{"source": s, "label": l, "target": t}
                  for s, l, t in story.edges],
    }


def story_link_json(link) -> dict:
    return {
        "kind": "story_link",
        "from_story": link.from_story,
        "from_node": link.from_node,
        "to_story": link.to_story,
        "to_node": link.to_node,
    }


def diagram_view(diagram, dot: str) -> dict:
    return {
        "kind": "understanding_diagram",
        "stories": [story_json(s) for s in diagram.stories],
        "links": [story_link_json(l) for l in diagram.links],
        "dot": dot,
    }


def oracle_json(view) -> str:
    """The text every writer must produce for `view`."""
    return json.dumps(view, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# The command line, as argparse read it


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for syntax errors.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    in it, so every main() call in one process can share it."""
    parser = _ArgumentParser(
        prog="understory",
        description="Schema-based understanding of event corpora.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    check = sub.add_parser("check", help="parse one .events or .mps file")
    check.add_argument("file", help="path ending in .events or .mps")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("schemas", help="schema file (.mps)")
        p.add_argument("events", help="corpus file (.events)")
        p.add_argument("--assert", action="append", default=[], dest="asserts",
                       metavar="EVENT", help="hold this corpus event true")

    match = sub.add_parser("match", help="match each schema against the corpus")
    common(match)

    und = sub.add_parser("understand", help="segment the corpus and run memory rules")
    common(und)
    und.add_argument("--format", choices=("text", "json"), default="text")
    und.add_argument("--trace", action="store_true",
                     help="print rule firings to stderr")

    story = sub.add_parser("story", help="build the understanding diagram")
    common(story)
    story.add_argument("--dot", metavar="PATH", help="write Graphviz text here")
    story.add_argument("--format", choices=("text", "json"), default="text")

    return parser
