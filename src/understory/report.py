"""JSON text of engine results, written straight from the engine's values.

`report_json` and `diagram_json` return the finished text: byte for byte
`json.dumps(view, indent=2, ensure_ascii=False) + "\n"` of a view in which
every structure is a dict with a "kind" tag, set-like data is sorted and
everything else keeps its document or pipeline order.  No view is built.
Each fixed-key shape has one `%` template per depth (`_Shapes`), strings
are encoded with the C `encode_basestring`, and only nested `event {...}`
values recurse.  The views themselves are the oracle in tests/oracles.py,
and the tests check each writer against `json.dumps` of its view.

`dumps` is the stdlib call `json.dumps(obj, indent=2, ensure_ascii=False)`
plus a newline.  The pipeline does not call it; it stays only because
bench/tracer.py's TARGETS names it, and goes once the engine counts its
own work.
"""

from __future__ import annotations

import functools
import json
from json.encoder import encode_basestring as _encode_string
from typing import Optional

from .memory import GoalSupport, MemoryState
from .model import EventExpression, Var, Word
from .schema import MatchResult, Segment, UnderstandingReport
from .story import Story, StoryLink, StoryNode, UnderstandingDiagram


class _Shapes:
    """The `%` templates of every fixed-key shape whose braces open at the
    current position and close at indent `depth`; `list` and `comma` make
    a list whose items are written at depth + 1."""

    def __init__(self, depth: int) -> None:
        n0 = "\n" + "  " * depth
        n1, n2 = n0 + "  ", n0 + "    "

        def obj(*lines: str) -> str:
            return "{" + n1 + ("," + n1).join(lines) + n0 + "}"

        self.list = "[" + n1 + "%s" + n0 + "]"
        self.comma = "," + n1
        word = "{" + n2 + '"kind": "word",' + n2 + '"text": %s' + n1 + "}"
        var = "{" + n2 + '"kind": "var",' + n2 + '"name": %s' + n1 + "}"
        # A slot ("case") or a binding ("var"); the key comes quoted.
        self.word_entry = obj('%s: %s', '"value": ' + word)
        self.var_entry = obj('%s: %s', '"value": ' + var)
        self.event_entry = obj('%s: %s', '"value": %s')
        self.event = obj('"kind": "event"', '"id": %s', '"slots": %s')
        self.edge = obj('"source": %s', '"label": %s', '"target": %s')
        self.anchor = obj('"root": %s', '"event": %s', '"position": %d')
        self.node_entry = obj('"node": %s', '"event": %s')
        self.goal_support = obj('"kind": "goal_support"', '"source": %s',
                                '"target": %s', '"chain": %s', '"final_state": %s')
        self.match_result = obj('"kind": "match_result"', '"schema": %s',
                                '"chain_length": %d', '"anchors": %s',
                                '"node_map": %s', '"unmatched_nodes": %s',
                                '"substitution": %s', '"goal_supports": %s')
        self.memory = obj('"kind": "memory_state"', '"truths": %s',
                          '"confirmed_edges": %s')
        self.segment = obj('"kind": "segment"', '"schema": %s', '"start": %d',
                           '"end": %d', '"events": %s')
        self.report = obj('"kind": "understanding_report"', '"verdict": %s',
                          '"chain_length": %d', '"anchor_chain": %s',
                          '"segments": %s', '"matches": %s', '"memory": %s',
                          '"diagnostics": %s')
        self.story_node = obj('"node": %s', '"event": %s', '"expression": %s')
        self.story = obj('"kind": "story"', '"origin": %s', '"nodes": %s',
                         '"edges": %s')
        self.story_link = obj('"kind": "story_link"', '"from_story": %d',
                              '"from_node": %s', '"to_story": %d', '"to_node": %s')
        self.diagram = obj('"kind": "understanding_diagram"', '"stories": %s',
                           '"links": %s', '"dot": %s')


_shapes = functools.cache(_Shapes)


def _list(items: list[str], depth: int) -> str:
    """A list opened at `depth` of items already written at depth + 1."""
    if not items:
        return "[]"
    shapes = _shapes(depth)
    return shapes.list % shapes.comma.join(items)


def _strings(texts, depth: int) -> str:
    return _list([_encode_string(text) for text in texts], depth)


def _nullable(text: Optional[str]) -> str:
    return "null" if text is None else _encode_string(text)


def _event(expr: EventExpression, depth: int) -> str:
    return _shapes(depth).event % (
        _nullable(expr.id), _list(_entries(expr.slots, '"case"', depth + 2), depth + 1))


def _entries(pairs, key: str, depth: int) -> list[str]:
    """One `{key: name, "value": value}` object at `depth` per (name, value)
    pair: the slots of an event, or the bindings of a substitution."""
    shapes = _shapes(depth)
    entries = []
    for name, value in pairs:
        kind = type(value)
        if kind is Word:
            entries.append(shapes.word_entry % (key, _encode_string(name),
                                                _encode_string(value.text)))
        elif kind is Var:
            entries.append(shapes.var_entry % (key, _encode_string(name),
                                               _encode_string(value.name)))
        else:
            entries.append(shapes.event_entry % (key, _encode_string(name),
                                                 _event(value, depth + 1)))
    return entries


def _edges(edges, depth: int) -> str:
    template = _shapes(depth + 1).edge
    return _list([template % (_encode_string(source), _encode_string(label),
                              _encode_string(target))
                  for source, label, target in edges], depth)


def _goal_supports(supports: tuple[GoalSupport, ...], depth: int) -> str:
    template = _shapes(depth + 1).goal_support
    return _list([template % (_encode_string(s.source), _encode_string(s.target),
                              _strings(s.chain, depth + 2),
                              _encode_string(s.final_state))
                  for s in supports], depth)


def _match_result(result: MatchResult, depth: int) -> str:
    entry = _shapes(depth + 2)
    return _shapes(depth).match_result % (
        _encode_string(result.schema_name),
        result.chain_length,
        _list([entry.anchor % (_encode_string(root), _encode_string(event), pos)
               for root, event, pos in result.anchors], depth + 1),
        _list([entry.node_entry % (_encode_string(node), _encode_string(event))
               for node, event in result.node_map], depth + 1),
        _strings(sorted(result.unmatched), depth + 1),
        _list(_entries(result.substitution, '"var"', depth + 2), depth + 1),
        _goal_supports(result.supports, depth + 1),
    )


def _memory(state: MemoryState, depth: int) -> str:
    return _shapes(depth).memory % (_strings(sorted(state.truths), depth + 1),
                                    _edges(sorted(state.confirmed), depth + 1))


def _segment(segment: Segment, depth: int) -> str:
    return _shapes(depth).segment % (
        _encode_string(segment.schema_name), segment.start, segment.end,
        _strings(segment.event_ids, depth + 1))


def report_json(report: UnderstandingReport) -> str:
    """The report as JSON text, ending in a newline."""
    return _shapes(0).report % (
        _encode_string(report.verdict),
        report.chain_length,
        _strings(report.anchor_chain, 1),
        _list([_segment(s, 2) for s in report.segments], 1),
        _list([_match_result(r, 2) for r in report.results], 1),
        _memory(report.state, 1),
        _strings(report.diagnostics, 1),
    ) + "\n"


def _story_node(node: StoryNode, depth: int) -> str:
    return _shapes(depth).story_node % (
        _encode_string(node.node_id), _nullable(node.event_id),
        _event(node.expr, depth + 1))


def _story(story: Story, depth: int) -> str:
    return _shapes(depth).story % (
        _encode_string(story.origin),
        _list([_story_node(n, depth + 2) for n in story.nodes], depth + 1),
        _edges(story.edges, depth + 1))


def _story_link(link: StoryLink, depth: int) -> str:
    return _shapes(depth).story_link % (
        link.from_story, _encode_string(link.from_node),
        link.to_story, _encode_string(link.to_node))


def diagram_json(diagram: UnderstandingDiagram, dot: str) -> str:
    """The diagram, with `dot` as its Graphviz text, as JSON text ending in
    a newline."""
    return _shapes(0).diagram % (
        _list([_story(s, 2) for s in diagram.stories], 1),
        _list([_story_link(l, 2) for l in diagram.links], 1),
        _encode_string(dot),
    ) + "\n"


def dumps(obj) -> str:
    """`obj` as indented JSON text ending in a newline."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
