"""JSON views of engine results.

Every structure serializes to plain dicts and lists with a "kind" tag, so
the output is self-describing and byte-stable: set-like data is sorted,
everything else keeps its document or pipeline order.
"""

from __future__ import annotations

from json.encoder import encode_basestring as _encode_string

from .memory import GoalSupport, MemoryState
from .model import EventExpression, Substitution, SlotValue, Var, Word
from .schema import MatchResult, Segment, UnderstandingReport
from .story import Story, StoryLink, UnderstandingDiagram


def value_json(value: SlotValue) -> dict:
    if isinstance(value, Word):
        return {"kind": "word", "text": value.text}
    if isinstance(value, Var):
        return {"kind": "var", "name": value.name}
    return event_json(value.expr)


def event_json(expr: EventExpression) -> dict:
    return {
        "kind": "event",
        "id": expr.id,
        "slots": [{"case": case, "value": value_json(value)}
                  for case, value in expr.slots],
    }


def substitution_json(subst: Substitution) -> list[dict]:
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


def report_json(report: UnderstandingReport) -> dict:
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


def story_json(story: Story) -> dict:
    return {
        "kind": "story",
        "origin": story.origin,
        "nodes": [{"node": n.node_id, "event": n.event_id,
                   "expression": event_json(n.expr)} for n in story.nodes],
        "edges": [{"source": s, "label": l, "target": t}
                  for s, l, t in story.edges],
    }


def story_link_json(link: StoryLink) -> dict:
    return {
        "kind": "story_link",
        "from_story": link.from_story,
        "from_node": link.from_node,
        "to_story": link.to_story,
        "to_node": link.to_node,
    }


def diagram_json(diagram: UnderstandingDiagram, dot: str | None = None) -> dict:
    out = {
        "kind": "understanding_diagram",
        "stories": [story_json(s) for s in diagram.stories],
        "links": [story_link_json(l) for l in diagram.links],
    }
    if dot is not None:
        out["dot"] = dot
    return out


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2, ensure_ascii=False) + "\\n"`, byte for byte.

    With `indent` set, CPython's json falls back to its pure-Python encoder;
    this writer knows only the fixed layout and the value types the views
    above produce (dict with str keys, list, str, int, bool, None), encodes
    strings with the C `encode_basestring`, and raises TypeError on any
    other type.
    """
    out: list[str] = []
    _write(obj, 0, out, ["\n"])
    out.append("\n")
    return "".join(out)


def _write(obj, depth: int, out: list[str], newlines: list[str]) -> None:
    """Append the JSON text of `obj`, nested `depth` deep, to `out`.

    newlines[d] is a newline and the indent of depth d; it grows as needed,
    so every line of one call shares its indent string.
    """
    kind = type(obj)
    if kind is str:
        out.append(_encode_string(obj))
    elif kind is dict or kind is list:
        if not obj:
            out.append("{}" if kind is dict else "[]")
            return
        if len(newlines) == depth + 1:
            newlines.append(newlines[depth] + "  ")
        inner = newlines[depth + 1]
        if kind is dict:
            out.append("{")
            for key, value in obj.items():
                out.append(inner)
                out.append(_encode_string(key))
                out.append(": ")
                _write(value, depth + 1, out, newlines)
                out.append(",")
            out[-1] = newlines[depth]  # no comma after the last item
            out.append("}")
        else:
            out.append("[")
            for value in obj:
                out.append(inner)
                _write(value, depth + 1, out, newlines)
                out.append(",")
            out[-1] = newlines[depth]
            out.append("]")
    elif obj is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if obj else "false")
    elif kind is int:
        out.append(int.__repr__(obj))
    else:
        raise TypeError("cannot write %s as JSON" % kind.__name__)
