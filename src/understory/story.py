"""Turning matched schemas into stories and the final understanding diagram.

A story is a schema whose nodes have been replaced by concrete events:
matched nodes take their corpus event, unmatched nodes take their node
expression with the match substitution applied.  Test factors are dropped
in the process; edge count is preserved.  The diagram gathers the stories
for one document in reading order and adds the declared cross-schema
sequel links between them.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional

from .matching import confirm_unmatched
from .model import (
    CorpusDocument,
    EventExpression,
    PreconditionError,
    apply_substitution,
)
from .schema import MatchResult, MemorySchema, SchemaDocument, UnderstandingReport
from .textio import render_expression_inline


class StoryNode(NamedTuple):
    node_id: str
    event_id: Optional[str]  # corpus id when the node was matched
    expr: EventExpression  # always ground


class Story(NamedTuple):
    origin: str  # schema name
    nodes: tuple[StoryNode, ...]  # schema document order
    edges: tuple[tuple[str, str, str], ...]  # (source, label, target)


class StoryLink(NamedTuple):
    from_story: int
    from_node: str
    to_story: int
    to_node: str


class UnderstandingDiagram(NamedTuple):
    stories: tuple[Story, ...]
    links: tuple[StoryLink, ...]


def build_story(mp: MemorySchema, result: MatchResult,
                events: Mapping[str, EventExpression]) -> Story:
    """Instantiate one matched schema against the events it matched.

    `events` maps every corpus event id to its event, as
    build_understanding_diagram builds it once per document.  A matched
    node takes its event; any other node takes its expression under the
    match's substitution, and PreconditionError is raised when that leaves
    a variable unbound.
    """
    mapping = result.node_events()
    subst = result.substitution
    nodes: list[StoryNode] = []
    for node_id, template in mp.nodes.items():
        event_id = mapping.get(node_id)
        if event_id is not None:
            nodes.append(StoryNode(node_id, event_id, events[event_id]))
            continue
        if not confirm_unmatched((template,), subst):
            raise PreconditionError(
                "node '%s' is neither matched nor fully bound" % node_id)
        grounded = apply_substitution(template, subst)
        nodes.append(StoryNode(node_id, None, grounded))
    edges = tuple((e.source, e.label, e.target) for e in mp.all_edges())
    return Story(mp.name, tuple(nodes), edges)


def build_understanding_diagram(doc: SchemaDocument, corpus: CorpusDocument,
                                report: UnderstandingReport) -> UnderstandingDiagram:
    """Assemble the diagram for a fully understood document."""
    schemas = {mp.name: mp for mp in doc.schemas}
    events = {ev.id: ev for ev in corpus.events}
    stories: list[Story] = []
    index: dict[str, int] = {}
    for result in report.results:
        mp = schemas[result.schema_name]
        index[mp.name] = len(stories)
        stories.append(build_story(mp, result, events))
    links: list[StoryLink] = []
    for link in doc.links:
        if link.from_schema in index and link.to_schema in index:
            links.append(StoryLink(index[link.from_schema], link.from_node,
                                   index[link.to_schema], link.to_node))
    return UnderstandingDiagram(tuple(stories), tuple(links))


# ---------------------------------------------------------------------------
# Output


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_label(node: StoryNode) -> str:
    body = render_expression_inline(node.expr)
    if node.event_id is not None:
        return "%s = %s %s" % (node.node_id, node.event_id, body)
    return "%s %s" % (node.node_id, body)


def export_dot(diagram: UnderstandingDiagram) -> str:
    """Graphviz text for the diagram; stable bytes for a given diagram."""
    lines = ["digraph U {", "  rankdir=LR;", "  node [shape=box];"]
    for i, story in enumerate(diagram.stories):
        lines.append("  subgraph cluster_%d {" % i)
        lines.append('    label="%s";' % _dot_escape(story.origin))
        for node in story.nodes:
            lines.append('    "%d.%s" [label="%s"];'
                         % (i, node.node_id, _dot_escape(_node_label(node))))
        for source, label, target in story.edges:
            lines.append('    "%d.%s" -> "%d.%s" [label="%s"];'
                         % (i, source, i, target, label))
        lines.append("  }")
    for link in diagram.links:
        lines.append('  "%d.%s" -> "%d.%s" [label="sequel"];'
                     % (link.from_story, link.from_node,
                        link.to_story, link.to_node))
    lines.append("}")
    return "\n".join(lines) + "\n"
