"""Output checks against the facts the generator knows.

Each function returns a list of problems; an empty list means the output
is right.  Nothing here compares against a saved copy of earlier output.
"""

from __future__ import annotations

import json

from gen import Doc


def _load(stdout: str, problems: list[str]):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        problems.append("stdout is not JSON: %s" % exc)
        return None


def check_understand(doc: Doc, code: int, stdout: str) -> list[str]:
    """`understand --format json`: exit code and report against the generated facts."""
    problems: list[str] = []
    want_code = 1 if doc.dead_end else 0
    if code != want_code:
        problems.append("exit code %d, expected %d" % (code, want_code))
    report = _load(stdout, problems)
    if not isinstance(report, dict):
        return problems or ["report is not an object"]
    m = len(doc.schema_names)
    if doc.dead_end:
        if report.get("verdict") != "not-understandable":
            problems.append("verdict %r on a dead-end document" % report.get("verdict"))
        want = "segmentation failed: best attempt matched %d of %d schemas" % (m - 1, m)
        diags = report.get("diagnostics") or [None]
        if diags[0] != want:
            problems.append("first diagnostic %r, expected %r" % (diags[0], want))
        return problems
    if report.get("verdict") != "understandable":
        problems.append("verdict %r" % report.get("verdict"))
    if report.get("chain_length") != doc.chain_length:
        problems.append("chain_length %r, expected %d"
                        % (report.get("chain_length"), doc.chain_length))
    if len(report.get("anchor_chain", ())) != doc.chain_length:
        problems.append("anchor chain has %d events, expected %d"
                        % (len(report.get("anchor_chain", ())), doc.chain_length))
    want_segments = [{"kind": "segment", "schema": b.schema, "start": b.start,
                      "end": b.end, "events": list(b.events)} for b in doc.blocks]
    if report.get("segments") != want_segments:
        problems.append("segments differ from the generated blocks")
    truths = set(report.get("memory", {}).get("truths", ()))
    missing = [ev for ev in doc.event_ids if ev not in truths]
    if missing:
        problems.append("events not in truths: %s" % " ".join(missing))
    matches = report.get("matches", [])
    if [r.get("schema") for r in matches] != list(doc.schema_names):
        problems.append("matched schemas %r, expected %r"
                        % ([r.get("schema") for r in matches], list(doc.schema_names)))
        return problems
    for result in matches:
        name = result["schema"]
        anchors = [{"root": r, "event": e, "position": p} for r, e, p in doc.anchors[name]]
        if result.get("anchors") != anchors:
            problems.append("schema %s: anchors differ from the intended map" % name)
        node_map = [{"node": n, "event": e} for n, e in sorted(doc.node_maps[name].items())]
        if result.get("node_map") != node_map:
            problems.append("schema %s: node map differs from the intended map" % name)
        if result.get("unmatched_nodes"):
            problems.append("schema %s: unmatched nodes %r" % (name, result["unmatched_nodes"]))
    return problems


def check_story(doc: Doc, code: int, stdout: str) -> list[str]:
    """`story --format json`: one story per schema, one link per declared link."""
    if doc.dead_end:
        problems = [] if code == 1 else ["exit code %d, expected 1" % code]
        if stdout:
            problems.append("story printed output for a dead-end document")
        return problems
    problems = [] if code == 0 else ["exit code %d, expected 0" % code]
    diagram = _load(stdout, problems)
    if not isinstance(diagram, dict):
        return problems or ["diagram is not an object"]
    stories = diagram.get("stories", [])
    if [s.get("origin") for s in stories] != list(doc.schema_names):
        problems.append("stories %r, expected one per schema %r"
                        % ([s.get("origin") for s in stories], list(doc.schema_names)))
        return problems
    for story in stories:
        name = story["origin"]
        want = {root: ev for root, ev, _ in doc.anchors[name]}
        want.update(doc.node_maps[name])
        got = {n.get("node"): n.get("event") for n in story.get("nodes", [])}
        if got != want:
            problems.append("story %s: nodes differ from the intended map" % name)
    if len(diagram.get("links", [])) != doc.links:
        problems.append("%d story links, expected %d"
                        % (len(diagram.get("links", [])), doc.links))
    dot = diagram.get("dot", "")
    clusters = dot.count("subgraph cluster_")
    if clusters != len(doc.schema_names):
        problems.append("%d DOT clusters, expected %d" % (clusters, len(doc.schema_names)))
    return problems
