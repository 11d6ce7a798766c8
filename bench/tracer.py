"""Per-layer tracing from outside the engine.

`Tracer` replaces module-level names that the engine resolves at call time
with wrappers, and puts the originals back when its `with` block ends.
Coarse calls get a span (name, start, end, parent span, document id);
hot calls (`match_event`, `merge`, `MemoryState.query/confirm`) only
count, since a span per call would cost more than the call itself.  Spans
are kept in memory and summarised, or written out, after the run.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict

import understory.cli
import understory.memory
import understory.report
import understory.schema
import understory.textio

# (owner, attribute, span name or None for count-only)
TARGETS = (
    (understory.cli, "load_schema_file", "textio.load_schemas"),
    (understory.cli, "load_corpus", "textio.load_corpus"),
    (understory.cli, "understand", "schema.understand"),
    (understory.cli, "build_understanding_diagram", "story.diagram"),
    (understory.cli, "export_dot", "story.dot"),
    (understory.report, "report_json", "report.json"),
    (understory.report, "diagram_json", "report.json"),
    (understory.report, "dumps", "report.json"),
    (understory.textio, "validate_memory_schema", "textio.validate"),
    (understory.schema, "_search", "schema.seqmatch"),
    (understory.schema, "run_fixpoint_group", "memory.fixpoint"),
    (understory.schema, "check_understandable", "schema.verdict"),
    (understory.schema.MemorySchema, "tree_of", "schema.tree_of"),
    (understory.schema, "match_event", None),
    (understory.schema, "merge", None),
    (understory.memory.MemoryState, "query", None),
    (understory.memory.MemoryState, "confirm", None),
)

# Per-layer metric names with unit and better direction, in report order.
METRICS = (
    ("textio.load_schemas.ms", "ms", "lower"),
    ("textio.load_corpus.ms", "ms", "lower"),
    ("textio.validate.ms", "ms", "lower"),
    ("textio.validate.calls", "count", "lower"),
    ("schema.tree_of.calls", "count", "lower"),
    ("schema.tree_of.ms", "ms", "lower"),
    ("schema.understand.self_ms", "ms", "lower"),
    ("schema.cut_attempts", "count", "lower"),
    ("schema.seqmatch.calls", "count", "lower"),
    ("schema.seqmatch.ms", "ms", "lower"),
    ("schema.seqmatch.hit_ratio", "ratio", "higher"),
    ("matching.match_event.calls", "count", "lower"),
    ("matching.match_event.hit_ratio", "ratio", "higher"),
    ("matching.merge.calls", "count", "lower"),
    ("memory.fixpoint.calls", "count", "lower"),
    ("memory.fixpoint.ms", "ms", "lower"),
    ("memory.query.calls", "count", "lower"),
    ("memory.confirm.calls", "count", "lower"),
    ("schema.verdict.ms", "ms", "lower"),
    ("story.diagram.ms", "ms", "lower"),
    ("story.dot.ms", "ms", "lower"),
    ("report.json.ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class Tracer:
    """Spans and counts for every traced call made inside its `with` block."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.doc = 0
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._first_schema = None
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, span in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, attr, span))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, attr: str, span: str | None):
        counts = self.counts
        if span is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[attr] += 1
                if result:
                    counts[attr + ".hits"] += 1
                return result
            return counted

        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        ids = self._ids

        def spanned(*args, **kwargs):
            if attr == "understand":
                self._first_schema = args[0].schemas[0] if args[0].schemas else None
            elif attr == "_search" and args[0] is self._first_schema:
                counts["cut_attempts"] += 1
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.doc, span_id, parent, span, start, end))
                counts[span + ".calls"] += 1
            if result is not None:
                counts[span + ".hits"] += 1
            return result
        return spanned


def summarise(spans, counts: Counter) -> dict[str, float]:
    """Per-layer totals: span time in ms, self time, call counts, hit ratios."""
    total_ns: dict[str, int] = defaultdict(int)
    child_ns: dict[tuple[int, int], int] = defaultdict(int)
    for doc, _, parent, _, start, end in spans:
        if parent:
            child_ns[doc, parent] += end - start
    understand_self = 0
    for doc, span_id, _, name, start, end in spans:
        total_ns[name] += end - start
        if name == "schema.understand":
            understand_self += end - start - child_ns[doc, span_id]

    def ms(ns: int) -> float:
        return ns / 1e6

    def ratio(hits: int, calls: int) -> float:
        return hits / calls if calls else 0.0

    return {
        "textio.load_schemas.ms": ms(total_ns["textio.load_schemas"]),
        "textio.load_corpus.ms": ms(total_ns["textio.load_corpus"]),
        "textio.validate.ms": ms(total_ns["textio.validate"]),
        "textio.validate.calls": counts["textio.validate.calls"],
        "schema.tree_of.calls": counts["schema.tree_of.calls"],
        "schema.tree_of.ms": ms(total_ns["schema.tree_of"]),
        "schema.understand.self_ms": ms(understand_self),
        "schema.cut_attempts": counts["cut_attempts"],
        "schema.seqmatch.calls": counts["schema.seqmatch.calls"],
        "schema.seqmatch.ms": ms(total_ns["schema.seqmatch"]),
        "schema.seqmatch.hit_ratio": ratio(counts["schema.seqmatch.hits"],
                                           counts["schema.seqmatch.calls"]),
        "matching.match_event.calls": counts["match_event"],
        "matching.match_event.hit_ratio": ratio(counts["match_event.hits"],
                                                counts["match_event"]),
        "matching.merge.calls": counts["merge"],
        "memory.fixpoint.calls": counts["memory.fixpoint.calls"],
        "memory.fixpoint.ms": ms(total_ns["memory.fixpoint"]),
        "memory.query.calls": counts["query"],
        "memory.confirm.calls": counts["confirm"],
        "schema.verdict.ms": ms(total_ns["schema.verdict"]),
        "story.diagram.ms": ms(total_ns["story.diagram"]),
        "story.dot.ms": ms(total_ns["story.dot"]),
        "report.json.ms": ms(total_ns["report.json"]),
    }
