"""Command line front end.

Four subcommands: check (parse one file), match (each schema against the
whole corpus), understand (segment the corpus across all schemas and run
the memory rules), story (build the understanding diagram).  Results go
to stdout; diagnostics and traces go to stderr.  Exit codes: 0 success,
1 no match or not understandable, 2 syntax error, 3 validation error,
4 usage error (bad arguments, unreadable file, unknown --assert id).

An `understand` or `story` call holds its documents and understanding
until the next call.  If that call is an untraced `understand` or `story`
on files with the same paths and bytes and with the same --assert ids, it
gets them instead of a parse and a run: `understand` then `story` on
unchanged files in one process parse each file once and run the engine
once.  So the subcommands treat documents as read-only.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from . import report as report_mod
from .memory import MemoryState, UnknownEvent
from .schema import (
    MatchResult,
    SegmentationFailure,
    UnderstandingReport,
    match_sequence,
    understand,
)
from .story import build_understanding_diagram, export_dot
from .textio import (
    ParseError,
    ValidationError,
    load_corpus,
    load_schema_file,
    render_value,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_SYNTAX = 2
EXIT_VALIDATION = 3
EXIT_USAGE = 4


class _Exit(Exception):
    def __init__(self, code: int) -> None:
        self.code = code


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


# ---------------------------------------------------------------------------
# Helpers


def _stderr(message: str) -> None:
    print(message, file=sys.stderr)


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _load(loader, path: str):
    """loader(path); an error it raises is reported and ends the call with
    that error's exit code."""
    try:
        return loader(path)
    except ParseError as exc:
        _stderr("%s:%d:%d: syntax error: %s" % (path, exc.line, exc.col, exc.message))
        raise _Exit(EXIT_SYNTAX)
    except ValidationError as exc:
        _stderr("%s:%d:%d: validation error: %s"
                % (path, exc.line, exc.col, exc.message))
        raise _Exit(EXIT_VALIDATION)
    except OSError as exc:
        _stderr("cannot read '%s': %s" % (path, exc.strerror or exc))
        raise _Exit(EXIT_USAGE)


# The last `understand` or `story` call's (doc, corpus, outcome), keyed by
# both files' paths and bytes and the --assert ids; at most one entry.  It
# is held until the next call of any subcommand, which drops it before it
# parses anything, so a run over several documents holds nothing from one
# to the next.
_held: dict[tuple, tuple] = {}


def _understanding(args: argparse.Namespace, trace: Optional[list[str]] = None):
    """(doc, corpus, outcome) for the call's files and --assert ids, where
    outcome is understand()'s report or the SegmentationFailure it raised.
    Both files are read before either is parsed.  An untraced call with the
    held key gets the held value, once; any other call parses both files
    and runs the engine, and holds what it made, a traced run's too."""
    held_key, held = _held.popitem() if _held else ((), None)
    asserts = tuple(args.asserts)
    key = (args.schemas, _load(_read, args.schemas),
           args.events, _load(_read, args.events), asserts)
    if held_key == key and trace is None:
        return held
    # Let the dropped value go before the parse builds the next.
    del held_key, held
    doc = _load(load_schema_file, args.schemas)
    corpus = _load(load_corpus, args.events)
    try:
        outcome = understand(doc, corpus, assertions=asserts, trace=trace)
    except SegmentationFailure as failure:
        # Without its traceback, which holds understand()'s frames.
        failure.__traceback__ = None
        outcome = failure
    _held[key] = doc, corpus, outcome
    return _held[key]


def _match_line(result: MatchResult) -> str:
    anchors = ", ".join("%s=%s@%d" % a for a in result.anchors)
    nodes = ", ".join("%s=%s" % pair for pair in result.node_map)
    unmatched = ", ".join(sorted(result.unmatched))
    subst = ", ".join("%s=%s" % (name, render_value(value))
                      for name, value in result.substitution)
    return "%s: l=%d anchors [%s] nodes [%s] unmatched [%s] subst {%s}" % (
        result.schema_name, result.chain_length, anchors, nodes, unmatched, subst)


def _failure_report(failure: SegmentationFailure) -> UnderstandingReport:
    return UnderstandingReport(
        verdict="not-understandable",
        chain_length=0,
        anchor_chain=(),
        segments=(),
        results=(),
        state=failure.state,
        diagnostics=(str(failure),) + failure.diagnostics,
    )


def _print_report_text(report: UnderstandingReport) -> None:
    print("verdict: %s" % report.verdict)
    print("chain length: %d" % report.chain_length)
    chain = " -> ".join(report.anchor_chain) if report.anchor_chain else "-"
    print("anchor chain: %s" % chain)
    for i, seg in enumerate(report.segments, 1):
        print("segment %d: %s [%s]" % (i, seg.schema_name, " ".join(seg.event_ids)))
    for result in report.results:
        print("match %s" % _match_line(result))
    print("truths: %s" % (" ".join(sorted(report.state.truths)) or "-"))
    confirmed = ", ".join("%s -%s-> %s" % edge
                          for edge in sorted(report.state.confirmed))
    print("confirmed: %s" % (confirmed or "-"))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args: argparse.Namespace) -> int:
    _held.clear()
    path = args.file
    if path.endswith(".events"):
        doc = _load(load_corpus, path)
        print("ok: %d event(s)" % len(doc))
    elif path.endswith(".mps"):
        doc = _load(load_schema_file, path)
        print("ok: %d schema(s), %d link(s)" % (len(doc.schemas), len(doc.links)))
    else:
        _stderr("cannot tell the format of '%s' (expected .events or .mps)" % path)
        return EXIT_USAGE
    return EXIT_OK


def cmd_match(args: argparse.Namespace) -> int:
    _held.clear()
    doc = _load(load_schema_file, args.schemas)
    corpus = _load(load_corpus, args.events)
    state = MemoryState.for_corpus(corpus)
    for ev_id in args.asserts:
        state.assert_true(ev_id)
    matched = False
    for mp in doc.schemas:
        result = match_sequence(mp, corpus, state)
        if result is None:
            print("%s: no match" % mp.name)
        else:
            matched = True
            print(_match_line(result))
    return EXIT_OK if matched else EXIT_NO


def cmd_understand(args: argparse.Namespace) -> int:
    trace_lines: Optional[list[str]] = [] if args.trace else None
    _, _, outcome = _understanding(args, trace_lines)
    report = (_failure_report(outcome) if isinstance(outcome, SegmentationFailure)
              else outcome)
    if trace_lines:
        for line in trace_lines:
            _stderr(line)
    if args.format == "json":
        sys.stdout.write(report_mod.report_json(report))
    else:
        _print_report_text(report)
        for diag in report.diagnostics:
            _stderr("note: %s" % diag)
    return EXIT_OK if report.understandable else EXIT_NO


def cmd_story(args: argparse.Namespace) -> int:
    doc, corpus, outcome = _understanding(args)
    if isinstance(outcome, SegmentationFailure):
        _stderr(str(outcome))
        for diag in outcome.diagnostics:
            _stderr("note: %s" % diag)
        return EXIT_NO
    report = outcome
    if not report.understandable:
        for diag in report.diagnostics:
            _stderr("note: %s" % diag)
        _stderr("not understandable; no stories built")
        return EXIT_NO
    diagram = build_understanding_diagram(doc, corpus, report)
    dot = export_dot(diagram)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(dot)
        except OSError as exc:
            _stderr("cannot write '%s': %s" % (args.dot, exc.strerror or exc))
            return EXIT_USAGE
    if args.format == "json":
        sys.stdout.write(report_mod.diagram_json(diagram, dot=dot))
    elif args.dot:
        print("wrote diagram to %s (%d stories, %d links)"
              % (args.dot, len(diagram.stories), len(diagram.links)))
    else:
        sys.stdout.write(dot)
    return EXIT_OK


_HANDLERS = {
    "check": cmd_check,
    "match": cmd_match,
    "understand": cmd_understand,
    "story": cmd_story,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except _Exit as exc:
        return exc.code
    except UnknownEvent as exc:
        _stderr(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
