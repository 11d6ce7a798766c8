"""Command line front end.

Four subcommands: check (parse one file), match (each schema against the
whole corpus), understand (segment the corpus across all schemas and run
the memory rules), story (build the understanding diagram).  Results go
to stdout; diagnostics and traces go to stderr.  Exit codes: 0 success,
1 no match or not understandable, 2 syntax error, 3 validation error,
4 usage error (bad arguments, unreadable file, unknown --assert id,
unwritable --dot path, stdout that takes no more output).  Exits 2-4
write nothing to stdout.  A stderr that takes no more output leaves the
exit code as it would have been.

The argv is a command, then its positionals and options in any order.
An option's value follows it as the next token or after `=`; an option
may be cut to a unique prefix (`--form json`); a repeated --assert adds
an id, any other repeated option keeps its last value; and every token
after `--` is a positional, so a file may start with `-`.  -h or --help,
at the top or after a command, prints one usage text of every command to
stdout and exits 0.  Any other bad argv prints a `usage:` line and an
`error:` line to stderr, nothing to stdout, and exits 4.

An `understand` or `story` call holds its documents and understanding
until the next call.  If that call is an untraced `understand` or `story`
on files with the same paths and bytes and with the same --assert ids, it
gets them instead of a parse and a run: `understand` then `story` on
unchanged files in one process parse each file once and run the engine
once.  So the subcommands treat documents as read-only.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace
from typing import NoReturn, Optional, Sequence

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
    SourceError,
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
    """Ends a call with its exit code, its stderr lines and its stdout."""

    def __init__(self, code: int, err: Sequence[str] = (), out: str = "") -> None:
        self.code, self.err, self.out = code, err, out


# The grammar, one entry per command: its usage line, as argparse wrapped
# it at 80 columns, its positionals in order, and its options, -h/--help
# first.
_USAGE = "understory [-h] command ..."
_COMMANDS = {
    "check": ("understory check [-h] file", ("file",), ("--help",)),
    "match": ("understory match [-h] [--assert EVENT] schemas events",
              ("schemas", "events"), ("--help", "--assert")),
    "understand": ("understory understand [-h] [--assert EVENT] [--format {text,json}]\n"
                   "                             [--trace]\n"
                   "                             schemas events",
                   ("schemas", "events"), ("--help", "--assert", "--format", "--trace")),
    "story": ("understory story [-h] [--assert EVENT] [--dot PATH]\n"
              "                        [--format {text,json}]\n"
              "                        schemas events",
              ("schemas", "events"), ("--help", "--assert", "--dot", "--format")),
}
# Per option: its field, its default, and what it takes: any value (None),
# one of some choices (a tuple), or no value (a flag, ()).  An option with
# a list default collects every value given; any other keeps the last.
_OPTIONS = {
    "--help": (None, None, ()),
    "--assert": ("asserts", [], None),
    "--dot": ("dot", None, None),
    "--format": ("format", "text", ("text", "json")),
    "--trace": ("trace", False, ()),
}
_HELP = "usage: %s\n" % "\n       ".join([_USAGE] + [c[0] for c in _COMMANDS.values()])


def _usage_error(usage: str, message: str) -> NoReturn:
    raise _Exit(EXIT_USAGE, ["usage: " + usage, "error: " + message])


def _option(token: str, names: Sequence[str], usage: str) -> Optional[tuple]:
    """(option, its `=` value or None) for an argv token that names one of
    `names` in full or by a unique prefix, or -h; (None, None) for any
    other option; None for a positional, which includes "-", a negative
    number and a token with a space."""
    if token[:2] == "--":
        name, eq, value = token.partition("=")
        found = [option for option in names if option.startswith(name)]
        if len(found) > 1:
            _usage_error(usage, "ambiguous option: %s could match %s"
                         % (token, ", ".join(found)))
        if found:
            return found[0], value if eq else None
    elif token[:2] == "-h":  # "-hh" bundles two -h flags
        return "--help", token[2:].lstrip("h") or None
    elif token[:1] != "-" or token == "-":
        return None
    if " " in token or re.match(r"-\d+$|-\d*\.\d+$", token):
        return None
    return None, None


def _read_argv(argv: Sequence[str]) -> SimpleNamespace:
    """The fields argv sets, read in one pass as argparse read them: the
    command, then its positionals and options in any order, `--opt=value`,
    an option shortened to a unique prefix, and every token after `--` a
    positional.  -h/--help ends the call with 0 and _HELP on stdout; any
    other bad argv ends it with 4 and a usage and an error line."""
    usage, wanted, names = _USAGE, ["command"], ("--help",)
    fields, extras, tokens, options_ended = {}, [], iter(argv), False
    for token in tokens:
        if token == "--" and not options_ended:
            options_ended = True
            continue
        option = None if options_ended else _option(token, names, usage)
        if option is None and wanted:
            field = wanted.pop(0)
            fields[field] = token
            if field == "command":
                if token not in _COMMANDS:
                    _usage_error(usage, "argument command: invalid choice: %r (choose from %s)"
                                 % (token, ", ".join(map(repr, _COMMANDS))))
                usage, wanted, names = _COMMANDS[token]
                wanted = list(wanted)
                fields.update(_OPTIONS[name][:2] for name in names[1:])
        elif option is None or option[0] is None:
            extras.append(token)
        else:
            name, value = option
            field, default, takes = _OPTIONS[name]
            if takes == ():
                if value is not None:
                    _usage_error(usage, "argument %s: ignored explicit argument %r"
                                 % (name, value))
                if name == "--help":
                    raise _Exit(EXIT_OK, out=_HELP)
                value = True
            elif value is None:
                value = next(tokens, None)
                if value is None or value == "--" or _option(value, names, usage):
                    _usage_error(usage, "argument %s: expected one argument" % name)
            if takes and value not in takes:
                _usage_error(usage, "argument %s: invalid choice: %r (choose from %s)"
                             % (name, value, ", ".join(map(repr, takes))))
            fields[field] = fields[field] + [value] if default == [] else value
    if wanted:
        _usage_error(usage, "the following arguments are required: %s"
                     % ", ".join(wanted))
    if extras:
        _usage_error(_USAGE, "unrecognized arguments: %s" % " ".join(extras))
    return SimpleNamespace(**fields)


# ---------------------------------------------------------------------------
# Helpers


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _load(loader, path: str):
    """loader(path); an error it raises ends the call with that error's exit
    code and one line that locates it."""
    try:
        return loader(path)
    except SourceError as exc:
        code, kind = ((EXIT_SYNTAX, "syntax") if isinstance(exc, ParseError)
                      else (EXIT_VALIDATION, "validation"))
        raise _Exit(code, ["%s:%d:%d: %s error: %s"
                           % (path, exc.line, exc.col, kind, exc.message)])
    except OSError as exc:
        raise _Exit(EXIT_USAGE, ["cannot read '%s': %s" % (path, exc.strerror or exc)])


# The last `understand` or `story` call's (doc, corpus, outcome), keyed by
# both files' paths and bytes and the --assert ids; at most one entry.  It
# is held until the next call of any subcommand, which drops it before it
# parses anything, so a run over several documents holds nothing from one
# to the next.
_held: dict[tuple, tuple] = {}


def _understanding(args: SimpleNamespace, trace: Optional[list[str]] = None):
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


def _report_text(report: UnderstandingReport) -> str:
    chain = " -> ".join(report.anchor_chain) if report.anchor_chain else "-"
    confirmed = ", ".join("%s -%s-> %s" % edge
                          for edge in sorted(report.state.confirmed))
    return _lines(["verdict: %s" % report.verdict,
                   "chain length: %d" % report.chain_length,
                   "anchor chain: %s" % chain]
                  + ["segment %d: %s [%s]" % (i, seg.schema_name, " ".join(seg.event_ids))
                     for i, seg in enumerate(report.segments, 1)]
                  + ["match %s" % _match_line(result) for result in report.results]
                  + ["truths: %s" % (" ".join(sorted(report.state.truths)) or "-"),
                     "confirmed: %s" % (confirmed or "-")])


def _lines(lines: Sequence[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _notes(diagnostics: Sequence[str]) -> list[str]:
    return ["note: %s" % diag for diag in diagnostics]


def _drop_buffer(stream, standard) -> None:
    """Points the file of a standard stream that refused output at devnull,
    so the flush at exit of its unwritten buffer neither fails nor exits
    120.  A replaced stream (capsys, the bench) is left in place."""
    if stream is standard:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


# ---------------------------------------------------------------------------
# Subcommands: each returns (exit code, stdout, stderr lines) or raises
# _Exit, and main writes both streams.


def cmd_check(args: SimpleNamespace) -> tuple:
    _held.clear()
    path = args.file
    if path.endswith(".events"):
        return EXIT_OK, "ok: %d event(s)\n" % len(_load(load_corpus, path)), ()
    if path.endswith(".mps"):
        doc = _load(load_schema_file, path)
        return EXIT_OK, "ok: %d schema(s), %d link(s)\n" % (len(doc.schemas),
                                                             len(doc.links)), ()
    raise _Exit(EXIT_USAGE, ["cannot tell the format of '%s' (expected .events or .mps)"
                             % path])


def cmd_match(args: SimpleNamespace) -> tuple:
    _held.clear()
    doc = _load(load_schema_file, args.schemas)
    corpus = _load(load_corpus, args.events)
    state = MemoryState.for_corpus(corpus)
    for ev_id in args.asserts:
        state.assert_true(ev_id)
    results = [(mp, match_sequence(mp, corpus, state)) for mp in doc.schemas]
    matched = any(result is not None for _, result in results)
    return EXIT_OK if matched else EXIT_NO, _lines([
        "%s: no match" % mp.name if result is None else _match_line(result)
        for mp, result in results]), ()


def cmd_understand(args: SimpleNamespace) -> tuple:
    trace: Optional[list[str]] = [] if args.trace else None
    _, _, outcome = _understanding(args, trace)
    report = (_failure_report(outcome) if isinstance(outcome, SegmentationFailure)
              else outcome)
    code = EXIT_OK if report.understandable else EXIT_NO
    if args.format == "json":
        return code, report_mod.report_json(report), trace or ()
    return code, _report_text(report), (trace or []) + _notes(report.diagnostics)


def cmd_story(args: SimpleNamespace) -> tuple:
    doc, corpus, outcome = _understanding(args)
    if isinstance(outcome, SegmentationFailure):
        raise _Exit(EXIT_NO, [str(outcome)] + _notes(outcome.diagnostics))
    if not outcome.understandable:
        raise _Exit(EXIT_NO, _notes(outcome.diagnostics)
                    + ["not understandable; no stories built"])
    diagram = build_understanding_diagram(doc, corpus, outcome)
    dot = export_dot(diagram)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(dot)
        except OSError as exc:
            raise _Exit(EXIT_USAGE, ["cannot write '%s': %s"
                                     % (args.dot, exc.strerror or exc)])
    if args.format == "json":
        return EXIT_OK, report_mod.diagram_json(diagram, dot=dot), ()
    if args.dot:
        return EXIT_OK, "wrote diagram to %s (%d stories, %d links)\n" % (
            args.dot, len(diagram.stories), len(diagram.links)), ()
    return EXIT_OK, dot, ()


_HANDLERS = {
    "check": cmd_check,
    "match": cmd_match,
    "understand": cmd_understand,
    "story": cmd_story,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one call and write its output: the only writer of both streams.
    A stdout that refuses the output turns the code into 4; a stderr that
    refuses its lines changes nothing."""
    try:
        args = _read_argv(sys.argv[1:] if argv is None else argv)
        code, out, err = _HANDLERS[args.command](args)
    except _Exit as exc:
        code, out, err = exc.code, exc.out, exc.err
    except UnknownEvent as exc:
        code, out, err = EXIT_USAGE, "", [str(exc)]
    try:
        sys.stdout.write(out)
        # So a buffered write that stdout refuses fails here, not at exit.
        sys.stdout.flush()
    except OSError as exc:
        code, err = EXIT_USAGE, [*err, "cannot write to stdout: %s" % (exc.strerror or exc)]
        _drop_buffer(sys.stdout, sys.__stdout__)
    try:
        sys.stderr.write(_lines(err))
        sys.stderr.flush()
    except OSError:
        _drop_buffer(sys.stderr, sys.__stderr__)
    return code


if __name__ == "__main__":
    sys.exit(main())
