import contextlib
import errno
import gc
import io
import itertools
import json
import os
import pathlib
import random
import re
import shutil
import subprocess
import sys
import weakref
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from understory import SegmentationFailure, cli, load_corpus, load_schema_file
from understory.cli import main

from conftest import FIXTURES, fixture_path
from documents import strict
from generators import linked_chain_texts, star_texts
from oracles import build_parser

DAY = fixture_path("day.events")
EMPTY = fixture_path("empty.mps")
MORNING = fixture_path("morning.mps")
PAIR = fixture_path("pair.mps")
PAIR_NOLINK = fixture_path("pair_nolink.mps")
PAIR_TEXT = pathlib.Path(PAIR).read_text(encoding="utf-8")

# The exit codes the README documents.
README_EXIT_CODES = (0, 1, 2, 3, 4)


@pytest.fixture
def one_event(tmp_path):
    path = tmp_path / "one.events"
    path.write_text("event e1 { actor: kim action: wake }\n")
    return str(path)


@pytest.fixture
def nested_pair(tmp_path):
    """One schema and one event, whose ?X binds a nested event two deep."""
    schemas = tmp_path / "reading.mps"
    schemas.write_text("memory_schema reading {\n  roots: [r1]\n"
                       "  node r1 = schema { actor: ?P action: read obj: ?X }\n}\n")
    events = tmp_path / "one.events"
    events.write_text("event e1 { actor: kim action: read "
                      "obj: event { isa: book mod: event { isa: red } } }\n")
    return str(schemas), str(events)


NESTED_MATCH = ("reading: l=1 anchors [r1=e1@1] nodes [] unmatched [] "
                "subst {P=kim, X=event {isa: book mod: event {isa: red}}}")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_corpus_file(self, capsys):
        code, out, err = run(capsys, "check", DAY)
        assert (code, out, err) == (0, "ok: 4 event(s)\n", "")

    def test_schema_file(self, capsys):
        code, out, _ = run(capsys, "check", PAIR)
        assert (code, out) == (0, "ok: 2 schema(s), 1 link(s)\n")

    def test_unknown_extension(self, capsys, tmp_path):
        # The name alone decides the format: well-formed files under names
        # that end in neither .events nor .mps are refused too.
        (tmp_path / "notes.txt").write_text("whatever")
        shutil.copy(DAY, tmp_path / "day.events.bak")
        shutil.copy(PAIR, tmp_path / "pair.MPS")
        shutil.copy(PAIR, tmp_path / "mps")
        for name in ("notes.txt", "day.events.bak", "pair.MPS", "mps"):
            path = tmp_path / name
            code, out, err = run(capsys, "check", str(path))
            assert (code, out) == (4, "")
            assert err == ("cannot tell the format of '%s' "
                           "(expected .events or .mps)\n" % path)

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "no/such/file.events")
        assert code == 4
        assert err.startswith("cannot read 'no/such/file.events':")

    def test_syntax_error_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.events"
        bad.write_text("event e1 {\n  actor kim\n}\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert err == ("%s:2:9: syntax error: "
                       "expected ':' after case label\n" % bad)

    def test_validation_error_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.events"
        bad.write_text("event e1 { actor: kim }\nevent e1 { actor: lee }\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 3
        assert err == "%s:2:7: validation error: duplicate event id: 'e1'\n" % bad

    def test_duplicate_link_is_a_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.mps"
        bad.write_text(PAIR_TEXT + "link waking.w1 -sequel-> going.g1\n")
        code, out, err = run(capsys, "check", str(bad))
        assert (code, out) == (3, "")
        assert err == ("%s:%d:1: validation error: duplicate link: "
                       "waking.w1 -sequel-> going.g1\n"
                       % (bad, PAIR_TEXT.count("\n") + 1))


class TestMatch:
    def test_full_match_line(self, capsys):
        code, out, _ = run(capsys, "match", MORNING, DAY, "--assert", "e1")
        assert code == 0
        assert out == ("morning: l=2 anchors [s1=e1@1, s3=e3@3] "
                       "nodes [s2=e2, s4=e4] unmatched [] "
                       "subst {D=school, P=kim}\n")

    def test_no_assertion_means_no_match(self, capsys):
        code, out, _ = run(capsys, "match", MORNING, DAY)
        assert code == 1
        assert out == "morning: no match\n"

    def test_schemas_report_individually(self, capsys, tmp_path):
        # Each schema faces the whole corpus on its own: waking covers
        # these two events, going cannot.
        half = tmp_path / "half.events"
        half.write_text("event e1 { actor: kim action: wake }\n"
                        "event e2 { actor: kim action: wash }\n")
        code, out, _ = run(capsys, "match", PAIR, str(half), "--assert", "e1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("waking: l=1 anchors [w1=e1@1] nodes [w2=e2] "
                            "unmatched [] subst {P=kim}")
        assert lines[1] == "going: no match"

    def test_no_schema_covers_the_whole_corpus(self, capsys):
        # Both schemas are two nodes wide; neither can absorb four events.
        code, out, _ = run(capsys, "match", PAIR, DAY, "--assert", "e1")
        assert code == 1
        assert out == "waking: no match\ngoing: no match\n"

    def test_a_nested_binding_is_written_in_the_input_syntax(self, capsys, nested_pair):
        code, out, err = run(capsys, "match", *nested_pair, "--assert", "e1")
        assert (code, out, err) == (0, NESTED_MATCH + "\n", "")

    def test_unknown_assert_id(self, capsys):
        code, _, err = run(capsys, "match", MORNING, DAY, "--assert", "e9")
        assert code == 4
        assert err == "unknown event id: 'e9'\n"


# The README's `understand` example, one copy: the argv after `$ understory`
# and the output shown under it, run from the fixtures directory.
_README_EXAMPLE = re.search(
    r"```text\n\$ understory (understand pair\.mps day\.events --assert e1)\n(.*?)```",
    (FIXTURES.parent.parent / "README.md").read_text(encoding="utf-8"), re.S)
README_ARGV = _README_EXAMPLE.group(1).split()
UNDERSTAND_TEXT = _README_EXAMPLE.group(2)

FAILURE_TEXT = """\
verdict: not-understandable
chain length: 0
anchor chain: -
truths: e1
confirmed: -
"""


class TestUnderstand:
    def test_text_report(self, capsys, monkeypatch):
        monkeypatch.chdir(FIXTURES)
        code, out, err = run(capsys, *README_ARGV)
        assert code == 0
        assert out == UNDERSTAND_TEXT
        assert err == ""

    def test_a_terminal_gets_the_same_bytes_as_a_pipe(self, monkeypatch):
        class Terminal(io.StringIO):
            def isatty(self):
                return True

        monkeypatch.chdir(FIXTURES)
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setattr(sys, "stdout", Terminal())
        assert main(README_ARGV) == 0
        assert sys.stdout.getvalue() == UNDERSTAND_TEXT
        assert "\x1b" not in sys.stdout.getvalue()

    def test_trace_goes_to_stderr(self, capsys):
        code, out, err = run(capsys, "understand", PAIR, DAY,
                             "--assert", "e1", "--trace")
        assert code == 0
        assert out == UNDERSTAND_TEXT
        assert err.splitlines() == [
            "RULE3 w1 -part-> w2 => e2 true; e1 -part-> e2 confirmed",
            "RULE3 waking.w1 -sequel-> going.g1 => e3 true; "
            "e1 -sequel-> e3 confirmed",
            "RULE3 g1 -cons-> g2 => e4 true; e3 -cons-> e4 confirmed",
        ]

    def test_segmentation_failure_text(self, capsys):
        code, out, err = run(capsys, "understand", PAIR_NOLINK, DAY,
                             "--assert", "e1")
        assert code == 1
        assert out == FAILURE_TEXT
        notes = err.splitlines()
        assert notes[0] == ("note: segmentation failed: "
                            "best attempt matched 1 of 2 schemas")
        assert notes[1] == ("note: schema going found no admissible match "
                            "over events e2, e3, e4")

    def test_long_dead_end_reports_the_best_attempt(self, capsys, tmp_path):
        # Five linked schemas of three roots and a trailing event nothing
        # matches: every one of the C(n-1, 4) cut vectors fails.
        schema_text, corpus_text = linked_chain_texts(
            random.Random(5), 5, 3, dead_end=True)
        schemas, corpus = tmp_path / "chain.mps", tmp_path / "chain.events"
        schemas.write_text(schema_text)
        corpus.write_text(corpus_text)
        code, out, err = run(capsys, "understand", str(schemas), str(corpus),
                             "--assert", "e1")
        assert code == 1
        assert out.startswith("verdict: not-understandable\n")
        assert err.splitlines()[0] == ("note: segmentation failed: "
                                       "best attempt matched 4 of 5 schemas")

    def test_a_nested_binding_in_the_text_report(self, capsys, nested_pair):
        code, out, err = run(capsys, "understand", *nested_pair, "--assert", "e1")
        assert code == 1
        assert out == ("verdict: not-understandable\nchain length: 1\nanchor chain: -\n"
                       "segment 1: reading [e1]\nmatch %s\ntruths: e1\nconfirmed: -\n"
                       % NESTED_MATCH)
        assert err == "note: no confirmed sequel chain longer than one event\n"

    def test_json_golden(self, capsys):
        code, out, _ = run(capsys, "understand", PAIR, DAY,
                           "--assert", "e1", "--format", "json")
        assert code == 0
        golden = (FIXTURES / "golden" / "pair_understand.json").read_text()
        assert out == golden

    def test_large_star_reports_without_a_traceback(self, tmp_path):
        # One root covers 1050 events through 1049 children: more nested
        # choices than Python's default recursion limit allows frames.
        schema_text, corpus_text = star_texts(1049)
        schemas, corpus = tmp_path / "star.mps", tmp_path / "star.events"
        schemas.write_text(schema_text)
        corpus.write_text(corpus_text)
        proc = subprocess.run(
            [sys.executable, "-m", "understory", "understand",
             str(schemas), str(corpus), "--assert", "e0"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stdout.startswith(
            "verdict: not-understandable\nchain length: 1\n")

    def test_json_failure_still_reports(self, capsys):
        code, out, _ = run(capsys, "understand", PAIR_NOLINK, DAY,
                           "--assert", "e1", "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["verdict"] == "not-understandable"
        assert data["segments"] == [] and data["matches"] == []
        assert any("segmentation failed" in d for d in data["diagnostics"])


class TestStory:
    def golden_dot(self):
        return (FIXTURES / "golden" / "pair_diagram.dot").read_text()

    def test_dot_on_stdout(self, capsys):
        code, out, _ = run(capsys, "story", PAIR, DAY, "--assert", "e1")
        assert code == 0
        assert out == self.golden_dot()

    def test_dot_file_and_summary_line(self, capsys, tmp_path):
        target = tmp_path / "diagram.dot"
        code, out, _ = run(capsys, "story", PAIR, DAY, "--assert", "e1",
                           "--dot", str(target))
        assert code == 0
        assert out == "wrote diagram to %s (2 stories, 1 links)\n" % target
        assert target.read_text() == self.golden_dot()

    def test_json_embeds_the_dot(self, capsys):
        code, out, _ = run(capsys, "story", PAIR, DAY, "--assert", "e1",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "understanding_diagram"
        assert [s["origin"] for s in data["stories"]] == ["waking", "going"]
        assert data["dot"] == self.golden_dot()

    def test_failure_builds_nothing(self, capsys):
        code, out, err = run(capsys, "story", PAIR_NOLINK, DAY, "--assert", "e1")
        assert code == 1
        assert out == ""
        assert err.splitlines()[0] == ("segmentation failed: "
                                       "best attempt matched 1 of 2 schemas")

    def test_a_segmented_document_that_is_not_understandable_builds_nothing(
            self, capsys, nested_pair):
        code, out, err = run(capsys, "story", *nested_pair, "--assert", "e1")
        assert (code, out) == (1, "")
        assert err == ("note: no confirmed sequel chain longer than one event\n"
                       "not understandable; no stories built\n")

    def test_unwritable_dot_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "diagram.dot"
        code, _, err = run(capsys, "story", PAIR, DAY, "--assert", "e1",
                           "--dot", str(target))
        assert code == 4
        assert err.startswith("cannot write '%s':" % target)


def _run_into(stdout, argv, buffering, stderr=subprocess.PIPE):
    """The module entry point with stdout on `stdout` and stderr on
    `stderr`, stdout's buffer on ("buffered") or off ("unbuffered")."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "understory", *argv], env=env,
                          stdout=stdout, stderr=stderr, text=True)


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
class TestStdoutTakesNoMoreOutput:
    """A stdout that refuses output ends the call with exit 4 and one stderr
    line: no traceback, no message at interpreter exit, and not exit 1
    ("not understandable") or 120 (a failed flush at exit)."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ("understand", PAIR, DAY, "--assert", "e1"),
        ("story", PAIR, DAY, "--assert", "e1", "--format", "json"),
        ("check", DAY),
        ("--help",),
    ], ids=["understand", "story-json", "check", "help"])
    def test_a_full_device(self, argv, buffering):
        with open("/dev/full", "w") as full:
            proc = _run_into(full, argv, buffering)
        assert (proc.returncode, proc.stderr) == (
            4, "cannot write to stdout: %s\n" % os.strerror(errno.ENOSPC))

    def test_a_pipe_whose_reader_has_closed(self, buffering):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _run_into(write_end, ("understand", PAIR, DAY, "--assert", "e1"),
                             buffering)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (
            4, "cannot write to stdout: %s\n" % os.strerror(errno.EPIPE))


def test_a_replaced_stdout_that_refuses_output_stays_in_place(capsys, monkeypatch):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    full = Full()
    monkeypatch.setattr(sys, "stdout", full)
    with mock.patch.object(cli.os, "dup2") as dup2:
        assert main(["check", DAY]) == 4
    assert sys.stdout is full and not dup2.called
    assert capsys.readouterr().err == (
        "cannot write to stdout: %s\n" % os.strerror(errno.ENOSPC))


# Calls that write to stderr, with their exit code and stdout.
STDERR_CALLS = [
    (("check", "missing.events"), 4, ""),
    (("understand", PAIR, DAY, "--assert", "e1", "--format", "json", "--trace"), 0,
     (FIXTURES / "golden" / "pair_understand.json").read_text()),
    (("story", PAIR_NOLINK, DAY, "--assert", "e1"), 1, ""),
]
STDERR_CALL_IDS = ["check-missing", "understand-trace", "story-failure"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, code, out", STDERR_CALLS, ids=STDERR_CALL_IDS)
def test_a_full_stderr_leaves_the_exit_code_and_stdout(argv, code, out, buffering):
    with open("/dev/full", "w") as full:
        proc = _run_into(subprocess.PIPE, argv, buffering, stderr=full)
    assert (proc.returncode, proc.stdout) == (code, out)


@pytest.mark.parametrize("argv, code, out", STDERR_CALLS, ids=STDERR_CALL_IDS)
def test_a_replaced_stderr_that_refuses_output_changes_nothing(
        capsys, monkeypatch, argv, code, out):
    """main returns, with the code and stdout it gives a working stderr."""
    class Full(io.StringIO):
        def write(self, text):
            refused.append(text)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    refused = []
    assert run(capsys, *argv)[:2] == (code, out)
    monkeypatch.setattr(sys, "stderr", Full())
    assert (main(list(argv)), capsys.readouterr().out) == (code, out)
    assert refused


class TestFewerEventsThanSchemas:
    @pytest.mark.parametrize("schemas, command", [
        (PAIR, "understand"), (PAIR, "story"),
        (EMPTY, "understand"), (EMPTY, "story"),
    ], ids=["understand", "story", "understand-empty-schemas", "story-empty-schemas"])
    def test_unknown_assert_id_is_a_usage_error(self, capsys, one_event,
                                                schemas, command):
        code, out, err = run(capsys, command, schemas, one_event, "--assert", "nope")
        assert (code, out, err) == (4, "", "unknown event id: 'nope'\n")

    def test_story_notes_both_counts(self, capsys, one_event):
        code, out, err = run(capsys, "story", PAIR, one_event, "--assert", "e1")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "segmentation failed: best attempt matched 0 of 2 schemas",
            "note: the corpus has 1 event(s), fewer than the 2 schemas; "
            "every schema needs a segment of at least one event",
        ]


def test_every_input_ends_in_a_documented_exit_code(capsys, tmp_path, one_event):
    """An unknown --assert id exits 4; no other input here is a usage error."""
    empty = tmp_path / "empty.events"
    empty.write_text("")
    corpora = [(path, set(load_corpus(path).event_ids()))
               for path in (str(empty), one_event, DAY)]
    failures = []
    for command, schemas, (corpus, ids), asserts in itertools.product(
            ("match", "understand", "story"),
            (MORNING, PAIR, PAIR_NOLINK, EMPTY),
            corpora,
            ((), ("e1",), ("nope",))):
        argv = [command, schemas, corpus]
        for ev_id in asserts:
            argv += ["--assert", ev_id]
        code, out, err = run(capsys, *argv)
        unknown = not set(asserts) <= ids
        if (code not in README_EXIT_CODES or (code == 4) != unknown
                or "Traceback" in err or (code in (2, 3, 4) and out != "")):
            failures.append((argv, code))
    assert failures == []


# Characters spliced into generated documents: every special, the
# backslash, line and other whitespace, BOM and control characters.
DAMAGE = '{}[]:,=?$#".->\\' + "\n\t\r\x0b\ufeff\x00\x01\x1f\x7f"


def test_damaged_generated_documents_end_in_a_documented_exit_code(capsys, tmp_path):
    """Truncated or spliced linked-chain documents: a README exit code, no
    traceback, and every syntax or validation error located inside the file.
    """
    rng = random.Random(23)
    failures = []
    for k in range(60):
        texts = dict(zip(("mps", "events"), linked_chain_texts(
            rng, m=rng.randint(1, 3), roots=rng.randint(1, 2),
            kids=rng.randint(0, 2), mixed=rng.random() < 0.5)))
        damaged = rng.choice(("mps", "events"))
        text = texts[damaged]
        cut = rng.randrange(len(text) + 1)
        if rng.random() < 0.5:
            text = text[:cut]
        else:
            text = text[:cut] + rng.choice(DAMAGE) + text[cut:]
        texts[damaged] = text
        paths = {}
        for ext, body in texts.items():
            path = tmp_path / ("doc%d.%s" % (k, ext))
            path.write_bytes(body.encode("utf-8"))
            paths[ext] = str(path)
        lines = text.split("\n")
        codes = []
        for argv in (["check", paths[damaged]],
                     ["understand", paths["mps"], paths["events"], "--assert", "e1"],
                     ["story", paths["mps"], paths["events"], "--assert", "e1"]):
            code, out, err = run(capsys, *argv)
            codes.append(code)
            located = re.match(re.escape(paths[damaged]) + r":(\d+):(\d+): ", err)
            inside = located is not None and (
                1 <= int(located[1]) <= len(lines)
                and 1 <= int(located[2]) <= len(lines[int(located[1]) - 1]) + 1)
            if (code not in README_EXIT_CODES or "Traceback" in err
                    or (code in (2, 3) and not inside)
                    or (code in (2, 3, 4) and out != "")):
                failures.append((argv, code, err))
        # A file that does not load fails every command the same way.
        if codes[0] != 0 and codes != [codes[0]] * 3:
            failures.append((paths[damaged], codes))
    assert failures == []


class TestNoCallLeavesState:
    """Each main() call reads its own argv: no call leaves state behind
    that changes how the next one reads or runs."""

    def alone(self, capsys, *argv):
        # The held understanding is the only state main keeps between calls.
        cli._held.clear()
        return run(capsys, *argv)

    def test_assert_lists_do_not_carry_over(self, capsys):
        calls = (
            ("understand", PAIR, DAY, "--assert", "e1", "--format", "json"),
            ("understand", PAIR, DAY, "--format", "json"),
            ("match", MORNING, DAY, "--assert", "e3", "--assert", "e1"),
            ("match", MORNING, DAY),
        )
        expected = [self.alone(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in expected] == [0, 1, 0, 1]
        for argv, outcome in zip(calls + calls, expected + expected):
            assert run(capsys, *argv) == outcome, argv

    def test_usage_error_then_a_good_call(self, capsys):
        good = ("understand", PAIR, DAY, "--assert", "e1")
        expected = self.alone(capsys, *good)
        assert expected[0] == 0
        for bad in (("understand", PAIR, DAY, "--format", "yaml"),
                    ("understand", PAIR), ("story", PAIR, DAY, "--bogus")):
            code, out, err = run(capsys, *bad)
            assert (code, out) == (4, "")
            assert "error:" in err
            assert run(capsys, *good) == expected


@pytest.fixture
def empty_hold():
    """The CLI's held understanding, none when the test starts and when it
    ends."""
    cli._held.clear()
    yield
    cli._held.clear()


def held_value():
    """The held (doc, corpus, outcome), or None."""
    return next(iter(cli._held.values()), None)


CORPUS_TEXT = "event e1 { actor: kim action: wake }\n"
SCHEMA_TEXT = "memory_schema m { roots: [a] node a = schema { actor: ?P } }\n"
# Per kind of file: good text, the good text of another document with the
# same length, and the loader that parses it.
TEXT = {"schemas": SCHEMA_TEXT, "corpus": CORPUS_TEXT}
OTHER_TEXT = {
    "schemas": "memory_schema m { roots: [a] node a = schema { actor: ?Q } }\n",
    "corpus": "event e1 { actor: lee action: wake }\n",
}
LOADER = {"schemas": "load_schema_file", "corpus": "load_corpus"}


def _write(path, text):
    pathlib.Path(path).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return str(path)


def _pair(directory):
    """{"schemas": path, "corpus": path} of a good pair of files."""
    return {"schemas": _write(directory / "doc.mps", SCHEMA_TEXT),
            "corpus": _write(directory / "doc.events", CORPUS_TEXT)}


def _understand(capsys, files):
    return run(capsys, "understand", files["schemas"], files["corpus"], "--assert", "e1")


@pytest.fixture
def engine_calls(calls):
    calls.watch(cli, "load_schema_file", "load_corpus", "understand")
    return calls


@pytest.mark.usefixtures("empty_hold")
@pytest.mark.parametrize("kind", ["schemas", "corpus"])
def test_a_file_rewritten_to_the_same_length_is_parsed_and_run_again(
        capsys, engine_calls, tmp_path, kind):
    files = _pair(tmp_path)
    first = _understand(capsys, files)
    assert len(OTHER_TEXT[kind]) == len(TEXT[kind])
    _write(files[kind], OTHER_TEXT[kind])
    again = _understand(capsys, files)
    assert engine_calls.counts == {"load_schema_file": 2, "load_corpus": 2, "understand": 2}
    assert again != first
    doc, corpus, _ = held_value()
    assert strict((doc, corpus)) == strict((load_schema_file(files["schemas"]),
                                            load_corpus(files["corpus"])))
    cli._held.clear()
    assert _understand(capsys, files) == again


@pytest.mark.usefixtures("empty_hold")
@pytest.mark.parametrize("kind", ["schemas", "corpus"])
def test_the_same_bytes_at_another_path_are_parsed_and_run_again(
        capsys, engine_calls, tmp_path, kind):
    files = _pair(tmp_path)
    first = _understand(capsys, files)
    (tmp_path / "other").mkdir()
    moved = dict(files, **{kind: shutil.copy(files[kind], tmp_path / "other")})
    assert _understand(capsys, moved) == first
    assert engine_calls.counts == {"load_schema_file": 2, "load_corpus": 2, "understand": 2}


@pytest.mark.usefixtures("empty_hold")
def test_pair_a_then_b_then_a_parses_and_runs_a_twice(capsys, engine_calls, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a, b = _pair(tmp_path / "a"), _pair(tmp_path / "b")
    _write(b["corpus"], OTHER_TEXT["corpus"])
    outcomes = [_understand(capsys, files) for files in (a, b, a)]
    assert outcomes[2] == outcomes[0] != outcomes[1]
    assert engine_calls.counts == {"load_schema_file": 3, "load_corpus": 3, "understand": 3}


@pytest.mark.usefixtures("empty_hold")
@pytest.mark.parametrize("commands", [("understand",) * 4, ("story",) * 4,
                                      ("understand", "story") * 2],
                         ids=["understand", "story", "interleaved"])
def test_an_unchanged_pair_is_parsed_and_run_on_every_second_call(
        capsys, engine_calls, tmp_path, commands):
    """A hit hands out the held documents and lets them go, so the call
    after it parses fresh, equal ones."""
    schemas, corpus = (shutil.copy(path, tmp_path) for path in (PAIR, DAY))
    outcomes, held = [], []
    for command in commands:
        outcomes.append(run(capsys, command, schemas, corpus, "--assert", "e1"))
        held.append(held_value())
    assert outcomes[:2] == outcomes[2:] and outcomes[0][0] == 0
    assert engine_calls.counts == {"load_schema_file": 2, "load_corpus": 2, "understand": 2}
    assert held[1] is held[3] is None
    assert strict(held[2][:2]) == strict(held[0][:2])
    assert held[2][0] is not held[0][0] and held[2][1] is not held[0][1]


@pytest.mark.usefixtures("empty_hold")
@pytest.mark.parametrize("kind,bad,code,error", [
    ("corpus", "event e1 { actor: > }\n",
     2, "1:19: syntax error: unexpected character '>'"),
    ("corpus", CORPUS_TEXT * 2,
     3, "2:7: validation error: duplicate event id: 'e1'"),
    ("corpus", b"event e1 { actor: \xff }\n",
     2, "1:19: syntax error: file is not valid UTF-8 (byte offset 18)"),
    ("schemas", SCHEMA_TEXT.replace("[a]", "a"),
     2, "1:26: syntax error: expected '['"),
    ("schemas", SCHEMA_TEXT.replace("[a]", "[b]"),
     3, "1:27: validation error: root 'b' is not a node"),
    ("schemas", SCHEMA_TEXT.encode("utf-8") + b"\xc3",
     2, "2:1: syntax error: file is not valid UTF-8 (byte offset 61)"),
], ids=["corpus-syntax", "corpus-validation", "corpus-utf8",
        "schemas-syntax", "schemas-validation", "schemas-utf8"])
def test_a_failing_file_fails_on_every_call_until_it_is_fixed(
        capsys, engine_calls, tmp_path, kind, bad, code, error):
    """Also after the same pair was understood: the held understanding is
    not given for another text, and no error is held."""
    files = _pair(tmp_path)
    first = _understand(capsys, files)
    _write(files[kind], bad)
    for _ in range(2):
        assert _understand(capsys, files) == (code, "", "%s:%s\n" % (files[kind], error))
        assert held_value() is None
    loader = LOADER[kind]
    assert engine_calls[loader] == 3 and engine_calls["understand"] == 1
    _write(files[kind], TEXT[kind])
    assert _understand(capsys, files) == first
    assert engine_calls[loader] == 4 and engine_calls["understand"] == 2
    assert _understand(capsys, files) == first
    assert engine_calls[loader] == 4 and engine_calls["understand"] == 2


@pytest.mark.usefixtures("empty_hold")
@pytest.mark.parametrize("bad", [SCHEMA_TEXT.replace("[a]", "a"),
                                 SCHEMA_TEXT.replace("[a]", "[b]")],
                         ids=["syntax", "validation"])
def test_both_files_are_read_before_either_is_parsed(capsys, engine_calls, tmp_path, bad):
    """So an unreadable corpus beside a bad schema file is the error."""
    schemas = _write(tmp_path / "bad.mps", bad)
    missing = str(tmp_path / "missing.events")
    for command in ("understand", "story"):
        code, out, err = run(capsys, command, schemas, missing)
        assert (code, out) == (4, "")
        assert err.startswith("cannot read '%s':" % missing) and err.count("\n") == 1
    assert engine_calls.counts == {"load_schema_file": 0, "load_corpus": 0, "understand": 0}


@pytest.mark.usefixtures("empty_hold")
def test_a_call_that_cannot_read_its_files_drops_the_held_understanding(
        capsys, engine_calls, tmp_path):
    files = _pair(tmp_path)
    first = _understand(capsys, files)
    assert held_value() is not None
    missing = dict(files, corpus=str(tmp_path / "missing.events"))
    assert _understand(capsys, missing)[0] == 4
    assert held_value() is None
    assert _understand(capsys, files) == first
    assert engine_calls["understand"] == 2


@pytest.mark.usefixtures("empty_hold")
def test_calls_on_unchanged_files_share_documents_that_none_changes(
        capsys, calls, tmp_path):
    """main() calls in one process on the same unchanged files share their
    documents, so each call must leave them as it found them."""
    calls.watch(cli, "load_corpus", "load_schema_file")
    held = []
    commands = (
        ("understand", "--format", "json"),
        ("story", "--format", "json"),
        ("understand",),
    )
    expected = []
    for i, (command, *options) in enumerate(commands):
        fresh = tmp_path / str(i)
        fresh.mkdir()
        files = [shutil.copy(path, fresh) for path in (PAIR, DAY)]
        expected.append(run(capsys, command, *files, "--assert", "e1", *options))
    assert expected[0][0] == expected[1][0] == 0
    for (command, *options), outcome in zip(commands, expected):
        assert run(capsys, command, PAIR, DAY, "--assert", "e1", *options) == outcome
        held.append(held_value())
    # `story` got what the first `understand` made, and dropped it; the
    # second `understand` parsed both files again.
    assert calls.counts == {"load_corpus": 5, "load_schema_file": 5}
    assert held[1] is None
    fresh = strict((load_schema_file(PAIR), load_corpus(DAY)))
    for kept in (held[0], held[2]):
        assert strict(kept[:2]) == fresh


UNDERSTAND = ("understand", PAIR, DAY, "--assert", "e1")
STORY = ("story", PAIR, DAY, "--assert", "e1")
DEAD_END = ("understand", PAIR_NOLINK, DAY, "--assert", "e1")


@pytest.mark.usefixtures("empty_hold")
@pytest.mark.parametrize("sequence, runs", [
    ((UNDERSTAND, STORY), 1),
    ((UNDERSTAND + ("--format", "json"), STORY + ("--format", "json")), 1),
    ((STORY, UNDERSTAND), 1),
    ((DEAD_END, ("story",) + DEAD_END[1:]), 1),
    ((UNDERSTAND, STORY + ("--assert", "e2")), 2),
    ((UNDERSTAND, ("match",) + UNDERSTAND[1:], STORY), 2),
    ((UNDERSTAND, STORY, STORY), 2),
    ((UNDERSTAND, UNDERSTAND + ("--trace",)), 2),
    ((UNDERSTAND + ("--trace",), UNDERSTAND + ("--trace",)), 2),
    ((UNDERSTAND + ("--trace",), STORY), 1),
], ids=["understand-story", "json", "story-understand", "dead-end",
        "changed-asserts", "intervening-match", "story-twice", "then-trace",
        "trace-twice", "trace-then-story"])
def test_an_unchanged_pair_gives_its_understanding_once_more(
        capsys, calls, sequence, runs):
    """The next `understand` or `story` call on the same unchanged files
    with the same --assert ids gets the last understanding instead of a
    run, once; every call prints what it prints with nothing held."""
    expected = []
    for argv in sequence:
        cli._held.clear()
        expected.append(run(capsys, *argv))
    cli._held.clear()
    calls.watch(cli, "understand")
    assert [run(capsys, *argv) for argv in sequence] == expected
    assert calls["understand"] == runs
    for argv, (_, _, err) in zip(sequence, expected):
        if "--trace" in argv:
            assert err.startswith("RULE3 w1 -part-> w2")


@pytest.mark.usefixtures("empty_hold")
def test_a_held_failure_keeps_no_frames(capsys):
    """The held SegmentationFailure drops its traceback, which would keep
    understand()'s tables, trail and levels alive."""
    assert run(capsys, *DEAD_END)[0] == 1
    _, _, failure = held_value()
    assert isinstance(failure, SegmentationFailure)
    assert failure.__traceback__ is None


@pytest.mark.usefixtures("empty_hold")
@pytest.mark.parametrize("between", [("check", PAIR), ("check", PAIR_NOLINK),
                                     ("match", MORNING, DAY)],
                         ids=["check-same-file", "check", "match"])
def test_a_check_or_match_call_drops_the_held_understanding(capsys, between):
    """The held understanding keeps its two documents alive, so a call that
    loads documents of its own lets it go first."""
    assert run(capsys, *UNDERSTAND)[0] == 0
    first = weakref.ref(held_value()[0])
    run(capsys, *between)
    gc.collect()
    assert first() is None
    assert held_value() is None


@pytest.mark.usefixtures("empty_hold")
def test_a_rewritten_file_runs_the_engine_again(capsys, calls, tmp_path):
    schemas, corpus = (shutil.copy(path, tmp_path) for path in (PAIR, DAY))
    calls.watch(cli, "understand")
    first = run(capsys, "understand", schemas, corpus, "--assert", "e1")
    with open(corpus, "a", encoding="utf-8") as handle:
        handle.write("event e5 { actor: kim action: rest }\n")
    story = ("story", schemas, corpus, "--assert", "e1")
    outcome = run(capsys, *story)
    assert calls["understand"] == 2
    assert first[0] == 0 and outcome[0] == 1
    cli._held.clear()
    assert run(capsys, *story) == outcome


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[:2] == (4, "")

    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert (code, out) == (4, "")
        assert "error:" in err

    def test_bad_format_choice(self, capsys):
        code, out, err = run(capsys, "understand", PAIR, DAY,
                             "--format", "yaml")
        assert (code, out) == (4, "")
        assert "invalid choice" in err

    def test_help_exits_cleanly(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "usage: understory" in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "understory", "check", DAY],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "ok: 4 event(s)\n"

    # main(None) reads sys.argv, which only the entry point sets.
    @pytest.mark.parametrize("argv, code", [
        (("--help",), 0),
        (("understand", "-h"), 0),
        (("story",), 4),
    ])
    def test_module_entry_point_reads_sys_argv(self, argv, code):
        proc = subprocess.run([sys.executable, "-m", "understory", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == code
        if code == 0:
            assert proc.stdout.startswith("usage: understory")
            assert proc.stderr == ""
        else:
            assert proc.stdout == ""
            assert "usage: understory story" in proc.stderr
            assert "error: the following arguments are required: schemas, events" in proc.stderr

    def test_two_dashes_then_two_dashes(self, capsys):
        # The second `--` is the corpus path.  argparse read it as an
        # empty list, and opening that raised a TypeError.
        code, out, err = run(capsys, "story", PAIR, "--", "--")
        assert (code, out) == (4, "")
        assert err.startswith("cannot read '--'")

    def test_help_on_every_command(self, capsys):
        _, top, _ = run(capsys, "--help")
        for argv in (("-h",), ("check", "-h"), ("match", "a", "--help"),
                     ("understand", "--he", "a"), ("story", "a", "b", "-h", "--bogus")):
            assert run(capsys, *argv) == (0, top, ""), argv
        for command in ("check", "match", "understand", "story"):
            assert "understory %s [-h]" % command in top

    @pytest.mark.parametrize("argv, fields", [
        # `--` ends the options: a file may then start with `-`.
        (("check", "--", "-x.events"), {"file": "-x.events"}),
        (("understand", "--format", "json", "--", "-a.mps", "-b.events"),
         {"schemas": "-a.mps", "events": "-b.events", "format": "json"}),
        (("match", "a.mps", "--", "--assert"), {"schemas": "a.mps", "events": "--assert"}),
        (("--", "check", "a.mps"), {"file": "a.mps"}),
        (("story", "a.mps", "--", "--"), {"schemas": "a.mps", "events": "--"}),
        # A token with a space is a word, wherever it stands.
        (("understand", "my schemas.mps", "b", "--assert", "e1 e2"),
         {"schemas": "my schemas.mps", "events": "b", "asserts": ["e1 e2"]}),
        (("story", "a", "b", "--dot=out dir/d.dot"),
         {"schemas": "a", "events": "b", "dot": "out dir/d.dot"}),
        # "-" and negative numbers are words too.
        (("story", "-", "-1", "--assert", "-2.5"),
         {"schemas": "-", "events": "-1", "asserts": ["-2.5"]}),
    ])
    def test_hand_read_argvs(self, argv, fields):
        code, read, _, _ = read_by_main(list(argv))
        assert code == 0
        assert {name: read[name] for name in fields} == fields

    @pytest.mark.parametrize("argv, error", [
        (("check", "a", "--", "-h"), "unrecognized arguments: -h"),
        (("understand", "a", "b", "--format", "--", "json"),
         "argument --format: expected one argument"),
        (("understand", "a", "b", "--trace=yes"),
         "argument --trace: ignored explicit argument 'yes'"),
        (("story", "a", "b", "--=x"), "ambiguous option: --=x could match"),
    ])
    def test_hand_rejected_argvs(self, argv, error):
        code, read, out, err = read_by_main(list(argv))
        assert (code, read, out) == (4, None, "")
        assert err.startswith("usage: understory")
        assert "\nerror: " + error in err


def read_by_main(argv):
    """(exit code, the fields main handed its handler or None, stdout,
    stderr) of main(argv), with every handler replaced by one that records
    its fields and exits 0."""
    read = []
    handlers = {name: lambda args: read.append(vars(args)) or (0, "", ())
                for name in cli._HANDLERS}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(cli._HANDLERS, handlers), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, (read[0] if read else None), out.getvalue(), err.getvalue()


def read_by_argparse(argv):
    """(exit code, fields) of the argparse parser the CLI once used: the
    code is None when it reads argv, and the fields None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return None, vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code, None


# A word that is no option and no space: a path, an event id or a value.
WORDS = st.from_regex(r"[a-z0-9_./]+", fullmatch=True)
# Per option the values it is drawn with; None for a flag.
OPTION_VALUES = {
    "--assert": WORDS,
    "--dot": WORDS,
    "--format": st.sampled_from(["text", "json", "yaml"]),
    "--trace": None,
    "--help": None,
}
# Per command its number of positionals and its options.
GRAMMAR = {
    "check": (1, []),
    "match": (2, ["--assert"]),
    "understand": (2, ["--assert", "--format", "--trace"]),
    "story": (2, ["--assert", "--dot", "--format"]),
}


@st.composite
def option_tokens(draw, command):
    """One option as argv tokens, most often one of the command's own:
    spelled in full or as a prefix, which is unique since each option
    starts with its own letter; with its value spaced, after `=`, or
    missing.  `--x` is no option."""
    own = GRAMMAR.get(command, (0, []))[1]
    name = draw(st.sampled_from(own * 4 + sorted(OPTION_VALUES) + ["--x"]))
    spelled = name[:draw(st.integers(3, len(name)))]
    values = OPTION_VALUES.get(name)
    form = draw(st.sampled_from(["spaced"] * 3 + ["joined"] * 3 + ["missing"]))
    if values is None or form == "missing":
        return [spelled]
    value = draw(values)
    return [spelled, value] if form == "spaced" else [spelled + "=" + value]


@st.composite
def argvs(draw):
    """An argv: maybe an option before the command; a command, none or an
    unknown one; most often as many positionals as the command takes, else
    one fewer or one more; 0–4 options; positionals and options in any
    order."""
    head = draw(st.sampled_from([[]] * 6 + [["--x"], ["-h"]]))
    command = draw(st.sampled_from(sorted(GRAMMAR) * 3 + ["frob", None]))
    count = GRAMMAR.get(command, (1,))[0] + draw(st.sampled_from([0] * 4 + [-1, 1]))
    parts = ([[word] for word in draw(st.lists(WORDS, min_size=count, max_size=count))]
             + draw(st.lists(option_tokens(command), max_size=4)))
    return head + ([command] if command else []) + [
        token for part in draw(st.permutations(parts)) for token in part]


@settings(max_examples=600, deadline=None)
@given(argvs())
def test_main_reads_every_argv_as_argparse_did(argv):
    """`--` and tokens with spaces are left out: argparse's reading of them
    changed between Python versions.  The hand-written cases cover them."""
    oracle_code, oracle_fields = read_by_argparse(argv)
    code, fields, out, err = read_by_main(argv)
    assert fields == oracle_fields
    if oracle_code == 0:
        assert code == 0
        assert out.startswith("usage: understory")
    elif oracle_code is not None:
        assert (code, out) == (4, "")
        assert err.startswith("usage: ") and "\nerror: " in err
