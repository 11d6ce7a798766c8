import gc
import itertools
import json
import random
import re
import shutil
import subprocess
import sys
import weakref

import pytest

from understory import (SegmentationFailure, cli, load_corpus, load_schema_file,
                        parse_corpus, parse_schema_file)
import understory.textio
from understory.cli import build_parser, main

from conftest import FIXTURES, fixture_path
from generators import linked_chain_texts, star_texts

DAY = fixture_path("day.events")
EMPTY = fixture_path("empty.mps")
MORNING = fixture_path("morning.mps")
PAIR = fixture_path("pair.mps")
PAIR_NOLINK = fixture_path("pair_nolink.mps")

# The exit codes the README documents.
README_EXIT_CODES = (0, 1, 2, 3, 4)


@pytest.fixture
def one_event(tmp_path):
    path = tmp_path / "one.events"
    path.write_text("event e1 { actor: kim action: wake }\n")
    return str(path)


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
        stray = tmp_path / "notes.txt"
        stray.write_text("whatever")
        code, out, err = run(capsys, "check", str(stray))
        assert code == 4
        assert out == ""
        assert "expected .events or .mps" in err

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

    def test_unwritable_dot_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "diagram.dot"
        code, _, err = run(capsys, "story", PAIR, DAY, "--assert", "e1",
                           "--dot", str(target))
        assert code == 4
        assert err.startswith("cannot write '%s':" % target)


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
        code, _, err = run(capsys, *argv)
        unknown = not set(asserts) <= ids
        if (code not in README_EXIT_CODES or (code == 4) != unknown
                or "Traceback" in err):
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
            code, _, err = run(capsys, *argv)
            codes.append(code)
            located = re.match(re.escape(paths[damaged]) + r":(\d+):(\d+): ", err)
            inside = located is not None and (
                1 <= int(located[1]) <= len(lines)
                and 1 <= int(located[2]) <= len(lines[int(located[1]) - 1]) + 1)
            if (code not in README_EXIT_CODES or "Traceback" in err
                    or (code in (2, 3) and not inside)):
                failures.append((argv, code, err))
        # A file that does not load fails every command the same way.
        if codes[0] != 0 and codes != [codes[0]] * 3:
            failures.append((paths[damaged], codes))
    assert failures == []


class TestParserReuse:
    """main builds its argument parser once per process, so no call may
    leave state in it for the next one."""

    def alone(self, capsys, *argv):
        build_parser.cache_clear()
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
        assert build_parser() is build_parser()
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
def empty_memo():
    """The CLI's held documents and understanding, none when the test
    starts and when it ends."""
    cli._last.clear()
    yield
    cli._last.clear()


CORPUS_TEXT = "event e1 { actor: kim action: wake }\n"
SCHEMA_TEXT = "memory_schema m { roots: [a] node a = schema { actor: ?P } }\n"
# (CLI loader, the textio loader it calls, parser, good text, good text of
# another document with the same length)
LOADERS = [
    (cli._load_corpus, "load_corpus", parse_corpus, CORPUS_TEXT,
     "event e1 { actor: lee action: wake }\n"),
    (cli._load_schemas, "load_schema_file", parse_schema_file, SCHEMA_TEXT,
     "memory_schema m { roots: [a] node a = schema { actor: ?Q } }\n"),
]


def _write(path, text):
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return str(path)


@pytest.mark.usefixtures("empty_memo")
@pytest.mark.parametrize("load,loader,parse,text,other", LOADERS,
                         ids=["corpus", "schemas"])
class TestLoadMemo:
    """The CLI gives the document it loaded last once more to the next load
    of the same path with the same bytes, and loads anything else."""

    def test_an_unchanged_file_is_loaded_for_every_second_load(
            self, calls, tmp_path, load, loader, parse, text, other):
        calls.watch(cli, loader)
        calls.watch(understory.textio, "validate_memory_schema")
        path = _write(tmp_path / "doc", text)
        first = load(path)
        assert load(path) is first
        assert calls[loader] == 1
        assert calls["validate_memory_schema"] == (loader == "load_schema_file")
        third = load(path)
        assert third is not first and third == first
        assert load(path) is third and calls[loader] == 2

    def test_a_rewritten_file_of_the_same_length_is_loaded_again(
            self, tmp_path, load, loader, parse, text, other):
        assert len(other) == len(text) and other != text
        path = _write(tmp_path / "doc", text)
        first = load(path)
        _write(tmp_path / "doc", other)
        again = load(path)
        assert again is not first and again != first
        assert again == parse(other) and again.source == path

    def test_the_same_text_at_another_path_is_its_own_document(
            self, tmp_path, load, loader, parse, text, other):
        one = _write(tmp_path / "one", text)
        two = _write(tmp_path / "two", text)
        first, second = load(one), load(two)
        assert second is not first and second == first
        assert (first.source, second.source) == (one, two)

    def test_loading_a_then_b_then_a_loads_a_twice(self, calls, tmp_path, load,
                                                  loader, parse, text, other):
        calls.watch(cli, loader)
        a, b = _write(tmp_path / "a", text), _write(tmp_path / "b", other)
        first = load(a)
        load(b)
        again = load(a)
        assert calls[loader] == 3
        assert again is not first and again == first


@pytest.mark.usefixtures("empty_memo")
@pytest.mark.parametrize("load,loader,good,bad,code,error", [
    (cli._load_corpus, "load_corpus", CORPUS_TEXT, "event e1 { actor: > }\n",
     2, "1:19: syntax error: unexpected character '>'"),
    (cli._load_corpus, "load_corpus", CORPUS_TEXT, CORPUS_TEXT * 2,
     3, "2:7: validation error: duplicate event id: 'e1'"),
    (cli._load_corpus, "load_corpus", CORPUS_TEXT, b"event e1 { actor: \xff }\n",
     2, "1:19: syntax error: file is not valid UTF-8 (byte offset 18)"),
    (cli._load_schemas, "load_schema_file", SCHEMA_TEXT, SCHEMA_TEXT.replace("[a]", "a"),
     2, "1:26: syntax error: expected '['"),
    (cli._load_schemas, "load_schema_file", SCHEMA_TEXT, SCHEMA_TEXT.replace("[a]", "[b]"),
     3, "1:27: validation error: root 'b' is not a node"),
    (cli._load_schemas, "load_schema_file", SCHEMA_TEXT,
     SCHEMA_TEXT.encode("utf-8") + b"\xc3",
     2, "2:1: syntax error: file is not valid UTF-8 (byte offset 61)"),
], ids=["corpus-syntax", "corpus-validation", "corpus-utf8",
        "schemas-syntax", "schemas-validation", "schemas-utf8"])
def test_a_failing_file_fails_on_every_call_until_it_is_fixed(
        capsys, calls, tmp_path, load, loader, good, bad, code, error):
    """Also after the same path loaded: the last document is not given for
    another text, and no error is kept."""
    calls.watch(cli, loader)
    path = _write(tmp_path / "doc", good)
    first = load(path)
    _write(tmp_path / "doc", bad)
    for _ in range(2):
        with pytest.raises(cli._Exit) as exit_:
            load(path)
        assert exit_.value.code == code
        assert capsys.readouterr().err == "%s:%s\n" % (path, error)
    assert calls[loader] == 3
    _write(tmp_path / "doc", good)
    again = load(path)
    assert again is not first and again == first and again.source == path
    assert load(path) is again and calls[loader] == 4


@pytest.mark.usefixtures("empty_memo")
def test_interleaved_schema_and_corpus_loads_each_hit(calls, tmp_path):
    calls.watch(cli, "load_corpus", "load_schema_file")
    schemas = _write(tmp_path / "doc.mps", SCHEMA_TEXT)
    corpus = _write(tmp_path / "doc.events", CORPUS_TEXT)
    first = (cli._load_schemas(schemas), cli._load_corpus(corpus))
    assert cli._load_schemas(schemas) is first[0]
    assert cli._load_corpus(corpus) is first[1]
    assert calls.counts == {"load_corpus": 1, "load_schema_file": 1}


@pytest.mark.usefixtures("empty_memo")
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
        held.append((cli._last.get("schemas"), cli._last.get("corpus")))
    # `story` got the documents the first `understand` loaded, and dropped
    # them; the second `understand` loaded them again.
    assert calls.counts == {"load_corpus": 5, "load_schema_file": 5}
    assert held[1] == (None, None)
    fresh = load_schema_file(PAIR), load_corpus(DAY)
    for kept in (held[0], held[2]):
        assert tuple(entry[1] for entry in kept) == fresh


UNDERSTAND = ("understand", PAIR, DAY, "--assert", "e1")
STORY = ("story", PAIR, DAY, "--assert", "e1")
DEAD_END = ("understand", PAIR_NOLINK, DAY, "--assert", "e1")


@pytest.mark.usefixtures("empty_memo")
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
    """The next `understand` or `story` call on the same held documents
    with the same --assert ids gets the last understanding instead of a
    run, once; every call prints what it prints with nothing held."""
    expected = []
    for argv in sequence:
        cli._last.clear()
        expected.append(run(capsys, *argv))
    cli._last.clear()
    calls.watch(cli, "understand")
    assert [run(capsys, *argv) for argv in sequence] == expected
    assert calls["understand"] == runs
    for argv, (_, _, err) in zip(sequence, expected):
        if "--trace" in argv:
            assert err.startswith("RULE3 w1 -part-> w2")


@pytest.mark.usefixtures("empty_memo")
def test_a_held_failure_keeps_no_frames(capsys):
    """The held SegmentationFailure drops its traceback, which would keep
    understand()'s tables, trail and levels alive."""
    assert run(capsys, *DEAD_END)[0] == 1
    _, (_, _, failure) = cli._last["understanding"]
    assert isinstance(failure, SegmentationFailure)
    assert failure.__traceback__ is None


@pytest.mark.usefixtures("empty_memo")
@pytest.mark.parametrize("between", [("check", PAIR_NOLINK), ("match", MORNING, DAY)],
                         ids=["check", "match"])
def test_loading_another_document_drops_the_held_understanding(capsys, between):
    """The held understanding keeps its two documents alive, so a call that
    replaces either of them lets it go at once."""
    assert run(capsys, *UNDERSTAND)[0] == 0
    assert "understanding" in cli._last
    first = weakref.ref(cli._last["schemas"][1])
    run(capsys, *between)
    gc.collect()
    assert first() is None
    assert "understanding" not in cli._last


@pytest.mark.usefixtures("empty_memo")
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
    cli._last.clear()
    assert run(capsys, *story) == outcome


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 4

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 4
        assert "error:" in err

    def test_bad_format_choice(self, capsys):
        code, _, err = run(capsys, "understand", PAIR, DAY,
                           "--format", "yaml")
        assert code == 4
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
