"""One parse per file and one engine run per document in a bench round:
`story` reuses the documents and understanding that `understand` made on
the same unchanged files.  The engine's calls over the bench's traced set
are pinned too."""

import importlib.util
import math
import pathlib

import pytest

import understory.schema
from understory import cli
from understory.memory import MemoryState

BENCH = pathlib.Path(__file__).parent.parent / "bench"


@pytest.fixture
def bench_run(monkeypatch):
    # run.py imports its neighbours check and gen by their bare names.
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["linked-chain", "many-links", "deep-trees"])
def test_a_round_runs_the_engine_once_per_document(bench_run, calls, tmp_path, workload):
    docs = bench_run.gen.round_docs(workload, 1, 0)
    cli._held.clear()
    calls.watch(cli, "understand", "load_corpus", "load_schema_file")
    tally = bench_run.run_round(cli, docs, str(tmp_path))
    cli._held.clear()
    assert (tally.docs, tally.attempted, tally.failed) == (len(docs), 2 * len(docs), 0)
    assert calls.counts == dict.fromkeys(
        ("understand", "load_corpus", "load_schema_file"), len(docs))
    if workload == "linked-chain":
        assert any(doc.dead_end for doc in docs)


# The engine's calls over the bench's traced set: seed 1, the fewest whole
# rounds that hold bench/run.py's TRACE_DOCS documents (linked-chain rounds
# 0-1, the others rounds 0-7).  `_match_into` counts only the calls made
# from schema (the kid level and the foreignness test); a cut attempt is a
# `_search` call on the document's first schema, as bench/tracer.py counts
# it.  A change may lower a pin and give its reason; it may not raise one.
TRACED_COUNTS = {
    "linked-chain": dict(docs=70, cut_attempts=126, _search=332, match_event=570,
                         _match_into=1040, merge=190, run_fixpoint_group=276,
                         query=804, confirm=478),
    "many-links": dict(docs=40, cut_attempts=40, _search=4000, match_event=4000,
                       _match_into=0, merge=0, run_fixpoint_group=4000,
                       query=4000, confirm=3960),
    "deep-trees": dict(docs=40, cut_attempts=152, _search=168, match_event=2704,
                       _match_into=5376, merge=104, run_fixpoint_group=56,
                       query=8776, confirm=3928),
}


@pytest.mark.parametrize("workload", list(TRACED_COUNTS))
def test_the_traced_set_makes_the_pinned_engine_calls(bench_run, calls, monkeypatch,
                                                      tmp_path, workload):
    expected = dict(TRACED_COUNTS[workload])
    docs = expected.pop("docs")
    rounds = math.ceil(bench_run.TRACE_DOCS / len(bench_run.gen.round_docs(workload, 1, 0)))
    loads = ("understand", "load_corpus", "load_schema_file")
    engine = ("_search", "match_event", "_match_into", "merge", "run_fixpoint_group")
    calls.watch(cli, *loads)
    calls.watch(understory.schema, *engine)
    calls.watch(MemoryState, "query", "confirm")
    counts, first = calls.counts, []
    counts["cut_attempts"] = 0
    understand, search = cli.understand, understory.schema._search

    def understand_noting_its_first_schema(doc, *args, **kwargs):
        first[:] = doc.schemas[:1]
        return understand(doc, *args, **kwargs)

    def search_counting_cut_attempts(mp, *args, **kwargs):
        counts["cut_attempts"] += mp is first[0]
        return search(mp, *args, **kwargs)

    monkeypatch.setattr(cli, "understand", understand_noting_its_first_schema)
    monkeypatch.setattr(understory.schema, "_search", search_counting_cut_attempts)
    cli._held.clear()
    for k in range(rounds):
        tally = bench_run.run_round(cli, bench_run.gen.round_docs(workload, 1, k),
                                    str(tmp_path))
        assert tally.failed == 0
    cli._held.clear()
    assert {name: counts.pop(name) for name in loads} == dict.fromkeys(loads, docs)
    assert counts == expected
