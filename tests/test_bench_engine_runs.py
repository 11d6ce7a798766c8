"""One parse per file and one engine run per document in a bench round:
`story` reuses the documents and understanding that `understand` made on
the same unchanged files."""

import importlib.util
import pathlib

import pytest

from understory import cli

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
