"""Checks on the benchmark itself: its checker, its generator and its tracer.

Run from the root of an understory checkout:

    python3 bench/selfcheck.py

1. One round of every workload runs through the CLI with no failed operation.
2. Deliberately corrupted outputs (a truth dropped, a node remapped, a chain
   length off by one, a segment moved, a story or link dropped, a dead end
   reported as understood) are each rejected by the checker.
3. The generator gives the same documents for the same seed.
4. The tracer puts back every name it wrapped, also when a call raises, and
   two traced passes over the same documents count the same calls.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import check
import gen
import run

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print("%s %s" % ("PASS" if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def outputs(cli, doc: gen.Doc, workdir: str):
    """(exit code, stdout) of `understand` and of `story` on one document."""
    und, sto = run.run_doc(cli, run.Tally(), doc, run.write_files(doc, workdir))
    return und[1:], sto[1:]


def corruptions(doc: gen.Doc, report: dict, diagram: dict):
    """(name, command, exit code, stdout) for outputs that must be rejected."""
    def edited(base, change):
        out = copy.deepcopy(base)
        change(out)
        return json.dumps(out)

    def remap(r):
        r["matches"][-1]["node_map"][0]["event"] = doc.event_ids[0]

    def move_segment(r):
        r["segments"][0]["end"] += 1

    def drop_story(d):
        d["stories"].pop()

    def drop_link(d):
        d["links"].pop()

    def drop_cluster(d):
        d["dot"] = d["dot"].replace("subgraph cluster_0", "subgraph c0")

    return [
        ("one truth dropped", "understand", 0,
         edited(report, lambda r: r["memory"]["truths"].remove(doc.event_ids[-1]))),
        ("one node remapped", "understand", 0, edited(report, remap)),
        ("chain length off by one", "understand", 0,
         edited(report, lambda r: r.__setitem__("chain_length", r["chain_length"] + 1))),
        ("first segment moved", "understand", 0, edited(report, move_segment)),
        ("verdict flipped", "understand", 0,
         edited(report, lambda r: r.__setitem__("verdict", "not-understandable"))),
        ("exit code 1 on an understood document", "understand", 1, json.dumps(report)),
        ("one story dropped", "story", 0, edited(diagram, drop_story)),
        ("one link dropped", "story", 0, edited(diagram, drop_link)),
        ("one DOT cluster renamed", "story", 0, edited(diagram, drop_cluster)),
        ("not JSON", "story", 0, "digraph U {}\n"),
    ]


def main() -> int:
    cli = run._import_cli()
    import tracer

    workdir = os.path.join(run.OUT_DIR, "selfcheck-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        for workload in gen.WORKLOADS:
            docs = gen.round_docs(workload, 1, 0)
            tally = run.run_round(cli, docs, workdir)
            expect(tally.attempted == 2 * len(docs) and tally.failed == 0,
                   "%s: %d operations, %d failed" % (workload, tally.attempted, tally.failed))
            again = gen.round_docs(workload, 1, 0)
            expect([(d.schemas_text, d.events_text) for d in docs]
                   == [(d.schemas_text, d.events_text) for d in again],
                   "%s: the same seed gives the same documents" % workload)
            other = gen.round_docs(workload, 2, 0)
            expect([d.events_text for d in docs] != [d.events_text for d in other],
                   "%s: another seed gives other documents" % workload)

        docs = gen.round_docs("linked-chain", 1, 0)
        doc = next(d for d in docs if not d.dead_end and len(d.schema_names) > 1
                   and d.node_maps[d.schema_names[-1]])
        (ucode, ustdout), (scode, sstdout) = outputs(cli, doc, workdir)
        expect(not check.check_understand(doc, ucode, ustdout)
               and not check.check_story(doc, scode, sstdout),
               "the untouched outputs of %s pass" % doc.name)
        checkers = {"understand": check.check_understand, "story": check.check_story}
        for name, command, code, stdout in corruptions(doc, json.loads(ustdout),
                                                       json.loads(sstdout)):
            expect(bool(checkers[command](doc, code, stdout)), "rejected: %s" % name)
        dead = next(d for d in docs if d.dead_end)
        (ucode, ustdout), (scode, sstdout) = outputs(cli, dead, workdir)
        expect(not check.check_understand(dead, ucode, ustdout)
               and not check.check_story(dead, scode, sstdout),
               "the untouched outputs of dead end %s pass" % dead.name)
        expect(bool(check.check_understand(dead, 0, ustdout)),
               "rejected: exit code 0 on a dead end")
        expect(bool(check.check_understand(dead, 1, ustdout.replace(
            "matched %d of" % (len(dead.schema_names) - 1),
            "matched %d of" % len(dead.schema_names)))),
               "rejected: a dead end whose best attempt matched every schema")

        originals = {(owner, attr): vars(owner)[attr] for owner, attr, _ in tracer.TARGETS}
        counts = []
        for _ in range(2):
            with tracer.Tracer() as tr:
                run.run_round(cli, gen.round_docs("deep-trees", 1, 0), workdir, tr)
            counts.append(tr.counts)
        expect(counts[0] == counts[1] and counts[0]["match_event"] > 0,
               "two traced passes over the same documents count the same calls")
        try:
            with tracer.Tracer():
                raise KeyError("inside a traced block")
        except KeyError:
            pass
        expect(all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items()),
               "the tracer leaves no wrapper in place")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("%d check(s) failed" % len(FAILURES) if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
