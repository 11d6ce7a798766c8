"""Understory benchmark: generated documents through the CLI, one process per workload.

Run from the root of an understory checkout:

    python3 bench/run.py --workload linked-chain --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each document goes through `understory.cli.main` in this process:
`understand --format json`, then `story --format json`.  Every output is
checked against what the generator knows (check.py).  An operation is one
CLI call on one document; it fails when it raises, exits with a code the
README does not list for that outcome, or fails its check.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

With `--trace 0` the metrics are the end-to-end ones, measured with no
tracing in place; times are scaled to a fixed machine speed by a reference
loop timed after every document (README: "Timing on a machine whose speed
drifts").  With `--trace 1` a fixed set of documents (the first
rounds of the seed) runs twice per round, untraced and then under
tracer.Tracer; the metrics are the per-layer totals over those documents
and the tracing overhead.  Spans and metrics go to the `--trace-out` file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import check
import gen

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

SETUP_LAUNCHES = 15  # fewest fresh interpreters per run; setup_s is their median
MIN_STORY_SAMPLES = 100  # so story_ms_p90 has at least ten samples beyond it
TRACE_DOCS = 40  # the traced set holds the fewest whole rounds reaching this
# End-to-end times are scaled to the speed at which reference_ms() takes this
# long; see the README ("Timing on a machine whose speed drifts").
REFERENCE_MS = 2.5

END_TO_END = (
    ("setup_s", "s"),
    ("docs_per_s", "docs/s"),
    ("understand_ms_p50", "ms"),
    ("understand_ms_p90", "ms"),
    ("story_ms_p50", "ms"),
    ("story_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


def _die(message: str) -> None:
    print("error: %s" % message, file=sys.stderr)
    sys.exit(2)


def _import_cli():
    """The checkout's own understory, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "understory", "cli.py")):
        _die("no src/understory here; run from the root of an understory checkout")
    sys.path.insert(0, SRC)
    import understory.cli
    if not os.path.abspath(understory.cli.__file__).startswith(SRC + os.sep):
        _die("imported understory from %s, not from %s" % (understory.cli.__file__, SRC))
    return understory.cli


class Tally:
    """Operation counts and per-document timings for one pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed because an output check failed
        self.docs = 0
        self.busy_s = 0.0
        self.understand_ms: list[float] = []
        self.story_ms: list[float] = []
        self.reference_ms: list[float] = []

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.docs += other.docs
        self.busy_s += other.busy_s
        self.understand_ms += other.understand_ms
        self.story_ms += other.story_ms
        self.reference_ms += other.reference_ms


def reference_ms() -> float:
    """Time of one fixed pure-Python loop that never touches the engine, in ms."""
    start = time.perf_counter()
    parents = {"n%d" % i: "n%d" % (i // 2) for i in range(1, 1000)}
    steps = 0
    for node in parents:
        while node != "n0":
            node = parents[node]
            steps += 1
    pairs = sorted((p, c) for c, p in parents.items())
    seen = {pair for pair in pairs if pair[0] != pair[1]}
    labels = ["%s -part-> %s" % pair for pair in pairs if pair in seen]
    return (time.perf_counter() - start) * 1e3


def _call(cli, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def _operation(cli, tally: Tally, doc: gen.Doc, command: str, files: list[str],
               checker):
    """One CLI call, checked; returns (wall time, exit code, stdout), (0, None, "") when it raised."""
    tally.attempted += 1
    argv = [command] + files + ["--assert", doc.first_event, "--format", "json"]
    try:
        code, stdout, stderr, elapsed = _call(cli, argv)
    except Exception as exc:  # a raising call is a failed operation, not a crash
        tally.failed += 1
        print("FAIL %s %s: raised %r" % (command, doc.name, exc), file=sys.stderr)
        return 0.0, None, ""
    problems = checker(doc, code, stdout)
    if problems:
        tally.failed += 1
        tally.wrong += 1
        print("FAIL %s %s: %s (stderr: %s)" % (command, doc.name, "; ".join(problems),
                                               stderr.strip().replace("\n", " | ")),
              file=sys.stderr)
    return elapsed, code, stdout


def write_files(doc: gen.Doc, workdir: str) -> list[str]:
    """The document's schema and corpus files, written to workdir."""
    files = [os.path.join(workdir, doc.name + ".mps"),
             os.path.join(workdir, doc.name + ".events")]
    for path, text in zip(files, (doc.schemas_text, doc.events_text)):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return files


def run_doc(cli, tally: Tally, doc: gen.Doc, files: list[str]):
    """`understand`, then `story`, on one document; (wall time, exit code, stdout) of each."""
    return (_operation(cli, tally, doc, "understand", files, check.check_understand),
            _operation(cli, tally, doc, "story", files, check.check_story))


def run_round(cli, docs: list[gen.Doc], workdir: str, tracer=None) -> Tally:
    """Both commands on every document of a round, one document after another."""
    tally = Tally()
    paths = [write_files(doc, workdir) for doc in docs]
    for i, (doc, files) in enumerate(zip(docs, paths)):
        if tracer is not None:
            tracer.doc = i + 1
        (und, _, _), (sto, _, _) = run_doc(cli, tally, doc, files)
        tally.docs += 1
        tally.busy_s += und + sto
        tally.understand_ms.append(und * 1e3)
        if not doc.dead_end:
            tally.story_ms.append(sto * 1e3)
        # Collected outside the timing, so heap the engine leaves behind
        # does not slow the reference loop and move the scale.
        gc.collect()
        tally.reference_ms.append(reference_ms())
    for files in paths:
        for path in files:
            os.remove(path)
    return tally


def launch() -> float:
    """Wall time of one fresh interpreter importing understory.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import understory.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(cli, workload: str, seed: int, seconds: float, workdir: str):
    total = Tally()
    launches = []
    start = time.perf_counter()
    for k in itertools.count():
        total.add(run_round(cli, gen.round_docs(workload, seed, k), workdir))
        # One launch per round spreads the set-up samples over the whole run.
        launches.append(launch())
        if time.perf_counter() - start >= seconds and len(total.story_ms) >= MIN_STORY_SAMPLES:
            break
    while len(launches) < SETUP_LAUNCHES:
        launches.append(launch())
    raw = {
        "setup_s": statistics.median(launches),
        "docs_per_s": total.docs / total.busy_s,
        "understand_ms_p50": statistics.median(total.understand_ms),
        "understand_ms_p90": percentile(total.understand_ms, 0.9),
        "story_ms_p50": statistics.median(total.story_ms),
        "story_ms_p90": percentile(total.story_ms, 0.9),
    }
    # The mean, not the median: slow spells come in bursts shorter than a
    # document, and the engine's times average over them.
    reference = statistics.fmean(total.reference_ms)
    scale = REFERENCE_MS / reference
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["docs_per_s"] = raw["docs_per_s"] / scale
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = dict(END_TO_END)
    print("%s seed %d: %d docs in %d rounds, %d understand and %d story samples"
          % (workload, seed, total.docs, k + 1, len(total.understand_ms), len(total.story_ms)))
    print("times are scaled by %.4f: %.1f ms over the mean of %d reference-loop samples"
          % (scale, REFERENCE_MS, len(total.reference_ms)))
    for name, value in raw.items():
        print("unscaled %-23s %14.4f %s" % (name, value, units[name]))
    print("unscaled %-23s %14.4f ms" % ("reference_ms", reference))
    return total, {name: (metrics[name], units[name]) for name, _ in END_TO_END}


def traced(cli, workload: str, seed: int, seconds: float, workdir: str, out_path: str):
    import tracer as tracer_mod  # imports understory, so only after _import_cli

    per_round = len(gen.round_docs(workload, seed, 0))
    traced_rounds = math.ceil(TRACE_DOCS / per_round)
    total = Tally()
    plain_s = traced_s = 0.0
    spans: list = []
    counts: Counter = Counter()
    start = time.perf_counter()
    for k in itertools.count():
        docs = gen.round_docs(workload, seed, k)
        plain = run_round(cli, docs, workdir)
        with tracer_mod.Tracer() as tr:
            on = run_round(cli, docs, workdir, tr)
        total.add(plain)
        total.add(on)
        plain_s += plain.busy_s
        traced_s += on.busy_s
        if k < traced_rounds:
            spans += [(k * per_round + s[0],) + s[1:] for s in tr.spans]
            counts.update(tr.counts)
        if k + 1 >= traced_rounds and time.perf_counter() - start >= seconds:
            break
    metrics = tracer_mod.summarise(spans, counts)
    metrics["trace.overhead_pct"] = (traced_s / plain_s - 1) * 100 if plain_s else 0.0
    units = {name: unit for name, unit, _ in tracer_mod.METRICS}
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "traced_rounds": traced_rounds,
                   "docs": traced_rounds * per_round, "metrics": metrics,
                   "span_fields": ["doc", "id", "parent", "name", "start_ns", "end_ns"],
                   "spans": spans}, handle)
    print("%s seed %d: traced %d docs in %d rounds (%d spans), overhead measured over %d rounds; "
          "spans in %s" % (workload, seed, traced_rounds * per_round, traced_rounds,
                          len(spans), k + 1, out_path))
    return total, {name: (metrics[name], units[name]) for name, _, _ in tracer_mod.METRICS}


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in gen.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            _die("workload %s exited with %d" % (workload, proc.returncode))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics["%s/%s" % (workload, name)] = metric
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="PATH",
                        help="spans and per-layer metrics (default bench/out/trace-WORKLOAD-SEED.json)")
    args = parser.parse_args(argv)
    cli = _import_cli()
    if args.workload == "all":
        return run_all(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, "docs-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        if args.trace:
            out_path = args.trace_out or os.path.join(
                OUT_DIR, "trace-%s-%d.json" % (args.workload, args.seed))
            total, metrics = traced(cli, args.workload, args.seed, args.seconds,
                                    workdir, out_path)
        else:
            total, metrics = end_to_end(cli, args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print("%-32s %14.4f %s" % (name, value, unit))
    print("attempted %d operations, failed %d" % (total.attempted, total.failed))
    print(json.dumps({
        "correct": total.wrong == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
