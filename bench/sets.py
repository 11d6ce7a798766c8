"""Run a set of seeds per workload and judge its spread, or compare two sets.

Run from the root of an understory checkout:

    python3 bench/sets.py --seeds 1-10 --out bench/out/set-a.jsonl
    python3 bench/sets.py --seeds 11-20 --out bench/out/set-b.jsonl --against bench/out/set-a.jsonl

Each run is `bench/run.py` in its own process, on every workload in
BENCHMARK.json, with its run length.  For every end-to-end metric the
summary gives the median over the set and the spread: the distance between
the first and third quartiles as a share of the median; for the scaled
times it also gives the unscaled ones and the reference loop's mean, the
scale's divisor, for information.  A set passes when every spread stays
within the metric's bound; against an earlier set it also passes when no
median is worse by more than the bound and the failed share is the same.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_set(spec: dict, workloads: list[str], seed_list: list[int], out: str) -> None:
    with open(out, "w", encoding="utf-8") as handle:
        for workload in workloads:
            for seed in seed_list:
                cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    sys.exit("%s seed %d exited with %d" % (workload, seed, proc.returncode))
                lines = proc.stdout.splitlines()
                result = json.loads(lines[-1])
                unscaled = {line.split()[1]: float(line.split()[2])
                            for line in lines if line.startswith("unscaled ")}
                handle.write(json.dumps({"workload": workload, "seed": seed, "result": result,
                                         "unscaled": unscaled}) + "\n")
                handle.flush()
                print("%s seed %d: attempted %d failed %d" % (
                    workload, seed, result["attempted"], result["failed"]), flush=True)


def summarise(path: str) -> dict:
    """workload -> {metric: (median, spread), "failed_share": ...}."""
    rows: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            rows.setdefault(row["workload"], []).append(row)
    out = {}
    for workload, runs in rows.items():
        results = [r["result"] for r in runs]
        summary = {"runs": len(results),
                   "failed_share": sorted({r["failed"] / r["attempted"] for r in results})}
        columns = {name: [r["metrics"][name]["value"] for r in results]
                   for name in results[0]["metrics"]}
        for name in runs[0].get("unscaled", {}):
            columns["unscaled " + name] = [r["unscaled"][name] for r in runs]
        for name, values in columns.items():
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[name] = (median, (q3 - q1) / median)
        out[workload] = summary
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="N or N-M")
    parser.add_argument("--out", required=True, help="JSON lines, one per run")
    parser.add_argument("--against", help="an earlier set's file to compare with")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    run_set(spec, [w["name"] for w in spec["workloads"]], seeds(args.seeds), args.out)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    now = summarise(args.out)
    before = summarise(args.against) if args.against else {}
    ok = True
    for workload, summary in now.items():
        print("%s: %d runs, failed share %s" % (workload, summary["runs"], summary["failed_share"]))
        if workload in before and before[workload]["failed_share"] != summary["failed_share"]:
            ok = False
            print("  failed share differs from the earlier set")
        for name, (bound, better) in bounds.items():
            median, spread = summary[name]
            verdict = "ok"
            if spread > bound:
                verdict, ok = "SPREAD ABOVE BOUND", False
            line = "  %-18s median %11.4f  spread %.3f  bound %.2f" % (name, median, spread, bound)
            if workload in before:
                earlier = before[workload][name][0]
                worse = (median - earlier) / earlier if better == "lower" else (earlier - median) / earlier
                line += "  earlier %11.4f  worse by %+.3f" % (earlier, worse)
                if worse > bound:
                    verdict, ok = "WORSE THAN BOUND", False
            print(line + "  " + verdict)
            if "unscaled " + name in summary:
                median, spread = summary["unscaled " + name]
                print("    unscaled %11.4f  spread %.3f" % (median, spread))
        median, spread = summary["unscaled reference_ms"]
        line = "  reference loop mean %.4f ms  spread %.3f" % (median, spread)
        if workload in before:
            line += "  earlier %.4f ms" % before[workload]["unscaled reference_ms"][0]
        print(line)
    print("set passes" if ok else "set FAILS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
