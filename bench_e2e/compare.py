#!/usr/bin/env python3
"""Compares two result sets written by `run.py --out FILE` (stdlib only).

    python3 bench_e2e/compare.py PARENT.jsonl CHANGE.jsonl
    python3 bench_e2e/compare.py --pairs PARENT.jsonl CHANGE.jsonl

Both sets must hold the same runs: per workload the same config hash,
seeds, threads, kernel, executor and rep count. Otherwise nothing is
compared and the exit code is 2.

Default mode: for every workload and end-to-end metric, the change's median
over its runs against the parent's, judged by the bound BENCHMARK.json
fixes: better, worse, within bound, or unresolved when either side's
run-to-run spread (quartile distance over median) exceeds the bound and
not every change run beats every parent run. Exit code 1 if any is worse.

--pairs: the i-th parent run and the i-th change run of a workload form a
pair (run them alternately, same seed, at least 10 pairs). A metric shows a
gain when the change wins at least 9 in 10 pairs (ties count for neither)
and the medians differ by more than the parent's quartile distance.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
FINGERPRINT = ("config_hash", "seed", "threads", "kernel", "executor", "reps")
MIN_PAIRS = 10


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec.get("trace") == 0:
                runs.setdefault(rec["fingerprint"]["workload"], []).append(rec)
    return runs


def fingerprints(recs):
    return sorted(tuple(r["fingerprint"][k] for k in FINGERPRINT) for r in recs)


def quartile_distance(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def better(a, b, direction):
    """True when value b is better than value a."""
    return b < a if direction == "lower" else b > a


def compare(parent, change, specs):
    worse = False
    for workload in sorted(parent):
        for spec in specs:
            name, bound, direction = spec["name"], spec["bound"], spec["better"]
            a = [r["metrics"][name]["value"] for r in parent[workload]]
            b = [r["metrics"][name]["value"] for r in change[workload]]
            ma, mb = statistics.median(a), statistics.median(b)
            shift = (mb - ma) / ma if ma else 0.0
            worsening = shift if direction == "lower" else -shift
            spread = max(quartile_distance(a) / ma if ma else 0.0,
                         quartile_distance(b) / mb if mb else 0.0)
            if all(better(x, y, direction) for x in a for y in b):
                verdict = "better"
            elif spread > bound:
                verdict = "unresolved"
            elif worsening > bound:
                verdict, worse = "worse", True
            elif worsening < -bound:
                verdict = "better"
            else:
                verdict = "within bound"
            print("%-16s %-15s parent %-11.5g change %-11.5g %+7.1f%% "
                  "spread %5.1f%% bound %4.1f%%  %s"
                  % (workload, name, ma, mb, 100 * shift, 100 * spread,
                     100 * bound, verdict))
    return 1 if worse else 0


def pairs(parent, change, specs):
    for workload in sorted(parent):
        a_runs, b_runs = parent[workload], change[workload]
        if len(a_runs) < MIN_PAIRS:
            print("%-16s only %d pairs; need %d" % (workload, len(a_runs),
                                                   MIN_PAIRS))
            continue
        for x, y in zip(a_runs, b_runs):
            if x["fingerprint"]["seed"] != y["fingerprint"]["seed"]:
                print("%s: pair seeds differ (%d vs %d)" % (
                    workload, x["fingerprint"]["seed"], y["fingerprint"]["seed"]))
                return 2
        for spec in specs:
            name, direction = spec["name"], spec["better"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            wins = sum(better(x, y, direction) for x, y in zip(a, b))
            ma, mb = statistics.median(a), statistics.median(b)
            gap, iqr = abs(mb - ma), quartile_distance(a)
            gain = (wins >= 0.9 * len(a) and gap > iqr and
                    better(ma, mb, direction))
            print("%-16s %-15s wins %2d/%-2d parent %-11.5g (IQR %.3g) "
                  "change %-11.5g  %s" % (workload, name, wins, len(a), ma, iqr,
                                          mb, "gain" if gain else "no gain"))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", action="store_true")
    args = ap.parse_args()
    specs = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    mismatched = [w for w in sorted(set(parent) | set(change))
                  if fingerprints(parent.get(w, [])) !=
                  fingerprints(change.get(w, []))]
    for workload in mismatched:
        print("%s: fingerprints differ; not compared\n  parent %s\n  change %s"
              % (workload, fingerprints(parent.get(workload, [])),
                 fingerprints(change.get(workload, []))))
    if mismatched:
        return 2
    return (pairs if args.pairs else compare)(parent, change, specs)


if __name__ == "__main__":
    sys.exit(main())
