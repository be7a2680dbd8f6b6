#!/usr/bin/env python3
"""Parent-vs-change end-to-end speed gate over bench_e2e (stdlib only).

    python3 scripts/bench_e2e_gate.py PARENT_DIR CHANGE_DIR OUT_DIR

Runs `bench_e2e/run.py --workload W --seed 7` in both checkouts for every
workload CHANGE_DIR/BENCHMARK.json declares, ROUNDS times, alternating
which checkout runs first; run.py keeps its own run length. Each checkout builds its own benchmark. Records
go to OUT_DIR/parent.jsonl and OUT_DIR/change.jsonl, and the report of
`bench_e2e/compare.py parent.jsonl change.jsonl` to OUT_DIR/compare.txt.

Exit status: 1 when a run of the change is not correct (a failed job, or
an outcome that differs from its golden or its rerun); otherwise
compare.py's status: 0 when no metric is worse than its bound, 1 when one
is, 2 when the two sides' fingerprints differ. A change to bench_e2e/ or
BENCHMARK.json itself fails here by design: the parent's run.py rejects a
workload it does not know, and a changed config_hash makes compare.py
exit 2. Such a change needs a maintainer override, and its new baseline
is the next change's parent.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROUNDS = 3


def run(checkout, workload, out):
    """One bench_e2e run; returns its closing {"correct": ...} record."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench_e2e" / "run.py"),
         "--workload", workload, "--seed", "7", "--out", str(out)], capture_output=True, text=True)
    print(proc.stdout + proc.stderr, end="", flush=True)
    if proc.returncode != 0:
        sys.exit("bench_e2e_gate: run.py failed in %s" % checkout)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("out", type=Path)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name in sides:
        (args.out / (name + ".jsonl")).unlink(missing_ok=True)
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    wrong = []
    for i in range(ROUNDS):
        for j, workload in enumerate(w["name"] for w in spec["workloads"]):
            # Each workload's first runner flips from round to round.
            order = list(sides) if (i + j) % 2 == 0 else list(reversed(sides))
            for name in order:
                print("== round %d, %s, %s" % (i + 1, workload, name),
                      flush=True)
                record = run(sides[name], workload, args.out / (name + ".jsonl"))
                if name == "change" and not record["correct"]:
                    wrong.append("%s (round %d)" % (workload, i + 1))
    compare = subprocess.run(
        [sys.executable, str(sides["change"] / "bench_e2e" / "compare.py"),
         str(args.out / "parent.jsonl"), str(args.out / "change.jsonl")],
        capture_output=True, text=True)
    report = compare.stdout + compare.stderr
    if wrong:
        report += "not correct: %s\n" % ", ".join(wrong)
    (args.out / "compare.txt").write_text(report)
    print(report, end="")
    return 1 if wrong else compare.returncode


if __name__ == "__main__":
    sys.exit(main())
