#!/usr/bin/env python3
"""Gates the structural speed ratios of micro_kernels (stdlib only).

    build/bench/micro_kernels --benchmark_filter=BM_ProgramPass \\
        --benchmark_repetitions=5 --benchmark_format=json > micro.json
    python3 scripts/check_micro_ratios.py micro.json

Each bound compares two rows of the same run, so the host's speed cancels
out. A row's time is the median real time over its repetitions; a fixed
iteration count's "/iterations:N" suffix is not part of its name.

    BM_ProgramPass/batched         <= BM_ProgramPass/percell x 1.10
    BM_ProgramPass/remote_loopback <= BM_ProgramPass/batched x 12
    BM_ProgramPass/pool3_loopback  <= BM_ProgramPass/remote_loopback x 1.25

Exit status: 0 when every bound holds, 1 when one is violated, 2 on
unusable input (a missing or failed row).
"""
import json
import statistics
import sys

PASS = "BM_ProgramPass/"
BOUNDS = [(PASS + "batched", PASS + "percell", 1.10),
          (PASS + "remote_loopback", PASS + "batched", 12.0),
          (PASS + "pool3_loopback", PASS + "remote_loopback", 1.25)]
MS_PER_UNIT = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def medians(doc):
    """Median real time in ms per run name, from repetitions or aggregates."""
    reps, aggregate = {}, {}
    for row in doc["benchmarks"]:
        if row.get("error_occurred"):
            sys.exit("check_micro_ratios: %s failed: %s"
                     % (row["name"], row.get("error_message")))
        ms = row["real_time"] * MS_PER_UNIT[row["time_unit"]]
        name = row.get("run_name", row["name"]).split("/iterations:")[0]
        if row.get("run_type") != "aggregate":
            reps.setdefault(name, []).append(ms)
        elif row.get("aggregate_name") == "median":
            aggregate[name] = ms
    return {**aggregate, **{n: statistics.median(v) for n, v in reps.items()}}


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as handle:
        times = medians(json.load(handle))
    missing = sorted({n for b in BOUNDS for n in b[:2] if n not in times})
    if missing:
        print("check_micro_ratios: missing rows: " + ", ".join(missing))
        return 2
    violated = 0
    for row, ref, slack in BOUNDS:
        ok = times[row] <= times[ref] * slack
        violated += not ok
        print("%-31s %9.4f ms <= %-31s %9.4f ms x %5.2f  %s"
              % (row, times[row], ref, times[ref], slack,
                 "OK" if ok else "VIOLATED"))
    return 1 if violated else 0


if __name__ == "__main__":
    sys.exit(main())
