#!/usr/bin/env python3
"""Gate on perf regressions between two xbarlife.bench.v1 documents.

Compares the median of every result name present in BOTH documents and
fails when any current median exceeds the baseline median by more than
--threshold (default 0.25 = 25%). Names present in only one document are
reported and skipped — machines differ, suites grow, and the gate must
not block on that.

Usage:
  build/apps/xbarlife bench --reps 5 --json bench_current.json
  python3 scripts/check_bench_regression.py \
      --baseline BENCH_PR4.json --current bench_current.json
  # PRs warn instead of failing:
  python3 scripts/check_bench_regression.py ... --warn-only

Additionally asserts two structural invariants on the *current*
document, both immune to --warn-only because they indicate bugs rather
than machine artifacts:

  * threaded-vs-serial: whenever a threaded/serial pair of the same
    input size is present — gemm_threaded/<dim> with gemm_serial/<dim>,
    sweep_threaded/{quick,full} with sweep_serial/{quick,full} — the
    threaded median must not exceed the serial median by more than
    --threaded-slack (default 0.10 = 10%). Threading that loses to
    serial execution is a grain-tuning / serial-fallback bug.
  * batched-vs-percell: when program_batched and program_percell are
    both present, the batched-executor median must not exceed the
    per-cell median by more than --batched-slack (default 0.10).
    Batched programming exists to amortize per-pulse work; losing to
    the per-cell path means the ProgramSequence pipeline regressed.
  * remote-loopback overhead: when program_remote_loopback and
    program_batched are both present, the remote median must stay
    within --remote-slack (default 12.0 = 12x) of the batched median.
    The remote path ships the full crossbar state both ways per
    sequence, so a generous multiple is expected (~8-10x measured) —
    but an unbounded blowup means the wire codec or the loopback
    worker regressed.
  * pool-vs-single overhead: when program_pool3_loopback and
    program_remote_loopback are both present, the 3-endpoint pool
    median must stay within --pool-slack (default 0.25 = 25%) of the
    single-endpoint remote median. Rendezvous hashing and circuit
    bookkeeping are O(endpoints) per sequence — a pool that costs
    materially more than one worker means dispatch overhead regressed.

Exit status: 0 when no regression (or --warn-only), 1 on regression or
a violated invariant, 2 on unusable inputs.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_bench_regression: cannot read {path}: {err}",
              file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != "xbarlife.bench.v1":
        print(f"check_bench_regression: {path} is not a bench.v1 document",
              file=sys.stderr)
        sys.exit(2)
    return {r["name"]: r for r in doc["results"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed bench.v1 baseline (BENCH_PR*.json)")
    parser.add_argument("--current", required=True,
                        help="freshly measured bench.v1 document")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative median increase (0.25 = 25%%)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (PR mode)")
    parser.add_argument("--threaded-slack", type=float, default=0.10,
                        help="allowed threaded-over-serial median excess "
                             "(0.10 = 10%%)")
    parser.add_argument("--batched-slack", type=float, default=0.10,
                        help="allowed batched-over-percell median excess "
                             "(0.10 = 10%%)")
    parser.add_argument("--remote-slack", type=float, default=12.0,
                        help="allowed remote-loopback-over-batched median "
                             "multiple (12.0 = 12x)")
    parser.add_argument("--pool-slack", type=float, default=0.25,
                        help="allowed pool(3)-over-remote(1) median excess "
                             "(0.25 = 25%%)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    shared = sorted(set(baseline) & set(current))
    skipped = sorted(set(baseline) ^ set(current))
    if not shared:
        print("check_bench_regression: no shared result names; nothing "
              "to compare", file=sys.stderr)
        sys.exit(2)

    regressions = []
    for name in shared:
        base = baseline[name]["median"]
        cur = current[name]["median"]
        ratio = cur / base if base > 0 else float("inf")
        marker = ""
        if ratio > 1.0 + args.threshold:
            regressions.append(name)
            marker = "  <-- REGRESSION"
        print(f"  {name}: baseline {base:.3f} ms, current {cur:.3f} ms "
              f"({ratio:.1%} of baseline){marker}")
    if skipped:
        print(f"  (skipped, present in only one document: "
              f"{', '.join(skipped)})")

    # Threaded must never lose to serial (beyond measurement slack) in
    # the freshly measured document. Pairs match on the input-size suffix
    # (gemm_threaded/512 with gemm_serial/512), never across sizes.
    violations = []
    pairs = []
    for threaded in sorted(current):
        for kind in ("gemm", "sweep"):
            prefix = f"{kind}_threaded/"
            if threaded.startswith(prefix):
                serial = f"{kind}_serial/" + threaded[len(prefix):]
                if serial in current:
                    pairs.append((threaded, serial))
    for threaded, serial in pairs:
        t = current[threaded]["median"]
        s = current[serial]["median"]
        ok = t <= s * (1.0 + args.threaded_slack)
        print(f"  invariant {threaded} <= {serial} * "
              f"{1.0 + args.threaded_slack:.2f}: {t:.3f} ms vs "
              f"{s:.3f} ms {'OK' if ok else '<-- VIOLATED'}")
        if not ok:
            violations.append(threaded)

    # Batched programming must never lose to the per-cell reference path
    # (beyond measurement slack) in the freshly measured document.
    batched_violations = []
    if "program_batched" in current and "program_percell" in current:
        b = current["program_batched"]["median"]
        p = current["program_percell"]["median"]
        ok = b <= p * (1.0 + args.batched_slack)
        print(f"  invariant program_batched <= program_percell * "
              f"{1.0 + args.batched_slack:.2f}: {b:.3f} ms vs "
              f"{p:.3f} ms {'OK' if ok else '<-- VIOLATED'}")
        if not ok:
            batched_violations.append("program_batched")

    # Remote loopback pays for serialization + framing + the worker's
    # array rebuild; bound the multiple so codec regressions show up.
    remote_violations = []
    if ("program_remote_loopback" in current
            and "program_batched" in current):
        r = current["program_remote_loopback"]["median"]
        b = current["program_batched"]["median"]
        ok = r <= b * args.remote_slack
        print(f"  invariant program_remote_loopback <= program_batched * "
              f"{args.remote_slack:.1f}: {r:.3f} ms vs {b:.3f} ms "
              f"{'OK' if ok else '<-- VIOLATED'}")
        if not ok:
            remote_violations.append("program_remote_loopback")

    # A 3-endpoint loopback pool must not cost materially more than a
    # single loopback worker: dispatch picks one owner per sequence, so
    # the extra work is hashing + circuit checks, not extra I/O.
    pool_violations = []
    if ("program_pool3_loopback" in current
            and "program_remote_loopback" in current):
        p = current["program_pool3_loopback"]["median"]
        r = current["program_remote_loopback"]["median"]
        ok = p <= r * (1.0 + args.pool_slack)
        print(f"  invariant program_pool3_loopback <= "
              f"program_remote_loopback * {1.0 + args.pool_slack:.2f}: "
              f"{p:.3f} ms vs {r:.3f} ms {'OK' if ok else '<-- VIOLATED'}")
        if not ok:
            pool_violations.append("program_pool3_loopback")

    failed = False
    if regressions:
        level = "WARN" if args.warn_only else "FAIL"
        print(f"check_bench_regression: {level}: {len(regressions)} of "
              f"{len(shared)} benches regressed beyond "
              f"{args.threshold:.0%}: {', '.join(regressions)}")
        failed = failed or not args.warn_only
    if violations:
        print(f"check_bench_regression: FAIL: threaded slower than "
              f"serial: {', '.join(violations)}")
        failed = True
    if batched_violations:
        print(f"check_bench_regression: FAIL: batched programming slower "
              f"than per-cell: {', '.join(batched_violations)}")
        failed = True
    if remote_violations:
        print(f"check_bench_regression: FAIL: remote-loopback overhead "
              f"out of bounds: {', '.join(remote_violations)}")
        failed = True
    if pool_violations:
        print(f"check_bench_regression: FAIL: pool dispatch overhead out "
              f"of bounds: {', '.join(pool_violations)}")
        failed = True
    if failed:
        return 1
    if not regressions:
        print(f"check_bench_regression: OK: {len(shared)} benches within "
              f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
