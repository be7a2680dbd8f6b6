#!/usr/bin/env python3
"""End-to-end lifetime benchmark runner (stdlib only).

    python3 bench_e2e/run.py --workload mlp-sweep --seed 7 --seconds 25 --trace 0

Builds bench_e2e/ (the repository's libraries plus the benchmark program
xbarlife_e2e) into .bench_build/, then runs the workload rep after rep, each
rep a fresh xbarlife_e2e process on its own inputs, and prints every metric by name with its unit.
The last stdout line is the machine-readable result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Rep i of a run uses sweep seed sub_seed(--seed, i); rep 0 uses --seed
itself. The rep count follows from --seconds and the workload's nominal rep
time, so one --seconds value always measures the same inputs. Metrics are
medians over the reps.

--trace 0 reports the end-to-end metrics; --trace 1 additionally runs
xbarlife_e2e's traced walk on rep 0's inputs, writes a Chrome trace_event file
under .bench_build/traces/ and reports the per-layer metrics instead.

Correctness: no job may fail; rep 0 is run twice and must repeat exactly;
rep 0 must match the golden under bench_e2e/golden/ when one exists for the
seed and kernel; the traced walk must reproduce rep 0. Other modes:

    --smoke          quick check of the walk (the ctest entry point)
    --write-golden   regenerate the goldens for seeds 7 and 8
    --out FILE       append the result record, for compare.py
"""
import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "e2e"
GOLDEN = BENCH / "golden"
# Host seconds one rep takes on the 4-core VM the benchmark was calibrated
# on; the rep count is round(--seconds / nominal).
NOMINAL_REP_S = {
    "lenet5-table1": 4.0,
    "mlp-sweep": 4.4,
    "mlp-pool3": 2.9,
    "mlp-faults-ckpt": 3.5,
}
WORKLOADS = list(NOMINAL_REP_S)
GOLDEN_SEEDS = [7, 8]
SETUP_SAMPLES = 5  # extra set-up-only spawns per run, on top of the reps
MIN_REPS = 3
# Skip the remaining fresh-input reps once a run has used this multiple of
# --seconds, so a much slower build still finishes in time (it then
# reports fewer reps).
OVERRUN = 2.0
RUN_TIMEOUT_S = 150


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then (re)builds xbarlife_e2e; quiet unless it fails."""
    BUILD_ROOT.mkdir(exist_ok=True)
    log_path = BUILD_ROOT / "build.log"
    with open(BUILD_ROOT / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "xbarlife_e2e", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace")[-3000:]
                fail("build failed (" + " ".join(cmd) + "):\n" + tail)
    return BUILD / "xbarlife_e2e"


def sub_seed(seed, i):
    if i == 0:
        return seed
    digest = hashlib.blake2b(b"%d/%d" % (seed, i), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def rep_count(workload, seconds):
    return max(MIN_REPS, round(seconds / NOMINAL_REP_S[workload]))


def spawn(binary, workload, seed, mode, *extra):
    """Runs xbarlife_e2e once; returns its JSON document plus set-up time,
    measured from spawn to the program's ready stamp (both CLOCK_MONOTONIC)."""
    args = [str(binary), "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--tmp", str(BUILD_ROOT)] + list(extra)
    spawned = time.monotonic_ns()
    proc = subprocess.run(args, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("xbarlife_e2e %s exited %d: %s" % (" ".join(args[1:]), proc.returncode,
                                          proc.stderr.strip()[-2000:]))
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = (doc["ready_ns"] - spawned) / 1e9
    return doc


def golden_jobs(seed, kernel, workload):
    path = GOLDEN / ("seed%d.json" % seed)
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(kernel, {}).get(workload)


def summarize(values, unit, aggregate=statistics.median):
    p25, _, p75 = statistics.quantiles(values, n=4)
    return {"value": aggregate(values), "unit": unit, "p25": p25, "p75": p75,
            "n": len(values), "samples": values}


class Checker:
    """Counts jobs attempted and jobs whose outcome is wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, jobs, what, expected=None, expected_what=""):
        self.attempted += len(jobs)
        if expected is not None and len(expected) != len(jobs):
            self.failed += len(jobs)
            self.problems.append("%s ran %d jobs, %s has %d"
                                 % (what, len(jobs), expected_what, len(expected)))
            return
        for i, job in enumerate(jobs):
            bad = []
            if job.get("failed"):
                bad.append("failed: " + job.get("error", ""))
            if expected is not None and job != expected[i]:
                bad.append("differs from " + expected_what)
            if bad:
                self.failed += 1
                self.problems.append("%s %s: %s" % (what, job["label"],
                                                   "; ".join(bad)))


def layer_metrics(walk, e2e_wall):
    """Per-layer metrics from the traced walk's span rollup and counters."""
    spans, k = walk["spans"], walk["counters"]
    net = k["net"]
    out = {}
    # Spans every workload exercises on every seed report their time; the
    # rescue and checkpoint spans only run on some workloads, so they
    # report counts (a constant-zero time reads as unmeasured).
    timed = ["job", "data.make_synthetic", "core.train_model",
             "tuning.hw_build", "tuning.deploy", "nn.range_eval",
             "lifetime.session", "xbar.drift", "tuning.tune",
             "xbar.aging_stats"]
    for name in timed + ["resilience.rescue", "persist.save"]:
        s = spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[name + ".calls"] = (s["calls"], "count")
        if name in timed:
            out[name + ".total_s"] = (s["total_s"], "s")
            out[name + ".self_s"] = (s["self_s"], "s")

    def ratio(a, b):
        return a / b if b else 0.0

    def c(name):  # counters the walk never incremented are absent
        return k.get(name, 0)

    walls = k["job_wall_s"]
    out.update({
        "tuning.iterations": (c("tune_iterations"), "count"),
        "tuning.us_per_iter": (1e6 * ratio(spans["tuning.tune"]["total_s"],
                                           c("tune_iterations")), "us"),
        "tuning.pulses": (c("tune_pulses"), "count"),
        "tuning.converged_ratio": (ratio(c("tune_converged"), c("tune_calls")),
                                   "ratio"),
        "xbar.pulses": (c("pulses"), "count"),
        "xbar.sequences": (c("sequences"), "count"),
        "xbar.column_batches": (c("column_batches"), "count"),
        "xbar.pulses_per_batch": (ratio(c("pulses"), c("column_batches")),
                                  "ratio"),
        "mapping.cells_programmed": (c("cells_programmed"), "count"),
        "mapping.cells_clamped": (c("cells_clamped"), "count"),
        "lifetime.sessions": (c("sessions"), "count"),
        "lifetime.rescues": (c("rescues"), "count"),
        "lifetime.rescue_saved_ratio": (ratio(c("rescues_saved"),
                                              c("rescues")), "ratio"),
        "resilience.rungs": (c("rungs"), "count"),
        "resilience.degraded_sessions": (c("degraded_sessions"), "count"),
        "net.requests": (net["requests"], "count"),
        "net.bytes_per_request": (ratio(net["bytes"], net["requests"]),
                                  "bytes"),
        "net.retries": (net["retries"], "count"),
        "net.endpoint_max_share": (ratio(net["endpoint_max_requests"],
                                         net["requests"]), "ratio"),
        "persist.bytes_written": (c("bytes_written"), "bytes"),
        "parallel.imbalance": (ratio(max(walls), statistics.mean(walls)),
                               "ratio"),
        "trace.unattributed_share": (
            ratio(spans["job"]["self_s"] + spans["lifetime.session"]["self_s"],
                  spans["job"]["total_s"]), "ratio"),
        "trace_overhead": (walk["wall_s"] / e2e_wall - 1.0, "ratio"),
    })
    return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}


def measure(binary, workload, seed, seconds, trace):
    reps_wanted = rep_count(workload, seconds)
    setups = [spawn(binary, workload, seed, "setup")["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    start = time.monotonic()
    reps = []
    for i in range(reps_wanted - 1):
        if i >= MIN_REPS - 1 and time.monotonic() - start > OVERRUN * seconds:
            break
        reps.append(spawn(binary, workload, sub_seed(seed, i), "run"))
    # The last rep reruns rep 0's inputs: the determinism check costs no
    # extra time, and its timing is as valid a sample as any other.
    reps.append(spawn(binary, workload, seed, "run"))
    first = reps[0]
    checker = Checker()
    golden = golden_jobs(seed, first["kernel"], workload)
    checker.check(first["jobs"], "rep 0", golden, "the golden")
    for i, rep in enumerate(reps[1:-1], 1):
        checker.check(rep["jobs"], "rep %d" % i)
    checker.check(reps[-1]["jobs"], "rep 0 rerun", first["jobs"], "rep 0")

    metrics = {
        "wall_s": summarize([r["wall_s"] for r in reps], "s"),
        "sessions_per_s": summarize([r["sessions"] / r["wall_s"] for r in reps],
                                    "1/s"),
        "setup_s": summarize(setups + [r["setup_s"] for r in reps], "s"),
        # Peak memory depends on the inputs, so the run reports the peak
        # over its reps.
        "peak_rss_mb": summarize([r["peak_rss_mb"] for r in reps], "MB", max),
    }
    fingerprint = {k: first[k] for k in ("workload", "config_hash", "seed",
                                         "threads", "kernel", "executor")}
    fingerprint["reps"] = reps_wanted
    result = {"fingerprint": fingerprint, "trace": trace, "metrics": metrics,
              "reps": len(reps), "golden": golden is not None,
              "lifetime_apps": [sum(j.get("lifetime_applications", 0)
                                    for j in r["jobs"]) for r in reps]}
    if trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(exist_ok=True)
        trace_path = traces / ("%s-seed%d.trace.json" % (workload, seed))
        walk = spawn(binary, workload, seed, "walk", "--trace-out", str(trace_path))
        checker.check(walk["jobs"], "walk", first["jobs"], "rep 0")
        same_inputs = statistics.mean([first["wall_s"], reps[-1]["wall_s"]])
        result["layers"] = layer_metrics(walk, same_inputs)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    result.update(attempted=checker.attempted, failed=checker.failed,
                  problems=checker.problems)
    return result


def report(result):
    fp = result["fingerprint"]
    print("workload %s seed %d: %d rep(s) of %d, %d thread(s), kernel %s, "
          "executor %s, config %s" % (fp["workload"], fp["seed"], result["reps"],
                                      fp["reps"], fp["threads"], fp["kernel"],
                                      fp["executor"], fp["config_hash"]))
    print("golden: %s; lifetime_apps per rep %s; jobs attempted %d, wrong %d"
          % ("checked" if result["golden"] else "none for this seed",
             result["lifetime_apps"], result["attempted"], result["failed"]))
    for problem in result["problems"]:
        print("  WRONG " + problem)
    for name, m in result["metrics"].items():
        print("  %-16s %14.6g %-4s (p25 %.6g, p75 %.6g, %d samples)"
              % (name, m["value"], m["unit"], m["p25"], m["p75"], m["n"]))
    for name, m in result.get("layers", {}).items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    if "trace_file" in result:
        print("trace: " + result["trace_file"])


def smoke(binary):
    checker = Checker()
    run = spawn(binary, "smoke", 7, "run")
    golden = golden_jobs(7, run["kernel"], "smoke")
    if golden is None:
        checker.failed += 1
        checker.problems.append("no smoke golden for kernel " + run["kernel"])
    checker.check(run["jobs"], "run", golden, "the golden")
    checker.check(spawn(binary, "smoke", 7, "walk")["jobs"], "walk",
                  run["jobs"], "the run")
    for problem in checker.problems:
        print("WRONG " + problem)
    print("smoke: %d jobs checked, %d wrong" % (checker.attempted, checker.failed))
    return 1 if checker.failed else 0


def write_golden(binary):
    GOLDEN.mkdir(exist_ok=True)
    for seed in GOLDEN_SEEDS:
        doc = {}
        for kernel in ("scalar", "avx2"):
            probe = subprocess.run([str(binary), "--workload", "smoke",
                                    "--mode", "setup", "--kernel", kernel],
                                   capture_output=True)
            if probe.returncode != 0:
                print("kernel %s unavailable here; skipped" % kernel)
                continue
            doc[kernel] = {}
            for workload in WORKLOADS + ["smoke"]:
                jobs = spawn(binary, workload, seed, "run", "--kernel",
                             kernel)["jobs"]
                if any(j.get("failed") for j in jobs):
                    fail("%s seed %d failed; golden not written" % (workload, seed))
                doc[kernel][workload] = jobs
                print("seed %d %s %s: %d jobs" % (seed, kernel, workload,
                                                 len(jobs)))
        (GOLDEN / ("seed%d.json" % seed)).write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the result record to this JSONL file")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    ap.add_argument("--binary", help="use this xbarlife_e2e instead of building")
    args = ap.parse_args()

    binary = Path(args.binary) if args.binary else build()
    if args.smoke:
        return smoke(binary)
    if args.write_golden:
        write_golden(binary)
        return 0
    if not args.workload:
        fail("--workload is required")
    result = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    report(result)
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps(result) + "\n")
    metrics = result["layers"] if args.trace else {
        name: {"value": m["value"], "unit": m["unit"]}
        for name, m in result["metrics"].items()}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
