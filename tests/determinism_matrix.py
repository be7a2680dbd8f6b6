#!/usr/bin/env python3
"""The determinism matrix, and the one strip list its diffs go through.

xbarlife promises that a run's results do not depend on how it was
executed: the thread count, the kernel variant, the programming executor
(including a faulted link and a worker pool) and a checkpoint resume.
Each matrix cell runs the built CLI over its commands and diffs every
output against the sim / 1-thread / fresh reference of its own kernel:

  axes     threads {1, 4}
           x kernel auto   x executor {sim, remote, pool3, chaos}
                           x run {fresh, resumed}
           + kernel scalar x executor sim x run fresh    (see KERNEL_AXES)
  commands sweep (with --profile), faults, lifetime, and on the sim
           executor fork (see COMMANDS)

The per-cell programming reference is not an executor a run can select;
FastPathOracle.SimMatchesPerCellOverLifetimes (fast_path_oracle_test)
checks sim against it on the sweep, faults and lifetime workloads.

A "resumed" cell gets SIGINT as soon as the CLI has armed its handler, so
the cooperative shutdown fires at the first snapshot boundary, right after
the first checkpoint_saved event (on the faulted link it may fire earlier,
in a retry backoff). The run must exit 6; rerun on the same checkpoint, it
must match the reference's uninterrupted checkpointed run, because
checkpoint-mode documents use the deterministic finisher. A third run on
the complete snapshot, restoring everything, must match too.

Fresh 4-thread cells of executors other than chaos are also diffed against
their executor's 1-thread cell with only the always-stripped fields
removed: a worker pool's executor_pool stamp and per-endpoint request
counters must not depend on the thread count.

Subcommands:
  list                          cell names, each followed by the cells it
                                diffs against (tests/CMakeLists.txt
                                registers one ctest per cell from this)
  run CELL --cli BIN --workdir DIR
  strip [--across-executors] FILE
                                the normalized stream on stdout, for cmp

Replay one cell, or the whole matrix:
  ctest --test-dir build -R determinism_matrix.auto.pool3.t4.fresh \
      --output-on-failure
  ctest --test-dir build -L determinism_matrix -j4
"""

import argparse
import concurrent.futures
import json
import os
import pathlib
import resource
import shutil
import signal
import subprocess
import sys
import time

# ---------------------------------------------------------------------------
# The strip list. Everything a cell writes (event streams, result documents,
# Perfetto profiles) is compared after a JSON round trip that keeps key
# order; only these fields are removed first.

# Always stripped. Every wall-clock quantity is a key ending in "_ms"
# (event t_ms, sweep job wall_ms, *_ms histograms, profile rollup
# total_ms/self_ms) or a Perfetto "ts"/"dur". The checkpoint meta events
# are seq-less and record run history, not results.
WALL_CLOCK_SUFFIX = "_ms"
WALL_CLOCK_KEYS = ("ts", "dur")
CHECKPOINT_EVENTS = ("checkpoint_saved", "resume")

# Stripped only between cells with different executors: the envelope
# stamps, the remote link/wire/worker series (metric keys, profile spans
# and the counters grafted onto them), and span_count, which the extra
# remote spans raise.
EXECUTOR_STAMPS = ("executor", "executor_pool", "executor_degradation")
EXECUTOR_SERIES = ("executor.remote.", "net.", "worker.")
EXECUTOR_SPAN_COUNT = "span_count"


def _strip(node, across_executors):
    if isinstance(node, list):
        return [_strip(item, across_executors) for item in node
                if not (across_executors and isinstance(item, dict)
                        and str(item.get("name", "")).startswith(
                            EXECUTOR_SERIES))]
    if not isinstance(node, dict):
        return node
    out = {}
    for key, value in node.items():
        if key.endswith(WALL_CLOCK_SUFFIX) or key in WALL_CLOCK_KEYS:
            continue
        if across_executors and (key.startswith(EXECUTOR_SERIES)
                                 or key == EXECUTOR_SPAN_COUNT):
            continue
        out[key] = _strip(value, across_executors)
    return out


def strip_lines(path, across_executors):
    """Normalized lines of a JSONL stream or a single JSON document."""
    text = pathlib.Path(path).read_text()
    try:
        docs = [json.loads(text)]
    except json.JSONDecodeError:
        docs = [json.loads(line) for line in text.splitlines() if line]
    lines = []
    for doc in docs:
        if doc.get("event") in CHECKPOINT_EVENTS:
            continue
        if across_executors and "schema" in doc:
            doc = {k: v for k, v in doc.items() if k not in EXECUTOR_STAMPS}
        lines.append(json.dumps(_strip(doc, across_executors),
                                separators=(",", ":")))
    return lines


# ---------------------------------------------------------------------------
# The matrix.

COMMANDS = {
    "sweep": ["sweep", "--model", "mlp", "--sessions", "2",
              "--replicates", "2"],
    "faults": ["faults", "--model", "mlp", "--sessions", "2",
               "--stuck-off", "0,0.02", "--write-noise", "0.02",
               "--compare-ladder"],
    "lifetime": ["lifetime", "--model", "lenet5", "--sessions", "2"],
    # An ST+T / ST+AT pair on faulty arrays that tunes (456 iterations)
    # and walks the ladder; ST+AT rides on ST+T up to session 37, whose
    # remap rung picks an aged upper bound, and forks there.
    "fork": ["faults", "--model", "mlp", "--sessions", "38",
             "--stuck-off", "0.02", "--write-noise", "0.02",
             "--spare-rows", "4", "--scenario", "stt,stat"],
}
# Run on the sim executor only: over the remote link the fork command
# costs 4x (loopback) to about 50x (chaos) its sim time. The sweep
# command's pairs, which do not fork, carry lifetime_shared across every
# executor.
SIM_ONLY = ("fork",)
# Fresh runs of these also write a Perfetto profile (checkpoint-mode runs
# use the deterministic finisher, which profiles nothing per job).
PROFILED = ("sweep",)
# Snapshot granularity for checkpointed runs: one job per chunk, so a
# sweep is cut at a chunk boundary and a lifetime at a session boundary.
CHECKPOINT_FLAGS = {"sweep": ["--chunk", "1"], "faults": ["--chunk", "1"],
                    "lifetime": [], "fork": ["--chunk", "1"]}

THREADS = (1, 4)
RUNS = ("fresh", "resumed")
EXECUTORS = {
    "sim": ["--executor", "sim"],
    "remote": ["--executor", "remote", "--remote", "loopback"],
    "pool3": ["--executor", "remote",
              "--remote", "loopback,loopback,loopback"],
    "chaos": ["--executor", "remote", "--remote", "loopback",
              "--remote-faults",
              "seed=7,drop=0.1,corrupt=0.05,disconnect=0.02"],
}
# A faulted link retries. Its retry and reconnect accounting depends on
# how requests interleave, so its cells are diffed against the sim
# reference only; and a shutdown request is honoured in its first retry
# backoff, so a resumed run may stop before its first snapshot.
FAULTED = ("chaos",)
# The kernel variant changes nn and crossbar-read arithmetic in the
# client; neither programming executors nor snapshot restore dispatch
# through it. So the executor and resume axes run on the auto kernel, and
# the scalar kernel (about twice as slow) keeps its own reference and the
# thread axis: the full product would more than double the matrix's cost
# for no extra coverage.
KERNEL_AXES = {"scalar": (("sim",), ("fresh",)),
               "auto": (tuple(EXECUTORS), RUNS)}
REFERENCE = ("sim", 1, "fresh")

# The matrix pins every knob itself, so an inherited environment (the
# forced-environment suite reruns in CI, a developer's shell) cannot leak
# into a cell.
HERMETIC_ENV = ("XBARLIFE_THREADS", "XBARLIFE_KERNEL", "XBARLIFE_EXECUTOR",
                "XBARLIFE_REMOTE", "XBARLIFE_REMOTE_FAULTS", "XBARLIFE_TRACE",
                "XBARLIFE_PROFILE")
INTERRUPTED_EXIT = 6


def cell_name(kernel, executor, threads, run):
    return f"determinism_matrix.{kernel}.{executor}.t{threads}.{run}"


def parse_cell(name):
    _, kernel, executor, threads, run = name.split(".")
    return kernel, executor, int(threads[1:]), run


def cells():
    for kernel, (executors, runs) in KERNEL_AXES.items():
        for executor in executors:
            for threads in THREADS:
                for run in runs:
                    yield cell_name(kernel, executor, threads, run)


def baselines(name):
    """(cell, across_executors) pairs the cell is diffed against."""
    kernel, executor, threads, run = parse_cell(name)
    reference = cell_name(kernel, *REFERENCE)
    out = []
    if name != reference:
        out.append((reference, executor != REFERENCE[0]))
    own = cell_name(kernel, executor, 1, "fresh")
    if (run == "fresh" and own not in (name, reference)
            and executor not in FAULTED):
        out.append((own, False))
    return out


class CellFailure(Exception):
    pass


def run_cli(cli, argv, cwd, log, interrupt=False):
    env = {k: v for k, v in os.environ.items() if k not in HERMETIC_ENV}
    command = [cli] + argv
    log.write("$ " + " ".join(command) + "\n")
    log.flush()
    proc = subprocess.Popen(command, cwd=cwd, env=env, stdout=log,
                            stderr=subprocess.STDOUT)
    if interrupt:
        # Wait until the CLI has armed its SIGINT handler (SigCgt in
        # /proc), so the signal requests a cooperative shutdown instead of
        # killing the process.
        mask = 1 << (signal.SIGINT - 1)
        status = pathlib.Path(f"/proc/{proc.pid}/status")
        while proc.poll() is None:
            caught = next(line for line in status.read_text().splitlines()
                          if line.startswith("SigCgt:"))
            if int(caught.split()[1], 16) & mask:
                proc.send_signal(signal.SIGINT)
                break
            time.sleep(0.001)
    return proc.wait()


def run_command(cli, cmd, argv, cwd, executor, run, checkpointed):
    """Runs one command of a cell.

    Returns (output, baseline output) file-name pairs to diff.
    """
    with open(cwd / f"{cmd}.log", "w") as log:
        def must(args, out, expected=0, interrupt=False):
            code = run_cli(cli, args + ["--json", out], cwd, log, interrupt)
            if code != expected:
                raise CellFailure(f"{cmd}: exit {code}, expected {expected}"
                                  f" (see {log.name})")

        pairs = []
        if run == "fresh":
            profile = f"{cmd}.profile.json"
            profiling = ["--profile", profile] if cmd in PROFILED else []
            must(argv + profiling, f"{cmd}.jsonl")
            pairs.append((f"{cmd}.jsonl",) * 2)
            if profiling:
                pairs.append((profile,) * 2)
        if not checkpointed:
            return pairs
        ckpt = argv + CHECKPOINT_FLAGS[cmd] + ["--checkpoint", f"{cmd}.ckpt"]
        if run == "resumed":
            must(ckpt, f"{cmd}.cut.jsonl", INTERRUPTED_EXIT, interrupt=True)
            saved = (cwd / f"{cmd}.cut.jsonl").read_text().count(
                '"event":"checkpoint_saved"')
            if saved > 1 or (saved == 0 and executor not in FAULTED):
                raise CellFailure(f"{cmd}: interrupted run saved {saved} "
                                  f"snapshots, expected one")
        must(ckpt, f"{cmd}.ckpt.jsonl")
        if run == "resumed":
            # Once more on the now complete snapshot: everything restores.
            must(ckpt, f"{cmd}.rerun.jsonl")
            pairs += [(f"{cmd}.ckpt.jsonl",) * 2,
                      (f"{cmd}.rerun.jsonl", f"{cmd}.ckpt.jsonl")]
        return pairs


def run_cell(name, cli, workdir):
    kernel, executor, threads, run = parse_cell(name)
    cwd = pathlib.Path(workdir) / name
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    knobs = (["--threads", str(threads), "--kernel", kernel]
             + EXECUTORS[executor])
    # Checkpointed runs: the resumed cell's own, or the reference's
    # uninterrupted ones that resumed cells are diffed against.
    checkpointed = run == "resumed" or (
        (executor, threads, run) == REFERENCE
        and "resumed" in KERNEL_AXES[kernel][1])
    # The commands are independent; running them side by side keeps a
    # faulted cell's retry deadlines from adding up.
    commands = {cmd: argv for cmd, argv in COMMANDS.items()
                if executor == "sim" or cmd not in SIM_ONLY}
    with concurrent.futures.ThreadPoolExecutor(len(commands)) as pool:
        jobs = [pool.submit(run_command, cli, cmd, argv + knobs, cwd,
                            executor, run, checkpointed)
                for cmd, argv in commands.items()]
        pairs = [pair for job in jobs for pair in job.result()]
    validator = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
                 / "validate_json_output.py")
    for output, _ in pairs:
        check = subprocess.run([sys.executable, str(validator), output],
                               cwd=cwd, capture_output=True, text=True)
        if check.returncode != 0:
            raise CellFailure(f"{output}: {check.stderr.strip()}")
    for baseline, across in baselines(name):
        for output, theirs in pairs:
            diff_outputs(cwd / output, pathlib.Path(workdir) / baseline /
                         theirs, baseline, across)


def diff_outputs(path, baseline_path, baseline, across_executors):
    mine = strip_lines(path, across_executors)
    theirs = strip_lines(baseline_path, across_executors)
    if mine == theirs:
        return
    tier = "across executors" if across_executors else "same executor"
    for index, (a, b) in enumerate(zip(mine, theirs)):
        if a != b:
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                      min(len(a), len(b)))
            lo = max(0, at - 80)
            raise CellFailure(
                f"{path.name} differs from {baseline} ({tier}) at line "
                f"{index + 1}, char {at}:\n  this:     ...{a[lo:at + 120]}\n"
                f"  baseline: ...{b[lo:at + 120]}")
    raise CellFailure(f"{path.name} has {len(mine)} lines, {baseline} has "
                      f"{len(theirs)} ({tier})")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list")
    run = sub.add_parser("run")
    run.add_argument("cell")
    run.add_argument("--cli", required=True)
    run.add_argument("--workdir", required=True)
    strip = sub.add_parser("strip")
    strip.add_argument("--across-executors", action="store_true")
    strip.add_argument("path")
    args = parser.parse_args()

    if args.command == "list":
        for name in cells():
            print(" ".join([name] + [b for b, _ in baselines(name)]))
    elif args.command == "strip":
        for line in strip_lines(args.path, args.across_executors):
            print(line)
    else:
        start = time.monotonic()
        try:
            run_cell(args.cell, args.cli, args.workdir)
        except CellFailure as failure:
            print(f"FAIL {args.cell}: {failure}", file=sys.stderr)
            return 1
        cpu = resource.getrusage(resource.RUSAGE_CHILDREN)
        print(f"ok {args.cell}: {time.monotonic() - start:.1f} s wall, "
              f"{cpu.ru_utime + cpu.ru_stime:.1f} s cpu")
    return 0


if __name__ == "__main__":
    sys.exit(main())
