#!/usr/bin/env python3
"""Validate xbarlife's machine-readable JSON output.

Reads a JSONL stream (stdin or a file), checks that every line parses,
validates the final document, and reports the event counts seen along the
way. The final document's type is auto-detected:

  * result documents   — schema "xbarlife.result.v1" with keys
                         schema/command/kernel/executor/data/metrics (+ optional
                         trailing "profile" span-aggregate rollup),
  * profile documents  — Chrome trace_event/Perfetto JSON as written by
                         --profile (otherData.schema "xbarlife.profile.v1"),
  * worker stats       — schema "xbarlife.workerstats.v1" as emitted by
                         `xbarlife worker-status --json` (uptime, request
                         accounting, latency histograms),
  * progress snapshots — schema "xbarlife.progress.v1" as written by
                         --status-file (phase, done/total, ETA, counters).

Every `lifetime_shared` event (an ST+AT job's ride on its ST+T owner)
must carry owner/sessions/fork_session, plus layer/fresh_bound/
aware_bound when it forked; a job has at most one, before its
sweep_job_done.

Histograms inside result/workerstats metrics are checked against the
bucketed-histogram schema: plain summaries carry count/sum/min/max/mean;
bucketed ones append p50/p95/p99 and a sparse "buckets" object whose
counts must sum to "count" (64 fixed log2 buckets, keys "0".."63").

With --ckpt the argument is instead a binary checkpoint snapshot
("xbarlife.ckpt.v1": one JSON header line + raw payload); the header
fields, payload length, and CRC-32 are verified.

Usage:
  xbarlife lifetime --model lenet5 --sessions 2 --json - \
      | python3 scripts/validate_json_output.py
  python3 scripts/validate_json_output.py trace.jsonl
  python3 scripts/validate_json_output.py profile.json
  python3 scripts/validate_json_output.py --ckpt sweep.ckpt
  python3 scripts/validate_json_output.py --exe build/apps/xbarlife -- \
      lifetime --model mlp --sessions 2
  python3 scripts/validate_json_output.py --expect-events sweep_job_done=6

Exit status: 0 when the stream is valid, 1 otherwise.
"""

import argparse
import collections
import json
import subprocess
import sys
import zlib

RESULT_SCHEMA = "xbarlife.result.v1"
PROFILE_SCHEMA = "xbarlife.profile.v1"
CKPT_SCHEMA = "xbarlife.ckpt.v1"
CKPT_KINDS = ("train", "lifetime", "sweep", "faults")
RESULT_KEYS = ["schema", "command", "kernel", "executor", "data", "metrics"]
METRIC_KEYS = ["counters", "gauges", "histograms"]
KNOWN_EXECUTORS = ("sim", "remote")
DEGRADATION_KEYS = ["fallback_executor", "fallbacks", "retries", "reconnects"]
POOL_ENDPOINT_KEYS = ["address", "circuit", "requests", "failovers",
                      "circuit_opens"]
CIRCUIT_STATES = ("healthy", "suspect", "open")
WORKERSTATS_SCHEMA = "xbarlife.workerstats.v1"
WORKERSTATS_KEYS = ["schema", "build", "wire_version", "request_version",
                    "uptime_ms", "requests_served", "replay_hits", "errors",
                    "active_connections", "connections_total", "metrics"]
PROGRESS_SCHEMA = "xbarlife.progress.v1"
PROGRESS_KEYS = ["schema", "command", "phase", "done", "total",
                 "elapsed_ms", "finished", "counters"]
HIST_KEYS = ["count", "sum", "min", "max", "mean"]
HIST_BUCKETED_KEYS = HIST_KEYS + ["p50", "p95", "p99", "buckets"]
HIST_BUCKET_COUNT = 64


def fail(message):
    print(f"validate_json_output: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def read_lines(args):
    if args.exe:
        # With --exe the positionals form the command line; argparse puts
        # the first token (the subcommand) into `path`.
        lead = [args.path] if args.path != "-" else []
        cmd = [args.exe] + lead + args.cmd + ["--json", "-"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            fail(f"{' '.join(cmd)} exited {proc.returncode}: "
                 f"{proc.stderr.strip()}")
        return proc.stdout.splitlines()
    if args.path and args.path != "-":
        with open(args.path, encoding="utf-8") as handle:
            return handle.read().splitlines()
    return sys.stdin.read().splitlines()


def validate_faults_data(data):
    """Checks a `faults` campaign document's data payload."""
    campaign = data.get("campaign")
    if not isinstance(campaign, dict):
        fail("faults data must carry a 'campaign' object")
    for key in ("campaign_seed", "job_count", "results"):
        if key not in campaign:
            fail(f"faults campaign missing {key!r}")
    results = campaign["results"]
    if not isinstance(results, list) or len(results) != campaign["job_count"]:
        fail("faults campaign 'results' must be a list of job_count entries")
    for index, entry in enumerate(results):
        if not isinstance(entry, dict):
            fail(f"campaign entry {index} is not an object")
        for key in ("label", "point", "scenario", "seed", "fault_seed"):
            if key not in entry:
                fail(f"campaign entry {index} missing {key!r}")
        if entry.get("failed"):
            if not entry.get("error"):
                fail(f"failed campaign entry {index} has no 'error'")
        elif "lifetime_applications" not in entry or "died" not in entry:
            fail(f"campaign entry {index} lacks lifetime fields")
        if entry.get("timed_out") and not entry.get("failed"):
            fail(f"campaign entry {index} is timed_out but not failed")
        if "wall_ms" in entry:
            fail(f"campaign entry {index} carries nondeterministic wall_ms")


def validate_lifetime_shared(docs):
    """At most one well-formed lifetime_shared per job, before its
    sweep_job_done."""
    shared = set()
    done = set()
    for doc in docs:
        if not isinstance(doc, dict):
            continue
        job = doc.get("job")
        if doc.get("event") == "sweep_job_done":
            done.add(job)
        if doc.get("event") != "lifetime_shared":
            continue
        where = f"lifetime_shared of job {job!r}"
        if job in shared:
            fail(f"{where}: a job rides at most once")
        if job in done:
            fail(f"{where}: comes after the job's sweep_job_done")
        shared.add(job)
        if not isinstance(doc.get("owner"), str) or not doc["owner"]:
            fail(f"{where}: owner must be a non-empty string")
        sessions = doc.get("sessions")
        if not isinstance(sessions, int) or sessions < 0:
            fail(f"{where}: sessions must be a non-negative integer")
        if "fork_session" not in doc:
            fail(f"{where}: missing fork_session")
        fork = doc["fork_session"]
        if fork is None:
            continue
        if not isinstance(fork, int) or fork < sessions:
            fail(f"{where}: fork_session must be an integer >= sessions")
        layer = doc.get("layer")
        if not isinstance(layer, int) or layer < 0:
            fail(f"{where}: layer must be a non-negative integer")
        for key in ("fresh_bound", "aware_bound"):
            if not isinstance(doc.get(key), (int, float)) or doc[key] <= 0:
                fail(f"{where}: {key} must be a positive number")
        if doc["aware_bound"] == doc["fresh_bound"]:
            fail(f"{where}: a fork needs an aware_bound other than "
                 f"fresh_bound")


def validate_histograms(histograms, where):
    """Checks every histogram summary in a metrics object against the
    plain or bucketed schema."""
    if not isinstance(histograms, dict):
        fail(f"{where}: 'histograms' must be an object")
    for name, hist in histograms.items():
        keys = list(hist.keys())
        if keys not in (HIST_KEYS, HIST_BUCKETED_KEYS):
            fail(f"{where}: histogram {name!r} keys {keys} match neither "
                 f"{HIST_KEYS} nor {HIST_BUCKETED_KEYS}")
        if not isinstance(hist["count"], int) or hist["count"] < 1:
            fail(f"{where}: histogram {name!r} count must be >= 1 "
                 f"(empty histograms are never exported)")
        if "buckets" not in hist:
            continue
        if not hist["min"] <= hist["p50"] <= hist["p95"] <= hist["p99"] \
                <= hist["max"]:
            fail(f"{where}: histogram {name!r} quantiles out of order")
        buckets = hist["buckets"]
        if not isinstance(buckets, dict) or not buckets:
            fail(f"{where}: bucketed histogram {name!r} has no buckets")
        total = 0
        for key, value in buckets.items():
            if not key.isdigit() or int(key) >= HIST_BUCKET_COUNT:
                fail(f"{where}: histogram {name!r} bucket key {key!r} "
                     f"outside 0..{HIST_BUCKET_COUNT - 1}")
            if not isinstance(value, int) or value < 1:
                fail(f"{where}: histogram {name!r} bucket {key!r} count "
                     f"{value!r} must be a positive integer (zero "
                     f"buckets are elided)")
            total += value
        if total != hist["count"]:
            fail(f"{where}: histogram {name!r} bucket counts sum to "
                 f"{total}, expected count {hist['count']}")


def validate_metrics(metrics, where):
    if not isinstance(metrics, dict) or list(metrics.keys()) != METRIC_KEYS:
        fail(f"{where}: 'metrics' must have keys {METRIC_KEYS}")
    validate_histograms(metrics["histograms"], where)


def validate_workerstats(doc):
    """Checks an xbarlife.workerstats.v1 document (worker-status)."""
    # worker-status stamps the queried endpoint right after "schema" on
    # every document (a single address is a list of one); documents from
    # builds before that omit it.
    base = list(doc.keys())
    if "endpoint" in base:
        if base.index("endpoint") != base.index("schema") + 1:
            fail("workerstats 'endpoint' must directly follow 'schema'")
        if not isinstance(doc["endpoint"], str) or not doc["endpoint"]:
            fail("workerstats 'endpoint' must be a non-empty string")
        base.remove("endpoint")
    if base != WORKERSTATS_KEYS:
        fail(f"workerstats keys {list(doc.keys())} != {WORKERSTATS_KEYS} "
             f"(+ optional 'endpoint')")
    if not isinstance(doc["build"], str) or not doc["build"]:
        fail("workerstats 'build' must be a non-empty string")
    for key in ("wire_version", "request_version"):
        if not isinstance(doc[key], int) or doc[key] < 1:
            fail(f"workerstats {key!r} must be a positive integer")
    for key in ("uptime_ms", "requests_served", "replay_hits", "errors",
                "active_connections", "connections_total"):
        if not isinstance(doc[key], int) or doc[key] < 0:
            fail(f"workerstats {key!r} must be a non-negative integer")
    if doc["active_connections"] > doc["connections_total"]:
        fail("workerstats active_connections exceeds connections_total")
    validate_metrics(doc["metrics"], "workerstats")
    return (f"build={doc['build']!r}, "
            f"{doc['requests_served']} requests served")


def validate_progress(doc):
    """Checks an xbarlife.progress.v1 snapshot (--status-file)."""
    keys = list(doc.keys())
    base = list(keys)
    # eta_ms is optional (absent until a unit completes / once finished)
    # and sits between elapsed_ms and finished; counters only appear when
    # a registry is attached.
    if "eta_ms" in base:
        if base.index("eta_ms") != base.index("elapsed_ms") + 1:
            fail("'eta_ms' must directly follow 'elapsed_ms'")
        base.remove("eta_ms")
    if base not in (PROGRESS_KEYS, PROGRESS_KEYS[:-1]):
        fail(f"progress keys {keys} != {PROGRESS_KEYS} (+ optional "
             f"'eta_ms', 'counters' optional)")
    if not isinstance(doc["command"], str) or not doc["command"]:
        fail("progress 'command' must be a non-empty string")
    for key in ("done", "total", "elapsed_ms"):
        if not isinstance(doc[key], int) or doc[key] < 0:
            fail(f"progress {key!r} must be a non-negative integer")
    if not isinstance(doc["finished"], bool):
        fail("progress 'finished' must be a boolean")
    if "eta_ms" in doc and (not isinstance(doc["eta_ms"], int)
                            or doc["eta_ms"] < 0):
        fail("progress 'eta_ms' must be a non-negative integer")
    if "counters" in doc:
        counters = doc["counters"]
        if not isinstance(counters, dict):
            fail("progress 'counters' must be an object")
        for name, value in counters.items():
            if not isinstance(value, int) or value < 0:
                fail(f"progress counter {name!r} must be a non-negative "
                     f"integer")
    return (f"command={doc['command']!r}, phase={doc['phase']!r}, "
            f"{doc['done']}/{doc['total']}"
            f"{' finished' if doc['finished'] else ''}")


def validate_profile_rollup(profile):
    """Checks the span-aggregate object (the result document's "profile"
    key, i.e. Profiler::report_json)."""
    if not isinstance(profile, dict):
        fail("'profile' must be an object")
    if "span_count" not in profile or "spans" not in profile:
        fail("'profile' must carry span_count and spans")
    spans = profile["spans"]
    if not isinstance(spans, list):
        fail("'profile.spans' must be a list")
    for index, span in enumerate(spans):
        for key in ("name", "count", "counters"):
            if key not in span:
                fail(f"profile span {index} missing {key!r}")


def validate_degradation(deg):
    """Checks the optional 'executor_degradation' stamp (emitted only when
    the remote executor fell back to local execution mid-run)."""
    if not isinstance(deg, dict) or list(deg.keys()) != DEGRADATION_KEYS:
        fail(f"'executor_degradation' keys must be {DEGRADATION_KEYS}")
    if deg["fallback_executor"] != "sim":
        fail(f"degradation fallback_executor {deg['fallback_executor']!r} "
             f"!= 'sim'")
    for key in ("fallbacks", "retries", "reconnects"):
        if not isinstance(deg[key], int) or deg[key] < 0:
            fail(f"degradation {key!r} must be a non-negative integer")
    if deg["fallbacks"] < 1:
        fail("a degradation stamp with zero fallbacks must not be emitted")


def validate_executor_pool(pool):
    """Checks the 'executor_pool' stamp (emitted exactly when the active
    backend is the remote one; a single address is a pool of one)."""
    if not isinstance(pool, dict) or list(pool.keys()) != ["endpoints"]:
        fail("'executor_pool' must be an object with the single key "
             "'endpoints'")
    endpoints = pool["endpoints"]
    if not isinstance(endpoints, list) or not endpoints:
        fail("'executor_pool.endpoints' must list at least one endpoint")
    for index, entry in enumerate(endpoints):
        if not isinstance(entry, dict) \
                or list(entry.keys()) != POOL_ENDPOINT_KEYS:
            fail(f"pool endpoint {index} keys must be {POOL_ENDPOINT_KEYS}")
        if not isinstance(entry["address"], str) or not entry["address"]:
            fail(f"pool endpoint {index} 'address' must be a non-empty "
                 f"string")
        if entry["circuit"] not in CIRCUIT_STATES:
            fail(f"pool endpoint {index} circuit {entry['circuit']!r} "
                 f"not in {CIRCUIT_STATES}")
        for key in ("requests", "failovers", "circuit_opens"):
            if not isinstance(entry[key], int) or entry[key] < 0:
                fail(f"pool endpoint {index} {key!r} must be a "
                     f"non-negative integer")


def validate_result(result):
    keys = list(result.keys())
    # Optional keys: "executor_pool" right after "executor" (exactly when
    # the remote executor is active), "executor_degradation" after
    # "executor" / "executor_pool" (only when the remote backend fell
    # back), "profile" trailing — clean runs stay byte-identical to
    # pre-feature builds.
    base = list(keys)
    degradation = result.get("executor_degradation")
    pool = result.get("executor_pool")
    if "executor_pool" in base:
        if base.index("executor_pool") != base.index("executor") + 1:
            fail("'executor_pool' must directly follow 'executor'")
        base.remove("executor_pool")
    if "executor_degradation" in base:
        if base.index("executor_degradation") != base.index("executor") + 1:
            fail("'executor_degradation' must directly follow 'executor' "
                 "(or 'executor_pool' when both are present)")
        base.remove("executor_degradation")
    if base not in (RESULT_KEYS, RESULT_KEYS + ["profile"]):
        fail(f"result document keys {keys} != {RESULT_KEYS} (+ optional "
             f"'executor_pool', 'executor_degradation' and trailing "
             f"'profile')")
    if result["schema"] != RESULT_SCHEMA:
        fail(f"schema {result['schema']!r} != {RESULT_SCHEMA!r}")
    if not isinstance(result["command"], str) or not result["command"]:
        fail("result 'command' must be a non-empty string")
    if not isinstance(result["kernel"], str) or not result["kernel"]:
        fail("result 'kernel' must be a non-empty string")
    if result["executor"] not in KNOWN_EXECUTORS:
        fail(f"result 'executor' {result['executor']!r} not in "
             f"{KNOWN_EXECUTORS}")
    if (pool is not None) != (result["executor"] == "remote"):
        fail("'executor_pool' must be present exactly when the executor "
             "is 'remote'")
    if pool is not None:
        validate_executor_pool(pool)
    if degradation is not None:
        if result["executor"] != "remote":
            fail("'executor_degradation' is only valid for the remote "
                 "executor")
        validate_degradation(degradation)
    if not isinstance(result["data"], dict):
        fail("result 'data' must be an object")
    validate_metrics(result["metrics"], "result")
    if "profile" in result:
        validate_profile_rollup(result["profile"])
    if result["command"] == "faults":
        validate_faults_data(result["data"])
    resume = result["data"].get("resume")
    if resume is not None:
        # Checkpointed runs pin only deterministic fields here; the
        # generation count varies with the kill pattern and is banned.
        if list(resume.keys()) != ["checkpoint", "kind"]:
            fail(f"'resume' keys {list(resume.keys())} != "
                 f"['checkpoint', 'kind']")
        if resume["checkpoint"] != CKPT_SCHEMA:
            fail(f"resume checkpoint {resume['checkpoint']!r} != "
                 f"{CKPT_SCHEMA!r}")
        if resume["kind"] not in CKPT_KINDS:
            fail(f"resume kind {resume['kind']!r} not in {CKPT_KINDS}")
    return f"command={result['command']!r}"


def validate_profile(doc):
    """Checks a Chrome trace_event/Perfetto document written by --profile."""
    if doc.get("displayTimeUnit") != "ms":
        fail("profile document must set displayTimeUnit 'ms'")
    other = doc.get("otherData")
    if not isinstance(other, dict) or other.get("schema") != PROFILE_SCHEMA:
        fail(f"profile otherData.schema must be {PROFILE_SCHEMA!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("profile 'traceEvents' must be a non-empty list")
    span_events = 0
    ids = set()
    for index, event in enumerate(events):
        phase = event.get("ph")
        if phase == "M":
            if event.get("name") not in ("process_name", "thread_name"):
                fail(f"trace event {index}: unknown metadata {event!r}")
            continue
        if phase != "X":
            fail(f"trace event {index}: unexpected phase {phase!r}")
        for key in ("pid", "tid", "name", "cat", "id", "ts", "dur", "args"):
            if key not in event:
                fail(f"trace event {index} missing {key!r}")
        span_id = event["id"]
        if len(span_id) != 16 or any(c not in "0123456789abcdef"
                                     for c in span_id):
            fail(f"trace event {index}: id {span_id!r} is not a "
                 f"16-char content address")
        if span_id in ids:
            fail(f"trace event {index}: duplicate span id {span_id!r}")
        ids.add(span_id)
        if "path" not in event["args"]:
            fail(f"trace event {index}: args must carry the span path")
        span_events += 1
    if span_events != other.get("span_count"):
        fail(f"otherData.span_count {other.get('span_count')} != "
             f"{span_events} X events")
    return f"tool={other.get('tool')!r}, {span_events} spans"


def validate_ckpt(path):
    """Checks an xbarlife.ckpt.v1 snapshot: JSON header line + binary
    payload whose length and CRC-32 must match the header."""
    with open(path, "rb") as handle:
        blob = handle.read()
    newline = blob.find(b"\n")
    if newline < 0:
        fail("checkpoint has no header line")
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        fail(f"checkpoint header is not valid JSON ({err})")
    if header.get("checkpoint") != CKPT_SCHEMA:
        fail(f"checkpoint schema {header.get('checkpoint')!r} != "
             f"{CKPT_SCHEMA!r}")
    if header.get("kind") not in CKPT_KINDS:
        fail(f"checkpoint kind {header.get('kind')!r} not in {CKPT_KINDS}")
    fingerprint = header.get("fingerprint")
    if (not isinstance(fingerprint, str) or len(fingerprint) != 16
            or any(c not in "0123456789abcdef" for c in fingerprint)):
        fail(f"checkpoint fingerprint {fingerprint!r} is not 16 hex digits")
    generation = header.get("generation")
    if not isinstance(generation, int) or generation < 1:
        fail(f"checkpoint generation {generation!r} must be >= 1")
    payload = blob[newline + 1:]
    if header.get("payload_bytes") != len(payload):
        fail(f"payload_bytes {header.get('payload_bytes')} != "
             f"{len(payload)} actual payload bytes")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    if header.get("payload_crc32") != crc:
        fail(f"payload_crc32 {header.get('payload_crc32')} != {crc} "
             f"computed")
    print(f"validate_json_output: OK: checkpoint kind={header['kind']!r}, "
          f"generation {generation}, {len(payload)} payload bytes, CRC ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", nargs="?", default="-",
                        help="JSONL file to validate (default: stdin)")
    parser.add_argument("--ckpt", action="store_true",
                        help="validate PATH as a binary checkpoint snapshot")
    parser.add_argument("--exe", help="xbarlife binary to run with --json -")
    parser.add_argument("cmd", nargs="*",
                        help="command line for --exe (after '--')")
    parser.add_argument("--expect-events", action="append", default=[],
                        metavar="TYPE=N",
                        help="require exactly N events of TYPE")
    args = parser.parse_args()

    if args.ckpt:
        if args.path == "-":
            fail("--ckpt needs a file path (binary snapshots have no stdin "
                 "mode)")
        return validate_ckpt(args.path)

    lines = [line for line in read_lines(args) if line.strip()]
    if not lines:
        fail("empty stream")

    events = collections.Counter()
    docs = []
    for number, line in enumerate(lines, 1):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as err:
            fail(f"line {number} is not valid JSON ({err}): {line[:120]}")
        docs.append(doc)
        if isinstance(doc, dict) and "event" in doc:
            events[doc["event"]] += 1

    validate_lifetime_shared(docs)
    result = docs[-1]
    if not isinstance(result, dict):
        fail("final line is not a JSON object")
    if "event" in result:
        fail("final line is an event, not a result document")
    if "traceEvents" in result:
        detail = validate_profile(result)
    elif result.get("schema") == WORKERSTATS_SCHEMA:
        detail = validate_workerstats(result)
    elif result.get("schema") == PROGRESS_SCHEMA:
        detail = validate_progress(result)
    else:
        detail = validate_result(result)

    for spec in args.expect_events:
        event_type, _, count = spec.partition("=")
        expected = int(count)
        if events[event_type] != expected:
            fail(f"expected {expected} {event_type!r} events, "
                 f"saw {events[event_type]}")

    summary = ", ".join(f"{k}={v}" for k, v in sorted(events.items()))
    print(f"validate_json_output: OK: {detail}, "
          f"{len(lines)} lines, events: {summary or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
