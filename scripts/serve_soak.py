#!/usr/bin/env python3
"""Soak-test `memoria serve` over the stdio transport.

Steady mode (the default) drives a mixed corpus of requests (valid
work, heavy programs under tiny deadlines, malformed lines,
fault-armed requests, health probes) at a small single-process server,
then SIGTERMs it, and asserts the robustness and telemetry contracts
end to end:

  * exactly one terminal response per request — nothing lost, nothing
    duplicated, even for requests shed by backpressure;
  * a mid-soak `metrics` scrape returns well-formed Prometheus
    exposition text whose `serve.requests_total` agrees with the
    client-side request count (within the in-flight allowance);
  * the process exits 0 on SIGTERM (graceful drain) and the drain
    handler writes a final metrics snapshot to --metrics-file;
  * at least one well-formed minimized incident bundle was written for
    the fault-armed failures.

Chaos mode (--chaos, implies --workers >= 2) runs the supervised
multi-process server and attacks it while the corpus is in flight:
random SIGKILLs and SIGSTOP/SIGCONT of shard-worker processes (pids
read from the supervisor's metrics snapshots, verified to be children
of the supervisor), plus malformed and oversized request injection.
It asserts the supervision contract:

  * zero lost responses — every request with an id gets exactly one
    terminal response (idempotent kinds transparently retried after a
    worker crash, non-idempotent ones answered `serve.worker-crashed`);
  * respawns are bounded by the chaos actions taken (no respawn
    storms) and at least one crash/respawn actually happened;
  * post-chaos `serve.requests_total` reconciles exactly with the
    client-side count of well-formed requests;
  * the admission journal is empty after drain: every `admit` record
    has a matching `done` (torn trailing lines tolerated).

Restart mode (--restart-supervisor, implies --chaos) additionally
exercises the durable result cache and journal-replay recovery:

  * a warmup corpus establishes a baseline cache hit rate (response
    `cache_hit`/`dedup_follower` stamps) and checks each cached
    response is bitwise identical to its fresh counterpart modulo the
    volatile fields (id, trace_id, queue/total timings, stamps);
  * after the chaos phase, slow requests are stranded in flight and
    the supervisor is SIGKILLed (no drain); the orphaned workers see
    EOF, drain, and persist their cache snapshots;
  * one shard snapshot is corrupted on disk, the supervisor is
    relaunched on the same journal and snapshot dir, and the gates
    assert: a `recovery` block in `health` naming the journal's
    admitted-but-unanswered requests (all of which are resent and
    answered — zero lost/duplicated across both instances), a warm
    hit rate at least half the baseline (the corrupted shard cold-
    starts, the rest stay warm), and serve.cache.snapshot_rejected
    >= 1 mirrored through the worker heartbeats.

A JSON soak report — client-side latency p50/p95/p99 per request kind,
RPS, the server's own serve.latency_us.* percentiles, and (in chaos
mode) the chaos/respawn tallies — is printed and, when SOAK_REPORT
(or the report positional) names a path, written there.

Overload mode (--overload, implies --workers >= 2) runs the supervised
server at roughly twice its service capacity with three client
classes — a paced interactive client ("alice"), a batch flooder
("bruce"), and a tight-deadline client ("carol") — and fires a SIGHUP
rolling restart mid-load. It asserts the adaptive overload-control
contract:

  * zero lost responses: every request gets exactly one terminal
    response (result, overloaded, or deadline error — never silence);
  * the flooder is the one shed: bruce draws `client-capped` sheds
    while alice is never shed and her p99 stays bounded;
  * infeasible deadlines are shed at admission (`deadline-infeasible`)
    or answered `serve.deadline-exceeded` without occupying a worker;
  * the SIGHUP roll gracefully recycles every shard worker (recycles
    >= workers, zero crashes) and the post-roll cache hit rate is at
    least half the pre-roll baseline (warm snapshot restarts);
  * `serve.requests_total` reconciles exactly and the admission
    journal audits clean after drain.

Usage: scripts/serve_soak.py [--chaos] [--restart-supervisor]
                             [--overload] [--workers N]
                             [path-to-memoria] [request-count] [report]
"""

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter

ARGS = [a for a in sys.argv[1:]]
CHAOS = "--chaos" in ARGS
if CHAOS:
    ARGS.remove("--chaos")
RESTART = "--restart-supervisor" in ARGS
if RESTART:
    ARGS.remove("--restart-supervisor")
    CHAOS = True
OVERLOAD = "--overload" in ARGS
if OVERLOAD:
    ARGS.remove("--overload")
WORKERS = 0
if "--workers" in ARGS:
    i = ARGS.index("--workers")
    WORKERS = int(ARGS[i + 1])
    del ARGS[i:i + 2]
if (CHAOS or OVERLOAD) and WORKERS <= 0:
    WORKERS = 2

BIN = ARGS[0] if len(ARGS) > 0 else "./build/src/tools/memoria"
COUNT = int(ARGS[1]) if len(ARGS) > 1 else 200
REPORT = ARGS[2] if len(ARGS) > 2 else os.environ.get("SOAK_REPORT", "")
# Where the server writes its periodic metrics snapshots; default is
# inside the (deleted) scratch dir, set SOAK_SNAPSHOTS to keep them.
SNAPSHOTS = os.environ.get("SOAK_SNAPSHOTS", "")
# Where the chaos run's admission journal goes; default scratch,
# set SOAK_JOURNAL to keep it for archiving.
JOURNAL = os.environ.get("SOAK_JOURNAL", "")
# Where the restart leg's cache snapshots go; default scratch, set
# SOAK_CACHE_SNAPSHOTS to keep them for archiving.
CACHE_SNAPDIR = os.environ.get("SOAK_CACHE_SNAPSHOTS", "")

SMALL = (
    "PROGRAM t\n"
    "  PARAMETER N = 8\n"
    "  REAL*8 A(N,N)\n"
    "  DO I = 1, N\n"
    "    DO J = 1, N\n"
    "      A(I,J) = A(I,J) + 1.0\n"
    "    ENDDO\n"
    "  ENDDO\n"
    "END\n"
)
HEAVY = (
    "PROGRAM heavy\n"
    "  PARAMETER N = 64\n"
    "  REAL*8 A(N,N)\n"
    "  REAL*8 B(N,N)\n"
    "  DO I = 1, N\n"
    "    DO J = 1, N\n"
    "      DO K = 1, N\n"
    "        A(I,J) = A(I,J) + B(J,K)\n"
    "      ENDDO\n"
    "    ENDDO\n"
    "  ENDDO\n"
    "END\n"
)


def fail(msg):
    print(f"soak: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def percentile(sorted_vals, q):
    """Nearest-rank percentile of an ascending list (q in [0,1])."""
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(q * len(sorted_vals)))
    return sorted_vals[idx]


def check_exposition(text):
    """Validate Prometheus text exposition; return metric -> value for
    plain (unlabeled) samples. Fails the soak on malformed lines or
    non-monotonic histogram buckets."""
    values = {}
    buckets = {}  # metric base name -> list of cumulative counts
    for ln, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if (len(parts) != 4 or parts[1] != "TYPE"
                    or parts[3] not in ("counter", "gauge",
                                        "histogram")):
                fail(f"exposition line {ln}: bad TYPE comment {line!r}")
            continue
        fields = line.rsplit(None, 1)
        if len(fields) != 2:
            fail(f"exposition line {ln}: no value in {line!r}")
        name, value = fields
        try:
            value = float(value)
        except ValueError:
            fail(f"exposition line {ln}: non-numeric value {line!r}")
        if "{" in name:
            base, rest = name.split("{", 1)
            if not rest.endswith("}"):
                fail(f"exposition line {ln}: unclosed labels {line!r}")
            if base.endswith("_bucket"):
                buckets.setdefault(base, []).append(value)
        else:
            if not all(c.isalnum() or c == "_" for c in name):
                fail(f"exposition line {ln}: bad metric name {name!r}")
            values[name] = value
    for base, counts in buckets.items():
        if any(b > a for a, b in zip(counts[1:], counts)):
            fail(f"exposition: non-monotonic buckets for {base}")
        count_name = base[: -len("_bucket")] + "_count"
        if count_name in values and counts and \
                counts[-1] != values[count_name]:
            fail(f"exposition: {base} last bucket {counts[-1]} != "
                 f"{count_name} {values[count_name]}")
    return values


class ServeClient:
    """One serve process on stdio plus the client-side bookkeeping the
    assertions need: response lines, per-id arrival times, and the
    count of well-formed requests sent (what serve.requests_total must
    reconcile against)."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
        )
        self.lines = []
        self.recv_at = {}   # request id -> monotonic arrival time
        self.sent_at = {}   # request id -> monotonic send time
        self.sent_kind = {} # request id -> kind
        self.parsed_sent = 0  # requests the server should parse
        # Overload mode sends from several client threads over the one
        # stdin pipe; a partial-line interleave would corrupt the wire.
        self.send_lock = threading.Lock()
        self.thread = threading.Thread(target=self._reader,
                                       daemon=True)
        self.thread.start()

    def _reader(self):
        # Line-at-a-time; survives EINTR inside Python's buffered read.
        for line in self.proc.stdout:
            line = line.strip()
            if line:
                now = time.monotonic()
                self.lines.append(line)
                try:
                    rid = json.loads(line).get("id", "")
                except json.JSONDecodeError:
                    rid = ""
                if rid and rid not in self.recv_at:
                    self.recv_at[rid] = now

    def send_raw(self, text):
        with self.send_lock:
            self.proc.stdin.write(text + "\n")
            self.proc.stdin.flush()

    def send(self, obj):
        rid = obj.get("id", "")
        if rid:
            self.sent_at[rid] = time.monotonic()
            self.sent_kind[rid] = obj.get("kind", "compound")
        with self.send_lock:
            self.parsed_sent += 1
            self.proc.stdin.write(json.dumps(obj) + "\n")
            self.proc.stdin.flush()

    def wait_responses(self, n, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and len(self.lines) < n:
            time.sleep(0.02)
        return len(self.lines) >= n

    def wait_response_for(self, rid, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and rid not in self.recv_at:
            time.sleep(0.02)
        return rid in self.recv_at

    def response_for(self, rid):
        for line in self.lines:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if obj.get("id") == rid:
                return obj
        return None

    def client_latency(self):
        by_kind = {}
        for rid, t0 in self.sent_at.items():
            t1 = self.recv_at.get(rid)
            if t1 is None:
                continue
            by_kind.setdefault(self.sent_kind[rid], []).append(
                (t1 - t0) * 1e6)
        out = {}
        for kind, samples in sorted(by_kind.items()):
            samples.sort()
            out[kind] = {
                "count": len(samples),
                "p50_us": round(percentile(samples, 0.50), 1),
                "p95_us": round(percentile(samples, 0.95), 1),
                "p99_us": round(percentile(samples, 0.99), 1),
            }
        return out

    def sigterm_and_wait(self):
        self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            fail("server did not exit within 60s of SIGTERM")
        if rc != 0:
            fail(f"server exited {rc} on SIGTERM, want 0")

    def kill_if_alive(self):
        if self.proc.poll() is None:
            self.proc.kill()


def scrape_metrics(client, rid):
    """Send a metrics request and return the parsed response, with its
    exposition validated."""
    client.send({"id": rid, "kind": "metrics"})
    if not client.wait_response_for(rid):
        fail(f"no response to metrics request {rid}")
    resp = client.response_for(rid)
    if resp.get("type") != "metrics":
        fail(f"metrics response {rid} has type {resp.get('type')!r}")
    check_exposition(resp.get("exposition", ""))
    return resp


def server_latency_from(resp):
    out = {}
    hists = resp.get("registry", {}).get("histograms", {})
    for name, h in hists.items():
        prefix = "serve.latency_us."
        if name.startswith(prefix):
            out[name[len(prefix):]] = {
                "count": h.get("count", 0),
                "p50_us": h.get("p50", 0.0),
                "p90_us": h.get("p90", 0.0),
                "p99_us": h.get("p99", 0.0),
            }
    return out


def check_exactly_one_response(client, sent_ids, idless_expected):
    by_id = Counter()
    for line in client.lines:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            fail(f"response is not JSON: {line!r}")
        by_id[obj.get("id", "")] += 1
    for rid in sent_ids:
        if by_id[rid] != 1:
            fail(f"request {rid} got {by_id[rid]} responses")
    if by_id[""] != idless_expected:
        fail(f"{idless_expected} id-less lines sent but {by_id['']} "
             "id-less error responses")


def read_final_snapshot(metrics_file):
    if not os.path.isfile(metrics_file):
        fail(f"no metrics snapshot file at {metrics_file}")
    with open(metrics_file) as fh:
        snapshots = [ln for ln in fh.read().splitlines() if ln]
    if not snapshots:
        fail("metrics snapshot file is empty after SIGTERM")
    last = json.loads(snapshots[-1])
    if not last.get("draining"):
        fail("final metrics snapshot was not written by the drain "
             "handler (draining != true)")
    return snapshots, last


def steady_main():
    incidents = tempfile.mkdtemp(prefix="memoria-soak-incidents-")
    metrics_file = SNAPSHOTS or os.path.join(incidents,
                                             "snapshots.jsonl")
    client = ServeClient([
        BIN, "serve",
        "--jobs", "2",
        "--queue", "8",
        "--deadline-ms", "2000",
        "--allow-faults",
        "--incidents-dir", incidents,
        "--metrics-file", metrics_file,
        "--metrics-interval-ms", "100",
    ])

    try:
        # --- Phase 1: the mixed corpus, sent flat out so the bounded
        # queue sheds some of it (overloaded is a terminal response
        # too).
        soak_started = time.monotonic()
        sent_ids = []
        malformed = 0
        for i in range(COUNT):
            rid = f"req-{i}"
            slot = i % 10
            if slot == 3:
                client.send_raw("this line is not a request")
                malformed += 1
            elif slot == 5:
                client.send({"id": rid, "kind": "simulate",
                             "program": HEAVY, "deadline_ms": 1})
                sent_ids.append(rid)
            elif slot == 9:
                client.send({"id": rid, "kind": "health"})
                sent_ids.append(rid)
            else:
                kind = ("analyze", "compound", "simulate")[slot % 3]
                client.send({"id": rid, "kind": kind,
                             "program": SMALL})
                sent_ids.append(rid)

        # --- Mid-soak metrics scrape, while phase 1 is still in
        # flight: the exposition must be well-formed and the server's
        # own request counter must agree with what the client sent,
        # give or take the requests still somewhere in the pipe.
        mid = scrape_metrics(client, "soak-metrics-mid")
        expo = check_exposition(mid.get("exposition", ""))
        server_total = expo.get("memoria_serve_requests_total")
        if server_total is None:
            fail("exposition lacks memoria_serve_requests_total")
        answered = len(client.recv_at)
        # Everything the server has counted was sent by us; everything
        # we have an answer for was counted by the server.
        if not answered <= server_total <= client.parsed_sent:
            fail(f"serve.requests_total={server_total} outside "
                 f"[{answered}, {client.parsed_sent}]")

        expected = len(sent_ids) + malformed + 1  # + metrics response
        if not client.wait_responses(expected):
            fail(f"expected {expected} responses, got "
                 f"{len(client.lines)}")

        # --- Phase 2: guarantee at least one accepted fault-armed
        # request (phase 1 may shed arbitrarily many), pacing one at a
        # time so admission cannot fail for long.
        incident_dir = None
        for attempt in range(20):
            rid = f"fault-{attempt}"
            client.send({"id": rid, "kind": "compound",
                         "program": SMALL,
                         "fault": "transform.permute:throw:1"})
            sent_ids.append(rid)
            expected += 1
            if not client.wait_responses(expected):
                fail(f"no response for fault request {rid}")
            resp = client.response_for(rid)
            if resp and resp.get("type") == "result":
                incident_dir = resp.get("incident_dir")
                break
            time.sleep(0.05)  # shed: back off and retry
        if not incident_dir:
            fail("no fault-armed request produced an incident bundle")

        # --- Final metrics scrape: the report publishes the server's
        # own serve.latency_us.* percentiles, not just client timing.
        final = scrape_metrics(client, "soak-metrics-final")
        expected += 1
        server_latency = server_latency_from(final)
        if not server_latency:
            fail("final metrics response has no serve.latency_us.* "
                 "histograms")
        soak_duration = time.monotonic() - soak_started

        # --- Exactly one terminal response per request.
        check_exactly_one_response(client, sent_ids, malformed)

        # --- Graceful drain: SIGTERM exits 0.
        client.sigterm_and_wait()

        # --- The drain handler wrote one final metrics snapshot, so a
        # SIGTERM'd serve never loses the stats since the last tick.
        snapshots, last = read_final_snapshot(metrics_file)
        snap_total = (last.get("stats", {}).get("counters", {})
                      .get("serve.requests_total"))
        if snap_total != client.parsed_sent:
            fail(f"final snapshot serve.requests_total={snap_total}, "
                 f"client sent {client.parsed_sent}")

        # --- At least one well-formed minimized bundle.
        good_bundles = 0
        for entry in sorted(os.listdir(incidents)):
            bundle = os.path.join(incidents, entry)
            meta_path = os.path.join(bundle, "incident.json")
            if not os.path.isfile(meta_path):
                continue
            with open(meta_path) as fh:
                meta = json.load(fh)
            red = meta.get("reduction", {})
            files = meta.get("files", {})
            if (red.get("reproduced")
                    and "minimized" in files
                    and os.path.isfile(os.path.join(bundle,
                                                    files["original"]))
                    and os.path.isfile(os.path.join(bundle,
                                                    files["minimized"]))
                    and red.get("final_nodes", 1 << 30)
                        <= red.get("orig_nodes", 0)):
                good_bundles += 1
        if good_bundles < 1:
            fail(f"no well-formed minimized bundle under {incidents}")

        results = sum(1 for l in client.lines
                      if json.loads(l).get("type") == "result")
        shed = sum(1 for l in client.lines
                   if json.loads(l).get("type") == "overloaded")

        report = {
            "mode": "steady",
            "requests": client.parsed_sent + malformed,
            "responses": len(client.lines),
            "results": results,
            "shed": shed,
            "duration_s": round(soak_duration, 3),
            "rps": round(len(client.lines)
                         / max(soak_duration, 1e-9), 1),
            "client_latency": client.client_latency(),
            "server_latency": server_latency,
            "snapshots": len(snapshots),
            "minimized_bundles": good_bundles,
        }
        print(json.dumps(report, indent=2))
        if REPORT:
            with open(REPORT, "w") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")

        print(f"soak ok: {len(sent_ids) + malformed} requests, "
              f"{len(client.lines)} responses ({results} results, "
              f"{shed} shed), exit 0 on SIGTERM, {good_bundles} "
              "minimized bundle(s)")
    finally:
        client.kill_if_alive()
        shutil.rmtree(incidents, ignore_errors=True)


# --------------------------------------------------------------------
# Chaos mode
# --------------------------------------------------------------------

def worker_pids_from_snapshot(metrics_file, supervisor_pid):
    """(shard, pid) of up workers per the latest metrics snapshot,
    keeping only actual children of the supervisor (a stale snapshot
    must never aim a SIGKILL at a recycled pid)."""
    try:
        with open(metrics_file) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln]
        if not lines:
            return []
        snap = json.loads(lines[-1])
    except (OSError, json.JSONDecodeError):
        return []
    out = []
    for w in snap.get("workers", []):
        if w.get("state") != "up" or w.get("pid", -1) <= 0:
            continue
        pid = int(w["pid"])
        try:
            with open(f"/proc/{pid}/stat") as fh:
                # field 4 of /proc/pid/stat is the ppid; field 2 (comm)
                # is parenthesised and may contain spaces, so split
                # after the closing paren.
                stat = fh.read()
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == supervisor_pid:
            out.append((int(w.get("shard", -1)), pid))
    return out


def chaos_thread(stop_event, metrics_file, supervisor_pid, tally):
    """Random worker-process violence: mostly SIGKILL, sometimes a
    SIGSTOP long enough to trip the supervisor's hang detector,
    followed by SIGCONT. Seeded for reproducible CI runs."""
    rng = random.Random(int(os.environ.get("SOAK_CHAOS_SEED", "1234")))
    max_actions = int(os.environ.get("SOAK_CHAOS_ACTIONS", "8"))
    while not stop_event.is_set() and \
            tally["kills"] + tally["stops"] < max_actions:
        time.sleep(rng.uniform(0.05, 0.25))
        victims = worker_pids_from_snapshot(metrics_file,
                                            supervisor_pid)
        if not victims:
            continue
        shard, pid = rng.choice(victims)
        try:
            if rng.random() < 0.7:
                os.kill(pid, signal.SIGKILL)
                tally["kills"] += 1
                print(f"chaos: SIGKILL shard{shard} pid {pid}",
                      file=sys.stderr)
            else:
                os.kill(pid, signal.SIGSTOP)
                tally["stops"] += 1
                print(f"chaos: SIGSTOP shard{shard} pid {pid}",
                      file=sys.stderr)
                time.sleep(rng.uniform(0.1, 0.5))
                os.kill(pid, signal.SIGCONT)
        except ProcessLookupError:
            continue  # already reaped; the snapshot was stale


def check_journal_empty(journal_path):
    """Every admit has a matching done; torn trailing lines (a crash
    mid-append) are tolerated, a dangling admit is a lost request."""
    admits = 0
    open_seqs = {}
    with open(journal_path) as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError:
                continue  # torn line
            op = rec.get("op")
            if op == "admit":
                admits += 1
                open_seqs[rec.get("seq")] = rec.get("id", "")
            elif op == "done":
                open_seqs.pop(rec.get("seq"), None)
    if open_seqs:
        sample = list(open_seqs.items())[:5]
        fail(f"journal has {len(open_seqs)} admit(s) without a done "
             f"after drain (sample: {sample})")
    return admits


# --------------------------------------------------------------------
# Restart leg (--restart-supervisor)
# --------------------------------------------------------------------

# Fields the cache replay is allowed (and expected) to differ in: the
# request identity, the request-scoped trace, the replay-side queue and
# total timings, and the replay stamps themselves. Everything else must
# be bitwise identical between a fresh compute and a cache hit.
VOLATILE_RESPONSE_KEYS = ("id", "trace_id", "cache_hit",
                          "dedup_follower", "retried")


def normalized_result(resp):
    out = {k: v for k, v in resp.items()
           if k not in VOLATILE_RESPONSE_KEYS}
    timings = out.get("timings")
    if isinstance(timings, dict):
        out["timings"] = {k: v for k, v in timings.items()
                          if k not in ("queue_us", "total_us")}
    return out


def warm_corpus():
    """Distinct cacheable programs; names vary so the shard hash
    spreads them across workers."""
    return [SMALL.replace("PROGRAM t", f"PROGRAM warm{i}")
            for i in range(16)]


def send_warm_wave(client, tag, programs):
    """One paced request per warm program (no shedding), each required
    to come back as a result. Returns the request ids."""
    ids = []
    for i, program in enumerate(programs):
        rid = f"{tag}-{i}"
        client.send({"id": rid, "kind": "compound",
                     "program": program})
        ids.append(rid)
        if not client.wait_response_for(rid):
            fail(f"no response for warm request {rid}")
        resp = client.response_for(rid)
        if resp.get("type") != "result":
            fail(f"warm request {rid} got type {resp.get('type')!r}, "
                 "want result")
    return ids


def cache_hit_rate(client, ids):
    hits = 0
    for rid in ids:
        resp = client.response_for(rid) or {}
        if resp.get("cache_hit") or resp.get("dedup_follower"):
            hits += 1
    return hits / max(1, len(ids))


def read_dangling_admits(journal_path):
    """seq -> id of admits with no matching done; torn trailing lines
    tolerated (the supervisor died mid-append)."""
    dangling = {}
    try:
        with open(journal_path) as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    rec = json.loads(raw)
                except json.JSONDecodeError:
                    continue
                if rec.get("op") == "admit":
                    dangling[rec.get("seq")] = rec.get("id", "")
                elif rec.get("op") == "done":
                    dangling.pop(rec.get("seq"), None)
    except OSError:
        return {}
    return dangling


def restart_leg(client, server_argv, metrics_file, journal_path,
                snap_dir, programs, cleanup):
    """SIGKILL the supervisor with work in flight, corrupt one shard
    snapshot, relaunch on the same journal + snapshot dir, and assert
    the recovery contract. Returns (snapshots, admits, cache_block,
    restart_block) for the report."""
    # Re-prime the cache after the chaos phase so every warm key is in
    # some live worker's memory when the kill lands (a worker SIGKILLed
    # during chaos loses whatever its periodic snapshot had not yet
    # persisted; the EOF drain below snapshots everything that is).
    send_warm_wave(client, "warm-refresh", programs)

    victims = worker_pids_from_snapshot(metrics_file, client.proc.pid)
    if len(victims) != WORKERS:
        fail(f"expected {WORKERS} live workers before the restart, "
             f"saw {len(victims)}")

    # --- Strand slow work in flight: distinct heavy programs so they
    # spread across shards and none of them dedup-joins another.
    strand_prog = {}
    for i in range(8):
        rid = f"strand-{i}"
        strand_prog[rid] = HEAVY.replace("PROGRAM heavy",
                                         f"PROGRAM strand{i}")
        client.send({"id": rid, "kind": "simulate",
                     "program": strand_prog[rid]})
    # Kill the moment the journal shows an admitted-but-unfinished
    # strand request, so the replay has something real to find.
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if any(str(rid).startswith("strand-") for rid in
               read_dangling_admits(journal_path).values()):
            break
        time.sleep(0.002)
    else:
        fail("no strand request was admitted within 10s")
    client.proc.kill()  # SIGKILL: no drain, no journal truncation
    client.proc.wait(timeout=30)

    # --- The orphaned workers see EOF on the supervisor socket, drain,
    # persist their cache snapshots, and exit on their own.
    deadline = time.monotonic() + 30.0
    for _, pid in victims:
        while time.monotonic() < deadline and \
                os.path.exists(f"/proc/{pid}"):
            time.sleep(0.02)
        if os.path.exists(f"/proc/{pid}"):
            fail(f"worker pid {pid} still alive 30s after the "
                 "supervisor was SIGKILLed")
    snaps = sorted(e for e in os.listdir(snap_dir)
                   if e.endswith(".snap"))
    if len(snaps) != WORKERS:
        fail(f"want {WORKERS} shard snapshots after worker drain, "
             f"found {snaps}")

    # The journal's final word on what was admitted and never
    # answered; read it before the relaunch truncates the file.
    dangling = read_dangling_admits(journal_path)
    if not dangling:
        fail("journal has no dangling admits despite the mid-flight "
             "SIGKILL")
    unanswered = [rid for rid in strand_prog
                  if rid not in client.recv_at]

    # --- Corrupt one shard snapshot on disk: that shard must cold-
    # start (and count a rejection); the rest stay warm.
    corrupt_path = os.path.join(snap_dir, snaps[0])
    with open(corrupt_path, "r+b") as fh:
        data = fh.read()
        at = len(data) // 2
        fh.seek(at)
        fh.write(bytes([data[at] ^ 0x01]))
    print(f"restart: corrupted {snaps[0]} at byte {at}",
          file=sys.stderr)

    # --- Relaunch on the same journal and snapshot dir.
    client2 = ServeClient(server_argv)
    cleanup.append(client2)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and not \
            worker_pids_from_snapshot(metrics_file, client2.proc.pid):
        time.sleep(0.05)
    if not worker_pids_from_snapshot(metrics_file, client2.proc.pid):
        fail("restarted supervisor's workers never came up")

    # --- health names the journal's unanswered admissions.
    client2.send({"id": "restart-health", "kind": "health"})
    if not client2.wait_response_for("restart-health"):
        fail("no response to the post-restart health probe")
    rec = client2.response_for("restart-health").get("recovery")
    if not isinstance(rec, dict):
        fail("post-restart health has no recovery block despite "
             f"{len(dangling)} dangling journal admit(s)")
    if not rec.get("journal_replayed"):
        fail("recovery block does not mark journal_replayed")
    if rec.get("unanswered") != len(dangling):
        fail(f"recovery.unanswered={rec.get('unanswered')}, the "
             f"journal shows {len(dangling)} dangling admit(s)")

    # --- Zero lost: resend everything instance 1 never answered; zero
    # duplicated: exactly one answer per strand id across instances.
    for rid in unanswered:
        client2.send({"id": rid, "kind": "simulate",
                      "program": strand_prog[rid]})
    for rid in unanswered:
        if not client2.wait_response_for(rid):
            fail(f"resent request {rid} got no response after the "
                 "restart")
    for rid in strand_prog:
        n = ((1 if rid in client.recv_at else 0)
             + (1 if rid in client2.recv_at else 0))
        if n != 1:
            fail(f"strand request {rid} answered {n} times across the "
                 "restart, want exactly once")

    # --- Warm restart: the uncorrupted shards serve from their
    # snapshots, so the hit rate recovers to at least half the
    # pre-kill baseline.
    post_ids = send_warm_wave(client2, "warm-post", programs)
    post_rate = cache_hit_rate(client2, post_ids)

    # --- The corrupted shard counted its rejection; worker heartbeats
    # mirror it into the supervisor's gauges.
    rejected = 0
    deadline = time.monotonic() + 10.0
    probe = 0
    while time.monotonic() < deadline:
        probe += 1
        resp = scrape_metrics(client2, f"restart-metrics-{probe}")
        gauges = resp.get("registry", {}).get("gauges", {})
        rejected = gauges.get("serve.cache.snapshot_rejected", 0)
        if rejected >= 1:
            break
        time.sleep(0.2)
    if rejected < 1:
        fail("serve.cache.snapshot_rejected never reached 1 after the "
             "corrupted snapshot")

    check_exactly_one_response(client2, list(client2.sent_at), 0)

    # --- Graceful drain of the restarted instance; its final snapshot
    # reconciles against what this client sent it, and the journal is
    # clean again.
    client2.sigterm_and_wait()
    snapshots, last = read_final_snapshot(metrics_file)
    snap_total = (last.get("stats", {}).get("counters", {})
                  .get("serve.requests_total"))
    if snap_total != client2.parsed_sent:
        fail(f"final snapshot serve.requests_total={snap_total}, "
             f"restarted client sent {client2.parsed_sent}")
    admits = check_journal_empty(journal_path)

    cache_block = {
        "post_restart_hit_rate": round(post_rate, 3),
        "snapshot_files": len(snaps),
        "corrupted_snapshot": snaps[0],
        "snapshot_rejected": rejected,
    }
    restart_block = {
        "stranded": len(strand_prog),
        "journal_dangling": len(dangling),
        "recovery_unanswered": rec.get("unanswered"),
        "resent": len(unanswered),
    }
    return snapshots, admits, cache_block, restart_block


def chaos_main():
    scratch = tempfile.mkdtemp(prefix="memoria-chaos-soak-")
    metrics_file = SNAPSHOTS or os.path.join(scratch,
                                             "snapshots.jsonl")
    journal_path = JOURNAL or os.path.join(scratch, "journal.jsonl")
    snap_dir = CACHE_SNAPDIR or os.path.join(scratch,
                                             "cache-snapshots")
    max_request_bytes = 32768
    server_argv = [
        BIN, "serve",
        "--workers", str(WORKERS),
        "--jobs", "2",
        "--queue", "8",
        "--deadline-ms", "2000",
        "--heartbeat-ms", "100",
        "--max-request-bytes", str(max_request_bytes),
        "--journal", journal_path,
        "--no-incidents",
        "--metrics-file", metrics_file,
        "--metrics-interval-ms", "50",
    ]
    if RESTART:
        server_argv += ["--cache-snapshot-dir", snap_dir,
                        "--cache-snapshot-interval-ms", "200"]
    client = ServeClient(server_argv)
    cleanup = [client]

    stop_chaos = threading.Event()
    tally = {"kills": 0, "stops": 0}
    chaos = threading.Thread(
        target=chaos_thread,
        args=(stop_chaos, metrics_file, client.proc.pid, tally),
        daemon=True)

    try:
        # Let the workers come up and the first snapshot land before
        # the violence starts.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not \
                worker_pids_from_snapshot(metrics_file,
                                          client.proc.pid):
            time.sleep(0.05)
        if not worker_pids_from_snapshot(metrics_file,
                                         client.proc.pid):
            fail("workers never showed up in the metrics snapshots")

        # --- Restart mode: warm the result cache before the violence
        # and measure the baseline. The first wave computes fresh, the
        # second must come back stamped cache_hit/dedup_follower and
        # bitwise identical modulo the volatile fields.
        programs = warm_corpus() if RESTART else []
        baseline_rate = 0.0
        warm_ids = []
        if RESTART:
            fresh_ids = send_warm_wave(client, "warm-fresh", programs)
            hot_ids = send_warm_wave(client, "warm-hot", programs)
            warm_ids = fresh_ids + hot_ids
            baseline_rate = cache_hit_rate(client, hot_ids)
            if baseline_rate <= 0.0:
                fail("warmup produced no cache hits")
            for fid, hid in zip(fresh_ids, hot_ids):
                fresh = normalized_result(client.response_for(fid))
                hot = normalized_result(client.response_for(hid))
                if fresh != hot:
                    fail(f"cached response {hid} differs from fresh "
                         f"{fid} beyond the volatile fields:\n"
                         f"  fresh: {fresh}\n  cached: {hot}")

        chaos.start()

        # --- The corpus, lightly paced so crashes land while work is
        # in flight. Programs vary so the shard hash spreads them.
        soak_started = time.monotonic()
        sent_ids = list(warm_ids)
        hostile = 0  # malformed + oversized: id-less error responses
        for i in range(COUNT):
            rid = f"req-{i}"
            slot = i % 10
            if slot == 3:
                client.send_raw("this line is not a request")
                hostile += 1
            elif slot == 7:
                # Valid JSON but over --max-request-bytes: rejected
                # before parsing, id unrecoverable by design.
                client.send_raw(json.dumps(
                    {"id": rid, "kind": "analyze",
                     "program": "X" * (2 * max_request_bytes)}))
                hostile += 1
            else:
                program = SMALL.replace("PROGRAM t",
                                        f"PROGRAM t{i % 8}")
                if slot == 5:
                    client.send({"id": rid, "kind": "compound",
                                 "program": program})
                elif slot == 9:
                    client.send({"id": rid, "kind": "compound",
                                 "program": program, "replay": True})
                elif slot == 1:
                    # Slow enough that a SIGKILL can land mid-request
                    # and exercise the transparent idempotent retry.
                    client.send({"id": rid, "kind": "simulate",
                                 "program": HEAVY})
                else:
                    kind = ("analyze", "simulate")[slot % 2]
                    client.send({"id": rid, "kind": kind,
                                 "program": program})
                sent_ids.append(rid)
            if i % 4 == 0:
                time.sleep(0.01)

        # --- Zero lost responses: every id answered despite the
        # kills. Crash-retries ride respawn backoff, so allow time.
        expected = len(sent_ids) + hostile
        if not client.wait_responses(expected, timeout=120.0):
            missing = [r for r in sent_ids if r not in client.recv_at]
            fail(f"lost responses: expected {expected}, got "
                 f"{len(client.lines)} (missing ids: {missing[:10]})")
        stop_chaos.set()
        chaos.join(timeout=5)
        soak_duration = time.monotonic() - soak_started

        check_exactly_one_response(client, sent_ids, hostile)

        # --- Post-chaos reconciliation: with every response in hand,
        # requests_total must equal the well-formed requests sent,
        # +1 for the metrics scrape itself.
        final = scrape_metrics(client, "chaos-metrics-final")
        counters = final.get("registry", {}).get("counters", {})
        server_total = counters.get("serve.requests_total")
        if server_total != client.parsed_sent:
            fail(f"post-chaos serve.requests_total={server_total}, "
                 f"client sent {client.parsed_sent} well-formed "
                 "requests")

        # --- The supervisor actually took hits and recovered, and
        # respawns are bounded by the chaos actions (each SIGKILL or
        # hung SIGSTOP costs at most one respawn — no respawn storm).
        workers = final.get("workers", [])
        if len(workers) != WORKERS:
            fail(f"metrics lists {len(workers)} workers, "
                 f"want {WORKERS}")
        respawns = sum(int(w.get("respawns", 0)) for w in workers)
        crashes = sum(int(w.get("crashes", 0)) for w in workers)
        if tally["kills"] >= 1 and respawns < 1:
            fail(f"{tally['kills']} SIGKILLs but zero respawns")
        budget = tally["kills"] + tally["stops"]
        if respawns > budget:
            fail(f"{respawns} respawns exceed the {budget} chaos "
                 "actions taken (respawn storm)")
        if not all(w.get("state") == "up" for w in workers):
            # Everything answered, so any still-down worker is just
            # riding out its backoff; it must come back.
            deadline = time.monotonic() + 30.0
            recheck = 0
            while time.monotonic() < deadline:
                recheck += 1
                snap = scrape_metrics(client,
                                      f"chaos-recheck-{recheck}")
                if all(w.get("state") == "up"
                       for w in snap.get("workers", [])):
                    break
                time.sleep(0.2)
            else:
                fail("a worker never respawned after chaos")

        results = sum(1 for l in client.lines
                      if json.loads(l).get("type") == "result")
        shed = sum(1 for l in client.lines
                   if json.loads(l).get("type") == "overloaded")
        retried = sum(1 for l in client.lines
                      if json.loads(l).get("retried") is True)
        worker_crashed = sum(
            1 for l in client.lines
            if json.loads(l).get("code") == "serve.worker-crashed")

        cache_block = restart_block = None
        if RESTART:
            # --- SIGKILL the supervisor with work in flight, corrupt
            # a shard snapshot, relaunch, and assert recovery.
            snapshots, admits, cache_block, restart_block = \
                restart_leg(client, server_argv, metrics_file,
                            journal_path, snap_dir, programs, cleanup)
            cache_block["baseline_hit_rate"] = round(baseline_rate, 3)
            cache_block["bitwise_identical"] = True
            if cache_block["post_restart_hit_rate"] < \
                    0.5 * baseline_rate:
                fail(f"post-restart hit rate "
                     f"{cache_block['post_restart_hit_rate']} is "
                     f"below half the {baseline_rate:.3f} baseline")
        else:
            # --- Graceful drain amid the wreckage: SIGTERM exits 0
            # and the final snapshot reconciles too.
            client.sigterm_and_wait()
            snapshots, last = read_final_snapshot(metrics_file)
            snap_total = (last.get("stats", {}).get("counters", {})
                          .get("serve.requests_total"))
            if snap_total != client.parsed_sent:
                fail(f"final snapshot "
                     f"serve.requests_total={snap_total}, "
                     f"client sent {client.parsed_sent}")

            # --- The admission journal closed every record it opened.
            admits = check_journal_empty(journal_path)

        report = {
            "mode": "chaos",
            "workers": WORKERS,
            "requests": client.parsed_sent + hostile,
            "responses": len(client.lines),
            "results": results,
            "shed": shed,
            "hostile": hostile,
            "duration_s": round(soak_duration, 3),
            "rps": round(len(client.lines)
                         / max(soak_duration, 1e-9), 1),
            "client_latency": client.client_latency(),
            "server_latency": server_latency_from(final),
            "snapshots": len(snapshots),
            "chaos": {
                "kills": tally["kills"],
                "stops": tally["stops"],
                "respawns": respawns,
                "crashes": crashes,
                "retried_results": retried,
                "worker_crashed_errors": worker_crashed,
                "journal_admits": admits,
            },
        }
        if cache_block is not None:
            report["cache"] = cache_block
            report["restart"] = restart_block
        print(json.dumps(report, indent=2))
        if REPORT:
            with open(REPORT, "w") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")

        print(f"chaos soak ok: {len(sent_ids) + hostile} requests, "
              f"{len(client.lines)} responses, zero lost; "
              f"{tally['kills']} kills + {tally['stops']} stops -> "
              f"{respawns} respawns, {retried} retried, "
              f"{worker_crashed} worker-crashed; journal clean, "
              "exit 0 on SIGTERM")
        if restart_block is not None:
            print(f"restart leg ok: {restart_block['stranded']} "
                  f"stranded, {restart_block['journal_dangling']} "
                  f"replayed from the journal, "
                  f"{restart_block['resent']} resent, hit rate "
                  f"{cache_block['baseline_hit_rate']} -> "
                  f"{cache_block['post_restart_hit_rate']} across the "
                  "restart, corrupted snapshot rejected")
    finally:
        stop_chaos.set()
        for c in cleanup:
            c.kill_if_alive()
        shutil.rmtree(scratch, ignore_errors=True)


# --------------------------------------------------------------------
# Overload mode (--overload)
# --------------------------------------------------------------------

def wait_ids(client, ids, timeout=180.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        missing = [r for r in ids if r not in client.recv_at]
        if not missing:
            return []
        time.sleep(0.02)
    return [r for r in ids if r not in client.recv_at]


def latency_p99_ms(client, ids):
    samples = sorted(
        (client.recv_at[r] - client.sent_at[r]) * 1e3
        for r in ids if r in client.recv_at and r in client.sent_at)
    return percentile(samples, 0.99)


def shed_reasons(client, ids):
    """Counter of overloaded-shed reasons plus deadline-exceeded
    errors across `ids`."""
    reasons = Counter()
    for rid in ids:
        resp = client.response_for(rid) or {}
        if resp.get("type") == "overloaded":
            reasons[resp.get("reason", "queue-full")] += 1
        elif resp.get("code") == "serve.deadline-exceeded":
            reasons["deadline-exceeded"] += 1
    return reasons


# Client-side shed reasons and the front's counter for each.
SHED_COUNTERS = {
    "queue-full": "serve.shed.queue_full",
    "client-capped": "serve.shed.client_capped",
    "deadline-infeasible": "serve.shed.deadline_infeasible",
    "queue-aged": "serve.shed.queue_aged",
    "deadline-exceeded": "serve.deadline_exceeded",
}


def overload_main():
    scratch = tempfile.mkdtemp(prefix="memoria-overload-soak-")
    metrics_file = SNAPSHOTS or os.path.join(scratch,
                                             "snapshots.jsonl")
    journal_path = JOURNAL or os.path.join(scratch, "journal.jsonl")
    snap_dir = CACHE_SNAPDIR or os.path.join(scratch,
                                             "cache-snapshots")
    server_argv = [
        BIN, "serve",
        "--workers", str(WORKERS),
        "--jobs", "2",
        "--queue", "16",
        "--deadline-ms", "1000",
        "--heartbeat-ms", "100",
        "--client-cap", "6",
        "--age-ms", "1000",
        "--journal", journal_path,
        "--no-incidents",
        "--metrics-file", metrics_file,
        "--metrics-interval-ms", "50",
        "--cache-snapshot-dir", snap_dir,
        "--cache-snapshot-interval-ms", "200",
    ]
    client = ServeClient(server_argv)

    try:
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not \
                worker_pids_from_snapshot(metrics_file,
                                          client.proc.pid):
            time.sleep(0.05)
        if not worker_pids_from_snapshot(metrics_file,
                                         client.proc.pid):
            fail("workers never showed up in the metrics snapshots")

        # --- Warmup: alice's working set, twice — the second wave
        # establishes the uncontended latency and cache-hit baselines
        # the overload gates compare against.
        programs = warm_corpus()

        def alice_wave(tag):
            ids = []
            for i, program in enumerate(programs):
                rid = f"{tag}-{i}"
                client.send({"id": rid, "kind": "compound",
                             "program": program,
                             "client_id": "alice",
                             "priority": "interactive"})
                ids.append(rid)
                if not client.wait_response_for(rid):
                    fail(f"no response for warm request {rid}")
                resp = client.response_for(rid)
                if resp.get("type") != "result":
                    fail(f"warm request {rid} got "
                         f"{resp.get('type')!r}, want result")
            return ids

        alice_wave("warm-fresh")
        hot_ids = alice_wave("warm-hot")
        baseline_rate = cache_hit_rate(client, hot_ids)
        if baseline_rate <= 0.0:
            fail("warmup produced no cache hits")
        baseline_p99_ms = latency_p99_ms(client, hot_ids)

        # --- The overload: three client classes at ~2x capacity, with
        # a SIGHUP rolling restart landing mid-flood.
        soak_started = time.monotonic()
        scale = max(1, COUNT // 200)
        alice_ids, bruce_ids, carol_ids = [], [], []
        hup_sent = threading.Event()

        def alice_loop():
            # Paced interactive traffic over the warm working set: the
            # well-behaved client fair share must protect.
            for i in range(50 * scale):
                rid = f"alice-{i}"
                alice_ids.append(rid)
                client.send({"id": rid, "kind": "compound",
                             "program": programs[i % len(programs)],
                             "client_id": "alice",
                             "priority": "interactive"})
                if i == 15:
                    os.kill(client.proc.pid, signal.SIGHUP)
                    hup_sent.set()
                    print("overload: SIGHUP rolling restart requested",
                          file=sys.stderr)
                time.sleep(0.02)

        def bruce_loop():
            # The batch flooder: far more than his per-client cap can
            # hold, nearly unpaced. He must be the one shed.
            for i in range(150 * scale):
                rid = f"bruce-{i}"
                bruce_ids.append(rid)
                program = SMALL.replace("PROGRAM t",
                                        f"PROGRAM bruce{i % 12}")
                client.send({"id": rid, "kind": "compound",
                             "program": program,
                             "client_id": "bruce",
                             "priority": "batch"})
                time.sleep(0.002)

        def carol_loop():
            # Tight deadlines on heavy work: once the service-time
            # estimate reflects reality, these shed on arrival.
            for i in range(30 * scale):
                rid = f"carol-{i}"
                carol_ids.append(rid)
                program = HEAVY.replace("PROGRAM heavy",
                                        f"PROGRAM carol{i}")
                client.send({"id": rid, "kind": "simulate",
                             "program": program,
                             "client_id": "carol",
                             "deadline_ms": 20})
                time.sleep(0.01)

        threads = [threading.Thread(target=fn, daemon=True)
                   for fn in (alice_loop, bruce_loop, carol_loop)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        if not hup_sent.is_set():
            fail("the SIGHUP was never sent")
        all_ids = alice_ids + bruce_ids + carol_ids

        # --- Gate 1: zero lost responses under 2x overload.
        missing = wait_ids(client, all_ids)
        if missing:
            fail(f"lost responses under overload: {len(missing)} "
                 f"missing (sample: {missing[:10]})")
        soak_duration = time.monotonic() - soak_started
        check_exactly_one_response(client, all_ids, 0)

        # --- Gate 2: the flooder is shed, the paced client never is,
        # and her p99 stays bounded.
        alice_shed = shed_reasons(client, alice_ids)
        bruce_shed = shed_reasons(client, bruce_ids)
        carol_shed = shed_reasons(client, carol_ids)
        if alice_shed:
            fail(f"the paced interactive client was shed: "
                 f"{dict(alice_shed)}")
        if bruce_shed.get("client-capped", 0) < 1:
            fail(f"the flooder drew no client-capped sheds "
                 f"(saw: {dict(bruce_shed)})")
        alice_p99_ms = latency_p99_ms(client, alice_ids)
        p99_bound_ms = max(2000.0, 10.0 * baseline_p99_ms)
        if alice_p99_ms > p99_bound_ms:
            fail(f"interactive p99 {alice_p99_ms:.0f}ms exceeds the "
                 f"{p99_bound_ms:.0f}ms bound (uncontended baseline "
                 f"{baseline_p99_ms:.0f}ms)")

        # --- Gate 3: infeasible deadlines never occupy a worker —
        # shed at admission or answered deadline-exceeded from the
        # queue.
        carol_rejected = (carol_shed.get("deadline-infeasible", 0)
                          + carol_shed.get("deadline-exceeded", 0))
        if carol_rejected < 1:
            fail(f"no tight-deadline request was shed as infeasible "
                 f"or expired (saw: {dict(carol_shed)})")

        # --- Gate 4: the SIGHUP roll gracefully recycled every shard
        # — zero crashes — and the fleet ended whole.
        recycles = crashes = 0
        deadline = time.monotonic() + 30.0
        probe = 0
        while time.monotonic() < deadline:
            probe += 1
            final = scrape_metrics(client, f"overload-metrics-{probe}")
            workers = final.get("workers", [])
            recycles = sum(int(w.get("recycles", 0)) for w in workers)
            crashes = sum(int(w.get("crashes", 0)) for w in workers)
            if recycles >= WORKERS and \
                    all(w.get("state") == "up" for w in workers):
                break
            time.sleep(0.2)
        else:
            fail(f"rolling restart incomplete 30s after the load: "
                 f"{recycles} recycles across {WORKERS} workers")
        if crashes > 0:
            fail(f"{crashes} worker crash(es) during a graceful roll")
        counters = final.get("registry", {}).get("counters", {})
        if counters.get("serve.rolling_restarts", 0) < 1:
            fail("serve.rolling_restarts never counted the SIGHUP")

        # --- Gate 5: requests_total reconciles exactly (every
        # response is in hand, nothing hostile was sent).
        server_total = counters.get("serve.requests_total")
        if server_total != client.parsed_sent:
            fail(f"post-overload serve.requests_total={server_total}, "
                 f"client sent {client.parsed_sent}")

        # --- Gate 6: the roll restarted workers warm — alice's
        # working set still hits at half the pre-roll baseline or
        # better.
        post_ids = alice_wave("warm-post")
        post_rate = cache_hit_rate(client, post_ids)
        if post_rate < 0.5 * baseline_rate:
            fail(f"post-roll hit rate {post_rate:.3f} is below half "
                 f"the {baseline_rate:.3f} baseline: the recycle "
                 "cold-started the cache")

        results = sum(1 for l in client.lines
                      if json.loads(l).get("type") == "result")
        shed = sum(1 for l in client.lines
                   if json.loads(l).get("type") == "overloaded")
        server_latency = server_latency_from(final)

        # --- Graceful drain; the journal audits clean.
        client.sigterm_and_wait()
        _, final_snapshot = read_final_snapshot(metrics_file)
        admits = check_journal_empty(journal_path)

        by_reason = Counter()
        for ids in (alice_ids, bruce_ids, carol_ids):
            by_reason.update(shed_reasons(client, ids))

        # --- Gate 7: shed accounting reconciles. Only the front sheds,
        # so its counters in the final snapshot equal what the clients
        # were told, reason by reason.
        snap_counters = final_snapshot.get("stats", {}).get("counters", {})
        server_shed = {reason: int(snap_counters.get(name, 0))
                       for reason, name in SHED_COUNTERS.items()
                       if snap_counters.get(name, 0)}
        if server_shed != dict(by_reason):
            fail(f"server shed counters {server_shed} do not match the "
                 f"client-side shed_by_reason {dict(by_reason)}")
        report = {
            "mode": "overload",
            "workers": WORKERS,
            "requests": client.parsed_sent,
            "responses": len(client.lines),
            "results": results,
            "shed": shed,
            "shed_by_reason": dict(by_reason),
            "server_shed_by_reason": server_shed,
            "duration_s": round(soak_duration, 3),
            "rps": round(len(all_ids) / max(soak_duration, 1e-9), 1),
            "client_latency": client.client_latency(),
            "server_latency": server_latency,
            "interactive": {
                "requests": len(alice_ids),
                "shed": 0,
                "p99_ms": round(alice_p99_ms, 1),
                "uncontended_p99_ms": round(baseline_p99_ms, 1),
                "p99_bound_ms": round(p99_bound_ms, 1),
            },
            "batch": {
                "requests": len(bruce_ids),
                "shed_by_reason": dict(bruce_shed),
            },
            "deadline": {
                "requests": len(carol_ids),
                "rejected_infeasible_or_expired": carol_rejected,
            },
            "rolling_restart": {
                "recycles": recycles,
                "crashes": crashes,
                "baseline_hit_rate": round(baseline_rate, 3),
                "post_roll_hit_rate": round(post_rate, 3),
            },
            "journal_admits": admits,
        }
        print(json.dumps(report, indent=2))
        if REPORT:
            with open(REPORT, "w") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")

        print(f"overload soak ok: {len(all_ids)} requests, zero lost; "
              f"alice p99 {alice_p99_ms:.0f}ms (bound "
              f"{p99_bound_ms:.0f}ms), bruce shed "
              f"{sum(bruce_shed.values())} "
              f"({bruce_shed.get('client-capped', 0)} client-capped), "
              f"carol rejected {carol_rejected}; {recycles} graceful "
              f"recycles, 0 crashes, hit rate "
              f"{baseline_rate:.2f} -> {post_rate:.2f}; journal clean, "
              "exit 0 on SIGTERM")
    finally:
        client.kill_if_alive()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    if OVERLOAD:
        overload_main()
    elif CHAOS:
        chaos_main()
    else:
        steady_main()
