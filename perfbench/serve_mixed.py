"""serve_mixed: drive a real `memoria serve --workers 2 --jobs 1` over TCP.

Closed loop: three connections from one thread, each with its own
client_id, each sending its next request as soon as the previous answer
arrives (compile clients wait for their reply). About a quarter of the
requests repeat a small hot set, which the result cache answers; the
rest are unique programs, which are computed and inserted. Unique
requests draw analyze, compound and simulate in equal shares, as the
steady mode of scripts/serve_soak.py cycles them.

The request programs come from `perfbench_inproc --serve-inputs`; the
answers are checked after the timed phase, against each other (cache
hits equal fresh answers) and against `perfbench_inproc --serve-expect`,
which recomputes the same programs in process.
"""

import hashlib
import json
import math
import os
import random
import selectors
import signal
import socket
import statistics
import subprocess
import time

WORKERS = 2
CONNECTIONS = 3
HOT_SHARE = 0.25
HOT_COUNT = 8           # must match kServeHot in inproc.cc
WARMUP_UNIQUES = 48
POOL = 120              # must match kServePool in inproc.cc
TRACE_BLOCK_S = 1.0
# Set-ups timed per run: before the phase (the last one serves it) and
# after it, so the median spans the run.
SETUP_BEFORE = 8
SETUP_AFTER = 8

# Fields a cache replay re-stamps; everything else must equal the
# fresh answer byte for byte.
RESTAMPED = ("id", "trace_id", "cache_hit", "dedup_follower")
RESTAMPED_TIMINGS = ("queue_us", "total_us")

EXPECTED_STATUS = {
    # analyze runs only the identity rung, which the harness reports
    # as status "degraded" by definition (docs/SERVING.md).
    "analyze": ("degraded", "identity"),
    "compound": ("ok", "full-compound"),
    "simulate": ("ok", "full-compound"),
}


class Failures:
    """Failed checks, counted against attempts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems[: max(0, 20 - len(self.messages))])


class Inputs:
    """The request programs, streamed by `perfbench_inproc` on demand:
    the hot set first, then unique programs."""

    def __init__(self, inproc, seed):
        self.proc = subprocess.Popen(
            [inproc, "--serve-inputs", "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True)
        self.hot = [self.take() for _ in range(HOT_COUNT)]

    def take(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("input generator stopped")
        return json.loads(line)

    def close(self):
        self.proc.stdout.close()
        self.proc.terminate()
        self.proc.wait()


class Server:
    """One supervised `memoria serve` process group."""

    def __init__(self, memoria, workdir):
        self.proc = subprocess.Popen(
            [memoria, "serve", "--workers", str(WORKERS), "--jobs", "1",
             "--port", "0", "--journal", "none", "--no-incidents"],
            cwd=workdir, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True)
        line = self.proc.stdout.readline().strip()
        if not line.startswith("listening tcp "):
            self.stop()
            raise RuntimeError(f"serve did not announce a port: {line!r}")
        host, port = line.rsplit(" ", 1)[1].rsplit(":", 1)
        self.addr = (host, int(port))
        self.worker_pids = []

    def wait_healthy(self, timeout=30.0):
        """Block until every worker reports up; returns the socket used."""
        sock = socket.create_connection(self.addr, timeout=timeout)
        reader = sock.makefile("r")
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            sock.sendall(b'{"id":"setup","kind":"health"}\n')
            health = json.loads(reader.readline())
            table = health.get("worker_table", [])
            if len(table) == WORKERS and all(
                    w.get("state") == "up" for w in table):
                self.worker_pids = [int(w["pid"]) for w in table]
                reader.close()
                return sock
            time.sleep(0.0002)
        raise RuntimeError("serve workers did not come up")

    def peak_rss_mb(self):
        """VmHWM of the supervisor plus every worker, in MB."""
        total_kb = 0
        for pid in [self.proc.pid] + self.worker_pids:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self):
        """Drain (SIGTERM), then make sure the whole group is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.stdout.close()


class Conn:
    def __init__(self, addr, client_id):
        self.sock = socket.create_connection(addr)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.client_id = client_id
        self.buf = b""
        self.pending = None  # the op in flight

    def send(self, op, traced):
        req = {"id": op["id"], "kind": op["kind"], "program": op["program"],
               "client_id": self.client_id}
        if traced:
            req["trace_id"] = "pb" + op["id"]
        op["traced"] = traced
        op["sent"] = time.perf_counter()
        self.pending = op
        self.sock.sendall((json.dumps(req) + "\n").encode())

    def lines(self):
        data = self.sock.recv(1 << 20)
        if not data:
            raise RuntimeError("server closed a connection")
        self.buf += data
        *complete, self.buf = self.buf.split(b"\n")
        return complete


class Plan:
    """The seeded request sequence: hot repeats mixed into uniques."""

    def __init__(self, seed, inputs):
        self.rng = random.Random(seed)
        self.inputs = inputs
        self.count = 0

    def unique(self):
        return self.op(self.inputs.take(), hot=False)

    def next(self):
        if self.rng.random() < HOT_SHARE:
            item = self.inputs.hot[self.rng.randrange(HOT_COUNT)]
            return self.op(item, hot=True)
        return self.unique()

    def op(self, item, hot):
        self.count += 1
        return {"id": str(self.count), "index": item["index"],
                "kind": item["kind"], "program": item["program"],
                "hot": hot}


def _feeder(ops):
    """A pick function that hands out `ops` in order, then None."""
    it = iter(ops)
    return lambda: next(it, None)


def _closed_loop(conns, plan, seconds, trace, spans, pick=None):
    """Run the closed loop for `seconds` (or over the ops `pick` yields
    until it is exhausted): each connection sends its next request as
    soon as its previous answer arrived. Returns (done ops, start,
    end)."""
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    start = time.perf_counter()
    deadline = start + seconds
    source = pick or plan.next
    done = []
    due = {c: start for c in conns}  # idle connection -> next send time

    def traced_now(now):
        return trace and int((now - start) / TRACE_BLOCK_S) % 2 == 1

    while True:
        now = time.perf_counter()
        for c in [c for c, t in due.items() if t <= now]:
            del due[c]
            op = source() if now < deadline else None
            if op is not None:
                c.send(op, traced_now(now))
        if not due and not any(c.pending for c in conns):
            break
        timeout = max(0.0, min(due.values()) - now) if due else 30.0
        for key, _ in sel.select(timeout=timeout):
            c = key.data
            for line in c.lines():
                now = time.perf_counter()
                op = c.pending
                c.pending = None
                if op is None:
                    raise RuntimeError("unsolicited response line")
                op["recv"] = now
                op["raw"] = line
                if op["traced"]:
                    spans.append({"op": op["id"], "name": "serve.request",
                                  "kind": op["kind"], "hot": op["hot"],
                                  "start_s": op["sent"] - start,
                                  "end_s": now - start})
                done.append(op)
                due[c] = now
    sel.close()
    # Answers are parsed after the loop, so client-side JSON work does
    # not compete with the server for CPU while requests are timed.
    for op in done:
        op["resp"] = json.loads(op.pop("raw"))
    end = max([op["recv"] for op in done], default=start)
    return done, start, end


def _strip(resp):
    body = {k: v for k, v in resp.items() if k not in RESTAMPED}
    if "timings" in body:
        body["timings"] = {k: v for k, v in body["timings"].items()
                           if k not in RESTAMPED_TIMINGS}
    return body


def _is_hit(resp):
    return bool(resp.get("cache_hit") or resp.get("dedup_follower"))


def _check_op(op, fresh):
    problems = []
    resp = op["resp"]
    where = f"request {op['id']} ({op['kind']}, input {op['index']}): "
    if resp.get("id") != op["id"]:
        problems.append(where + "answer carries another id")
    if resp.get("type") != "result":
        problems.append(where + f"terminal type {resp.get('type')!r}")
        return problems
    status, rung = EXPECTED_STATUS[op["kind"]]
    if resp.get("status") != status or resp.get("rung") != rung:
        problems.append(where + f"status {resp.get('status')!r} rung "
                        f"{resp.get('rung')!r}")
    sim = resp.get("sim")
    if op["kind"] == "simulate":
        if not sim or sim["hits"] + sim["misses"] != sim["accesses"]:
            problems.append(where + "sim missing or hits+misses != accesses")
    if op["hot"]:
        if not _is_hit(resp):
            problems.append(where + "hot request was not a cache hit")
        if _strip(resp) != _strip(fresh[op["index"]]):
            problems.append(where + "cache-hit body differs from fresh body")
    elif _is_hit(resp):
        problems.append(where + "unique request answered from the cache")
    return problems


# Answer fields the in-process runIsolated must reproduce exactly.
COMPARED = ("status", "rung", "attempts", "loops", "sim")


def _check_expected(expect, answers, failures):
    """Compare every served answer to an expected input with the
    in-process recomputation, field by field."""
    for e in expect:
        problems = list(e["problems"])
        resp = answers.get(e["index"])
        if resp is None:
            problems.append(f"input {e['index']} was never answered")
        else:
            for key in COMPARED:
                got = resp.get(key)
                if key == "sim" and got is not None:
                    got = {k: got.get(k) for k in ("accesses", "hits",
                                                   "misses")}
                if got != e.get(key):
                    problems.append(f"input {e['index']}: served {key} "
                                    f"{got!r} != in-process "
                                    f"{e.get(key)!r}")
        failures.record(problems)


def _quality(expect, answers):
    """Table 2 and Table 3 figures over the programs the server
    optimized (compound and simulate). Table 3 takes each simulated
    program's transformed cycles from the served miss count (the cycle
    model is linear in it); Table 2 comes from the check pass, which
    every served answer matched field by field."""
    optimized = [e for e in expect if e["kind"] != "analyze"]
    nests = sum(e["nests"] for e in optimized)
    in_order = sum(e["nests_memory_order"] for e in optimized)
    logs = []
    for e in optimized:
        sim = (answers.get(e["index"]) or {}).get("sim")
        if e["kind"] != "simulate" or not sim:
            continue
        final = e["cycles_final"] + e["miss_penalty"] * (
            sim["misses"] - e["check_misses"])
        if e["cycles_orig"] > 0 and final > 0:
            logs.append(math.log(e["cycles_orig"] / final))
    return (100.0 * in_order / nests if nests else 0.0,
            math.exp(sum(logs) / len(logs)) if logs else 1.0,
            nests, in_order)


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _set_up(inproc, memoria, seed, workdir):
    """Launch until ready: the input generator started, the server
    launched, every worker healthy. Returns (inputs, server, seconds)."""
    t0 = time.perf_counter()
    inputs = Inputs(inproc, seed)
    server = None
    try:
        server = Server(memoria, workdir)
        server.wait_healthy().close()
    except BaseException:
        if server is not None:
            server.stop()
        inputs.close()
        raise
    return inputs, server, time.perf_counter() - t0


def run(inproc, memoria, seed, seconds, trace, workdir, spans_path=None):
    """One serve_mixed run; returns the same shape perfbench_inproc
    prints for the in-process workloads."""
    os.makedirs(workdir, exist_ok=True)
    setup_times = []
    server = inputs = None
    try:
        for _ in range(SETUP_BEFORE):
            if server is not None:
                server.stop()
                inputs.close()
                server = inputs = None
            inputs, server, took = _set_up(inproc, memoria, seed, workdir)
            setup_times.append(took)

        conns = [Conn(server.addr, f"c{i}") for i in range(CONNECTIONS)]
        plan = Plan(seed, inputs)

        # Warm-up, untimed: each hot program once (its fresh answer is
        # the reference for every later cache hit), then a few uniques.
        warm, _, _ = _closed_loop(
            conns[:1], plan, 1e9, False, [],
            pick=_feeder([plan.op(item, hot=False) for item in inputs.hot]))
        fresh = {op["index"]: op["resp"] for op in warm}
        done, _, _ = _closed_loop(
            conns, plan, 1e9, False, [],
            pick=_feeder([plan.unique() for _ in range(WARMUP_UNIQUES)]))
        warm += done

        spans = []
        timed, start, end = _closed_loop(conns, plan, seconds, trace, spans)

        # Exactly one terminal answer per request: after the last
        # answer, each connection's next line must be this probe's.
        failures = Failures()
        for i, c in enumerate(conns):
            c.sock.sendall(json.dumps(
                {"id": f"final{i}", "kind": "health"}).encode() + b"\n")
        for i, c in enumerate(conns):
            c.sock.settimeout(30.0)
            lines = []
            while not lines:
                lines = c.lines()
            extra = [ln for ln in lines
                     if json.loads(ln).get("id") != f"final{i}"]
            failures.record([f"connection {i}: stray line {ln[:80]!r}"
                             for ln in extra] + (
                [f"connection {i}: more than one line after the probe"]
                if len(lines) > 1 else []))
        peak_rss = server.peak_rss_mb()
        for c in conns:
            c.sock.close()
        server.stop()
        inputs.close()
        server = inputs = None
        for _ in range(SETUP_AFTER):
            inputs, server, took = _set_up(inproc, memoria, seed, workdir)
            setup_times.append(took)
            server.stop()
            inputs.close()
            server = inputs = None
    finally:
        if server is not None:
            server.stop()
        if inputs is not None:
            inputs.close()

    for op in warm + timed:
        failures.record(_check_op(op, fresh))

    # Hot programs answer fresh once, in the warm-up; every later hit
    # was compared with that answer above.
    answers = {op["index"]: op["resp"] for op in warm + timed
               if not op["hot"]}
    answers.update(fresh)
    expect_out = subprocess.run(
        [inproc, "--serve-expect", "--seed", str(seed)],
        check=True, capture_output=True, text=True, timeout=150)
    expect = [json.loads(line) for line in expect_out.stdout.splitlines()
              if line]
    _check_expected(expect, answers, failures)
    # Quality over one walk of the pool: every seed covers the same
    # shapes there, while the 8 hot programs are a seeded sample.
    memory_order_pct, speedup, nests, in_order = _quality(
        [e for e in expect if e["index"] >= HOT_COUNT], answers)

    untraced = [op for op in timed if not op["traced"]]
    traced = [op for op in timed if op["traced"]]
    lat_ms = [(op["recv"] - op["sent"]) * 1e3 for op in untraced]
    phase = end - start
    q = statistics.quantiles(lat_ms, n=100, method="inclusive") \
        if len(lat_ms) > 1 else [0.0] * 99

    def rate(ops, is_traced):
        blocks = int(phase / TRACE_BLOCK_S) + 1
        span = 0.0
        for b in range(blocks):
            if (b % 2 == 1) == is_traced:
                lo = b * TRACE_BLOCK_S
                span += max(0.0, min(phase, lo + TRACE_BLOCK_S) - lo)
        return len(ops) / span if span > 0 else 0.0

    result = {
        "workload": "serve_mixed",
        "ops": len(timed),
        "phase_s": phase,
        "setup_times": setup_times,
        "end_to_end": {
            "ops_per_s": {"value": len(untraced) / phase if not trace
                          else rate(untraced, False), "unit": "ops/s"},
            "latency_p50_ms": {"value": q[49], "unit": "ms"},
            "latency_p99_ms": {"value": q[98], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
            "nests_memory_order_pct": {"value": memory_order_pct,
                                       "unit": "%"},
            "sim_speedup_geomean": {"value": speedup, "unit": "x"},
        },
        "per_layer": {},
    }
    if trace:
        result["per_layer"] = _layers(traced, untraced, rate)
        if spans_path:
            with open(spans_path, "w") as fh:
                for s in spans:
                    fh.write(json.dumps(s) + "\n")

    first = sorted((op for op in warm + timed if not op["hot"]),
                   key=lambda op: op["index"])[:POOL]
    result["counters"] = {
        "expected_programs": len(expect),
        "nests": nests,
        "nests_memory_order": in_order,
        "sim_speedup_geomean": speedup,
        "served_answers_sha256": hashlib.sha256(json.dumps(
            [[op["index"], op["resp"].get("status"), op["resp"].get("rung"),
              op["resp"].get("attempts"), op["resp"].get("loops"),
              op["resp"].get("sim")] for op in first]).encode()).hexdigest(),
    }
    result["checks"] = {"attempted": failures.attempted,
                        "failed": failures.failed,
                        "messages": failures.messages}
    return result


def _layers(traced, untraced, rate):
    """Per-layer metrics over the traced requests."""
    def ms(op):
        return (op["recv"] - op["sent"]) * 1e3

    results = [op for op in traced if op["resp"].get("type") == "result"]
    hits = [op for op in results if _is_hit(op["resp"])]
    misses = [op for op in results if not _is_hit(op["resp"])]

    def timing(op, key):
        return op["resp"].get("timings", {}).get(key, 0.0) / 1e3

    def per_miss(key):
        return _mean([timing(op, key) for op in misses])

    shed = [op for op in traced if op["resp"].get("type") == "overloaded"]
    layers = {
        "harness.attempts_per_op": {
            "value": _mean([op["resp"].get("attempts", 0) for op in misses]),
            "unit": "count"},
        "serve.queue_ms": {"value": _mean([timing(op, "queue_us")
                                           for op in results]),
                           "unit": "ms"},
        "serve.worker_ms": {"value": _mean([timing(op, "total_us")
                                            for op in results]),
                            "unit": "ms"},
        "serve.front_ms": {"value": _mean([ms(op) - timing(op, "total_us")
                                           for op in results]),
                           "unit": "ms"},
        "serve.cache.hit_pct": {
            "value": 100.0 * len(hits) / len(results) if results else 0.0,
            "unit": "%"},
        "serve.hit_latency_p50_ms": {
            "value": statistics.median([ms(op) for op in hits])
            if hits else 0.0, "unit": "ms"},
        "serve.miss_latency_p50_ms": {
            "value": statistics.median([ms(op) for op in misses])
            if misses else 0.0, "unit": "ms"},
        "serve.shed_pct": {
            "value": 100.0 * len(shed) / len(traced) if traced else 0.0,
            "unit": "%"},
        "serve.load_ms": {"value": per_miss("load_us"), "unit": "ms"},
        "serve.optimize_ms": {"value": per_miss("optimize_us"),
                              "unit": "ms"},
        "serve.verify_ms": {"value": per_miss("verify_us"), "unit": "ms"},
        "serve.simulate_ms": {"value": per_miss("simulate_us"),
                              "unit": "ms"},
    }
    untraced_rate = rate(untraced, False)
    traced_rate = rate(traced, True)
    layers["trace.overhead_pct"] = {
        "value": 100.0 * (untraced_rate / traced_rate - 1.0)
        if traced_rate > 0 else 0.0, "unit": "%"}
    return layers
