#!/usr/bin/env python3
"""The performa benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a performa source tree. The first run builds
performad and perfbench_tool (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).

Workloads:
  query-warm   one connection, closed loop, warm cache hits on a fixed
               working set (m = 3, 11, 66 at four rho, 286)
  serve-mixed  open loop at SERVE_RATE from 4 connections; about one
               request in twenty is a fresh certified solve
  solve-cold   in-process model points: build, certified solve, E[Q],
               P(empty), tail(500), in classes small / large / ld

With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics (and a Chrome trace_event JSONL file is
written under .perfbench/traces). Every run leaves its full record,
provenance and each measuring window's steal share included, under
.perfbench/results (see README.md for how windows are chosen on a host
whose hypervisor steals CPU time). `--size-serve` runs the
serve-mixed traffic against a 1-worker daemon and prints the offered rate
that keeps it about half busy; it is for sizing only.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # leave nothing in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402

WORKLOADS = ("query-warm", "serve-mixed", "solve-cold")
# Offered rate of serve-mixed: --size-serve on a 4-CPU host measured a
# mean service time of about 2.1 ms at --workers 1, so 0.5 / 2.1 ms.
SERVE_RATE = 230.0
SERVE_CONNECTIONS = 4
SERVE_DEADLINE_MS = 2000
# A serve-mixed run whose generator sends later than this (p99) is invalid.
LATE_BOUND_MS = 10.0
# Set-ups per run, each a measuring window; setup_s is the median of the
# SETUP_REPORTED least-stolen.
SETUP_REPEATS = 9
SETUP_REPORTED = 3
SIGTERM_GRACE_S = 5.0
KERNEL_SIZES = (66, 286, 726)  # m=66, m=286 and the ld boundary order
WARM_BLOCKS = 40


class RunInvalid(Exception):
    """The run cannot be reported (e.g. the generator fell behind)."""


def now_us():
    return time.monotonic() * 1e6


class Spans:
    """The benchmark's own spans, kept in memory; no-ops when disabled."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.events = []
        self._stack = []
        self._next = 1

    @contextlib.contextmanager
    def span(self, name, rid=""):
        if not self.enabled:
            yield
            return
        span_id, self._next = self._next, self._next + 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        t0 = now_us()
        try:
            yield
        finally:
            self._stack.pop()
            self.events.append(bl.chrome_event(name, t0, now_us() - t0,
                                               os.getpid(), span_id, parent,
                                               rid))


class Ctx:
    """Everything one run shares: paths, seed, processes, spans."""

    def __init__(self, root, args, tool, performad):
        self.root = root
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.tool = tool
        self.performad = performad
        self.tmp = tempfile.mkdtemp(
            prefix="run-", dir=os.path.join(root, ".perfbench", "tmp"))
        self.spans = Spans(self.trace)
        self.tool_span_files = []
        self.procs = []
        self.sigterm_hung = 0

    def path(self, name):
        return os.path.join(self.tmp, name)

    def rel(self, name):
        """Short path relative to the root: Unix socket paths are limited
        to about 100 bytes, and the checkout may sit deep."""
        return os.path.relpath(self.path(name), self.root)

    def cleanup(self):
        for p in self.procs:
            if p.poll() is None:
                p.kill()
            p.wait()
        shutil.rmtree(self.tmp, ignore_errors=True)


# ------------------------------------------------------------------ build

def build(root):
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    bdir = os.path.join(build_root, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(build_root, "perfbench-build.log")
    cmds = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                     bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    cmds.append(["cmake", "--build", bdir, "--target", "perfbench_tool",
                 "performad", "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for cmd in cmds:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                 cwd=root)
            if rc != 0:
                with open(log_path) as fh:
                    sys.stderr.write(fh.read()[-4000:])
                raise SystemExit("perfbench: build failed: %s" % " ".join(cmd))
    return (os.path.join(bdir, "perfbench_tool"),
            os.path.join(bdir, "performa", "src", "daemon", "performad"),
            bdir)


def provenance(ctx, bdir):
    info = json.loads(subprocess.check_output([ctx.tool, "info"]))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = ""
    with open(os.path.join(bdir, "CMakeCache.txt")) as fh:
        for line in fh:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    try:
        commit = subprocess.check_output(
            ["git", "rev-parse", "HEAD"], cwd=ctx.root,
            stderr=subprocess.DEVNULL).decode().strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none"
    digest = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ctx.root,
                                                                    sub))):
            dirnames.sort()
            for f in sorted(files):
                if f.endswith((".pyc",)):
                    continue
                with open(os.path.join(dirpath, f), "rb") as fh:
                    digest.update(f.encode() + fh.read())
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "pool_width": info["pool_threads"], "kernel": info["kernel"],
        "daemon_workers": info["daemon_workers"], "build_type": build_type,
        "assertions": info["assertions"], "compiler": info["compiler"],
        "git_commit": commit, "source_sha256": digest.hexdigest()[:16],
        "seed": ctx.seed,
    }


# ------------------------------------------------------------------ tool

def tool_cmd(ctx, args, name, traced=True):
    """perfbench_tool command line; a traced run adds a span file."""
    cmd = [ctx.tool] + args
    if ctx.trace and traced:
        spans = ctx.path(name + ".spans")
        cmd += ["--spans", spans]
        ctx.tool_span_files.append(spans)
    return cmd


def run_tool(ctx, args, name, traced=True):
    """Run perfbench_tool to completion; returns its stdout lines."""
    return subprocess.run(tool_cmd(ctx, args, name, traced),
                          stdout=subprocess.PIPE, check=True,
                          timeout=170).stdout.splitlines()


def write_lines(ctx, name, lines):
    path = ctx.path(name)
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
    return path


def strip_field(reply, key):
    """Drop one `"key":"string",` field from a wire line (bytes)."""
    start = reply.find(b'"' + key + b'":"')
    if start < 0:
        return reply
    end = reply.index(b'"', start + len(key) + 4) + 1
    if reply[end:end + 1] == b",":
        end += 1
    return reply[:start] + reply[end:]


def canonical_answer(reply):
    """A wire answer without the fields that differ per request."""
    return strip_field(strip_field(reply, b"id"), b"qid").strip()


def reference_answers(ctx, warmup, lines, name, threads=None):
    """In-process QueryEngine answers to `lines` after `warmup`."""
    distinct = list(dict.fromkeys(lines))
    args = ["engine", write_lines(ctx, name + "-warmup.jsonl", warmup),
            write_lines(ctx, name + "-requests.jsonl", distinct)]
    if threads:
        args += ["--threads", str(threads)]
    out = run_tool(ctx, args, name, traced=threads is None)
    answers = {line: canonical_answer(ans)
               for line, ans in zip(distinct, out[:len(distinct)])}
    extra = {}
    for x in out[len(distinct):]:
        extra.update(json.loads(x))
    # The tool names its per-line spans "line-<index in distinct>".
    extra["line_rids"] = {line: "line-%d" % i for i, line in
                          enumerate(distinct)}
    return answers, extra


# ------------------------------------------------------------------ daemon

class Daemon:
    """One performad at its defaults on a private Unix socket."""

    def __init__(self, ctx, name, extra=()):
        self.ctx = ctx
        self.sock = ctx.rel(name + ".sock")
        self.log = open(ctx.path(name + ".log"), "w")
        self.proc = subprocess.Popen(
            [ctx.performad, "--socket", self.sock] + list(extra),
            cwd=ctx.root, stdout=subprocess.DEVNULL, stderr=self.log)
        ctx.procs.append(self.proc)

    def connect(self, timeout=bl.REQUEST_TIMEOUT_S):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(timeout)
        s.connect(self.sock)  # relative to the root, our working directory
        return s

    def wait_ready(self, timeout_s=60.0):
        t_end = time.monotonic() + timeout_s
        while time.monotonic() < t_end:
            if self.proc.poll() is not None:
                raise RuntimeError("performad exited at start-up")
            try:
                c = Conn(self.connect(1.0))
                ok = b'"ok":true' in c.call(b'{"op":"readyz"}')
                c.close()
                if ok:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("performad not ready in %gs" % timeout_s)

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM")

    def scrape(self):
        """Prometheus text from GET /metrics as {name: value}."""
        s = self.connect()
        s.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
        s.close()
        out = {}
        body = data.split(b"\r\n\r\n", 1)[-1].decode()
        for line in body.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                try:
                    out[name] = float(value)
                except ValueError:
                    pass
        return out

    def stop(self):
        """SIGTERM, then SIGKILL after a grace period (counted as hung)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(SIGTERM_GRACE_S)
            except subprocess.TimeoutExpired:
                self.ctx.sigterm_hung += 1
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Conn:
    """Newline-delimited JSON over one socket, with a read buffer."""

    def __init__(self, sock):
        self.sock = sock
        self.buf = b""

    def call(self, line):
        self.sock.sendall(line + b"\n")
        return self.read_line()

    def read_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def close(self):
        self.sock.close()


def start_warm_daemon(ctx, name, extra=()):
    """Start performad and solve the working set into its cache; returns
    (daemon, seconds from start to ready with the cache warm)."""
    t0 = time.monotonic()
    with ctx.spans.span("setup.daemon_start", name):
        d = Daemon(ctx, name, extra)
        d.wait_ready()
    conn = Conn(d.connect(60.0))
    for i, line in enumerate(bl.warmup_lines()):
        with ctx.spans.span("setup.warm_solve", "%s-w%d" % (name, i)):
            reply = conn.call(line.encode())
        if b'"ok":true' not in reply or b'"trust":"certified"' not in reply:
            raise RuntimeError("warm-up solve failed: %r" % reply)
    conn.close()
    return d, time.monotonic() - t0


def daemon_setups(ctx, name, extra=()):
    """Set the daemon up SETUP_REPEATS times; keep the last one."""
    setups = []
    d = None
    for i in range(SETUP_REPEATS):
        if d is not None:
            d.stop()
        with window(setups) as w:
            d, w["setup_s"] = start_warm_daemon(ctx, "%s%d" % (name, i),
                                                extra)
    return d, setups


def setup_metric(setups):
    times = [w["setup_s"] for w in bl.calmest(setups, SETUP_REPORTED)]
    return metric(bl.median(times), "s", len(times))


def stats(daemon):
    c = Conn(daemon.connect())
    reply = json.loads(c.call(b'{"op":"stats"}'))
    c.close()
    return reply


def final_readings(daemon, s0):
    """Cache counters, a /metrics scrape and VmHWM after the timed
    phase; a wedged daemon answers none of the socket ones."""
    try:
        return stats(daemon), daemon.scrape(), daemon.vm_hwm_mb()
    except (OSError, ConnectionError):
        return s0, {}, daemon.vm_hwm_mb()


# ------------------------------------------------------------------ results

class Tally:
    """Operations of one run: latencies (ms, failures at the timeout),
    failures and answer mismatches."""

    def __init__(self):
        self.lat_ms = []
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.outcomes = {}

    def record(self, ok, seconds, outcome="ok", mismatch=False):
        self.attempted += 1
        good = ok and not mismatch
        if not good:
            self.failed += 1
        if mismatch:
            self.mismatched += 1
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.lat_ms.append(bl.latency_ms(good, seconds))

    def merge_counts(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatched += other.mismatched


def metric(value, unit, samples=None):
    m = {"value": value, "unit": unit}
    if samples is not None:
        m["samples"] = samples
    return m


def latency_metrics(lat_ms):
    lat = sorted(lat_ms)
    return {
        "latency_p50_ms": metric(bl.percentile(lat, 0.50), "ms", len(lat)),
        "latency_p99_ms": metric(bl.percentile(lat, 0.99), "ms", len(lat)),
    }


# ------------------------------------------------------------------ workloads

def cpu_jiffies():
    """(stolen, total) CPU time of this host so far, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)  # the eighth field is steal


@contextlib.contextmanager
def window(windows):
    """One measuring window, appended to `windows` with its wall seconds
    and its steal share."""
    stolen0, total0 = cpu_jiffies()
    t0 = time.monotonic()
    w = {}
    yield w
    stolen1, total1 = cpu_jiffies()
    w["seconds"] = time.monotonic() - t0
    w["steal"] = (stolen1 - stolen0) / max(1, total1 - total0)
    windows.append(w)


def window_record(windows, reported):
    """The run record's account of the measuring windows."""
    return {"count": len(windows), "reported": len(reported),
            "steal": [round(w["steal"], 4) for w in windows]}


@contextlib.contextmanager
def no_gc():
    """Keep the collector's pauses out of the client's timings."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# A query window is WINDOW_BLOCKS blocks of requests, cut short after
# QUERY_WINDOW_MAX_S (a wedged daemon).
WINDOW_BLOCKS = 1
QUERY_WINDOW_MAX_S = 3.0


def closed_loop(ctx, daemon, lines, answers, tally, state, win):
    """One connection; each request waits for the previous reply. Runs
    one window, continuing the request list where `state` left it, and
    puts the window's latencies and block rates in `win`."""
    n0 = len(tally.lat_ms)
    win["block_rates"] = []
    with no_gc():
        _closed_loop(ctx, daemon, lines, answers, tally, state,
                     win["block_rates"])
    win["lat_ms"] = tally.lat_ms[n0:]


def _closed_loop(ctx, daemon, lines, answers, tally, state, block_rates):
    conn = None
    t_end = time.monotonic() + QUERY_WINDOW_MAX_S
    i = state["next"]
    i_end = (i // bl.BLOCK_SIZE + WINDOW_BLOCKS) * bl.BLOCK_SIZE
    block_t0 = block_ok = None  # blocks that start in this window
    while i < i_end and time.monotonic() < t_end:
        line = lines[i % len(lines)]
        t0 = time.monotonic()
        if i % bl.BLOCK_SIZE == 0:
            block_t0, block_ok = t0, 0
        try:
            conn = conn or Conn(daemon.connect())
            with ctx.spans.span("client.request", "q%d" % i):
                reply = conn.call(line.encode())
        except (OSError, ConnectionError):
            # Timed out or refused: a failure, and the stream is out of
            # step, so the next request gets a fresh connection.
            tally.record(False, time.monotonic() - t0, "unanswered")
            if conn:
                conn.close()
            conn = None
            i += 1
            time.sleep(0.01)
            continue
        dt = time.monotonic() - t0
        ok = b'"ok":true' in reply
        mismatch = ok and canonical_answer(reply) != answers[line]
        outcome = "ok" if ok else json.loads(reply).get("outcome", "error")
        tally.record(ok, dt, outcome, mismatch)
        state["latencies"].append((line, dt))
        if block_t0 is not None:
            block_ok += ok and not mismatch
            if i % bl.BLOCK_SIZE == bl.BLOCK_SIZE - 1:
                block_rates.append(block_ok / (time.monotonic() - block_t0))
        i += 1
    state["next"] = i
    if conn:
        conn.close()


def good_point(row):
    """A point row that solved, came back certified and in range."""
    return (row["ok"] and row["trust"] == "certified"
            and 0.0 < row["mean"] < 1e12
            and 0.0 < row["p_empty"] < 1.0
            and 0.0 <= row["tail500"] <= 1.0)


def point_tally(rows, after):
    """Tally of the cold tool's point rows, given the lines it printed
    after them (width-1 checks and counters); returns (tally, extra)."""
    tally = Tally()
    extra = {"healing": 0}
    good_index = set()  # points that passed every check so far
    for row in rows:
        good = good_point(row)
        tally.record(row["ok"], row["lat_s"], "ok" if row["ok"] else "error",
                     mismatch=row["ok"] and not good)
        if good:
            good_index.add(row["i"])
        extra["healing"] += row.get("healing", 0)
    by_index = {row["i"]: row for row in rows}
    for row in after:
        if "w1_mean" in row or "w1_error" in row:
            point = by_index.get(row["i"])
            extra["w1_checked"] = extra.get("w1_checked", 0) + 1
            if not (point and point["ok"]
                    and row.get("w1_mean") == point["mean"]):
                # A width-1 mismatch turns that point into a failure,
                # unless it already counted as one.
                extra["w1_mismatch"] = extra.get("w1_mismatch", 0) + 1
                if row["i"] in good_index:
                    good_index.discard(row["i"])
                    tally.failed += 1
                    tally.mismatched += 1
        else:
            extra.update(row)
    return tally, extra


class ColdTool:
    """One `perfbench_tool cold` process over a written points list, run
    one chunk (a round of points) at a time."""

    def __init__(self, ctx, points, name):
        self.points = points
        self.path = write_lines(ctx, name + ".jsonl",
                                [json.dumps(p, separators=(",", ":"))
                                 for p in points])
        self.chunks = 1 + max(p.get("chunk", 0) for p in points)
        self.chunks_run = 0
        t0 = time.monotonic()
        self.proc = subprocess.Popen(tool_cmd(ctx, ["cold", self.path], name),
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        ctx.procs.append(self.proc)
        if json.loads(self.proc.stdout.readline()) != {"ready": True}:
            raise RuntimeError("cold tool did not get ready")
        self.setup_s = time.monotonic() - t0
        self.rows = []

    def left(self):
        return self.chunks_run < self.chunks

    def chunk(self, win):
        """Run the next chunk; its point rows go to win["rows"] too."""
        self.proc.stdin.write(b"go\n")
        self.proc.stdin.flush()
        self.chunks_run += 1
        win["rows"] = []
        while True:
            row = json.loads(self.proc.stdout.readline())
            if row.get("chunk_done"):
                break
            win["rows"].append(row)
        self.rows += win["rows"]

    def finish(self):
        """Stop after the chunks run so far and collect the width-1
        checks; returns (tally of every point run, extra counters)."""
        self.proc.stdin.close()
        rest = self.proc.stdout.read()
        if self.proc.wait(170) != 0:
            raise RuntimeError("cold tool failed")
        return point_tally(self.rows, [json.loads(x) for x in
                                       rest.decode().splitlines() if x])

    def figures(self, windows):
        """Point latencies (s) per family and good points per second of
        each window, over the given windows."""
        families = {}
        rates = []
        for w in windows:
            ok = sum(1 for row in w["rows"] if good_point(row))
            for row in w["rows"]:
                families.setdefault(self.points[row["i"]]["fam"],
                                    []).append(row["lat_s"])
            rates.append(ok / sum(row["lat_s"] for row in w["rows"]))
        return families, rates


def setup_only(ctx, points, name):
    """Spawn-to-ready time of a cold tool that exits after set-up."""
    path = write_lines(ctx, name + ".jsonl",
                       [json.dumps(p, separators=(",", ":")) for p in points])
    t0 = time.monotonic()
    subprocess.run([ctx.tool, "cold", path, "--setup-only"],
                   stdout=subprocess.DEVNULL, check=True, timeout=170)
    return time.monotonic() - t0


def points_metrics(families):
    out = {}
    for cls in bl.CLASSES:
        n = sum(len(v) for f, v in families.items()
                if f.startswith(cls + "/"))
        out["points_per_s." + cls] = metric(bl.points_per_s(families, cls),
                                            "1/s", n)
    return out


# A run measures for MEASURE_SHARE x --seconds, in query windows and
# rounds of cold points, and reports the least-stolen of them
# (benchlib.report_count). serve-mixed runs COMPANION_ROUNDS rounds of
# companion points after its schedule and reports all of them.
MEASURE_SHARE = 2.2
QUERY_WINDOWS_PER_ROUND = 4
COMPANION_ROUNDS = 10


def max_rounds(seconds):
    """Rounds a points list holds: enough for rounds of 0.3 s."""
    return int(MEASURE_SHARE * seconds / 0.3) + 1


def query_warm(ctx, seconds, with_companion=True):
    """Closed loop on the warm daemon in windows of WINDOW_BLOCKS blocks;
    after every QUERY_WINDOWS_PER_ROUND, one round of fixed cold points
    (the points_per_s figures)."""
    lines = bl.warm_requests(ctx.seed, WARM_BLOCKS)
    with ctx.spans.span("setup.reference"):
        answers, reference = reference_answers(ctx, bl.warmup_lines(),
                                               lines, "warm-ref")
    comp = None
    if with_companion:
        comp = ColdTool(ctx, bl.companion_points(max_rounds(seconds)),
                        "companion")
    daemon, setups = daemon_setups(ctx, "qw")
    tally = Tally()
    state = {"next": 0, "latencies": []}
    qwin, cwin = [], []
    try:
        s0 = stats(daemon)
        scrape0 = daemon.scrape()
        t_end = time.monotonic() + MEASURE_SHARE * seconds
        while time.monotonic() < t_end:
            for _ in range(QUERY_WINDOWS_PER_ROUND):
                with window(qwin) as w:
                    closed_loop(ctx, daemon, lines, answers, tally, state, w)
            if comp and comp.left():
                with window(cwin) as w:
                    comp.chunk(w)
        s1, scrape, rss = final_readings(daemon, s0)
    finally:
        daemon.stop()
    calm = bl.calmest(qwin, bl.report_count(len(qwin)))
    rec = {
        "setups": window_record(setups, bl.calmest(setups, SETUP_REPORTED)),
        "setup_times_s": [w["setup_s"] for w in setups],
        "windows": window_record(qwin, calm),
        "outcomes": dict(tally.outcomes),
        "cache_hits": s1["cache_hits"] - s0["cache_hits"],
        "cache_misses": s1["cache_misses"] - s0["cache_misses"],
        "scrape0": scrape0, "scrape": scrape,
        "latencies": state["latencies"],
        "reference": reference, "generator_late_ms": 0.0,
    }
    metrics = {"setup_s": setup_metric(setups)}
    if not ctx.trace:
        metrics.update(latency_metrics(
            [x for w in calm for x in w["lat_ms"]]))
    # Completions per second of the median 200-request block: every
    # block has the same request mix.
    rates = [r for w in calm for r in w["block_rates"]]
    metrics["throughput_per_s"] = metric(
        bl.median(rates or [0.0]), "1/s", len(rates))  # none: wedged
    metrics["rss_mb"] = metric(rss, "MiB", 1)
    if comp:
        ctally, cextra = comp.finish()
        tally.merge_counts(ctally)
        ccalm = bl.calmest(cwin, bl.report_count(len(cwin)))
        families, _ = comp.figures(ccalm)
        metrics.update(points_metrics(families))
        cextra["windows"] = window_record(cwin, ccalm)
        rec["companion"] = cextra
    return tally, metrics, rec


def solve_cold(ctx, seconds):
    """Seeded cold points in interleaved rounds of about a second each,
    one window a round; set-up is timed in SETUP_REPEATS tool processes.
    An untraced run reports at least the rounds p99 needs."""
    per_round = len(bl.cold_points(0, 1)) - len(bl.WARMUP_POINTS)
    least = 1
    if not ctx.trace:
        least = -(-bl.min_samples(0.99) // per_round)
    points = bl.cold_points(ctx.seed, max(least, max_rounds(seconds)))
    setups = []
    for i in range(SETUP_REPEATS - 1):
        with window(setups) as w:
            w["setup_s"] = setup_only(ctx, points[:len(bl.WARMUP_POINTS)],
                                      "cold-setup%d" % i)
    with window(setups) as w:
        tool = ColdTool(ctx, points, "cold")
        w["setup_s"] = tool.setup_s
    wins = []
    t_end = time.monotonic() + MEASURE_SHARE * seconds
    while tool.left() and (time.monotonic() < t_end or len(wins) < least):
        with window(wins) as w:
            tool.chunk(w)
    tally, extra = tool.finish()
    calm = bl.calmest(wins, bl.report_count(len(wins), least))
    families, round_rates = tool.figures(calm)
    metrics = {"setup_s": setup_metric(setups)}
    if not ctx.trace:
        metrics.update(latency_metrics(
            [bl.latency_ms(good_point(row), row["lat_s"])
             for w in calm for row in w["rows"]]))
    # Points per second of the median round; rounds hold the same mix.
    metrics["throughput_per_s"] = metric(bl.median(round_rates), "1/s",
                                         len(round_rates))
    metrics["rss_mb"] = metric(extra["vm_hwm_kb"] / 1024.0, "MiB", 1)
    metrics.update(points_metrics(families))
    extra["windows"] = window_record(wins, calm)
    rec = {"setups": window_record(setups,
                                   bl.calmest(setups, SETUP_REPORTED)),
           "setup_times_s": [w["setup_s"] for w in setups], "cold": extra,
           "outcomes": dict(tally.outcomes), "generator_late_ms": 0.0}
    return tally, metrics, rec


def open_loop(ctx, daemon, schedule, tally, answers):
    """Send `schedule` on time over SERVE_CONNECTIONS connections; each
    request is timed from its scheduled send time."""
    conns = [Conn(daemon.connect()) for _ in range(SERVE_CONNECTIONS)]
    sel = selectors.DefaultSelector()
    for i, c in enumerate(conns):
        c.sock.setblocking(False)
        sel.register(c.sock, selectors.EVENT_READ, i)
    pending = {}  # id -> (due, line)
    late_ms = []
    replies = {}
    latencies = []
    t0 = time.monotonic() + 0.01
    nxt = 0
    while nxt < len(schedule) or pending:
        now = time.monotonic()
        while nxt < len(schedule) and t0 + schedule[nxt][0] <= now:
            offset, line, _ = schedule[nxt]
            rid = "s%d" % nxt
            wire = ('{"id":"%s",' % rid + line[1:]).encode()
            c = conns[nxt % SERVE_CONNECTIONS]
            try:
                c.sock.sendall(wire + b"\n")
            except (BlockingIOError, OSError):
                pass  # counted as unanswered below
            pending[rid] = (t0 + offset, line)
            late_ms.append((time.monotonic() - (t0 + offset)) * 1e3)
            nxt += 1
            now = time.monotonic()
        # Give up on requests past their timeout.
        for rid, (due, line) in list(pending.items()):
            if now - due > bl.REQUEST_TIMEOUT_S:
                del pending[rid]
                tally.record(False, now - due, "unanswered")
                replies[rid] = None
        wait = 0.05
        if nxt < len(schedule):
            wait = max(0.0, min(wait, t0 + schedule[nxt][0] - now))
        for key, _ in sel.select(wait):
            c = conns[key.data]
            try:
                chunk = c.sock.recv(1 << 16)
            except BlockingIOError:
                continue
            if not chunk:
                sel.unregister(c.sock)
                continue
            c.buf += chunk
            while b"\n" in c.buf:
                reply, c.buf = c.buf.split(b"\n", 1)
                t = time.monotonic()
                fields = json.loads(reply)
                if fields.get("id") not in pending:
                    continue
                rid = fields["id"]
                due, line = pending.pop(rid)
                # A stale answer is a degraded one: it counts as failed.
                ok = fields.get("ok") is True and fields.get("stale") is False
                replies[rid] = reply
                expected = answers.get(line)
                mismatch = ok and (
                    b'"trust":"certified"' not in reply
                    or (expected is not None
                        and canonical_answer(reply) != expected))
                tally.record(ok, t - due, fields.get("outcome", "?"), mismatch)
                if ok:
                    latencies.append((line, t - due))
    for c in conns:
        c.close()
    return late_ms, replies, latencies


def serve_mixed(ctx, seconds, with_companion=True):
    rec = {}
    schedule = bl.serve_requests(ctx.seed, SERVE_RATE, seconds,
                                 SERVE_DEADLINE_MS)
    warm = [line for _, line, miss in schedule if not miss]
    with ctx.spans.span("setup.reference"):
        answers, reference = reference_answers(ctx, bl.warmup_lines(),
                                               warm, "serve-ref")
    daemon, setups = daemon_setups(ctx, "sm")
    tally = Tally()
    try:
        s0 = stats(daemon)
        scrape0 = daemon.scrape()
        with no_gc():
            late_ms, replies, latencies = open_loop(ctx, daemon, schedule,
                                                    tally, answers)
        s1, scrape, rss = final_readings(daemon, s0)
    finally:
        daemon.stop()
    # Misses: a seeded sample must equal a pool-width-1 recomputation.
    misses = [("s%d" % i, line) for i, (_, line, miss) in enumerate(schedule)
              if miss]
    sample = misses[ctx.seed % 4::4]
    if sample:
        ref1, _ = reference_answers(ctx, [], [line for _, line in sample],
                                    "serve-w1", threads=1)
        for rid, line in sample:
            reply = replies.get(rid)
            if reply is None or b'"ok":true' not in reply:
                continue
            got, want = json.loads(reply), json.loads(ref1[line])
            for d in (got, want):
                for key in ("id", "qid", "solve_ms"):
                    d.pop(key, None)
            if got != want:
                tally.failed += 1
                tally.mismatched += 1
    late_ms.sort()
    late_p99 = bl.percentile(late_ms, 0.99) if len(late_ms) > 20 else 0.0
    hits = s1.get("cache_hits", 0) - s0["cache_hits"]
    lookups = hits + s1.get("cache_misses", 0) - s0["cache_misses"]
    rec.update({
        "setup_times_s": [w["setup_s"] for w in setups],
        "outcomes": tally.outcomes,
        "generator_late_ms": late_p99, "generator_late_max_ms": late_ms[-1],
        "cache_hits": hits, "cache_misses": lookups - hits,
        "scrape0": scrape0, "scrape": scrape,
        "miss_w1_checked": len(sample), "reference": reference,
        "serve_latencies": latencies,
    })
    if late_p99 > LATE_BOUND_MS:
        raise RunInvalid("generator fell behind: p99 lateness %.2f ms > %g ms"
                         % (late_p99, LATE_BOUND_MS))
    ok = tally.attempted - tally.failed
    metrics = {"setup_s": setup_metric(setups)}
    if not ctx.trace:
        metrics.update(latency_metrics(tally.lat_ms))
    metrics["throughput_per_s"] = metric(ok / seconds, "1/s", ok)
    metrics["rss_mb"] = metric(rss, "MiB", 1)
    if with_companion:
        comp = ColdTool(ctx, bl.companion_points(COMPANION_ROUNDS),
                        "companion")
        wins = []
        while comp.left():
            with window(wins) as w:
                comp.chunk(w)
        ctally, cextra = comp.finish()
        tally.merge_counts(ctally)
        metrics.update(points_metrics(comp.figures(wins)[0]))
        rec["companion"] = cextra
    return tally, metrics, rec


def size_serve(ctx):
    """Offered rate at which a 1-worker daemon is about half busy: the
    mean latency of serve-mixed traffic sent one at a time is its
    service time. Sizing only; never reported."""
    schedule = bl.serve_requests(ctx.seed, 1000.0, 2.0, SERVE_DEADLINE_MS)
    daemon, _ = daemon_setups(ctx, "size", ["--workers", "1"])
    try:
        conn = Conn(daemon.connect())
        busy = []
        for _, line, _ in schedule:
            t0 = time.monotonic()
            conn.call(line.encode())
            busy.append(time.monotonic() - t0)
        conn.close()
    finally:
        daemon.stop()
    mean = sum(busy) / len(busy)
    print(json.dumps({"requests": len(busy), "mean_service_ms": mean * 1e3,
                      "half_busy_rate_per_s": 0.5 / mean}))


# ------------------------------------------------------------------ traced

def layer_metrics(ctx, rec, kernels):
    """Per-layer metrics from the spans of a traced run."""
    by_name = {}
    for path in ctx.tool_span_files:
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            for line in fh:
                ev = json.loads(line)
                by_name.setdefault(ev["name"], []).append(ev)
    out = {}

    def put(name, values, unit, scale=1.0):
        if values:
            out[name] = metric(bl.median(values) * scale, unit, len(values))

    def durs(span):
        return [ev["dur"] for ev in by_name.get(span, [])]

    put("daemon.parse_ns", durs("daemon.parse"), "ns", 1e3)
    put("daemon.key_ns", durs("daemon.key"), "ns", 1e3)
    sizes = sorted({m for m, _ in bl.working_set().values()})
    for op in bl.WARM_OPS:
        for m in sizes:
            put("daemon.handle_us.%s.m%d" % (op, m),
                durs("daemon.handle.%s.m%d" % (op, m)), "us")
    # In-process handle time of each request line, from the tool's
    # per-line spans; socket latency minus it is transport (closed loop)
    # or admission and queue wait (open loop).
    handle_us = {}
    for name, evs in by_name.items():
        if name.startswith("daemon.handle."):
            for ev in evs:
                handle_us.setdefault(ev["rid"], []).append(ev["dur"])
    line_handle = {line: bl.median(handle_us[rid])
                   for line, rid in rec.get("reference", {}).get(
                       "line_rids", {}).items() if rid in handle_us}
    put("daemon.transport_us",
        [dt * 1e6 - line_handle[line] for line, dt in rec.get("latencies", [])
         if line in line_handle], "us")
    put("daemon.wait_ms",
        [dt * 1e3 - line_handle[line] / 1e3
         for line, dt in rec.get("serve_latencies", [])
         if line in line_handle], "ms")
    lookups = rec.get("cache_hits", 0) + rec.get("cache_misses", 0)
    if lookups:
        out["daemon.cache_hit_ratio"] = metric(rec["cache_hits"] / lookups,
                                               "ratio", lookups)
    # Shed requests from the daemon's own counter when the final scrape
    # got through, else as the client saw them.
    outcomes = rec.get("outcomes", {})
    out["daemon.shed"] = metric(
        rec.get("scrape", {}).get("daemon_queue_shed",
                                  float(outcomes.get("overloaded", 0))),
        "count", 1)
    out["daemon.deadline_exceeded"] = metric(
        float(outcomes.get("deadline-exceeded", 0)), "count", 1)
    out["daemon.unanswered"] = metric(float(outcomes.get("unanswered", 0)),
                                      "count", 1)
    out["daemon.sigterm_hung"] = metric(float(ctx.sigterm_hung), "count", 1)

    for m in (66, 286):
        for metric_name, span in (("decay_rate_us", "qbd.decay_rate"),
                                  ("variance_us", "qbd.variance"),
                                  ("mean_us", "qbd.mean"),
                                  ("tail_us.k25", "qbd.tail.k25"),
                                  ("tail_us.k500", "qbd.tail.k500"),
                                  ("pmf_us", "qbd.pmf")):
            put("qbd.%s.m%d" % (metric_name, m), durs("%s.m%d" % (span, m)),
                "us")
        put("core.qos_us.m%d" % m, durs("core.qos.m%d" % m), "us")
    for cls in bl.CLASSES:
        put("qbd.spectral_radius_ms." + cls,
            durs("qbd.spectral_radius." + cls), "ms", 1e-3)
        put("qbd.solve_r_ms." + cls, durs("qbd.solve_r." + cls), "ms", 1e-3)
        put("qbd.solve_r_iters." + cls,
            [ev["value"] for ev in by_name.get("qbd.solve_r." + cls, [])],
            "count")
        put("core.model_build_us." + cls, durs("core.model_build." + cls),
            "us")
    for cls in ("small", "large"):
        put("qbd.solution_ms." + cls, durs("qbd.solution." + cls), "ms", 1e-3)
        put("qbd.verify_ms." + cls, durs("qbd.verify." + cls), "ms", 1e-3)
    for kind in ("boundary", "facility"):
        put("qbd.ld_solution_ms." + kind, durs("qbd.ld_solution." + kind),
            "ms", 1e-3)
    put("map.facility_build_us", durs("map.facility_build"), "us")
    put("qbd.blocks_build_us", durs("qbd.blocks_build"), "us")
    cold = rec.get("cold_counts", {})
    if cold.get("solves"):
        out["qbd.fallbacks_per_solve"] = metric(
            cold["fallbacks"] / cold["solves"], "ratio", cold["solves"])
        out["qbd.healing_per_solve"] = metric(
            cold["healing"] / cold["solves"], "ratio", cold["solves"])

    for row in kernels:
        n, w = row["n"], row["width"]
        tag = "n%d.%s" % (n, "w1" if w == 1 else "wdefault")
        flops = 2.0 * n ** 3
        out["linalg.gemm_gflops." + tag] = metric(
            flops / (row["gemm_us"] * 1e3), "GFLOP/s", row["reps"])
        out["linalg.lu_ms." + tag] = metric(row["lu_us"] / 1e3, "ms",
                                            row["reps"])
    for n in KERNEL_SIZES:
        # Computed, not measured: flops over the bytes of the operands
        # and the result, each touched once.
        out["linalg.gemm_flops_per_byte.n%d" % n] = metric(
            2.0 * n ** 3 / (3 * 8 * n * n), "flop/B", 1)
        out["linalg.lu_flops_per_byte.n%d" % n] = metric(
            (2.0 / 3.0) * n ** 3 / (2 * 8 * n * n), "flop/B", 1)
        rows = {r["width"] == 1: r for r in kernels if r["n"] == n}
        if True in rows and False in rows:
            one, dflt = rows[True], rows[False]
            out["linalg.pool.speedup.n%d" % n] = metric(
                (one["gemm_us"] + one["lu_us"])
                / (dflt["gemm_us"] + dflt["lu_us"]), "ratio", 1)
    # Pool fan-outs per daemon request over the timed phase.
    s0, s1 = rec.get("scrape0", {}), rec.get("scrape", {})
    requests = s1.get("daemon_requests", 0) - s0.get("daemon_requests", 0)
    if requests > 0 and "linalg_pool_fanouts" in s1:
        out["linalg.pool.fanouts_per_op"] = metric(
            (s1["linalg_pool_fanouts"] - s0.get("linalg_pool_fanouts", 0))
            / requests, "ratio", int(requests))
    ov = rec.get("reference", {})
    if ov.get("overhead_untraced_us"):
        out["obs.trace_overhead_share"] = metric(
            ov["overhead_traced_us"] / ov["overhead_untraced_us"] - 1.0,
            "ratio", 1)
    return out


def traced(ctx, workload):
    """Traced run: the named workload for --seconds with spans, plus the
    passes that give the other layers' metrics."""
    rec = {}
    main_s = ctx.seconds
    side_s = max(1.0, 0.1 * ctx.seconds)
    tally = Tally()
    if workload == "solve-cold":
        t, _, crec = solve_cold(ctx, main_s)
    else:
        t, _, crec = solve_cold(ctx, side_s)
    tally.merge_counts(t)
    rec["cold_counts"] = {
        "solves": crec["cold"].get("solves", 0),
        "fallbacks": crec["cold"].get("fallbacks", 0),
        "healing": crec["cold"].get("healing", 0),
    }
    if workload == "serve-mixed":
        t, _, qrec = serve_mixed(ctx, main_s, with_companion=False)
    else:
        t, _, qrec = query_warm(ctx, main_s if workload == "query-warm"
                                else side_s, with_companion=False)
    tally.merge_counts(t)
    rec.update(qrec)
    kernels = [json.loads(x) for x in run_tool(
        ctx, ["kernels", ",".join(map(str, KERNEL_SIZES)), "9"], "kernels")]
    metrics = layer_metrics(ctx, rec, kernels)
    return tally, metrics, rec


# ------------------------------------------------------------------ main

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size-serve", action="store_true")
    args = ap.parse_args(argv)
    if not args.size_serve and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    for need in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, need)):
            sys.stderr.write("perfbench: run from a performa source tree "
                             "(%s is missing)\n" % need)
            return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for sub in ("tmp", "results", "traces"):
        os.makedirs(os.path.join(root, ".perfbench", sub), exist_ok=True)
    tool, performad, bdir = build(root)
    ctx = Ctx(root, args, tool, performad)
    try:
        if args.size_serve:
            size_serve(ctx)
            return 0
        prov = provenance(ctx, bdir)
        try:
            if args.trace:
                tally, metrics, rec = traced(ctx, args.workload)
            elif args.workload == "query-warm":
                tally, metrics, rec = query_warm(ctx, ctx.seconds)
            elif args.workload == "serve-mixed":
                tally, metrics, rec = serve_mixed(ctx, ctx.seconds)
            else:
                tally, metrics, rec = solve_cold(ctx, ctx.seconds)
        except RunInvalid as e:
            sys.stderr.write("perfbench: invalid run, not reported: %s\n" % e)
            return 3
        fail_share = bl.fail_share(tally.attempted, tally.failed)
        if not args.trace:
            metrics["ok_share"] = metric(1.0 - fail_share, "share",
                                         tally.attempted)
        rec.update({"workload": args.workload, "trace": args.trace,
                    "provenance": prov, "attempted": tally.attempted,
                    "failed": tally.failed, "mismatched": tally.mismatched,
                    "fail_share": fail_share,
                    "daemon_sigterm_hung": ctx.sigterm_hung,
                    "metrics": metrics})
        if len(tally.lat_ms) > 100:
            lat = sorted(tally.lat_ms)
            rec["latency_quantiles_ms"] = {
                "p%d" % q: bl.percentile(lat, q / 100.0, 0)
                for q in (10, 25, 50, 75, 90, 99)}
        for bulky in ("latencies", "serve_latencies", "reference"):
            rec.pop(bulky, None)
        tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        with open(os.path.join(root, ".perfbench", "results", tag + ".json"),
                  "w") as fh:
            json.dump(rec, fh, indent=1, sort_keys=True)
        if args.trace:
            events = list(ctx.spans.events)
            for path in ctx.tool_span_files:
                if os.path.exists(path):
                    with open(path) as fh:
                        for line in fh:
                            ev = json.loads(line)
                            events.append(bl.chrome_event(
                                ev["name"], ev["ts"], ev["dur"], ev["pid"],
                                ev["id"], ev["parent"], ev["rid"],
                                ev.get("value")))
            bl.write_trace(os.path.join(root, ".perfbench", "traces",
                                        tag + ".jsonl"), events)
        print("provenance " + json.dumps(prov, sort_keys=True))
        if args.trace:
            # Self time per layer: span time minus the children's.
            layers = {}
            for name, us in bl.self_times_us(events).items():
                layer = name.split(".", 1)[0]
                layers[layer] = layers.get(layer, 0.0) + us
            for layer in sorted(layers, key=layers.get, reverse=True):
                print("self_ms %-12s %12.3f" % (layer, layers[layer] / 1e3))
        print("fail_share %.6g (%d of %d failed, %d mismatched)"
              % (fail_share, tally.failed, tally.attempted, tally.mismatched))
        for name in sorted(metrics):
            m = metrics[name]
            print("%-44s %14.6g %-8s samples=%s"
                  % (name, m["value"], m["unit"], m.get("samples", "-")))
        result = {
            "correct": tally.mismatched == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in sorted(metrics.items())},
        }
        print(json.dumps(result, sort_keys=False))
        return 0
    finally:
        ctx.cleanup()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
