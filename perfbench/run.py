#!/usr/bin/env python3
"""misusedet benchmark: one paper-scale benchmark of the serving
stack and the offline training pipeline (see perfbench/README.md).

    python3 perfbench/run.py --workload replay_pipe|live_tcp|train_pipeline \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds the program with the
repository's own CMake into .bench_build/, generates every input from
--seed, runs the real binaries (misusedet_serve, misusedet_router) and the
real training entry point, checks their outputs, and prints as its last
stdout line one JSON object: {"correct", "attempted", "failed", "metrics"}.
Every workload reports the same metrics: with --trace 0 the end-to-end
metrics (END_TO_END), with --trace 1 the per-layer metrics
(TRAINING_LAYERS + SERVING_LAYERS). When an output check or the program under
test fails, it prints "correct": false with the operations attempted and
failed so far, and exits non-zero.
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

T_START = time.monotonic()     # set-up time counts from here, less the build
BUILD_SECONDS = 0.0            # set by main()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
REPO_BUILD = os.path.join(BUILD, "repo")
PROBE_BUILD = os.path.join(BUILD, "probe")
WORK = os.path.join(BUILD, "work")
SERVE = os.path.join(REPO_BUILD, "src", "serve", "misusedet_serve")
ROUTER = os.path.join(REPO_BUILD, "src", "router", "misusedet_router")
PROBE = os.path.join(PROBE_BUILD, "perfbench_probe")
NPROC = os.cpu_count() or 1

# Sizes of the generated inputs are the probe's (perfbench/probe/probe.hpp).
REFERENCE_SAMPLE = 40          # sessions recomputed with the reference LSTM
REFERENCE_TOLERANCE = 1e-6     # |served - reference| per likelihood

# live_tcp: open-loop arrivals at one fixed rate.
FIXED_RATE = 500.0             # events/s, well inside what router + 2 nodes sustain
ABORT_MS = 2000.0
PIPE_COMPARE_SESSIONS = 60
LIVE_CONCURRENCY = 1000        # sessions open at once in the live stream
LIVE_EVENT_GAP_S = 0.01        # event time between two events of the stream

# train_pipeline: the quality bounds of what it learns.
MIN_PURITY = 0.75
MIN_NMI = 0.75
MIN_RANDOM_AUC = 0.80

# What every workload reports. An operation is one replayed event
# (replay_pipe), one event sent (live_tcp) or one training round
# (train_pipeline); op_ms is what one operation costs its user.
END_TO_END = (("setup_s", "s"), ("op_ms", "ms"), ("peak_rss_mb", "MB"))
# The training of the workload's detector: set-up's for the serving
# workloads, the measured rounds' for train_pipeline.
TRAINING_LAYERS = (
    ("synth.corpus_s", "s"), ("topics.lda_s", "s"), ("cluster.expert_s", "s"),
    ("ocsvm.train_s", "s"), ("lm.train_s", "s"), ("lm.critical_cluster_s", "s"),
    ("tensor.gemm_gflops", "GFLOP/s"), ("util.train_pool_busy_frac", "ratio"))
# The scoring path on the workload's detector and held-out traffic.
SERVING_LAYERS = (
    ("serve.parse_us", "us"), ("serve.server_us", "us"), ("serve.render_us", "us"),
    ("core.observe_batch_us", "us"), ("nn.cluster_step_us", "us"),
    ("cluster.route_us", "us"), ("serve.session_kb", "KB"),
    ("trace.overhead_frac", "ratio"), ("core.observe_us", "us"), ("serve.wal_us", "us"))


class CheckFailed(Exception):
    pass


class Tally:
    """Operations attempted and failed so far in the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def setup_seconds():
    """Seconds since the process started, less the build."""
    return time.monotonic() - T_START - BUILD_SECONDS


def run(cmd, **kw):
    return subprocess.run(cmd, check=True, **kw)


def probe(*args):
    """Runs a probe subcommand; returns its last stdout line as JSON."""
    out = run([PROBE] + list(args), stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# Build


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit("perfbench: run from the root of a misusedet source checkout")
    quiet = {"stdout": subprocess.DEVNULL}
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(REPO_BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", ROOT, "-B", REPO_BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen, **quiet)
    run(["cmake", "--build", REPO_BUILD, "-j", str(NPROC), "--target",
         "misusedet_serve", "misusedet_router"], **quiet)
    if not os.path.isfile(os.path.join(PROBE_BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", os.path.join(ROOT, "perfbench", "probe"), "-B", PROBE_BUILD,
             "-DCMAKE_BUILD_TYPE=Release", "-DMISUSEDET_SOURCE_DIR=" + ROOT,
             "-DMISUSEDET_BUILD_DIR=" + REPO_BUILD] + gen, **quiet)
    run(["cmake", "--build", PROBE_BUILD, "-j", str(NPROC)], **quiet)


def pick(values, names):
    """{name: (value, unit)} for the named metrics of a probe result."""
    return {name: (values[name], unit) for name, unit in names}


def fresh_dir(name):
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# --------------------------------------------------------------------------
# Inputs


def setup_serving(seed, work):
    """Trains the paper-shape detector and draws the traffic pool."""
    info = probe("setup", "--seed=%d" % seed, "--dir=" + work)
    pool = []
    with open(os.path.join(work, "sessions.tsv")) as f:
        for line in f:
            user, sid, kind, actions = line.rstrip("\n").split("\t")
            pool.append((user, sid, kind, [int(a) for a in actions.split()]))
    with open(os.path.join(work, "vocab.txt")) as f:
        vocab = [line.rstrip("\n") for line in f]
    return info, pool, vocab


def read_trace(path):
    """The session key of every event of an NDJSON trace, in order."""
    with open(path) as f:
        return [checks.session_key(json.loads(line)) for line in f]


def expected_counts(keys):
    counts = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return counts


# --------------------------------------------------------------------------
# Processes


class Proc:
    """A started program whose stdout/stderr go to files in `work`."""

    def __init__(self, cmd, work, name, stdin=None):
        self.name = name
        self.out_path = os.path.join(work, name + ".out")
        self.err_path = os.path.join(work, name + ".err")
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.p = subprocess.Popen(cmd, stdin=stdin, stdout=out, stderr=err)
        self.rusage = None

    def port(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.err_path) as f:
                m = re.search(r"listening on port (\d+)", f.read())
            if m:
                return int(m.group(1))
            if self.p.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError("%s did not start listening" % self.name)

    def cpu_seconds(self):
        """utime + stime from /proc/<pid>/stat."""
        with open("/proc/%d/stat" % self.p.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        """VmHWM from /proc/<pid>/status."""
        with open("/proc/%d/status" % self.p.pid) as f:
            return int(re.search(r"^VmHWM:\s+(\d+)", f.read(), re.M).group(1)) / 1024.0

    def wait(self):
        """Waits for exit; keeps the child's resource usage (peak RSS)."""
        if self.p.returncode is None:
            _, status, self.rusage = os.wait4(self.p.pid, 0)
            self.p.returncode = os.waitstatus_to_exitcode(status)
        return self.p.returncode

    def stop(self):
        if self.p.returncode is None and self.p.poll() is None:
            self.p.send_signal(signal.SIGTERM)
        try:
            self.p.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.p.kill()
            self.p.wait()


class Procs:
    """Stops every started program, also when the run fails."""

    def __init__(self):
        self.all = []

    def start(self, *args, **kw):
        proc = Proc(*args, **kw)
        self.all.append(proc)
        return proc

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for proc in reversed(self.all):
            proc.stop()


def serve_pipe(trace, work, name, threads, extra=()):
    """One pipe-mode replay; returns (wall seconds, peak RSS MB, out path,
    exit code)."""
    with open(trace, "rb") as stdin:
        t0 = time.monotonic()
        proc = Proc([SERVE, "--model=" + os.path.join(work, "detector.bin"),
                     "--threads=%d" % threads] + list(extra), work, name, stdin=stdin)
        code = proc.wait()
        wall = time.monotonic() - t0
    return wall, proc.rusage.ru_maxrss / 1024.0, proc.out_path, code


def unanswered(expected, out_path):
    """Events of a replayed trace that got no step record in its output."""
    got = {}
    with open(out_path) as f:
        for line in f:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and record.get("type") == "step":
                key = checks.session_key(record)
                got[key] = got.get(key, 0) + 1
    return sum(max(0, n - got.get(key, 0)) for key, n in expected.items())


def read_records(path):
    with open(path) as f:
        records, failures = checks.parse_records(f)
    if failures:
        raise CheckFailed(failures[0])
    return records


def serving_layers(work, live_events):
    """The scoring path's layers on work/detector.bin: the pipe loop's on
    work/replay.ndjson, and one-at-a-time observe and the WAL's on the
    NDJSON events of `live_events`."""
    layers = probe("layers", "--dir=" + work)
    live = probe("live-layers", "--dir=" + work, "--in=" + live_events)
    layers.update((name, live[name]) for name in ("core.observe_us", "serve.wal_us"))
    return layers


# --------------------------------------------------------------------------
# replay_pipe


def reference_check(work, records, pool):
    """Recomputes the voted-cluster likelihoods of a sample of sessions with
    the reference LSTM forward and compares them with what was served."""
    actions = {(u, s): a for u, s, _, a in pool}
    steps = checks.group_steps(records)
    keys = sorted(steps, key=lambda k: int(k[1][1:]))[::max(1, len(steps) // REFERENCE_SAMPLE)]
    path = os.path.join(work, "reference.tsv")
    with open(path, "w") as f:
        for key in keys[:REFERENCE_SAMPLE]:
            st = steps[key]
            if len(st) != len(actions[key]):
                continue  # already a failed step-stream check
            f.write("%s\t%s\t%s\t%s\n" % (
                key[1], " ".join(map(str, actions[key])),
                " ".join(str(r["cluster"]) for r in st),
                " ".join("-" if r["likelihood"] is None else repr(r["likelihood"]) for r in st)))
    gap = probe("reference", "--dir=" + work, "--in=" + path)
    if not gap["max_abs_gap"] <= REFERENCE_TOLERANCE:
        raise CheckFailed("served likelihoods differ from the reference LSTM forward by %g"
                          % gap["max_abs_gap"])
    return gap


def workload_replay_pipe(seed, seconds, trace, tally):
    work = fresh_dir("replay_pipe")
    info, pool, _ = setup_serving(seed, work)
    trace_path = os.path.join(work, "replay.ndjson")
    events = read_trace(trace_path)
    expected = expected_counts(events)
    kinds = {(u, s): kind for u, s, kind, _ in pool}
    setup_s = setup_seconds()
    log("replay_pipe: k=%d, %d sessions, %d events (mean length %.1f, p98 %d, max %d), setup %.1fs"
        % (info["clusters"], info["sessions"], info["events"], info["mean_len"],
           info["p98_len"], info["max_len"], setup_s))

    # Whole replays until --seconds have passed; the traced run makes one,
    # which also writes out the program's own metrics.
    metrics_path = os.path.join(work, "serve_metrics.json")
    extra = ["--metrics-out=" + metrics_path] if trace else []
    first = {}  # the first replay's output bytes and its unanswered events

    def replay(name, threads, extra=()):
        """One whole replay of the trace, counted as len(events) operations,
        of which those without a step record failed."""
        wall, peak, out, code = serve_pipe(trace_path, work, name, threads, extra)
        with open(out, "rb") as f:
            body = f.read()
        if not first:
            first.update(body=body, missed=unanswered(expected, out))
        same = body == first["body"]
        tally.attempted += len(events)
        tally.failed += first["missed"] if same else unanswered(expected, out)
        if code != 0:
            raise RuntimeError("misusedet_serve exited with %d" % code)
        if not same:
            raise CheckFailed("replay %s printed other verdicts than the first" % name)
        return wall, peak

    walls, rss = [], []
    t_measure = time.monotonic()
    while not walls or (not trace and time.monotonic() - t_measure < seconds):
        wall, peak = replay("serve%d" % len(walls), NPROC, extra)
        walls.append(wall)
        rss.append(peak)
    records = read_records(os.path.join(work, "serve0.out"))
    failures, alarm_auc = checks.check_replay(expected, kinds, records)
    if failures:
        raise CheckFailed("; ".join(failures[:5]))
    gap = reference_check(work, records, pool)
    log("replay_pipe: %d rounds, wall %s s; alarm AUC %.3f; reference gap %.2g over %d steps"
        % (len(walls), ["%.2f" % w for w in walls], alarm_auc, gap["max_abs_gap"], gap["steps"]))

    if not trace:
        return {
            "setup_s": (setup_s, "s"),
            "op_ms": (1e3 * statistics.median(walls) / len(events), "ms"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }

    # Traced run: the pool's busy share in the full-width replay, from the
    # program's own counters (logged); then an untraced single-thread
    # replay, whose wall clock the layers should add up to, right before the
    # probe's layer timings, whose timed loop comes first (so that a drift
    # of the host's speed weighs on both alike).
    with open(metrics_path) as f:
        counters = json.load(f)["metrics"]["counters"]
    busy = sum(v for k, v in counters.items() if re.fullmatch(r"pool\.worker\d+\.busy_nanos", k))
    log("replay_pipe: worker pool busy %.3f of %d threads x wall"
        % (busy / (1e9 * walls[0] * NPROC), NPROC))
    wall_1t, _ = replay("serve_1t", 1)
    layers = serving_layers(work, trace_path)
    n = layers["events"]
    layer_sum = layers["load_s"] + n * 1e-6 * (
        layers["serve.parse_us"] + layers["serve.server_us"] + layers["core.observe_batch_us"]) \
        + layers["records"] * 1e-6 * layers["serve.render_us"]
    # Inside the probe's loop the layers add up to the loop's wall clock
    # by construction (serve.server_us is what enqueue + pump take beyond
    # the monitor and rendering), so this share tests only what lies
    # outside the loop: the process's stdin and stdout and its start and
    # exit, which no layer times. It is logged, not enforced.
    reconcile = layer_sum / wall_1t
    log("replay_pipe layers: sum %.2fs vs one-thread wall %.2fs: %+.1f%%; "
        "the per-event clocks cost %+.2f%%"
        % (layer_sum, wall_1t, 100 * (reconcile - 1), 100 * layers["trace.overhead_frac"]))
    if abs(reconcile - 1.0) > 0.10:
        log("replay_pipe: WARNING: the layers miss the one-thread wall clock by more than 10%")
    metrics = pick(info, TRAINING_LAYERS)
    metrics.update(pick(layers, SERVING_LAYERS))
    return metrics


# --------------------------------------------------------------------------
# live_tcp


class LiveTraffic:
    """Live traffic as one open-loop stream with a steady session mix.
    LIVE_CONCURRENCY sessions are open at a time; each next event belongs
    to one of them at random, and a session that has sent its last action
    is replaced by the next one of the pool, so sessions start and end
    throughout the run. Past the end of the pool it starts over under
    fresh session ids. Event time advances LIVE_EVENT_GAP_S per event; a
    run stays far inside the nodes' idle TTL, so every session stays open
    until the nodes shut down."""

    def __init__(self, pool, vocab, seed, work):
        self.pool = pool
        self.vocab = vocab
        self.rng = random.Random(seed)
        self.work = work
        self.next_session = 0
        self.active = [self._open() for _ in range(LIVE_CONCURRENCY)]
        self.stream = 0       # events generated
        self.generated = []   # (key, NDJSON line) of every generated event, in order
        self.counts = {}      # session key -> events sent
        self.sent = []        # (key, NDJSON line) of every sent event, in order

    def _open(self):
        n = self.next_session
        self.next_session += 1
        user, sid, _, actions = self.pool[n % len(self.pool)]
        cycle = n // len(self.pool)
        return [user, "%s%s" % ("c%d." % cycle if cycle else "", sid), actions, 0]

    def _generate(self):
        slot = self.rng.randrange(len(self.active))
        user, sid, actions, cursor = self.active[slot]
        line = json.dumps({"user_id": user, "session_id": sid,
                           "action": self.vocab[actions[cursor]],
                           "timestamp": round(LIVE_EVENT_GAP_S * self.stream, 6)},
                          separators=(",", ":"))
        self.stream += 1
        self.active[slot][3] += 1
        if self.active[slot][3] == len(actions):
            self.active[slot] = self._open()
        return (user, sid), line

    def write(self, events):
        """Writes the first `events` events as the generator's input file."""
        self.generated = [self._generate() for _ in range(int(events))]
        path = os.path.join(self.work, "events.tsv")
        counts = {}
        with open(path, "w") as f:
            for key, line in self.generated:
                counts[key] = counts.get(key, 0) + 1
                f.write("%d\t%s\n" % (counts[key], line))
        return path

    def commit(self, sent):
        """Records the first `sent` events written as sent."""
        for key, line in self.generated[:sent]:
            self.counts[key] = self.counts.get(key, 0) + 1
            self.sent.append((key, line))


def start_node(procs, work, name, trace):
    wal = os.path.join(work, name + "_wal")
    os.makedirs(wal)
    extra = ["--metrics-out=" + os.path.join(work, name + "_metrics.json")] if trace else []
    return procs.start([SERVE, "--model=" + os.path.join(work, "detector.bin"), "--listen=0",
                        "--io=epoll", "--wal-dir=" + wal] + extra, work, name)


def read_replies(path):
    replies = []
    with open(path) as f:
        for line in f:
            conn, body = line.rstrip("\n").split("\t", 1)
            replies.append((int(conn), json.loads(body)))
    return replies


def histogram_quantile(histograms, q):
    """Quantile of the sum of several exported metric histograms."""
    counts = {}
    for h in histograms:
        for b in h["buckets"]:
            le = float("inf") if b["le"] == "inf" else b["le"]
            counts[le] = counts.get(le, 0) + b["count"]
    total = sum(counts.values())
    rank, seen, lo = q * total, 0, 0.0
    for le in sorted(counts):
        if seen + counts[le] >= rank:
            if le == float("inf"):
                return lo
            return lo + (le - lo) * (rank - seen) / counts[le]
        seen += counts[le]
        lo = le
    return lo


def workload_live_tcp(seed, seconds, trace, tally):
    work = fresh_dir("live_tcp")
    info, pool, vocab = setup_serving(seed, work)
    conns = min(4, NPROC)
    traffic = LiveTraffic(pool, vocab, seed, work)
    with Procs() as procs:
        nodes = [start_node(procs, work, "node%d" % i, trace) for i in range(2)]
        spec = ",".join("127.0.0.1:%d" % n.port() for n in nodes)
        router = procs.start([ROUTER, "--nodes=" + spec, "--listen=0"], work, "router")
        port = router.port()
        setup_s = setup_seconds()
        log("live_tcp: k=%d, router + 2 nodes up, setup %.1fs" % (info["clusters"], setup_s))
        cpu0 = [p.cpu_seconds() for p in nodes + [router]]
        # One generator run. Each event sent is an operation; one that got
        # no verdict failed, and so did every event of a generator that
        # failed (the server closed a connection, say).
        path = traffic.write(FIXED_RATE * seconds)
        replies_path = path + ".replies"
        try:
            fixed = probe("load", "--in=" + path, "--port=%d" % port, "--rate=%r" % FIXED_RATE,
                          "--conns=%d" % conns, "--out=" + replies_path,
                          "--abort-ms=%r" % ABORT_MS)
        except subprocess.CalledProcessError:
            tally.attempted += int(FIXED_RATE * seconds)
            tally.failed += int(FIXED_RATE * seconds)
            raise
        tally.attempted += int(fixed["sent"])
        tally.failed += int(fixed["sent"] - fixed["answered"])
        traffic.commit(int(fixed["sent"]))
        cpu1 = [p.cpu_seconds() for p in nodes + [router]]
        peak_rss = sum(p.peak_rss_mb() for p in nodes + [router])
    log("live_tcp: %.0f events/s: p50 %.2f ms, p90 %.2f ms, p99 %.2f ms (worst window %.2f), "
        "generator late p99 %.2f ms; router + nodes peak RSS %.1f MB"
        % (FIXED_RATE, fixed["p50_ms"], fixed["p90_ms"], fixed["p99_ms"],
           fixed["worst_window_p99_ms"], fixed["late_p99_ms"], peak_rss))

    # Every verdict, every report, and the pipe path's verdicts for a sample.
    reports = [r for n in nodes for r in read_records(n.out_path)
               if r.get("type") == "session_report"]
    replies = read_replies(replies_path)
    conn_of = {key: session_conn(key, conns) for key in traffic.counts}
    sample = set(sorted(traffic.counts)[::max(1, len(traffic.counts) // PIPE_COMPARE_SESSIONS)])
    pipe_in = os.path.join(work, "pipe_sample.ndjson")
    with open(pipe_in, "w") as f:
        f.writelines(line + "\n" for key, line in traffic.sent if key in sample)
    _, _, pipe_out, code = serve_pipe(pipe_in, work, "pipe_sample", NPROC)
    if code != 0:
        raise RuntimeError("misusedet_serve exited with %d on the pipe sample" % code)
    pipe_steps = checks.group_steps(read_records(pipe_out))
    failures = checks.check_live(traffic.counts, conn_of, replies, reports, pipe_steps)
    if failures:
        raise CheckFailed("; ".join(failures[:5]))
    log("live_tcp: %d events, %d sessions checked, %d against the pipe path"
        % (tally.attempted, len(traffic.counts), len(pipe_steps)))
    if not trace:
        return {
            "setup_s": (setup_s, "s"),
            "op_ms": (fixed["p50_ms"], "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
        }

    # Traced run: the cluster's own figures (logged), then the layers.
    events = fixed["sent"]
    node_events = [sum(r["steps"] for r in read_records(n.out_path)
                       if r.get("type") == "session_report") for n in nodes]
    histograms = []
    for n in nodes:
        with open(os.path.join(work, n.name + "_metrics.json")) as f:
            histograms.append(json.load(f)["metrics"]["histograms"]["serve.step_seconds"])
    log("live_tcp: node step p50 %.1f us, p99 %.1f us; CPU per event %.1f us in the nodes, "
        "%.1f us in the router; hottest node %.3f x the mean share"
        % (1e6 * histogram_quantile(histograms, 0.50), 1e6 * histogram_quantile(histograms, 0.99),
           1e6 * (cpu1[0] - cpu0[0] + cpu1[1] - cpu0[1]) / events,
           1e6 * (cpu1[2] - cpu0[2]) / events,
           max(node_events) / statistics.mean(node_events)))
    fixed_events = os.path.join(work, "fixed.ndjson")
    with open(fixed_events, "w") as f:
        f.writelines(line + "\n" for _, line in traffic.sent)
    metrics = pick(info, TRAINING_LAYERS)
    metrics.update(pick(serving_layers(work, fixed_events), SERVING_LAYERS))
    return metrics


def session_conn(key, conns):
    """The generator's connection for a session: FNV-1a of the serve
    session key (user, 0x1f, session), as serve/event.cpp hashes it."""
    h = 0xcbf29ce484222325
    for b in (key[0] + "\x1f" + key[1]).encode():
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h % conns


# --------------------------------------------------------------------------
# train_pipeline


def workload_train_pipeline(seed, seconds, trace, tally):
    """Whole training rounds until --seconds have passed; each round is one
    operation. The traced run makes one, and keeps the retrained detector
    and its held-out traffic for the serving layers."""
    work = fresh_dir("train_pipeline")
    rounds = []
    setup_s = None
    t_measure = time.monotonic()
    while not rounds or (not trace and time.monotonic() - t_measure < seconds):
        tally.attempted += 1
        r = probe("train", "--seed=%d" % seed, *(["--dir=" + work] if trace else []))
        if setup_s is None:  # up to the start of the first training
            setup_s = r["train_start_s"] - T_START - BUILD_SECONDS
        failures = []
        if not (r["purity"] > MIN_PURITY and r["nmi"] > MIN_NMI):
            failures.append("clusters recover the archetypes with purity %.3f, NMI %.3f"
                            % (r["purity"], r["nmi"]))
        if not (r["valid_loss_finite"] == 1 and r["valid_loss"] < r["ln_vocab"]):
            failures.append("validation loss %r not below ln V = %.3f"
                            % (r["valid_loss"], r["ln_vocab"]))
        if not r["auc_normal_vs_random"] > MIN_RANDOM_AUC:
            failures.append("normal-over-random AUC %.3f not above %.2f"
                            % (r["auc_normal_vs_random"], MIN_RANDOM_AUC))
        if failures:
            raise CheckFailed("; ".join(failures))
        rounds.append(r)
        log("train_pipeline: k=%d, train %.2fs, purity %.3f, NMI %.3f, validation loss %.3f "
            "(worst cluster %.3f, ln V %.3f), AUC %.3f"
            % (r["clusters"], r["train_s"], r["purity"], r["nmi"], r["valid_loss"],
               r["worst_valid_loss"], r["ln_vocab"], r["auc_normal_vs_random"]))

    def med(name):
        return statistics.median(r[name] for r in rounds)
    if not trace:
        return {
            "setup_s": (setup_s, "s"),
            "op_ms": (1e3 * med("train_s"), "ms"),
            "peak_rss_mb": (med("train_peak_rss_mb"), "MB"),
        }
    metrics = pick(rounds[0], TRAINING_LAYERS)
    trace_path = os.path.join(work, "replay.ndjson")
    metrics.update(pick(serving_layers(work, trace_path), SERVING_LAYERS))
    return metrics


WORKLOADS = {
    "replay_pipe": workload_replay_pipe,
    "live_tcp": workload_live_tcp,
    "train_pipeline": workload_train_pipeline,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    global BUILD_SECONDS
    build_start = time.monotonic()
    build()
    BUILD_SECONDS = time.monotonic() - build_start
    tally = Tally()
    try:
        metrics = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), tally)
    except CheckFailed as e:
        log("perfbench: output check failed: %s" % e)
        correct = False
    except Exception:  # the program under test, or a probe, failed
        log("perfbench: the run failed:\n" + traceback.format_exc())
        tally.failed = max(tally.failed, 1)
        correct = False
    else:
        correct = True
        wanted = TRAINING_LAYERS + SERVING_LAYERS if args.trace else END_TO_END
        if sorted((name, unit) for name, (_, unit) in metrics.items()) != sorted(wanted):
            raise AssertionError("%s reported %s, not %s"
                                 % (args.workload, sorted(metrics), sorted(wanted)))
    print(json.dumps({
        "correct": correct, "attempted": max(tally.attempted, tally.failed, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())} if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
