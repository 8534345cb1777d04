#!/usr/bin/env python3
"""End-to-end benchmark of the shipped hkpr server over loopback TCP.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the library,
the example server and perfbench_tool with CMake into .bench_build/ (or
$CARGO_TARGET_DIR). Each run writes the workload's graph, draws its request
stream (fixed keys; arrival times and connections from --seed), starts
example_hkpr_server with its default flags plus --listen=0 and
--graph=FILE (and --backend=auto for auto-swap), and drives it with a
Poisson open loop from one process (perfbench_tool drive). Latency runs from
each request's intended send time to the last byte of its response.

--trace 0 prints the end-to-end metrics and --trace 1 the per-layer ones,
with the names and units BENCHMARK.json declares. The per-layer metrics
come from the server's own counters (stats --json, the backend= and
cache= fields of each response) and from in-process timings of public
functions taken after the server has exited (perfbench_tool layers). Every
run checks every answer and exits non-zero on a wrong one. The last line of
standard output is the JSON result. METRICS.md describes the workloads and
metrics.
"""

import argparse
import bisect
import json
import math
import os
import random
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time

# The server's plan defaults (examples/hkpr_server.cpp): t=5, eps_r=0.5,
# delta=1/n of the first graph, p_f=1e-6, a 4096-entry cache, engine seed 42.
SERVER_T = 5.0
SERVER_EPS_R = 0.5
SERVER_P_F = 1e-6
SERVER_CACHE = 4096
SERVER_SEED = 42
TOP_K = 10

# Share of --seconds each phase takes. The ladder is bisected, so
# LADDER_PROBES rungs run.
WARM_FRAC = 0.1
LO_FRAC = 0.3
HI_FRAC = 0.3
RUNG_FRAC = 0.08
LADDER_PROBES = 5
# lo and hi run as ROUNDS rounds of one lo block and one hi block, with one
# ladder probe between consecutive rounds. The blocks of each rate then
# spread over the whole run, so a stretch of machine noise shorter than the
# run moves only part of each rate's samples.
ROUNDS = LADDER_PROBES + 1
KEEP_UP = 0.9  # a rung keeps up when achieved >= KEEP_UP * offered
# Untraced runs start a side server, a fresh one beside the idle measured
# server, before each lo and hi block and after the last: one set-up sample
# each, then SIDE_SWAPS graph loads on it. setup_s, rss_mb and swap_ms are
# medians over all of them, so their samples spread over the whole run.
# Loads on the measured server right after its rounds first free what the
# rounds left (up to 1.4 GB on cold-medium) and ran up to twice as slow,
# for a number of swaps that varied from run to run.
SIDE_SERVERS = 2 * ROUNDS + 1
SIDE_SWAPS = 2
# The R-MAT preset seed the repository's benches use: every run serves the
# same graph, so run-to-run spread measures the server, not the graph.
GRAPH_SEED = 42
FAILED_MS = 1e6  # latency reported for a percentile that lands on a failure
# Requests per percentile window when a ladder rung is judged: ten beyond
# its p99.
RUNG_WINDOW = 1000

# Offered rates (requests/s), p99 limits and ladders are constants: nothing
# here depends on the code under test. hi is at most about half of each
# workload's capacity on a quiet 4-core host, so that a host slowed 1.5x by
# its neighbours still keeps up with it. On auto-swap a fourth connection
# reloads the graph about every swap_every_s seconds of warm-up, lo and hi.
# That keeps the hit ratio between 0.2 and 0.32, so the median request is a
# routed miss: with a swap every 3.6 s the ratio sat near 0.45 and the
# median jumped between cache hits and misses from run to run.
WORKLOADS = {
    "hot-small": dict(
        graph="small", backend=None, conns=4, keys="zipf", zipf_s=1.0,
        warm=8000.0, lo=1000.0, hi=2000.0, ladder_step=1.07, p99_limit_ms=25.0,
        swap_every_s=None, check_seeds=48, replay_seeds=400),
    "cold-medium": dict(
        graph="medium", backend=None, conns=4, keys="distinct",
        warm=60.0, lo=50.0, hi=100.0, ladder_step=1.05, p99_limit_ms=500.0,
        swap_every_s=None, check_seeds=24, replay_seeds=150),
    "auto-swap": dict(
        graph="small", backend="auto", conns=3, keys="zipf", zipf_s=1.0,
        warm=100.0, lo=50.0, hi=100.0, ladder_step=1.07, p99_limit_ms=300.0,
        swap_every_s=1.0, check_seeds=48, replay_seeds=400),
}

# For each per-layer metric: the end-to-end metrics and workloads it should
# move. "latency" is the lo and hi p50, p90 and p99 and "max_qps" the
# ladder's result: every run prints them, but no bound gates them, because
# on a shared host they follow the neighbours (METRICS.md).
LAYER_TAGS = {
    "net.self_ms": "cpu_ms_per_q and latency @hot-small; within noise @auto-swap; none @cold-medium",
    "net.cmd_us": "cpu_ms_per_q and latency @hot-small; within noise @auto-swap; none @cold-medium",
    "net.resp_bytes": "cpu_ms_per_q and latency @hot-small; within noise @auto-swap; none @cold-medium",
    "service.queue_ms": "latency and max_qps @all",
    "service.cache_ms": "latency @auto-swap @hot-small",
    "service.compute_ms": "cpu_ms_per_q and latency @cold-medium @auto-swap",
    "service.other_ms": "latency @auto-swap @hot-small",
    "service.stolen": "latency tail and max_qps @all",
    "service.rejected": "ok_frac @all",
    "service.hit_ratio": "cpu_ms_per_q, latency and max_qps @auto-swap @hot-small",
    "service.coalesced": "cpu_ms_per_q and latency tail @auto-swap @hot-small",
    "service.lookup_us": "latency @hot-small; within noise @auto-swap",
    "service.publish_ms": "swap_ms setup_s @all; latency tail @auto-swap",
    "graph.load_ms": "swap_ms setup_s @all; latency tail @auto-swap",
    "hkpr.route_us": "cpu_ms_per_q and latency @auto-swap",
    "hkpr.hk_relax_frac": "cpu_ms_per_q, latency and max_qps @auto-swap",
    "baselines.hk_relax_ms": "cpu_ms_per_q, latency and max_qps @auto-swap",
    "hkpr.query_ms": "cpu_ms_per_q, latency and max_qps @cold-medium",
    "hkpr.push_ms": "cpu_ms_per_q, latency and max_qps @cold-medium",
    "hkpr.reduce_ms": "cpu_ms_per_q and latency tail @cold-medium",
    "hkpr.alias_ms": "cpu_ms_per_q and latency tail @cold-medium",
    "hkpr.walk_ms": "cpu_ms_per_q and latency tail @cold-medium",
    "hkpr.topk_ms": "cpu_ms_per_q and latency @cold-medium",
    "hkpr.early_exit_frac": "cpu_ms_per_q and latency tail @cold-medium",
    "hkpr.push_ops": "cpu_ms_per_q, latency and max_qps @cold-medium",
    "hkpr.walk_steps": "cpu_ms_per_q and latency tail @cold-medium",
    "gen.late_p99_ms": "none: large means the run measured the client",
    "traced.lo.p50_ms": "latency as the traced run sees it (METRICS.md)",
    "traced.lo.p90_ms": "latency as the traced run sees it (METRICS.md)",
    "traced.lo.p99_ms": "latency as the traced run sees it (METRICS.md)",
    "traced.hi.p50_ms": "latency as the traced run sees it (METRICS.md)",
    "traced.hi.p90_ms": "latency as the traced run sees it (METRICS.md)",
    "traced.hi.p99_ms": "latency as the traced run sees it (METRICS.md)",
}


def declared_metrics(root):
    """{trace: {metric name: unit}} as BENCHMARK.json declares them: the
    end-to-end metrics for --trace 0, the per-layer ones for --trace 1."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def log(*parts):
    print(*parts, flush=True)


class BenchError(Exception):
    """The benchmark cannot produce a result (build, start-up, protocol)."""


# ---------------------------------------------------------------- stats --

def percentile(sorted_values, q):
    """Nearest-rank percentile: the smallest sample with at least q of the
    samples at or below it. Exact (always a real sample); inf stands for a
    failed request, which misses every limit."""
    if not sorted_values:
        return math.inf
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def windowed(latencies_ms, q, window):
    """Median, over consecutive windows of `window` requests in send order,
    of each window's percentile q; a phase shorter than two windows is one
    window. A burst of host noise that covers less than half the windows
    then leaves the figure alone, where it would move a pooled percentile."""
    count = max(1, len(latencies_ms) // window)
    size = len(latencies_ms) / count
    return statistics.median(
        percentile(sorted(latencies_ms[round(i * size):round((i + 1) * size)]), q)
        for i in range(count))


def reportable(ms):
    return FAILED_MS if math.isinf(ms) else ms


def rung_passes(latencies_ms, failures, offered_qps, achieved_qps, limit_ms):
    """A rate meets the limit when nothing failed, the p99 is within the
    limit and the server kept up with the offered rate."""
    return (failures == 0 and windowed(latencies_ms, 0.99, RUNG_WINDOW) <= limit_ms
            and achieved_qps >= KEEP_UP * offered_qps)


class LadderSearch:
    """Bisection for the highest passing rung of an ascending ladder, one
    probe at a time so that the probes can spread through a run. `passing`
    is the highest rung known to pass (-1: none yet) and `achieved` its
    achieved rate; `failing` is the lowest known to fail. Assumes a rung
    below a passing one passes; takes ceil(log2(num_rungs + 1)) probes."""

    def __init__(self, num_rungs):
        self.passing, self.failing, self.achieved = -1, num_rungs, None

    def done(self):
        return self.failing - self.passing <= 1

    def next_rung(self):
        return (self.passing + self.failing) // 2

    def record(self, passed, achieved_qps):
        if passed:
            self.passing, self.achieved = self.next_rung(), achieved_qps
        else:
            self.failing = self.next_rung()


def phase_size(rate, duration):
    """Requests in a phase: its arrival times are this many uniform draws,
    a Poisson process conditioned on the count."""
    return max(1, round(rate * duration))


def ladder_rates(hi_qps, step):
    """The fixed rungs above hi: a geometric ladder of 2^LADDER_PROBES - 1."""
    return [hi_qps * step ** k for k in range(1, 2 ** LADDER_PROBES)]


def selftest():
    """Checks of the percentile, rung and ladder logic on synthetic data."""
    samples = [float(v) for v in range(1, 1001)]
    assert percentile(samples, 0.5) == 500.0
    assert percentile(samples, 0.99) == 990.0
    assert percentile(samples, 1.0) == 1000.0
    assert percentile([7.0], 0.99) == 7.0
    with_failures = sorted(samples[:985] + [math.inf] * 15)
    assert math.isinf(percentile(with_failures, 0.99))
    assert percentile(with_failures, 0.5) == 500.0
    noisy = samples * 4 + [v * 100 for v in samples]
    assert windowed(noisy, 0.99, 1000) == 990.0 and windowed(noisy, 0.5, 1000) == 500.0
    assert windowed(samples[:1999], 0.99, 1000) == percentile(samples[:1999], 0.99)
    assert math.isinf(windowed(with_failures, 0.99, 1000))
    ramp = [float(v % 100) for v in range(1000)]  # ten windows of 0..99
    assert windowed(ramp, 0.9, 100) == 89.0
    assert windowed([float(v) for v in range(150)], 0.9, 100) == 134.0  # one window
    assert rung_passes(samples, 0, 1000.0, 950.0, 990.0)
    assert not rung_passes(samples, 0, 1000.0, 950.0, 989.0)
    assert not rung_passes(samples, 1, 1000.0, 950.0, 990.0)
    assert not rung_passes(samples, 0, 1000.0, 899.0, 990.0)
    rates = ladder_rates(1000.0, 1.05)
    assert len(rates) == 31 and rates[0] == 1050.0

    def capacity(limit):
        search, probed = LadderSearch(len(rates)), []
        while not search.done():
            i = search.next_rung()
            probed.append(i)
            search.record(rates[i] <= limit, rates[i] * 0.99)
        return (search.passing, search.achieved), probed
    (index, achieved), probed = capacity(2000.0)
    assert rates[index] <= 2000.0 < rates[index + 1], index
    assert achieved == rates[index] * 0.99 and len(probed) == LADDER_PROBES
    assert capacity(1e9)[0] == (len(rates) - 1, rates[-1] * 0.99)
    assert capacity(0.0)[0] == (-1, None)


# ---------------------------------------------------------------- build --

def build(root):
    """Configures and builds perfbench/ into the build directory; returns
    (server binary, tool binary)."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))
            and os.path.isfile(os.path.join(root, "examples", "hkpr_server.cpp"))):
        raise BenchError("run from the root of an hkpr source checkout")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=850)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(build_dir, "hkpr", "example_hkpr_server"),
            os.path.join(build_dir, "perfbench_tool"), build_dir)


def run_tool(tool, args, timeout=170):
    done = subprocess.run([tool] + [str(a) for a in args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    out = done.stdout.strip().splitlines()
    result = json.loads(out[-1]) if out and out[-1].startswith("{") else None
    return done.returncode, result, done.stderr


# ------------------------------------------------------------- platform --

def cache_sizes():
    """L2 and L3 sizes of cpu0, as the kernel reports them."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            path = os.path.join(base, entry)
            if not entry.startswith("index"):
                continue
            with open(os.path.join(path, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(path, "size")) as f:
                size = f.read().strip()
            if level in ("2", "3"):
                sizes["L" + level] = size
    except OSError:
        pass
    return sizes


def cpu_seconds(pid):
    """utime + stime of every thread of `pid`."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def memory_mb(pid, field):
    """A memory field of /proc/<pid>/status (VmRSS, VmHWM), MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no {field} for the server")


def steal_share():
    """(steal, total) CPU time of the machine so far, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    return fields[7], sum(fields)


# --------------------------------------------------------------- server --

class Server:
    """One example_hkpr_server process serving over --listen=0."""

    def __init__(self, binary, graph_path, backend):
        args = [binary, "--listen=0", "--graph=" + graph_path]
        if backend:
            args.append("--backend=" + backend)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(args, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.sock = None
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            self.banner = self.proc.stdout.readline().strip() if ready else ""
            fields = dict(t.split("=", 1) for t in self.banner.split() if "=" in t)
            if not self.banner.startswith("ok hkpr_server") or "listen" not in fields:
                raise BenchError("server did not start: " + repr(self.banner))
            self.port = int(fields["listen"])
            self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=30)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.reader = self.sock.makefile("r")
        except Exception:
            self.stop()
            raise

    def request(self, line):
        self.sock.sendall((line + "\n").encode())
        response = self.reader.readline().strip()
        if not response:
            raise BenchError("server closed the control connection")
        return response

    def stats(self):
        response = self.request("stats --json")
        if not response.startswith("ok {"):
            raise BenchError("bad stats reply: " + response[:200])
        return json.loads(response[3:])

    def wait_idle(self, timeout_s=10.0):
        """Waits until the completed-query counter stops moving: a backlog
        left by an overloaded rung must not leak into the next phase."""
        deadline = time.monotonic() + timeout_s
        last = None
        while time.monotonic() < deadline:
            snap = self.stats()
            now = (snap["completed"], snap["queue_depth"])
            if now == last and now[1] == 0:
                return
            last = now
            time.sleep(0.1)

    def stop(self):
        try:
            if self.sock is not None:
                self.sock.close()
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except (OSError, ValueError):
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ------------------------------------------------------------- workload --

class Keys:
    """The request keys of a workload, the same in every run: a permutation
    of all nodes drawn with a fixed seed, and per phase a fixed key
    sequence. zipf: rank r of the permutation has weight 1/r^s and each
    phase draws its sequence with its own fixed generator. distinct: every
    phase owns a slice of the permutation, so no key repeats within a run.
    --seed draws only arrival times and connections (see METRICS.md)."""

    def __init__(self, spec, num_nodes, phase_sizes):
        self.kind = spec["keys"]
        self.order = list(range(num_nodes))
        random.Random("keys").shuffle(self.order)
        if self.kind == "zipf":
            self.cum, total = [], 0.0
            for rank in range(1, num_nodes + 1):
                total += 1.0 / rank ** spec["zipf_s"]
                self.cum.append(total)
            return
        self.slices, offset = {}, 0
        for name, count in phase_sizes:
            self.slices[name] = self.order[offset:offset + count]
            offset += count
        if offset > num_nodes:
            raise BenchError("workload needs more distinct keys than nodes")

    def readiness_seed(self, i):
        """The key of the i-th server start's readiness query, outside every
        measured stream."""
        if self.kind == "zipf":
            return self.order[-1]  # the least popular rank
        return self.slices["ready"][i]

    def take(self, phase_name, count):
        if self.kind == "distinct":
            return self.slices[phase_name]
        rng, top = random.Random(f"keys/{phase_name}"), self.cum[-1]
        return [self.order[bisect.bisect_left(self.cum, rng.random() * top)]
                for _ in range(count)]


class Phase:
    """One open-loop stretch at a fixed offered rate and its outcome. Every
    request and swap is a record (dict: seed, intended, sent, done,
    response, failed, and fields and entries once parsed); `failed` marks an
    err line, a drop, a timeout or a wrong answer."""

    @staticmethod
    def merge(name, parts):
        """The blocks of one offered rate, in send order, as one phase."""
        merged = Phase(name, parts[0].rate, sum(p.duration for p in parts))
        for p in parts:
            for attr in ("queries", "swaps", "wrong"):
                getattr(merged, attr).extend(getattr(p, attr))
        merged.achieved = sum(p.achieved * p.duration for p in parts) / merged.duration
        return merged

    def __init__(self, name, rate, duration):
        self.name, self.rate, self.duration = name, rate, duration
        self.queries = []
        self.swaps = []
        self.wrong = []  # what made the run incorrect, for the log
        self.achieved = 0.0

    @property
    def ok(self):
        return [q for q in self.queries if not q["failed"]]

    @property
    def failures(self):
        return sum(1 for q in self.queries if q["failed"])

    @property
    def latencies(self):
        """Per request in send order, ms; a failed request is infinitely late."""
        return [math.inf if q["failed"] else (q["done"] - q["intended"]) / 1e6
                for q in self.queries]

    def percentile(self, q):
        """Exact percentile q of every request's latency, ms."""
        return reportable(percentile(sorted(self.latencies), q))


def parse_topk(response):
    """Fields and entries of an "ok graph=... seed=... k=N cache=..." line."""
    tokens = response.split()
    if not tokens or tokens[0] != "ok":
        return None
    fields, entries = {}, []
    for token in tokens[1:]:
        if "=" in token:
            key, value = token.split("=", 1)
            fields[key] = value
        else:
            node, score = token.split(":", 1)
            entries.append((int(node), float(score)))
    return fields, entries


class Run:
    def __init__(self, args, spec, server_bin, tool, work):
        self.args, self.spec = args, spec
        self.server_bin, self.tool, self.work = server_bin, tool, work
        self.conns = max(1, min(spec["conns"], os.cpu_count() or 1))
        self.control_conn = self.conns if spec["swap_every_s"] else None
        self.version = None
        self.server = None
        self.setups, self.loaded_mb = [], []  # per server start
        self.side_swaps, self.side_wrong = [], []
        self.started = time.perf_counter()
        self.steal = steal_share()

    def rng(self, purpose):
        return random.Random(f"{self.args.workload}/{self.args.seed}/{purpose}")

    def schedule(self, phase, swaps):
        rng = self.rng(phase.name)
        count = phase_size(phase.rate, phase.duration)
        times = sorted(rng.random() * phase.duration for _ in range(count))
        seeds = self.keys.take(phase.name, count)
        lines = [(t, rng.randrange(self.conns), f"topk {s} {TOP_K}", s)
                 for t, s in zip(times, seeds)]
        if swaps and self.control_conn is not None:
            count = max(1, round(phase.duration / self.spec["swap_every_s"]))
            lines += [((k + 0.5) * phase.duration / count, self.control_conn,
                       f"graph load default {self.graph_path}", None) for k in range(count)]
            lines.sort(key=lambda item: item[0])
        return lines

    def drive(self, name, rate, duration, drain_s=5.0, swaps=True):
        """Runs one open-loop phase and checks every response. On a workload
        with swaps, `swaps` spreads graph loads on the control connection
        evenly through the phase."""
        phase = Phase(name, rate, duration)
        lines = self.schedule(phase, swaps)
        sched = os.path.join(self.work, name + ".sched")
        out = os.path.join(self.work, name + ".out")
        with open(sched, "w") as f:
            for t, conn, line, _ in lines:
                f.write(f"{int(t * 1e6)} {conn} {line}\n")
        code, _, err = run_tool(self.tool, ["drive", self.server.port, sched, out,
                                            drain_s], timeout=duration + drain_s + 60)
        if code != 0:
            raise BenchError("drive failed: " + err.strip()[-500:])
        with open(out) as f:
            rows = f.read().split("\n")
        for (t, conn, line, seed), row in zip(lines, rows):
            sent, done, response = (row.split(" ", 2) + [""])[:3]
            record = dict(seed=seed, intended=int(t * 1e6) * 1000, sent=int(sent),
                          done=int(done), response=response, failed=True)
            (phase.queries if seed is not None else phase.swaps).append(record)
        self.check_phase(phase)
        return phase

    def check_phase(self, phase):
        """Checks every response against its request; a record stays failed
        unless it passes."""
        v_start = self.version
        swap_windows = []
        for i, swap in enumerate(phase.swaps):
            fields = parse_topk(swap["response"]) if swap["done"] >= 0 else None
            expected = str(v_start + i + 1)
            if fields is None or fields[0].get("version") != expected:
                phase.wrong.append(f"swap {i}: {swap['response'][:120]!r}")
                continue
            swap["failed"] = False
            swap_windows.append((swap["sent"], swap["done"]))
        self.version = v_start + len(phase.swaps)
        last_done = 0
        for q in phase.queries:
            if q["done"] < 0 or not q["response"].startswith("ok"):
                continue  # err line, drop or timeout: a failure, not a wrong answer
            parsed = parse_topk(q["response"])
            problem = None
            fields, entries = parsed if parsed else ({}, [])
            low = v_start + sum(1 for _, done in swap_windows if done < q["sent"])
            high = v_start + sum(1 for sent, _ in swap_windows if sent < q["done"])
            if parsed is None:
                problem = "unparsable"
            elif fields.get("seed") != str(q["seed"]) or fields.get("graph") != "default":
                problem = "seed or graph mismatch"
            elif not low <= int(fields.get("version", -1)) <= high:
                problem = f"version outside [{low}, {high}]"
            elif (int(fields.get("k", -1)) != len(entries) or not 1 <= len(entries) <= TOP_K
                  or any(a[1] < b[1] for a, b in zip(entries, entries[1:]))
                  or fields.get("cache") not in ("hit", "miss")):
                problem = "malformed top-k"
            if problem:
                phase.wrong.append(f"{problem}: {q['response'][:120]!r}")
                continue
            q.update(fields=fields, entries=entries, failed=False)
            last_done = max(last_done, q["done"])
        span_s = max(phase.duration, last_done / 1e9)
        phase.achieved = len(phase.ok) / span_s

    def ladder(self):
        return ladder_rates(self.spec["hi"], self.spec["ladder_step"])

    def passes(self, phase):
        return rung_passes(phase.latencies, phase.failures, phase.rate,
                           phase.achieved, self.spec["p99_limit_ms"])

    def start_server(self):
        """Starts a server and records its set-up time and its VmRSS right
        after the readiness query; returns (server, its graph version)."""
        server = Server(self.server_bin, self.graph_path, self.spec["backend"])
        try:
            seed = self.keys.readiness_seed(len(self.setups))
            ready = server.request(f"topk {seed} {TOP_K}")
            setup_s = time.perf_counter() - server.started
            parsed = parse_topk(ready)
            if parsed is None:
                raise BenchError("readiness query failed: " + ready[:200])
            self.setups.append(setup_s)
            self.loaded_mb.append(memory_mb(server.proc.pid, "VmRSS"))
        except Exception:
            server.stop()
            raise
        return server, int(parsed[0]["version"])

    def side_server(self):
        """One side server, started while the measured server is idle: a
        set-up sample, then SIDE_SWAPS graph loads of the workload's file,
        each timed from send to reply; stops it. Traced runs start none."""
        if self.args.trace:
            return
        server, version = self.start_server()
        try:
            for _ in range(SIDE_SWAPS):
                start = time.perf_counter()
                reply = server.request(f"graph load default {self.graph_path}")
                done = time.perf_counter()
                version += 1
                fields = parse_topk(reply)
                failed = fields is None or fields[0].get("version") != str(version)
                if failed:
                    self.side_wrong.append("side swap: " + reply[:120])
                self.side_swaps.append(dict(ms=(done - start) * 1e3, failed=failed))
        finally:
            server.stop()

    def describe(self, phase):
        lat = phase.latencies
        pooled = sorted(lat)
        ok = phase.ok
        hits = sum(1 for q in ok if q["fields"]["cache"] == "hit")
        log(f"# {phase.name}: offered={phase.rate:.1f}/s achieved={phase.achieved:.1f}/s "
            f"n={len(lat)} failed={phase.failures} "
            f"hit={hits / max(1, len(ok)):.3f} "
            f"p50={reportable(percentile(pooled, 0.5)):.3f}ms "
            f"p90={reportable(percentile(pooled, 0.9)):.3f}ms "
            f"p99={reportable(percentile(pooled, 0.99)):.3f}ms "
            f"max={reportable(pooled[-1] if pooled else math.inf):.3f}ms "
            f"swaps={len(phase.swaps)}")

    def execute(self):
        a, spec = self.args, self.spec
        self.graph_path = os.path.join(self.work, "graph.txt")
        code, info, err = run_tool(self.tool, ["gen", spec["graph"], GRAPH_SEED,
                                               self.graph_path])
        if code != 0:
            raise BenchError("gen failed: " + err)
        S = a.seconds
        block_s = {"lo": LO_FRAC * S / ROUNDS, "hi": HI_FRAC * S / ROUNDS}
        phase_sizes = [("ready", 1 + SIDE_SERVERS),
                       ("warm", phase_size(spec["warm"], WARM_FRAC * S))]
        phase_sizes += [(f"{name}{r}", phase_size(spec[name], block_s[name]))
                        for r in range(ROUNDS) for name in ("lo", "hi")]
        phase_sizes += [(f"rung{i}", phase_size(rate, RUNG_FRAC * S))
                        for i, rate in enumerate(self.ladder())]
        self.keys = Keys(spec, info["nodes"], phase_sizes)
        delta = 1.0 / info["nodes"]

        self.server, self.version = self.start_server()
        server = self.server
        env = dict(nproc=os.cpu_count(), **cache_sizes(), seed=a.seed,
                   workload=a.workload, graph=f"rmat-{spec['graph']}", graph_seed=GRAPH_SEED,
                   nodes=info["nodes"], edges=info["edges"], csr_bytes=info["csr_bytes"],
                   connections=self.conns, banner=server.banner)
        log("# env " + json.dumps(env))
        self.log_elapsed("set-up")

        self.drive("warm", spec["warm"], WARM_FRAC * S)
        server.wait_idle()
        before = server.stats()
        blocks = {"lo": [], "hi": []}
        cpu_hi = 0.0
        rates = self.ladder()
        search = None if a.trace else LadderSearch(len(rates))
        rungs = []
        for r in range(ROUNDS):
            if search is not None and not search.done() and r > 0:
                rungs.append(self.probe(search, rates, RUNG_FRAC * S))
            self.side_server()
            blocks["lo"].append(self.drive(f"lo{r}", spec["lo"], block_s["lo"]))
            self.side_server()
            cpu_start = cpu_seconds(server.proc.pid)
            blocks["hi"].append(self.drive(f"hi{r}", spec["hi"], block_s["hi"]))
            cpu_hi += cpu_seconds(server.proc.pid) - cpu_start
        server.wait_idle()
        after = server.stats()
        self.side_server()
        served_mb = memory_mb(server.proc.pid, "VmRSS")
        lo, hi = Phase.merge("lo", blocks["lo"]), Phase.merge("hi", blocks["hi"])
        phases = [lo, hi]
        for phase in phases:
            self.describe(phase)
        self.log_elapsed("lo, hi and ladder")

        max_qps = None if a.trace else self.max_qps(search, rates, lo, hi)
        swaps = [s for p in phases for s in p.swaps]
        if swaps:
            log(f"# swaps under load: {len(swaps)}, round trips "
                f"{['%.1f' % ((s['done'] - s['sent']) / 1e6) for s in swaps if not s['failed']]} ms")
        swap_rtts = [s["ms"] for s in self.side_swaps if not s["failed"]]
        if swap_rtts:
            log(f"# side-server swaps: round trips {['%.1f' % ms for ms in swap_rtts]} ms")
        swaps += self.side_swaps
        log(f"# memory: VmRSS after set-up {['%.1f' % m for m in self.loaded_mb]} MiB, "
            f"after the last round {served_mb:.1f} MiB, VmHWM "
            f"{memory_mb(server.proc.pid, 'VmHWM'):.1f} MiB")
        server.stop()
        self.server = None

        check = self.check_answers(phases, delta)
        wrong = [w for p in phases + rungs for w in p.wrong] + self.side_wrong
        for w in wrong[:10]:
            log("# WRONG " + w)
        attempted = sum(len(p.queries) for p in phases) + len(swaps)
        failed = sum(p.failures for p in phases) + sum(1 for s in swaps if s["failed"])
        correct = not wrong and check["violations"] == 0
        log(f"# check: seeds={check['seeds']} entries={check['entries']} "
            f"mean_ratio={check['mean_ratio']:.4g} max_ratio={check['max_ratio']:.4g} "
            f"violations={check['violations']} violating_seeds={check['violating_seeds']}")
        self.log_elapsed("check")

        if a.trace:
            metrics = self.layer_metrics(phases, before, after, delta)
            correct = correct and metrics.pop("_replay_ok")
        else:
            # Printed, not gated: on a shared host these follow the
            # neighbours' CPU steal more than the code (METRICS.md).
            log(f"# latency and capacity (not gated): lo.p50_ms = {lo.percentile(0.5):.6g} "
                f"(n={len(lo.queries)}), hi.p50_ms = {hi.percentile(0.5):.6g} "
                f"(n={len(hi.queries)}), max_qps = {max_qps:.6g}")
            metrics = {
                "setup_s": statistics.median(self.setups),
                "ok_frac": (attempted - failed) / attempted,
                "err_ratio": check["mean_ratio"],
                "cpu_ms_per_q": cpu_hi * 1e3 / max(1, len(hi.ok)),
                "rss_mb": statistics.median(self.loaded_mb),
                "swap_ms": statistics.median(swap_rtts) if swap_rtts else FAILED_MS,
            }
            log(f"# setup_s samples={['%.4f' % s for s in self.setups]}; lo n={len(lo.latencies)}, "
                f"hi n={len(hi.latencies)}, swaps n={len(swap_rtts)}")
        return correct, attempted, failed, metrics

    def log_elapsed(self, what):
        steal, total = steal_share()
        log(f"# elapsed after {what}: {time.perf_counter() - self.started:.1f} s, "
            f"machine CPU steal so far in the run "
            f"{(steal - self.steal[0]) / max(1, total - self.steal[1]):.1%}")

    def probe(self, search, rates, duration):
        """Runs the ladder search's next rung on an idle server and records
        whether it passed."""
        i = search.next_rung()
        self.server.wait_idle()
        # No swaps: with one a second, the rung's p99 followed the swap
        # aftermath more than the load, and max_qps spread 0.44 over 5 seeds.
        phase = self.drive(f"rung{i}", rates[i], duration, drain_s=2.0, swaps=False)
        self.describe(phase)
        search.record(self.passes(phase), phase.achieved)
        self.server.wait_idle()  # an overloaded rung's backlog stays out of lo
        return phase

    def max_qps(self, search, rates, lo, hi):
        """Achieved rate at the highest ladder rung (above hi) that met the
        p99 limit with no failures while keeping up; hi's achieved rate when
        no rung did; lo's when hi did not pass either, 0 when lo did not."""
        log(f"# ladder: highest passing rung {search.passing} "
            f"({rates[search.passing] if search.passing >= 0 else self.spec['hi']:.1f}/s)")
        if not self.passes(hi):
            return lo.achieved if self.passes(lo) else 0.0
        return search.achieved if search.passing >= 0 else hi.achieved

    def check_answers(self, phases, delta):
        """Exact check of every entry of the first answer to each of the
        first check_seeds keys, in key-population order, that the measured
        stream asked about: the same keys in every run. Every request that
        got a violating answer is marked failed and wrong."""
        first = {}
        for phase in phases:
            for q in phase.ok:
                first.setdefault(q["seed"], q["entries"])
        checked = {}
        for seed in self.keys.order:
            if len(checked) == self.spec["check_seeds"]:
                break
            if seed in first:
                checked[seed] = first[seed]
        path = os.path.join(self.work, "served.txt")
        with open(path, "w") as f:
            f.write("".join(f"{seed} " + " ".join(f"{n}:{s!r}" for n, s in entries) + "\n"
                            for seed, entries in checked.items()))
        code, result, err = run_tool(self.tool, ["check", self.graph_path, SERVER_T,
                                                 SERVER_EPS_R, repr(delta), path])
        if result is None:
            raise BenchError("check failed: " + err)
        violating = set(result["violating_seeds"])
        for phase in phases:
            for q in phase.ok:
                if q["seed"] in violating and q["entries"] == checked.get(q["seed"]):
                    q["failed"] = True
                    phase.wrong.append(f"outside the guarantee: {q['response'][:120]!r}")
        return result

    def layer_metrics(self, phases, before, after, delta):
        ok = [q for p in phases for q in p.ok]
        n = max(1, len(ok))
        d = lambda key: after[key] - before[key]
        stage = lambda name: after["stages"][name]["total_us"] - before["stages"][name]["total_us"]
        traced_n = max(1, after["stages"]["queue_wait"]["count"]
                       - before["stages"]["queue_wait"]["count"])
        computed_n = max(1, after["stages"]["compute"]["count"]
                         - before["stages"]["compute"]["count"])
        total_us = after["traced_total_us"] - before["traced_total_us"]
        lookups = d("cache_hits") + d("cache_misses") + d("coalesced")
        client_mean = statistics.fmean(
            (q["done"] - q["intended"]) / 1e6 for q in ok) if ok else 0.0
        late = sorted((q["sent"] - q["intended"]) / 1e6 for p in phases for q in p.queries)

        stream = os.path.join(self.work, "stream.txt")
        with open(stream, "w") as f:
            f.write("\n".join(str(q["seed"]) for q in ok) + "\n")
        computed, seen = [], set()
        for q in ok:
            if q["fields"]["cache"] == "miss" and q["seed"] not in seen:
                seen.add(q["seed"])
                computed.append(q["seed"])
        computed = computed[:self.spec["replay_seeds"]] or [q["seed"] for q in ok[:50]]
        computed_path = os.path.join(self.work, "computed.txt")
        with open(computed_path, "w") as f:
            f.write("\n".join(str(s) for s in computed) + "\n")
        code, inproc, err = run_tool(self.tool, [
            "layers", self.graph_path, self.spec["backend"] or "tea+", SERVER_T,
            SERVER_EPS_R, repr(delta), SERVER_P_F, SERVER_CACHE, SERVER_SEED,
            stream, computed_path])
        if inproc is None:
            raise BenchError("layers failed: " + err)
        log(f"# layers: replayed={inproc['hkpr.replayed']} "
            f"mismatches={inproc['hkpr.replay_mismatches']} "
            f"hk_relax_n={inproc['baselines.hk_relax_n']}")
        lo, hi = phases
        metrics = {
            "net.self_ms": client_mean - total_us / traced_n / 1e3,
            "net.cmd_us": inproc["net.cmd_us"],
            "net.resp_bytes": statistics.fmean(len(q["response"]) + 1 for q in ok),
            "service.queue_ms": stage("queue_wait") / traced_n / 1e3,
            "service.cache_ms": stage("cache") / traced_n / 1e3,
            "service.compute_ms": stage("compute") / computed_n / 1e3,
            "service.other_ms": (total_us - stage("queue_wait") - stage("cache")
                                 - stage("compute")) / traced_n / 1e3,
            "service.stolen": d("stolen"),
            "service.rejected": d("rejected"),
            "service.hit_ratio": d("cache_hits") / max(1, lookups),
            "service.coalesced": d("coalesced"),
            "service.lookup_us": inproc["service.lookup_us"],
            "service.publish_ms": inproc["service.publish_ms"],
            "graph.load_ms": inproc["graph.load_ms"],
            "hkpr.route_us": inproc["hkpr.route_us"],
            "hkpr.hk_relax_frac": sum(1 for q in ok if q["fields"]["backend"] == "hk-relax") / n,
            "baselines.hk_relax_ms": inproc["baselines.hk_relax_ms"],
        }
        for key in ("query_ms", "push_ms", "reduce_ms", "alias_ms", "walk_ms", "topk_ms",
                    "early_exit_frac", "push_ops", "walk_steps"):
            metrics["hkpr." + key] = inproc["hkpr." + key]
        metrics["gen.late_p99_ms"] = reportable(percentile(late, 0.99))
        for phase in phases:
            for q in (50, 90, 99):
                metrics[f"traced.{phase.name}.p{q}_ms"] = phase.percentile(q / 100)
        metrics["_replay_ok"] = (code == 0 and inproc["hkpr.replay_mismatches"] == 0)
        return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    run = None
    try:
        declared = declared_metrics(root)[args.trace]
        selftest()
        server_bin, tool, build_dir = build(root)
        code, result, err = run_tool(tool, ["selftest"])
        if code != 0 or not result or not result.get("selftest"):
            raise BenchError("perfbench_tool selftest failed:\n" + err)
        work = os.path.join(build_dir, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        run = Run(args, WORKLOADS[args.workload], server_bin, tool, work)
        correct, attempted, failed, metrics = run.execute()
        if set(metrics) != set(declared):
            raise BenchError("metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(declared))}")
        shutil.rmtree(work, ignore_errors=True)
    except Exception as error:  # every failure ends in exit 1, no result
        sys.stderr.write(f"perfbench: {error!r}\n")
        return 1
    finally:
        if run is not None and run.server is not None:
            run.server.stop()
    for name, value in metrics.items():
        moves = f"   moves: {LAYER_TAGS[name]}" if args.trace else ""
        log(f"# {name} = {value:.6g} {declared[name]}{moves}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
