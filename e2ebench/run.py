#!/usr/bin/env python3
"""End-to-end benchmark of the declarative scheduling middleware.

Builds the repository's net_server and this directory's client from source
(under .bench_build/), starts net_server as a child process on an empty data
directory, drives it open loop, checks every answer, and prints every
end-to-end metric by name and unit. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 e2ebench/run.py --workload point-binary --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload point-binary --seed 1 --seconds 30 --trace 1
    python3 e2ebench/run.py --selftest

See e2ebench/README.md for the workloads, metrics, frozen rates and limits.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
REPO_BUILD = os.path.join(BUILD, "repo")
E2E_BUILD = os.path.join(BUILD, "e2ebench")
RUNS = os.path.join(BUILD, "runs")
NET_SERVER = os.path.join(REPO_BUILD, "net_server")
CLIENT = os.path.join(E2E_BUILD, "e2e_client")
SELFTEST = os.path.join(E2E_BUILD, "e2e_selftest")

# The server is configured only through its existing flags.
REACTORS = 2
SERVER_FLAGS = ["--shards=2", f"--reactors={REACTORS}", "--protocol=ss2pl-sql"]
CONNECTIONS = 4

# Both workloads send the same generated requests at the same frozen rates
# (requests/s) and limit; only the transport differs. light and busy are
# about 1/4 and 3/4 of the saturation rate the parent commit reached on a
# 4-vCPU VM while the host was contended (README.md). The ladder climbs from
# LADDER_START by the ratio and step count fixed in src/step_stats.h.
WORKLOADS = ("point-binary", "point-http")
RATES = {"light": 4000, "busy": 12000}
LADDER_START = 14000
P99_LIMIT_MS = 50

# Share of --seconds given to each phase. Light and busy are each split in
# WINDOWS equal windows; latency and CPU are reported as the median over the
# windows, which keeps one stall from deciding a run's percentile.
WARM_SHARE = 1 / 30
LIGHT_SHARE = 6 / 30
BUSY_SHARE = 9 / 30
LADDER_STEP_SHARE = 1 / 30
WINDOWS = 3
# Set-up is timed on SETUP_SPAWNS throw-away servers before the load server,
# again before the ladder server and again after it (plus those two servers),
# so the median spans the whole run rather than one moment of host load.
SETUP_SPAWNS = 12

# Every metric the command computes. BENCHMARK.json names the subset that the
# result line carries (and that a later change is judged by); the rest are
# printed for reading only. See README.md for why some are not gated.
END_TO_END = [
    ("setup_s", "s"),
    ("setup_wall_s", "s"),
    ("ack_p50_ms.light", "ms"),
    ("ack_p99_ms.light", "ms"),
    ("ack_p50_ms.busy", "ms"),
    ("ack_p99_ms.busy", "ms"),
    ("max_rate_rps", "req/s"),
    ("server_cpu_us_per_req.light", "us"),
    ("server_cpu_us_per_req.busy", "us"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("client.ack_p50_ms.light", "ms"),
    ("client.ack_p99_ms.light", "ms"),
    ("client.ack_p50_ms.busy", "ms"),
    ("client.ack_p99_ms.busy", "ms"),
    ("client.late_p99_ms", "ms"),
    ("client.cpu_us_per_req", "us"),
    ("net.parse_us_per_req", "us"),
    ("net.bytes_in_per_req", "B"),
    ("net.bytes_out_per_req", "B"),
    ("net.frames_per_read", "count"),
    ("net.reactor_max_conn_share", "ratio"),
    ("front_door.submit_p50_ms", "ms"),
    ("front_door.submit_p99_ms", "ms"),
    ("front_door.op_dispatch_p50_us", "us"),
    ("front_door.op_dispatch_p99_us", "us"),
    ("front_door.refused", "count"),
    ("sched.reqs_per_cycle", "count"),
    ("sched.cycles_per_s", "1/s"),
    ("sched.escrows_per_txn", "ratio"),
    ("sched.submit_us", "us"),
    ("sched.wait_p50_us", "us"),
    ("sched.wait_p99_us", "us"),
    ("sched.shard_busy_us_per_req", "us"),
    ("cycle.p50_us", "us"),
    ("cycle.p99_us", "us"),
    ("cycle.query_us_per_cycle", "us"),
    ("cycle.qualified_ratio", "ratio"),
    ("cycle.gc_removed_per_cycle", "count"),
    ("wal.records_per_fsync", "count"),
    ("wal.fsyncs_per_s", "1/s"),
    ("wal.bytes_per_req", "B"),
    ("wal.durable_wait_p50_us", "us"),
    ("wal.durable_wait_p99_us", "us"),
    ("snapshot.count", "count"),
    ("snapshot.stall_p99_ms", "ms"),
]


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, flush=True)


# --- build ---------------------------------------------------------------


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError(f"{what} failed (exit {proc.returncode})")


def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no repository sources next to e2ebench/")
    # Compilers write temporaries to TMPDIR; keep them inside the checkout.
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(REPO_BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ROOT, "-B", REPO_BUILD, *generator,
                   "-DCMAKE_BUILD_TYPE=Release"], "configure repository")
    run_quiet(["cmake", "--build", REPO_BUILD, "--target", "net_server",
               "-j", jobs], "build net_server")
    if not os.path.exists(os.path.join(E2E_BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", E2E_BUILD, *generator,
                   "-DCMAKE_BUILD_TYPE=Release", f"-DDECLSCHED_ROOT={ROOT}",
                   f"-DDECLSCHED_BUILD={REPO_BUILD}"], "configure e2ebench")
    run_quiet(["cmake", "--build", E2E_BUILD, "-j", jobs], "build e2ebench")


# --- environment record ----------------------------------------------------


def filesystem_of(path):
    best, fstype = "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            parts = line.split()
            if len(parts) >= 3 and path.startswith(parts[1]) and \
                    len(parts[1]) > len(best):
                best, fstype = parts[1], parts[2]
    return fstype


def source_revision():
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if head.returncode == 0:
            return "git:" + head.stdout.strip()
    except OSError:
        pass
    # Not a git checkout: digest the sources the server is built from.
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "examples/net_server.cpp"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "sha256:" + digest.hexdigest()[:16]


def cpu_ticks():
    """Aggregate /proc/stat jiffies: (busy, iowait, steal, total)."""
    with open("/proc/stat") as stat:
        fields = [int(x) for x in stat.readline().split()[1:9]]
    user, nice, system, idle, iowait, irq, softirq, steal = fields
    busy = user + nice + system + irq + softirq
    return busy, iowait, steal, sum(fields)


def host_share(before, after):
    """Shares of all CPU time the box spent busy, in iowait and stolen by
    the hypervisor between two cpu_ticks() readings. Steal well above zero
    means the latencies measured the host, not only the program."""
    total = max(1, after[3] - before[3])
    return {"busy": round((after[0] - before[0]) / total, 4),
            "iowait": round((after[1] - before[1]) / total, 4),
            "steal": round((after[2] - before[2]) / total, 4)}


def environment(data_root):
    return {
        "cores": os.cpu_count(),
        "ulimit_n": resource.getrlimit(resource.RLIMIT_NOFILE)[0],
        "data_dir_fs": filesystem_of(data_root),
        "flush_policy": "WAL fdatasync on every group commit (fsync on)",
        "build_type": "Release",
        "revision": source_revision(),
        "server_flags": " ".join(SERVER_FLAGS),
        "connections": CONNECTIONS,
    }


# --- server lifecycle -------------------------------------------------------


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def healthz_status(port):
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=1) as s:
            s.sendall(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n"
                      b"Connection: close\r\n\r\n")
            head = s.recv(64)
            return int(head[9:12]) if head.startswith(b"HTTP/1.1 ") else 0
    except (OSError, ValueError):
        return 0


# net_server answers /healthz 200 for a moment before recovery starts (the
# front door routes requests normally until it marks itself started), then
# 503 "recovering", then 200 for good. A 200 counts as ready only if no
# other answer follows within READY_SETTLE_S.
READY_SETTLE_S = 0.02


def process_cpu_s(pid):
    """CPU seconds the process's live threads have run. The kernel keeps
    hypervisor steal out of this clock, unlike wall time."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except OSError:  # the thread ended while we read
            pass
    return total / 1e9


class Server:
    """One net_server child on a fresh, empty data directory."""

    def __init__(self, data_dir):
        shutil.rmtree(data_dir, ignore_errors=True)
        os.makedirs(data_dir)
        self.data_dir = data_dir
        self.http_port = free_port()
        self.binary_port = free_port()
        self.log = open(os.path.join(data_dir, "server.log"), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [NET_SERVER, *SERVER_FLAGS, f"--port={self.http_port}",
             f"--binary-port={self.binary_port}",
             f"--data-dir={os.path.join(data_dir, 'wal')}"],
            stdout=self.log, stderr=subprocess.STDOUT, cwd=ROOT)
        deadline = t0 + 30
        first_ok = None
        while first_ok is None or \
                time.perf_counter() - first_ok < READY_SETTLE_S:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError("net_server did not become healthy")
            if healthz_status(self.http_port) == 200:
                if first_ok is None:
                    first_ok = time.perf_counter()
                    ready_cpu_s = process_cpu_s(self.proc.pid)
            else:
                first_ok = None
            time.sleep(0.0005)
        # From spawn to the first /healthz 200 that stayed 200: the server's
        # CPU time (what set-up work costs) and the wall time (what a user
        # waits, which also counts time the hypervisor stole).
        self.setup_s = ready_cpu_s
        self.setup_wall_s = first_ok - t0

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)


# --- client -----------------------------------------------------------------


def plan_steps(seconds, ladder):
    """The load plan (warm-up, light and busy windows) or the ladder plan
    (warm-up, then the geometric ladder)."""
    steps = [f"--step=warm:{RATES['light']}:{seconds * WARM_SHARE:.3f}"]
    if ladder:
        steps.append(f"--ladder={LADDER_START}:"
                     f"{seconds * LADDER_STEP_SHARE:.3f}")
        return steps
    for phase, share in (("light", LIGHT_SHARE), ("busy", BUSY_SHARE)):
        for w in range(WINDOWS):
            steps.append(f"--step={phase}.{w}:{RATES[phase]}:"
                         f"{seconds * share / WINDOWS:.3f}")
    return steps


# A run must end within 180 s; no child may run past this.
CHILD_TIMEOUT_S = 150


def run_bounded(cmd, what, allow_exit=(0,)):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} ran longer than {CHILD_TIMEOUT_S} s")
    if proc.returncode not in allow_exit:
        raise BenchError(f"{what} exited {proc.returncode}")
    return proc.returncode


def run_client(server, workload, seed, seconds, ladder, tag,
               trace_prefix=None):
    out = os.path.join(RUNS, f"{tag}.client.json")
    cmd = [CLIENT, "run", f"--workload={workload}", f"--seed={seed}",
           f"--http-port={server.http_port}",
           f"--binary-port={server.binary_port}",
           f"--server-pid={server.proc.pid}",
           f"--connections={CONNECTIONS}", f"--reactors={REACTORS}",
           f"--p99-limit-ms={P99_LIMIT_MS}",
           *plan_steps(seconds, ladder), f"--out={out}"]
    if trace_prefix:
        cmd.append(f"--trace-prefix={trace_prefix}")
    run_bounded(cmd, "client")
    with open(out) as fh:
        return json.load(fh)


def steps_named(result, phase):
    return [s for s in result["steps"] if s["name"].startswith(phase + ".")]


def window_median(steps, key):
    return statistics.median(s[key] for s in steps)


def cpu_per_req(step):
    return step["server_cpu_us"] / max(1, step["acked"])


def load_metrics(load):
    """Latency and server CPU of the light and busy phases of one load run,
    each the median over the phase's windows."""
    light = steps_named(load, "light")
    busy = steps_named(load, "busy")
    return {
        "ack_p50_ms.light": window_median(light, "ack_p50_us") / 1000.0,
        "ack_p99_ms.light": window_median(light, "ack_p99_us") / 1000.0,
        "ack_p50_ms.busy": window_median(busy, "ack_p50_us") / 1000.0,
        "ack_p99_ms.busy": window_median(busy, "ack_p99_us") / 1000.0,
        "server_cpu_us_per_req.light":
            statistics.median(cpu_per_req(s) for s in light),
        "server_cpu_us_per_req.busy":
            statistics.median(cpu_per_req(s) for s in busy),
    }


def end_to_end_metrics(load, ladder, setup, peak_rss_mb):
    """`setup` holds one (cpu_s, wall_s) pair per server started."""
    best = ladder["max_rate_step"]
    metrics = load_metrics(load)
    metrics.update({
        "setup_s": statistics.median(cpu for cpu, _ in setup),
        "setup_wall_s": statistics.median(wall for _, wall in setup),
        # Achieved (not nominal) rate of the highest passing ladder step.
        "max_rate_rps": ladder["steps"][best]["achieved_rps"]
        if best >= 0 else 0.0,
        "peak_rss_mb": peak_rss_mb,
    })
    return metrics


def print_steps(result):
    log("  step        rate   offered  achieved   ack_p50   ack_p99  "
        "late_p99  cpu/req  verdict")
    for s in result["steps"]:
        acked = max(1, s["acked"])
        log(f"  {s['name']:<9} {s['rate_rps']:>7.0f} {s['offered_rps']:>9.1f}"
            f" {s['achieved_rps']:>9.1f} {s['ack_p50_us'] / 1000:>8.3f}ms"
            f" {s['ack_p99_us'] / 1000:>8.3f}ms"
            f" {s['late_p99_us'] / 1000:>8.3f}ms"
            f" {s['server_cpu_us'] / acked:>7.1f}us"
            f"  {'pass' if s['passed'] else 'FAIL: ' + s['why']}")


def run_fresh(workload, seed, seconds, ladder, tag, trace_prefix=None):
    """Runs one client plan against a new server on an empty data directory;
    returns the client's result, the server's set-up (cpu_s, wall_s) and its
    peak RSS."""
    server = Server(os.path.join(RUNS, "server"))
    ticks = cpu_ticks()
    try:
        result = run_client(server, workload, seed, seconds, ladder, tag,
                            trace_prefix)
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    log(f"{tag} server: box cpu shares " +
        json.dumps(host_share(ticks, cpu_ticks()), sort_keys=True) +
        f"; accept split per reactor {result['accept_split']} "
        f"({result['connect_attempts']} dials)")
    print_steps(result)
    return result, (server.setup_s, server.setup_wall_s), peak


def tally(results):
    """(attempted, failed, violations) summed over client results."""
    return (sum(r["attempted"] for r in results),
            sum(r["failed"] for r in results),
            [v for r in results for v in r["violations"]])


# --- untraced run -----------------------------------------------------------


def setup_samples():
    """Set-up (cpu_s, wall_s) of SETUP_SPAWNS throw-away servers."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        probe = Server(os.path.join(RUNS, "setup"))
        samples.append((probe.setup_s, probe.setup_wall_s))
        probe.stop()
    return samples


def untraced(workload, seed, seconds):
    setup = setup_samples()
    # The light and busy phases and the ladder each get a fresh server, so
    # the ladder's overload does not leak into the busy numbers or the
    # memory high-water mark.
    load, load_setup, peak = run_fresh(workload, seed, seconds, False, "load")
    setup += setup_samples()
    ladder, ladder_setup, _ = run_fresh(workload, seed, seconds, True,
                                        "ladder")
    setup += setup_samples() + [load_setup, ladder_setup]
    log("  setup samples, cpu/wall (s): " +
        ", ".join(f"{cpu:.4f}/{wall:.4f}" for cpu, wall in setup))
    return (end_to_end_metrics(load, ladder, setup, peak),
            *tally([load, ladder]))


# --- traced run -------------------------------------------------------------


def parse_prom(text):
    samples = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, labels = head.partition("{")
        labels = dict(kv.split("=", 1) for kv in labels.rstrip("}").split(",")
                      if "=" in kv)
        labels = {k: v.strip('"') for k, v in labels.items()}
        samples.append((name, labels, float(value)))
    return samples


def prom_sum(samples, name):
    return sum(v for n, _, v in samples if n == name)


def prom_buckets(samples, name):
    buckets = {}
    for n, labels, v in samples:
        if n == name + "_bucket":
            le = float("inf") if labels["le"] == "+Inf" else float(labels["le"])
            buckets[le] = buckets.get(le, 0.0) + v
    return buckets


def bucket_percentile(before, after, p):
    """Upper bound of the bucket holding the p-quantile of after - before."""
    bounds = sorted(after)
    total = after[bounds[-1]] - before.get(bounds[-1], 0.0) if bounds else 0
    if total <= 0:
        return 0.0
    for le in bounds:
        if after[le] - before.get(le, 0.0) >= p * total:
            return le if le != float("inf") else bounds[-2]
    return bounds[-2]


def load_scrapes(prefix):
    scrapes = {}
    with open(prefix + "scrapes.jsonl") as fh:
        for line in fh:
            doc = json.loads(line)
            scrapes[doc["label"]] = doc
    return scrapes


def per_layer_metrics(workload, result, scrapes, replay):
    busy = steps_named(result, "busy")
    first, last = busy[0]["name"], busy[-1]["name"]
    b = parse_prom(scrapes[first + ":begin"]["metrics"])
    a = parse_prom(scrapes[last + ":end"]["metrics"])
    seconds = (scrapes[last + ":end"]["t_ns"] -
               scrapes[first + ":begin"]["t_ns"]) / 1e9

    def delta(name):
        return prom_sum(a, name) - prom_sum(b, name)

    acked = sum(s["acked"] for s in busy)
    reqs = max(1, acked)
    cycles = max(1.0, delta("sched_cycles_total"))
    binary = workload.endswith("binary")
    if binary:
        frames_per_read = (delta("wire_frames_per_read_sum") /
                           max(1.0, delta("wire_frames_per_read_count")))
    else:
        # The HTTP server exports no per-read frame count: report what one
        # server read can at most see, the requests per client write.
        frames_per_read = acked / max(1, sum(s["writes"] for s in busy))
    # Live connections per reactor (re-dialled ones are not counted).
    split = result["accept_split"]
    max_share = max(split) / max(1, sum(split))
    # Every refusal the front door sends (admission 429s included) reaches
    # the client as one error answer, so the client's count covers them all;
    # /healthz probes answered 503 during recovery do not count.
    refused = result["failed"]
    shards = replay["shards"]
    qualified = shards["qualified"]
    lates = [s["late_p99_us"] for s in busy]
    return {
        "client.late_p99_ms": statistics.median(lates) / 1000.0,
        "client.cpu_us_per_req":
            sum(s["client_cpu_us"] for s in busy) / reqs,
        "net.parse_us_per_req": replay["parse"]["mean_us"],
        "net.bytes_in_per_req": sum(s["bytes_out"] for s in busy) / reqs,
        "net.bytes_out_per_req": sum(s["bytes_in"] for s in busy) / reqs,
        "net.frames_per_read": frames_per_read,
        "net.reactor_max_conn_share": max_share,
        "front_door.submit_p50_ms":
            window_median(busy, "server_latency_p50_us") / 1000.0,
        "front_door.submit_p99_ms":
            window_median(busy, "server_latency_p99_us") / 1000.0,
        "front_door.op_dispatch_p50_us": bucket_percentile(
            prom_buckets(b, "frontdoor_dispatch_latency_us"),
            prom_buckets(a, "frontdoor_dispatch_latency_us"), 0.50),
        "front_door.op_dispatch_p99_us": bucket_percentile(
            prom_buckets(b, "frontdoor_dispatch_latency_us"),
            prom_buckets(a, "frontdoor_dispatch_latency_us"), 0.99),
        "front_door.refused": refused,
        "sched.reqs_per_cycle": delta("sched_dispatched_total") / cycles,
        "sched.cycles_per_s": delta("sched_cycles_total") / seconds,
        "sched.escrows_per_txn": delta("sched_escrows_total") /
        max(1.0, delta("frontdoor_txns_committed_total")),
        "sched.submit_us": replay["submit"]["mean_us"],
        "sched.wait_p50_us": replay["wait"]["p50_us"],
        "sched.wait_p99_us": replay["wait"]["p99_us"],
        "sched.shard_busy_us_per_req":
            shards["busy_us"] / max(1, replay["requests"]),
        "cycle.p50_us": shards["cycle_p50_us"],
        "cycle.p99_us": shards["cycle_p99_us"],
        "cycle.query_us_per_cycle":
            shards["total_query_us"] / max(1, shards["cycles"]),
        "cycle.qualified_ratio": qualified / max(
            1, qualified + shards["blocked_after_dispatching_cycles"]),
        "cycle.gc_removed_per_cycle": delta("sched_gc_removed_total") / cycles,
        "wal.records_per_fsync": delta("wal_appends_total") /
        max(1.0, delta("wal_fsyncs_total")),
        "wal.fsyncs_per_s": delta("wal_fsyncs_total") / seconds,
        "wal.bytes_per_req": delta("wal_bytes_total") / reqs,
        "wal.durable_wait_p50_us": replay["durable_wait"]["p50_us"],
        "wal.durable_wait_p99_us": replay["durable_wait"]["p99_us"],
        "snapshot.count": replay["checkpoint"]["count"],
        "snapshot.stall_p99_ms": replay["checkpoint"]["p99_us"] / 1000.0,
    }


def traced(workload, seed, seconds):
    results = {
        tag: run_fresh(workload, seed, seconds, False, tag,
                       os.path.join(RUNS, "trace_") if tag == "traced"
                       else None)[0]
        for tag in ("untraced", "traced")
    }
    attempted, failed, violations = tally(results.values())

    replay_dir = os.path.join(RUNS, "replay")
    shutil.rmtree(replay_dir, ignore_errors=True)
    os.makedirs(replay_dir)
    replay_out = os.path.join(RUNS, "replay.json")
    replay_seconds = max(2.0, seconds * BUSY_SHARE / 2)
    drained = run_bounded(
        [CLIENT, "replay", f"--workload={workload}", f"--seed={seed}",
         f"--rate={RATES['busy']}", f"--seconds={replay_seconds:.3f}",
         f"--data-dir={os.path.join(replay_dir, 'wal')}",
         f"--out={replay_out}"], "replay", allow_exit=(0, 1))
    shutil.rmtree(replay_dir, ignore_errors=True)
    with open(replay_out) as fh:
        replay = json.load(fh)
    if drained != 0:
        violations.append("in-process replay left requests unanswered")

    scrapes = load_scrapes(os.path.join(RUNS, "trace_"))
    layers = per_layer_metrics(workload, results["traced"], scrapes, replay)
    # The client's latency percentiles that are not gated, from the pass
    # without tracing.
    untraced_e2e = load_metrics(results["untraced"])
    for name in ("ack_p50_ms.light", "ack_p99_ms.light", "ack_p50_ms.busy",
                 "ack_p99_ms.busy"):
        layers["client." + name] = untraced_e2e[name]
    report_ledger(workload, results, replay)
    return layers, attempted, failed, violations


def report_ledger(workload, results, replay):
    untraced_e2e = load_metrics(results["untraced"])
    traced_e2e = load_metrics(results["traced"])
    log(f"\ntraced vs untraced end-to-end ({workload}; the difference is the "
        "tracing overhead):")
    for name, value in untraced_e2e.items():
        t = traced_e2e[name]
        log(f"  {name:<28} untraced {value:>10.3f}  traced {t:>10.3f}  "
            f"diff {t - value:>+10.3f}")
    # Self-time medians along the blocking path of one request, from the
    # in-process replay: parse, then per op submit + wait for dispatch, then
    # the durable wait; the client's own lateness comes from the traced run.
    busy = steps_named(results["traced"], "busy")
    chain = replay["chain_ops"]
    ledger = [
        ("client lateness (traced p50)",
         statistics.median(s["late_p50_first_quarter_us"] for s in busy)),
        ("net parse (replay)", replay["parse"]["p50_us"]),
        ("sched submit x chain ops", replay["submit"]["p50_us"] * chain),
        ("sched wait x chain ops", replay["wait"]["p50_us"] * chain),
        ("wal durable wait", replay["durable_wait"]["p50_us"]),
    ]
    total = sum(v for _, v in ledger)
    log("\nself-time medians on the blocking path (us):")
    for name, value in ledger:
        log(f"  {name:<32} {value:>10.1f}")
    log(f"  {'sum':<32} {total:>10.1f}   untraced ack_p50_ms.busy "
        f"{untraced_e2e['ack_p50_ms.busy'] * 1000:>10.1f}")
    log(f"  replay ack p50 (due -> durable, in process) "
        f"{replay['ack']['p50_us']:>10.1f}")


# --- main ---------------------------------------------------------------


def reported(key, computed):
    """The metrics of `computed` that BENCHMARK.json lists under `key`, in
    its order; all of them when the file is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return computed
    with open(path) as fh:
        listed = [m["name"] for m in json.load(fh)[key]]
    units = dict(computed)
    missing = [name for name in listed if name not in units]
    if missing:
        raise BenchError(f"BENCHMARK.json lists unknown metrics {missing}")
    return [(name, units[name]) for name in listed]


def selftest():
    build()
    proc = subprocess.run([SELFTEST], cwd=ROOT)
    if proc.returncode != 0:
        return proc.returncode
    return subprocess.run([sys.executable, os.path.join(HERE, "test_run.py")],
                          cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        build()
        shutil.rmtree(RUNS, ignore_errors=True)
        os.makedirs(RUNS)
        log(f"e2ebench workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace}")
        log("environment: " + json.dumps(environment(RUNS), sort_keys=True))
        log("frozen: " + json.dumps(
            {**RATES, "ladder_start": LADDER_START,
             "p99_limit_ms": P99_LIMIT_MS}, sort_keys=True))
        computed = PER_LAYER if args.trace else END_TO_END
        names = reported("per_layer" if args.trace else "end_to_end", computed)
        values, attempted, failed, violations = (
            traced if args.trace else untraced)(
                args.workload, args.seed, args.seconds)
    except BenchError as err:
        sys.stderr.write(f"e2ebench: {err}\n")
        return 1

    log("")
    gated = {name for name, _ in names}
    for name, unit in computed:
        mark = "" if name in gated else "   (printed only)"
        log(f"{name:<32} {values[name]:>14.4f} {unit}{mark}")
    fail_ratio = failed / max(1, attempted)
    log(f"{'fail_ratio':<32} {fail_ratio:>14.6f} ratio "
        f"({failed} of {attempted} requests)")
    correct = not violations
    for v in violations:
        log(f"VIOLATION: {v}")
    log(f"correct: {str(correct).lower()}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
