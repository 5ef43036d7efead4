#!/usr/bin/env python3
"""End-to-end benchmark of the Leopard reproduction.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload NAME --seed N --seconds S --repeat K
    python3 e2ebench/run.py --self-test

Run from the repository root. The first call builds the repository's library,
leopard_node and this benchmark's e2e_load into $CARGO_TARGET_DIR (default
.bench_build) with CMake. Workloads (see BENCHMARK.json and DESIGN.md):

  wire-normal   4 leopard_node replicas on loopback (no injected delay),
                durable WAL, driven by e2e_load's open-loop client.
  wire-silence  the same, with replica 3 run as --byzantine silence.

--trace 0 prints the end-to-end metrics of one unscraped run, --trace 1 the
per-layer metrics of two scraped runs (stage tracer off, then on);
wire-normal's --trace 1 also measures the simulator's layers at the n = 64
overload point. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; any failed correctness check
makes the exit code 1. --repeat K runs K seeds (N, N+1, ...) and prints every
metric's median and quartiles.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("wire-normal", "wire-silence")

# Wire cluster, pinned. The load itself (60 kreq/s open loop, warmup, grace,
# re-submission) is pinned in drive.cpp. Batches are sized so latency is set
# by datablocks filled by count (alpha requests at rate/3 per non-leader
# replica) and the consensus rounds, not by the flush timers, which stay as
# backstops that do not fire at this rate.
WIRE_MANIFEST = {
    "protocol": "leopard",
    "n": 4,
    "seed": 7,
    "payload_size": 128,
    "datablock_requests": 800,
    "bftblock_links": 2,
    "max_parallel_instances": 100,  # the default: a checkpoint every 50 sn
    "datablock_max_wait_ms": 500,
    "proposal_max_wait_ms": 200,
    "retrieval_timeout_ms": 10,
    "view_timeout_ms": 4000,
    "mempool_capacity": 12000,
}
LEADER = 1            # Leopard's initial leader
SILENT = 3            # the --byzantine silence replica in wire-silence
VICTIM = 0            # the honest replica it starves (f = 1)
SETUP_REPS = 15       # cluster set-ups per run; setup_s is their median
TRACE_SAMPLE = 64     # stage-tracer span sampling in traced wire runs

CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    for need in ("CMakeLists.txt", "src", "tools/leopard_node.cpp"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("repository sources missing (%s); cannot build" % need)
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        _checked(cmd, "configure")
    _checked(["cmake", "--build", bdir, "-j", str(min(4, os.cpu_count() or 1))], "build")
    return os.path.join(bdir, "e2e_load"), os.path.join(bdir, "leopard_node")


def _checked(cmd, what):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:])
        raise BenchError("%s failed (exit %d)" % (what, p.returncode))


# --------------------------------------------------------------------------
# Child processes: every one is tracked and reaped, also on failure.
# --------------------------------------------------------------------------

CHILDREN = []


def spawn(cmd, **kw):
    p = subprocess.Popen(cmd, **kw)
    CHILDREN.append(p)
    return p


def stop(procs, timeout=10.0):
    for p in procs:
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + timeout
    for p in procs:
        try:
            p.wait(max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


def reap_all():
    stop([p for p in CHILDREN if p.poll() is None], timeout=5.0)


# --------------------------------------------------------------------------
# Sim workload
# --------------------------------------------------------------------------

def sim_layers(load_bin, seed, workdir):
    """The sim engine, protocol and core layers, measured at the n = 64
    overload point: harness::run_experiment, then the same cluster with
    probed cores. Part of wire-normal's traced run (see DESIGN.md)."""
    lat_path = os.path.join(workdir, "sim_latency.txt")
    p = spawn([load_bin, "sim", "--seed", str(seed), "--out", lat_path],
              stdout=subprocess.PIPE, text=True)
    out, _ = p.communicate()
    if p.returncode != 0:
        raise BenchError("e2e_load sim exited %d" % p.returncode)
    d = json.loads(out.strip().splitlines()[-1])
    with open(lat_path) as f:
        lat = sorted(int(x) for x in f)
    h, t = d["harness"], d["probed"]
    failures = []
    if (t["executed"], t["acked"]) != (h["executed"], h["acked"]):
        failures.append("sim: probed run executed/acked %d/%d != run_experiment %d/%d"
                        % (t["executed"], t["acked"], h["executed"], h["acked"]))
    if h["safety_violation"] or t["safety_violation"]:
        failures.append("sim: safety violation")
    if t["acked"] != len(lat) or not lat:
        failures.append("sim: %d acks, %d latency samples" % (t["acked"], len(lat)))
    reqs = max(t["executed"], 1)
    engine_s = t["window_wall_s"] - t["core_handle_s"]
    layers = {
        "sim.commit_kreqs": h["acked"] / d["window_s"] / 1e3,
        "sim.commit_p50_ms": stats.percentile(lat, 0.50) / 1e6 if lat else 0.0,
        "sim.cpu_us_per_req": h["cpu_s"] * 1e6 / max(h["acked"], 1),
        "sim.events_per_req": t["events"] / reqs,
        "sim.engine_ns_per_event": engine_s * 1e9 / max(t["events"], 1),
        "sim.engine_us_per_req": engine_s * 1e6 / reqs,
        "core.handle_us_per_req": (t["core_handle_s"] - t["core_apply_s"]) * 1e6 / reqs,
        "core.calls_per_req": t["core_calls"] / reqs,
        "protocol.apply_us_per_req": t["core_apply_s"] * 1e6 / reqs,
        "sim.leader_send_mbps": h["leader_send_bps"] / 1e6,
        "sim.leader_recv_mbps": h["leader_recv_bps"] / 1e6,
        "sim.frac_generation": h["frac_generation"],
        "sim.frac_dissemination": h["frac_dissemination"],
        "sim.frac_agreement": h["frac_agreement"],
    }
    for comp, bps in h["leader_send_bps_by"].items():
        layers["sim.leader_send_mbps." + comp] = bps / 1e6
    log("sim n=64 seed=%d: offered %.0f req/s (capacity estimate %.0f), window %.0f "
        "simulated s; run_experiment executed/acked %d/%d, probed %d/%d, %d latency samples; "
        "harness p50/p99 %.1f/%.1f ms (HDR buckets)"
        % (seed, d["offered_load"], d["capacity_estimate"], d["window_s"], h["executed"],
           h["acked"], t["executed"], t["acked"], len(lat), h["p50_latency_s"] * 1e3,
           h["p99_latency_s"] * 1e3))
    return layers, failures


# --------------------------------------------------------------------------
# Wire workloads
# --------------------------------------------------------------------------

def free_ports(count):
    socks, ports = [], []
    try:
        for _ in range(count):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
            ports.append(s.getsockname()[1])
    finally:
        for s in socks:
            s.close()
    return ports


# Loopback only: never route the replicas' endpoints through an http_proxy.
_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def http_get(port, path, timeout=2.0):
    with _OPENER.open("http://127.0.0.1:%d%s" % (port, path), timeout=timeout) as r:
        return r.read().decode()


def statusz(port, traces=False):
    return json.loads(http_get(port, "/statusz?traces=1" if traces else "/statusz"))


def scrape(port):
    return stats.parse_prometheus(http_get(port, "/metrics"))


def proc_cpu(pid):
    with open("/proc/%d/stat" % pid) as f:
        return stats.proc_cpu_seconds(f.read(), CLK_TCK)


def thread_cpu(pid):
    """{"name/tid": CPU seconds} for every thread in /proc/<pid>/task."""
    out = {}
    task_dir = "/proc/%d/task" % pid
    for tid in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, tid, "stat")) as f:
                text = f.read()
        except OSError:
            continue  # the thread ended
        name = text[text.index("(") + 1:text.rindex(")")]
        out["%s/%s" % (name, tid)] = stats.proc_cpu_seconds(text, CLK_TCK)
    return out


class Cluster:
    """n leopard_node replicas on loopback with durable data dirs."""

    def __init__(self, node_bin, workdir, silence, trace_sample):
        self.node_bin = node_bin
        self.workdir = workdir
        self.silence = silence
        self.trace_sample = trace_sample
        self.n = WIRE_MANIFEST["n"]
        self.procs = []
        self.metrics_ports = []
        self.manifest = None

    def honest(self):
        return [i for i in range(self.n) if not (self.silence and i == SILENT)]

    def start(self, attempts=4):
        """Launches the replicas one after another, each once the previous
        one answers /healthz, and waits until every link of the mesh is up.
        A replica dials the lower ids, so in this order every dial finds a
        listener; started together, some dials miss and sleep out the 50 ms
        reconnect backoff, which made set-up time bimodal. Retries with new
        ports when a port turned out to be taken. Returns the set-up time in
        seconds."""
        for _ in range(attempts):
            t0 = time.monotonic()
            deadline = t0 + 20.0
            if self._launch(deadline) and self._poll(deadline, self._meshed):
                return time.monotonic() - t0
            self.stop()
        raise BenchError("cluster did not come up after %d attempts" % attempts)

    def _launch(self, deadline):
        ports = free_ports(2 * self.n)
        self.metrics_ports = ports[self.n:]
        self.manifest = os.path.join(self.workdir, "cluster.conf")
        with open(self.manifest, "w") as f:
            for k, v in WIRE_MANIFEST.items():
                f.write("%s %s\n" % (k, v))
            for i in range(self.n):
                f.write("node %d 127.0.0.1:%d\n" % (i, ports[i]))
        self.procs = []
        for i in range(self.n):
            data = os.path.join(self.workdir, "data%d" % i)
            shutil.rmtree(data, ignore_errors=True)
            cmd = [self.node_bin, "--manifest", self.manifest, "--id", str(i),
                   "--data-dir", data, "--fsync", "interval",
                   "--trace-sample", str(self.trace_sample), "--io-threads", "1",
                   "--metrics-addr", "127.0.0.1:%d" % self.metrics_ports[i]]
            if self.silence and i == SILENT:
                cmd += ["--byzantine", "silence"]
            out = open(os.path.join(self.workdir, "node%d.out" % i), "w")
            err = open(os.path.join(self.workdir, "node%d.err" % i), "w")
            self.procs.append(spawn(cmd, stdout=out, stderr=err))
            out.close()
            err.close()
            if not self._poll(deadline, lambda: self._healthy(i)):
                return False
        return True

    def _healthy(self, i):
        return http_get(self.metrics_ports[i], "/healthz", 0.5).strip() == "ok"

    def _meshed(self):
        for port in self.metrics_ports:
            peers = statusz(port)["peers"]
            if sum(1 for p in peers if p["connected"]) < self.n - 1:
                return False
        return True

    def _poll(self, deadline, ready):
        """Polls `ready` every millisecond until it holds (True) or a replica
        exited, most likely on a taken port, or the deadline passed (False)."""
        while time.monotonic() < deadline:
            if any(p.poll() is not None for p in self.procs):
                return False
            try:
                if ready():
                    return True
            except (OSError, ValueError, KeyError):
                pass
            time.sleep(0.001)
        return False

    def pids(self):
        return [p.pid for p in self.procs]

    def stop(self):
        stop(self.procs)

    def report(self, i):
        """key=value pairs of replica i's SIGTERM report."""
        out = {}
        with open(os.path.join(self.workdir, "node%d.out" % i)) as f:
            for line in f:
                for tok in line.split():
                    if "=" in tok:
                        k, v = tok.split("=", 1)
                        out[k] = v
        return out


class Edges:
    """What is sampled at one window edge of a wire run. In scraped runs the
    replicas also render /metrics and /statusz here; the CPU snapshot is
    taken after that at the start edge and before it at the end edge, so
    the window's CPU does not include it."""

    def __init__(self, cluster, scraped, start):
        if not start:
            self._cpu(cluster)
        self.threads = [thread_cpu(pid) for pid in cluster.pids()] if scraped else None
        self.metrics = [scrape(p) for p in cluster.metrics_ports] if scraped else None
        self.status = [statusz(p, traces=True) for p in cluster.metrics_ports] if scraped else None
        if start:
            self._cpu(cluster)

    def _cpu(self, cluster):
        self.t = time.monotonic()
        self.cpu = [proc_cpu(pid) for pid in cluster.pids()]


class QueuePoller(threading.Thread):
    """Polls every replica's send-queue gauge each 100 ms between the window
    markers and keeps the peak (the node exports no high-water mark). Only
    the --trace 1 runs poll, both of them, so obs.trace_overhead_frac
    compares runs under the same polling."""

    def __init__(self, cluster):
        super().__init__(daemon=True)
        self.ports = cluster.metrics_ports
        self.peak = 0.0
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(0.1):
            for port in self.ports:
                try:
                    self.peak = max(self.peak, stats.metric(
                        scrape(port), "leopard_net_send_queue_bytes"))
                except (OSError, ValueError):
                    pass


def wait_converged(cluster, timeout=20.0):
    """After the load stops, waits until the honest replicas agree on
    executed_through and exec_digest, and still agree on the same values
    0.3 s later (the flush timers of the last partial batches have fired by
    then). Returns their last /statusz documents and whether they agreed."""
    settle = (WIRE_MANIFEST["datablock_max_wait_ms"] + WIRE_MANIFEST["proposal_max_wait_ms"]) / 1e3
    time.sleep(settle)
    deadline = time.monotonic() + timeout
    agreed = None
    while True:
        docs = {i: statusz(cluster.metrics_ports[i]) for i in cluster.honest()}
        state = {(d["executed_through"], d["exec_digest"]) for d in docs.values()}
        if len(state) == 1:
            if agreed == state:
                return docs, True
            agreed = state
            time.sleep(0.3)
            continue
        agreed = None
        if time.monotonic() > deadline:
            return docs, False
        time.sleep(0.05)


def wire_once(load_bin, node_bin, workdir, silence, seed, seconds, scraped, trace_sample):
    """One wire run: set up (SETUP_REPS times), drive, check, tear down.
    `scraped` runs read /metrics, /statusz and per-thread CPU at the window
    edges and poll the send queue in between; end-to-end runs do neither."""
    sample_path = os.path.join(workdir, "sample.txt")
    setup_times = []
    for _ in range(SETUP_REPS - 1):
        c = Cluster(node_bin, workdir, silence, trace_sample)
        setup_times.append(c.start())
        c.stop()
    cluster = Cluster(node_bin, workdir, silence, trace_sample)
    setup_times.append(cluster.start())
    try:
        driver = spawn([load_bin, "drive", "--manifest", cluster.manifest,
                        "--window-s", str(seconds), "--seed", str(seed),
                        "--out", sample_path],
                       stdout=subprocess.PIPE, text=True)
        edges = {}
        poller = QueuePoller(cluster)
        last = ""
        for line in driver.stdout:
            line = line.strip()
            if line == "window_start":
                edges["start"] = Edges(cluster, scraped, start=True)
                if scraped:
                    poller.start()
            elif line == "window_end":
                poller.done.set()
                if scraped:
                    poller.join()
                edges["end"] = Edges(cluster, scraped, start=False)
            elif line:
                last = line
        if driver.wait() != 0 or "end" not in edges:
            raise BenchError("e2e_load drive failed (exit %s)" % driver.returncode)
        drive = json.loads(last)

        docs, converged = wait_converged(cluster)
        final = [scrape(p) for p in cluster.metrics_ports]
    finally:
        cluster.stop()
    reports = [cluster.report(i) for i in range(cluster.n)]
    return {"setup_times": setup_times, "drive": drive, "edges": edges,
            "docs": docs, "converged": converged, "final": final,
            "reports": reports, "sample_path": sample_path,
            "queue_peak": poller.peak,
            "cluster": cluster}


def wire_e2e(r):
    lat, late, acked_of_due = stats.read_latency_sample(r["sample_path"])
    s = stats.latency_summary(lat, late)
    d = r["drive"]
    e0, e1 = r["edges"]["start"], r["edges"]["end"]
    window_wall = e1.t - e0.t
    replica_cpu = [b - a for a, b in zip(e0.cpu, e1.cpu)]
    e2e = {
        "commit_kreqs": d["acks_in_window"] / d["window_s"] / 1e3,
        "commit_p50_ms": s["p50_ms"],
        "commit_p999_ms": s["p999_ms"],
        "acked_frac": acked_of_due / max(d["due_in_window"], 1),
        "cpu_us_per_req": sum(replica_cpu) * 1e6 / max(d["acks_in_window"], 1),
        "setup_s": statistics.median(r["setup_times"]),
    }
    return e2e, s, replica_cpu, window_wall


def wire_checks(r, silence):
    failures = []
    if not r["converged"]:
        failures.append("wire: honest replicas did not converge: " + ", ".join(
            "r%d through=%s digest=%s" % (i, d["executed_through"], d["exec_digest"][:12])
            for i, d in sorted(r["docs"].items())))
    cluster = r["cluster"]
    for i in cluster.honest():
        if stats.metric(r["final"][i], "leopard_safety_violation") != 0:
            failures.append("wire: replica %d reports a safety violation" % i)
    digests = {r["reports"][i].get("exec_digest") for i in cluster.honest()}
    if len(digests) != 1 or None in digests:
        failures.append("wire: honest replicas ended with exec_digests %s" % sorted(map(str, digests)))
    if not silence:
        errors = sum(stats.metric(m, "leopard_net_decode_errors_total") for m in r["final"])
        if errors or r["drive"]["decode_errors"]:
            failures.append("wire-normal: %d decode errors" % errors)
    if r["drive"]["due_in_window"] == 0:
        failures.append("wire: no request due in the window")
    return failures


def wire_layers(r, e2e, replica_cpu, window_wall, summary, silence, untraced_cpu_per_req):
    e0, e1 = r["edges"]["start"], r["edges"]["end"]
    d = r["drive"]
    committed = max(d["acks_in_window"], 1)
    kreqs = committed / 1e3
    cluster = r["cluster"]
    honest = cluster.honest()
    followers = [i for i in honest if i != LEADER]
    m0, m1 = e0.metrics, e1.metrics

    def total(name, **labels):
        return sum(stats.metric_diff(a, b, name, **labels) for a, b in zip(m0, m1))

    def hist(name, p, **labels):
        return stats.histogram_quantile_diff(m0, m1, name, p, **labels)

    decodes = stats.metric_diff(m0[VICTIM], m1[VICTIM], "leopard_datablocks_recovered_total")
    erasure = r.get("erasure", {})
    lag = (e1.status[LEADER].get("executed_through", 0)
           - e1.status[VICTIM].get("executed_through", 0))
    layers = {
        "node.cpu_us_per_req.leader": replica_cpu[LEADER] * 1e6 / committed,
        "node.cpu_us_per_req.follower":
            sum(replica_cpu[i] for i in followers) / len(followers) * 1e6 / committed,
        "node.busy_frac.max": max(replica_cpu) / window_wall,
        "commit_p99_ms": summary["p99_ms"],
        "driver.late_ms_p99": summary["late_p99_ms"],
        "driver.busy_frac": d["cpu_s"] / d["window_s"],
        "driver.resubmits_per_kreq": d["resubmits"] / kreqs,
        "net.frames_per_req": total("leopard_net_frames_sent_total") / committed,
        "net.bytes_per_req": total("leopard_net_bytes_sent_total") / committed,
        "net.writev_per_req": total("leopard_net_writev_calls_total") / committed,
        "net.copies_per_req": total("leopard_net_payload_copies_total") / committed,
        "net.shed_frames": total("leopard_net_frames_shed_total"),
        "net.decode_errors": total("leopard_net_decode_errors_total"),
        "net.queue_bytes_max": r["queue_peak"],
        "store.wal_append_us_p50": hist("leopard_wal_append_ns", 0.50) / 1e3,
        "store.wal_append_us_p99": hist("leopard_wal_append_ns", 0.99) / 1e3,
        "store.wal_fsync_ms_p50": hist("leopard_wal_fsync_ns", 0.50) / 1e6,
        "store.wal_fsync_ms_p99": hist("leopard_wal_fsync_ns", 0.99) / 1e6,
        "store.appends_per_kreq": total("leopard_wal_append_ns_count") / kreqs,
        "stage.generation_ms_p50": hist("leopard_request_stage_ns", 0.5, stage="generation") / 1e6,
        "stage.dissemination_ms_p50":
            hist("leopard_request_stage_ns", 0.5, stage="dissemination") / 1e6,
        "stage.agreement_ms_p50": hist("leopard_request_stage_ns", 0.5, stage="agreement") / 1e6,
        "erasure.encode_us_p50": erasure.get("encode_us_p50", 0.0) if decodes else 0.0,
        "erasure.decode_us_p50": erasure.get("decode_us_p50", 0.0) if decodes else 0.0,
        "erasure.decodes_per_kreq": decodes / kreqs,
        "core.recovered_per_kreq": decodes / kreqs,
        "core.victim_lag_blocks": lag,
        "store.sync_entries": float(r["reports"][VICTIM].get("sync_entries", 0)),
        "core.view_changes": max(stats.metric(m, "leopard_view_changes_total")
                                 for m in r["final"]),
        "chaos.suppressed_per_s": (
            stats.metric_diff(m0[SILENT], m1[SILENT], "leopard_chaos_byz_actions_total",
                              attack="silence", kind="suppressed") / window_wall
            if silence else 0.0),
        "obs.trace_overhead_frac": e2e["cpu_us_per_req"] / untraced_cpu_per_req - 1.0,
        "unacked_frac": 1.0 - e2e["acked_frac"],
    }
    threads = {}
    for i, (a, b) in enumerate(zip(e0.threads, e1.threads)):
        for name, sec in stats.cpu_diff(a, b).items():
            threads["r%d/%s" % (i, name)] = sec / window_wall
    log("wire: per-thread busy share of the window: " + ", ".join(
        "%s %.3f" % kv for kv in sorted(threads.items())))
    return layers


def run_wire(load_bin, node_bin, seed, seconds, trace, silence, workdir):
    """--trace 0: one unscraped run. --trace 1: two scraped runs, first
    with the stage tracer off, then with it on; the per-layer metrics come
    from the second, and obs.trace_overhead_frac compares the two."""
    name = "wire-silence" if silence else "wire-normal"
    base = wire_once(load_bin, node_bin, workdir, silence, seed, seconds,
                     scraped=bool(trace), trace_sample=0)
    e2e, summary, replica_cpu, window_wall = wire_e2e(base)
    failures = wire_checks(base, silence)
    d = base["drive"]
    log("%s seed=%d: rate %.0f req/s, window %.1f s, %d requests due, %d acked, "
        "%d resubmits, %d latency samples, p50 %.3f ms, p99 %.3f ms, p99.9 %.3f ms "
        "(n=%d each), lateness p99 %.3f ms, replica CPU %s s, setup %s s"
        % (name, seed, d["rate"], d["window_s"], d["due_in_window"], d["acked_of_due"],
           d["resubmits"], summary["samples"], summary["p50_ms"], summary["p99_ms"],
           summary["p999_ms"], summary["samples"], summary["late_p99_ms"],
           "/".join("%.2f" % c for c in replica_cpu),
           "/".join("%.3f" % t for t in base["setup_times"])))
    layers = {}
    if trace:
        traced = wire_once(load_bin, node_bin, workdir, silence, seed, seconds,
                           scraped=True, trace_sample=TRACE_SAMPLE)
        failures += wire_checks(traced, silence)
        t_e2e, t_summary, t_cpu, t_wall = wire_e2e(traced)
        traced["erasure"] = erasure_timing(load_bin, traced["cluster"].manifest)
        layers = wire_layers(traced, t_e2e, t_cpu, t_wall, t_summary, silence,
                             e2e["cpu_us_per_req"])
        dump_spans(traced)
        if not silence:
            sim, sim_failures = sim_layers(load_bin, seed, workdir)
            layers.update(sim)
            failures += sim_failures
    return {"e2e": e2e, "layers": layers, "failures": failures,
            "attempted": d["due_in_window"], "failed": d["due_in_window"] - d["acked_of_due"],
            "samples": summary["samples"]}


def erasure_timing(load_bin, manifest):
    out = subprocess.run([load_bin, "erasure", "--manifest", manifest],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def dump_spans(r):
    """Prints a few sampled request spans per replica from /statusz?traces=1
    of the traced run (read before shutdown, at the window end)."""
    for i, doc in enumerate(r["edges"]["end"].status):
        spans = doc.get("traces")
        if spans is None:
            continue
        log("spans r%d: %s" % (i, json.dumps(spans)[:2000]))


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def run_one(args):
    load_bin, node_bin = build()
    tmp_root = os.path.join(build_dir(), "runs")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=tmp_root)
    try:
        res = run_wire(load_bin, node_bin, args.seed, args.seconds, args.trace,
                       args.workload == "wire-silence", workdir)
    finally:
        reap_all()
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    chosen = res["layers"] if args.trace else res["e2e"]
    spec = load_spec()[kind]
    unknown = set(chosen) - {m["name"] for m in spec}
    if unknown or (not args.trace and len(chosen) != len(spec)):
        raise BenchError("metrics do not match BENCHMARK.json: %s" % sorted(unknown))
    metrics = {}
    for m in spec:
        name, unit = m["name"], m["unit"]
        value = chosen.get(name, 0.0)  # 0: this workload bypasses the layer
        metrics[name] = {"value": value, "unit": unit}
        count = " (n=%d)" % res["samples"] if name.startswith("commit_p") else ""
        log("  %-34s %16.6f %s%s" % (name, value, unit, count))
    for f in res["failures"]:
        log("CHECK FAILED: " + f)
    correct = not res["failures"]
    print(json.dumps({"correct": correct, "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}), flush=True)
    return 0 if correct else 1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_repeat(args):
    """Runs K seeds in fresh processes and prints each metric's quartiles."""
    values = {}
    for k in range(args.repeat):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed + k), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        p = spawn(cmd, stdout=subprocess.PIPE, text=True)
        out, _ = p.communicate()
        res = json.loads(out.strip().splitlines()[-1])
        if p.returncode != 0 or not res["correct"]:
            raise BenchError("run with seed %d failed" % (args.seed + k))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log("seed %d: %s" % (args.seed + k, json.dumps(
            {n: round(m["value"], 6) for n, m in res["metrics"].items()})))
    log("%-34s %14s %14s %14s %9s" % ("metric", "q1", "median", "q3", "iqr/med"))
    summary = {}
    for name, vals in values.items():
        q1, q2, q3 = stats.quartiles(vals)
        summary[name] = {"q1": q1, "median": q2, "q3": q3, "values": vals}
        log("%-34s %14.6f %14.6f %14.6f %9.4f" % (name, q1, q2, q3, stats.spread(vals)))
    print(json.dumps(summary), flush=True)
    return 0


def self_test():
    import unittest
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    return 0 if ok else 1


def on_sigterm(*_):
    # Exit through the cleanup in the finally blocks; a second SIGTERM must
    # not interrupt it and leave replicas or run directories behind.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        if args.repeat > 0:
            return run_repeat(args)
        return run_one(args)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        sys.stderr.write("run.py: %s\n" % e)
        return 1
    finally:
        reap_all()


if __name__ == "__main__":
    sys.exit(main())
