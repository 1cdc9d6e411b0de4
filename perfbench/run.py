#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the epgc library, the
epgc_serve/epgc_cluster binaries and the perfbench harness into
$CARGO_TARGET_DIR (default .bench_build), runs the workload, checks every
output, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(METRICS.md lists both). The exit code is non-zero when any output is
wrong or the build fails.

Workloads (see BENCHMARK.json for why each exists):
  paper-beam        closed loop, paper-size instances, beam partitioning
  scale-multilevel  closed loop, 1k-vertex instances, multilevel
  serve-zipf        open-loop steps, then a closed-loop one, against an
                    epgc_cluster, Zipf-hot traffic with cold compiles
"""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
COMPILE_WORKLOADS = ("paper-beam", "scale-multilevel")
WORKLOADS = COMPILE_WORKLOADS + ("serve-zipf",)
STAGES = ("partition", "subgraph", "schedule", "correction", "verify")

# serve-zipf traffic, step after step: an unmeasured warm-in at the low
# rate takes the cold cluster's first touches of the hot set; the low and
# mid steps are open-loop Poisson steps of the full mix and carry enough
# requests that at least ten lie beyond their p99. A step meets the p99
# limit when its p99 (failed requests count as infinitely late) is within
# SERVE_P99_LIMIT_MS, above the slowest cold class, its backlog does not
# grow, and the generator kept to the schedule. The saturation step is a
# closed loop of hot-set picks, one outstanding request per connection;
# its completion rate is the per-layer serve.sustained_rps. No rate of
# this cluster held steady enough for an end-to-end bound (METRICS.md).
SERVE_LOW_RPS, SERVE_MID_RPS = 100, 400
SERVE_WARMIN = 300
SERVE_MID_REQUESTS = 1000
SERVE_SAT_REQUESTS = 20000
SERVE_P99_LIMIT_MS = 2500.0
# The traffic mix is assumed; no request trace of the service exists. The
# Zipf exponent is the upper end of what Breslau et al. measured on web
# proxy traces ("Web Caching and Zipf-like Distributions", INFOCOM 1999:
# 0.64-0.83). The cold share, 5 of every 1600 requests bringing a graph the
# cluster has never seen, has no public source.
SERVE_MIX = {"block": 1600, "cold": 3, "edit": 1, "batch": 1}
SERVE_ZIPF_S = 0.8
SERVE_PREWARM_FROM = 8  # hot ranks from here on start in the store
# The cold-compile probe runs in rounds of one graph per cold class and
# reports the median round: host speed on a shared machine swings 10-20 %
# within seconds, so a single round moves with the moment it ran in.
PROBE_ROUNDS = 3
LATE_VOID_MS = 10.0
UNBOUNDED_BUDGET_MS = 1e15  # kUnboundedBudgetMs, what --deterministic sets
MIN_STAGE_COVER = 0.95

def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


# ---- build -------------------------------------------------------------

def build(build_dir):
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("run from the repository root: no CMakeLists.txt/src here")
    jobs = str(min(len(os.sched_getaffinity(0)), 4))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "epgc_serve", "epgc_cluster"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd), 3)
    bins = {name: os.path.join(build_dir, sub, name) for name, sub in
            (("perfbench", ""), ("epgc_serve", "epgc"),
             ("epgc_cluster", "epgc"))}
    for path in bins.values():
        if not os.access(path, os.X_OK):
            fail("missing binary " + path, 3)
    return bins


# ---- compile workloads ---------------------------------------------------

def run_compile_workload(bins, workload, seed, seconds, trace, work_dir):
    cmd = [bins["perfbench"], "compile", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", "--trace-out",
                os.path.join(work_dir, "%s-trace.json" % workload)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    try:
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("perfbench compile printed no result (exit %d)" % proc.returncode)
    failed = raw["failed"] + raw["replay_failed"]
    attempted = raw["attempted"]
    correct = proc.returncode == 0 and failed == 0
    if trace:
        layers = compile_layers(raw)
        if layers["trace.stage_cover"] < MIN_STAGE_COVER:
            log("stage spans cover %.3f of the untraced compile wall"
                % layers["trace.stage_cover"])
            correct = False
        return correct, attempted, failed, layers
    insts = raw["instances"]
    per_instance = [stats.median(i["ms"]) for i in insts]
    metrics = {
        "setup_s": stats.median(raw["setup_s"]),
        "compile_ms_geomean": stats.geomean(per_instance),
        "compile_s_total": sum(per_instance) / 1000.0,
        "ee_cnot_total": sum(i["ee_cnot"] for i in insts),
        "duration_tau_total": sum(i["duration_tau"] for i in insts),
        "t_loss_tau_total": sum(i["t_loss_tau"] for i in insts),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_share": 1.0 - min(failed, attempted) / attempted,
        # CPU of both lanes per compile.
        "cpu_ms_per_op": raw["cpu_ms"] / sum(len(i["ms"]) for i in insts),
    }
    return correct, attempted, failed, metrics


def compile_layers(raw):
    """Per-layer metrics of a traced compile run. Stage times are per
    sweep of the instance set. The stage cover is, compile by compile, the
    five stage spans over the untraced compile_framework wall of the same
    instance next to it, and its median over the compiles, which one
    compile slowed by the host cannot move."""
    lay = raw["layers"]
    out = {}
    for s in STAGES:
        out["%s.self_ms" % s] = lay["%s_ms" % s]
        two = lay["%s_ms" % s]
        out["runtime.parallel_eff.%s" % s] = (
            lay["%s_ms_1lane" % s] / (2.0 * two) if two > 0 else 0.0)
    out.update({
        "partition.lc_ops": lay["lc_ops"],
        "partition.parts": lay["parts"],
        "partition.stems": lay["stems"],
        "subgraph.dfs_nodes": lay["dfs_nodes"],
        "subgraph.memo_reuse": 1.0 - lay["part_entries"] / lay["parts"],
        "schedule.ladder_fallbacks": lay["ladder_fallbacks"],
        "schedule.emitter_util": lay["emitter_busy"] / lay["emitter_capacity"],
        "trace.overhead_share":
            sum(lay["traced_ms"]) / sum(lay["untraced_ms"]) - 1.0,
        "trace.stage_cover": stats.median(
            [s / u for s, u in zip(lay["stages_ms"], lay["untraced_ms"])]),
        "serve.p50_ms": stats.median(lay["untraced_ms"]),
        "serve.p99_ms": stats.tail_percentile(lay["untraced_ms"])[1],
        "check.replay_ms": raw["replay_ms"],
    })
    return out


# ---- serve-zipf ----------------------------------------------------------

class Cluster:
    """One epgc_cluster on an ephemeral TCP port; stopped on exit."""

    def __init__(self, bins, work_dir, store_dir, workers, max_queue,
                 deterministic):
        self.rt = os.path.join(work_dir, "rt")
        self.err_path = os.path.join(work_dir, "cluster.err")
        self.err = open(self.err_path, "w")
        self.proc = subprocess.Popen(
            [bins["epgc_cluster"], "--tcp", "127.0.0.1:0", "--workers",
             str(workers), "--jobs", "1", "--max-queue", str(max_queue),
             "--store-dir", store_dir, "--runtime-dir",
             os.path.relpath(self.rt), "--worker-bin", bins["epgc_serve"]]
            + (["--deterministic"] if deterministic else []),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.err, start_new_session=True)
        self.port = self._wait_port()
        self.sock = socket.create_connection(("127.0.0.1", self.port))
        self.buf = b""

    def _wait_port(self):
        deadline = time.time() + 30
        while time.time() < deadline:
            if self.proc.poll() is not None:
                break
            with open(self.err_path) as f:
                for line in f:
                    if "listening on" in line:
                        return int(line.strip().rsplit(":", 1)[1])
            time.sleep(0.005)
        self.stop()
        fail("epgc_cluster did not come up")

    def call(self, req):
        self.sock.sendall((json.dumps(req) + "\n").encode())
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise RuntimeError("cluster closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def pids(self):
        """The front's pid and its workers'. Health reports a worker as
        busy, without its pid, while the front's liveness probe holds it,
        so ask again until every worker has answered with one."""
        deadline = time.time() + 10
        while True:
            workers = self.call({"op": "health", "id": "h"})["workers"]
            if all("pid" in w for w in workers) or time.time() > deadline:
                return [self.proc.pid] + [w["pid"] for w in workers]
            time.sleep(0.01)

    def peak_rss_mb(self):
        """Peak RSS (VmHWM) of the front and its workers, the largest."""
        peak = 0.0
        for pid in self.pids():
            with open("/proc/%d/status" % pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
        return peak

    def stop(self):
        try:
            self.call({"op": "shutdown", "id": "bye"})
        except (OSError, RuntimeError, ValueError, AttributeError):
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:  # workers the front failed to reap share its process group
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if getattr(self, "sock", None):
            self.sock.close()
        self.err.close()


def procs_cpu_ms(pids):
    """CPU time, user plus system, of processes `pids` so far, all their
    threads (/proc/<pid>/stat fields 14 and 15)."""
    ticks = 0
    for pid in pids:
        with open("/proc/%d/stat" % pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()  # name may hold spaces
        ticks += int(fields[11]) + int(fields[12])
    return ticks * 1000.0 / os.sysconf("SC_CLK_TCK")


def prewarm_store(bins, store_dir, graphs, workers, deterministic, spec):
    """Compile `graphs` into the store with a one-shot epgc_serve."""
    lines = json.dumps({"op": "batch", "id": 0,
                        "jobs": [dict(graph=g, **spec) for g in graphs]})
    lines += "\n" + json.dumps({"op": "shutdown"}) + "\n"
    proc = subprocess.run(
        [bins["epgc_serve"], "--store-dir", store_dir, "--jobs",
         str(workers)] + (["--deterministic"] if deterministic else []),
        input=lines, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=120)
    first = json.loads(proc.stdout.splitlines()[0])
    if proc.returncode or not first.get("ok") or first.get("failures"):
        fail("store pre-warm failed")


def read_pool(path):
    with open(path) as f:
        return [line.strip() for line in f if line.strip()]


def step_rows(rows, step):
    """(latency, lateness, sent, received) per request of one step, in ms;
    sent and received from the step's start. Failed requests count as
    infinitely late."""
    out = []
    for r in rows:
        if r[0] == step:
            due = r[7]
            out.append((r[4] if r[3] else float("inf"), r[5], due + r[5],
                        due + r[4] if r[4] >= 0 else float("inf")))
    return out


def step_stats(reqs, rate):
    """Latency percentiles of one rate step, the generator's p99 lateness,
    and how much the backlog grew: the mean number of outstanding requests
    at the sends of the step's last quarter minus that of its second
    quarter."""
    sent = [s for _, _, s, _ in reqs]

    def backlog(lo, hi):
        ts = sent[len(sent) * lo // 4:len(sent) * hi // 4]
        return sum(sum(1 for _, _, s, r in reqs if s <= t < r)
                   for t in ts) / max(1, len(ts))
    growth = backlog(3, 4) - backlog(1, 2)
    lat = [x for x, _, _, _ in reqs]
    pct, p99 = stats.tail_percentile(lat)
    late = stats.tail_percentile([x for _, x, _, _ in reqs])[1]
    return {"rate": rate, "requests": len(reqs), "pct": pct,
            "p50": stats.median(lat), "p99": p99, "late": late,
            "growth": growth,
            "ok": p99 <= SERVE_P99_LIMIT_MS and late <= LATE_VOID_MS
            and growth <= max(10.0, 0.05 * len(reqs))}


def completion_rps(reqs):
    """Responses per second of a step: the middle 80 % of its responses
    over the time between the first and the last of them. Trimming both
    ends keeps the ramp-up and a last straggler (one delayed TCP
    acknowledgement is 40 ms) out of the rate."""
    done = sorted(r for _, _, _, r in reqs)
    lo, hi = len(done) // 10, len(done) - 1 - len(done) // 10
    return (hi - lo) * 1000.0 / (done[hi] - done[lo])


def run_serve_workload(bins, seed, seconds, trace, work_dir):
    # The traced run serves without --deterministic, so that responses
    # carry the worker's compute_ms and the time a request spent queued in
    # the cluster can be read off; every compile spec lifts the partition
    # budget itself, as --deterministic would.
    deterministic = not trace
    spec = {} if deterministic else {"budget_ms": UNBOUNDED_BUDGET_MS}
    # The low step fills what the measuring time leaves after the probe
    # and the other steps (about 17 s), but never carries fewer requests
    # than put ten beyond its p99.
    low = max(SERVE_MID_REQUESTS, int(SERVE_LOW_RPS * (seconds - 17)))
    ladder = [(SERVE_LOW_RPS, SERVE_WARMIN, True), (SERVE_LOW_RPS, low, True),
              (SERVE_MID_RPS, SERVE_MID_REQUESTS, True),
              (None, SERVE_SAT_REQUESTS, False)]
    cpus = len(os.sched_getaffinity(0))
    workers = max(1, cpus - 1)
    pool_dir = os.path.join(work_dir, "pools")
    os.makedirs(pool_dir)
    subprocess.run([bins["perfbench"], "gen-serve", "--seed", str(seed),
                    "--probe-rounds", str(PROBE_ROUNDS), "--out", pool_dir],
                   check=True)
    pools = {k: read_pool(os.path.join(pool_dir, k + ".g6"))
             for k in ("hot", "fresh", "edit", "probe")}
    classes = len(pools["probe"]) // PROBE_ROUNDS
    schedule = stats.serve_schedule(seed, pools, classes, ladder, SERVE_MIX,
                                    SERVE_ZIPF_S, spec)
    sched_path = os.path.join(work_dir, "schedule.txt")
    with open(sched_path, "w") as f:
        for step, due, kind, line in schedule:
            f.write("%d %.6f %s %s\n" % (step, due, kind, line))

    # Set-up, three times for a median: pre-warm a fresh store with all but
    # the most popular hot graphs, spawn the measured cluster cold, first
    # ping.
    setup = []
    cluster = None
    try:
        for _ in range(3):
            if cluster:
                cluster.stop()
                cluster = None
            store = os.path.join(work_dir, "store")
            shutil.rmtree(store, ignore_errors=True)
            os.makedirs(store)
            t0 = time.perf_counter()
            prewarm_store(bins, store, pools["hot"][SERVE_PREWARM_FROM:],
                          workers, deterministic, spec)
            # The admission queues hold the whole schedule: behind a 2 s
            # cold compile the mid step's backlog reaches some 800
            # requests, and the step is to measure the wait, not refusals.
            cluster = Cluster(bins, work_dir, store, workers,
                              2 * len(schedule), deterministic)
            if not cluster.call({"op": "ping", "id": 0}).get("ok"):
                fail("cluster ping failed")
            setup.append(time.perf_counter() - t0)

        # Cold-compile latency through the cluster, unloaded: rounds of one
        # graph of each cold class at a time, each never seen before; per
        # round its latencies and the cluster's CPU per compile.
        rounds = []
        pids = cluster.pids()
        for r in range(PROBE_ROUNDS):
            lat = []
            cpu_ms = -procs_cpu_ms(pids)
            for g in pools["probe"][r * classes:(r + 1) * classes]:
                t0 = time.perf_counter()
                res = cluster.call(dict(op="compile", id="p", graph=g,
                                        **spec))
                lat.append((time.perf_counter() - t0) * 1000.0)
                if not (res.get("ok") and res.get("verified")
                        and res.get("tier") == "compiled"):
                    fail("probe compile failed: " + json.dumps(res)[:200], 1)
            cpu_ms += procs_cpu_ms(pids)
            rounds.append((lat, cpu_ms / classes))

        proc = subprocess.run(
            [bins["perfbench"], "loadgen", "--port", str(cluster.port),
             "--schedule", sched_path, "--connections", str(min(cpus, 8))],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=120)
        with open(os.path.join(work_dir, "loadgen.json"), "w") as f:
            f.write(proc.stdout)
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        front_stats = cluster.call({"op": "stats", "id": "s"})
        front_metrics = cluster.call({"op": "metrics", "id": "m"})
        rss = cluster.peak_rss_mb()
    finally:
        if cluster:
            cluster.stop()

    rows = raw["requests"]
    attempted = len(rows) + len(pools["probe"])
    failed = raw["failed"]
    correct = (proc.returncode == 0 and raw["drained"] and failed == 0
               and raw["replay_failed"] == 0)
    low_reqs = step_rows(rows, 1)
    steps = [step_stats(low_reqs, SERVE_LOW_RPS),
             step_stats(step_rows(rows, 2), SERVE_MID_RPS)]
    sat = completion_rps(step_rows(rows, 3))
    for lat, _ in rounds:
        log("probe_ms: " + " ".join("%.1f" % x for x in lat))
    log("steps: " + json.dumps(steps) + " saturation_rps %.1f" % sat)
    low_rows = [r for r in rows if r[0] == 1]
    if trace:
        return correct, attempted, failed, serve_layers(
            raw, rows, low_rows, steps, sat, front_stats, front_metrics)
    metrics = {
        "setup_s": stats.median(setup),
        "compile_ms_geomean": stats.median(
            [stats.geomean(lat) for lat, _ in rounds]),
        "compile_s_total": stats.median(
            [sum(lat) for lat, _ in rounds]) / 1000.0,
        "ee_cnot_total": raw["ee_cnot_total"],
        "duration_tau_total": raw["duration_tau_total"],
        "t_loss_tau_total": raw["t_loss_tau_total"],
        "peak_rss_mb": rss,
        "ok_share": 1.0 - min(failed, attempted) / attempted,
        # Cluster CPU per probe compile.
        "cpu_ms_per_op": stats.median([cpu for _, cpu in rounds]),
    }
    return correct, attempted, failed, metrics


def queue_waits(rows):
    """Per answered request, the time it spent in the cluster outside its
    worker's compute: send-to-response latency minus the compute_ms the
    worker reports (front executors waiting on a busy worker, the worker's
    admission queue, transport)."""
    return [r[4] - r[5] - r[6] for r in rows if r[3] and r[6] >= 0]


def serve_layers(raw, rows, low_rows, steps, sat, front_stats,
                 front_metrics):
    compute = front_metrics["aggregate"]["histograms"][
        "epgc_request_latency_ms"]
    workers = front_stats["workers"]
    jobs = [w["jobs"] for w in workers]
    store = {k: sum(w.get("store", {}).get(k, 0) for w in workers)
             for k in ("hits", "misses", "puts")}
    agg = front_stats["aggregate"]
    hits = [r[4] for r in low_rows if r[2] == "memory" and r[3]]
    cold = [r[4] for r in low_rows if r[2] == "compiled" and r[3]]
    passing = [s["rate"] for s in steps if s["ok"]]
    return {
        "serve.p50_ms": steps[0]["p50"],
        "serve.p99_ms": steps[0]["p99"],
        "serve.hit_p50_ms": stats.median(hits),
        "serve.cold_p50_ms": stats.median(cold),
        "serve.sustained_rps": sat,
        "serve.limit_rps": max(passing) if passing else 0.0,
        "serve.mid_p99_ms": steps[1]["p99"],
        "service.queue_wait_ms_p99":
            stats.tail_percentile(queue_waits(low_rows))[1],
        "service.compute_ms_p99": stats.hist_percentile(
            compute["le"], compute["buckets"], 0.99),
        "cluster.route_imbalance": max(jobs) / (sum(jobs) / len(jobs)),
        "batch.hit_share": agg["cache_hits"] / agg["jobs"],
        "batch.tier.compiled": agg["compiled"],
        "batch.tier.memory": agg["memory_hits"],
        "batch.tier.store": agg["store_hits"],
        "batch.tier.dedup": agg["dedup_hits"],
        "store.hits": store["hits"],
        "store.misses": store["misses"],
        "store.puts": store["puts"],
        "service.rejected": front_stats["rejected"] + agg["rejected"],
        "service.expired": front_stats["expired"] + agg["expired"],
        "cluster.respawns": front_stats["respawns"],
        "loadgen.late_ms_p99": stats.tail_percentile([r[5] for r in rows])[1],
        "loadgen.backlog_growth": steps[0]["growth"],
        "check.replay_ms": raw["replay_ms"],
    }


# ---- main ----------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bins = build(build_dir)
    work_dir = os.path.join(build_dir, "work-%s" % args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    if args.workload in COMPILE_WORKLOADS:
        correct, attempted, failed, metrics = run_compile_workload(
            bins, args.workload, args.seed, args.seconds, args.trace,
            work_dir)
    else:
        correct, attempted, failed, metrics = run_serve_workload(
            bins, args.seed, args.seconds, args.trace, work_dir)

    with open("BENCHMARK.json") as f:
        catalog = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in catalog}
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                           "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
