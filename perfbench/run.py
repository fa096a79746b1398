#!/usr/bin/env python3
"""End-to-end benchmark of hetesim_cli and hetesim_serve.

Run from the repository root:

    python3 perfbench/run.py --workload serve_hot --seed 11 --seconds 20 --trace 0

It builds the binaries from source (into $CARGO_TARGET_DIR, default
.bench_build), writes a fresh DBLP-style reference graph for the seed into a
fresh directory under .bench_runs, runs one workload against the real
binaries, checks a fixed sample of the answers against an exhaustive oracle,
and prints one JSON object as its last line of output. --trace 1 adds an
in-process replay of the same requests and reports the per-layer metrics and
the ledger instead of the end-to-end ones. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cli_oneshot", "serve_hot", "serve_adhoc")
# The reference graph: 120,620 nodes and 720,022 edges at seed 11.
GRAPH_ARGS = ["--dataset", "dblp", "--papers", "80000", "--authors", "40000"]
SETUP_REPEATS = 3
HOT_REPLAY = 1000  # serve_hot requests per connection the traced run replays
CLI_TOLERANCE = 5.0001e-7  # hetesim_cli prints scores with %.6f


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def percentile(values, q):
    """Nearest-rank percentile, q in [0, 1]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


median = statistics.median


# --- build -------------------------------------------------------------------


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("the repository sources are not next to perfbench/")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "hetesim_cli", "hetesim_serve", "perfbench_tool"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(step))
    build_type = "unknown"
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return {
        "cli": os.path.join(build_dir, "hetesim", "tools", "hetesim_cli"),
        "serve": os.path.join(build_dir, "hetesim", "tools", "hetesim_serve"),
        "tool": os.path.join(build_dir, "perfbench_tool"),
        "build_type": build_type,
    }


# --- processes ---------------------------------------------------------------


class Run:
    """One run's directory, binaries and child processes."""

    def __init__(self, bins, workload, seed, seconds):
        self.bins = bins
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        runs = os.path.join(ROOT, ".bench_runs")
        os.makedirs(runs, exist_ok=True)
        self.dir = os.path.join(runs, "%s-%d-%d" % (workload, seed, os.getpid()))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.servers = []

    def path(self, name):
        return os.path.join(self.dir, name)

    def close(self):
        for server in self.servers:
            if server.poll() is None:
                server.kill()
            server.wait()
        shutil.rmtree(self.dir, ignore_errors=True)

    def call(self, argv, timeout=120):
        done = subprocess.run(argv, cwd=self.dir, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout,
                              check=False)
        if done.returncode != 0:
            log(done.stderr[-2000:])
            raise BenchError("%s exited %d" % (os.path.basename(argv[0]),
                                               done.returncode))
        return done.stdout

    def tool(self, *args, timeout=120):
        out = self.call([self.bins["tool"]] + list(args), timeout=timeout)
        return json.loads(out.strip().splitlines()[-1])

    def generate_graph(self, name):
        self.call([self.bins["cli"], "generate"] + GRAPH_ARGS +
                  ["--seed", str(self.seed), "--out", name])

    def copy_graph(self, source, name):
        shutil.copyfile(self.path(source), self.path(name))

    def spawn_cli(self, argv, out_name):
        """Runs one hetesim_cli process; returns (wall ms, peak RSS MB, exit)."""
        out_fd = os.open(self.path(out_name), os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        try:
            start = time.perf_counter()
            pid = os.posix_spawn(self.bins["cli"], [self.bins["cli"]] + argv,
                                 os.environ, file_actions=[
                                     (os.POSIX_SPAWN_DUP2, out_fd, 1),
                                     (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
                                 ])
            _, status, usage = os.wait4(pid, 0)
            wall_ms = 1e3 * (time.perf_counter() - start)
        finally:
            os.close(out_fd)
        return wall_ms, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)

    def start_server(self, graph, store_dir=None):
        """Spawns hetesim_serve; returns (process, ms until it listens)."""
        socket_path = "s.sock"
        if os.path.exists(self.path(socket_path)):
            os.unlink(self.path(socket_path))
        argv = [self.bins["serve"], "--graph", graph, "--socket", socket_path,
                "--metrics-out", "metrics.prom"]
        if store_dir is not None:
            argv += ["--store-dir", store_dir]
        start = time.perf_counter()
        server = subprocess.Popen(argv, cwd=self.dir, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
        self.servers.append(server)
        deadline = time.monotonic() + 120
        while True:
            ready, _, _ = select.select([server.stdout], [], [],
                                        max(0.0, deadline - time.monotonic()))
            line = server.stdout.readline() if ready else ""
            if line.startswith("listening on"):
                return server, 1e3 * (time.perf_counter() - start)
            if not ready or line == "":
                raise BenchError("hetesim_serve did not start")

    def stop_server(self, server):
        """SIGTERMs the server; returns (VmHWM MB, shutdown counters)."""
        with open("/proc/%d/status" % server.pid) as status:
            hwm_kb = next(int(line.split()[1]) for line in status
                          if line.startswith("VmHWM:"))
        server.send_signal(signal.SIGTERM)
        out, _ = server.communicate(timeout=60)
        if server.returncode != 0:
            raise BenchError("hetesim_serve exited %d" % server.returncode)
        counters = {}
        match = re.search(r"served=(\d+) rejected=(\d+) shed=(\d+) degraded=(\d+)", out)
        if match:
            counters = dict(zip(("served", "rejected", "shed", "degraded"),
                                map(int, match.groups())))
        with open(self.path("metrics.prom")) as prom:
            for line in prom:
                if line.startswith("hetesim_"):
                    name, value = line.split()[:2]
                    counters[name] = float(value)
        return hwm_kb / 1024.0, counters


def read_records(path):
    """perfbench_tool send records: conn seq kind phase lat queue exec codec ok."""
    records = []
    with open(path) as lines:
        for line in lines:
            f = line.split()
            records.append({
                "kind": f[2], "phase": f[3], "latency": float(f[4]),
                "queue": float(f[5]), "exec": float(f[6]), "codec_us": float(f[7]),
                "ok": f[8] == "1",
            })
    return records


# --- workloads ---------------------------------------------------------------


def parse_cli_answer(request, out_path):
    """The answer line for perfbench_tool check, or None if unparseable."""
    with open(out_path) as out:
        text = out.read()
    if "[truncated" in text:
        return None
    conn, seq, kind = request["conn"], request["seq"], request["kind"]
    if kind == "pair":
        match = re.search(r"\) = ([0-9.eE+-]+)", text)
        if not match:
            return None
        return "n %s %s %r score 1 %s\n" % (conn, seq, CLI_TOLERANCE, match.group(1))
    items = re.findall(r"^\s*\d+\.\s+(\S+)\s+([0-9.eE+-]+)\s*$", text, re.M)
    if "candidates examined" not in text:
        return None
    tokens = " ".join("%s %s" % item for item in items)
    return "n %s %s %r list %d %s\n" % (conn, seq, CLI_TOLERANCE, len(items), tokens)


def cli_argv(request, graph):
    argv = ["pair" if request["kind"] == "pair" else "topk", "--graph", graph,
            "--path", request["path"], "--source", request["source_name"]]
    if request["kind"] == "pair":
        argv += ["--target", request["target_name"]]
    else:
        argv += ["--k", str(request["k"])]
    return argv


def read_schedule(path):
    requests = []
    with open(path) as lines:
        for line in lines:
            f = line.split()
            if f[0] == "r":
                requests.append({
                    "conn": int(f[1]), "seq": int(f[2]), "phase": f[3], "kind": f[4],
                    "path": f[5], "k": int(f[8]), "source_name": f[9],
                    "target_name": f[10]})
    return requests


def run_cli_oneshot(run, result):
    schedule = read_schedule(run.path("schedule.txt"))
    warm = [r for r in schedule if r["phase"] == "warm"]
    timed = [r for r in schedule if r["phase"] == "timed"]
    setup_ms = []
    graph = None
    for rep in range(SETUP_REPEATS):
        # Each repetition starts from a freshly written graph file, so a
        # one-time conversion of it would land in set-up.
        graph = "graph_%d.hin" % rep
        run.copy_graph("graph.hin", graph)
        wall, _, code = run.spawn_cli(cli_argv(warm[rep], run.path(graph)), "warm.out")
        if code != 0:
            raise BenchError("warm-up invocation exited %d" % code)
        setup_ms.append(wall)

    samples = []
    answers = []
    failed = 0
    start = time.perf_counter()
    deadline = start + run.seconds
    while time.perf_counter() < deadline:
        # A run that outlasts the list starts it over.
        request = timed[len(samples) % len(timed)]
        wall, rss, code = run.spawn_cli(cli_argv(request, run.path(graph)), "out.txt")
        answer = parse_cli_answer(request, run.path("out.txt")) if code == 0 else None
        if answer is None:
            failed += 1
        elif len(samples) < len(timed):
            answers.append(answer)
        samples.append({"kind": request["kind"], "path": request["path"],
                        "latency": wall, "rss": rss})
    elapsed = time.perf_counter() - start
    with open(run.path("answers.txt"), "w") as out:
        out.writelines(answers)
    check = run.tool("check", "--graph", "graph.hin", "--schedule", "schedule.txt",
                     "--answers", "answers.txt")

    latencies = [s["latency"] for s in samples]
    by_kind = {k: [s["latency"] for s in samples if s["kind"] == k]
               for k in ("topk", "pair", "single")}
    result.attempted = len(samples)
    result.failed = failed + check["mismatches"]
    result.check = check
    result.metrics = {
        "setup_s": median(setup_ms) / 1e3,
        "latency_ms_p50": median(latencies),
        "latency_ms_p90": percentile(latencies, 0.90),
        "topk_ms_p50": median(by_kind["topk"]),
        "pair_ms_p50": median(by_kind["pair"]),
        "single_ms_p50": median(by_kind["single"]),
        # Every invocation is a fresh process: the first request on its path.
        "cold_ms_p50": median(latencies),
        "throughput_qps": len(samples) / elapsed,
        "peak_rss_mb": max(s["rss"] for s in samples),
    }
    result.samples = samples
    result.count = len(samples)


def served_metrics(result, records, cold, setup_ms, elapsed, rss_mb):
    timed = [r for r in records if r["phase"] in ("timed", "cold", "hot")]
    latencies = [r["latency"] for r in timed]
    hot = [r for r in timed if r["phase"] != "cold"]
    by_kind = {k: [r["latency"] for r in hot if r["kind"] == k]
               for k in ("topk", "pair", "single")}
    result.metrics = {
        "setup_s": median(setup_ms) / 1e3,
        "latency_ms_p50": median(latencies),
        "latency_ms_p90": percentile(latencies, 0.90),
        "topk_ms_p50": median(by_kind["topk"]),
        "pair_ms_p50": median(by_kind["pair"]),
        "single_ms_p50": median(by_kind["single"]),
        "cold_ms_p50": median(cold),
        "throughput_qps": len(timed) / elapsed,
        "peak_rss_mb": rss_mb,
    }
    result.records = timed


def guard_server(result, counters, sent):
    """Every request the server saw was admitted and served in full."""
    bad = {name: counters.get(name, 0) for name in (
        "rejected", "shed", "degraded", "hetesim_service_rejected_total",
        "hetesim_service_shed_total", "hetesim_topk_truncated_total")}
    if any(bad.values()) or counters.get("served") != sent:
        raise BenchError("server counters: %r, served %r of %d" % (
            bad, counters.get("served"), sent))
    result.counters = counters
    result.server_requests = sent


def send(run, phase, seconds=None):
    args = ["send", "--schedule", "schedule.txt", "--socket", "s.sock", "--phase", phase,
            "--records", phase + ".rec", "--answers", phase + ".ans"]
    if seconds is not None:
        args += ["--seconds", repr(seconds)]
    summary = run.tool(*args, timeout=max(120, 3 * (seconds or 0)))
    if summary["failed"]:
        raise BenchError("%s phase: %s" % (phase, summary["first_failure"]))
    return summary, read_records(run.path(phase + ".rec"))


def run_serve_hot(run, result):
    setup_ms = []
    cold = []
    server = None
    for rep in range(SETUP_REPEATS):
        if server is not None:
            run.stop_server(server)
        graph = "graph_%d.hin" % rep
        run.copy_graph("graph.hin", graph)
        start = time.perf_counter()
        server, _ = run.start_server(graph)
        _, warm = send(run, "warm")
        setup_ms.append(1e3 * (time.perf_counter() - start))
        cold += [r["latency"] for r in warm]
    summary, records = send(run, "timed", run.seconds)
    rss_mb, counters = run.stop_server(server)
    guard_server(result, counters, summary["sent"] + len(warm))
    with open(run.path("answers.txt"), "w") as out:
        for phase in ("warm", "timed"):
            with open(run.path(phase + ".ans")) as answers:
                out.write(answers.read())
    check = run.tool("check", "--graph", "graph.hin", "--schedule", "schedule.txt",
                     "--answers", "answers.txt")
    result.attempted = summary["sent"]
    result.failed = check["mismatches"]
    result.check = check
    served_metrics(result, records, cold, setup_ms, summary["elapsed_s"], rss_mb)


def run_serve_adhoc(run, result):
    """Walks the ad-hoc paths on fresh servers, one walk per set-up, until
    --seconds have passed and at least SETUP_REPEATS walks are done."""
    with open(run.path("schedule.txt")) as lines:
        materialize = [line.split()[1] for line in lines if line.startswith("m ")]
    setup_ms, records, peak_rss, answers = [], [], [], []
    sent = 0
    walk_s = 0.0
    start = time.perf_counter()
    while len(setup_ms) < SETUP_REPEATS or time.perf_counter() - start < run.seconds:
        graph = "graph_%d.hin" % len(setup_ms)
        store = "store_%d" % len(setup_ms)
        run.copy_graph("graph.hin", graph)
        begin = time.perf_counter()
        run.call([run.bins["cli"], "materialize", "--graph", graph, "--store-dir", store,
                  "--paths", ",".join(materialize)])
        server, _ = run.start_server(graph, store)
        setup_ms.append(1e3 * (time.perf_counter() - begin))
        summary, walk = send(run, "walk")
        rss_mb, counters = run.stop_server(server)
        guard_server(result, counters, summary["sent"])
        records += walk
        peak_rss.append(rss_mb)
        sent += summary["sent"]
        walk_s += summary["elapsed_s"]
        with open(run.path("walk.ans")) as walk_answers:
            answers.append(walk_answers.read())
        os.remove(run.path(graph))
        shutil.rmtree(run.path(store))
    with open(run.path("answers.txt"), "w") as out:
        out.writelines(answers)
    check = run.tool("check", "--graph", "graph.hin", "--schedule", "schedule.txt",
                     "--answers", "answers.txt")
    result.attempted = sent
    result.failed = check["mismatches"]
    result.check = check
    cold = [r["latency"] for r in records if r["phase"] == "cold"]
    served_metrics(result, records, cold, setup_ms, walk_s, median(peak_rss))


# --- traced run --------------------------------------------------------------


def ledger_rows(workload, result, replay, layers):
    """(layer, self ms per request) rows summing towards the untraced mean."""
    per_request = dict(replay["ledger"])
    rows = []
    if workload == "cli_oneshot":
        # Each invocation starts a process, loads the graph and frees it.
        for name in ("tools.process", "datagen.load", "hin.release"):
            rows.append((name, layers[name + "_ms"]))
        e2e = [s["latency"] for s in result.samples]
    else:
        e2e = [r["latency"] for r in result.records]
        wire = statistics.fmean(r["latency"] - r["queue"] - r["exec"] for r in result.records)
        codec = per_request.pop("service.codec", 0.0)
        rows.append(("service.transport", wire - codec))
        rows.append(("service.codec", codec))
        rows.append(("service.queue", statistics.fmean(r["queue"] for r in result.records)))
    rows += sorted(per_request.items())
    return rows, statistics.fmean(e2e), median(e2e)


def traced_metrics(run, result):
    # The binaries' own process cost: spawn, start-up and exit, no work.
    tools_ms = median([run.spawn_cli(["help"], "help.out")[0] for _ in range(7)])
    # Loading, digesting and freeing the graph, each in a fresh process as
    # the binaries do it, on a freshly written copy.
    loads = []
    for rep in range(3):
        run.copy_graph("graph.hin", "load_%d.hin" % rep)
        loads.append(run.tool("load", "--graph", "load_%d.hin" % rep))
    count = result.count if run.workload == "cli_oneshot" else HOT_REPLAY
    run.copy_graph("graph.hin", "replay.hin")
    os.makedirs(run.path("replay"), exist_ok=True)
    replay = run.tool("replay", "--graph", "replay.hin", "--schedule", "schedule.txt",
                      "--scratch", "replay", "--count", str(count), timeout=150)
    if replay["failures"]:
        raise BenchError("replay: %d requests failed" % replay["failures"])
    layers = dict(replay["layers"])
    layers["tools.process_ms"] = tools_ms
    for name in ("load", "digest", "release"):
        layers[("datagen." if name == "load" else "hin.") + name + "_ms"] = median(
            [load[name + "_ms"] for load in loads])
    registry = replay["registry"]
    if run.workload == "cli_oneshot":
        service = replay["service"]
        for name, value in service.items():
            layers["service." + name] = value
        hits, misses = registry["cache_hits"], registry["cache_misses"]
        layers["core.cache_mb"] = registry["cache_bytes"] / 2**20
    else:
        records = result.records
        layers["service.transport_ms_p50"] = median(
            [r["latency"] - r["queue"] - r["exec"] for r in records])
        layers["service.queue_ms_p50"] = median([r["queue"] for r in records])
        for kind in ("pair", "single", "topk"):
            layers["service.exec_ms_p50." + kind] = median(
                [r["exec"] for r in records if r["kind"] == kind])
        counters = result.counters
        layers["service.admitted_share"] = (
            counters.get("hetesim_service_admitted_total", 0) / result.server_requests)
        hits = counters.get("hetesim_cache_hits_total", 0)
        misses = counters.get("hetesim_cache_misses_total", 0)
        layers["core.cache_mb"] = counters.get("hetesim_cache_accounted_bytes", 0) / 2**20
        if counters.get("hetesim_store_hits_total", 0) + counters.get(
                "hetesim_store_misses_total", 0) > 0:
            registry = {"store_hits": counters.get("hetesim_store_hits_total", 0),
                        "store_misses": counters.get("hetesim_store_misses_total", 0)}
    layers["core.cache_hit_share"] = hits / max(1, hits + misses)
    layers["store.hit_share"] = registry["store_hits"] / max(
        1, registry["store_hits"] + registry["store_misses"])

    rows, mean_ms, median_ms = ledger_rows(run.workload, result, replay, layers)
    attributed = sum(ms for _, ms in rows)
    layers["ledger.unattributed_share"] = (mean_ms - attributed) / mean_ms
    print("ledger %s (ms per request; %d requests replayed)" % (
        run.workload, replay["ledger_requests"]))
    for name, ms in sorted(rows, key=lambda row: -row[1]):
        print("  %-22s %10.4f  %5.1f%%" % (name, ms, 100 * ms / mean_ms))
    print("  %-22s %10.4f  %5.1f%%" % ("sum of layers", attributed, 100 * attributed / mean_ms))
    print("  %-22s %10.4f  (median %.4f)" % ("untraced mean", mean_ms, median_ms))
    print("  %-22s %10.4f" % ("unattributed share", layers["ledger.unattributed_share"]))
    return layers


# --- main --------------------------------------------------------------------


class Result:
    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.check = {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    load_before = os.getloadavg()
    bins = build()
    run = Run(bins, args.workload, args.seed, args.seconds)
    try:
        run.generate_graph("graph.hin")
        digests = run.tool("schedule", "--graph", "graph.hin", "--workload", args.workload,
                           "--seed", str(args.seed), "--out", "schedule.txt")
        result = Result()
        {"cli_oneshot": run_cli_oneshot, "serve_hot": run_serve_hot,
         "serve_adhoc": run_serve_adhoc}[args.workload](run, result)
        metrics = traced_metrics(run, result) if args.trace else result.metrics
    finally:
        run.close()

    with open("/proc/cpuinfo") as cpuinfo:
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo
                    if line.startswith("model name")), "unknown")
    print(json.dumps({"provenance": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "graph_digest": digests["graph_digest"],
        "schedule_digest": digests["schedule_digest"],
        "graph_nodes": digests["nodes"], "graph_edges": digests["edges"],
        "nproc": os.cpu_count(), "cpu": cpu, "build_type": bins["build_type"],
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "check": result.check}}))
    units = {}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        declared = json.load(spec)
    for metric in declared["per_layer" if args.trace else "end_to_end"]:
        units[metric["name"]] = metric["unit"]
    correct = result.failed == 0 and result.attempted > 0
    served_share = (result.attempted - result.failed) / max(1, result.attempted)
    if not args.trace:
        metrics["served_share"] = served_share
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError) as error:
        log("benchmark failed: %s" % error)
        sys.exit(1)
