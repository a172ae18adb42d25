#!/usr/bin/env python3
"""End-to-end benchmark of the MayBMS I-SQL engine.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the engine and the runner from source (into .bench_build/ in the
checkout), generates the workload's I-SQL from the seed, runs it, checks
every answer, and prints report lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken from spans the
runner records around the public calls into each layer. Exits non-zero
when an answer is wrong or the build fails. See e2ebench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import workload  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RUNNER = os.path.join(BUILD, "e2ebench_runner")
SERVER = os.path.join(BUILD, "maybms", "maybms_server")

WORKLOADS = ("analyst-decomposed", "analyst-explicit", "wire-mixed-paged")
ANALYST_THREADS = 1  # engine threads of the analyst sessions
SERVER_THREADS = 1   # engine threads of the wire server
WIRE_SETUP_REPS = 7  # server start + load, repeated; setup_s is the median
REFERENCE_SECONDS = 2  # the other engine's closed loop in an analyst run
READ_CLASSES = ("fast", "agg", "assert", "group")

# The gated end-to-end metrics. A class latency is the mean, over the
# class's statements (analysts) or statement kinds (wire), of their lower
# decile: on a shared host the CPU speed swings by up to 2.5x for seconds
# at a time, which moves a run's medians by up to 2x between identical
# runs, while the lower decile stays the statement's own cost. Medians
# and tails are report lines.
END_TO_END = ("setup_s", "peak_rss_mb", "qps") + tuple(
    f"{cls}_p10_ms" for cls in workload.CLASSES)


def unit_of(name):
    """Unit of a metric, from the time/size word in its name."""
    words = name.replace(".", "_").split("_")
    for word, unit in (("us", "us"), ("ms", "ms"), ("s", "s"), ("mb", "MB"),
                       ("qps", "1/s"), ("frac", "fraction"),
                       ("log10", "log10"), ("bytes", "bytes")):
        if word in words:
            return unit
    return "count"


def log(line):
    print(line, flush=True)


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


# ---------------------------------------------------------------------------
# Build


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the engine's sources are not in this checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT) != 0:
                fail(f"build failed; see {build_log}")
    for binary in (RUNNER, SERVER):
        if not os.access(binary, os.X_OK):
            fail(f"build did not produce {binary}")


# ---------------------------------------------------------------------------
# Statistics


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def fingerprint(engine, threads, extra=""):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler, build_type = "unknown", "unknown"
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = os.path.basename(line.split("=", 1)[1].strip())
    except OSError:
        pass
    version = subprocess.run([compiler, "-dumpfullversion"], capture_output=True,
                             text=True).stdout.strip() if compiler != "unknown" else ""
    return (f"fingerprint: nproc={os.cpu_count()} cpu=\"{model}\" "
            f"compiler={compiler} {version} build={build_type} "
            f"python={platform.python_version()} engine={engine} "
            f"engine_threads={threads}{extra}")


# ---------------------------------------------------------------------------
# Analyst workloads


def write_analyst_files(work, seed):
    setup, mix = workload.analyst(seed)
    with open(os.path.join(work, "setup.sql"), "w") as f:
        f.write(setup)
    with open(os.path.join(work, "mix.tsv"), "w") as f:
        f.writelines(f"{cls}\t{sql}\n" for cls, sql in mix)
    return mix


def log_inputs(work, names):
    """Reports a digest of the generated inputs: a seed gives the same
    bytes on every run."""
    digest = hashlib.sha256()
    for name in names:
        with open(os.path.join(work, name), "rb") as f:
            digest.update(f.read())
    log(f"inputs: {' '.join(names)} sha256={digest.hexdigest()[:16]}")


def invoke(args, what):
    proc = subprocess.run([RUNNER] + args, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{what} exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def analyst_pass(work, engine, seconds, trace, tag, setup_reps=3):
    out = os.path.join(work, f"{tag}.json")
    invoke(["analyst", "--dir", work, "--engine", engine,
                "--seconds", str(seconds), "--trace", str(trace),
                "--threads", str(ANALYST_THREADS),
                "--setup-reps", str(setup_reps), "--out", out,
                "--spans", os.path.join(work, f"{tag}.spans.tsv")],
               f"analyst run ({engine})")
    return load_json(out)


def latency_stats(groups):
    """Latency statistics (ms) from {class: {statement key: samples}}."""
    stats = {}
    pooled = {}
    for cls in workload.CLASSES:
        by_key = groups.get(cls, {})
        for q in (10, 50):
            stats[f"{cls}_p{q}_ms"] = statistics.fmean(
                percentile(v, q) for v in by_key.values()) if by_key else 0.0
        pooled[cls] = [x for v in by_key.values() for x in v]
    reads = [x for cls in READ_CLASSES for x in pooled[cls]]
    stats["read_p50_ms"] = median(reads)
    stats["read_p99_ms"] = percentile(reads, 99)
    stats["write_p90_ms"] = percentile(pooled["write"], 90)
    stats["write_p99_ms"] = percentile(pooled["write"], 99)
    return stats, {"read": len(reads), "write": len(pooled["write"])}


def by_statement(latency_ms, passes):
    """{class: {statement: samples}} from per-class samples in pass order
    (every pass runs the same statements in the same order)."""
    groups = {}
    for cls, values in latency_ms.items():
        n = len(values) // passes
        groups[cls] = {j: values[j::n] for j in range(n)}
    return groups


def analyst_e2e(run):
    groups = by_statement(run["latency_ms"], run["passes"])
    stats, samples = latency_stats(groups)
    stats["setup_s"] = median(run["setup_s"])
    stats["peak_rss_mb"] = run["rss_mb"]
    # Throughput of a pass at the lower decile of pass durations, for the
    # same reason the latencies are lower deciles; the plain average is
    # a report line.
    pass_ms = [sum(v[p] for by_key in groups.values() for v in by_key.values())
               for p in range(run["passes"])]
    per_pass = sum(len(by_key) for by_key in groups.values())
    stats["qps"] = per_pass * 1000 / percentile(pass_ms, 10)
    stats["mean_qps"] = run["attempted"] / run["elapsed_s"]
    return stats, samples


def run_analyst(name, seed, seconds, trace, corrupt):
    engine = name.split("-", 1)[1]
    other = "explicit" if engine == "decomposed" else "decomposed"
    work = workdir(name, seed, trace)
    mix = write_analyst_files(work, seed)
    log_inputs(work, ("setup.sql", "mix.tsv"))
    log(fingerprint(engine, ANALYST_THREADS,
                    f" clients=1 loop=closed storage=memory "
                    f"statements_per_pass={len(mix)}"))

    if trace:
        # Same seed, half the time untraced and half traced: the traced
        # half gives the layers, the difference gives tracing overhead.
        plain = analyst_pass(work, engine, max(1, seconds // 2), 0, "plain")
        run = analyst_pass(work, engine, max(1, seconds - seconds // 2), 1,
                           "traced")
    else:
        run = analyst_pass(work, engine, seconds, 0, "analyst")

    # Reference answers and latencies: the other engine, a short closed
    # loop over the same SQL.
    ref = analyst_pass(work, other, REFERENCE_SECONDS, 0, "reference",
                       setup_reps=1)
    expected = dict(ref["digests"])
    if corrupt:
        expected["0"] = "0" * 16
    wrong = [i for i, d in run["digests"].items() if expected.get(i) != d]
    failed = (run["errors"] + run["mismatches"] + run["probe_failures"] +
              ref["errors"] + ref["mismatches"] + len(wrong) * run["passes"])
    for i in wrong:
        log(f"WRONG: statement {i} ({mix[int(i)][0]}) differs from the "
            f"{other} engine: {mix[int(i)][1]}")

    metrics, samples = analyst_e2e(run)
    log(f"passes={run['passes']} statements={run['attempted']} "
        f"reads={samples['read']} writes={samples['write']} "
        f"log10_worlds={run['log10_worlds']:.3f} "
        f"checked_against={other} wrong_statements={len(wrong)}")
    # The paper's rule, read off every run: decomposed never slower.
    ref_stats, _ = latency_stats(by_statement(ref["latency_ms"], ref["passes"]))
    for cls in workload.CLASSES:
        mine, theirs = metrics[f"{cls}_p10_ms"], ref_stats[f"{cls}_p10_ms"]
        dec, exp = (mine, theirs) if engine == "decomposed" else (theirs, mine)
        log(f"ratio decomposed/explicit {cls}_p10: {dec / exp:.3f} "
            f"({dec:.4g} ms / {exp:.4g} ms; {other}: {ref['passes']} "
            f"reference passes)")

    if trace:
        spans = read_spans(os.path.join(work, "traced.spans.tsv"))
        traced_metrics, _ = analyst_e2e(run)
        plain_metrics, _ = analyst_e2e(plain)
        layers = layer_metrics(spans, run["log10_worlds"])
        layers["trace.overhead_frac"] = overhead(plain_metrics, traced_metrics)
        return layers, run["attempted"], failed
    return metrics, run["attempted"], failed


# ---------------------------------------------------------------------------
# Wire workload


def read_line(proc, deadline):
    """Reads one stdout line of `proc`, or None at EOF/timeout."""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.1)
        if ready:
            line = proc.stdout.readline()
            return line if line else None
    return None


def start_server(work, engine_env):
    store = os.path.join(work, "server-store")
    shutil.rmtree(store, ignore_errors=True)
    os.makedirs(store)
    proc = subprocess.Popen(
        [SERVER, "--port", "0", "--engine", "decomposed", "--storage", "paged",
         "--storage-dir", store, "--threads", str(SERVER_THREADS),
         "--max-connections", str(workload.WIRE["conns"] + 2)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=engine_env)
    line = read_line(proc, time.monotonic() + 30)
    if not line or "listening on" not in line:
        stop_server(proc)
        fail(f"maybms_server did not start: {line!r}")
    return proc, int(line.rsplit(":", 1)[1])


def stop_server(proc):
    """SIGTERM, wait for the drain; returns (rss_mb, drain summary)."""
    rss = 0.0
    try:
        with open(f"/proc/{proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    rss = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return rss, out or ""


def write_wire_files(work, seed, seconds):
    setup, requests, checks = workload.wire(seed, seconds)
    with open(os.path.join(work, "setup.sql"), "w") as f:
        f.write(setup)
    with open(os.path.join(work, "requests.tsv"), "w") as f:
        f.writelines(f"{r}\t{due}\t{cls}\t{sql}\n"
                     for r, due, cls, sql in requests)
    with open(os.path.join(work, "check.tsv"), "w") as f:
        f.writelines(f"{cls}\t{sql}\n" for cls, sql in checks)
    # Statements a server serves in a correct run: the set-up script, every
    # request and every final-state query.
    return setup.count(";") + len(requests) + len(checks)


def wire_e2e(run, seconds):
    """Statistics of one wire run from its request records: latencies at
    the nominal rung, timed from when each request was due, and slo_qps."""
    w = workload.WIRE
    # record: rung, class, due, start, end, backlog, ok, in_process
    records = [r for r in run["reads"] + run["writes"] if not r[7]]
    per_rung = {}
    lo = 0.0
    for rung in range(len(w["rates"])):
        rung_s = seconds * w["rung_share"][rung]
        mine = [r for r in records if r[0] == rung]
        reads = [(r[4] - r[2]) / 1e6 for r in mine if r[1] != "write"]
        # A growing backlog: the last quarter of the rung waits longer to
        # be sent than the first quarter, by more than 10 ms.
        q = rung_s * 1e9 / 4

        def late(a, b):
            return median([(r[3] - r[2]) / 1e6 for r in mine
                           if a <= r[2] - lo < b])

        per_rung[rung] = {
            "read_p99_ms": percentile(reads, 99) if reads else float("inf"),
            "growing": late(3 * q, 4 * q) - late(0, q) > 10.0,
            "completed": sum(1 for r in mine if r[6]) / rung_s,
        }
        lo += rung_s * 1e9
    groups = {}
    for r in records:
        if r[0] == w["nominal"]:
            cls, kind = r[1].split(":")
            groups.setdefault(cls, {}).setdefault(kind, []).append((r[4] - r[2]) / 1e6)
    stats, samples = latency_stats(groups)
    ok_rungs = [rung for rung, s in per_rung.items()
                if s["read_p99_ms"] <= w["read_p99_limit_ms"] and not s["growing"]]
    stats["qps"] = per_rung[max(ok_rungs)]["completed"] if ok_rungs else 0.0
    return stats, per_rung, samples


def run_wire(name, seed, seconds, trace, corrupt):
    w = workload.WIRE
    work = workdir(name, seed, trace)
    # The traced run measures an untraced and a traced load back to back,
    # each over half the time.
    seconds = max(3, seconds // 2) if trace else seconds
    expected_served = write_wire_files(work, seed, seconds)
    log_inputs(work, ("setup.sql", "requests.tsv", "check.tsv"))
    # One glibc malloc arena: otherwise the server's peak RSS depends on
    # how many arenas its connection threads happened to create.
    env = dict(os.environ, MAYBMS_POOL_PAGES=str(w["pool_pages"]),
               MALLOC_ARENA_MAX="1")
    log(fingerprint("decomposed", SERVER_THREADS,
                    f" server_threads={SERVER_THREADS} conns={w['conns']} "
                    f"loop=open rates={list(w['rates'])}/s "
                    f"nominal={w['rates'][w['nominal']]}/s "
                    f"pool_pages={w['pool_pages']} storage=paged "
                    f"flush=fsync-per-commit(data,root) malloc_arenas=1 "
                    f"latency=page-cache-not-device"))

    def wire_args(out, extra):
        return (["wire", "--dir", work, "--conns", str(w["conns"]),
                 "--pool-pages", str(w["pool_pages"]),
                 "--store-dir", os.path.join(work, "store"), "--out", out,
                 "--spans", os.path.join(work, "traced.spans.tsv")] + extra)

    def measured_run(tag):
        """Set up several times (median is setup_s); load the last. Every
        server started is stopped, on failure too."""
        setups = []
        out = os.path.join(work, f"{tag}.json")
        for rep in range(WIRE_SETUP_REPS):
            start = time.monotonic()
            proc, port = start_server(work, env)
            try:
                invoke(["wire-load", "--dir", work, "--port", str(port)],
                           "wire set-up")
                setups.append(time.monotonic() - start)
                if rep + 1 == WIRE_SETUP_REPS:
                    invoke(wire_args(out, ["--port", str(port), "--trace", "0"]),
                               "wire load")
            finally:
                rss, summary = stop_server(proc)
        run = load_json(out)
        run["setup_s"], run["rss_mb"], run["summary"] = setups, rss, summary
        return run

    if trace:
        plain = measured_run("plain")
        out = os.path.join(work, "traced.json")
        invoke(wire_args(out, ["--in-process", "1", "--trace", "1"]),
                   "traced wire load")
        run = load_json(out)
    else:
        run = measured_run("wire")

    # The stores grow by every write (shadow paging); keep only results.
    for store in ("server-store", "store"):
        shutil.rmtree(os.path.join(work, store), ignore_errors=True)

    expected = list(run["replay_digests"])
    if corrupt:
        expected[0] = "0" * 16
    records = run["reads"] + run["writes"]
    not_ok = sum(1 for r in records if not r[6])
    wrong = sum(1 for a, b in zip(run["wire_digests"], expected) if a != b)
    failed = (not_ok + wrong + run["check_failures"] + run["replay_failures"] +
              run["probe_failures"])
    attempted = len(records)
    if wrong:
        log(f"WRONG: {wrong} final-state queries differ from the serial replay")

    def check_served(served, refused):
        """The server's own counts must agree with the replies seen."""
        if served != expected_served or refused != 0:
            log(f"WRONG: server served {served} statements, refused {refused} "
                f"connections; expected {expected_served} and 0")
            return 1
        return 0

    if trace:
        spans = read_spans(os.path.join(work, "traced.spans.tsv"))
        layers = layer_metrics(spans, run["log10_worlds"])
        layers.update(storage_metrics(run["storage"]))
        layers["server.statements_served"] = run["statements_served"]
        layers["server.refused"] = run["refused"]
        failed += check_served(run["statements_served"], run["refused"])
        layers.update(load_metrics(records))
        traced_e2e, _, _ = wire_e2e(run, seconds)
        plain_e2e, _, _ = wire_e2e(plain, seconds)
        layers["trace.overhead_frac"] = overhead(plain_e2e, traced_e2e)
        return layers, attempted, failed

    metrics, per_rung, samples = wire_e2e(run, seconds)
    metrics["setup_s"] = median(run["setup_s"])
    metrics["peak_rss_mb"] = run["rss_mb"]
    log(f"qps = completed/s at the highest rung whose read p99 meets "
        f"{w['read_p99_limit_ms']} ms without a growing backlog")
    for rung, s in per_rung.items():
        log(f"rung {w['rates'][rung]}/s: read_p99={s['read_p99_ms']:.3f} ms "
            f"(limit {w['read_p99_limit_ms']} ms) growing_backlog={s['growing']} "
            f"completed={s['completed']:.1f}/s")
    log(f"nominal rung samples: reads={samples['read']} writes={samples['write']}; "
        f"requests={attempted} writes_total={len(run['writes'])} "
        f"log10_worlds={run['log10_worlds']:.3f}")
    drained = re.search(r"drained cleanly: (\d+) statements.*?(\d+) refused",
                        run["summary"])
    log(f"server: {drained.group(0) if drained else 'no drain summary'}")
    failed += check_served(int(drained.group(1)), int(drained.group(2))) \
        if drained else 1
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# Traced run: spans -> per-layer metrics


LAYERS = ("sql", "engine", "worlds", "isql", "storage", "server")


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            sid, parent, req, name, cls, start, end, count = line.rstrip("\n").split("\t")
            spans.append({"id": int(sid), "parent": int(parent), "req": int(req),
                          "name": name, "cls": cls, "start": int(start),
                          "end": int(end), "count": int(count)})
    return spans


def self_time_ms(spans):
    """Per layer: the spans' durations minus the part of each interval
    their child spans cover, summed, in ms."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    total = {}
    for s in spans:
        covered = sum(c["end"] - c["start"] for c in children.get(s["id"], []))
        layer = s["name"].split(".", 1)[0]
        total[layer] = total.get(layer, 0.0) + (s["end"] - s["start"] - covered) / 1e6
    return total


def layer_metrics(spans, log10_worlds):
    by = {}
    for s in spans:
        by.setdefault((s["name"], s["cls"]), []).append(s)

    def dur(name, cls, scale):
        return median([(s["end"] - s["start"]) / scale for s in by.get((name, cls), [])])

    m = {}
    for cls in workload.CLASSES:
        m[f"sql.parse_us.{cls}"] = dur("sql.parse", cls, 1e3)
        m[f"isql.execute_ms.{cls}"] = dur("isql.execute", cls, 1e6)
        # Session::Execute minus its parse and its world-set evaluation,
        # per request, as separately timed calls of the same statement.
        per_req = {}
        for name in ("isql.execute", "sql.parse", "worlds.evaluate"):
            for s in by.get((name, cls), []):
                sign = 1 if name == "isql.execute" else -1
                per_req.setdefault(s["req"], []).append(sign * (s["end"] - s["start"]))
        m[f"isql.self_ms.{cls}"] = median(
            [sum(v) / 1e6 for v in per_req.values() if len(v) >= 2])
    for cls in READ_CLASSES:
        m[f"engine.world_exec_us.{cls}"] = dur("engine.world_exec", cls, 1e3)
        m[f"engine.rows_out.{cls}"] = median(
            [s["count"] for s in by.get(("engine.world_exec", cls), [])])
        m[f"worlds.evaluate_ms.{cls}"] = dur("worlds.evaluate", cls, 1e6)
    m["worlds.log10_worlds"] = log10_worlds
    m["worlds.clone_ms"] = dur("worlds.clone", "write", 1e6)
    m["isql.format_us"] = median([(s["end"] - s["start"]) / 1e3 for s in spans
                                  if s["name"] == "isql.format"])
    for name, key in (("storage.to_snapshot", "to_snapshot_ms"),
                      ("storage.commit", "commit_ms"),
                      ("storage.load", "load_ms"),
                      ("storage.from_snapshot", "from_snapshot_ms")):
        m[f"storage.{key}"] = dur(name, "write", 1e6)
    for kind in ("read", "write"):
        m[f"server.roundtrip_us.{kind}"] = dur("server.roundtrip", kind, 1e3)
        m[f"server.execute_us.{kind}"] = dur("server.execute", kind, 1e3)
    m["server.wire_us"] = m["server.roundtrip_us.read"] - m["server.execute_us.read"]
    self_ms = self_time_ms(spans)
    for layer in LAYERS:
        m[f"trace.self_ms.{layer}"] = self_ms.get(layer, 0.0)
    m["trace.spans"] = len(spans)
    # Layers a workload never calls report 0 (storage/server/load on the
    # analysts).
    for key in ("storage.pool_hits", "storage.pool_misses",
                "storage.pool_evictions", "storage.pool_flushes",
                "storage.pool_hit_frac", "storage.bytes_per_write",
                "storage.file_mb", "server.statements_served",
                "server.refused", "load.late_ms_p99", "load.backlog_max"):
        m.setdefault(key, 0.0)
    return m


def storage_metrics(st):
    if not st or "pool_hits" not in st:
        fail("the traced storage replay failed")
    hits, misses = sum(st["pool_hits"]), sum(st["pool_misses"])
    n = max(1, len(st["pool_hits"]))
    return {
        "storage.pool_hits": hits / n,
        "storage.pool_misses": misses / n,
        "storage.pool_evictions": sum(st["pool_evictions"]) / n,
        "storage.pool_flushes": sum(st["pool_flushes"]) / n,
        "storage.pool_hit_frac": hits / max(1, hits + misses),
        "storage.bytes_per_write": median(st["bytes_per_write"]),
        "storage.file_mb": st["file_bytes"] / 2**20,
    }


def load_metrics(records):
    late = [(r[3] - r[2]) / 1e6 for r in records]
    return {"load.late_ms_p99": percentile(late, 99) if late else 0.0,
            "load.backlog_max": max((r[5] for r in records), default=0)}


def overhead(plain, traced):
    """Tracing overhead: the traced run's gated class latencies over the
    untraced run's, summed over the read classes, minus one."""
    keys = [f"{cls}_p10_ms" for cls in READ_CLASSES]
    base = sum(plain[k] for k in keys)
    return sum(traced[k] for k in keys) / base - 1 if base else 0.0


# ---------------------------------------------------------------------------


def workdir(name, seed, trace):
    work = os.path.join(BUILD, "work", f"{name}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return work


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-digest", type=int, choices=(0, 1), default=0,
                        help="smoke test of the gate: corrupt one expected "
                             "answer digest, which must fail the run")
    args = parser.parse_args()

    build()
    run = run_wire if args.workload.startswith("wire") else run_analyst
    metrics, attempted, failed = run(args.workload, args.seed, args.seconds,
                                     args.trace, args.corrupt_digest)
    log(f"failed_frac: {failed / max(1, attempted):.6f} "
        f"({failed} failed or wrong of {attempted} attempted)")
    gated = END_TO_END if not args.trace else tuple(metrics)
    for key, value in metrics.items():
        if key not in gated:
            log(f"report {key}: {value:.6g} {unit_of(key)}")
    out = {}
    for key in gated:
        out[key] = {"value": metrics[key], "unit": unit_of(key)}
        log(f"{key}: {metrics[key]:.6g} {unit_of(key)}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
