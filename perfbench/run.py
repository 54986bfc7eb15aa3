#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of critload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

The first form builds critload with dune, runs one workload against the
built `critload` binary, checks its outputs and prints every metric by
name and unit.  Its last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json, measured with no
tracing.  With `--trace 1` they are the per-layer ones, taken from the
spans of a traced pass (perfbench/tool/critbench.ml) that drives the same
jobs one at a time through each layer's public functions.

Every run appends a full record (metrics, sample counts, checks and
machine metadata) to `.perfbench/results.jsonl`, and to `--out FILE`
when given.  `compare` labels each (workload, metric) pair of two such
files better, worse or unresolved.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

CLI = os.path.abspath(os.path.join("_build", "default", "bin", "critload_cli.exe"))
TOOL = os.path.abspath(os.path.join("_build", "default", "perfbench", "tool", "critbench.exe"))
STATE = ".perfbench"

APPS = ["2mm", "gaus", "grm", "lu", "spmv", "htw", "mriq", "dwt", "bpr",
        "srad", "bfs", "sssp", "ccl", "mst", "mis"]  # the suite's own order
GRAPH_APPS = ["bfs", "sssp", "ccl", "mst", "mis", "spmv"]
POLICIES = ["baseline", "iar", "holistic"]
DEFAULT_CAP = 150000  # the CLI's default --cap

# The sweeps run one worker.  With two, two busy workers shared the 2-core
# host and wall time spread 10-19% between runs, against 8% with one; and
# the app order then decides how the pool packs the long jobs (sssp and bfs
# warmups, the iar runs), which a list schedule puts at another 7.5%.
WORKLOADS = {
    # the job cross product: apps x policies, with or without warmup
    "suite-cold": dict(apps=APPS, policies=["baseline"], warmup=True),
    "policy-cycle": dict(apps=GRAPH_APPS, policies=POLICIES, warmup=False),
    "serve-hitmiss": None,
}

SERVE_SCALE, SERVE_CAP = "small", 50000  # as in README.md's `critload submit` example
SERVE_BATCH_S = 2.5  # about how long the daemon takes over one job list
SETUP_PROBES = 15
DRIFT_FRAC = 0.15  # largest |trace.overhead_frac| expected on a sweep
RUN_DEADLINE = 170.0  # a run must end within 180 s

LAYERS = ["workloads.make", "launch.build", "runner.warmup", "funcsim.skip",
          "gpu.run_launch", "stats_io.encode", "stats_io.decode",
          "parsweep.job_digest", "parsweep.cache_probe", "parsweep.cache_store",
          "protocol.codec"]

CHILDREN = set()


def now():
    return time.monotonic()


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def fail(msg):
    """The run cannot measure: exit non-zero without a result."""
    raise BenchError(msg)


PROBLEMS = []


def check(ok, msg):
    """An output check: a failure makes the result `correct: false`."""
    if not ok:
        PROBLEMS.append(msg)
        log("perfbench: check failed: " + msg)
    return ok


# ---------------------------------------------------------------- processes

class Proc:
    """A child process whose stderr lines are timestamped as they arrive
    and whose resource usage comes from wait4 (it covers the child and
    every descendant it reaped: sweep and serve workers)."""

    def __init__(self, argv, stdout=subprocess.DEVNULL, cwd=None):
        self.spawned = now()
        self.p = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=stdout,
                                  stderr=subprocess.PIPE, cwd=cwd)
        CHILDREN.add(self)
        self.lines = []
        self.cv = threading.Condition()
        self.eof = False
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.exited = None
        self.rc = None
        self.ru = None

    def _read(self):
        for raw in self.p.stderr:
            t = now()
            with self.cv:
                self.lines.append((t, raw.decode("utf-8", "replace").rstrip("\n")))
                self.cv.notify_all()
        with self.cv:
            self.eof = True
            self.cv.notify_all()

    def wait_line(self, pred, timeout):
        """Time at which the first stderr line matching pred arrived."""
        end = now() + timeout
        with self.cv:
            while True:
                for t, line in self.lines:
                    if pred(line):
                        return t
                if self.eof or now() > end:
                    return None
                self.cv.wait(0.05)

    def signal(self, sig):
        if self.rc is None:
            try:
                os.kill(self.p.pid, sig)
            except ProcessLookupError:
                pass

    def wait(self, timeout):
        timer = threading.Timer(timeout, self.signal, (signal.SIGKILL,))
        timer.start()
        try:
            _, status, ru = os.wait4(self.p.pid, 0)
        finally:
            timer.cancel()
        self.exited = now()
        self.rc = os.waitstatus_to_exitcode(status)
        self.p.returncode = self.rc
        self.ru = ru
        self.reader.join(5)
        self.p.stderr.close()
        CHILDREN.discard(self)
        return self.rc

    @property
    def cpu_s(self):
        return self.ru.ru_utime + self.ru.ru_stime

    @property
    def maxrss_mb(self):
        return self.ru.ru_maxrss / 1024.0

    def stderr_tail(self, n=8):
        return "\n".join(line for _, line in self.lines[-n:])


def stop_children():
    for c in list(CHILDREN):
        c.signal(signal.SIGKILL)
        try:
            c.wait(5)
        except ChildProcessError:
            CHILDREN.discard(c)


def run_quiet(argv, timeout=120):
    r = subprocess.run(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=timeout)
    if r.returncode != 0:
        fail("%s exited %d: %s" % (" ".join(argv), r.returncode,
                                   r.stderr.decode("utf-8", "replace")[-2000:]))
    return r.stdout.decode("utf-8", "replace")


# ------------------------------------------------------------------- helpers

def quantile(values, q):
    """Linear-interpolation quantile (numpy's default)."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = (len(v) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def gmean(values):
    # sorted, so the result does not depend on the (seeded) job order
    return math.exp(math.fsum(sorted(math.log(max(v, 1)) for v in values)) / len(values))


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return float(f.read().split()[0])
    except OSError:
        return -1.0


def canonical_results(results):
    """Order-free rendering of a sweep's results: the app order comes from
    the seed, the simulated results must not."""
    rows = sorted(results, key=lambda r: (r["app"], r["label"]))
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))


def stats_digest(results):
    return hashlib.sha256(canonical_results(results).encode()).hexdigest()[:16]


def cycles_of(result):
    return result["stats"]["cycles"]


def write_jsonl(path, rows):
    with open(path, "w") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")


# --------------------------------------------------------------------- build

def preflight():
    for p in ["dune-project", os.path.join("bin", "critload_cli.ml"),
              os.path.join("lib", "core", "parsweep.ml")]:
        if not os.path.exists(p):
            fail("run from the root of a critload checkout (missing %s)" % p)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")


def build():
    r = subprocess.run(["dune", "build", "--root", ".", "./bin/critload_cli.exe",
                        "./perfbench/tool/critbench.exe"],
                       stdin=subprocess.DEVNULL, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def build_id():
    return sha256_file(CLI)[:16]


def build_state(bid):
    d = os.path.join(STATE, "build-" + bid)
    os.makedirs(d, exist_ok=True)
    return d


def check_stable_digest(bid, workload, digest):
    """The simulated results of one build must not change between runs."""
    path = os.path.join(build_state(bid), workload + ".digest")
    if os.path.exists(path):
        with open(path) as f:
            seen = f.read().strip()
        check(seen == digest, "%s: stats digest %s differs from an earlier run's %s"
              % (workload, digest, seen))
    else:
        with open(path, "w") as f:
            f.write(digest + "\n")


# -------------------------------------------------------------------- sweeps

def sweep_args(w, apps):
    args = ["sweep", "--no-cache", "--scale", "default", "--jobs", "1",
            "--apps", ",".join(apps)]
    for p in w["policies"]:
        args += ["--policy", p]
    if not w["warmup"]:
        args.append("--no-warmup")
    return args


def probe_sweep_setup(args):
    """Spawn → first job dispatched; the sweep is then stopped with SIGTERM,
    which it answers by killing its pool."""
    p = Proc([CLI] + args + ["--out", "-"])
    t = p.wait_line(lambda l: l.startswith("sweep: start"), 30)
    p.signal(signal.SIGTERM)
    p.wait(30)
    if t is None:
        fail("sweep never started a job:\n" + p.stderr_tail())
    return t - p.spawned


def sweep_once(args, out_path):
    if os.path.exists(out_path):
        os.remove(out_path)
    load = loadavg()
    p = Proc([CLI] + args + ["--out", out_path])
    rc = p.wait(RUN_DEADLINE)
    if rc != 0 and not os.path.exists(out_path):
        fail("sweep exited %d:\n%s" % (rc, p.stderr_tail()))
    starts, jobs = {}, {}
    for t, line in p.lines:
        if line.startswith("sweep: start "):
            starts[line[len("sweep: start "):]] = t
        elif line.startswith("sweep: [") and " done in " in line:
            tag = line.split("] ", 1)[1].rsplit(" done in ", 1)[0]
            jobs[tag] = (starts.get(tag, t), t)
    if not starts:
        fail("sweep never started a job:\n" + p.stderr_tail())
    with open(out_path, "rb") as f:
        raw = f.read()
    return dict(wall=p.exited - p.spawned, cpu=p.cpu_s, rss=p.maxrss_mb,
                setup=min(starts.values()) - p.spawned, jobs=jobs, raw=raw, load=load)


def check_sweep_doc(raw, apps, policies):
    """The document's results and how many of its jobs failed."""
    results = json.loads(raw)["results"]
    want = len(apps) * len(policies)
    check(len(results) == want,
          "sweep document holds %d results, expected %d" % (len(results), want))
    bad = [r for r in results if r.get("status") != "ok"]
    check(not bad, "%d sweep job(s) failed, e.g. %s" % (
        len(bad), bad and (bad[0]["app"], bad[0].get("error"))))
    return [r for r in results if r.get("status") == "ok"], want - len(results) + len(bad)


def job_tag(app, label):
    return "%s (default, %s)" % (app, label)


def run_sweep(name, seed, seconds, trace, work, meta):
    w = WORKLOADS[name]
    apps = list(w["apps"])
    random.Random(seed).shuffle(apps)
    args = sweep_args(w, apps)
    doc_path = os.path.join(work, "sweep.json")
    setups = []
    if not trace:
        setups = [probe_sweep_setup(args) for _ in range(SETUP_PROBES)]
    runs = []
    started = now()
    while True:
        r = sweep_once(args, doc_path)
        runs.append(r)
        if trace or (now() - started) + r["wall"] > seconds:
            break
    check(len({r["raw"] for r in runs}) == 1,
          "sweep documents differ between repeats of one run")
    results, bad = check_sweep_doc(runs[0]["raw"], apps, w["policies"])
    digest = stats_digest(results)
    check_stable_digest(meta["build"], name, digest)
    per_sweep = len(apps) * len(w["policies"])
    attempted, failed = per_sweep * len(runs), bad * len(runs)
    meta.update(stats_digest=digest, sweeps=len(runs), jobs_per_sweep=per_sweep,
                loadavg_each=[r["load"] for r in runs], app_order=apps,
                each=[dict(wall=r["wall"], cpu=r["cpu"], setup=r["setup"]) for r in runs],
                sent=attempted, succeeded=attempted - failed, failed=failed, rejected=0)
    cycles = gmean([cycles_of(r["result"]) for r in results])
    if trace:
        if failed:
            fail("cannot trace a workload whose jobs fail")
        return attempted, failed, trace_sweep(w, apps, runs[0], doc_path, work, meta)
    setups += [r["setup"] for r in runs]
    meta.update(samples=dict(setup=len(setups), sweep=len(runs)))
    # A sweep is one request: its user waits for the whole document.
    walls = [r["wall"] for r in runs]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r["cpu"] for r in runs),
        "peak_rss_mb": max(r["rss"] for r in runs),
        "sim_cycles_gmean": cycles,
        "p50_ms": quantile(walls, 0.5) * 1000.0,
        "p90_ms": quantile(walls, 0.9) * 1000.0,
    }
    return attempted, failed, metrics


# --------------------------------------------------------------------- serve

def prefill(bid):
    """Built once per build, untimed, and copied into each run: a cache
    holding the baseline column of the grid, as a baseline sweep leaves
    it, and a reference document of the whole grid from `critload
    sweep`."""
    d = os.path.join(build_state(bid), "prefill-%s-%d" % (SERVE_SCALE, SERVE_CAP))
    if os.path.exists(os.path.join(d, "grid.json")):
        return d
    tmp = d + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    log("perfbench: prefilling the serve cache (once per build)")
    grid = [a for p in POLICIES for a in ("--policy", p)]
    for args in (["--cache-dir", os.path.join(tmp, "cache"),
                  "--out", os.path.join(tmp, "baseline.json")],
                 ["--no-cache", "--out", os.path.join(tmp, "grid.json")] + grid):
        p = Proc([CLI, "sweep", "--scale", SERVE_SCALE, "--cap", str(SERVE_CAP),
                  "--jobs", "2"] + args)
        if p.wait(RUN_DEADLINE) != 0:
            fail("prefill sweep failed:\n" + p.stderr_tail())
    shutil.rmtree(d, ignore_errors=True)
    os.rename(tmp, d)
    return d


def serve_batches(seed, seconds):
    """The job lists of a run, `seconds / SERVE_BATCH_S` of them.  Each is
    the list `critload submit --scale small --cap 50000 --policy baseline
    --policy iar --policy holistic` builds over the 15 apps in a seeded
    `--apps` order:
    per app, one job per policy.  The prefilled cache holds the baseline
    column, so the hits are that column: a third of every list."""
    rng = random.Random(seed)
    batches = []
    for b in range(max(1, int(round(seconds / SERVE_BATCH_S)))):
        apps = list(APPS)
        rng.shuffle(apps)
        batches.append([dict(id="b%d.%s.%s" % (b, app, p), kind="hit" if p == "baseline"
                             else "miss", app=app, scale=SERVE_SCALE, policy=p,
                             cap=SERVE_CAP, warmup=True)
                        for app in apps for p in POLICIES])
    return batches


def connect(path, timeout):
    end = now() + timeout
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            return s
        except OSError:
            s.close()
            if now() > end:
                return None
            time.sleep(0.0002)


def recv_line(sock, buf, timeout):
    end = now() + timeout
    while b"\n" not in buf:
        left = end - now()
        if left <= 0:
            fail("no reply from the daemon")
        r, _, _ = select.select([sock], [], [], left)
        if r:
            data = sock.recv(1 << 16)
            if not data:
                fail("daemon closed the connection")
            buf += data
    line, _, rest = buf.partition(b"\n")
    return line, rest


HEALTH = (json.dumps({"schema": "critload-serve-v1", "op": "health"}) + "\n").encode()


class Daemon:
    def __init__(self, work, cache):
        self.sock_path = os.path.join(work, "d.sock")
        self.p = Proc([CLI, "serve", "--socket", "d.sock", "--jobs", "1",
                       "--cache-dir", os.path.abspath(cache), "--quiet"], cwd=work)
        self.conn = connect(self.sock_path, 30)
        if self.conn is None:
            self.stop()
            fail("daemon never opened its socket")
        self.conn.sendall(HEALTH)
        _, self.buf = recv_line(self.conn, b"", 30)
        self.ready = now()

    @property
    def setup(self):
        return self.ready - self.p.spawned

    def health(self):
        self.conn.sendall(HEALTH)
        line, self.buf = recv_line(self.conn, self.buf, 30)
        return json.loads(line)["health"]

    def stop(self):
        if self.conn is not None:
            self.conn.close()
        self.p.signal(signal.SIGTERM)
        if self.p.wait(60) != 0:
            fail("daemon exited %d:\n%s" % (self.p.rc, self.p.stderr_tail()))


def serve_session(work, cache, fresh_cache, batches, lines):
    """One daemon lifetime.  Each job list goes out as `critload submit`
    sends it: every submit line on one connection, then the replies, in
    whatever order they come.  The lines go in one write; submit writes
    the same bytes one line at a time in a tight loop.  Between lists
    the daemon is idle and the cache is reset to the prefill, so every
    list meets the same hits and misses.  Returns each request's send
    and reply times and reply, and each list's span from send to last
    reply."""
    d = Daemon(work, cache)
    try:
        sent, recv, raw, walls = {}, {}, {}, []
        for b, batch in enumerate(batches):
            if b:
                fresh_cache()
            t = now()
            d.conn.sendall(b"".join(lines[s["id"]] for s in batch))
            sent.update((s["id"], t) for s in batch)
            for _ in batch:
                line, d.buf = recv_line(d.conn, d.buf, RUN_DEADLINE)
                t = now()
                rid = json.loads(line).get("id")
                if rid not in sent or rid in recv:
                    fail("unexpected reply from the daemon: %s" % line[:200])
                recv[rid], raw[rid] = t, line
            walls.append(max(recv[s["id"]] for s in batch) - sent[batch[0]["id"]])
        health = d.health()
    finally:
        d.stop()
    return dict(sent=sent, recv=recv, raw=raw, walls=walls, health=health,
                setup=d.setup, cpu=d.p.cpu_s, rss=d.p.maxrss_mb)


def run_serve(name, seed, seconds, trace, work, meta):
    pre = prefill(meta["build"])
    with open(os.path.join(pre, "grid.json")) as f:
        ref = {(r["app"], r["label"]): r["result"] for r in json.load(f)["results"]}
    batches = serve_batches(seed, seconds)
    specs = [s for batch in batches for s in batch]
    spec_path = os.path.join(work, "spec.jsonl")
    write_jsonl(spec_path, specs)
    req_path = os.path.join(work, "requests.jsonl")
    run_quiet([TOOL, "requests", spec_path, req_path])
    with open(req_path, "rb") as f:
        lines = {s["id"]: line for s, line in
                 zip(specs, f.read().splitlines(keepends=True))}
    cache = os.path.join(work, "cache")

    def fresh_cache():
        shutil.rmtree(cache, ignore_errors=True)
        shutil.copytree(os.path.join(pre, "cache"), cache)

    fresh_cache()
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):  # health only: the cache stays as copied
            d = Daemon(work, cache)
            d.stop()
            setups.append(d.setup)
    load = loadavg()
    s = serve_session(work, cache, fresh_cache, batches, lines)
    n = len(specs)
    failed, payloads, rejected = 0, {}, 0
    for sp in specs:
        v = json.loads(s["raw"][sp["id"]])
        if v.get("type") == "result":
            payloads[sp["id"]] = v["result"]
        else:
            failed += 1
            rejected += v.get("type") == "rejected"
    check(not failed, "%d of %d requests failed or were rejected" % (failed, n))
    for sp in specs:
        got = payloads.get(sp["id"])
        if got is not None:
            check(got == ref[(sp["app"], sp["policy"])], "served %s %s (%s, %s) differs "
                  "from the sweep entry" % (sp["kind"], sp["id"], sp["app"], sp["policy"]))
    hits = [sp["id"] for sp in specs if sp["kind"] == "hit"]
    misses = [sp["id"] for sp in specs if sp["kind"] == "miss"]
    h = s["health"]
    check(h["cache_hits"] == len(hits) and h["cache_misses"] == len(misses),
          "daemon counted %d hits and %d misses, expected %d and %d"
          % (h["cache_hits"], h["cache_misses"], len(hits), len(misses)))
    lat = {i: (s["recv"][i] - s["sent"][i]) * 1000.0 for i in payloads}
    hit_lat = [lat[i] for i in hits if i in payloads]
    miss_lat = [lat[i] for i in misses if i in payloads]
    results = [dict(app=sp["app"], label=sp["policy"], result=payloads[sp["id"]])
               for sp in batches[0] if sp["id"] in payloads]
    serve = {"hit_p50_ms": quantile(hit_lat, 0.5), "hit_p90_ms": quantile(hit_lat, 0.9),
             "miss_p50_ms": quantile(miss_lat, 0.5), "miss_p90_ms": quantile(miss_lat, 0.9)}
    digest = stats_digest(results)
    check_stable_digest(meta["build"], name, digest)
    meta.update(sent=n, succeeded=n - failed, failed=failed, rejected=rejected,
                loadavg_each=[load], serve=serve, batches=len(batches),
                batch_wall_s=s["walls"], health=h, stats_digest=digest,
                samples=dict(hit=len(hit_lat), miss=len(miss_lat), setup=len(setups) + 1),
                latency_ms={i: round(v, 3) for i, v in lat.items()})
    if trace:
        if failed:
            fail("cannot trace a session whose requests fail")
        first = batches[0]
        spec_path = os.path.join(work, "spec1.jsonl")
        write_jsonl(spec_path, first)
        resp_path = os.path.join(work, "responses.jsonl")
        with open(resp_path, "wb") as f:
            f.write(b"".join(s["raw"][sp["id"]] + b"\n" for sp in first))
        fresh_cache()
        layers = trace_tool(spec_path, work, ["--responses", resp_path, "--cache-dir", cache])
        per = layer_metrics(layers, untraced_cpu=s["cpu"] / len(batches), meta=meta,
                            hits={sp["id"] for sp in first if sp["kind"] == "hit"})
        per.update({"serve." + k: v for k, v in serve.items()})
        # the daemon probes the whole list before its first reply
        probes_ms = meta["self_s"].get("parsweep.cache_probe", 0.0) * 1000.0
        per["serve.cache_probe_share"] = probes_ms / serve["hit_p50_ms"]
        return n, failed, per
    setups.append(s["setup"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(s["walls"]),
        "cpu_s": s["cpu"],
        "peak_rss_mb": s["rss"],
        "sim_cycles_gmean": gmean([cycles_of(r["result"]) for r in results]),
        "p50_ms": serve["hit_p50_ms"],
        "p90_ms": serve["hit_p90_ms"],
    }
    return n, failed, metrics


# ------------------------------------------------------------------- tracing

def trace_tool(spec_path, work, extra):
    out = os.path.join(work, "spans.jsonl")
    r = subprocess.run([TOOL, "trace", spec_path, out] + extra, stdin=subprocess.DEVNULL,
                       stdout=sys.stderr, stderr=sys.stderr, timeout=RUN_DEADLINE)
    if r.returncode not in (0, 1):  # 1: a traced result differs from the CLI's
        fail("traced pass failed (exit %d)" % r.returncode)
    spans, jobs, summary = [], {}, None
    with open(out) as f:
        for line in f:
            v = json.loads(line)
            if v["type"] == "span":
                spans.append(v)
            elif v["type"] == "job":
                jobs[v["job"]] = v
            else:
                summary = v
    if summary is None:
        fail("traced pass wrote no summary")
    check(not summary["mismatches"] and not summary["unchecked"],
          "traced results do not all match the CLI's: %s" % summary)
    return spans, jobs


def layer_metrics(layers, untraced_cpu, meta, hits=None):
    """Per-layer numbers from the spans of a traced pass.  `_s` metrics
    are self times summed over the pass, `_ms`/`_us` ones the median of
    one call (digest and probe: over the cache hits given in `hits`)."""
    spans, jobs = layers
    child_time = {}
    for s in spans:
        if s["parent"]:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["t1"] - s["t0"]
    self_s, calls = {}, {}
    run_launch_by_policy = {p: 0.0 for p in POLICIES}
    total = 0.0
    for s in spans:
        dur = s["t1"] - s["t0"]
        own = dur - child_time.get(s["id"], 0.0)
        name = s["name"]
        self_s[name] = self_s.get(name, 0.0) + own
        if hits is None or name not in ("parsweep.job_digest", "parsweep.cache_probe") \
                or s["job"] in hits:
            calls.setdefault(name, []).append(dur)
        if not s["parent"]:
            total += dur
        if name == "gpu.run_launch":
            run_launch_by_policy[jobs[s["job"]]["policy"]] += dur
    c = {}
    for j in jobs.values():
        for k, v in j["counters"].items():
            c[k] = c.get(k, 0) + v
    insts = {p: sum(j["counters"]["warp_insts"] for j in jobs.values() if j["policy"] == p)
             for p in POLICIES}

    def ratio(a, b):
        return a / b if b else 0.0

    def median_ms(name, scale=1000.0):
        return statistics.median(calls[name]) * scale if name in calls else 0.0

    m = {layer + "_s": self_s.get(layer, 0.0) for layer in
         ["workloads.make", "launch.build", "runner.warmup", "funcsim.skip"]}
    m["gpu.run_launch_s"] = self_s.get("gpu.run_launch", 0.0)
    for p in POLICIES:
        m["gpu.run_launch_s." + p] = run_launch_by_policy[p]
        m["gpu.ns_per_warp_inst." + p] = ratio(run_launch_by_policy[p] * 1e9, insts[p])
    m["gpu.ns_per_cycle"] = ratio(self_s.get("gpu.run_launch", 0.0) * 1e9, c.get("cycles", 0))
    for layer in ["parsweep.job_digest", "parsweep.cache_probe", "parsweep.cache_store",
                  "stats_io.encode", "stats_io.decode"]:
        m[layer + "_ms"] = median_ms(layer)
    m["protocol.codec_us"] = median_ms("protocol.codec", 1e6)
    m["l1.miss_ratio.N"] = ratio(c.get("l1_miss_N", 0), c.get("l1_access_N", 0))
    m["l1.miss_ratio.D"] = ratio(c.get("l1_miss_D", 0), c.get("l1_access_D", 0))
    m["l1.resfail"] = c.get("l1_resfail", 0)
    m["l1.rsrv_wait.N"] = c.get("rsrv_wait_N", 0)
    m["l2.miss_ratio"] = ratio(c.get("l2_miss", 0), c.get("l2_access", 0))
    m["l2.rsrv_fails"] = c.get("l2_rsrv_fails", 0)
    m["load.turnaround.N"] = ratio(c.get("turnaround_N", 0), c.get("warps_N", 0))
    m["parsweep.ipc_s"] = 0.0
    m["parsweep.slot_idle_frac"] = 0.0
    m["trace.total_s"] = total
    m["trace.untraced_cpu_s"] = untraced_cpu
    m["trace.overhead_frac"] = ratio(total, untraced_cpu) - 1.0
    for layer in LAYERS:
        m["share." + layer] = ratio(self_s.get(layer, 0.0), total)
    harness = sum(self_s.get(k, 0.0) for k in ("job", "request"))
    m["share.harness"] = ratio(harness, total)
    meta["self_s"] = self_s
    return m


def trace_sweep(w, apps, run, doc_path, work, meta):
    specs = []
    for app in apps:
        for p in w["policies"]:
            specs.append(dict(id="%s/%s" % (app, p), app=app, scale="default", policy=p,
                              cap=DEFAULT_CAP, warmup=w["warmup"], kind="run"))
    spec_path = os.path.join(work, "spec.jsonl")
    write_jsonl(spec_path, specs)
    layers = trace_tool(spec_path, work, ["--doc", doc_path])
    per = layer_metrics(layers, untraced_cpu=run["cpu"], meta=meta)
    # The traced loop is a copy of the runner's (see critbench.ml).  On the
    # sweeps the two have cost the same within 0.08; a wider gap means the
    # copy and the runner have drifted apart.
    if abs(per["trace.overhead_frac"]) > DRIFT_FRAC:
        log("perfbench: warning: traced pass and CLI CPU differ by %.2f; critbench's "
            "loop may no longer match Runner.run_timing" % per["trace.overhead_frac"])
        meta["trace_drift"] = per["trace.overhead_frac"]
    # the pool's view of each job, from the sweep's own progress events
    pool = {}
    spans = {s["job"]: s["t1"] - s["t0"] for s in layers[0] if s["name"] == "job"}
    for s in specs:
        a, b = run["jobs"][job_tag(s["app"], s["policy"])]
        pool[s["id"]] = b - a
    per["parsweep.ipc_s"] = sum(pool[j] - spans[j] for j in pool)
    starts = [a for a, _ in run["jobs"].values()]
    ends = [b for _, b in run["jobs"].values()]
    busy = sum(pool.values())
    per["parsweep.slot_idle_frac"] = 1.0 - busy / (max(ends) - min(starts))
    for k in ("hit_p50_ms", "hit_p90_ms", "miss_p50_ms", "miss_p90_ms", "cache_probe_share"):
        per["serve." + k] = 0.0
    return per


# ---------------------------------------------------------------------- main

def load_spec():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def machine_meta():
    def cmd(argv):
        try:
            return subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  timeout=10).stdout.decode().strip()
        except (OSError, subprocess.SubprocessError):
            return ""
    return dict(nproc=os.cpu_count(), ocaml=cmd(["ocamlfind", "ocamlopt", "-version"])
                or cmd(["ocamlopt", "-version"]),
                commit=(os.path.isdir(".git") and cmd(["git", "rev-parse", "HEAD"]))
                or "unknown",
                python=sys.version.split()[0])


def run_workload(args):
    spec = load_spec()
    preflight()
    build()
    bid = build_id()
    meta = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, build=bid, loadavg_before=loadavg(), **machine_meta())
    work = os.path.join(STATE, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = run_serve if args.workload == "serve-hitmiss" else run_sweep
        attempted, failed, metrics = runner(args.workload, args.seed, args.seconds,
                                            args.trace, work, meta)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics["failed_frac"] = failed / attempted
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            fail("metric %s was not measured" % m["name"])
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    meta["problems"] = PROBLEMS
    record = dict(meta=meta, attempted=attempted, failed=failed, correct=not PROBLEMS,
                  metrics={k: v["value"] for k, v in out.items()})
    for path in [os.path.join(STATE, "results.jsonl")] + ([args.out] if args.out else []):
        with open(path, "a") as f:
            f.write(json.dumps(record) + "\n")
    print("workload %s  seed %d  trace %d  build %s  stats %s" % (
        args.workload, args.seed, args.trace, bid, meta.get("stats_digest")))
    print("samples %s  sent %d  failed %d  rejected %d  loadavg %.2f" % (
        json.dumps(meta.get("samples", {})), meta["sent"], meta["failed"],
        meta["rejected"], meta["loadavg_before"]))
    if "serve" in meta:
        print("serve latencies (ms): " + "  ".join(
            "%s %.2f" % kv for kv in meta["serve"].items()))
    for k, v in out.items():
        print("  %-32s %14.6g %s" % (k, v["value"], v["unit"]))
    print(json.dumps({"correct": not PROBLEMS, "attempted": attempted, "failed": failed,
                      "metrics": out}))


# ------------------------------------------------------------------- compare

def compare(old_path, new_path):
    """Label each (workload, metric) pair better, worse or unresolved: a
    side wins a pair of runs when its value is better; a verdict needs one
    side to win at least nine tenths of the pairs and the medians to differ
    by more than the old side's interquartile range."""
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    def load(path):
        rows = {}
        with open(path) as f:
            for line in f:
                r = json.loads(line)
                if not r.get("correct", False):
                    continue  # an incorrect run measured nothing worth comparing
                key = r["meta"]["workload"]
                for k, v in r["metrics"].items():
                    rows.setdefault((key, k), []).append((r["meta"]["seed"], v))
        return rows

    old, new = load(old_path), load(new_path)
    print("%-16s %-30s %12s %12s %10s %6s  %s" % (
        "workload", "metric", "old median", "new median", "old IQR", "wins", "verdict"))
    for key in sorted(set(old) & set(new)):
        o, n = old[key], new[key]
        by_seed = dict(o)
        pairs = ([(by_seed[s], v) for s, v in n if s in by_seed]
                 if len({s for s, _ in o}) == len(o) else [])
        if len(pairs) < min(len(o), len(n)):
            pairs = list(zip([v for _, v in o], [v for _, v in n]))
        sign = -1.0 if better.get(key[1], "lower") == "lower" else 1.0
        wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
        losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
        ov = [v for _, v in o]
        mo, mn = statistics.median(ov), statistics.median(v for _, v in n)
        iqr = quantile(ov, 0.75) - quantile(ov, 0.25)
        verdict = "unresolved"
        if pairs and abs(mn - mo) > iqr:
            if wins >= 0.9 * len(pairs):
                verdict = "better"
            elif losses >= 0.9 * len(pairs):
                verdict = "worse"
        print("%-16s %-30s %12.6g %12.6g %10.4g %3d/%-3d %s" % (
            key[0], key[1], mo, mn, iqr, wins, len(pairs), verdict))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare OLD.jsonl NEW.jsonl")
        compare(sys.argv[2], sys.argv[3])
        return
    ap = argparse.ArgumentParser(description="critload benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="also append this run's record to FILE")
    args = ap.parse_args()
    try:
        run_workload(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        stop_children()
        log("perfbench: error: %s" % e)
        sys.exit(1)
    stop_children()


if __name__ == "__main__":
    main()
