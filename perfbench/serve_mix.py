"""serve-mix: the compile service under an open-loop request mix, then a
closed loop for capacity.

A ``python -m repro serve`` daemon (started through
``serve_launcher.py``) runs with ``--workers`` pinned to the usable CPU
count and a fresh store.  One load-generator process (this one) sends:

* warm-up, untimed: one request per hot-set key, so those are stored;
* open loop: Poisson arrivals at the fixed rate in ``spec.json``; each
  request is a repeat of a hot-set key (a store read) or, with the miss
  ratio, a first-time request (a compile and a store write).  First-time
  requests alternate between Table 1 kernels at sizes not requested
  before and grammar-generated kernels.  Each request is timed from when
  it was due; how late the generator sent it is reported, and so is the
  share of the CPUs the daemon's process tree used (``open_loop_busy``);
* closed loop: one client per CPU sends hot-set requests back to back;
  the completion rate is the capacity of the store-read path
  (``capacity_rps`` per wall second, ``ops_per_s`` per second scaled to
  the reference host by :class:`common.HostSpeed` probes on every CPU).

Every request is built before the daemon starts.  Every response must
be a 200 whose body is byte-identical to the first body seen for the
same request.  Pool and store counters are deltas of
the daemon's ``/metrics`` families, scraped before and after the timed
phases.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Iterator, List, Optional, Tuple

from common import (HERE, ROOT, BenchError, HostSpeed, Outcome, child_env,
                    cpus, load_spec, make_workdir, peak_rss_mb, percentile)

BOOT_TIMEOUT_S = 60.0
#: Closed-loop seconds between two host-speed probes.
SEGMENT_S = 0.5


# ---------------------------------------------------------------------------
# Daemon process
# ---------------------------------------------------------------------------

class Daemon:
    """One compile daemon with its own fresh store."""

    def __init__(self, workdir: str, tag: str,
                 span_dir: Optional[str] = None):
        self.store = os.path.join(workdir, f"store-{tag}")
        self.stderr_path = os.path.join(workdir, f"daemon-{tag}.err")
        self.span_dir = span_dir
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> float:
        """Boot; returns seconds until ``/healthz`` answers 200."""
        cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py")]
        if self.span_dir:
            cmd += ["--span-dir", self.span_dir]
        cmd += ["--", "--port", "0", "--workers", str(cpus()),
                "--store", self.store]
        start = time.perf_counter()
        with open(self.stderr_path, "w") as err:
            # Own session: a daemon that must be killed takes its
            # workers with it.
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                         stdout=subprocess.PIPE,
                                         stderr=err, text=True,
                                         start_new_session=True)
        line = self._readline(start + BOOT_TIMEOUT_S)
        if " on http://" not in line:
            raise BenchError(f"daemon did not announce itself: {line!r}")
        address = line.split(" on http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        while time.perf_counter() - start < BOOT_TIMEOUT_S:
            try:
                status, _ = self.get("/healthz")
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - start
            time.sleep(0.01)
        raise BenchError("daemon never became ready")

    def _readline(self, deadline: float) -> str:
        out = self.proc.stdout
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([out], [], [], 0.1)
            if ready:
                return out.readline()
            if self.proc.poll() is not None:
                break
        return ""

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def metrics(self) -> Dict[str, dict]:
        status, body = self.get("/metrics?format=json")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        return json.loads(body)["metrics"]

    def stop(self) -> None:
        """SIGTERM and wait for the drain."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            pass
        try:                            # reap anything left in the group
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc = None


# ---------------------------------------------------------------------------
# The daemon's process tree, read from /proc
# ---------------------------------------------------------------------------

def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant (the daemon's pool workers)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # pid (comm) state ppid ...; comm may hold spaces.
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = [root], [root]
    while frontier:
        frontier = [pid for pid, ppid in parents.items()
                    if ppid in frontier]
        tree += frontier
    return tree


def tree_cpu_s(root: int) -> float:
    """User plus system CPU seconds used so far by the process tree."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])      # utime, stime
    return total / ticks


def tree_peak_rss_kb(root: int) -> int:
    """Sum of each live process's own peak resident memory (VmHWM)."""
    total = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total


def post(host: str, port: int, request: bytes, trace_id: str
         ) -> Tuple[int, str, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        conn.request("POST", "/compile", body=request,
                     headers={"Content-Type": "application/json",
                              "X-Repro-Trace-Id": trace_id})
        resp = conn.getresponse()
        return resp.status, resp.getheader("X-Repro-Cache") or "", \
            resp.read()
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _table1_request(name: str, scale: int) -> bytes:
    from repro.kernels.suite import ALGORITHMS
    algo = ALGORITHMS[name]
    sizes = algo.sizes(scale)
    return json.dumps({"source": algo.source, "sizes": sizes,
                       "domain": list(algo.domain(sizes)),
                       "machine": "GTX280"}, sort_keys=True).encode()


def _grammar_request(seed: int, index: int) -> bytes:
    from repro.fuzz.grammar import generate_case
    case = generate_case(seed, index)
    return json.dumps({"source": case.source, "sizes": case.sizes,
                       "domain": list(case.domain), "machine": "GTX280"},
                      sort_keys=True).encode()


class Mix:
    """The seeded request mix: hot-set repeats and first-time requests.

    A request key is ``("hot", i)`` or ``("miss", j)``; the request bytes
    for a key never change, so equal keys must get equal bodies.
    """

    def __init__(self, seed: int, spec: Dict[str, object]):
        self.seed = seed
        self.spec = spec
        self.hot = [_table1_request(name, spec["hot_scale"])
                    for name in spec["hot_kernels"]]
        self.miss_ratio = float(spec["miss_ratio"])
        self.misses: List[bytes] = []

    def build_misses(self, count: int) -> None:
        """Build the first ``count`` first-time requests up front, so no
        request is generated while the load generator is timing."""
        self.misses = list(itertools.islice(self._first_time_requests(),
                                            count))

    def _first_time_requests(self) -> Iterator[bytes]:
        rng = random.Random(self.seed * 7919 + 1)
        kernels = list(self.spec["miss_kernels"])
        scales = {name: list(self.spec["miss_scales"]) for name in kernels}
        for scale_list in scales.values():
            rng.shuffle(scale_list)
        for index in itertools.count():
            if index % 2 == 0:
                if index % (2 * len(kernels)) == 0:
                    rng.shuffle(kernels)
                name = kernels[(index // 2) % len(kernels)]
                if not scales[name]:
                    raise BenchError(f"ran out of first-time sizes for "
                                     f"{name}")
                yield _table1_request(name, scales[name].pop())
            else:
                yield _grammar_request(self.seed, index)

    def request(self, key: Tuple[str, int]) -> bytes:
        kind, index = key
        return self.hot[index] if kind == "hot" else self.misses[index]

    def hot_keys(self, rng: random.Random) -> Iterator[Tuple[str, int]]:
        """Hot-set keys cycling through seeded permutations, so every
        seed repeats each hot key equally often."""
        while True:
            order = list(range(len(self.hot)))
            rng.shuffle(order)
            for index in order:
                yield ("hot", index)

    def keys(self, rng: random.Random, counter: Iterator[int]
             ) -> Iterator[Tuple[str, int]]:
        """Blocks of ``round(1 / miss_ratio)`` requests, each holding one
        first-time request at a seeded position and hot keys elsewhere,
        so every seed sends the same share of compiles."""
        period = max(1, round(1 / self.miss_ratio))
        hot = self.hot_keys(rng)
        while True:
            miss_at = rng.randrange(period)
            for slot in range(period):
                yield ("miss", next(counter)) if slot == miss_at \
                    else next(hot)


def open_schedule(mix: Mix, seed: int, rate: float, duration: float
                  ) -> List[Tuple[float, tuple]]:
    """``rate * duration`` arrivals at seeded uniform times (a Poisson
    process conditioned on its count)."""
    rng = random.Random(seed)
    keys = mix.keys(random.Random(seed + 1), itertools.count())
    times = sorted(rng.uniform(0.0, duration)
                   for _ in range(round(rate * duration)))
    return [(due, next(keys)) for due in times]


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------

class Recorder:
    """Responses, body identity per key, and failures."""

    def __init__(self, out: Outcome):
        self.out = out
        self.bodies: Dict[tuple, str] = {}
        self.lock = threading.Lock()
        self.sent = 0
        self.issued = 0

    def send(self, daemon: Daemon, mix: Mix, key: tuple,
             due: Optional[float] = None) -> Optional[dict]:
        request = mix.request(key)
        with self.lock:
            self.issued += 1
            trace_id = hashlib.sha256(
                f"{key}/{self.issued}".encode()).hexdigest()[:32]
        begin = time.perf_counter()
        try:
            status, cache, body = post(daemon.host, daemon.port, request,
                                       trace_id)
        except OSError as exc:
            status, cache, body = -1, "", repr(exc).encode()
        end = time.perf_counter()
        digest = hashlib.sha256(body).hexdigest()
        with self.lock:
            self.sent += 1
            self.out.attempted += 1
            if status != 200:
                self.out.fail(f"{key}: HTTP {status}: {body[:200]!r}")
                return None
            first = self.bodies.setdefault(key, digest)
            if first != digest:
                self.out.fail(f"{key}: body differs from an earlier "
                              f"response for the same request")
                return None
        return {"kind": key[0], "cache": cache,
                "latency": end - (due if due is not None else begin),
                "late": begin - due if due is not None else 0.0}


def open_loop(daemon: Daemon, mix: Mix, rec: Recorder,
              schedule: List[Tuple[float, tuple]]) -> List[dict]:
    with ThreadPoolExecutor(max_workers=32) as executor:
        futures = []
        t0 = time.perf_counter() + 0.05
        for offset, key in schedule:
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(executor.submit(rec.send, daemon, mix, key, due))
        results = [f.result() for f in futures]
    return [r for r in results if r is not None]


def closed_loop(daemon: Daemon, mix: Mix, rec: Recorder, seed: int,
                duration: float) -> Tuple[int, HostSpeed]:
    """Hot-set requests back to back from one client per CPU: the
    capacity of the store-read path while compiles of the open loop's
    first-time requests are out of the way.  The loop runs in segments
    of about ``SEGMENT_S``; between two, with every client stopped, the
    host-speed probe runs on each CPU in turn, and each segment's wall
    seconds are scaled by the probes on either side of it."""
    keys = mix.hot_keys(random.Random(seed + 2))
    lock = threading.Lock()
    done = [0]
    speed = HostSpeed(all_cpus=True)
    speed.start()
    segments = max(1, round(duration / SEGMENT_S))
    for _ in range(segments):
        start = time.perf_counter()
        stop_at = start + duration / segments

        def client() -> None:
            while time.perf_counter() < stop_at:
                with lock:
                    key = next(keys)
                if rec.send(daemon, mix, key) is not None:
                    with lock:
                        done[0] += 1

        threads = [threading.Thread(target=client) for _ in range(cpus())]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        speed.add(time.perf_counter() - start)
    return done[0], speed


# ---------------------------------------------------------------------------
# /metrics deltas
# ---------------------------------------------------------------------------

def _total(snap: Dict[str, dict], name: str, **labels) -> float:
    family = snap.get(name) or {"series": []}
    return sum(s["value"] for s in family["series"]
               if all(s["labels"].get(k) == v for k, v in labels.items()))


def _hist(snap: Dict[str, dict], name: str) -> Tuple[Dict[str, int], int]:
    buckets: Dict[str, int] = {}
    count = 0
    for series in (snap.get(name) or {"series": []})["series"]:
        for le, n in series["buckets"].items():
            buckets[le] = buckets.get(le, 0) + n
        count += series["count"]
    return buckets, count


def hist_quantile(before: Dict[str, dict], after: Dict[str, dict],
                  name: str, q: float) -> float:
    """Quantile ``q`` of the observations made between two snapshots,
    interpolated linearly inside the bucket that holds it."""
    b0, n0 = _hist(before, name)
    b1, n1 = _hist(after, name)
    n = n1 - n0
    if n <= 0:
        return 0.0
    bounds = sorted((float(le), b1[le] - b0.get(le, 0)) for le in b1
                    if le != "+Inf")
    rank = q * n
    lo_bound, lo_count = 0.0, 0
    for bound, cum in bounds:
        if cum >= rank:
            span = cum - lo_count
            frac = (rank - lo_count) / span if span else 1.0
            return lo_bound + (bound - lo_bound) * frac
        lo_bound, lo_count = bound, cum
    return lo_bound


def metric_deltas(before: Dict[str, dict], after: Dict[str, dict]
                  ) -> Dict[str, tuple]:
    def delta(name, **labels):
        return _total(after, name, **labels) - _total(before, name,
                                                      **labels)
    requests = delta("repro_requests_total")
    return {
        "pool.queue_wait_p50_s": (hist_quantile(
            before, after, "repro_pool_queue_wait_seconds", 0.5), "s"),
        "pool.queue_wait_p90_s": (hist_quantile(
            before, after, "repro_pool_queue_wait_seconds", 0.9), "s"),
        "pool.task_p50_s": (hist_quantile(
            before, after, "repro_pool_task_seconds", 0.5), "s"),
        "pool.tasks": (int(delta("repro_pool_tasks_total")), "count"),
        "pool.retries": (int(delta("repro_pool_retries_total")), "count"),
        "pool.respawns": (int(delta("repro_pool_respawns_total")), "count"),
        "store.hits": (int(delta("repro_store_hits_total")), "count"),
        "store.misses": (int(delta("repro_store_misses_total")), "count"),
        "store.writes": (int(delta("repro_store_writes_total")), "count"),
        "serve.coalesced_ratio": (
            delta("repro_cache_requests_total", verdict="coalesced")
            / requests if requests else 0.0, "ratio"),
        "serve.shed": (int(delta("repro_shed_total")), "count"),
        "serve.timeouts": (int(delta("repro_timeouts_total")), "count"),
    }


def tree_bytes(path: str) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(folder, name))
    return total


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------

def make_inputs(seed: int, seconds: float
                ) -> Tuple[Mix, List[Tuple[float, tuple]]]:
    """The mix and the open-loop schedule, every request built."""
    spec = load_spec()["serve_mix"]
    mix = Mix(seed, spec)
    schedule = open_schedule(mix, seed, float(spec["rate_per_s"]),
                             seconds * float(spec["open_share"]))
    mix.build_misses(sum(1 for _, key in schedule if key[0] == "miss"))
    return mix, schedule


def run(seed: int, seconds: float, tracer=None, boots: int = 1
        ) -> Tuple[Outcome, float]:
    """One daemon session.  Returns the outcome and the open loop's
    request-seconds (the sum of its latencies), the figure a traced and
    an untraced session are compared by."""
    spec = load_spec()["serve_mix"]
    workdir = make_workdir("serve")
    out = Outcome()
    span_dir = tracer.span_dir if tracer is not None else None
    daemons: List[Daemon] = []
    try:
        boot_s = []
        for i in range(boots):
            daemon = Daemon(workdir, str(i), span_dir=span_dir)
            daemons.append(daemon)
            boot_s.append(daemon.start())
            if i < boots - 1:
                daemon.stop()
        daemon = daemons[-1]
        mix, schedule = make_inputs(seed, seconds)
        rec = Recorder(out)
        for index in range(len(mix.hot)):            # warm the hot set
            rec.send(daemon, mix, ("hot", index))
        before = daemon.metrics()
        cpu0, wall0 = tree_cpu_s(daemon.proc.pid), time.perf_counter()
        results = open_loop(daemon, mix, rec, schedule)
        busy = (tree_cpu_s(daemon.proc.pid) - cpu0) / (
            (time.perf_counter() - wall0) * cpus())
        completed, speed = closed_loop(
            daemon, mix, rec, seed, seconds * (1 - float(spec["open_share"])))
        after = daemon.metrics()
        trace_bytes = tree_bytes(os.path.join(daemon.store, "traces"))
        daemon_rss_kb = tree_peak_rss_kb(daemon.proc.pid)
        sent = rec.sent
        daemon.stop()
    finally:
        for d in daemons:
            d.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    hits = [r["latency"] for r in results if r["kind"] == "hot"]
    misses = [r["latency"] for r in results if r["kind"] == "miss"]
    late = [r["late"] for r in results]
    hot_misses = sum(1 for r in results
                     if r["kind"] == "hot" and r["cache"] != "hit")
    out.checks["hot_set_served_from_store"] = hot_misses == 0
    if not hits or not misses or not completed:
        raise BenchError("serve-mix produced no hits, misses or "
                         "closed-loop completions")
    capacity = completed / speed.measured_s
    rss_mb = peak_rss_mb() + daemon_rss_kb / 1024.0
    out.e2e["setup_s"] = (statistics.median(boot_s), "s")
    out.e2e["peak_rss_mb"] = (rss_mb, "MB")
    out.e2e["ops_per_s"] = (completed / speed.reference_s, "1/s")
    out.report.update({
        "rate_per_s": (float(spec["rate_per_s"]), "1/s"),
        "open_loop_busy": (busy, "ratio"),
        "hit_p50_s": (percentile(hits, 50), "s"),
        "hit_p95_s": (percentile(hits, 95), "s"),
        "hits": (len(hits), "count"),
        "miss_p50_s": (percentile(misses, 50), "s"),
        "miss_p90_s": (percentile(misses, 90), "s"),
        "misses": (len(misses), "count"),
        "capacity_rps": (capacity, "1/s"),
        "host_slowdown": (speed.slowdown, "x"),
        "closed_loop_completed": (completed, "count"),
        "generator_late_p50_s": (percentile(late, 50), "s"),
        "generator_late_max_s": (max(late), "s"),
    })
    out.layer.update(metric_deltas(before, after))
    out.layer["serve.trace_bytes_per_req"] = (trace_bytes / max(1, sent),
                                              "B")
    return out, sum(hits) + sum(misses)
