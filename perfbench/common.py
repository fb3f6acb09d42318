"""Shared helpers of the benchmark: checkout layout, statistics, set-up
probes, peak memory, and the result line.

Nothing here imports ``repro``; :func:`use_checkout_source` points the
interpreter at the checkout's own ``src`` tree first, so the benchmark
always measures the code it was checked out with.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, span files and probe output (git-ignored).
WORK = os.path.join(ROOT, ".perfbench")

#: Pinned simulator backend for every process the benchmark starts; the
#: CI matrix variable must not change what a run measures.
SIM_BACKEND = "lockstep"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source tree, bad input)."""


def use_checkout_source() -> None:
    """Import ``repro`` from ``<checkout>/src`` and pin the simulator
    backend before any ``repro`` module reads the environment."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no repro package under {SRC}; run from a full "
                         f"checkout")
    os.environ["REPRO_SIM_BACKEND"] = SIM_BACKEND
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: checkout source, pinned backend."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_SIM_BACKEND"] = SIM_BACKEND
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_COVERAGE_DIR", None)
    return env


def cpus() -> int:
    """Usable CPUs; the serve workload pins its worker count to this."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def make_workdir(tag: str) -> str:
    path = os.path.join(WORK, f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: Seconds one probe takes on the reference host (2-vCPU Xeon at 2 GHz,
#: CPython 3).  Only a scale: it turns probe-normalized seconds back
#: into seconds of about that host.
PROBE_REF_S = 0.0075
#: Least CPU seconds between two probes.
PROBE_PERIOD_S = 0.2


class _ProbeNode:
    __slots__ = ("key", "value")

    def __init__(self, key: tuple, value: int):
        self.key = key
        self.value = value

    def weight(self) -> int:
        return self.value * 3 + 1


#: The probe's data, built once: the loop only reads it, so the state of
#: the allocator and of the workload's heap does not move the probe.
_PROBE_NODES = [_ProbeNode((i % 97, i & 7), i % 13) for i in range(512)]
_PROBE_TABLE = {node.key: i for i, node in enumerate(_PROBE_NODES)}


def _probe_loop(rounds: int = 64) -> int:
    """Fixed interpreter work (attribute reads, method calls, tuple-keyed
    dict lookups, integer adds); it allocates next to nothing and
    imports nothing from ``repro``, so no program change moves it."""
    total = 0
    table = _PROBE_TABLE
    for _ in range(rounds):
        for node in _PROBE_NODES:
            total += table[node.key] + node.weight()
    return total


def _timed_probe() -> float:
    """CPU seconds of one probe loop, garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        _probe_loop()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def current_cpu() -> int:
    """The CPU this process is running on (Linux), else the lowest
    usable one."""
    try:
        with open("/proc/self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return min(os.sched_getaffinity(0))


class HostSpeed:
    """Host-speed probes interleaved with a workload's timed work.

    A shared host's CPUs do not run at one steady speed.  On a 2-vCPU
    host the probe loop took 4.2 ms on one vCPU and 7.4 ms on the other
    (medians of a few hundred probes), a process moves between them
    within a second, and each one's speed changes within seconds and
    drifts over minutes with the neighbours' load: the same fuzz cases,
    pinned to one vCPU, took a quarter less CPU time a minute later.  So
    seconds measured at different times do not compare.

    :meth:`start` pins this thread (and the processes it starts later)
    to the CPU it is on, so the probes measure the CPU the work runs on;
    with ``all_cpus`` it does not pin, and each probe runs once on every
    usable CPU and keeps their mean, for work spread over all of them.
    :meth:`lap`, called at operation boundaries, closes the interval of
    process CPU time since the previous probe once ``PROBE_PERIOD_S`` has
    passed, and probes; :meth:`add` does the same for an interval the
    caller timed.  A probe is a fixed loop that allocates next to
    nothing, with the garbage collector paused.  Each interval is scaled
    by ``PROBE_REF_S`` over the mean of the probes on either side of it:
    ``reference_s`` sums the scaled intervals, the time the work would
    have taken at the reference host's speed, and ``measured_s`` sums
    them unscaled.  Probe time is in neither.  :meth:`finish` closes the
    last interval and lifts the pin.
    """

    def __init__(self, all_cpus: bool = False):
        self.all_cpus = all_cpus
        self.probes: List[float] = []
        self.measured_s = 0.0
        self.reference_s = 0.0
        #: Wall seconds spent probing.
        self.probe_s = 0.0
        self._since = 0.0
        self._affinity: Optional[set] = None

    def _probe(self) -> None:
        start = time.perf_counter()
        if not self.all_cpus:
            self.probes.append(_timed_probe())
        else:
            affinity = os.sched_getaffinity(0)
            times = []
            try:
                for cpu in sorted(affinity):
                    os.sched_setaffinity(0, {cpu})
                    times.append(_timed_probe())
            finally:
                os.sched_setaffinity(0, affinity)
            self.probes.append(sum(times) / len(times))
        self.probe_s += time.perf_counter() - start
        self._since = time.process_time()

    def start(self) -> None:
        """Pin to the current CPU (unless ``all_cpus``) and probe once;
        the first interval begins now."""
        if not self.all_cpus:
            self._affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {current_cpu()})
        self._probe()

    def lap(self) -> None:
        """At an operation boundary: close the interval if it is long
        enough, probe, and begin the next."""
        seconds = time.process_time() - self._since
        if seconds >= PROBE_PERIOD_S:
            self.add(seconds)

    def add(self, seconds: float) -> float:
        """Count an interval that ended just now, probe, and return the
        interval scaled to the reference host."""
        if not self.probes:
            raise BenchError("HostSpeed.add before start")
        before = self.probes[-1]
        self._probe()
        scaled = seconds * PROBE_REF_S / ((before + self.probes[-1]) / 2)
        self.measured_s += seconds
        self.reference_s += scaled
        return scaled

    def finish(self) -> None:
        """Close the last interval and restore the CPU affinity."""
        self.add(time.process_time() - self._since)
        self.unpin()

    def unpin(self) -> None:
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)
            self._affinity = None

    @property
    def slowdown(self) -> float:
        """Median probe time over the reference probe time."""
        return statistics.median(self.probes) / PROBE_REF_S


# ---------------------------------------------------------------------------
# Set-up time and memory
# ---------------------------------------------------------------------------

def probe_setup(workload: str, repeats: int) -> float:
    """Median seconds from process start until a fresh interpreter has
    imported the workload's layers and built its inputs (the same code
    path a run takes before its first timed operation).  The
    interpreters run one at a time on this process's pinned CPU; each
    one's wall time is scaled to the reference host by the probes on
    either side of it (:class:`HostSpeed`)."""
    samples = []
    speed = HostSpeed()
    speed.start()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--probe", workload],
                cwd=ROOT, env=child_env(), capture_output=True, text=True,
                timeout=120)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0 or "probe-ready" not in proc.stdout:
                raise BenchError(f"set-up probe failed: "
                                 f"{proc.stderr[-400:]}")
            samples.append(speed.add(elapsed))
    finally:
        speed.unpin()
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: end-to-end metric name -> (value, unit)
    e2e: Dict[str, tuple] = field(default_factory=dict)
    #: workload-specific figures printed for people, not gated
    report: Dict[str, tuple] = field(default_factory=dict)
    #: per-layer metrics the workload measures itself (not from spans)
    layer: Dict[str, tuple] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, tuple]) -> None:
    """Print the result object as the last line of standard output."""
    line = {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}
    print(json.dumps(line), flush=True)


def print_table(title: str, rows: Dict[str, tuple]) -> None:
    print(f"# {title}")
    for name, (value, unit) in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<36} {shown:>14} {unit}")


def load_spec() -> Dict[str, object]:
    with open(os.path.join(HERE, "spec.json")) as fh:
        return json.load(fh)

