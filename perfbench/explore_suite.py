"""explore-suite: the serial Section 4.1 sweep over every Table 1 kernel.

Each non-reduction kernel at paper scale 2048 goes through
``repro.explore.explore`` (20 merge-factor candidates, analytic-model
scoring on GTX280); ``rd`` goes through ``compile_reduction`` and
``estimate_reduction`` as one candidate.  The seed only orders the
kernels: the suite itself is the paper's fixed input.  The workload
never simulates while timed.

A candidate's time is its compile plus its model estimate.  The sweep
loop lives inside ``explore``, so the run stamps explore's own calls to
``compile_kernel`` (start) and ``estimate_compiled`` (end; a candidate
that raises ``PassError`` ends at the raise).  The stamps cost two clock
reads per candidate.  Before a candidate's stamp the host-speed probe
may run (:class:`common.HostSpeed`, at most every 0.2 CPU seconds); it
is outside every stamp and outside ``ops_per_s``'s seconds.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import time
from typing import Dict, List, Tuple

import numpy as np

from common import HostSpeed, Outcome, geomean, load_spec, percentile

SCALE = 2048
#: Candidates per explored kernel (Section 4.1's merge-factor grid).
GRID = 20


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def make_inputs(seed: int) -> List[str]:
    """The kernel order of one sweep."""
    from repro.kernels.suite import ALGORITHMS
    order = list(ALGORITHMS)
    random.Random(seed).shuffle(order)
    return order


class _CandidateClock:
    """Stamps explore's per-candidate compile+estimate intervals and
    laps ``speed`` before each."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        # ``repro.explore`` the attribute is the function; take the module.
        explore_mod = importlib.import_module("repro.explore")
        self.mod = explore_mod
        self.samples: List[float] = []
        self._start = None
        self._saved = (explore_mod.compile_kernel,
                       explore_mod.estimate_compiled)

    def __enter__(self):
        compile_kernel, estimate_compiled = self._saved
        clock = self

        def stamped_compile(*args, **kwargs):
            clock.speed.lap()
            clock._start = time.perf_counter()
            try:
                return compile_kernel(*args, **kwargs)
            except Exception:
                clock._close()
                raise

        def stamped_estimate(*args, **kwargs):
            try:
                return estimate_compiled(*args, **kwargs)
            finally:
                clock._close()

        self.mod.compile_kernel = stamped_compile
        self.mod.estimate_compiled = stamped_estimate
        return self

    def _close(self) -> None:
        if self._start is not None:
            self.samples.append(time.perf_counter() - self._start)
            self._start = None

    def __exit__(self, *exc):
        self.mod.compile_kernel, self.mod.estimate_compiled = self._saved


def sweep(order: List[str], out: Outcome,
          winners: Dict[str, Tuple[int, int, str]],
          winner_s: Dict[str, float],
          samples: List[float], feasible: List[int], speed: HostSpeed,
          tracer=None) -> None:
    """One timed sweep of the suite in ``order``; records each kernel's
    winner and its modeled time.  ``speed`` laps before each kernel and
    each candidate, outside the candidates' stamps."""
    from repro.explore import explore
    from repro.kernels.suite import ALGORITHMS
    from repro.reduction import compile_reduction
    from repro.sim.perf import estimate_reduction

    for name in order:
        speed.lap()
        algo = ALGORITHMS[name]
        if tracer is not None:
            tracer.set_request(name)
        if algo.uses_global_sync:
            out.attempted += 1
            start = time.perf_counter()
            try:
                compiled = compile_reduction(algo.source, algo.default_scale)
                est = estimate_reduction(compiled)
            except Exception as exc:          # rd's only candidate
                out.fail(f"{name}: {type(exc).__name__}: {exc}")
                continue
            samples.append(time.perf_counter() - start)
            feasible.append(1)
            winners[name] = (compiled.plan.block_threads,
                             compiled.plan.thread_merge,
                             digest(compiled.stage1_source))
            winner_s[name] = est.time_s
            continue
        sizes = algo.sizes(SCALE)
        with _CandidateClock(speed) as clock:
            try:
                result = explore(algo.source, sizes, algo.domain(sizes))
            except Exception as exc:          # any error is a failure
                out.attempted += GRID
                out.fail(f"{name}: {type(exc).__name__}: {exc}")
                continue
        out.attempted += len(result.versions)
        if len(clock.samples) != len(result.versions):
            raise RuntimeError(f"{name}: stamped {len(clock.samples)} "
                               f"candidates, explore returned "
                               f"{len(result.versions)}")
        samples.extend(clock.samples)
        feasible.extend(int(v.feasible) for v in result.versions)
        best = result.best
        winners[name] = (best.block_merge, best.thread_merge,
                         digest(best.compiled.source))
        winner_s[name] = best.time_s


def speedup_geomean(winner_s: Dict[str, float]) -> float:
    """Modeled naive time / winner time on GTX280, geomean over the
    suite (untimed; deterministic, so speed bought by worse code shows)."""
    from repro.bench.figures import _naive_reduction_time, compile_naive
    from repro.kernels.suite import ALGORITHMS
    from repro.machine import GTX280
    from repro.sim.perf import estimate_compiled

    ratios = []
    for name, algo in ALGORITHMS.items():
        if algo.uses_global_sync:
            naive_s = _naive_reduction_time(algo.default_scale, GTX280)
        else:
            naive_s = estimate_compiled(
                compile_naive(algo, SCALE, GTX280)).time_s
        ratios.append(naive_s / winner_s[name])
    return geomean(ratios)


def check_outputs(out: Outcome) -> None:
    """Default compile of each kernel at its test scale, run on the
    vectorized backend, against the NumPy reference (untimed)."""
    from repro.compiler import compile_kernel
    from repro.kernels.suite import ALGORITHMS
    from repro.reduction import compile_reduction

    ok = True
    for name, algo in ALGORITHMS.items():
        sizes = algo.sizes(algo.test_scale)
        arrays = algo.make_arrays(np.random.default_rng(99), sizes)
        want = algo.reference(arrays, sizes)
        if algo.uses_global_sync:
            got = {"sum": np.asarray(compile_reduction(
                algo.source, algo.test_scale).run(
                    arrays["a"].copy(), backend="vectorized"))}
        else:
            compiled = compile_kernel(algo.source, sizes, algo.domain(sizes))
            got = {k: v.copy() for k, v in arrays.items()}
            compiled.run(got, backend="vectorized")
        for key, expected in want.items():
            if not np.allclose(got[key], expected, rtol=algo.rtol,
                               atol=1e-5):
                ok = False
                out.failures.append(f"{name}: output {key} differs from "
                                    f"the reference")
    out.checks["reference_outputs"] = ok


def run(seed: int, seconds: float, tracer=None) -> Tuple[Outcome, float]:
    """Whole sweeps of the suite until ``seconds`` would be exceeded
    (at least one).  Returns the outcome and the timed seconds scaled
    to the reference host, the figure traced and untraced runs compare.
    ``ops_per_s`` is candidates per host-speed-normalized CPU second
    (:class:`common.HostSpeed`); ``candidates_per_s`` is per unscaled
    CPU second.  Untraced runs also check outputs and report the modeled
    speedup."""
    out = Outcome()
    order = make_inputs(seed)
    pins = {k: tuple(v) for k, v in
            load_spec()["explore_suite"]["winners"].items()}
    samples: List[float] = []
    feasible: List[int] = []
    sweeps = 0
    speed = HostSpeed()
    start = time.perf_counter()
    speed.start()
    while True:
        winners: Dict[str, Tuple[int, int, str]] = {}
        winner_s: Dict[str, float] = {}
        sweep(order, out, winners, winner_s, samples, feasible, speed,
              tracer)
        sweeps += 1
        for name, pin in pins.items():
            if winners.get(name) != pin:
                out.fail(f"{name}: winner {winners.get(name)} drifted from "
                         f"pinned {pin}")
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / sweeps > seconds:
            break
    speed.finish()

    if tracer is None:
        check_outputs(out)
        if len(winner_s) == len(pins):
            out.report["speedup_geomean"] = (speedup_geomean(winner_s),
                                             "x")
    n = len(samples)
    out.e2e["ops_per_s"] = (n / speed.reference_s, "1/s")
    out.report.update({
        "candidates_per_s": (n / speed.measured_s, "1/s"),
        "host_slowdown": (speed.slowdown, "x"),
        "compile_p50_s": (percentile(samples, 50), "s"),
        "compile_p90_s": (percentile(samples, 90), "s"),
        "candidates": (n, "count"),
        "sweeps": (sweeps, "count"),
    })
    out.layer["explore.feasible_ratio"] = (
        sum(feasible) / max(1, len(feasible)), "ratio")
    return out, speed.reference_s
