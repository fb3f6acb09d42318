"""fuzz-oracle: a differential fuzz campaign through the full oracle.

Each case is ``repro.fuzz.grammar.generate_case`` output checked by
``repro.fuzz.oracle.run_case`` with every cumulative stage against the
naive reference, lockstep and vectorized runs cross-checked
(``backend="both"``), and two seeded warp schedules.  The workload is
simulator-bound.

The kernels are a fixed campaign (``spec.json``: the first cases of the
campaign seed whose launch has at most ``max_threads`` threads), so every
seed runs the same amount of simulation: case cost spans two orders of
magnitude across grammar draws, so a free draw of the few dozen cases a
run holds would make run-to-run spread larger than any bound.  Small
launches keep many cases in a run, so no single case dominates its
time.  The benchmark seed picks the
case order and each case's two schedule seeds (one ``random``, one
``chaos`` scheduler, the finders of the schedule oracle).  Fresh
schedule seeds per case, rather than two for the whole campaign, keep
a run's cost from hanging on one pair of draws: a pair can make every
case 5-10% cheaper.  The host-speed probe (:class:`common.HostSpeed`)
runs between cases, outside their times.
"""

from __future__ import annotations

import contextlib
import importlib
import random
import time
from typing import List, Tuple

from common import HostSpeed, Outcome, load_spec, percentile


def campaign() -> Tuple[int, List[int]]:
    """(campaign seed, case indices) of the fixed kernel campaign."""
    from repro.fuzz.grammar import generate_case
    spec = load_spec()["fuzz_oracle"]
    seed, want, cap = spec["campaign_seed"], spec["cases"], \
        spec["max_threads"]
    indices: List[int] = []
    index = 0
    while len(indices) < want:
        case = generate_case(seed, index)
        if case.domain[0] * case.domain[1] <= cap:
            indices.append(index)
        index += 1
    return seed, indices


def make_inputs(seed: int
                ) -> Tuple[int, List[int], List[Tuple[int, int]]]:
    """Campaign seed, seeded case order, and each case's two schedule
    seeds."""
    campaign_seed, indices = campaign()
    rng = random.Random(seed)
    rng.shuffle(indices)
    # scheduler kind is seed % 3: 0 -> random, 1 -> chaos
    schedule_seeds = [(3 * rng.randrange(1 << 16),
                       3 * rng.randrange(1 << 16) + 1) for _ in indices]
    return campaign_seed, indices, schedule_seeds


class _LaunchLaps:
    """Laps ``speed`` before every simulator launch.

    A case holds a few dozen launches and can run for seconds, longer
    than the host keeps one speed, so probes only between cases would
    scale a long case by speeds it never ran at.  Traced runs do not use
    this: there a probe inside a case would land in the oracle's self
    time.
    """

    CLASSES = (("repro.sim.interp", "Interpreter"),
               ("repro.sim.vectorized", "VectorizedInterpreter"),
               ("repro.sim.scheduled", "ScheduledInterpreter"))

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self._saved = [(cls, cls.__dict__["run"]) for cls in (
            getattr(importlib.import_module(mod), name)
            for mod, name in self.CLASSES)]

    def __enter__(self):
        for cls, run in self._saved:
            cls.run = self._lapped(run)
        return self

    def _lapped(self, run):
        speed = self.speed

        def lapped(interp, *args, **kwargs):
            speed.lap()
            return run(interp, *args, **kwargs)
        return lapped

    def __exit__(self, *exc):
        for cls, run in self._saved:
            cls.run = run


def run(seed: int, seconds: float, tracer=None) -> Tuple[Outcome, float]:
    """Whole passes over the campaign until ``seconds`` would be exceeded
    (at least one).  Returns the outcome and the timed seconds scaled
    to the reference host, the figure traced and untraced runs compare.
    ``ops_per_s`` is cases per host-speed-normalized CPU second
    (:class:`common.HostSpeed`); ``cases_per_s`` is per unscaled CPU
    second."""
    from repro.fuzz.grammar import generate_case
    from repro.fuzz.oracle import OracleOptions, run_case

    campaign_seed, indices, schedule_seeds = make_inputs(seed)
    options = [OracleOptions(backend="both", schedule_seeds=seeds)
               for seeds in schedule_seeds]
    out = Outcome()
    samples: List[float] = []
    statuses = {"ok": 0, "rejected": 0, "divergent": 0}
    rounds = 0
    speed = HostSpeed()
    start = time.perf_counter()
    speed.start()
    laps = (_LaunchLaps(speed) if tracer is None
            else contextlib.nullcontext())
    with laps:
        while True:
            for index, case_options in zip(indices, options):
                speed.lap()
                if tracer is not None:
                    tracer.set_request(f"case-{index}")
                out.attempted += 1
                t0, probed = time.perf_counter(), speed.probe_s
                try:
                    result = run_case(generate_case(campaign_seed, index),
                                      case_options)
                except Exception as exc:
                    out.fail(f"case {index}: oracle crashed: "
                             f"{type(exc).__name__}: {exc}")
                    continue
                samples.append(time.perf_counter() - t0
                               - (speed.probe_s - probed))
                statuses[result.status] += 1
                if result.status == "divergent":
                    out.fail(f"{result.case.name}: "
                             + "; ".join(d.render() for d in
                                         result.divergences[:2]))
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds > seconds:
                break
    speed.finish()

    out.checks["zero_divergent"] = statuses["divergent"] == 0
    n = len(samples)
    out.e2e["ops_per_s"] = (n / speed.reference_s, "1/s")
    out.report.update({
        "cases_per_s": (n / speed.measured_s, "1/s"),
        "host_slowdown": (speed.slowdown, "x"),
        "case_p50_s": (percentile(samples, 50), "s"),
        "cases": (n, "count"),
        "rounds": (rounds, "count"),
        "divergent": (statuses["divergent"], "count"),
        "rejected": (statuses["rejected"], "count"),
    })
    out.layer["fuzz.rejected_ratio"] = (
        statuses["rejected"] / max(1, out.attempted), "ratio")
    return out, speed.reference_s
