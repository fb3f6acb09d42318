"""Self-check of the benchmark at tiny sizes (about ten seconds).

    python3 perfbench/selfcheck.py

Checks that every metric name in ``BENCHMARK.json`` matches
``[A-Za-z0-9_.-]+`` and is emitted with its declared unit, that a small
traced run through every layer yields a span for every span-backed
per-layer metric, and that a seeded rerun rebuilds the same inputs.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (HERE, ROOT, child_env, make_workdir,  # noqa: E402
                    use_checkout_source)

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return bench, e2e, layer


def check_names(bench, e2e, layer) -> None:
    names = list(e2e) + list(layer) + [w["name"] for w in
                                       bench["workloads"]]
    bad = [n for n in names if not NAME_RE.match(n)]
    check(not bad, f"{len(names)} metric and workload names match "
                   f"[A-Za-z0-9_.-]+ {bad or ''}")


def check_e2e_line(e2e) -> None:
    """A tiny serve-mix run prints every end-to-end metric with its unit."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "serve-mix", "--seed", "3", "--seconds", "2", "--trace", "0"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=170)
    check(proc.returncode == 0, "tiny serve-mix run exits 0")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(line) == {"correct", "attempted", "failed", "metrics"},
          "result line has exactly correct/attempted/failed/metrics")
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    check(got == e2e, "every end-to-end metric printed with its unit")
    check(line["correct"] and line["failed"] == 0,
          "tiny serve-mix run is correct")


def tiny_traced_run(span_dir: str) -> None:
    """Touch every layer once, small: explore, reduction, fuzz oracle on
    all backends, and a daemon request (miss, then hit)."""
    from repro.explore import explore
    from repro.fuzz.grammar import generate_case
    from repro.fuzz.oracle import OracleOptions, run_case
    from repro.kernels.suite import ALGORITHMS
    from repro.reduction import compile_reduction
    from repro.sim.perf import estimate_reduction
    from serve_mix import Daemon, post, _table1_request

    mm = ALGORITHMS["mm"]
    sizes = mm.sizes(mm.test_scale)
    explore(mm.source, sizes, mm.domain(sizes), block_factors=(4,),
            thread_factors=(1, 4))
    estimate_reduction(compile_reduction(ALGORITHMS["rd"].source, 1 << 12))
    run_case(generate_case(2010, 7),
             OracleOptions(backend="both", schedule_seeds=(0,)))

    daemon = Daemon(os.path.dirname(span_dir), "selfcheck",
                    span_dir=span_dir)
    try:
        daemon.start()
        request = _table1_request("tp", 64)
        for _ in range(2):
            status, _, _ = post(daemon.host, daemon.port, request,
                                "0123456789abcdef")
            check(status == 200, "traced daemon answers 200")
    finally:
        daemon.stop()


def check_spans(layer) -> None:
    from layers import (CALLS, SELF_TIME, LayerTracer, aggregate,
                        per_layer_metrics, read_spans)

    workdir = make_workdir("selfcheck")
    try:
        span_dir = os.path.join(workdir, "spans")
        os.makedirs(span_dir)
        tracer = LayerTracer(span_dir)
        tracer.install()
        try:
            tiny_traced_run(span_dir)
        finally:
            tracer.uninstall()
            tracer.flush()
        totals = aggregate(read_spans(span_dir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = set(SELF_TIME.values()) | set(CALLS.values())
    missing = sorted(s for s in wanted if not totals.calls.get(s))
    check(not missing, f"traced run has a span for each of {len(wanted)} "
                       f"span-backed layers {missing or ''}")
    metrics = per_layer_metrics(totals, {}, 0.0)
    units = {k: u for k, (_, u) in metrics.items()}
    check(units == layer, "every per-layer metric emitted with its unit")
    idle = [k for k in metrics if k.startswith("sim.")
            and k.endswith(".threads_per_s") and not metrics[k][0] > 0]
    check(not idle, f"every simulator backend reports threads/s above 0 "
                    f"{idle or ''}")


def inputs_digest(seed: int) -> str:
    import explore_suite
    import fuzz_oracle
    import serve_mix

    mix, schedule = serve_mix.make_inputs(seed, 20.0)
    misses = [mix.request(("miss", i)) for i in range(12)]
    text = repr((explore_suite.make_inputs(seed),
                 fuzz_oracle.make_inputs(seed), schedule, misses))
    return hashlib.sha256(text.encode()).hexdigest()


def check_reproducible() -> None:
    first = inputs_digest(5)
    proc = subprocess.run(
        [sys.executable, __file__, "--digest", "5"], cwd=ROOT,
        env=child_env(), capture_output=True, text=True, timeout=120)
    check(proc.stdout.strip() == first,
          "a seeded rerun in a fresh process rebuilds the same inputs")
    check(inputs_digest(6) != first, "another seed builds other inputs")


def main(argv) -> int:
    use_checkout_source()
    if argv[:1] == ["--digest"]:
        print(inputs_digest(int(argv[1])))
        return 0
    bench, e2e, layer = declared()
    check_names(bench, e2e, layer)
    check_reproducible()
    check_spans(layer)
    check_e2e_line(e2e)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
