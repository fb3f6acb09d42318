"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: ``explore-suite``,
``fuzz-oracle``, ``serve-mix`` (see ``NOTES.md`` and ``spec.json``).
With ``--trace 0`` the last line of standard output is a JSON object
holding every end-to-end metric; with ``--trace 1`` the workload runs
once untraced and once with layer wrappers installed, and the object
holds every per-layer metric.  Lines before it are for people.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (WORK, BenchError, Outcome, emit, peak_rss_mb,  # noqa
                    print_table, probe_setup, use_checkout_source)

WORKLOADS = ("explore-suite", "fuzz-oracle", "serve-mix")
#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 7
#: Daemon boots timed per serve-mix run for ``setup_s``.
SERVE_BOOTS = 5


def workload_module(name: str):
    if name == "explore-suite":
        import explore_suite as mod
    elif name == "fuzz-oracle":
        import fuzz_oracle as mod
    elif name == "serve-mix":
        import serve_mix as mod
    else:
        raise BenchError(f"unknown workload {name!r}")
    return mod


def probe(name: str) -> int:
    """Set-up probe: import the workload's layers, build its inputs."""
    use_checkout_source()
    mod = workload_module(name)
    if name == "serve-mix":
        mod.make_inputs(0, 10.0)
    else:
        mod.make_inputs(0)
    print("probe-ready", flush=True)
    return 0


def run_untraced(name: str, seed: int, seconds: float) -> Outcome:
    mod = workload_module(name)
    if name == "serve-mix":
        out, _ = mod.run(seed, seconds, boots=SERVE_BOOTS)
    else:
        setup_s = probe_setup(name, SETUP_PROBES)
        out, _ = mod.run(seed, seconds)
        out.e2e["setup_s"] = (setup_s, "s")
        out.e2e["peak_rss_mb"] = (peak_rss_mb(), "MB")
    order = ("setup_s", "peak_rss_mb", "ops_per_s")
    out.e2e = {k: out.e2e[k] for k in order}
    return out


def run_traced(name: str, seed: int, seconds: float) -> Outcome:
    """Untraced, then traced; per-layer metrics from the traced pass."""
    from layers import LayerTracer, aggregate, per_layer_metrics, read_spans

    mod = workload_module(name)
    span_dir = os.path.join(WORK, "spans", name)
    shutil.rmtree(span_dir, ignore_errors=True)
    os.makedirs(span_dir)
    plain, plain_s = mod.run(seed, seconds)
    tracer = LayerTracer(span_dir)
    if name == "serve-mix":
        out, traced_s = mod.run(seed, seconds, tracer=tracer)
    else:
        tracer.install()
        try:
            out, traced_s = mod.run(seed, seconds, tracer=tracer)
        finally:
            tracer.uninstall()
            tracer.flush()
    out.attempted += plain.attempted
    out.failed += plain.failed
    out.failures += plain.failures
    out.checks.update(plain.checks)
    totals = aggregate(read_spans(span_dir))
    out.layer = per_layer_metrics(totals, out.layer,
                                  traced_s - plain_s)
    shares = {layer: (100.0 * totals.share(layer), "%")
              for layer in sorted(totals.self_s, key=totals.self_s.get,
                                  reverse=True)}
    print_table("self-time share by layer (traced pass)", shares)
    groups = {"passes.sharing+ir.dependence": ("passes.sharing",
                                               "ir.dependence.footprint"),
              "sim backends": ("sim.lockstep", "sim.vectorized",
                               "sim.scheduled"),
              "serve.*": tuple(s for s in totals.self_s
                               if s.startswith("serve."))}
    print_table("grouped self-time share (compare spec.json "
                "attribution_baseline)",
                {g: (100.0 * sum(totals.share(s) for s in members), "%")
                 for g, members in groups.items()})
    out.report["untraced_s"] = (plain_s, "s")
    out.report["traced_s"] = (traced_s, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit that runs the cleanup of started daemons.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        if args.probe:
            return probe(args.probe)
        if not args.workload:
            parser.error("--workload is required")
        use_checkout_source()
        start = time.perf_counter()
        if args.trace:
            out = run_traced(args.workload, args.seed, args.seconds)
            metrics = out.layer
        else:
            out = run_untraced(args.workload, args.seed, args.seconds)
            metrics = out.e2e
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    print(f"# workload {args.workload} seed {args.seed} "
          f"({time.perf_counter() - start:.1f} s)")
    print_table("workload figures", out.report)
    print_table("checks", {k: (v, "") for k, v in out.checks.items()})
    print_table("failed ratio", {"failed_ratio": (
        out.failed / max(1, out.attempted), "ratio")})
    for failure in out.failures:
        print(f"  FAIL {failure}")
    print_table("metrics", metrics)
    emit(out.correct, out.attempted, out.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
