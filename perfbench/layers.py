"""Per-layer attribution: timing wrappers around the public entry points
of each ``src/repro`` layer, installed from outside the program.

:class:`LayerTracer` replaces each entry point with a wrapper that
records a span (name, start, end, parent, request id) in memory.  A
function is patched in *every* loaded ``repro`` module that binds it,
because ``from x import f`` copies the reference at import time; methods
are patched on their class.  Spans stay in memory until :meth:`flush`
writes them as JSON lines.  A process forked after installation (the
compile service's workers) starts with an empty span list and flushes
after each top-level span, since forked workers exit without running
``atexit`` handlers.

Self time is a span's duration minus the time its direct child spans
cover; :func:`aggregate` sums it per layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


def _threads(args, kwargs, result) -> Dict[str, float]:
    config = args[1] if len(args) > 1 else kwargs.get("config")
    return {"threads": float(config.total_threads)}


def _attempts(args, kwargs, result) -> Dict[str, float]:
    return {"attempts": float(len(result.attempts)), "delivered": 1.0}


def _oracle(args, kwargs, result) -> Dict[str, float]:
    return {"rejected": float(result.status == "rejected")}


def _trace_id(args, kwargs) -> Optional[str]:
    return kwargs.get("trace_id") or (args[2] if len(args) > 2 else None)


#: (span name, module, attribute path, counter fn, request-id fn).  The
#: attribute path is ``func`` or ``Class.method``.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable],
                          Optional[Callable]], ...] = (
    ("lang.parse", "repro.lang.parser", "parse_kernel", None, None),
    ("lang.semantic", "repro.lang.semantic", "check_kernel", None, None),
    ("compiler", "repro.compiler", "compile_kernel", _attempts, None),
    ("reduction", "repro.reduction", "compile_reduction", None, None),
    ("explore", "repro.explore", "explore", None, None),
    ("passes.vectorize", "repro.passes.vectorize", "VectorizePass.run",
     None, None),
    ("passes.sharing", "repro.passes.sharing", "plan_merges", None, None),
    ("passes.coalesce", "repro.passes.coalesce_transform",
     "CoalesceTransformPass.run", None, None),
    ("passes.merge", "repro.passes.merge", "ThreadMergePass.run", None,
     None),
    ("passes.partition", "repro.passes.partition",
     "PartitionCampingPass.run", None, None),
    ("passes.prefetch", "repro.passes.prefetch", "PrefetchPass.run", None,
     None),
    ("passes.simplify", "repro.passes.simplify", "SimplifyPass.run", None,
     None),
    ("passes.cleanup", "repro.passes.simplify", "ProofCleanupPass.run",
     None, None),
    ("passes.cleanup", "repro.passes.simplify", "cleanup_kernel", None,
     None),
    ("ir.dependence.footprint", "repro.ir.dependence", "footprint_set",
     None, None),
    ("analysis.dataflow", "repro.analysis.dataflow.engine",
     "analyze_kernel", None, None),
    ("analysis.dataflow", "repro.analysis.dataflow.defuse",
     "shared_defuse", None, None),
    ("analysis.dataflow", "repro.analysis.dataflow.defuse",
     "removable_barriers", None, None),
    ("analysis.verifier", "repro.analysis.verifier", "verify_compiled",
     None, None),
    ("sim.perf", "repro.sim.perf", "estimate", None, None),
    ("sim.perf", "repro.sim.perf", "estimate_compiled", None, None),
    ("sim.perf", "repro.sim.perf", "estimate_reduction", None, None),
    ("sim.lockstep", "repro.sim.interp", "Interpreter.run", _threads, None),
    ("sim.vectorized", "repro.sim.vectorized", "VectorizedInterpreter.run",
     _threads, None),
    ("sim.scheduled", "repro.sim.scheduled", "ScheduledInterpreter.run",
     _threads, None),
    ("fuzz.grammar", "repro.fuzz.grammar", "generate_case", None, None),
    ("fuzz.oracle", "repro.fuzz.oracle", "run_case", _oracle, None),
    ("serve.http", "repro.serve.daemon", "_Handler.do_POST", None, None),
    ("serve.request", "repro.serve.daemon", "CompileService.handle_compile",
     None, _trace_id),
    ("serve.store.cache_key", "repro.serve.store", "cache_key", None,
     None),
    ("serve.store.get", "repro.serve.store", "ArtifactStore.get", None,
     None),
    ("serve.store.put", "repro.serve.store", "ArtifactStore.put", None,
     None),
    ("serve.artifact.build", "repro.serve.artifact",
     "build_compile_artifact", None, None),
)


class LayerTracer:
    """Installs the wrappers and owns the spans they record."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []
        self._ids = itertools.count()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for _, module, attr, _, _ in ENTRY_POINTS:
            importlib.import_module(module)
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "repro" or name.startswith("repro.")]
        for name, module, attr, counter, rid in ENTRY_POINTS:
            mod = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, original, counter,
                                                  rid))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, counter, rid)
            for owner in loaded:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, wrapper)
        os.register_at_fork(after_in_child=self._after_fork)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _patch(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _after_fork(self) -> None:
        self.spans = []
        self._local = threading.local()

    # -- spans -------------------------------------------------------------

    def set_request(self, rid: Optional[str]) -> None:
        """Tag spans opened by this thread from now on with ``rid``."""
        self._local.rid = rid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable,
              counter: Optional[Callable], rid_fn: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            rid = rid_fn(args, kwargs) if rid_fn is not None else None
            if rid is None:
                rid = getattr(tracer._local, "rid", None)
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]               # [id, child coverage]
            stack.append(frame)
            start = time.perf_counter()
            result, returned = None, False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                extra = None
                # Count calls that returned, whatever they returned: the
                # interpreters' ``run`` returns None.
                if counter is not None and returned:
                    extra = counter(args, kwargs, result)
                tracer.spans.append((name, start, end, span_id, parent,
                                     rid, end - start - frame[1], extra))
                if not stack and os.getpid() != tracer.pid:
                    tracer.flush()
        return wrapper

    def flush(self) -> None:
        """Append the recorded spans to this process's span file."""
        spans, self.spans = self.spans, []
        if not spans:
            return
        path = os.path.join(self.span_dir, f"spans.{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            for name, start, end, sid, parent, rid, self_s, extra in spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "id": sid,
                    "parent": parent, "rid": rid, "self": self_s,
                    "extra": extra}) + "\n")


def read_spans(span_dir: str) -> Iterable[Dict[str, Any]]:
    for entry in sorted(os.listdir(span_dir)):
        if entry.startswith("spans.") and entry.endswith(".jsonl"):
            with open(os.path.join(span_dir, entry)) as fh:
                for line in fh:
                    yield json.loads(line)


class LayerTotals:
    """Per-layer self time, call counts and counter sums."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.extra: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))

    def share(self, layer: str) -> float:
        total = sum(self.self_s.values())
        return self.self_s.get(layer, 0.0) / total if total else 0.0


def aggregate(spans: Iterable[Dict[str, Any]]) -> LayerTotals:
    totals = LayerTotals()
    for span in spans:
        name = span["name"]
        totals.self_s[name] += span["self"]
        totals.calls[name] += 1
        for key, value in (span.get("extra") or {}).items():
            totals.extra[name][key] += value
    return totals


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: metric -> span name whose summed self time it reports.
SELF_TIME = {
    "passes.sharing.self_s": "passes.sharing",
    "ir.dependence.footprint.self_s": "ir.dependence.footprint",
    "passes.cleanup.self_s": "passes.cleanup",
    "analysis.dataflow.self_s": "analysis.dataflow",
    "sim.perf.self_s": "sim.perf",
    "passes.vectorize.self_s": "passes.vectorize",
    "passes.coalesce.self_s": "passes.coalesce",
    "passes.merge.self_s": "passes.merge",
    "passes.prefetch.self_s": "passes.prefetch",
    "passes.partition.self_s": "passes.partition",
    "lang.parse.self_s": "lang.parse",
    "lang.semantic.self_s": "lang.semantic",
    "sim.lockstep.self_s": "sim.lockstep",
    "sim.vectorized.self_s": "sim.vectorized",
    "sim.scheduled.self_s": "sim.scheduled",
    "analysis.verifier.self_s": "analysis.verifier",
    "fuzz.grammar.self_s": "fuzz.grammar",
    "fuzz.oracle.self_s": "fuzz.oracle",
    "serve.store.cache_key_s": "serve.store.cache_key",
    "serve.store.get_s": "serve.store.get",
    "serve.store.put_s": "serve.store.put",
    "serve.artifact.build_s": "serve.artifact.build",
}

#: metric -> span name whose call count it reports.
CALLS = {
    "ir.dependence.footprint.calls": "ir.dependence.footprint",
    "lang.parse.calls": "lang.parse",
    "sim.lockstep.launches": "sim.lockstep",
    "sim.vectorized.launches": "sim.vectorized",
    "sim.scheduled.launches": "sim.scheduled",
}

BACKENDS = ("lockstep", "vectorized", "scheduled")

#: Metrics a workload measures itself (0 where it does not apply), with
#: their units.
WORKLOAD_METRICS = {
    "explore.feasible_ratio": "ratio",
    "fuzz.rejected_ratio": "ratio",
    "serve.trace_bytes_per_req": "B",
    "pool.queue_wait_p50_s": "s",
    "pool.queue_wait_p90_s": "s",
    "pool.task_p50_s": "s",
    "pool.tasks": "count",
    "pool.retries": "count",
    "pool.respawns": "count",
    "store.hits": "count",
    "store.misses": "count",
    "store.writes": "count",
    "serve.coalesced_ratio": "ratio",
    "serve.shed": "count",
    "serve.timeouts": "count",
}


def per_layer_metrics(totals: LayerTotals, measured: Dict[str, tuple],
                      overhead_s: float) -> Dict[str, tuple]:
    """Every per-layer metric, in a fixed order; a layer the workload
    never entered reads 0."""
    out: Dict[str, tuple] = {}
    for metric, span in SELF_TIME.items():
        out[metric] = (totals.self_s.get(span, 0.0), "s")
    for metric, span in CALLS.items():
        out[metric] = (totals.calls.get(span, 0), "count")
    for backend in BACKENDS:
        span = f"sim.{backend}"
        busy = totals.self_s.get(span, 0.0)
        threads = totals.extra[span].get("threads", 0.0)
        out[f"{span}.threads_per_s"] = (threads / busy if busy else 0.0,
                                        "1/s")
    compiler = totals.extra["compiler"]
    delivered = compiler.get("delivered", 0.0)
    out["compiler.attempts_per_compile"] = (
        compiler.get("attempts", 0.0) / delivered if delivered else 0.0,
        "count")
    for metric, unit in WORKLOAD_METRICS.items():
        out[metric] = measured.get(metric, (0, unit))
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
