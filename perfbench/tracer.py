"""Spans and counts at the package's layer boundaries, from outside it.

The tracer wraps public functions and methods of ``repro`` (listed in
:data:`BOUNDARIES`; the one private method is the service's micro-batch
executor, whose callers are the service's own threads) for the duration of a traced phase and restores the
originals afterwards, so the untraced passes run the unmodified code.
A wrapped call records a span (name, start, end, parent span, op id,
thread) and may add counts from its arguments or result.  Spans stay in
memory and are written once, as Chrome trace-event JSON, at exit.

A span's self time is its duration minus the time its child spans (in
the same thread, hence strictly nested) cover; self time is summed per
layer, the part of the name before the first dot.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

#: Spans kept for the trace file; counts and times keep accumulating
#: past it, only the per-span records stop.
MAX_STORED_SPANS = 400_000


def _len(value) -> int:
    return len(value) if value is not None else 0


def _count_predict_many(tracer, args, kwargs, result, started):
    tracer.add("perfmodels.kernels_in", _len(args[1]))


def _count_predict_batch(tracer, args, kwargs, result, started):
    tracer.add(f"perfmodels.predicted.{args[0].kernel_type}", _len(result))


def _count_traverse(tracer, args, kwargs, result, started):
    tracer.add("e2e.kernels_traversed", result.num_kernels)


def _count_sweep(tracer, args, kwargs, result, started):
    tracer.add("sweep.points_evaluated", len(result))
    tracer.add("sweep.points_pruned", getattr(result, "pruned", 0))


def _count_microbench(tracer, args, kwargs, result, started):
    tracer.add("microbench.rows", len(result))


def _count_overheads(tracer, args, kwargs, result, started):
    tracer.add("overheads.ops", len(result.op_names))


def _count_simulator(tracer, args, kwargs, result, started):
    iterations = kwargs.get("iterations", args[2] if len(args) > 2 else 1)
    warmup = kwargs.get("warmup", args[5] if len(args) > 5 else 0)
    tracer.add("simulator.iterations", iterations + warmup)


def _count_serving(tracer, args, kwargs, result, started):
    tracer.add("serving.requests_simulated", _len(args[1]))


def _count_plan(tracer, args, kwargs, result, started):
    planner = args[0]
    tracer.add("capacity.plans_ranked", len(result))
    tracer.add("capacity.plans_feasible", sum(p.meets_slo for p in result))
    tracer.add(
        "capacity.plans_demoted",
        sum(p.simulated_us is not None and not p.meets_slo for p in result),
    )
    tracer.add("capacity.points_pruned", planner.last_prune_stats["pruned"])


def _count_execute(tracer, args, kwargs, result, started):
    # The service reports no per-request queue time; each queued
    # request's enqueue stamp is the only source of it.
    batch = args[1]
    tracer.add("service.wait_s", sum(started - p.enqueued_at for p in batch))


def _span_name_for_train(args, kwargs):
    return f"perfmodels.train.{args[1].kernel_type}"


def _span_name_for_predict_batch(args, kwargs):
    return f"perfmodels.predict_batch.{args[0].kernel_type}"


#: (module, attribute path, span name, count hook).  A method is wrapped
#: on its class and on every subclass that overrides it.  The span name may
#: be a callable of the call's arguments.  A call nested directly in a
#: span of the same name (``build_model`` -> ``build_dlrm_graph``) is
#: not recorded twice.
BOUNDARIES = (
    ("repro.microbench", "measure_peaks", "microbench.peaks", None),
    ("repro.microbench", "run_microbenchmark", "microbench.run",
     _count_microbench),
    ("repro.perfmodels.mlbased.model", "MlKernelModel.train",
     _span_name_for_train, None),
    ("repro.perfmodels.base", "KernelPerfModel.predict_batch",
     _span_name_for_predict_batch, _count_predict_batch),
    ("repro.perfmodels.base", "PerfModelRegistry.predict_many",
     "perfmodels.predict_many", _count_predict_many),
    ("repro.models", "build_model", "models.build", None),
    ("repro.models.dlrm", "build_dlrm_graph", "models.build", None),
    ("repro.models.recommenders", "build_deepfm_graph", "models.build", None),
    ("repro.models.recommenders", "build_dcn_graph", "models.build", None),
    ("repro.models.recommenders", "build_wide_and_deep_graph",
     "models.build", None),
    ("repro.graph.transforms", "move_independent_earlier",
     "graph.transform", None),
    ("repro.graph.transforms", "reorder", "graph.transform", None),
    ("repro.graph.transforms", "fuse_embedding_bags", "graph.transform", None),
    ("repro.graph.transforms", "rescale_batch", "graph.transform", None),
    ("repro.e2e.predictor", "collect_plan", "e2e.collect_plan", None),
    ("repro.e2e.predictor", "traverse_plan", "e2e.traverse",
     _count_traverse),
    ("repro.sweep.engine", "SweepEngine.run", "sweep.run", _count_sweep),
    ("repro.sweep.engine", "SweepEngine.run_multi_gpu", "sweep.run",
     _count_sweep),
    ("repro.sweep.prune", "plan_lower_bounds_us", "sweep.bounds", None),
    ("repro.service.server", "PredictionService.register_overheads",
     "service.register", None),
    ("repro.service.server", "PredictionService._execute",
     "service.execute", _count_execute),
    ("repro.simulator", "SimulatedDevice.run", "simulator.run",
     _count_simulator),
    ("repro.overheads", "OverheadDatabase.from_trace", "overheads.extract",
     _count_overheads),
    ("repro.overheads", "OverheadDatabase.shared", "overheads.extract",
     _count_overheads),
    ("repro.capacity.planner", "CapacityPlanner.plan_dlrm", "capacity.plan",
     _count_plan),
    ("repro.multigpu.predict", "predict_multi_gpu", "multigpu.predict", None),
    ("repro.serving.simulate", "ServingSimulator.run_trace",
     "serving.simulate", _count_serving),
)


def _owners(cls, attr: str) -> list:
    """``cls`` and every subclass that defines ``attr`` itself."""
    owners, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if attr in klass.__dict__:
            owners.append(klass)
        todo.extend(klass.__subclasses__())
    return owners


class _Open:
    """A span on a thread's stack while its call runs."""

    __slots__ = ("name", "start", "parent", "op", "child_s", "index")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        self.index = -1


class Tracer:
    """Span and count recorder; inactive until :meth:`active` is entered."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(float)
        self.span_s: dict[str, float] = defaultdict(float)
        self.span_calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple] = []
        self._origin = time.perf_counter()

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float = 1) -> None:
        """Add to a count (thread-safe)."""
        with self._lock:
            self.counts[name] += amount

    def enter(self, name: str, op=None) -> _Open:
        """Open a span in this thread; pair with :meth:`exit`."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        span = _Open(
            name, time.perf_counter(),
            parent.index if parent is not None else -1, op,
        )
        with self._lock:
            if len(self.spans) < MAX_STORED_SPANS:
                span.index = len(self.spans)
                self.spans.append(None)
        stack.append(span)
        return span

    def exit(self, span: _Open) -> None:
        """Close ``span`` (the innermost open one in this thread)."""
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - span.start
        if stack:
            stack[-1].child_s += duration
        layer = span.name.split(".", 1)[0]
        with self._lock:
            self.span_s[span.name] += duration
            self.span_calls[span.name] += 1
            self.self_s[layer] += duration - span.child_s
            if span.index >= 0:
                self.spans[span.index] = (
                    span.name, span.start, end, span.parent, span.op,
                    threading.get_ident(),
                )

    def current_name(self) -> str | None:
        stack = self._stack()
        return stack[-1].name if stack else None

    # -- patching --------------------------------------------------------
    def _wrap(self, original, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if tracer.current_name() == span_name:
                return original(*args, **kwargs)
            span = tracer.enter(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(span)
            if hook is not None:
                hook(tracer, args, kwargs, result, span.start)
            return result

        traced.__wrapped__ = original
        return traced

    def _install(self) -> None:
        for module_name, path, name, hook in BOUNDARIES:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                for owner in _owners(cls, attr):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(
                            self._wrap(raw.__func__, name, hook)
                        )
                    else:
                        wrapped = self._wrap(raw, name, hook)
                    setattr(owner, attr, wrapped)
                    self._restore.append((owner, attr, raw))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(original, name, hook)
            # Rebind every module-level alias (``from x import f``).
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, original))

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self):
        """Boundaries wrapped inside the ``with`` block, restored after."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    # -- output ----------------------------------------------------------
    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (complete ``X`` events, µs)."""
        events = []
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent, op, tid = span
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - self._origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": {"id": index, "parent": parent, "op": op},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.chrome_trace(), f)
