"""Metrics, run record and the result line of one benchmark run."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

from common import gmae_pct, percentile_ms

#: Kernel types every registry the workloads build has a model for.
KERNEL_TYPES = (
    "batchnorm", "concat", "elementwise", "embedding_bwd", "embedding_fwd",
    "gemm", "memcpy", "scan", "transpose", "tril_bwd", "tril_fwd",
)
ML_KERNEL_TYPES = ("gemm", "transpose", "tril_fwd", "tril_bwd")
#: Layers whose self time the traced run reports (``bench`` is the
#: benchmark's own op span around the calls into the package).
SELF_TIME_LAYERS = (
    "bench", "capacity", "e2e", "graph", "microbench", "models", "multigpu",
    "overheads", "perfmodels", "service", "serving", "simulator", "sweep",
)

#: Per-layer metric -> (unit, how to read it from the traced run).
#: ``span_s``/``calls`` read the tracer's span totals by span name (a
#: tuple sums several); ``count`` reads a tracer or workload count.
PER_LAYER = {
    "proc.import_s": ("s", "import"),
    "microbench.busy_s": ("s", ("span_s", ("microbench.peaks", "microbench.run"))),
    "microbench.rows": ("count", ("count", "microbench.rows")),
    "perfmodels.train_s": (
        "s", ("span_s", tuple(f"perfmodels.train.{t}" for t in ML_KERNEL_TYPES)),
    ),
    **{
        f"perfmodels.train_s.{t}": ("s", ("span_s", (f"perfmodels.train.{t}",)))
        for t in ML_KERNEL_TYPES
    },
    "perfmodels.predict_many_calls": ("count", ("calls", "perfmodels.predict_many")),
    "perfmodels.predict_many_s": ("s", ("span_s", ("perfmodels.predict_many",))),
    "perfmodels.kernels_in": ("count", ("count", "perfmodels.kernels_in")),
    "perfmodels.cache_hits": ("count", ("count", "perfmodels.cache_hits")),
    "perfmodels.cache_misses": ("count", ("count", "perfmodels.cache_misses")),
    "perfmodels.cache_hit_ratio": (
        "ratio", ("ratio", "perfmodels.cache_hits", "perfmodels.cache_misses"),
    ),
    **{
        f"perfmodels.predict_batch_s.{t}": (
            "s", ("span_s", (f"perfmodels.predict_batch.{t}",)),
        )
        for t in KERNEL_TYPES
    },
    **{
        f"perfmodels.predicted.{t}": ("count", ("count", f"perfmodels.predicted.{t}"))
        for t in KERNEL_TYPES
    },
    "models.build_calls": ("count", ("calls", "models.build")),
    "models.build_s": ("s", ("span_s", ("models.build",))),
    "graph.transform_calls": ("count", ("calls", "graph.transform")),
    "graph.transform_s": ("s", ("span_s", ("graph.transform",))),
    "e2e.collect_plan_s": ("s", ("span_s", ("e2e.collect_plan",))),
    "e2e.traverse_calls": ("count", ("calls", "e2e.traverse")),
    "e2e.traverse_s": ("s", ("span_s", ("e2e.traverse",))),
    "e2e.kernels_traversed": ("count", ("count", "e2e.kernels_traversed")),
    "sweep.runs": ("count", ("calls", "sweep.run")),
    "sweep.run_s": ("s", ("span_s", ("sweep.run",))),
    "sweep.bounds_s": ("s", ("span_s", ("sweep.bounds",))),
    "sweep.points_evaluated": ("count", ("count", "sweep.points_evaluated")),
    "sweep.points_pruned": ("count", ("count", "sweep.points_pruned")),
    "sweep.prune_ratio": (
        "ratio", ("ratio", "sweep.points_pruned", "sweep.points_evaluated"),
    ),
    "service.requests_sent": ("count", ("count", "service.requests_sent")),
    "service.requests_failed": ("count", ("count", "service.requests_failed")),
    "service.batches": ("count", ("count", "service.batches")),
    "service.mean_batch": ("count", ("count", "service.mean_batch")),
    "service.peak_queue_depth": ("count", ("count", "service.peak_queue_depth")),
    "service.memo_hits": ("count", ("count", "service.memo_hits")),
    "service.memo_misses": ("count", ("count", "service.memo_misses")),
    "service.memo_hit_ratio": (
        "ratio", ("ratio", "service.memo_hits", "service.memo_misses"),
    ),
    "service.memo_invalidations": ("count", ("count", "service.memo_invalidations")),
    "service.execute_s": ("s", ("span_s", ("service.execute",))),
    "service.closed_mean_batch": ("count", ("count", "service.closed_mean_batch")),
    "service.closed_wait_share": ("ratio", ("count", "service.closed_wait_share")),
    "service.register_s": ("s", ("span_s", ("service.register",))),
    "service.generator_lag_ms": ("ms", ("count", "service.generator_lag_ms")),
    "service.unpriceable_sent": ("count", ("count", "service.unpriceable_sent")),
    "service.unpriceable_hung": ("count", ("count", "service.unpriceable_hung")),
    "service.unpriceable_named_conv": (
        "count", ("count", "service.unpriceable_named_conv"),
    ),
    "service.batchmates_hung": ("count", ("count", "service.batchmates_hung")),
    "simulator.run_calls": ("count", ("calls", "simulator.run")),
    "simulator.run_s": ("s", ("span_s", ("simulator.run",))),
    "simulator.iterations": ("count", ("count", "simulator.iterations")),
    "overheads.extract_s": ("s", ("span_s", ("overheads.extract",))),
    "overheads.ops": ("count", ("count", "overheads.ops")),
    "capacity.plan_calls": ("count", ("calls", "capacity.plan")),
    "capacity.plan_s": ("s", ("span_s", ("capacity.plan",))),
    "capacity.plans_ranked": ("count", ("count", "capacity.plans_ranked")),
    "capacity.plans_feasible": ("count", ("count", "capacity.plans_feasible")),
    "capacity.plans_demoted": ("count", ("count", "capacity.plans_demoted")),
    "capacity.points_pruned": ("count", ("count", "capacity.points_pruned")),
    "multigpu.predict_calls": ("count", ("calls", "multigpu.predict")),
    "multigpu.predict_s": ("s", ("span_s", ("multigpu.predict",))),
    "serving.simulate_calls": ("count", ("calls", "serving.simulate")),
    "serving.simulate_s": ("s", ("span_s", ("serving.simulate",))),
    "serving.requests_simulated": ("count", ("count", "serving.requests_simulated")),
    **{f"{layer}.self_s": ("s", ("self_s", layer)) for layer in SELF_TIME_LAYERS},
    "trace.overhead_ratio": ("ratio", "overhead"),
}

#: Latency percentiles the run record keeps besides the gated ones.
PERCENTILES = (50, 75, 90, 95, 98, 99)

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "e2e_gmae_pct": "%",
    "active_gmae_pct": "%",
    "peak_rss_mb": "MB",
}


def _per_layer(tracer, counts, import_s, overhead) -> dict:
    values = {}
    for name, (unit, how) in PER_LAYER.items():
        if how == "import":
            value = import_s
        elif how == "overhead":
            value = overhead
        elif how[0] == "span_s":
            value = sum(tracer.span_s.get(n, 0.0) for n in how[1])
        elif how[0] == "calls":
            value = tracer.span_calls.get(how[1], 0)
        elif how[0] == "self_s":
            value = tracer.self_s.get(how[1], 0.0)
        elif how[0] == "count":
            value = counts.get(how[1], 0)
        else:
            good, other = counts.get(how[1], 0), counts.get(how[2], 0)
            value = good / (good + other) if good + other else 0.0
        values[name] = {"value": value, "unit": unit}
    return values


def _host() -> dict:
    import numpy

    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu_model = platform.processor()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _source(src_dir: str) -> dict:
    """Git commit when available, and a digest of the package sources."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(os.path.join(src_dir, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    root = os.path.dirname(src_dir)
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def emit(args, workload, import_s, setup_times, setup_slowdown, calibration,
         measured, reference, verdict, probed, tracer, out_dir) -> int:
    """Write the run record (and trace), print the result line.

    End-to-end timings are divided, and rates multiplied, by the host
    slowdown (:class:`common.Calibration`) measured while they ran: per
    op for latencies and throughput, over set-up for ``setup_s``.  The
    record keeps the raw readings next to them.
    """
    failed = measured.failed + len(verdict.failed_ops)
    correct = failed == 0 and not verdict.problems and bool(verdict.e2e_errors)
    latencies = measured.latencies_s
    tail = workload.TAIL_PERCENTILE
    normalized = [
        latency / slowdown
        for latency, slowdown in zip(latencies, measured.slowdowns)
    ]
    if args.trace:
        overhead = (
            (measured.attempted / measured.cpu_s)
            / (reference.attempted / reference.cpu_s)
        )
        counts = {**tracer.counts, **measured.layer, **probed}
        metrics = _per_layer(tracer, counts, import_s, overhead)
        raw = {}
    else:
        raw = {
            "setup_s": import_s + statistics.median(setup_times),
            "throughput_per_s": measured.throughput,
            "latency_p50_ms": percentile_ms(latencies, 50.0),
            "latency_tail_ms": percentile_ms(latencies, tail),
        }
        metrics = {
            "setup_s": raw["setup_s"] / setup_slowdown,
            "throughput_per_s": measured.normalized_throughput,
            "latency_p50_ms": percentile_ms(normalized, 50.0),
            "latency_tail_ms": percentile_ms(normalized, tail),
            "e2e_gmae_pct": gmae_pct(verdict.e2e_errors),
            "active_gmae_pct": gmae_pct(verdict.active_errors),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()
        }

    tail_s = percentile_ms(latencies, tail) / 1e3
    src_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": _host(),
        "source": _source(src_dir),
        "setup_s_samples": setup_times,
        "import_s": import_s,
        "calibration": {
            "samples": len(calibration.samples),
            "median_s": statistics.median(calibration.samples),
            "slowdown": calibration.slowdown(),
            "setup_slowdown": setup_slowdown,
        },
        "raw_metrics": raw,
        "latency": {
            "samples": len(latencies),
            "tail_percentile": tail,
            "beyond_tail": sum(x > tail_s for x in latencies),
            "percentiles_ms": {
                str(p): percentile_ms(normalized, p) for p in PERCENTILES
            },
            "raw_percentiles_ms": {
                str(p): percentile_ms(latencies, p) for p in PERCENTILES
            },
        },
        "attempted": measured.attempted,
        "failed": failed,
        "problems": verdict.problems,
        "gmae_samples": len(verdict.e2e_errors),
        "detail": measured.detail,
        "probe": probed,
        "metrics": metrics,
    }
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"{stem}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=str)
    if tracer is not None:
        tracer.write(os.path.join(out_dir, f"{stem}.trace.json"))
    for problem in verdict.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": measured.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0
