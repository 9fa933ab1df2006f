"""Shared pieces of the workloads: pass/check results, statistics."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Pass:
    """What one timed pass over a workload's op stream observed.

    Attributes:
        attempted: Ops started.
        failed: Ops that raised or never answered during the pass
            (output checks add their own failures later).
        latencies_s: Per-op latencies the latency metrics summarize.
        slowdowns: Host slowdown (:class:`Calibration`) when each op ran.
        throughput: The workload's ``throughput_per_s`` reading.
        normalized_throughput: The same for the reference host.
        cpu_s: Process CPU time the pass consumed.
        layer: Per-layer counts observed by the workload itself (cache
            and service statistics), reported by the traced run.
        detail: Extra facts for the run record.
        outcomes: Workload-specific results the output checks inspect.
    """

    attempted: int = 0
    failed: int = 0
    latencies_s: list = field(default_factory=list)
    slowdowns: list = field(default_factory=list)
    throughput: float = 0.0
    normalized_throughput: float = 0.0
    cpu_s: float = 0.0
    layer: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    outcomes: object = None


@dataclass
class Check:
    """Output-check verdict of one pass."""

    failed_ops: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    e2e_errors: list = field(default_factory=list)
    active_errors: list = field(default_factory=list)

    def fail(self, op, message: str) -> None:
        """Record one op whose output is wrong."""
        self.failed_ops.add(op)
        if len(self.problems) < 20:
            self.problems.append(f"op {op}: {message}")

    def add_accuracy(self, prediction, e2e_truth_us, active_truth_us):
        """Add one prediction's E2E and GPU-active relative errors."""
        self.e2e_errors.append(
            abs(prediction.total_us - e2e_truth_us) / e2e_truth_us
        )
        self.active_errors.append(
            abs(prediction.active_us - active_truth_us) / active_truth_us
        )


def gmae_pct(errors) -> float:
    """Geometric mean absolute relative error, in percent."""
    logs = [math.log(max(e, 1e-12)) for e in errors]
    return 100.0 * math.exp(sum(logs) / len(logs))


def percentile_ms(latencies_s, percentile: float) -> float:
    """A latency percentile in milliseconds."""
    return float(np.percentile(np.asarray(latencies_s), percentile)) * 1e3


#: Size of the calibration loop, and its duration on the reference host
#: that normalized timings are expressed for.
CALIBRATION_PYTHON_ITERATIONS = 20_000
CALIBRATION_NUMPY_ITERATIONS = 12
CALIBRATION_REFERENCE_S = 0.005
#: Calibration samples during a serial timed pass are this far apart.
CALIBRATION_EVERY_S = 0.2
RECENT_SAMPLES = 5


class Calibration:
    """How fast this host runs fixed work while the run lasts.

    On a shared host other tenants slow a run by tens of percent for
    seconds at a time.  A fixed loop that uses no ``repro`` code, timed
    at idle points throughout the run, measures that slowdown; timings
    divided by it (and rates multiplied by it) are expressed for a host
    where the loop takes :data:`CALIBRATION_REFERENCE_S`.  The loop
    mixes interpreted Python with small dense NumPy products, as the
    prediction track does; either alone tracked the workloads less
    closely.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        rng = np.random.default_rng(0)
        self._inputs = rng.random((64, 256))
        self._weights = rng.random((256, 256))

    def _loop(self) -> None:
        total = 0
        table = {}
        for i in range(CALIBRATION_PYTHON_ITERATIONS):
            total += i * i
            table[i & 255] = total
        for _ in range(CALIBRATION_NUMPY_ITERATIONS):
            np.maximum(self._inputs @ self._weights, 0.0).sum(axis=1)

    def sample(self) -> float:
        """Time the loop once; returns the seconds it took."""
        started = time.perf_counter()
        self._loop()
        took = time.perf_counter() - started
        self.samples.append(took)
        return took

    def slowdown(self) -> float:
        """Median loop time over the reference time."""
        return statistics.median(self.samples) / CALIBRATION_REFERENCE_S

    def recent(self, samples: int = RECENT_SAMPLES) -> float:
        """The slowdown over the latest ``samples`` samples."""
        return (
            statistics.median(self.samples[-samples:])
            / CALIBRATION_REFERENCE_S
        )


class Deadline:
    """Wall-clock budget of a serial timed pass, with calibration pauses.

    :meth:`expired` is called between ops; every
    :data:`CALIBRATION_EVERY_S` it samples the calibration loop and
    extends the budget by the pause, which :meth:`wall_s` and
    :meth:`cpu_s` leave out.
    """

    def __init__(self, seconds: float, calibration: Calibration) -> None:
        self.calibration = calibration
        self.start = time.perf_counter()
        self.cpu_start = time.process_time()
        self.end = self.start + seconds
        self.paused = 0.0
        self.paused_cpu = 0.0
        self.next_sample = self.start

    def expired(self) -> bool:
        now = time.perf_counter()
        if now >= self.next_sample:
            cpu = time.process_time()
            took = self.calibration.sample()
            self.paused_cpu += time.process_time() - cpu
            self.paused += took
            self.end += took
            now = time.perf_counter()
            self.next_sample = now + CALIBRATION_EVERY_S
        return now >= self.end

    def cpu_s(self) -> float:
        return time.process_time() - self.cpu_start - self.paused_cpu


def time_op(result: Pass, calibration: Calibration, call):
    """Run one serial op, recording its latency and the host slowdown."""
    started = time.perf_counter()
    value = call()
    result.latencies_s.append(time.perf_counter() - started)
    result.slowdowns.append(calibration.recent())
    result.attempted += 1
    return value


def finish_serial(result: Pass, work: float, deadline: Deadline) -> None:
    """Throughput of a serial pass: work over the time spent in ops."""
    busy = sum(result.latencies_s)
    normalized = sum(
        latency / slowdown
        for latency, slowdown in zip(result.latencies_s, result.slowdowns)
    )
    result.throughput = work / busy
    result.normalized_throughput = work / normalized
    result.cpu_s = deadline.cpu_s()


def cache_layer(registry, before) -> dict:
    """Kernel-cache hit/miss counts of ``registry`` since ``before``."""
    delta = registry.cache_info().since(before)
    return {
        "perfmodels.cache_hits": delta.hits,
        "perfmodels.cache_misses": delta.misses,
    }
