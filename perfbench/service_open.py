"""service-open: requests to a resident ``PredictionService``.

One generator thread sends requests into a service with one worker,
warmed in set-up with every distinct request: first in a closed loop
that keeps two full micro-batches in flight, then open-loop Poisson at
a doubling rate ladder and in a saturating burst.  Requests draw a Zipf-popular graph from a pool of DLRM and
recommender graphs at several batch sizes, one of the three request
kinds and one of two overhead-DB labels, kinds and labels uniformly.
Open-loop requests are timed from their due times; one unresolved at
its step's drain deadline counts as failed.

The request mix is an assumption: the repository holds no recorded
request trace.  The pool's batch sizes are ``repro serve``'s default
``--batches``; the Zipf exponent is the textbook 1; the pool size is
chosen so that it holds the three Table III DLRMs at every batch size,
most popular first, and as many seeded design-walk configurations.

Before every step (at least once a second) the generator re-registers
the ``shared`` label with the other of two databases built in set-up,
so memo invalidations sit beside the reads.  It does so only once the
previous step has drained: a re-registration racing in-flight requests
can memoize an answer priced under the old database under the new
one's key (``PredictionService._db_fp`` caches fingerprints by label
alone), a known defect that would fail requests at random.
"""

from __future__ import annotations

import math
import random
import threading
import time

import numpy as np

import repro.e2e
import repro.models
import repro.service
from repro.baselines import predict_kernel_only_us
from repro.service import REQUEST_KINDS
from repro.serving import BatchingPolicy

import design_walk
from assets import build_assets, profile_overheads, simulated_truth
from common import Check, Pass

GPU = "V100"
TAIL_PERCENTILE = 75.0
#: Service worker threads.  A micro-batch's work holds the GIL, so a
#: second worker adds contention, not throughput (measured: one worker
#: served about 10% more requests per second than two on a 2-vCPU host).
WORKERS = 1
#: Requests the closed loop keeps in flight: two full micro-batches, so
#: one seals on fill while the other executes, never on the seal timeout.
CLOSED_IN_FLIGHT = 2 * BatchingPolicy().max_batch
CLOSED_SHARE = 0.6
#: Draws generated per closed-loop step (more than one step uses).
CLOSED_DRAWS = 50_000
LADDER = (200, 400, 800, 1600, 3200, 6400)
STEP_REQUESTS = 300
LATENCY_LIMIT_S = 0.050
SATURATION_RATE = 50_000
SATURATION_REQUESTS = 1500
#: The burst queues every request at once; it may take this long.
SATURATION_DRAIN_S = 10.0
#: How long past a step's last due time its requests may take to resolve.
DRAIN_S = 2.0
WARM_TIMEOUT_S = 60.0
SWAP_EVERY_S = 1.0
POOL_TABLE_III = ("DLRM_default", "DLRM_MLPerf", "DLRM_DDP")
POOL_BATCHES = (256, 512, 1024)
POOL_SEEDED = 9
ZIPF_S = 1.0
LABELS = ("shared", "individual")
#: The accuracy metrics price a fixed seed's graph pool, so they compare
#: across workload seeds and repeat exactly.
ACCURACY_SEED = 0


def make_inputs(seed: int) -> dict:
    """The graph pool's specs in popularity order; the seeded configs,
    arrivals and draws derive from ``seed``.

    The Table III DLRMs lead the popularity order, so most requests ask
    about the same graphs under every seed.
    """
    rng = random.Random(seed)
    pool = [(name, batch) for name in POOL_TABLE_III for batch in POOL_BATCHES]
    pool += [design_walk.draw_config(rng) for _ in range(POOL_SEEDED)]
    return {"pool": pool, "seed": seed}


def _draws(inputs, rng, count: int) -> list[tuple]:
    """``count`` (graph, kind, label) draws: Zipf graphs, uniform rest."""
    size = len(inputs["pool"])
    zipf = 1.0 / np.arange(1, size + 1) ** ZIPF_S
    graphs = rng.choice(size, count, p=zipf / zipf.sum())
    kinds = rng.choice(len(REQUEST_KINDS), count)
    labels = rng.choice(len(LABELS), count)
    return [
        (int(g), REQUEST_KINDS[k], LABELS[label])
        for g, k, label in zip(graphs, kinds, labels)
    ]


def _arrivals(inputs, step: int, rate: float, step_s: float):
    """Due offsets and draws of one open-loop ladder step."""
    rng = np.random.default_rng((inputs["seed"], step))
    count = int(rate * step_s * 1.5) + 20
    offsets = np.cumsum(rng.exponential(1.0 / rate, count))
    offsets = offsets[offsets < step_s]
    return offsets, _draws(inputs, rng, len(offsets))


def _graph(spec):
    if isinstance(spec[0], str) and spec[0] in POOL_TABLE_III:
        return repro.models.build_model(*spec)
    return design_walk.build_graph(spec)


class State:
    """Assets, the alternate DB, the graph pool and the running service."""

    def __init__(self, inputs) -> None:
        self.assets = build_assets(GPU)
        self.versions = [
            self.assets.overheads["shared"],
            profile_overheads(self.assets.device, 1024)["shared"],
        ]
        self.graphs = [_graph(spec) for spec in inputs["pool"]]
        self.service = None
        self.start()

    def start(self) -> None:
        """Start a fresh service and warm it with every distinct request.

        A resident service answers from warm caches; the cold first
        pricing of each graph is start-up work, not per-request work.
        """
        self.assets.registry.cache_clear()
        self.service = self.new_service()
        for index in range(len(self.graphs)):
            for kind in REQUEST_KINDS:
                for label in LABELS:
                    self.service.submit(
                        _request(self, (index, kind, label))
                    ).result(timeout=WARM_TIMEOUT_S)

    def new_service(self):
        """A service over the resident assets, ``shared`` at version 0."""
        return repro.service.PredictionService(
            registries={GPU: self.assets.registry},
            overhead_dbs=dict(self.assets.overheads),
            workers=WORKERS,
        )

    def close(self) -> None:
        self.service.close()


def setup(inputs) -> State:
    return State(inputs)


def teardown(state) -> None:
    state.close()


def reset(state) -> None:
    state.close()
    state.start()


class _Sent:
    """One request in flight: what was asked, when, and its outcome."""

    __slots__ = ("draw", "due", "sent", "done", "outcome")

    def __init__(self, draw, due) -> None:
        self.draw = draw
        self.due = due
        self.sent = None
        self.done = None
        self.outcome = None


class _Step:
    """Requests of one ladder step; signals when all have resolved."""

    def __init__(self) -> None:
        self.sent: list[_Sent] = []
        self.pending = 0
        self.closed = False
        self.lock = threading.Lock()
        self.drained = threading.Event()
        self.deadline = 0.0

    def track(self, sent: _Sent, future) -> None:
        with self.lock:
            self.pending += 1
        self.sent.append(sent)

        def done(future) -> None:
            sent.done = time.perf_counter()
            error = future.exception()
            sent.outcome = error if error is not None else future.result()
            with self.lock:
                self.pending -= 1
                if self.pending == 0 and self.closed:
                    self.drained.set()

        future.add_done_callback(done)

    def close(self) -> None:
        """No more requests; set ``drained`` once all have resolved."""
        with self.lock:
            self.closed = True
            if self.pending == 0:
                self.drained.set()


def _request(state, draw):
    graph_index, kind, label = draw
    return repro.service.WhatIfRequest(
        graph=state.graphs[graph_index], kind=kind, gpu=GPU, overheads=label
    )


class _Sender:
    """The generator: sends draws at due times; swaps DBs between steps."""

    def __init__(self, state, service, swaps: list) -> None:
        self.state = state
        self.service = service
        self.swaps = swaps
        self.version = 0
        self.lags: list[float] = []

    def swap(self) -> None:
        """Re-register ``shared`` with the other database version."""
        # Stamped before the swap: an answer computed under the new
        # database always resolves after its stamp.
        self.version = 1 - self.version
        self.swaps.append((time.perf_counter(), self.version))
        self.service.register_overheads(
            "shared", self.state.versions[self.version]
        )

    def send_closed(self, draws, seconds: float) -> _Step:
        """Closed loop: ``CLOSED_IN_FLIGHT`` requests in flight, each one
        replaced as it resolves, for ``seconds``; then the step drains."""
        step = _Step()
        slots = threading.Semaphore(CLOSED_IN_FLIGHT)
        step.start = time.perf_counter()
        end = step.start + seconds
        for draw in draws:
            if not slots.acquire(timeout=DRAIN_S):
                break
            if time.perf_counter() >= end:
                break
            sent = _Sent(draw, time.perf_counter())
            sent.sent = sent.due
            future = self.service.submit(_request(self.state, draw))
            step.track(sent, future)
            future.add_done_callback(lambda _: slots.release())
        step.close()
        step.deadline = time.perf_counter() + DRAIN_S
        step.drained.wait(DRAIN_S)
        return step

    def send(self, offsets, draws, drain_s: float = DRAIN_S) -> _Step:
        """One open-loop step; returns once all resolved or drain expired."""
        step = _Step()
        start = time.perf_counter() + 0.01
        for offset, draw in zip(offsets, draws):
            sent = _Sent(draw, start + offset)
            now = time.perf_counter()
            if now < sent.due:
                time.sleep(sent.due - now)
            sent.sent = time.perf_counter()
            self.lags.append(sent.sent - sent.due)
            step.track(sent, self.service.submit(_request(self.state, draw)))
        step.close()
        step.deadline = step.sent[-1].due + drain_s
        step.drained.wait(max(step.deadline - time.perf_counter(), 0.0))
        return step


def run(state, inputs, seconds: float, calibration, tracer=None) -> Pass:
    """A closed-loop phase, the open-loop rate ladder, a saturating burst.

    * Closed loop: ``CLOSED_IN_FLIGHT`` requests in flight for
      ``CLOSED_SHARE`` of the run, in steps of ``SWAP_EVERY_S``.  The
      end-to-end metrics come from it: ``throughput_per_s`` is its
      requests per second of step time and the latency metrics
      summarize its request latencies.  A traced run reports the share
      of that latency spent waiting for a micro-batch to seal and start
      (``service.closed_wait_share``).
    * Ladder: open-loop ``LADDER`` rates, ``STEP_REQUESTS`` each, up to
      the first step whose p99 latency, timed from due times, exceeds
      ``LATENCY_LIMIT_S``.  The highest sustainable rate it implies
      goes to the run record as ``max_rate_qps``.
    * Saturation: ``SATURATION_REQUESTS`` due within a few
      milliseconds; their completion rate goes to the run record as
      ``saturation_qps``.

    The open-loop figures are recorded, not reported as metrics: on a
    shared host a stall of a few milliseconds queues every request due
    behind it, and between identical runs they moved by 25-100%.
    Closed-loop figures are host-normalized by calibration samples
    taken around each step, while the service is idle.
    """
    service = state.service
    result = Pass(outcomes={"sent": [], "swaps": [], "steps": []})
    sender = _Sender(state, service, result.outcomes["swaps"])
    before = service.stats()
    cpu_start = time.process_time()

    def record(step: _Step, rate: float | None) -> list[float]:
        """Book one step (``rate`` None for the closed loop)."""
        latencies = [
            (s.done if s.done is not None else step.deadline) - s.due
            for s in step.sent
        ]
        unresolved = sum(s.done is None for s in step.sent)
        result.outcomes["steps"].append({
            "rate": rate, "sent": len(step.sent), "unresolved": unresolved,
            "p50_ms": float(np.percentile(latencies, 50.0)) * 1e3,
            "p99_ms": float(np.percentile(latencies, 99.0)) * 1e3,
        })
        result.outcomes["sent"].extend(step.sent)
        result.attempted += len(step.sent)
        result.failed += unresolved
        return latencies

    closed_steps = max(1, round(seconds * CLOSED_SHARE / SWAP_EVERY_S))
    closed_s = normalized_s = 0.0
    waited_before = tracer.counts["service.wait_s"] if tracer else 0.0
    for index in range(closed_steps):
        sender.swap()
        draws = _draws(
            inputs, np.random.default_rng((inputs["seed"], index)),
            CLOSED_DRAWS,
        )
        calibration.sample()
        step = sender.send_closed(draws, SWAP_EVERY_S)
        calibration.sample()
        slowdown = calibration.recent(2)
        latencies = record(step, None)
        result.latencies_s += latencies
        result.slowdowns += [slowdown] * len(latencies)
        step_s = max(
            s.done if s.done is not None else step.deadline for s in step.sent
        ) - step.start
        closed_s += step_s
        normalized_s += step_s / slowdown
    closed_batches = service.stats().batches_dispatched - before.batches_dispatched
    closed = len(result.latencies_s)
    result.throughput = closed / closed_s
    result.normalized_throughput = closed / normalized_s
    result.layer["service.closed_mean_batch"] = closed / max(closed_batches, 1)
    if tracer is not None:
        result.layer["service.closed_wait_share"] = (
            tracer.counts["service.wait_s"] - waited_before
        ) / sum(result.latencies_s)

    passed = None
    max_rate = LADDER[-1]
    for index, rate in enumerate(LADDER, start=closed_steps):
        sender.swap()
        offsets, draws = _arrivals(
            inputs, index, rate, STEP_REQUESTS / rate
        )
        p99 = float(np.percentile(record(sender.send(offsets, draws), rate), 99.0))
        if p99 > LATENCY_LIMIT_S:
            max_rate = _interpolate(passed, (rate, p99))
            break
        passed = (rate, p99)

    # The burst overloads the generator too; its lateness is not lag.
    paced = list(sender.lags)
    sender.swap()
    offsets, draws = _arrivals(
        inputs, closed_steps + len(LADDER), SATURATION_RATE,
        SATURATION_REQUESTS / SATURATION_RATE,
    )
    burst = sender.send(offsets, draws, SATURATION_DRAIN_S)
    record(burst, SATURATION_RATE)
    finished = max(s.done if s.done is not None else burst.deadline
                   for s in burst.sent)
    saturation_qps = len(burst.sent) / (finished - burst.sent[0].due)
    result.cpu_s = time.process_time() - cpu_start

    stats = service.stats()
    kernel_cache = stats.kernel_caches[GPU]
    batches = stats.batches_dispatched - before.batches_dispatched
    result.layer |= {
        "service.requests_sent": result.attempted,
        "service.requests_failed": result.failed,
        "service.batches": batches,
        "service.mean_batch": result.attempted / max(batches, 1),
        "service.peak_queue_depth": stats.peak_queue_depth,
        "service.memo_hits": stats.memo.hits - before.memo.hits,
        "service.memo_misses": stats.memo.misses - before.memo.misses,
        "service.memo_invalidations": (
            stats.memo.invalidations - before.memo.invalidations
        ),
        "service.generator_lag_ms": float(np.percentile(paced, 99.0)) * 1e3,
        "perfmodels.cache_hits": (
            kernel_cache.hits - before.kernel_caches[GPU].hits
        ),
        "perfmodels.cache_misses": (
            kernel_cache.misses - before.kernel_caches[GPU].misses
        ),
    }
    result.detail = {
        "steps": result.outcomes["steps"],
        "closed_mean_batch": result.layer["service.closed_mean_batch"],
        "max_rate_qps": max_rate,
        "saturation_qps": saturation_qps,
        "generator_lag_max_ms": max(paced) * 1e3,
        "latency_limit_ms": LATENCY_LIMIT_S * 1e3,
        "swaps": len(sender.swaps),
    }
    return result


def _interpolate(passed, failed) -> float:
    """Rate at which the p99 latency reaches the limit, log-log."""
    rate, p99 = failed
    if passed is None:
        return rate * LATENCY_LIMIT_S / p99
    low_rate, low_p99 = passed
    span = math.log(p99) - math.log(low_p99)
    share = (math.log(LATENCY_LIMIT_S) - math.log(low_p99)) / span
    return low_rate * (rate / low_rate) ** min(max(share, 0.0), 1.0)


def _versions_in_flight(swaps, sent: _Sent) -> set:
    version = 0
    for at, new in swaps:
        if at <= sent.sent:
            version = new
    seen = {version}
    for at, new in swaps:
        if sent.sent < at <= sent.done:
            seen.add(new)
    return seen


def check(state, inputs, result: Pass) -> Check:
    """Every answer equals the direct call under a DB version in flight."""
    verdict = Check()
    registry = state.assets.registry
    expected: dict = {}

    def direct(graph_index, kind, db):
        key = (graph_index, kind, id(db))
        if key not in expected:
            graph = state.graphs[graph_index]
            if kind == "predict":
                expected[key] = repro.e2e.predict_e2e(graph, registry, db)
            elif kind == "kernel_only":
                expected[key] = predict_kernel_only_us(graph, registry)
            else:
                expected[key] = repro.e2e.predict_memory(graph)
        return expected[key]

    swaps = result.outcomes["swaps"]
    for op, sent in enumerate(result.outcomes["sent"]):
        if sent.done is None:
            continue  # already counted failed by the pass
        graph_index, kind, label = sent.draw
        response = sent.outcome
        if isinstance(response, BaseException):
            verdict.fail(op, f"raised {response!r}")
            continue
        if kind == "predict":
            dbs = (
                [state.versions[v] for v in _versions_in_flight(swaps, sent)]
                if label == "shared"
                else [state.assets.overheads[label]]
            )
            answer = response.prediction
            ok = any(answer == direct(graph_index, kind, db) for db in dbs)
        elif kind == "kernel_only":
            ok = response.kernel_only_us == direct(graph_index, kind, None)
        else:
            ok = response.memory == direct(graph_index, kind, None)
        if not ok:
            verdict.fail(op, f"{kind} answer differs from the direct call")
    for spec in make_inputs(ACCURACY_SEED)["pool"]:
        graph = _graph(spec)
        prediction = repro.e2e.predict_e2e(graph, registry, state.versions[0])
        verdict.add_accuracy(
            prediction, *simulated_truth(state.assets.device, graph)
        )
    return verdict


def probe(state) -> dict:
    """A known service defect, measured apart from the timed stream.

    The timed stream must not fail, so it sends no unpriceable request;
    this probe does and reports what happened as counts.
    """
    return _probe_unpriceable(state)


def _probe_unpriceable(state) -> dict:
    """Micro-batches holding a graph with kernels no registry models.

    A resnet50 graph's ``conv`` kernels have no model in the V100
    registry.  The right outcome is a prompt error naming ``conv`` for
    that request and normal answers for its batch-mates.
    """
    unpriceable = repro.service.WhatIfRequest(
        graph=repro.models.build_model("resnet50", 16), gpu=GPU
    )
    bursts = 5
    counts = {"service.unpriceable_sent": bursts, "service.unpriceable_hung": 0,
              "service.unpriceable_named_conv": 0, "service.batchmates_hung": 0}
    service = state.new_service()
    try:
        futures = []
        for burst in range(bursts):
            bad = service.submit(unpriceable)
            mates = [
                service.submit(_request(state, (burst + i, "predict", "shared")))
                for i in range(3)
            ]
            futures.append((bad, mates))
        deadline = time.perf_counter() + 1.0
        for bad, mates in futures:
            for future in [bad, *mates]:
                remaining = deadline - time.perf_counter()
                if not future.done() and remaining > 0:
                    try:
                        future.exception(timeout=remaining)
                    except TimeoutError:
                        pass
            if not bad.done():
                counts["service.unpriceable_hung"] += 1
            elif "conv" in str(bad.exception()):
                counts["service.unpriceable_named_conv"] += 1
            counts["service.batchmates_hung"] += sum(
                not m.done() for m in mates
            )
    finally:
        service.close()
    return counts
