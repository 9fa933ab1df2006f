"""capacity-plan: seeded serving-capacity queries through ``CapacityPlanner``.

Each op asks for the cheapest A100 fleet serving one DLRM configuration
at a QPS and p99 latency target, over single-GPU and 2-GPU sharded
replicas, with ``validate="simulate"``.  The only workload that runs
the sharded multi-GPU pricing with collectives, the serving simulator's
discrete-event validation and the capacity ranking.
"""

from __future__ import annotations

import random

import repro.e2e
import repro.models
import repro.sweep
from repro.capacity import CandidateFleet, CapacityPlanner, ServingTarget
from repro.models.dlrm import DLRM_CONFIGS, DlrmConfig
from repro.multigpu import NVLINK, CollectiveModel, GroundTruthCollectives

import design_walk
from assets import build_assets, simulated_truth
from common import Check, Deadline, Pass, cache_layer, finish_serial, time_op

GPU = "A100"
TAIL_PERCENTILE = 85.0
#: ``repro capacity``'s default ``--batches`` ladder.
BATCHES = (1, 2, 4, 8, 16, 32, 64, 128)
#: (QPS, p99 SLO ms) targets the repository's own documentation and
#: examples plan for on one node: the README and ``repro capacity``
#: usage (100k, 2 ms), ``examples/capacity_planning.py`` (100k, 10 ms),
#: ``docs/SERVING.md`` (50k, 5 ms) and ``docs/SWEEPS.md`` (120k, 10 ms).
#: No recorded query trace exists to draw them from.
TARGETS = ((100_000, 2.0), (100_000, 10.0), (50_000, 5.0), (120_000, 10.0))
VALIDATE_TOP_K = 2
VALIDATE_REQUESTS = 1000
STREAM_LENGTH = 5_000
#: The accuracy metrics price the inference graphs of a fixed sample of
#: queries, so they compare across workload seeds and repeat exactly.
ACCURACY_SEED = 0
ACCURACY_OPS = 16
ACCURACY_BATCHES = (32, 256)


def make_inputs(seed: int, length: int = STREAM_LENGTH) -> list[tuple]:
    """One (config spec, QPS, SLO ms, validation seed) per query."""
    rng = random.Random(seed)
    queries = []
    while len(queries) < length:
        if rng.random() < 0.5:
            spec = rng.choice(sorted(DLRM_CONFIGS))
        else:
            spec = design_walk.draw_config(rng)
            if spec[0] != "DLRM":
                continue
        queries.append((spec, *rng.choice(TARGETS), rng.randrange(1 << 16)))
    return queries


def dlrm_config(spec) -> DlrmConfig:
    if isinstance(spec, str):
        return DLRM_CONFIGS[spec]
    _, _, tables, rows, pooling, dim, dense, bottom, top = spec
    return DlrmConfig(
        name="DLRM_plan",
        bot_mlp=(dense, *bottom, dim),
        num_tables=tables,
        rows_per_table=rows,
        embedding_dim=dim,
        top_mlp=(*top, 1),
        lookups_per_table=pooling,
    )


class State:
    """A100 assets, the planner's sweep engine and collective models."""

    def __init__(self) -> None:
        self.assets = build_assets(GPU)
        self.engine = repro.sweep.SweepEngine(
            registries={GPU: self.assets.registry},
            overhead_dbs={"individual": self.assets.overheads["individual"]},
        )
        self.collectives = {
            2: CollectiveModel.calibrate(GroundTruthCollectives(NVLINK), 2)
        }


def setup(inputs) -> State:
    return State()


def teardown(state) -> None:
    pass


def reset(state) -> None:
    state.assets.registry.cache_clear()


FLEETS = (
    CandidateFleet(GPU, gpus_per_replica=1, max_replicas=128),
    CandidateFleet(GPU, gpus_per_replica=2, max_replicas=64),
)


def plan(state, query):
    spec, qps, slo_ms, validate_seed = query
    planner = CapacityPlanner(state.engine, ServingTarget.from_ms(qps, slo_ms))
    return planner.plan_dlrm(
        dlrm_config(spec),
        BATCHES,
        fleets=FLEETS,
        collective_model_for=state.collectives.__getitem__,
        prune=True,
        validate="simulate",
        validate_top_k=VALIDATE_TOP_K,
        validate_requests=VALIDATE_REQUESTS,
        validate_seed=validate_seed,
    )


def run(state, inputs, seconds: float, calibration, tracer=None) -> Pass:
    registry = state.assets.registry
    before = registry.cache_info()
    result = Pass(outcomes={})
    deadline = Deadline(seconds, calibration)
    for op, query in enumerate(inputs):
        if deadline.expired():
            break
        span = tracer.enter("bench.op", op) if tracer else None
        result.outcomes[op] = time_op(
            result, calibration, lambda: plan(state, query)
        )
        if span is not None:
            tracer.exit(span)
    finish_serial(result, result.attempted, deadline)
    result.layer = cache_layer(registry, before)
    return result


def check(state, inputs, result: Pass) -> Check:
    """Feasible plans first and cost-sorted; inference pricing accuracy."""
    verdict = Check()
    for op, plans in result.outcomes.items():
        feasible = [p.meets_slo for p in plans]
        cut = feasible.index(False) if False in feasible else len(feasible)
        if not plans or any(feasible[cut:]):
            verdict.fail(op, "a feasible plan ranks behind a best-effort one")
        costs = [p.cost_per_hour for p in plans[:cut]]
        if costs != sorted(costs):
            verdict.fail(op, "feasible plans are not sorted by cost")
    overheads = state.assets.overheads["individual"]
    for query in make_inputs(ACCURACY_SEED, ACCURACY_OPS):
        for batch in ACCURACY_BATCHES:
            graph = repro.models.build_dlrm_graph(
                dlrm_config(query[0]), batch, mode=repro.models.MODE_INFERENCE
            )
            prediction = repro.e2e.predict_e2e(
                graph, state.assets.registry, overheads
            )
            verdict.add_accuracy(
                prediction, *simulated_truth(state.assets.device, graph)
            )
    return verdict
