"""sweep-grid: serial ``SweepEngine.run`` grids with branch-and-bound pruning.

Each op sweeps one recorded DLRM variant over reorder transforms (the
identity plus hoists of independent ops), a seeded batch ladder and two
overhead databases, pruning against a kernel-only cutoff.  After one
precompute per grid the per-point work is cache lookups, traversal,
bounds and rescaling: kernel-model inference does little.
"""

from __future__ import annotations

import random

import repro.e2e
import repro.graph.transforms
import repro.models
import repro.sweep
from repro.models.dlrm import DLRM_CONFIGS
from repro.sweep.prune import lower_bound_us

from assets import build_assets, simulated_truth
from common import Check, Deadline, Pass, cache_layer, finish_serial, time_op

GPU = "V100"
TAIL_PERCENTILE = 90.0
RECORDED_BATCH = 1024
BATCHES = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
LADDER_LENGTH = 4
HOISTS = 2
#: Ops generated per seed; the variants cycle through them.
STREAM_LENGTH = 5_000
#: Leading ops whose sampled points the output checks re-price.
CHECK_OPS = 12
CHECK_POINTS_PER_OP = 4
#: The accuracy metrics price a fixed seed's variants at these batch
#: sizes, so they compare across workload seeds and repeat exactly.
ACCURACY_SEED = 0
ACCURACY_BATCHES = (256, 1024, 4096)
TABLE_III = ("DLRM_default", "DLRM_MLPerf", "DLRM_DDP")
#: Each Table III DLRM also appears with a seeded pooling factor L, so
#: every seed sweeps the same mix of model sizes.
POOLING = (1, 5, 20, 50, 150)


def make_inputs(seed: int) -> dict:
    """Variants (name, L or None) plus one (variant, ladder, hoist draws,
    cutoff scale) per op."""
    rng = random.Random(seed)
    variants = [(name, None) for name in TABLE_III] + [
        (name, rng.choice(POOLING)) for name in TABLE_III
    ]
    ops = [
        (
            index % len(variants),
            tuple(sorted(rng.sample(BATCHES, LADDER_LENGTH))),
            tuple(rng.random() for _ in range(HOISTS)),
            rng.uniform(0.5, 8.0),
        )
        for index in range(STREAM_LENGTH)
    ]
    return {"variants": variants, "ops": ops}


def _record(variant):
    name, pooling = variant
    if pooling is None:
        return repro.models.build_model(name, RECORDED_BATCH)
    return repro.models.build_dlrm_graph(
        DLRM_CONFIGS[name].with_overrides(lookups_per_table=pooling),
        RECORDED_BATCH,
    )


class State:
    """Assets plus the recorded variant pool and its hoistable nodes."""

    def __init__(self, inputs) -> None:
        self.assets = build_assets(GPU)
        self.graphs = [_record(v) for v in inputs["variants"]]
        self.hoistable = [
            [
                node.node_id for node in graph.nodes
                if graph.dependencies(node)
                and _earliest(graph, node) < graph.nodes.index(node)
            ]
            for graph in self.graphs
        ]
        registry = self.assets.registry
        self.bounds = [
            lower_bound_us(repro.e2e.collect_plan(graph), registry)
            for graph in self.graphs
        ]
        registry.cache_clear()


def _earliest(graph, node) -> int:
    deps = graph.dependencies(node)
    earliest = 0
    for index, other in enumerate(graph.nodes):
        if other.node_id in deps:
            earliest = index + 1
    return earliest


def setup(inputs) -> State:
    return State(inputs)


def teardown(state) -> None:
    pass


def reset(state) -> None:
    state.assets.registry.cache_clear()


def _hoist(node_id):
    return lambda graph: repro.graph.transforms.move_independent_earlier(
        graph, node_id
    )


def grid(state, op):
    """(graph, transforms, ladder, cutoff) of one op."""
    variant, ladder, draws, scale = op
    hoistable = state.hoistable[variant]
    transforms = {"none": lambda graph: graph}
    for draw in draws:
        node_id = hoistable[int(draw * len(hoistable))]
        transforms[f"hoist-{node_id}"] = _hoist(node_id)
    return (
        state.graphs[variant], transforms, ladder,
        state.bounds[variant] * scale,
    )


def run(state, inputs, seconds: float, calibration, tracer=None) -> Pass:
    assets = state.assets
    registry = assets.registry
    before = registry.cache_info()
    result = Pass(outcomes={})
    points = pruned = 0
    deadline = Deadline(seconds, calibration)
    for op_id, op in enumerate(inputs["ops"]):
        if deadline.expired():
            break
        graph, transforms, ladder, cutoff = grid(state, op)
        engine = repro.sweep.SweepEngine(
            registries={GPU: registry},
            overhead_dbs=assets.overheads,
            transforms=transforms,
        )
        span = tracer.enter("bench.op", op_id) if tracer else None
        swept = time_op(
            result, calibration,
            lambda: engine.run(graph, RECORDED_BATCH, ladder, cutoff_us=cutoff),
        )
        if span is not None:
            tracer.exit(span)
        points += len(swept) + swept.pruned
        pruned += swept.pruned
        if op_id < CHECK_OPS:
            result.outcomes[op_id] = swept
    finish_serial(result, points, deadline)
    result.layer = cache_layer(registry, before)
    result.detail = {"points": points, "pruned": pruned}
    return result


def _point_graph(graph, transforms, label, batch):
    transformed = transforms[label](graph)
    return repro.graph.transforms.rescale_batch(
        transformed, RECORDED_BATCH, batch
    )


def check(state, inputs, result: Pass) -> Check:
    """Sampled points re-priced directly; pruned points' bounds re-derived."""
    verdict = Check()
    registry = state.assets.registry
    rng = random.Random(0)
    for op_id, swept in sorted(result.outcomes.items()):
        graph, transforms, _, cutoff = grid(state, inputs["ops"][op_id])
        records = list(swept)
        for record in rng.sample(records, min(CHECK_POINTS_PER_OP, len(records))):
            point = record.point
            rescaled = _point_graph(
                graph, transforms, point.transform, point.batch_size
            )
            direct = repro.e2e.predict_e2e(
                rescaled, registry, state.assets.overheads[point.overheads]
            )
            if direct != record.prediction:
                verdict.fail(op_id, f"{point} differs from predict_e2e")
        for point in swept.pruned_points:
            rescaled = _point_graph(
                graph, transforms, point.transform, point.batch_size
            )
            bound = lower_bound_us(repro.e2e.collect_plan(rescaled), registry)
            if not bound > cutoff:
                verdict.fail(op_id, f"{point} pruned below the cutoff")
    for variant in make_inputs(ACCURACY_SEED)["variants"]:
        recorded = _record(variant)
        for batch in ACCURACY_BATCHES:
            graph = repro.graph.transforms.rescale_batch(
                recorded, RECORDED_BATCH, batch
            )
            truth = simulated_truth(state.assets.device, graph)
            for overheads in state.assets.overheads.values():
                verdict.add_accuracy(
                    repro.e2e.predict_e2e(graph, registry, overheads), *truth
                )
    return verdict
