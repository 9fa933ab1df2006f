"""design-walk: distinct recommender configurations, each built and priced once.

The single-query path of ``repro predict`` and of notebooks: a seeded
stream of DLRM variants (over D, T, E, pooling factor L, MLP widths and
batch size) mixed with DeepFM, DCN and Wide & Deep variants.  Each op
records the graph and prices it with ``predict_e2e`` against one V100
registry and the shared overhead database.  The kernel cache starts
empty, so kernel-model inference and graph construction dominate.
"""

from __future__ import annotations

import random

import repro.e2e
import repro.models
from repro.models.dlrm import DlrmConfig
from repro.models.recommenders import RecommenderConfig

from assets import build_assets, simulated_truth
from common import Check, Deadline, Pass, cache_layer, finish_serial, time_op

GPU = "V100"
TAIL_PERCENTILE = 98.0
#: Configurations generated per seed; a pass stops early if it runs out.
STREAM_LENGTH = 10_000
#: Leading ops of the stream whose predictions the output checks compare
#: with fresh-cache ones.
CHECK_OPS = 100
#: The accuracy metrics price a fixed sample of the same distribution,
#: so they compare across workload seeds and repeat exactly.
ACCURACY_SEED = 0
ACCURACY_OPS = 80

#: Recommender kind -> builder name in ``repro.models`` (looked up per
#: call, so the tracer's wrappers are seen).
_RECOMMENDERS = {
    "DeepFM": "build_deepfm_graph",
    "DCN": "build_dcn_graph",
    "WideAndDeep": "build_wide_and_deep_graph",
}


def draw_config(rng: random.Random) -> tuple:
    """One random configuration spec (a tuple; see :func:`build_graph`)."""
    batch = rng.choice((256, 512, 1024, 2048, 4096))
    tables = rng.randint(2, 32)
    rows = rng.choice((10_000, 100_000, 500_000, 1_000_000, 4_000_000))
    pooling = rng.choice((1, 2, 5, 10, 20, 40, 80, 120))
    if rng.random() < 0.7:
        dim = rng.choice((16, 32, 64, 128))
        bottom = tuple(
            rng.choice((64, 128, 256, 512)) for _ in range(rng.randint(1, 3))
        )
        top = tuple(
            rng.choice((128, 256, 512, 1024)) for _ in range(rng.randint(1, 4))
        )
        dense = rng.choice((13, 64, 128, 256, 512))
        return ("DLRM", batch, tables, rows, pooling, dim, dense, bottom, top)
    kind = rng.choice(sorted(_RECOMMENDERS))
    dim = rng.choice((8, 16, 32, 64))
    mlp = tuple(rng.choice((128, 256, 400)) for _ in range(rng.randint(1, 3)))
    return (kind, batch, tables, rows, pooling, dim, 13, mlp)


def make_inputs(seed: int, length: int = STREAM_LENGTH) -> list[tuple]:
    """The seed's stream of distinct configurations."""
    rng = random.Random(seed)
    seen: set = set()
    stream = []
    while len(stream) < length:
        config = draw_config(rng)
        if config not in seen:
            seen.add(config)
            stream.append(config)
    return stream


def build_graph(config: tuple):
    """Record one configuration's training iteration."""
    kind, batch, tables, rows, pooling, dim, dense = config[:7]
    if kind == "DLRM":
        bottom, top = config[7:]
        return repro.models.build_dlrm_graph(
            DlrmConfig(
                name="DLRM_walk",
                bot_mlp=(dense, *bottom, dim),
                num_tables=tables,
                rows_per_table=rows,
                embedding_dim=dim,
                top_mlp=(*top, 1),
                lookups_per_table=pooling,
            ),
            batch,
        )
    return getattr(repro.models, _RECOMMENDERS[kind])(
        batch,
        RecommenderConfig(
            name=kind,
            num_tables=tables,
            rows_per_table=rows,
            embedding_dim=dim,
            dense_dim=dense,
            mlp=config[7],
            lookups_per_table=pooling,
        ),
    )


def setup(inputs):
    return build_assets(GPU)


def teardown(state) -> None:
    pass


def reset(state) -> None:
    state.registry.cache_clear()


def run(state, inputs, seconds: float, calibration, tracer=None) -> Pass:
    registry = state.registry
    overheads = state.overheads["shared"]
    before = registry.cache_info()
    result = Pass(outcomes={})
    deadline = Deadline(seconds, calibration)
    for op, config in enumerate(inputs):
        if deadline.expired():
            break
        span = tracer.enter("bench.op", op) if tracer else None
        prediction = time_op(
            result, calibration,
            lambda: repro.e2e.predict_e2e(
                build_graph(config), registry, overheads
            ),
        )
        if span is not None:
            tracer.exit(span)
        if op < CHECK_OPS:
            result.outcomes[op] = prediction
    finish_serial(result, result.attempted, deadline)
    result.layer = cache_layer(registry, before)
    return result


def check(state, inputs, result: Pass) -> Check:
    """Leading ops re-priced on a fresh cache; accuracy on a fixed sample."""
    verdict = Check()
    overheads = state.overheads["shared"]
    for op, prediction in sorted(result.outcomes.items()):
        state.registry.cache_clear()
        fresh = repro.e2e.predict_e2e(
            build_graph(inputs[op]), state.registry, overheads
        )
        if prediction != fresh:
            verdict.fail(op, "prediction differs from a fresh-cache one")
    for config in make_inputs(ACCURACY_SEED, ACCURACY_OPS):
        graph = build_graph(config)
        prediction = repro.e2e.predict_e2e(graph, state.registry, overheads)
        verdict.add_accuracy(prediction, *simulated_truth(state.device, graph))
    return verdict
