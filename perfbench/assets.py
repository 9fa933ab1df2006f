"""Set-up: the analysis track at a reduced, fixed scale.

Every workload prices against assets built here, in-process, before its
timed phase: a simulated device, a kernel-model registry trained from
its microbenchmarks, and overhead databases profiled from simulated
runs.  The scale is fixed and independent of the workload seed, so the
assets (and hence every prediction) repeat exactly from run to run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import repro.models
from repro.hardware import ALL_GPUS
from repro.overheads import OverheadDatabase
from repro.perfmodels import PerfModelRegistry, build_perf_models
from repro.simulator import SimulatedDevice

#: One Table II grid point, small sweep scale and epoch count: enough
#: for single-digit E2E error at a set-up cost of a few seconds.
SPACE = {
    "num_layers": (4,),
    "num_neurons": (256,),
    "optimizer": ("adam",),
    "learning_rate": (2e-3,),
}
MICROBENCH_SCALE = 0.1
EPOCHS = 80
REGISTRY_SEED = 7

#: The three Table III DLRMs the shared overhead database pools over.
DLRM_MODELS = ("DLRM_default", "DLRM_MLPerf", "DLRM_DDP")
PROFILE_ITERATIONS = 5
PROFILE_WARMUP = 1


@dataclass
class Assets:
    """What the analysis track hands the prediction track."""

    device: SimulatedDevice
    registry: PerfModelRegistry
    #: Label -> overhead DB ("shared" pooled over the DLRMs, "individual"
    #: from DLRM_default alone).
    overheads: dict[str, OverheadDatabase]


def device_for(gpu_name: str) -> SimulatedDevice:
    """The simulated testbed of one GPU, with a process-stable seed."""
    return SimulatedDevice(
        ALL_GPUS[gpu_name], seed=100 + zlib.crc32(gpu_name.encode()) % 50
    )


def profile_overheads(
    device: SimulatedDevice, batch: int
) -> dict[str, OverheadDatabase]:
    """Shared and individual overhead DBs from profiled DLRM runs."""
    traces = {
        name: device.run(
            repro.models.build_model(name, batch),
            iterations=PROFILE_ITERATIONS,
            batch_size=batch,
            with_profiler=True,
            warmup=PROFILE_WARMUP,
        ).trace
        for name in DLRM_MODELS
    }
    return {
        "shared": OverheadDatabase.shared(list(traces.values())),
        "individual": OverheadDatabase.from_trace(traces["DLRM_default"]),
    }


def build_assets(gpu_name: str) -> Assets:
    """Run the analysis track for one GPU."""
    device = device_for(gpu_name)
    registry, _ = build_perf_models(
        device,
        microbench_scale=MICROBENCH_SCALE,
        space=SPACE,
        epochs=EPOCHS,
        seed=REGISTRY_SEED,
    )
    return Assets(device, registry, profile_overheads(device, 2048))


def simulated_truth(device: SimulatedDevice, graph) -> tuple[float, float]:
    """Ground truth of one graph: (E2E µs, GPU-active µs) per iteration."""
    result = device.run(graph, iterations=3, warmup=1)
    return result.mean_e2e_us, result.mean_gpu_active_us
