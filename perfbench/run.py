"""Benchmark of the ``repro`` prediction track.

Run from the repository root::

    python3 perfbench/run.py --workload design-walk --seed 1 --seconds 8 --trace 0

One process runs one workload: the analysis-track set-up (repeated
``SETUP_REPEATS`` times, the median reported), a timed pass over the
workload's seeded op stream, and untimed output checks.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  A traced run also times an
untraced pass over the same op stream first, for the tracing overhead,
and writes its spans as Chrome trace-event JSON.  Run records and
traces go to ``.perfbench/`` under the working directory.

See ``perfbench/README.md`` for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = ".perfbench"

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

WORKLOADS = {
    "design-walk": "design_walk",
    "sweep-grid": "sweep_grid",
    "service-open": "service_open",
    "capacity-plan": "capacity_plan",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cap_threads() -> None:
    """One BLAS thread, so BLAS starts no threads of its own."""
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = "1"


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    _cap_threads()
    sys.path.insert(0, SRC)
    started = time.perf_counter()
    import repro  # noqa: F401  (timed: proc.import_s)

    import_s = time.perf_counter() - started

    import importlib

    import report
    from common import Calibration
    from tracer import Tracer

    workload = importlib.import_module(WORKLOADS[args.workload])
    inputs = workload.make_inputs(args.seed)
    tracer = Tracer() if args.trace else None

    calibration = Calibration()
    setup_times = []
    state = None
    for repeat in range(SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        calibration.sample()
        began = time.perf_counter()
        if tracer is not None and repeat == SETUP_REPEATS - 1:
            with tracer.active():
                state = workload.setup(inputs)
        else:
            state = workload.setup(inputs)
        setup_times.append(time.perf_counter() - began)
        calibration.sample()
    setup_slowdown = calibration.slowdown()
    try:
        reference = None
        if tracer is not None:
            reference = workload.run(state, inputs, args.seconds, calibration)
            workload.reset(state)
            with tracer.active():
                measured = workload.run(
                    state, inputs, args.seconds, calibration, tracer
                )
        else:
            measured = workload.run(state, inputs, args.seconds, calibration)
        verdict = workload.check(state, inputs, measured)
        probe = getattr(workload, "probe", None)
        probed = probe(state) if probe is not None and tracer else {}
    finally:
        workload.teardown(state)

    return report.emit(
        args, workload, import_s, setup_times, setup_slowdown, calibration,
        measured,
        reference, verdict, probed, tracer, OUT_DIR,
    )


if __name__ == "__main__":
    sys.exit(main())
