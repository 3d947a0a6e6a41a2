"""One pass of a benchmark workload, in a fresh process.

    python3 bench/worker.py WORKLOAD SEED TRACED SETUP_ONLY

Imports numpy and specpoint from the checkout's src/ and makes the inputs.
Unless SETUP_ONLY is 1, it then runs the timed section from cold caches,
optionally under the tracer, and checks the outputs after the clock has
stopped. Prints one JSON object. Its "t_ready" is read on
CLOCK_MONOTONIC, which all processes of the machine share, so the parent
subtracts the moment it started this process to get the set-up time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    traced, setup_only = argv[2] == "1", argv[3] == "1"
    sys.path.insert(0, str(SRC))
    import numpy as np
    import specpoint

    if SRC not in Path(specpoint.__file__).resolve().parents:
        print(f"specpoint imported from {specpoint.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    record = {"t_ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if setup_only:
        print(json.dumps(record))
        return 0

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    attempt = workloads.Attempts()
    run = workloads.RUNNERS[workload]

    start = time.perf_counter()
    outputs = run(inputs, attempt)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = tracer.layer_metrics() if tracer else None
    accuracy, checks, details = workloads.evaluate(workload, inputs, outputs)
    record.update(
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb,
        ops=attempt.log,
        accuracy=accuracy,
        checks=checks,
        params=workloads.params(workload, inputs) | details,
        layers=layers,
        versions={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        },
    )
    print(json.dumps(record, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
