"""Fresh-process probes started by run.py, each printing one JSON object.

    python3 perfbench/child.py setup <workload> <seed> <workdir>
        import convsep and build the workload's inputs; reports setup_s.
    python3 perfbench/child.py threads1 <workload> <seed> <workdir>
        after a 2-iteration warm-up, run the workload's job traced with
        THREADS1_ITERATIONS IVA iterations; reports ms per IVA iteration.
        run.py starts it with the BLAS thread count pinned to 1.
"""

import time

START = time.perf_counter()

import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

THREADS1_ITERATIONS = 40


def main(argv) -> int:
    mode, name, seed, workdir = argv
    import workloads  # imports numpy, scipy and convsep: part of set-up

    workload = workloads.WORKLOADS[name]
    if mode == "setup":
        workload.make_inputs(int(seed), Path(workdir))
        print(json.dumps({"setup_s": time.perf_counter() - START}))
        return 0
    import tracing

    inputs = workload.make_inputs(int(seed), Path(workdir))
    workload.run(dataclasses.replace(inputs, iterations=2))  # untimed warm-up
    with tracing.Tracer() as tracer:
        workload.run(dataclasses.replace(inputs, iterations=THREADS1_ITERATIONS))
    table = tracing.SpanTable(tracer.spans)
    ms = 1e3 * table.seconds("iva.run_iva") / table.calls["iva.update_step"]
    print(json.dumps({"ms_per_iter": ms}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
