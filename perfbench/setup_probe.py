"""Time `import heunic` and a workload's warm-up in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <seed>

Prints one JSON object with ``import_s`` and ``warmup_s``.  The warm-up
is the first call of every op class (for exact_routes, at every n), which
fills the program's lazy state and per-n caches.  Building the seeded
inputs is the benchmark's own work and is not timed; nothing here imports
numpy or mpmath before heunic does.
"""

import json
import sys
import time

import workloads


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    import heunic  # noqa: F401
    if workload == "cli_cold":
        import heunic.cli  # noqa: F401
    imported = time.perf_counter()
    ops = workloads.warmup(workloads.build(workload, seed))
    warm_start = time.perf_counter()
    for op in ops:
        op.func(*op.args)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "warmup_s": done - warm_start}))


if __name__ == "__main__":
    main()
