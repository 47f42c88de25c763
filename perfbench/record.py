#!/usr/bin/env python3
"""Record the results the benchmark's correctness gate expects.

    python3 perfbench/record.py                 # every workload
    python3 perfbench/record.py sort_segmented  # one workload

For every recorded seed and every input of the pool it stores the plan
document digests and `total_cost`s, or the SortMetrics counters, in
perfbench/expected.json.  Re-record only when a change is meant to alter
plans or sort counters; a speed-up must leave this file as it is.
"""

from __future__ import annotations

import json
import sys

import run
from tracing import NullTracer

#: Seeds a run is likely to be given, and the held-out seed.
RECORDED_SEEDS = tuple(range(11)) + (run.HELD_OUT_SEED,)


def record(workload: str, seed: int) -> list:
    p = run.load_program()
    out = []
    for index, inp in enumerate(run.make_inputs(workload, seed)):
        *_, rec, errors = run.execute(p, NullTracer(), workload, seed, index, inp)
        if errors:
            raise SystemExit(f"{workload} seed {seed} input {index}: {errors}")
        out.append(rec)
    return out


def main(argv: list[str]) -> int:
    workloads = argv or list(run.WORKLOADS)
    expected = json.loads(run.EXPECTED_PATH.read_text()) if run.EXPECTED_PATH.exists() else {}
    for workload in workloads:
        if workload == "plan_fixtures":
            expected[workload] = {"*": record(workload, 0)}
        else:
            expected[workload] = {str(seed): record(workload, seed) for seed in RECORDED_SEEDS}
        print(f"recorded {workload}", file=sys.stderr)
    text = json.dumps(expected, sort_keys=True, separators=(",", ":"))
    run.EXPECTED_PATH.write_text(text.replace("],[", "],\n[") + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
