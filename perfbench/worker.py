"""One workload run, in the fresh interpreter that `run.py` starts for it.

Runs as a closed loop with one caller and no extra threads:

1. Imports lambcoin; set-up time is measured from the parent's launch
   timestamp (`--launched`, CLOCK_MONOTONIC) to the end of that import.
2. With `--trace 1`, installs the per-layer tracer.
3. Fixed work: the workload's `fixed_rounds` rounds of its seeded inputs.
   `ops_per_s` is the median over these rounds of operations per second
   of busy time; `peak_rss_mb` and, in a traced run, the per-layer
   metrics are read when they end.
4. Further whole rounds until `--seconds` have passed since the fixed work
   began. `op_p50_ms` is the median over every operation of the run.

Every operation's output is checked outside its timed span. Prints one JSON
object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from random import Random

MAX_REPORTED_ERRORS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launched", type=int, required=True,
                        help="CLOCK_MONOTONIC ns at which the parent started this process")
    return parser.parse_args(argv)


class Loop:
    """Times operations one at a time and checks each result untimed."""

    def __init__(self, run, check):
        self.run, self.check = run, check
        self.attempted = self.failed = self.wrong = self.errors = 0

    def _report(self, what: str, item) -> None:
        self.errors += 1
        if self.errors <= MAX_REPORTED_ERRORS:
            print(f"{what} on {item!r}:", file=sys.stderr)
            traceback.print_exc()

    def round(self, items) -> list[float]:
        """Seconds taken by each operation of the round that did not fail."""
        times = []
        for item in items:
            self.attempted += 1
            start = time.perf_counter()
            try:
                out = self.run(item)
            except Exception:  # a fault of the program: count it, go on
                self.failed += 1
                self._report("operation failed", item)
                continue
            times.append(time.perf_counter() - start)
            try:
                self.check(item, out)
            except Exception:
                self.wrong += 1
                self._report("check failed", item)
        return times


def main(argv=None) -> int:
    args = parse_args(argv)
    import lambcoin  # noqa: F401  (the set-up being measured)
    setup_s = (time.monotonic_ns() - args.launched) / 1e9

    import layers
    import workloads

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]
    items = workload.inputs(Random(args.seed), False)
    loop = Loop(workload.run, workload.check)

    start = time.perf_counter()
    times: list[float] = []
    throughputs = []
    for _ in range(workload.fixed_rounds):
        done = loop.round(items)
        times += done
        throughputs.append(len(done) / sum(done) if done else 0.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_layer = tracer.metrics() if tracer else None
    spans = tracer.spans() if tracer else None
    while time.perf_counter() - start < args.seconds:
        times += loop.round(items)

    result = {
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "setup_s": setup_s,
        "ops_per_s": statistics.median(throughputs),
        "round_ops_per_s": throughputs,
        "peak_rss_mb": peak_rss_mb,
        "op_p50_ms": 1e3 * statistics.median(times) if times else 0.0,
        "samples": len(times),
        "per_layer": per_layer,
        "spans": spans,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
