"""Benchmark of lambcoin: blowup, corpus and equiv workloads.

    python3 perfbench/run.py --workload {blowup,corpus,equiv} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; lambcoin is imported from `src/` next
to this directory. Each run starts the workload in its own fresh
interpreter (`worker.py`). With `--trace 0` it first starts SETUP_PROBES
more interpreters that only `import lambcoin`, and reports the end-to-end
metrics; with `--trace 1` it reports the per-layer metrics of a traced run.
The last line of standard output is one JSON object
`{"correct", "attempted", "failed", "metrics"}`; the full result, and in a
traced run the span table, is also written to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("blowup", "corpus", "equiv")
SETUP_PROBES = 11
TIME_LIMIT_S = 170
PROBE = "import time; import lambcoin; print(time.monotonic_ns())"

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "ops/s",
              "peak_rss_mb": "MB"}


def child_env() -> dict:
    """Imports resolve to this checkout's `src/`. Bytecode is cached, as in
    an installed package, so set-up time is not compile time."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def probe_setup(env: dict, deadline: float) -> float:
    """Seconds from launching an interpreter to `import lambcoin` done."""
    launched = time.monotonic_ns()
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("importing lambcoin failed")
    return (int(proc.stdout.split()[-1]) - launched) / 1e9


def run_worker(args, env: dict, deadline: float) -> dict:
    launched = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--launched", str(launched)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"the {args.workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "lambcoin" / "__init__.py").is_file():
        print(f"no lambcoin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    env = child_env()
    try:
        setups = []
        if not args.trace:
            probe_setup(env, deadline)  # fills the bytecode cache; not timed
            setups = [probe_setup(env, deadline) for _ in range(SETUP_PROBES)]
        result = run_worker(args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
        print(f"traced op_p50_ms {result['op_p50_ms']:.4f} "
              f"over {result['samples']} operations", file=sys.stderr)
    else:
        result["setup_s"] = statistics.median(setups + [result["setup_s"]])
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
