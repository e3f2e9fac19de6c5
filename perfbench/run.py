"""mlvkit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  Each workload runs in a fresh
single-threaded Python process (perfbench/worker.py) as a closed loop with
one caller.  With --trace 0 the last line holds the end-to-end metrics of
an untraced run; with --trace 1 it holds the per-layer metrics of a traced
run of a fixed number of rounds, and the tracer's overhead against the
same rounds untraced.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("corpus", "perfect_closure", "cli")
SETUP_PROBES = 6      # fresh set-up-only processes before and again after the timed one
TRACE_ROUNDS = 1
DEADLINE_S = 170      # the whole invocation ends within this
REQUIRED = ("src/mlvkit/__init__.py", "tests/corpus.py", "tests/padic_oracle.py")
HERE = os.path.dirname(os.path.abspath(__file__))


class WorkerFailed(Exception):
    pass


def worker(workload, seed, mode, amount, deadline):
    """Run perfbench/worker.py in a fresh process and return its JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
             mode, str(amount)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker ran past the deadline")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload, seed, seconds, deadline):
    def setup_probes():
        return [worker(workload, seed, "setup", 0, deadline)["setup_s"]
                for _ in range(SETUP_PROBES)]

    setups = setup_probes()
    res = worker(workload, seed, "timed", seconds, deadline)
    setups += setup_probes() + [res["setup_s"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (res["items_per_s"], "1/s"),
        "item_p50_ms": (res["item_p50_ms"], "ms"),
        "item_p90_ms": (res["item_p90_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return res, metrics


def per_layer(workload, seed, deadline):
    base = worker(workload, seed, "rounds", TRACE_ROUNDS, deadline)
    res = worker(workload, seed, "traced", TRACE_ROUNDS, deadline)
    metrics = {name: tuple(v) for name, v in res["layers"].items()}
    metrics["trace.wall_s"] = (res["wall_s"], "s")
    metrics["trace.overhead_ratio"] = (res["wall_s"] / base["wall_s"], "ratio")
    return res, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    missing = [path for path in REQUIRED if not os.path.isfile(path)]
    if missing:
        print(f"run from the root of an mlvkit checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            res, metrics = per_layer(args.workload, args.seed, deadline)
        else:
            res, metrics = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    line = json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
