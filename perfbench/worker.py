"""Run one workload in this process and print one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED MODE AMOUNT

MODE is one of
  setup   build the inputs and report the set-up time only;
  timed   repeat whole rounds until AMOUNT seconds have passed;
  rounds  run exactly AMOUNT rounds untraced (the trace overhead baseline);
  traced  run exactly AMOUNT rounds with the per-layer tracer installed.

It is started by run.py from the root of a checkout, in a fresh process
per workload; the set-up time starts before mlvkit is imported.

Times are reported at a reference host speed.  The host is shared, and
other tenants slow pure-Python code by up to a factor of two for minutes
at a time.  So a fixed calibration loop, which runs no mlvkit code, is
timed before every item, and each latency is scaled by CALIBRATION_REF_S
over the median of the six calibrations around it (README.md, "Noise").
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                os.path.dirname(os.path.abspath(__file__))]

MIN_ITEMS = 100   # items per run, whatever the workload
MIN_ROUNDS = 5    # so that each item's latency is a median of five or more
CALIBRATION_REF_S = 0.35e-3   # the calibration loop on this host when it is quiet
CALIBRATION_WINDOW = 3        # calibrations taken on each side of an item


def calibrate():
    """Fraction, dict and small-int list work, like mlvkit's inner loops."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        acc += Fraction(i % 7 + 1, i)
        table[(i, i % 13)] = acc.numerator % 97
    f = [i % 5 for i in range(24)]
    prod = [0] * 47
    for i, a in enumerate(f):
        for j, b in enumerate(f):
            prod[i + j] = (prod[i + j] + a * b) % 7
    return table, prod


def time_calibration():
    start = time.perf_counter()
    calibrate()
    return time.perf_counter() - start


def host_scale(calib, j):
    """Reference over local calibration time around item number j, which
    ran between calib[j] and calib[j + 1]."""
    w = CALIBRATION_WINDOW
    return CALIBRATION_REF_S / statistics.median(calib[max(0, j - w + 1):j + w + 1])


def run_round(items, latencies, calib, tally, tracer=None):
    """One pass over the items; latencies[i] collects item i's latencies,
    and calib one calibration time before each item."""
    for item, lat in zip(items, latencies):
        calib.append(time_calibration())
        if tracer is not None:
            tracer.item = item.name
            tracer.active = True
        start = time.perf_counter()
        try:
            out = item.run()
            error = None
        except Exception as exc:  # an item that raises is a failed item
            out, error = None, f"{type(exc).__name__}: {exc}"
        lat.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        if error is None:
            digest = item.digest(out)
            if digest != item.verified:
                error = item.check(out) or None
                if error is None:
                    item.verified = digest
        tally["attempted"] += 1
        if error:
            tally["failed"] += 1
            if not item.known_fault:
                tally["correct"] = False
            tally["errors"].setdefault(item.name, error)


def main(argv):
    workload, seed, mode, amount = argv[0], int(argv[1]), argv[2], float(argv[3])
    import workloads
    tracer = None
    if mode == "traced":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, extra_modules=("corpus", "workloads"))
        tracer.active = True
    items = workloads.WORKLOADS[workload](seed)
    setup_s = time.perf_counter() - T0
    if tracer is not None:
        tracer.active = False
    setup_s *= CALIBRATION_REF_S / statistics.median(
        time_calibration() for _ in range(2 * CALIBRATION_WINDOW))
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies, calib, spans = [[] for _ in items], [], []
    tally = {"attempted": 0, "failed": 0, "correct": True, "errors": {}}
    start = time.perf_counter()
    rounds = 0
    min_rounds = max(MIN_ROUNDS, math.ceil(MIN_ITEMS / len(items)))
    while True:
        round_start = time.perf_counter()
        run_round(items, latencies, calib, tally, tracer)
        rounds += 1
        if tracer is not None:
            spans.append({"round": rounds, "start_s": round_start - start,
                          "end_s": time.perf_counter() - start})
        if mode == "timed":
            if time.perf_counter() - start >= amount and rounds >= min_rounds:
                break
        elif rounds >= amount:
            break
    wall_s = time.perf_counter() - start
    calib.append(time_calibration())

    for name, error in tally["errors"].items():
        print(f"check failed: {name}: {error}", file=sys.stderr)
    result = {"attempted": tally["attempted"], "failed": tally["failed"],
              "correct": tally["correct"], "rounds": rounds, "wall_s": wall_s}
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    if mode == "timed":
        # an item's latency is the median over the rounds of its latency
        # at the reference host speed
        m = len(items)
        typical = [statistics.median(t * host_scale(calib, r * m + i)
                                     for r, t in enumerate(lat))
                   for i, lat in enumerate(latencies)]
        result.update({
            "setup_s": setup_s,
            "items_per_s": len(items) / sum(typical),
            "item_p50_ms": statistics.median(typical) * 1e3,
            "item_p90_ms": statistics.quantiles(typical, n=10,
                                                method="inclusive")[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        with open(os.path.join(out_dir, f"latencies-{workload}-seed{seed}.json"), "w") as fh:
            json.dump({"items": [[item.name, lat] for item, lat in zip(items, latencies)],
                       "calibration_s": calib}, fh)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write(os.path.join(out_dir, f"trace-{workload}-seed{seed}.jsonl"), spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
