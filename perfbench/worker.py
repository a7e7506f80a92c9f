"""One benchmark pass: a fresh interpreter runs one workload's operations once.

Started by run.py, once per pass; by hand, from the root of a checkout:

    PYTHONPATH=src python3 perfbench/worker.py --workload suites --seed 1 --trace 0

Without ``--workload`` it only imports quadprimes, as a set-up probe.

Prints one JSON object: the monotonic clock reading when ``import quadprimes``
finished and the factor that scales the import's time to the reference speed
(speed.py); for a pass also its wall time, each operation's raw and scaled
latency, status and output digest, the peak resident memory, and with
``--trace 1`` the per-layer metrics and boundary spans.
"""
import time

import speed

SETUP = speed.SpeedSampler()
SETUP.start()
import quadprimes  # noqa: E402,F401  (timed: this is the set-up a CLI user pays)

IMPORTED_AT = time.monotonic()
IMPORT_SCALE = SETUP.scale(SETUP.starts[0], time.perf_counter())
SETUP.stop()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from quadprimes import arith  # noqa: E402


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    ops = workloads.operations(workload, seed)
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    sampler = speed.SpeedSampler(tracer)
    results = []
    intervals = []
    clock = time.perf_counter
    sampler.start()
    for index, (label, thunk) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = clock()
        try:
            results.append((True, thunk()))
        except Exception as exc:  # counted as a failed operation, never fatal
            results.append((False, f"{type(exc).__name__}: {exc}"))
        intervals.append((start, clock()))
    sampler.stop()
    if tracer is not None:
        tracer.uninstall()

    outcomes = []
    for (label, _), (ok, result) in zip(ops, results):
        status, digest = workloads.outcome(label, result) if ok else ("raised", result)
        outcomes.append([label, status, digest])
    report = {
        "imported_at": IMPORTED_AT,
        "import_scale": IMPORT_SCALE,
        "wall_s": intervals[-1][1] - intervals[0][0],
        "latencies_s": [end - start for start, end in intervals],
        "scaled_s": [sampler.scaled_time(start, end) for start, end in intervals],
        "samples": len(sampler.chunks),
        "outcomes": outcomes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics(arith._factorize_raw.cache_info())
        report["spans"] = tracer.spans
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="omitted: only report the import (a set-up probe)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        print(json.dumps({"imported_at": IMPORTED_AT, "import_scale": IMPORT_SCALE}))
    else:
        print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace))))


if __name__ == "__main__":
    main()
