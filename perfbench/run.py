"""quadprimes benchmark: run one workload for a fixed time and report its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload suites --seed 1 --seconds 30 --trace 0

Every pass of the workload runs in a fresh interpreter (perfbench/worker.py),
because a CLI user pays the import and the cold caches on every call.  Passes
repeat until the next one would overrun ``--seconds``.  Times are scaled to
a fixed reference speed of the host (speed.py).  Each operation's exit
status and output digest is checked against perfbench/reference.json,
recorded by perfbench/record.py.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the tracing
overhead (traced minus untraced wall time) and whether both kinds of pass
produced the same digests.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  A human-readable
report, with the host record and sample counts, comes before it and is also
written to perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

from tracer import EXTRAS as UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results"
# Same as workloads.WORKLOADS, which is not imported here: this process never
# loads the library, so nothing it does can warm a pass.
WORKLOADS = ("suites", "identity", "scale", "cli_mix")

SETUP_PROBES = 5        # extra fresh interpreters that only import quadprimes
RUN_MARGIN_S = 140.0    # every child is stopped this long after --seconds


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, crashed pass)."""


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with `share` of values at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv: list[str], deadline: float) -> str:
    """Run one child to completion before the run's deadline; return stdout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:]} did not finish within the run time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _worker(args: list[str], deadline: float) -> dict[str, Any]:
    """Run worker.py; its report, with setup_s: spawn to `import quadprimes` done,
    scaled to the reference speed by the samples taken during the import."""
    spawned = time.monotonic()
    out = _spawn([sys.executable, str(HERE / "worker.py"), *args], deadline)
    report = json.loads(out.splitlines()[-1])
    report["setup_raw_s"] = report["imported_at"] - spawned
    report["setup_s"] = report["setup_raw_s"] * report["import_scale"]
    return report


def run_pass(workload: str, seed: int, traced: bool, deadline: float) -> dict[str, Any]:
    spawned = time.monotonic()
    report = _worker(["--workload", workload, "--seed", str(seed), "--trace", str(int(traced))],
                     deadline)
    report["duration_s"] = time.monotonic() - spawned
    report["traced"] = traced
    return report


def check_outcomes(passes: list[dict[str, Any]], reference: dict[str, list[Any]]
                   ) -> tuple[int, list[str]]:
    """(operations attempted, descriptions of failed ones).

    An operation fails when it raised, or when its exit status or output
    digest differs from the reference.  Refusals (exit 2) and counterexample
    verdicts (exit 1, all_passed False) are correct when they match.  In a
    traced run every traced pass must also reproduce the untraced digests.
    """
    attempted = 0
    failed: list[str] = []
    untraced = next((p["outcomes"] for p in passes if not p["traced"]), None)
    for index, report in enumerate(passes):
        for position, (label, status, digest) in enumerate(report["outcomes"]):
            attempted += 1
            expected = reference.get(label)
            if expected is None:
                failed.append(f"pass {index}: {label}: no reference recorded")
            elif [status, digest] != expected:
                failed.append(f"pass {index}: {label}: got {status} {digest}, "
                              f"expected {expected[0]} {expected[1]}")
            elif report["traced"] and untraced is not None and \
                    untraced[position] != [label, status, digest]:
                failed.append(f"pass {index}: {label}: traced digest differs from untraced")
    return attempted, failed


def op_times(passes: list[dict[str, Any]]) -> list[float]:
    """Each operation's median scaled latency over the passes.

    The scaled latency (speed.py) is the raw one at the reference speed of
    the host: on a VM that shares its cores, the raw time of the same pass
    moves by 20-30% with the other tenants' load.
    """
    return [statistics.median(times) for times in zip(*(p["scaled_s"] for p in passes))]


def end_to_end(passes: list[dict[str, Any]], setups: list[float]) -> dict[str, tuple[float, str, int]]:
    """metric -> (value, unit, sample count), from the untraced passes."""
    plain = [p for p in passes if not p["traced"]]
    times = op_times(plain)
    return {
        "wall_s": (math.fsum(times), "s", len(plain)),
        "req_p50_ms": (1e3 * percentile(times, 0.5), "ms", len(times)),
        "req_p90_ms": (1e3 * percentile(times, 0.9), "ms", len(times)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] / 1024 for p in plain), "MB",
                        len(plain)),
    }


def per_layer(passes: list[dict[str, Any]]) -> dict[str, tuple[float, str, int]]:
    """metric -> (value, unit, sample count): low medians over the traced passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out: dict[str, tuple[float, str, int]] = {}
    for name in traced[0]["layers"]:
        unit = UNITS.get(name) or ("count" if name.endswith(".calls") else "s")
        out[name] = (statistics.median_low(p["layers"][name] for p in traced), unit, len(traced))
    overhead = math.fsum(op_times(traced)) - math.fsum(op_times(plain))
    out["trace_overhead_s"] = (overhead, "s", min(len(traced), len(plain)))
    return out


def host_record(seed: int, passes: list[dict[str, Any]]) -> dict[str, Any]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        out = []
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        commit = out[1]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "commit": commit,
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    if not (ROOT / "src" / "quadprimes" / "__init__.py").is_file():
        raise BenchError(f"no quadprimes sources under {ROOT / 'src'}")
    if not REFERENCE.is_file():
        raise BenchError(f"missing {REFERENCE}; run perfbench/record.py at the reference commit")
    reference = json.loads(REFERENCE.read_text())["ops"]

    started = time.monotonic()
    deadline = started + seconds + RUN_MARGIN_S
    _worker([], deadline)  # compiles the bytecode caches; not a sample
    probes = [_worker([], deadline) for _ in range(SETUP_PROBES)]

    passes: list[dict[str, Any]] = []
    last: dict[bool, float] = {}
    while True:
        traced = trace and len(passes) % 2 == 1
        report = run_pass(workload, seed, traced, deadline)
        passes.append(report)
        last[traced] = report["duration_s"]
        upcoming = trace and len(passes) % 2 == 1
        if upcoming not in last:
            continue
        if time.monotonic() - started + last[upcoming] > seconds:
            break

    attempted, failed = check_outcomes(passes, reference)
    setups = [r["setup_s"] for r in probes + passes]
    metrics = per_layer(passes) if trace else end_to_end(passes, setups)
    return {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "host": host_record(seed, passes),
        "passes": len(passes),
        "elapsed_s": time.monotonic() - started,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setup_samples_s": setups,
        "setup_raw_samples_s": [r["setup_raw_s"] for r in probes + passes],
        "passes_detail": [{"traced": p["traced"], "wall_s": p["wall_s"],
                           "latencies_s": p["latencies_s"], "scaled_s": p["scaled_s"],
                           "samples": p["samples"]} for p in passes],
        "spans": [p["spans"] for p in passes if p["traced"]],
    }


def report_lines(result: dict[str, Any]) -> list[str]:
    host = result["host"]
    lines = [
        f"workload {result['workload']}  seed {host['seed']}  trace {int(result['trace'])}  "
        f"passes {result['passes']}  elapsed {result['elapsed_s']:.1f} s",
        f"host: nproc {host['nproc']}, {host['cpu_model']}, Python {host['python']}, "
        f"numpy {host['numpy']}, commit {host['commit']}",
    ]
    for name, (value, unit, samples) in result["metrics"].items():
        lines.append(f"  {name:52s} {value:14.6g} {unit:6s} (n={samples})")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"  {'failed_frac':52s} {len(failed) / attempted:14.6g} {'1':6s} "
                 f"({len(failed)} of {attempted} operations)")
    lines += [f"  FAILED {line}" for line in failed[:20]]
    return lines


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        lines = report_lines(result)
        print("\n".join(lines))
        RESULTS.mkdir(exist_ok=True)
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        (RESULTS / name).write_text(json.dumps({**result, "report": lines}, indent=1))
        print(json.dumps({
            "correct": not result["failed"],
            "attempted": result["attempted"],
            "failed": len(result["failed"]),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in result["metrics"].items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
