"""Record the reference outputs every benchmark run is checked against.

From the root of a checkout, at the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/record.py

Runs every operation of the fixed workloads and every request in the cli_mix
catalogue once, and writes each one's exit status and output digest to
perfbench/reference.json.  Re-record only when a change is meant to alter
outputs, and say so in the change.
"""
import json
import platform
import subprocess
from pathlib import Path

import numpy

import workloads

HERE = Path(__file__).resolve().parent


def main() -> None:
    ops = {}
    for workload in ("suites", "identity", "scale"):
        for label, thunk in workloads.operations(workload, seed=0):
            ops[label] = list(workloads.outcome(label, thunk()))
    for argv in workloads.cli_requests():
        label = workloads.cli_label(argv)
        ops[label] = list(workloads.outcome(label, workloads.run_cli(argv)))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent, capture_output=True,
                            text=True).stdout.strip()
    record = {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ops": ops,
    }
    (HERE / "reference.json").write_text(json.dumps(record, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(ops)} operations at {commit or 'an unknown commit'}")


if __name__ == "__main__":
    main()
