"""Every recorded CLI request replays its exit code and output digest.

The benchmark's request catalogue (perfbench/workloads.py) and the outcomes
recorded for it (perfbench/reference.json) are read, never written.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_recorded_cli_request_replays_its_reference_outcome():
    workloads = _workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text())["ops"]
    requests = workloads.cli_requests()
    mismatches = []
    for argv in requests:
        label = workloads.cli_label(argv)
        got = list(workloads.outcome(label, workloads.run_cli(argv)))
        if got != reference.get(label):
            mismatches.append(f"{label}: {got} != {reference.get(label)}")
    assert len(requests) == 592
    assert not mismatches, "\n".join(mismatches)
