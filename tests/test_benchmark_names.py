"""Every library name the benchmark binds still exists, in the form it expects.

perfbench/tracer.py wraps the functions in its LAYERS table by module
attribute, perfbench/worker.py reads the factorization cache's statistics,
and perfbench/workloads.py builds each workload's operations from the
library.  A renamed or deleted name stops the benchmark with AttributeError,
so it is caught here.  The benchmark's files are read, never written.
"""
from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from quadprimes import arith

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracer = _load("tracer")
    for key in tracer.function_keys():
        layer, name = key.split(".")
        fn = getattr(importlib.import_module(f"quadprimes.{layer}"), name, None)
        assert callable(fn), key
        if key in tracer.GENERATORS:
            assert inspect.isgeneratorfunction(fn), key


def test_factor_cache_statistics_are_readable():
    info = arith._factorize_raw.cache_info()
    assert info.hits >= 0 and info.misses >= 0


@pytest.mark.parametrize("workload", ("suites", "identity", "scale", "cli_mix"))
def test_workload_operations_build(workload):
    workloads = _load("workloads")
    assert workload in workloads.WORKLOADS
    ops = workloads.operations(workload, 1)
    assert ops and all(isinstance(label, str) and callable(thunk) for label, thunk in ops)
