"""Self-tests of the benchmark: request generation, output checks, tracer.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from quadprimes import arith, asymptotics, identity, verification  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())["ops"]


def test_cli_mix_is_deterministic_per_seed_and_differs_across_seeds():
    assert workloads.cli_mix_requests(7) == workloads.cli_mix_requests(7)
    assert workloads.cli_mix_requests(7) != workloads.cli_mix_requests(8)


def test_cli_mix_sends_the_same_work_for_every_seed():
    def entries(seed):
        entry_of = {argv: entry for entries in workloads.cli_catalogue().values()
                    for entry in entries for argv in entry}
        return [entry_of[argv] for argv in workloads.cli_mix_requests(seed)]

    assert entries(1) == entries(2)
    assert sorted(entries(1)) == sorted(workloads.cli_mix_entries())
    for entry in workloads.cli_mix_entries():
        # The variants of an entry differ only in the value after --output.
        assert len({argv[:-1] for argv in entry}) == 1 or len(entry) == 1
    requests = workloads.cli_mix_requests(1)
    assert len(requests) == sum(workloads.cli_mix_quotas().values()) >= 100
    refused = sum(1 for argv in requests if REFERENCE[workloads.cli_label(argv)][0] == 2)
    assert 0.08 <= refused / len(requests) <= 0.12


def test_every_operation_has_a_reference():
    labels = [label for name in workloads.WORKLOADS
              for label, _ in workloads.operations(name, seed=0)]
    labels += [workloads.cli_label(argv) for argv in workloads.cli_requests()]
    assert [label for label in labels if label not in REFERENCE] == []


def _fake_pass(outcomes, traced=False):
    return {"outcomes": [list(o) for o in outcomes], "traced": traced}


def test_tampered_output_counts_as_failed():
    argv = workloads.cli_mix_requests(3)[0]
    label = workloads.cli_label(argv)
    good = [label, *workloads.outcome(label, workloads.run_cli(argv))]
    assert good[1:] == REFERENCE[label]
    tampered = [label, good[1], "0" * 16]
    wrong_code = [label, 3 - good[1] if good[1] in (0, 1) else 0, good[2]]
    raised = [label, "raised", "ValueError: boom"]

    attempted, failed = run.check_outcomes([_fake_pass([good, tampered, wrong_code, raised])],
                                           REFERENCE)
    assert attempted == 4 and len(failed) == 3


def test_traced_pass_must_reproduce_untraced_digests():
    label = "suites:verify_parity(9)"
    good = [label, *REFERENCE[label]]
    attempted, failed = run.check_outcomes(
        [_fake_pass([good]), _fake_pass([good], traced=True)], REFERENCE)
    assert (attempted, failed) == (2, [])
    # A digest the reference would accept under another label still fails.
    other = "suites:verify_parity(16)"
    attempted, failed = run.check_outcomes(
        [_fake_pass([good]), _fake_pass([[other, *REFERENCE[other]]], traced=True)], REFERENCE)
    assert attempted == 2 and len(failed) == 1


def _library_calls():
    quartic = identity.check_admissible(4, 1)
    return [
        lambda: [arith.is_prime(n) for n in (1, 2, 91, 2**61 - 1)],
        lambda: [arith.integer_root(n, k) for n, k in ((10**12, 2), (3**40, 5), (7, 3))],
        lambda: list(arith.iter_primes(5000)),
        lambda: asymptotics.psi2_count(quartic, 10**6, collect_hits=True),
        lambda: asymptotics.compare_asymptotic(quartic, 10**6, 3, cutoff=1000),
        lambda: identity.rhs_linear_expansion(quartic, identity.make_context(16)),
        lambda: verification.verify_parity(16),
        lambda: verification.verify_char(36),
        lambda: workloads.run_cli(("verify", "identity", "--q", "4", "--a", "1", "--x", "16",
                                   "--output", "json")),
        lambda: workloads.run_cli(("psi2", "--q", "1", "--a", "1", "--x", "100")),
    ]


def test_wrapping_leaves_return_values_unchanged():
    plain = [call() for call in _library_calls()]
    originals = {key: getattr(sys.modules[f"quadprimes.{key.split('.')[0]}"], key.split(".")[1])
                 for key in tracing.function_keys()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert arith.is_prime is not originals["arith.is_prime"]
        traced = [call() for call in _library_calls()]
        with pytest.raises(ValueError):
            arith.integer_root(-1, 2)
    finally:
        tracer.uninstall()
    assert traced == plain
    for key, fn in originals.items():
        layer, name = key.split(".")
        assert getattr(sys.modules[f"quadprimes.{layer}"], name) is fn
    assert tracer.stack == []
    metrics = tracer.metrics(arith._factorize_raw.cache_info())
    assert metrics["arith.iter_primes.calls"] >= 2
    assert metrics["arith.integer_root.calls"] > 0
    assert metrics["arith.integer_root.exact_frac"] > 0
    assert metrics["asymptotics.compare_asymptotic.rescan_ratio"] > 1
    assert metrics["identity.rhs_linear_expansion.float_runs"] == 2
    assert metrics["verification.verify_parity.cases"] == 16
    assert metrics["cli.run.calls"] == metrics["cli.build_parser.calls"] == 2
    assert metrics["cli.render_json.bytes"] == len(plain[8][1].encode()) - 1  # print's newline
    assert all(value >= 0 for name, value in metrics.items() if name.endswith(".self_s"))


def test_self_time_excludes_wrapped_children():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        verification.verify_ramanujan(20, 20)
    finally:
        tracer.uninstall()
    span = [end - start for _, key, start, end in tracer.spans
            if key == "verification.verify_ramanujan"]
    assert len(span) == 1
    total_self = sum(tracer.self_s.values())
    assert tracer.self_s["verification.verify_ramanujan"] < span[0]
    assert total_self + tracer.nested_hook_s == pytest.approx(span[0], rel=1e-6)


def test_hook_time_is_not_charged_to_the_caller():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        asymptotics.psi2_count(identity.check_admissible(4, 1), 10**6)
    finally:
        tracer.uninstall()
    assert tracer.calls["arith.integer_root"] > 0
    assert tracer.nested_hook_s > 0
    (span,) = [end - start for _, key, start, end in tracer.spans]
    assert sum(tracer.self_s.values()) + tracer.nested_hook_s == pytest.approx(span, rel=1e-6)


def test_sampler_time_is_charged_to_no_function():
    tracer = tracing.Tracer()
    sampler = speed.SpeedSampler(tracer)
    tracer.install()
    sampler.start()
    try:
        asymptotics.psi2_count(identity.check_admissible(4, 1), 10**9)
    finally:
        sampler.stop()
        tracer.uninstall()
    assert len(sampler.chunks) > 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    (span,) = [end - start for _, key, start, end in tracer.spans]
    assert sum(tracer.self_s.values()) + tracer.nested_hook_s == pytest.approx(span, rel=1e-6)


def test_scaled_time_removes_sampling_and_scales_by_the_speed_around():
    ref = speed.REFERENCE_CHUNK_S
    sampler = speed.SpeedSampler()
    sampler.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 4.23, 4.26, 4.29, 4.5]
    sampler.chunks = [ref, 2 * ref, 2 * ref, ref, 4 * ref, ref, 2 * ref, ref, 4 * ref]
    # Samples at 1.0 and 2.0 lie inside; 0.0 and 3.0 are the nearest outside.
    mean_speed = (1 + 0.5 + 0.5 + 1) / 4
    assert sampler.scaled_time(0.5, 2.5) == pytest.approx((2.0 - 4 * ref) * mean_speed)
    # Between two samples far apart: only the one on each side counts.
    assert sampler.scaled_time(3.2, 3.7) == pytest.approx(0.5 * (1 + 0.25) / 2)
    # Samples within MARGIN_S count too: 4.23 besides the nearest, 4.26 and
    # 4.29; 4.0 and 4.5 lie beyond it.
    assert sampler.scaled_time(4.27, 4.28) == pytest.approx(0.01 * (1 + 0.5 + 1) / 3)


def test_percentile_is_nearest_rank():
    values = list(range(1, 301))
    assert run.percentile(values, 0.5) == 150
    assert run.percentile(values, 0.9) == 270
    assert run.percentile([4.0], 0.9) == 4.0


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suites",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
