"""Suite-level behavior: counts, counterexample inventories, report shape."""
from __future__ import annotations

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from quadprimes import arith, identity, indicator, ramanujan, sieve, verification
from quadprimes.errors import CapacityError, LemmaCounterexample, PrecisionError

# Failing parity cases per x, established by exhaustive independent runs:
# linear mode fails at odd n <= floor(sqrt(x)), quadratic mode at odd squares.
PARITY_FAIL_COUNTS = {9: 4, 16: 4, 25: 6, 100: 10, 121: 12, 144: 12}


def _check_report_invariants(report: verification.VerificationReport) -> None:
    assert report.cases_passed <= report.cases_run
    assert (len(report.counterexamples) > 0) == (report.cases_passed < report.cases_run)
    assert report.all_passed == (report.cases_passed == report.cases_run)


def test_ramanujan_suite_all_pass():
    report = verification.verify_ramanujan(40, 40)
    assert report.cases_run == 40 * 81
    assert report.all_passed
    _check_report_invariants(report)


def test_ramanujan_suite_rejects_bad_bounds():
    with pytest.raises(ValueError):
        verification.verify_ramanujan(0, 10)


def test_ramanujan_suite_refuses_oversized_sweeps_up_front(monkeypatch):
    def never(*args):
        raise AssertionError("sweep started")

    monkeypatch.setattr(arith, "mobius_phi_tables", never)
    monkeypatch.setattr(ramanujan, "_direct_totals", never)
    # q_max = 20,000 is the first past the work cap: 200,010,000 terms.
    assert 19_999 * 20_000 // 2 <= verification.DIRECT_WORK_CAP < 20_000 * 20_001 // 2
    # 2 m_max + 1 passes int64 from m_max = 2**62 on.
    for q_max, m_max in ((ramanujan.DIRECT_Q_CAP + 1, 0), (20_000, 0), (1, 2**62), (1, 2**63)):
        with pytest.raises(CapacityError, match="^direct sums capped"):
            verification.verify_ramanujan(q_max, m_max)


def _per_case_report(q_max: int, m_max: int) -> verification.VerificationReport:
    # The three routes called at every (q, m) in turn, one row per
    # disagreement in (q, m) order.
    rows = []
    for q in range(1, q_max + 1):
        for m in range(-m_max, m_max + 1):
            closed = ramanujan.ramanujan_closed(q, m)
            divisor = ramanujan.ramanujan_divisor(q, m)
            direct = ramanujan.ramanujan_direct(q, m)
            if not closed == divisor == direct:
                rows.append(verification.Counterexample(
                    inputs={"q": q, "m": m},
                    expected="direct = closed = divisor",
                    actual={"direct": direct, "closed": closed, "divisor": divisor},
                ))
    cases = q_max * (2 * m_max + 1)
    return verification.VerificationReport("ramanujan", cases, cases - len(rows), tuple(rows))


def test_ramanujan_suite_rows_match_the_per_case_loop(monkeypatch):
    # The divisor route read one too high at (12, gcd 4): the sweep's rows
    # and the per-case divisor sum both.
    real_row, real_divisor = verification._divisor_row, ramanujan.ramanujan_divisor

    def row_wrong_at_12_4(q, m_max, size, mu):
        row = real_row(q, m_max, size, mu)
        if q == 12:
            row[np.gcd(np.arange(size) - m_max, q) == 4] += 1
        return row

    def wrong_at_12_4(q, m):
        value = real_divisor(q, m)
        return value + 1 if (q, math.gcd(abs(m), q)) == (12, 4) else value

    monkeypatch.setattr(verification, "_divisor_row", row_wrong_at_12_4)
    monkeypatch.setattr(ramanujan, "ramanujan_divisor", wrong_at_12_4)
    report = verification.verify_ramanujan(20, 20)
    assert report == _per_case_report(20, 20)
    assert [ce.inputs for ce in report.counterexamples] == [
        {"q": 12, "m": m} for m in (-20, -16, -8, -4, 4, 8, 16, 20)]
    for ce in report.counterexamples:
        assert ce.actual == {"direct": -2, "closed": -2, "divisor": -1}
        assert {type(v) for v in (*ce.inputs.values(), *ce.actual.values())} == {int}


@pytest.mark.parametrize("q_max, m_max", [(1, 0), (1, 5), (13, 0), (13, 1), (30, 5), (6, 30)])
def test_ramanujan_suite_by_class_matches_the_per_case_loop(monkeypatch, q_max, m_max):
    # Blocks of 16 cells: the sweep spans blocks, and 2 m_max + 1 < q for
    # most q when m_max is 0, 1 or 5.
    monkeypatch.setattr(verification, "_CLASS_BLOCK", 16)
    report = verification.verify_ramanujan(q_max, m_max)
    assert report == _per_case_report(q_max, m_max)
    assert (report.cases_run, report.all_passed) == (q_max * (2 * m_max + 1), True)


def _break_route(monkeypatch, route):
    # One route broken alike in the sweep and in the per-case calls: a mu
    # entry, a phi entry (its divisibility guard still holds), one divisor
    # slice (d = 4 of q = 12) or the direct sums at residue 1 of three moduli.
    real_tables = arith.mobius_phi_tables
    if route in ("mu", "phi"):
        n, value = (3, 1) if route == "mu" else (5, 2)
        table, scalar = (0, "mobius") if route == "mu" else (1, "euler_phi")

        def broken_tables(limit):
            tables = real_tables(limit)
            if n <= limit:
                tables[table][n] = value
            return tables

        real_scalar = getattr(arith, scalar)
        monkeypatch.setattr(arith, "mobius_phi_tables", broken_tables)
        monkeypatch.setattr(arith, scalar, lambda k: value if k == n else real_scalar(k))
    elif route == "divisor":
        real_row, real_divisor = verification._divisor_row, ramanujan.ramanujan_divisor

        def broken_row(q, m_max, size, mu):
            row = real_row(q, m_max, size, mu)
            if q == 12:
                row[m_max % 4::4] += 1
            return row

        monkeypatch.setattr(verification, "_divisor_row", broken_row)
        monkeypatch.setattr(ramanujan, "ramanujan_divisor",
                            lambda q, m: real_divisor(q, m) + (q == 12 and m % 4 == 0))
    else:
        real_totals = ramanujan._direct_totals

        def broken_totals(q, residues):
            totals = real_totals(q, residues)
            if q in (5, 9, 12):
                totals[residues == 1] += 1
            return totals

        monkeypatch.setattr(ramanujan, "_direct_totals", broken_totals)


@pytest.mark.parametrize("route", ["mu", "phi", "divisor", "direct"])
@pytest.mark.parametrize("m_max", [1, 5, 13])
def test_ramanujan_suite_catches_each_broken_route_as_the_per_case_loop(
        monkeypatch, cold_ramanujan_memos, route, m_max):
    monkeypatch.setattr(verification, "_CLASS_BLOCK", 16)
    _break_route(monkeypatch, route)
    report = verification.verify_ramanujan(20, m_max)
    assert report == _per_case_report(20, m_max)
    assert report.counterexamples
    _check_report_invariants(report)


def test_ramanujan_suite_keeps_the_totient_guard(monkeypatch, cold_ramanujan_memos):
    # phi(6) read as 4 leaves phi(18) = 6 not divisible by it; the sweep
    # stops at the per-case loop's first such (q, m), with its message.
    real_tables, real_phi = arith.mobius_phi_tables, arith.euler_phi

    def broken_tables(limit):
        mu, phi = real_tables(limit)
        phi[6] = 4
        return mu, phi

    monkeypatch.setattr(arith, "mobius_phi_tables", broken_tables)
    monkeypatch.setattr(arith, "euler_phi", lambda n: 4 if n == 6 else real_phi(n))
    with pytest.raises(ArithmeticError) as expected:
        _per_case_report(20, 5)
    with pytest.raises(ArithmeticError) as info:
        verification.verify_ramanujan(20, 5)
    assert str(info.value) == str(expected.value) == "phi(18) not divisible by phi(6)"


@pytest.mark.parametrize("q_max, m_max", [(1, 499_999_999), (10, 9_090_908), (1000, 998),
                                          (1000, 999), (1, 2**62 - 1), (1000, 2**62 - 1)])
def test_ramanujan_suite_at_the_cap_runs_in_bounded_memory(q_max, m_max):
    # Each sweep is within DIRECT_WORK_CAP, and m_max reaches the int64
    # edge; a sweep checks at most q classes per q whatever m_max is,
    # where per-m arrays would take 8 GB at (1, 499,999,999).
    assert q_max * (q_max + 1) // 2 <= verification.DIRECT_WORK_CAP
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = verification.verify_ramanujan(q_max, m_max)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.cases_run, report.all_passed) == (q_max * (2 * m_max + 1), True)
    assert peak < (2**20 if q_max == 1 else 2**22)
    if q_max == 1:
        assert elapsed < 1


def test_ramanujan_suite_names_the_first_imprecise_case(monkeypatch):
    # Residue 3 of q = 7 is first met at m = -11 in the sweep -12..12.
    real_totals = ramanujan._direct_totals

    def off_at_7_3(q, residues):
        totals = real_totals(q, residues)
        if q == 7:
            totals[residues == 3] += 1e-3j
        return totals

    monkeypatch.setattr(ramanujan, "_direct_totals", off_at_7_3)
    with pytest.raises(PrecisionError) as info:
        verification.verify_ramanujan(10, 12)
    assert str(info.value) == "c_7(-11) residual 1.000e-03 >= 1e-6"


def test_ramanujan_suite_one_residue_per_modulus_is_fast():
    start = time.perf_counter()
    report = verification.verify_ramanujan(2000, 0)
    assert time.perf_counter() - start < 3
    assert (report.cases_run, report.all_passed) == (2000, True)


def _break_closed_value(monkeypatch, d):
    # c_q read one too high at gcd d, or at gcd q itself for d = "N", so
    # c_N(1) = 2 or c_N(2) = 0 breaks the parity lemma and c_N(0) = p moves
    # the square indicator at the squares.
    real = ramanujan._closed_value
    monkeypatch.setattr(ramanujan, "_closed_value",
                        lambda q, g: real(q, g) + (g == (q if d == "N" else d)))


def test_parity_suite_refuses_oversized_sweeps_up_front(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("row built")

    monkeypatch.setattr(verification, "Counterexample", never)
    # With the class values right, the possible rows are the odd n <= R and
    # the odd squares, R = floor(sqrt(x)): 1,000,000 at x = 1,000,002,000,000
    # (R = 10^6), within the bound, and 1,000,002 one x later.
    with pytest.raises(AssertionError, match="row built"):
        verification.verify_parity(1_000_002_000_000)
    with pytest.raises(CapacityError, match="needs 1000002"):
        verification.verify_parity(1_000_002_000_001)
    # With c_N(2) broken every odd n of both modes is a row: x + 1 at odd x.
    _break_closed_value(monkeypatch, 2)
    with pytest.raises(AssertionError, match="row built"):
        verification.verify_parity(999_999)
    with pytest.raises(CapacityError, match="needs 1000002"):
        verification.verify_parity(1_000_001)


def _per_term_parity_report(x: int, regime: str) -> verification.VerificationReport:
    # One ramanujan.parity_sum per (n, mode), every term evaluated.
    ctx = identity.make_context(x, regime)
    rows = []
    for mode in ("linear", "quadratic"):
        for n in range(1, x + 1, 2):
            try:
                ramanujan.parity_sum(ctx, n, mode)
            except LemmaCounterexample as exc:
                rows.append(verification.Counterexample(dict(exc.inputs), exc.expected,
                                                        exc.actual))
    cases = 2 * ((x + 1) // 2)
    return verification.VerificationReport("parity", cases, cases - len(rows), tuple(rows))


@pytest.mark.parametrize("broken", (None, 1, 2))
def test_parity_suite_matches_the_per_term_sums(monkeypatch, broken):
    # Every x in 4..400 in both regimes, with the class values right and with
    # c_N(1) or c_N(2) broken, which moves the first failing sign.
    if broken is not None:
        _break_closed_value(monkeypatch, broken)
    for x in range(4, 401):
        for regime in ("minimal", "inflated"):
            assert verification.verify_parity(x, regime) == _per_term_parity_report(x, regime), \
                (x, regime)


def test_parity_suite_counterexample_inventory():
    for x, expected_failures in PARITY_FAIL_COUNTS.items():
        report = verification.verify_parity(x)
        odd_count = (x + 1) // 2
        assert report.cases_run == 2 * odd_count, x
        failures = report.cases_run - report.cases_passed
        assert failures == expected_failures, x
        _check_report_invariants(report)
        for ce in report.counterexamples:
            # Every failure measures exactly claimed + 1.
            assert ce.actual == ce.expected + 1


def _per_n_char_report(x: int, regime: str) -> verification.VerificationReport:
    # One indicator.square_char_exp per odd n against the integer-root oracle.
    ctx = identity.make_context(x, regime)
    rows = []
    for n in range(1, x + 1, 2):
        reference = indicator.square_char_isqrt(n)
        try:
            verdict = indicator.square_char_exp(ctx, n)
        except LemmaCounterexample as exc:
            rows.append(verification.Counterexample(dict(exc.inputs), exc.expected, exc.actual))
            continue
        if verdict != reference:
            rows.append(verification.Counterexample({"x": x, "p": ctx.p, "n": n}, reference,
                                                    verdict))
    cases = (x + 1) // 2
    return verification.VerificationReport("char", cases, cases - len(rows), tuple(rows))


@pytest.mark.parametrize("broken", (None, 1, 2, "N"))
def test_char_suite_matches_the_per_n_route(monkeypatch, broken):
    # Every x in 4..400 with an even floor(sqrt(x)), in both regimes.  With
    # c_N(1) or c_N(2) broken the non-squares fail and every odd n is
    # visited; with c_N(0) broken only the squares' value moves.
    if broken is not None:
        _break_closed_value(monkeypatch, broken)
    for x in range(4, 401):
        if math.isqrt(x) % 2:
            continue
        for regime in ("minimal", "inflated"):
            assert verification.verify_char(x, regime) == _per_n_char_report(x, regime), \
                (x, regime)


def test_char_suite_refuses_oversized_sweeps_up_front(monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("sweep started")

    # With the classes right, the odd squares are the possible rows:
    # floor(sqrt(x)) / 2 = 10^6 at x = 4,000,004,000,000, within the bound,
    # and 1,000,001 at 4,000,008,000,004 = 2,000,002^2, refused before the
    # squares are read.
    monkeypatch.setattr(indicator, "square_char_exp", started)
    with pytest.raises(AssertionError, match="sweep started"):
        verification.verify_char(4_000_004_000_000)
    with pytest.raises(CapacityError, match="char rows capped at 1000000; this sweep needs 1000001"):
        verification.verify_char(4_000_008_000_004)
    monkeypatch.undo()
    # With c_N(2) broken the non-squares fail and every odd n is a row.
    _break_closed_value(monkeypatch, 2)
    monkeypatch.setattr(verification, "Counterexample", started)
    with pytest.raises(AssertionError, match="sweep started"):
        verification.verify_char(1_999_999)
    with pytest.raises(CapacityError, match="needs 1000002"):
        verification.verify_char(2_000_003)


def test_char_suite_fails_exactly_at_odd_squares():
    for x in (16, 100, 144):
        report = verification.verify_char(x)
        odd_squares = [n for n in range(1, x + 1, 2) if int(n**0.5 + 0.5) ** 2 == n]
        failures = report.cases_run - report.cases_passed
        assert failures == len(odd_squares), x
        failing_n = sorted(ce.inputs["n"] for ce in report.counterexamples)
        assert failing_n == odd_squares, x
        _check_report_invariants(report)


def test_liouville_suite_all_pass():
    report = verification.verify_liouville(3000)
    assert report.cases_run == 3000
    assert report.all_passed


def test_liouville_suite_refuses_an_oversized_limit_up_front(monkeypatch):
    def started(limit):
        raise AssertionError("sweep started")

    monkeypatch.setattr(sieve, "square_flags", started)
    cap = verification.LIOUVILLE_LIMIT_MAX
    with pytest.raises(AssertionError, match="sweep started"):
        verification.verify_liouville(cap)
    for limit in (cap + 1, 10**12):
        with pytest.raises(CapacityError, match=f"capped at {cap}; this one is {limit}"):
            verification.verify_liouville(limit)


@pytest.mark.parametrize("limit", (99, 100, 101, 65535, 65536, 65537))
def test_liouville_suite_rows_match_the_per_n_oracle(monkeypatch, limit):
    # The sieve's flags read as "n is a multiple of 1000" on its own
    # segments: wrong at every square that is not one and at every multiple
    # that is not a square.
    # The limits end at k^2 - 1, k^2 and k^2 + 1; 65536 = 256^2 is the last n
    # of the first segment.
    real_flags = sieve.square_flags

    def skewed(limit):
        for start, flags in real_flags(limit):
            yield start, np.arange(start, start + flags.size) % 1000 == 0

    monkeypatch.setattr(sieve, "square_flags", skewed)
    report = verification.verify_liouville(limit)
    rows = tuple(
        verification.Counterexample(inputs={"n": n}, expected=square, actual=n % 1000 == 0)
        for n in range(1, limit + 1)
        if (square := indicator.square_char_isqrt(n)) != (n % 1000 == 0)
    )
    assert report == verification.VerificationReport("liouville", limit, limit - len(rows), rows)
    for ce in report.counterexamples:
        assert (type(ce.inputs["n"]), type(ce.expected), type(ce.actual)) == (int, bool, bool)


def test_identity_suite_exact_path_fails_float_path_passes():
    report = verification.verify_identity()
    # 20 configurations, each contributing an exact-path and a float-path case.
    assert report.cases_run == 40
    assert report.cases_passed == 20
    checks = {ce.inputs["check"] for ce in report.counterexamples}
    assert checks == {"rhs-exact-equals-lhs"}
    _check_report_invariants(report)


def test_identity_suite_single_config():
    report = verification.verify_identity([(4, 1, 16)])
    assert report.cases_run == 2
    assert report.cases_passed == 1


def test_main_term_suite_all_fail():
    report = verification.verify_main_term()
    assert report.cases_run == 20
    assert report.cases_passed == 0
    for ce in report.counterexamples:
        assert ce.expected == 0
        assert ce.actual > 0
    _check_report_invariants(report)


def test_error_term_suite_all_pass():
    report = verification.verify_error_term()
    assert report.cases_run == 40
    assert report.all_passed
    _check_report_invariants(report)


def test_error_term_suite_single_config():
    report = verification.verify_error_term([(3, 2, 36)])
    assert report.cases_run == 2
    assert report.all_passed


def test_char_suite_reads_two_values_at_4e4(monkeypatch):
    # Every odd square n <= x measures p/(p-1), the derivation of acceptance
    # criterion 3; every other odd n passes.  The exponential sum is
    # evaluated once per class of odd n, not once per n.
    x = 4 * 10**4
    p = next(k for k in itertools.count(x + 1)
             if all(k % d for d in range(2, math.isqrt(k) + 1)))
    expected = tuple(
        verification.Counterexample(inputs={"x": x, "p": p, "n": s * s},
                                    expected="0 or 1", actual=Fraction(p, p - 1))
        for s in range(1, math.isqrt(x) + 1, 2)
    )
    evaluated = []
    real_value = indicator.square_char_exp_value

    def counting_value(ctx, n):
        evaluated.append(n)
        return real_value(ctx, n)

    monkeypatch.setattr(indicator, "square_char_exp_value", counting_value)
    report = verification.verify_char(x)
    assert report == verification.VerificationReport("char", x // 2, x // 2 - 100, expected)
    assert len(evaluated) <= 2
