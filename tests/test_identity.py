"""Identity and decomposition measurements against brute-force values."""
from __future__ import annotations

import cmath
import functools
import hashlib
import math
import tracemalloc
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

import exact_oracle
import float_oracle
from quadprimes import arith, identity, indicator, ramanujan, sieve, verification
from quadprimes.errors import CapacityError, LemmaCounterexample, PrecisionError

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:
    st = None

needs_hypothesis = pytest.mark.skipif(st is None, reason="hypothesis is not installed")


def test_check_admissible_flags():
    spec = identity.check_admissible(4, 1)
    assert spec.admissible and spec.parity_ok and spec.coprime_ok
    assert spec.fixed_divisor == 1

    assert identity.check_admissible(3, 3).coprime_ok is False
    assert identity.check_admissible(3, 3).admissible is False

    both_odd = identity.check_admissible(3, 1)
    assert both_odd.parity_ok is False
    assert both_odd.admissible is False
    # gcd(f(0), f(1), f(2)) = gcd(1, 4, 13) = 1 even though f(odd) is even;
    # three sample points cannot see the parity obstruction for this pair.
    assert both_odd.fixed_divisor == 1

    assert identity.check_admissible(1, 1).parity_ok is False
    for q, a in ((2, 1), (5, 2), (8, 3)):
        assert identity.check_admissible(q, a).admissible, (q, a)
    with pytest.raises(ValueError):
        identity.check_admissible(0, 1)


def test_check_admissible_negative_constant():
    spec = identity.check_admissible(4, -1)
    assert spec.coprime_ok and spec.parity_ok and spec.fixed_divisor == 1


def test_make_context():
    ctx = identity.make_context(16)
    assert (ctx.p, ctx.N, ctx.floor_sqrt_x) == (17, 34, 4)
    assert identity.make_context(100).p == 101
    inflated = identity.make_context(16, "inflated", 1.0)
    assert inflated.p == 89 and inflated.N == 178
    # A prime target is p itself: ceil(16 e^(0.5 sqrt(ln 16))) = 37.
    assert identity.make_context(16, "inflated", 0.5).p == 37
    with pytest.raises(ValueError):
        identity.make_context(3)
    with pytest.raises(ValueError):
        identity.make_context(16, "huge")
    with pytest.raises(ValueError):
        identity.make_context(16, "inflated", 0.0)


@pytest.mark.parametrize("c", (math.inf, math.nan, 1e6, 100.0, 25.0))
def test_make_context_refuses_a_c_past_the_64_bit_primes(c):
    # inf and NaN have no target, 1e6 overflows the float, and at x = 16
    # the target e^(c sqrt(ln 16)) * 16 passes the largest 64-bit prime
    # between c = 24.97 and 25.
    with pytest.raises(ValueError, match=rf"64-bit range for x=16, c={c}$"):
        identity.make_context(16, "inflated", c)


def test_make_context_takes_the_widest_c_below_the_64_bit_primes():
    ctx = identity.make_context(16, "inflated", 24.97)
    assert ctx.x == 16 and 2**63 < ctx.p <= arith.LARGEST_U64_PRIME


def test_lhs_frozen_values():
    spec = identity.check_admissible(4, 1)
    value, records = identity.lhs_quadratic_psi(spec, 16)
    assert value == pytest.approx(math.log(5) + math.log(37), rel=1e-15)
    assert value == pytest.approx(5.220355825078324, rel=1e-15)
    assert [n for n, _ in records] == [1, 3]

    value100, records100 = identity.lhs_quadratic_psi(spec, 100)
    assert value100 == pytest.approx(15.118680070657573, rel=1e-15)
    by_n = dict(records100)
    # 4 * 81 + 1 = 325 = 5^2 * 13 contributes nothing.
    assert by_n[9] == 0.0
    assert by_n[1] == math.log(5) and by_n[3] == math.log(37)

    spec21 = identity.check_admissible(2, 1)
    single, _ = identity.lhs_quadratic_psi(spec21, 1)
    assert single == pytest.approx(math.log(3), rel=1e-15)


def test_lhs_rejects_inadmissible_and_overflow():
    with pytest.raises(ValueError):
        identity.lhs_quadratic_psi(identity.check_admissible(3, 3), 16)
    wide = identity.check_admissible(2**40, 1)
    with pytest.raises(OverflowError):
        identity.lhs_quadratic_psi(wide, 2**25)


def test_rhs_exact_exceeds_lhs_by_reciprocal_phi():
    # The linear expansion reproduces each lhs weight with coefficient
    # (phi(N) + 1) / phi(N) instead of 1: the dropped diagonal term of the
    # alternating Ramanujan sum leaves a +1 residue at every odd square.
    for q, a in ((4, 1), (3, 2)):
        spec = identity.check_admissible(q, a)
        ctx = identity.make_context(16)
        lhs, _ = identity.lhs_quadratic_psi(spec, 16)
        rhs_exact, rhs_float = identity.rhs_linear_expansion(spec, ctx)
        assert rhs_exact == pytest.approx(lhs * (1 + 1 / 16), rel=1e-14), (q, a)
        assert rhs_float == pytest.approx(rhs_exact, abs=1e-6)


def test_rhs_float_path_agreement_at_100():
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(100)
    rhs_exact, rhs_float = identity.rhs_linear_expansion(spec, ctx)
    assert rhs_float is not None
    assert abs(rhs_float - rhs_exact) < 1e-6


def test_rhs_float_path_capacity():
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(10404)
    rhs_exact, rhs_float = identity.rhs_linear_expansion(spec, ctx)
    assert rhs_float is None and rhs_exact > 0


def test_rhs_float_route_skips_oversized_tables(monkeypatch):
    # N = 3.7e8 passes the work cap with 7.5e8 terms, but its transforms
    # would need about 15 GB; the route must be skipped before either runs.
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(4, "inflated", 15.0)
    assert ctx.N > identity.FLOAT_TABLE_CAP
    assert 2 * ctx.floor_sqrt_x * arith.euler_phi(ctx.N) <= identity.FLOAT_WORK_CAP

    def refuse(*args, **kwargs):
        raise AssertionError("float-route transform run")

    monkeypatch.setattr(np.fft, "fft", refuse)
    monkeypatch.setattr(np.fft, "ifft", refuse)
    rhs_exact, rhs_float = identity.rhs_linear_expansion(spec, ctx)
    assert rhs_float is None and rhs_exact > 0


def test_rhs_float_path_memory_is_bounded():
    # x = 256 has about 1M terms in the literal sum; the float route holds
    # a few N-long arrays (N = 514) and no term.
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(256)
    tracemalloc.start()
    try:
        _, rhs_float = identity.rhs_linear_expansion(spec, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rhs_float is not None
    assert peak < 2 * 2**20, peak


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rhs_float_path_memory_at_large_N():
    # x = 16 with N = 200,302: the bins (8 N bytes), the transforms'
    # complex arrays and F (16 N each) are the float route's only N-long
    # arrays; about 41 N bytes at the peak on numpy 2.4.
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(16, "inflated", 5.25)
    assert ctx.N > 2 * 10**5
    peak = _traced_peak(lambda: identity.rhs_linear_expansion(spec, ctx))
    assert peak < 48 * ctx.N, peak


def test_rhs_float_path_at_the_table_cap():
    # N = 996,878, just under FLOAT_TABLE_CAP: the transforms' float value
    # lies within criterion 4's 1e-6 of the exact path, with about 41 N
    # bytes of traced arrays (numpy's FFT work buffers are not traced).
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(4, "inflated", 9.965)
    assert 0.99 * identity.FLOAT_TABLE_CAP < ctx.N <= identity.FLOAT_TABLE_CAP
    results = []
    peak = _traced_peak(lambda: results.append(identity.rhs_linear_expansion(spec, ctx)))
    rhs_exact, rhs_float = results[0]
    assert abs(rhs_float - rhs_exact) < 1e-6
    assert peak < 48 * ctx.N, peak


def test_rhs_exact_path_holds_no_more_than_its_sieve():
    # At x = 1e6, N = 2p > FLOAT_TABLE_CAP skips the float route, so the
    # expansion streams its terms and keeps no (n, Lambda) pair per n.
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(10**6)
    assert ctx.N > identity.FLOAT_TABLE_CAP
    sieve_peak = _traced_peak(lambda: deque(sieve.linear_lambda(spec, ctx.x), maxlen=0))
    results = []
    expansion_peak = _traced_peak(lambda: results.append(identity.rhs_linear_expansion(spec, ctx)))
    assert results[0][1] is None
    assert expansion_peak - sieve_peak < 1.5 * 2**20, (expansion_peak, sieve_peak)


def test_main_term_holds_no_more_than_its_sieve():
    # At x = 1e6, eight sieve segments: M0 and M1 come from one pass that
    # keeps only the point n's terms, at most R / 2 of each.
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(10**6)
    sieve_peak = _traced_peak(lambda: deque(sieve.lambda_segments(spec, ctx.x), maxlen=0))
    main_peak = _traced_peak(lambda: identity.main_term_decomposition(spec, ctx, strict=False))
    assert main_peak - sieve_peak < 1.5 * 2**20, (main_peak, sieve_peak)


def test_rhs_float_is_correctly_rounded_sum_of_every_term():
    # The oracle must round the exact sum of all its terms once: plain
    # left-to-right addition of the same terms gives different low bits.
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(64)
    N, R = ctx.N, ctx.floor_sqrt_x
    roots = [cmath.exp(2j * math.pi * k / N) for k in range(N)]
    units = [u for u in range(1, N) if math.gcd(u, N) == 1]
    terms: list[float] = []
    for n in range(1, ctx.x + 1, 2):
        lw = arith.von_mangoldt(4 * n + 1)
        terms += [lw * roots[(s * s - n) * u % N].real for s in range(1, R + 1) for u in units]
    rhs_float = float_oracle.rhs_float(spec, ctx)
    assert rhs_float.hex() == (math.fsum(terms) / len(units)).hex()


def test_rhs_float_route_reads_the_sieve_the_exact_pass_cached():
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(1024)
    sieve._one_segment_lambda.cache_clear()
    rhs_exact, rhs_float = identity.rhs_linear_expansion(spec, ctx)
    oracle_float = float_oracle.rhs_float(spec, ctx)
    assert sieve._one_segment_lambda.cache_info().misses == 1
    assert (rhs_exact.hex(), oracle_float.hex()) == ("0x1.da4b6ce94a063p+4", "0x1.da4b6ce949ef6p+4")
    assert rhs_float == pytest.approx(oracle_float, rel=1e-11)


def _float_configs() -> list[tuple[int, int, int, str]]:
    # Every pair at x = r^2 for even r = 4 .. 20, in both regimes, and
    # (4, 1) at 1024 and 1296: 128 configurations.
    pairs = verification.IDENTITY_PAIRS + ((2, 3), (6, 1))
    configs = [(q, a, r * r, regime) for regime in ("minimal", "inflated")
               for q, a in pairs for r in range(4, 21, 2)]
    return configs + [(4, 1, 1024, "minimal"), (4, 1, 1296, "minimal")]


@functools.lru_cache(maxsize=1)
def _oracle_floats() -> tuple[float, ...]:
    return tuple(float_oracle.rhs_float(identity.check_admissible(q, a),
                                        identity.make_context(x, regime))
                 for q, a, x, regime in _float_configs())


def test_rhs_float_keeps_its_bits():
    # The oracle's value on every configuration, pinned as the term-by-term
    # math.fsum route gave them: counting the indices must not move a single
    # ulp.
    lines = [f"{q},{a},{x},{regime}:{value.hex()}"
             for (q, a, x, regime), value in zip(_float_configs(), _oracle_floats())]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest[:16] == "b067e0e7bd75798c"


def test_rhs_float_agrees_with_the_oracle():
    # The transforms' bits may depend on the numpy version, so the library's
    # float value is held to the oracle by tolerance only.
    for (q, a, x, regime), expected in zip(_float_configs(), _oracle_floats()):
        spec = identity.check_admissible(q, a)
        _, rhs_float = identity.rhs_linear_expansion(spec, identity.make_context(x, regime))
        assert rhs_float == pytest.approx(expected, rel=1e-11, abs=0), (q, a, x, regime)


def _unit_sum_mismatches(x: int, regime: str) -> list[tuple[str, int]]:
    # (point set, n) wherever the rounded transform differs from shift_sums'
    # full at an odd n <= x, for the three point sets the suites read: the
    # squares, the window s <= R and the error term's divisor weights.
    ctx = identity.make_context(x, regime)
    R = ctx.floor_sqrt_x
    point_sets = {"squares": [(1, s * s) for s in range(1, R + 1)],
                  "window": [(1, s) for s in range(1, R + 1)],
                  "divisors": identity.divisor_weights(R)}
    mismatches = []
    for name, points in point_sets.items():
        odd = identity._unit_sums(ctx, points)[1:x + 1:2]
        rounded = np.round(odd.real)
        assert np.abs(odd - rounded).max() < 1e-6, (name, x, regime)
        shift_sum = ramanujan.shift_sums(ctx, points)
        mismatches += [(name, n) for n, value in zip(range(1, x + 1, 2), rounded.tolist())
                       if value != shift_sum(n)[0]]
    return mismatches


def test_transform_confirms_the_three_class_argument():
    # shift_sums reads c_N at the three gcd classes 1, 2 and 2p; the
    # transform sums the exponential sums over the units with neither.
    xs = [x for x in range(16, 401) if math.isqrt(x) % 2 == 0]
    for regime in ("minimal", "inflated"):
        for x in xs:
            assert _unit_sum_mismatches(x, regime) == [], (x, regime)
    assert _unit_sum_mismatches(10**4, "minimal") == []


@pytest.mark.parametrize("broken_gcd", [1, 2])
def test_transform_catches_a_broken_class_value(broken_gcd, monkeypatch, cold_ramanujan_memos):
    # c_N off by one at gcd 1 or at gcd 2 shows in all three point sets.
    closed_value = ramanujan._closed_value
    monkeypatch.setattr(ramanujan, "_closed_value",
                        lambda q, d: closed_value(q, d) + (d == broken_gcd))
    mismatches = _unit_sum_mismatches(100, "minimal")
    assert {name for name, _ in mismatches} == {"squares", "window", "divisors"}


def _near_power_of_two(exponent: int, steps: int, negative: bool) -> float:
    value = math.ldexp(1.0, exponent)
    for _ in range(abs(steps)):
        value = math.nextafter(value, 0.0 if steps < 0 else math.inf)
    return -value if negative else value


@needs_hypothesis
def test_split_times_any_multiplicity_is_exact():
    # |v| <= 2**996 keeps v * m finite for every m < 2**26.
    values = st.one_of(
        st.floats(-(2.0**996), 2.0**996, allow_nan=False),
        st.builds(_near_power_of_two, st.integers(-1074, 995), st.integers(-3, 3), st.booleans()),
        st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308]),
    )

    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(values, st.integers(1, float_oracle._SPLIT_LIMIT - 1))
    @example(math.nextafter(2.0, 0.0), float_oracle._SPLIT_LIMIT - 1)
    @example(-math.nextafter(2.0**-1022, 0.0), float_oracle._SPLIT_LIMIT - 1)
    def check(v: float, m: int) -> None:
        hi, lo = float_oracle._split(np.array([v]))
        weight = np.float64(m)
        assert Fraction(float(hi[0] * weight)) + Fraction(float(lo[0] * weight)) == Fraction(v) * m

    check()


def test_rhs_float_refuses_a_multiplicity_past_the_split(monkeypatch):
    # At x = 16, n = 1 = 1^2 has weight ln 5, and its s = 1 shift sends all
    # phi(N) = 16 units to index 0: a limit of 16 must stop the oracle.
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(16)
    assert arith.euler_phi(ctx.N) == 16
    monkeypatch.setattr(float_oracle, "_SPLIT_LIMIT", 16)
    with pytest.raises(PrecisionError, match="multiplicity"):
        float_oracle.rhs_float(spec, ctx)


def _literal_counts(N: int, R: int, n: int) -> np.ndarray:
    units = np.array([u for u in range(1, N) if math.gcd(u, N) == 1], dtype=np.int64)
    shifts = np.arange(1, R + 1, dtype=np.int64) ** 2 - n
    return np.bincount((shifts[:, None] * units % N).ravel(), minlength=N)


@pytest.mark.parametrize("x, regime, block", [
    (16, "minimal", None), (100, "inflated", None), (256, "minimal", None),
    (196, "inflated", None), (1024, "minimal", None), (100, "inflated", 1000),
])
def test_folded_histogram_counts_every_index_literally(x, regime, block, monkeypatch):
    # Every odd n <= x, against np.bincount((s^2 - n) u % N); a block of
    # 1000 entries gives each of the 10 rows its own bincount (phi(N) = 856).
    if block:
        monkeypatch.setattr(float_oracle, "_FLOAT_BLOCK", block)
    ctx = identity.make_context(x, regime)
    N, R = ctx.N, ctx.floor_sqrt_x
    table, units = float_oracle._index_table(N, R)
    assert table.dtype == np.int32 and table.shape == (R, arith.euler_phi(N))
    assert N <= table.min() and table.max() < 2 * N
    for n in range(1, x + 1, 2):
        assert np.array_equal(float_oracle._index_counts(table, units, N, n),
                              _literal_counts(N, R, n)), n


def test_folded_histogram_at_a_large_floor_sqrt():
    # R = 100, N = 20014: a million-entry table over four bincounts, past
    # the float path's work cap but not the histogram's arithmetic.
    ctx = identity.make_context(10**4)
    N, R = ctx.N, ctx.floor_sqrt_x
    table, units = float_oracle._index_table(N, R)
    assert table.size > 3 * float_oracle._FLOAT_BLOCK
    for n in (1, 3, 2401, 5001, 9801, 9999):
        assert np.array_equal(float_oracle._index_counts(table, units, N, n),
                              _literal_counts(N, R, n)), n


def test_float_route_histograms_once_per_n_in_int32(monkeypatch):
    # One oracle histogram per weighted n feeds both parts, and every index
    # array it counts is int32 within (0, 2N), whatever numpy's promotion
    # rules.
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(1024)
    counted = []
    bincount = np.bincount

    def spy(indices, weights=None, minlength=0):
        if minlength == 2 * ctx.N:
            counted.append((indices.dtype, int(indices.min()), int(indices.max()), minlength))
        return bincount(indices, weights, minlength)

    monkeypatch.setattr(float_oracle.np, "bincount", spy)
    rhs_float = float_oracle.rhs_float(spec, ctx)
    assert rhs_float.hex() == "0x1.da4b6ce949ef6p+4"
    weighted = sum(1 for _ in sieve.linear_lambda(spec, ctx.x))
    assert len(counted) == weighted == 146
    for dtype, least, most, _ in counted:
        assert dtype == np.int32 and 0 < least and most < 2 * ctx.N


def test_rhs_exact_matches_square_indicator_route_on_default_grid():
    for q, a in verification.IDENTITY_PAIRS:
        spec = identity.check_admissible(q, a)
        for x in verification.IDENTITY_X_VALUES:
            ctx = identity.make_context(x)
            expected = math.fsum(
                arith.von_mangoldt(q * n + a)
                * float(indicator.square_char_exp_value(ctx, n))
                for n in range(1, x + 1, 2)
            )
            rhs_exact, _ = identity.rhs_linear_expansion(spec, ctx)
            assert rhs_exact == expected, (q, a, x)


def test_rhs_rejects_odd_floor_context():
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(9)
    with pytest.raises(ValueError, match="nearest valid x is 8"):
        identity.rhs_linear_expansion(spec, ctx)


def test_main_term_frozen_values():
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(16)
    M0, M1 = identity.main_term_decomposition(spec, ctx, strict=False)
    assert M0 == pytest.approx(math.log(5) + math.log(13), rel=1e-15)
    # The off-diagonal reduces to exactly one surviving +1 per diagonal term,
    # so M1 = M0 / phi(N) instead of the claimed 0.
    assert M1 == pytest.approx(M0 / 16, rel=1e-15)

    spec32 = identity.check_admissible(3, 2)
    ctx36 = identity.make_context(36)
    M0b, M1b = identity.main_term_decomposition(spec32, ctx36, strict=False)
    assert M0b == pytest.approx(math.log(5) + math.log(11) + math.log(17), rel=1e-15)
    assert M1b == pytest.approx(M0b / 36, rel=1e-15)


def test_main_term_strict_raises():
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(100)
    with pytest.raises(LemmaCounterexample) as info:
        identity.main_term_decomposition(spec, ctx, strict=True)
    assert info.value.check == "main-term-vanishing"
    assert info.value.expected == 0
    assert info.value.inputs == {"q": 4, "a": 1, "x": 100, "p": 101}
    assert info.value.actual > 0


def test_error_term_frozen_values():
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(16)
    E0, E1 = identity.error_term_decomposition(spec, ctx)
    assert E0 == pytest.approx(-math.log(13), rel=1e-15)
    assert E1 == pytest.approx(-math.log(13) / 16, rel=1e-15)

    spec32 = identity.check_admissible(3, 2)
    ctx36 = identity.make_context(36)
    E0b, E1b = identity.error_term_decomposition(spec32, ctx36)
    assert E0b == pytest.approx(-(math.log(11) + math.log(17)), rel=1e-15)
    assert E1b == pytest.approx(E0b / 36, rel=1e-14)

    spec21 = identity.check_admissible(2, 1)
    ctx100 = identity.make_context(100)
    E0c, E1c = identity.error_term_decomposition(spec21, ctx100)
    assert E0c == pytest.approx(-4.3438054219, abs=1e-9)
    assert E1c == pytest.approx(-1.0426670601, abs=1e-9)


def test_error_term_vanishes_below_first_odd_pair():
    # At x = 4 the only pair is d = 2, m = 1, whose product is even.
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(4)
    E0, _ = identity.error_term_decomposition(spec, ctx)
    assert E0 == 0.0


def test_error_term_reconciles_with_direct_route():
    for q, a, x in ((4, 1, 16), (3, 2, 36), (2, 1, 100), (8, 3, 144)):
        spec = identity.check_admissible(q, a)
        ctx = identity.make_context(x)
        E0, E1 = identity.error_term_decomposition(spec, ctx)
        total = identity.error_term_total(spec, ctx)
        assert abs((E0 + E1) - total) < 1e-12, (q, a, x)


def test_divisor_weights_equal_the_square_indicator_minus_one():
    # The sum of liouville(d) over all d | s is [s is a square], so the
    # d > 1 part is that minus 1; the route adds the divisors literally.
    R = 3000
    expected = [(w, s) for s in range(1, R + 1) if (w := int(math.isqrt(s) ** 2 == s) - 1)]
    assert identity.divisor_weights(R) == expected
    assert identity.divisor_weights(1) == []


def test_error_term_capacity_cap():
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(10404)  # 102**2, keeps floor(sqrt(x)) even
    with pytest.raises(CapacityError):
        identity.error_term_decomposition(spec, ctx)
    with pytest.raises(CapacityError):
        identity.error_term_total(spec, ctx)


def test_exact_paths_keep_their_bits():
    # Every exact-path float on the default grid and at the error-term cap,
    # pinned bit for bit: a rewrite of these paths must not move a single ulp.
    configs = [(q, a, x) for q, a in verification.IDENTITY_PAIRS
               for x in verification.IDENTITY_X_VALUES]
    configs += [(q, a, identity.ERROR_TERM_X_CAP) for q, a in verification.IDENTITY_PAIRS]
    lines = []
    for q, a, x in configs:
        spec = identity.check_admissible(q, a)
        ctx = identity.make_context(x)
        lhs, _ = identity.lhs_quadratic_psi(spec, x)
        rhs_exact, _ = identity.rhs_linear_expansion(spec, ctx)
        M0, M1 = identity.main_term_decomposition(spec, ctx, strict=False)
        E0, E1 = identity.error_term_decomposition(spec, ctx)
        total = identity.error_term_total(spec, ctx)
        hexes = [v.hex() for v in (lhs, rhs_exact, M0, M1, E0, E1, total)]
        lines.append(f"{q},{a},{x}:" + ",".join(hexes))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest[:16] == "b6f73d7bbac3038d"


# The default grid's pairs, two more with q + a > 1 and three with a < 0,
# whose q n + a is 1 at n = 1.
ORACLE_PAIRS = verification.IDENTITY_PAIRS + ((2, 3), (6, 1), (2, -1), (4, -3), (6, -5))


def _strict_outcome(main_term) -> tuple:
    try:
        main_term()
    except LemmaCounterexample as exc:
        return exc.check, exc.inputs, exc.expected, exc.actual.hex()
    return ()


def _exact_bits(spec, ctx) -> tuple[list[str], tuple]:
    rhs_exact, _ = identity.rhs_linear_expansion(spec, ctx)
    M0, M1 = identity.main_term_decomposition(spec, ctx, strict=False)
    E0, E1 = identity.error_term_decomposition(spec, ctx)
    total = identity.error_term_total(spec, ctx)
    strict = _strict_outcome(lambda: identity.main_term_decomposition(spec, ctx, strict=True))
    return [v.hex() for v in (rhs_exact, M0, M1, E0, E1, total)], strict


def _oracle_bits(spec, ctx) -> tuple[list[str], tuple]:
    M0, M1 = exact_oracle.main_term(spec, ctx, strict=False)
    E0, E1 = exact_oracle.error_term(spec, ctx)
    values = (exact_oracle.rhs_exact(spec, ctx), M0, M1, E0, E1, exact_oracle.error_total(spec, ctx))
    strict = _strict_outcome(lambda: exact_oracle.main_term(spec, ctx, strict=True))
    return [v.hex() for v in values], strict


def _exact_mismatches(contexts) -> list[tuple[int, int, int, int]]:
    # (q, a, x, p) of every pair and context where the class sums and the
    # per-n loop differ in any bit or in how strict M1 raises.
    return [(q, a, ctx.x, ctx.p) for ctx in contexts for q, a in ORACLE_PAIRS
            if _exact_bits(spec := identity.check_admissible(q, a), ctx) != _oracle_bits(spec, ctx)]


@pytest.mark.parametrize("regime", ["minimal", "inflated"])
def test_exact_paths_equal_the_per_n_loop(regime):
    xs = [x for x in range(4, 401) if math.isqrt(x) % 2 == 0]
    assert _exact_mismatches(identity.make_context(x, regime) for x in xs) == []


def test_exact_paths_equal_the_per_n_loop_past_2_53():
    ctx = identity.make_context(16, "inflated", 21.0)
    assert ctx.p > 2**53
    assert _exact_mismatches([ctx]) == []


@pytest.mark.parametrize("broken_gcd", [1, 2])
def test_exact_paths_equal_the_per_n_loop_off_the_points(broken_gcd, monkeypatch,
                                                         cold_ramanujan_memos):
    # c_N off by one at gcd 1 or at gcd 2 gives every class of odd n off the
    # points a nonzero factor, so every weighted n is read; segments of 8
    # odd n put the points in many segments.
    closed_value = ramanujan._closed_value
    monkeypatch.setattr(ramanujan, "_closed_value",
                        lambda q, d: closed_value(q, d) + (d == broken_gcd))
    contexts = [identity.make_context(x) for x in (4, 16, 100, 400)]
    assert _exact_mismatches(contexts) == []
    monkeypatch.setattr(sieve, "SEGMENT_LENGTH", 8)
    sieve._one_segment_lambda.cache_clear()
    try:
        assert _exact_mismatches(contexts) == []
    finally:
        sieve._one_segment_lambda.cache_clear()


def test_exact_paths_equal_the_per_n_loop_across_segments(monkeypatch):
    # Segments of 8 odd n: the points fall in many segments, and the
    # segments' ends cut between them.
    monkeypatch.setattr(sieve, "SEGMENT_LENGTH", 8)
    sieve._one_segment_lambda.cache_clear()
    try:
        assert _exact_mismatches(identity.make_context(x) for x in (16, 144, 400, 1024)) == []
    finally:
        sieve._one_segment_lambda.cache_clear()
