"""Counting runs, Euler products, and comparison tables."""
from __future__ import annotations

import bisect
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quadprimes import arith, asymptotics, cli, identity, sieve
from quadprimes.errors import CapacityError

try:
    from hypothesis import assume, example, given, settings, strategies as st
except ImportError:
    st = None

needs_hypothesis = pytest.mark.skipif(st is None, reason="hypothesis is not installed")

FIXTURE = Path(__file__).parent / "data" / "a002496_prefix.txt"


def _load_fixture() -> list[tuple[int, int]]:
    pairs = []
    for line in FIXTURE.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        n, prime = line.split()
        pairs.append((int(n), int(prime)))
    return pairs


def _spec(q: int, a: int) -> identity.PolynomialSpec:
    return identity.check_admissible(q, a)


def test_psi2_frozen_values():
    result = asymptotics.psi2_count(_spec(4, 1), 100)
    assert result.psi_value == pytest.approx(15.118680070657573, rel=1e-15)
    assert result.prime_count == 4
    assert result.n_max == 10
    assert result.hits is None

    single = asymptotics.psi2_count(_spec(4, 1), 1)
    assert single.psi_value == pytest.approx(math.log(5), rel=1e-15)
    assert single.prime_count == 1


def test_psi2_hit_collection():
    result = asymptotics.psi2_count(_spec(2, 3), 100, collect_hits=True)
    assert result.hits == (
        (1, 5, 5, 1),
        (5, 53, 53, 1),
        (7, 101, 101, 1),
    )
    assert result.prime_count == 3


def test_psi2_hit_bookkeeping_is_consistent():
    result = asymptotics.psi2_count(_spec(4, 1), 10**4, collect_hits=True)
    assert result.hits is not None
    for n, value, base, exponent in result.hits:
        assert 4 * n * n + 1 == value
        assert base**exponent == value
    assert result.prime_count <= len(result.hits)


def test_psi2_equals_identity_lhs_shared_grid():
    # Two independent routes to the same weighted count.
    for q, a in ((4, 1), (2, 1), (3, 2), (5, 2), (8, 3)):
        for x in (16, 36, 100, 144, 10**4):
            spec = _spec(q, a)
            lhs, _ = identity.lhs_quadratic_psi(spec, x)
            psi = asymptotics.psi2_count(spec, x).psi_value
            assert psi == pytest.approx(lhs, rel=1e-12), (q, a, x)


@pytest.mark.parametrize("q, a", [(1, -2), (2, -5), (1, -6), (4, -3), (2, -1)])
def test_psi2_equals_identity_lhs_where_f_dips_below_one(q, a):
    # With q + a < 1 some f(n) < 1, and q n + a < 1 at n = 1: every route
    # gives those n no weight.
    spec = _spec(q, a)
    assert spec.admissible
    for x in (10**2, 10**4, 10**6):
        lhs, records = identity.lhs_quadratic_psi(spec, x)
        assert lhs.hex() == asymptotics.psi2_count(spec, x).psi_value.hex(), (q, a, x)
        assert all(lw == 0.0 for n, lw in records if spec.value_at(n) < 2)
    assert identity.lhs_quadratic_psi(_spec(1, -2), 10**4)[0] == 170.31687017970205
    expected = math.fsum(math.log(pp[0]) for n in range(1, 11, 2)
                         if (pp := arith.prime_power_base(q * n + a)))
    assert asymptotics.linear_psi_odd(spec, 10)[0] == expected, (q, a)
    for x in (10**2, 10**4):
        # The criterion-4 discrepancy: the exact expansion measures
        # (1 + 1/phi(N)) times the quadratic sum, on these specs as on the grid.
        ctx = identity.make_context(x)
        lhs, _ = identity.lhs_quadratic_psi(spec, x)
        rhs_exact, _ = identity.rhs_linear_expansion(spec, ctx)
        ratio = 1 + 1 / arith.euler_phi(ctx.N)
        assert math.isclose(rhs_exact, ratio * lhs, rel_tol=1e-12), (q, a, x)


def test_linear_psi_odd_frozen():
    value, reference = asymptotics.linear_psi_odd(_spec(3, 2), 6)
    assert value == pytest.approx(math.log(5) + math.log(11) + math.log(17), rel=1e-15)
    assert reference == pytest.approx(3 * 6 / (2 * 2), rel=1e-15)

    single, _ = asymptotics.linear_psi_odd(_spec(4, 1), 1)
    assert single == pytest.approx(math.log(5), rel=1e-15)


def test_count_primes_poly_matches_vendored_fixture():
    pairs = _load_fixture()
    spec = identity.check_admissible(1, 1)
    result = asymptotics.count_primes_poly(spec, 126)
    assert result.hits is not None
    assert [(h[0], h[1]) for h in result.hits] == pairs
    assert result.prime_count == len(pairs)

    prefix = asymptotics.count_primes_poly(spec, 10)
    assert [h[1] for h in prefix.hits] == [2, 5, 17, 37, 101]
    assert prefix.prime_count == 5

    tiny = asymptotics.count_primes_poly(spec, 1)
    assert [h[1] for h in tiny.hits] == [2]


def test_count_primes_poly_general_spec():
    result = asymptotics.count_primes_poly(_spec(4, 1), 10)
    expected = [n for n in range(1, 11) if _is_prime_slow(4 * n * n + 1)]
    assert [h[0] for h in result.hits] == expected


@pytest.mark.parametrize("q, a", [(1, 1), (4, 1), (2, 1), (3, 3), (2, 2), (1, -4), (1, 0), (1, -2)])
@pytest.mark.parametrize("n_max", [1, 2, 10, 500, 10**4])
def test_count_primes_poly_matches_a_literal_loop(q, a, n_max):
    hits, logs = [], []
    for n in range(1, n_max + 1):
        value = q * n * n + a
        if value >= 2 and arith.is_prime(value):
            hits.append((n, value, value, 1))
            logs.append(math.log(value))
    result = asymptotics.count_primes_poly(_spec(q, a), n_max)
    assert result.hits == tuple(hits)
    assert result.prime_count == len(hits)
    assert result.psi_value.hex() == math.fsum(logs).hex()


def test_psi2_and_count_keep_their_bits():
    psi2 = asymptotics.psi2_count(_spec(4, 1), 10**10)
    assert psi2.psi_value.hex() == "0x1.0c2f0040816bfp+17"
    count = asymptotics.count_primes_poly(_spec(1, 1), 3 * 10**5)
    assert count.prime_count == 17924
    assert count.psi_value.hex() == "0x1.92836940917b3p+18"


def test_long_tally_holds_no_list_of_log_terms():
    # 100,000 hits: as a list their log terms alone would take over 3 MB.
    hits = ((n, 3, 3, 1) for n in range(1, 200_000, 2))
    tracemalloc.start()
    try:
        result = asymptotics._count_result(_spec(4, 1), 200_000, hits, collect=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.prime_count == 100_000
    assert result.psi_value.hex() == math.fsum([math.log(3)] * 100_000).hex()
    assert peak < 2**20, peak


# psi2 past the benchmark's scale, recorded with the per-value scan before
# the sieve took these scans over: (q, a, x) -> (psi_value.hex(), prime_count).
NEW_SCALE_PSI2 = {
    (4, 1, 10**11): ("0x1.a914176478955p+18", 17752),
    (4, 1, 10**12): ("0x1.4f05220696dc2p+20", 51140),
    (2, -1, 10**10): ("0x1.6b990695d8c3ep+17", 8663),
    (3, 2, 10**10): ("0x1.a5de023d6be6bp+16", 4929),
}


def test_psi2_and_compare_keep_their_bits_at_new_scales():
    for (q, a, x), expected in NEW_SCALE_PSI2.items():
        result = asymptotics.psi2_count(_spec(q, a), x)
        assert (result.psi_value.hex(), result.prime_count) == expected, (q, a, x)
    # sha256 of every row's x and float bits, recorded the same way.
    rows = asymptotics.compare_asymptotic(_spec(4, 1), 10**12, 64)
    text = repr([(r.x, r.psi2.hex(), r.conjectured.hex(), r.ratio.hex()) for r in rows])
    assert len(rows) == 63
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "e38ab2ef8be07cd1"


def _is_prime_slow(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_epsilon_factor():
    assert asymptotics.epsilon_factor(4) == 1
    assert asymptotics.epsilon_factor(3) == Fraction(1, 2)
    assert asymptotics.epsilon_factor(1) == Fraction(1, 2)
    with pytest.raises(ValueError):
        asymptotics.epsilon_factor(0)


def test_euler_product_hl_frozen_values():
    spec = identity.check_admissible(1, 1)
    report = asymptotics.bateman_horn_constant(spec, 10**6, "hl")
    assert report.estimate == pytest.approx(1.372810509780776, rel=1e-14)
    assert report.epsilon == Fraction(1, 2)
    assert report.trace[-1] == (999983, report.estimate)
    partials = dict(report.trace)
    assert partials[997] == pytest.approx(1.3704538437062832, rel=1e-14)
    assert partials[9973] == pytest.approx(1.3710225146423305, rel=1e-14)
    assert partials[99991] == pytest.approx(1.3723504822225634, rel=1e-14)

    tiny = asymptotics.bateman_horn_constant(spec, 3, "hl")
    assert tiny.estimate == pytest.approx(1.5, rel=1e-15)


def test_euler_product_paper_variant_frozen_values():
    spec11 = identity.check_admissible(1, 1)
    paper = asymptotics.bateman_horn_constant(spec11, 10**6, "paper")
    # Near 2/pi: the "paper" variant does not reproduce 1.37281346.
    assert paper.estimate == pytest.approx(0.6366184029201124, rel=1e-13)
    assert paper.estimate == pytest.approx(2 / math.pi, abs=1e-5)

    paper41 = asymptotics.bateman_horn_constant(_spec(4, 1), 10**6, "paper")
    assert paper41.estimate == pytest.approx(1.2732368058402248, rel=1e-13)
    assert paper41.epsilon == 1


def test_euler_product_hl_general_spec():
    hl41 = asymptotics.bateman_horn_constant(_spec(4, 1), 10**6, "hl")
    hl11 = asymptotics.bateman_horn_constant(identity.check_admissible(1, 1), 10**6, "hl")
    # -a*q is -4 vs -1: same quadratic character away from 2, and 2 | q only
    # contributes for p > 2, so the products coincide.
    assert hl41.estimate == pytest.approx(hl11.estimate, rel=1e-14)

    hl32 = asymptotics.bateman_horn_constant(_spec(3, 2), 10**6, "hl")
    assert hl32.estimate == pytest.approx(1.0696265953139652, rel=1e-13)


def test_euler_product_trace_shape():
    report = asymptotics.bateman_horn_constant(identity.check_admissible(1, 1), 5000, "hl")
    primes = [p for p, _ in report.trace]
    assert primes == sorted(primes)
    assert len(set(primes)) == len(primes)
    assert report.trace[-1][1] == report.estimate


def _scalar_euler_products(spec, cutoff):
    """Both variants' (estimate, trace), one arith.jacobi call and one
    multiplication per odd prime: the prime-by-prime loop the block route
    must reproduce bit for bit."""
    out = {}
    for variant in ("hl", "paper"):
        product = float(asymptotics.epsilon_factor(spec.q)) if variant == "paper" else 1.0
        trace = []
        marks = [10**k for k in range(1, 9) if 10**k <= cutoff]
        last_prime = 0
        for p in arith.iter_primes(cutoff):
            if p == 2:
                continue
            while marks and p > marks[0]:
                trace.append((last_prime, product))
                marks.pop(0)
            if spec.q % p == 0:
                factor = p / (p - 1)
            else:
                chi = arith.jacobi((-spec.a * spec.q) % p, p)
                factor = 1.0 - chi / p if variant == "paper" else 1.0 - chi / (p - 1)
            product *= factor
            last_prime = p
        if not trace or trace[-1][0] != last_prime:
            trace.append((last_prime, product))
        out[variant] = (product, trace)
    return out


def _bits(estimate, trace):
    return estimate.hex(), [(p, value.hex()) for p, value in trace]


# The character table of -a*q has 4|a q| entries and is built up to
# arith.SEGMENT_SIZE of them: (1, 2**15) sits at that bound and (1, 2**15 + 1)
# just past it.
EULER_SPECS = [(1, 1), (4, 1), (2, 1), (3, 2), (15, 2), (30, 7)] + [
    (q, a) for q in (1, 6) for a in (0, -1, -3, 10**29 + 1)
] + [(1, arith.SEGMENT_SIZE // 4), (1, arith.SEGMENT_SIZE // 4 + 1)]


@pytest.mark.parametrize("cutoff", [3, 10, 11, 97, 100, 10**4 + 7,
                                    arith.SEGMENT_SIZE - 1, arith.SEGMENT_SIZE + 1])
def test_euler_product_blocks_match_scalar_loop_bitwise(cutoff):
    for q, a in EULER_SPECS:
        spec = identity.check_admissible(q, a)
        expected = _scalar_euler_products(spec, cutoff)
        for variant in ("hl", "paper"):
            report = asymptotics.bateman_horn_constant(spec, cutoff, variant)
            assert _bits(report.estimate, report.trace) == _bits(*expected[variant]), (
                q, a, variant)


@needs_hypothesis
def test_both_readers_of_the_symbol_match_their_oracles():
    # The quadratic sieve's roots and the Euler products read the same
    # (-a q | p): coprime q + a odd, q + a < 1 among them, against the
    # per-value scan and the scalar loop of arith.jacobi.
    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(st.integers(1, 10**4), st.integers(-(10**4), 10**4), st.integers(1, 3000))
    @example(4, 9, 3000)
    @example(2, 9, 3000)
    @example(6, -5, 3000)
    @example(4, -9, 3000)
    def check(q, a, n_max):
        assume(math.gcd(q, a) == 1 and (q + a) % 2)
        spec = identity.check_admissible(q, a)
        fast = list(sieve.prime_power_values(spec, n_max))
        slow = list(asymptotics._per_value_hits(spec, n_max))
        assert fast == slow, (q, a, n_max)
        psi = next(asymptotics._tally(fast, [n_max]))[0]
        assert psi.hex() == math.fsum(math.log(p) for _, _, p, _ in slow).hex(), (q, a, n_max)
        expected = _scalar_euler_products(spec, 2000)
        for report in asymptotics.euler_products(spec, 2000, ("hl", "paper")):
            assert _bits(report.estimate, report.trace) == _bits(*expected[report.variant]), (
                q, a, report.variant)

    check()


def test_euler_product_carries_the_product_across_segments():
    spec = identity.check_admissible(1, 1)
    cutoff = 3 * arith.SEGMENT_SIZE
    assert sum(1 for _ in arith.prime_blocks(cutoff)) == 4
    expected = _scalar_euler_products(spec, cutoff)
    for variant in ("hl", "paper"):
        report = asymptotics.bateman_horn_constant(spec, cutoff, variant)
        assert _bits(report.estimate, report.trace) == _bits(*expected[variant]), variant


@pytest.mark.parametrize("cutoff", [10**4 + 7, 2 * arith.SEGMENT_SIZE + 1])
def test_one_pass_equals_one_convention_reports_bitwise(cutoff):
    for q, a in EULER_SPECS:
        spec = identity.check_admissible(q, a)
        both = asymptotics.euler_products(spec, cutoff, ("hl", "paper"))
        swapped = asymptotics.euler_products(spec, cutoff, ("paper", "hl"))
        assert both == swapped[::-1], (q, a)
        for report in both:
            assert report == asymptotics.bateman_horn_constant(spec, cutoff, report.variant), (
                q, a, report.variant)


# tracemalloc peak of one hl product of t^2 + 1 at cutoff 1e6, in a fresh
# process, before both conventions shared one pass.  Both in one pass peak at
# 934,782 bytes; without freeing each convention's arrays before the next
# one's, at 1,048,886.
EULER_PEAK_BOUND = 1_037_010


def test_both_conventions_keep_their_memory(cold_euler_memo):
    spec = _spec(1, 1)
    tracemalloc.start()
    try:
        reports = asymptotics.euler_products(spec, 10**6, ("hl", "paper"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [report.variant for report in reports] == ["hl", "paper"]
    assert peak < EULER_PEAK_BOUND, peak


def test_residues_and_characters_are_exact_for_unbounded_integers():
    primes = np.array(arith.primes_up_to(2000)[1:], dtype=np.int64)
    for m in (0, 1, -1, -4, 10**29 + 1, -(10**29 + 1), -(3**90), 2**200 + 7):
        residues = arith.residues(m, primes)
        assert residues.tolist() == [m % p for p in primes.tolist()], m
        characters = arith.characters(m, primes)
        assert characters.tolist() == [arith.jacobi(m % p, p) for p in primes.tolist()], m


# sha256 of the .hex() of estimate and trace, recorded before the class table
# of characters: the benchmark's products, past the scalar loop's cutoffs.
EULER_DIGESTS = {
    (1, 1, "hl", 10**6): "24c2f9eea6826654",
    (1, 1, "paper", 10**6): "61e6ed828d6af8a6",
    (4, 1, "hl", 10**6): "24c2f9eea6826654",
    (4, 1, "paper", 10**6): "2a5c40be0c202324",
    (2, 1, "hl", 10**6): "1cc43bce62cddcd8",
    (2, 1, "paper", 10**6): "6e46dc31bb803049",
    (3, 2, "hl", 10**6): "5d54f67f11883f40",
    (3, 2, "paper", 10**6): "6967407a01b6ceb4",
    (1, 1, "hl", 3 * 10**6): "f0576e1dd87ed3c4",
    (1, 1, "paper", 3 * 10**6): "bb61e9e90eba2213",
}


def test_euler_products_keep_their_bits_at_large_cutoffs():
    for (q, a, variant, cutoff), digest in EULER_DIGESTS.items():
        report = asymptotics.bateman_horn_constant(_spec(q, a), cutoff, variant)
        text = repr(_bits(report.estimate, report.trace))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, (q, a, variant, cutoff)


# The last three have 4|m| at arith.SEGMENT_SIZE, 4 above and 4 below it.
@pytest.mark.parametrize("m", [0, 1, -1, -4, -24, 10**29 + 1, -(3**90), -(arith.SEGMENT_SIZE // 4),
                               arith.SEGMENT_SIZE // 4 + 1, -(arith.SEGMENT_SIZE // 4 - 1)])
def test_class_characters_match_euler_criterion_and_jacobi(m, monkeypatch):
    real_euler = arith._euler_criterion
    passed = []

    def spy(m, primes):
        passed.extend(primes.tolist())
        return real_euler(m, primes)

    monkeypatch.setattr(arith, "_euler_criterion", spy)
    blocks = [block[block != 2] for block in arith.prime_blocks(2 * arith.SEGMENT_SIZE + 1000)]
    assert len(blocks) == 4
    for primes in blocks:
        got = arith.characters(m, primes).tolist()
        assert got == real_euler(m, primes).tolist(), m
        assert got == [arith.jacobi(m % p, p) for p in primes.tolist()], m
    period = 4 * abs(m)
    if 0 < period <= arith.SEGMENT_SIZE:
        # The table of p mod 4|m|, built by reciprocity, serves every prime.
        assert passed == [], m
    else:
        assert sorted(passed) == [p for primes in blocks for p in primes.tolist()], m


def test_euler_product_takes_each_class_once(monkeypatch, cold_euler_memo):
    real_characters, real_euler = arith.characters, arith._euler_criterion
    read, euler = [], []

    def characters(m, primes):
        read.extend(primes.tolist())
        return real_characters(m, primes)

    def spy(m, primes):
        euler.extend(primes.tolist())
        return real_euler(m, primes)

    monkeypatch.setattr(arith, "characters", characters)
    monkeypatch.setattr(arith, "_euler_criterion", spy)
    # -a*q = -1: every odd prime of the million reads one table of p mod 4,
    # built once by reciprocity; Euler's criterion runs on none of them.
    asymptotics.bateman_horn_constant(_spec(1, 1), 10**6, "hl")
    assert read == arith.primes_up_to(10**6)[1:]
    assert euler == [] and arith._character_table.cache_info().misses == 1
    # A period of 4 * (2**15 + 1) is past the bound: every odd prime runs it.
    asymptotics.bateman_horn_constant(_spec(1, arith.SEGMENT_SIZE // 4 + 1), 10**5, "hl")
    assert euler == arith.primes_up_to(10**5)[1:]
    assert arith._character_table.cache_info().misses == 1


def test_euler_straddle_guard_fires_at_first_offending_prime(monkeypatch, cold_euler_memo):
    real_characters, real_euler = arith.characters, arith._euler_criterion
    spec = identity.check_admissible(1, 1)
    euler = []

    def spy(m, primes):
        euler.extend(primes.tolist())
        return real_euler(m, primes)

    monkeypatch.setattr(arith, "_euler_criterion", spy)
    monkeypatch.setattr(arith, "characters", lambda m, primes: -real_characters(m, primes))
    with pytest.raises(ArithmeticError, match=r"^factor 0\.5 on wrong side of 1 at p=3$"):
        asymptotics.bateman_horn_constant(spec, 100, "hl")
    # A flip only past 1000 is caught in a later sieve block, at p = 1009.
    def flipped_late(m, primes):
        chi = real_characters(m, primes)
        return np.where(primes > 1000, -chi, chi)

    monkeypatch.setattr(arith, "characters", flipped_late)
    message = f"factor {1.0 + 1 / 1008} on wrong side of 1 at p=1009"
    with pytest.raises(ArithmeticError) as caught:
        asymptotics.bateman_horn_constant(spec, 10**4, "hl")
    assert str(caught.value) == message
    # The guard checks the hl factors of t^2 + 1, and the one pass that
    # yields the paper convention computes them too.
    with pytest.raises(ArithmeticError) as caught:
        asymptotics.bateman_horn_constant(spec, 10**4, "paper")
    assert str(caught.value) == message
    # -a q = -1: every flipped character was read from the table of p mod 4.
    assert euler == []


# Conventions a caller may ask for first, and the specs the memo is checked
# on: chi = (-4 | p), (-4 | p) with 2 | q, a prime 3 of q, and chi = 1.
CONVENTION_ORDERS = [("hl", "paper"), ("paper", "hl")]
MEMO_SPECS = [(1, 1), (4, 1), (3, 2), (1, -4)]


@pytest.mark.parametrize("q, a", MEMO_SPECS)
def test_memoised_pass_keeps_the_scalar_bits_in_any_order(q, a, cold_euler_memo):
    spec = _spec(q, a)
    cutoff = arith.SEGMENT_SIZE + 1
    expected = _scalar_euler_products(spec, cutoff)
    for order in CONVENTION_ORDERS:
        asymptotics._euler_pass.cache_clear()
        for variant in order:
            report = asymptotics.bateman_horn_constant(spec, cutoff, variant)
            assert _bits(report.estimate, report.trace) == _bits(*expected[variant]), (order, variant)
        asymptotics._euler_pass.cache_clear()
        reports = asymptotics.euler_products(spec, cutoff, order)
        assert [report.variant for report in reports] == list(order)
        for report in reports:
            assert _bits(report.estimate, report.trace) == _bits(*expected[report.variant]), order


@pytest.mark.parametrize("q, a", MEMO_SPECS)
def test_constant_command_keeps_the_scalar_bits(q, a, capsys, cold_euler_memo):
    cutoff = 10**4 + 7
    expected = _scalar_euler_products(_spec(q, a), cutoff)
    for variant, other in CONVENTION_ORDERS:
        asymptotics._euler_pass.cache_clear()
        code = cli.run(["constant", "--q", str(q), "--a", str(a), "--variant", variant,
                        "--cutoff", str(cutoff), "--output", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        # JSON floats carry 15 significant digits: the loop's value, so written.
        for got, want in [(payload["result"]["estimate"], expected[variant][0]),
                          (payload["diagnostics"]["comparison_estimate"], expected[other][0])]:
            assert got.hex() == json.loads(cli.render_json(want)).hex(), variant


def test_euler_pass_sieves_once_per_spec_and_cutoff(monkeypatch, cold_euler_memo):
    real_prime_blocks = arith.prime_blocks
    limits = []

    def spy(limit):
        limits.append(limit)
        return real_prime_blocks(limit)

    monkeypatch.setattr(arith, "prime_blocks", spy)
    spec = _spec(1, 1)
    hl = asymptotics.bateman_horn_constant(spec, 10**4, "hl")
    paper = asymptotics.bateman_horn_constant(spec, 10**4, "paper")
    assert limits == [10**4]
    assert asymptotics.euler_products(spec, 10**4, ("paper", "hl")) == (paper, hl)
    assert limits == [10**4]
    asymptotics.bateman_horn_constant(spec, 10**4 + 7, "hl")
    asymptotics.bateman_horn_constant(_spec(4, 1), 10**4, "hl")
    assert limits == [10**4, 10**4 + 7, 10**4]


def test_refused_euler_calls_cache_nothing(cold_euler_memo):
    spec = _spec(1, 1)
    for cutoff, variant, error in [(2, "hl", ValueError),
                                   (asymptotics.EULER_CUTOFF_MAX + 1, "hl", CapacityError),
                                   (100, "other", ValueError)]:
        with pytest.raises(error):
            asymptotics.euler_products(spec, cutoff, ("paper", variant))
        assert asymptotics._euler_pass.cache_info().currsize == 0, (cutoff, variant)
    report = asymptotics.bateman_horn_constant(spec, 100, "hl")
    assert _bits(report.estimate, report.trace) == _bits(*_scalar_euler_products(spec, 100)["hl"])
    assert asymptotics._euler_pass.cache_info().currsize == 1


def test_euler_product_rejects_bad_cutoff():
    spec = identity.check_admissible(1, 1)
    with pytest.raises(ValueError):
        asymptotics.bateman_horn_constant(spec, 2, "hl")
    with pytest.raises(CapacityError):
        asymptotics.bateman_horn_constant(spec, asymptotics.EULER_CUTOFF_MAX + 1, "hl")
    with pytest.raises(ValueError):
        asymptotics.bateman_horn_constant(spec, 100, "other")


def test_compare_asymptotic_single_row():
    rows = asymptotics.compare_asymptotic(_spec(4, 1), 100, 1, cutoff=10**5)
    assert len(rows) == 1
    row = rows[0]
    assert row.x == 100
    assert row.psi2 == pytest.approx(15.118680070657573, rel=1e-14)
    assert row.ratio == pytest.approx(row.psi2 / row.conjectured, rel=1e-15)


def test_compare_asymptotic_geometric_spacing():
    rows = asymptotics.compare_asymptotic(_spec(2, 1), 10**6, 6, cutoff=10**4)
    xs = [row.x for row in rows]
    assert xs == [10, 100, 1000, 10**4, 10**5, 10**6]
    for row in rows:
        assert row.conjectured > 0
        assert row.ratio == pytest.approx(row.psi2 / row.conjectured, rel=1e-15)


@pytest.mark.parametrize("x_max, steps", [(100, 8), (50, 20), (10**4, 3), (10**6, 8), (10**7, 1)])
def test_compare_rows_equal_psi2_count_bitwise(x_max, steps):
    # Small x_max with many steps makes consecutive rows share isqrt(x).
    for q, a in ((4, 1), (2, 1), (3, 2), (8, 3)):
        spec = _spec(q, a)
        rows = asymptotics.compare_asymptotic(spec, x_max, steps, cutoff=100)
        assert rows[-1].x == x_max
        for row in rows:
            assert row.psi2.hex() == asymptotics.psi2_count(spec, row.x).psi_value.hex(), (
                q, a, row.x)
    roots = [math.isqrt(row.x) for row in asymptotics.compare_asymptotic(_spec(4, 1), 100, 8)]
    assert len(set(roots)) < len(roots)


def test_compare_rows_equal_prefix_fsums_bitwise():
    # About 2,000 rows over 1,700 hits: each row's running exact sum must
    # round as math.fsum over its whole prefix of log terms does.
    spec = _spec(4, 1)
    rows = asymptotics.compare_asymptotic(spec, 10**9, 3000, cutoff=100)
    hits = asymptotics.psi2_count(spec, 10**9, collect_hits=True).hits
    ns = [n for n, _, _, _ in hits]
    logs = [math.log(base) for _, _, base, _ in hits]
    assert len(rows) > 1000
    for row in rows:
        prefix = logs[: bisect.bisect_right(ns, math.isqrt(row.x))]
        assert row.psi2.hex() == math.fsum(prefix).hex(), row.x


@needs_hypothesis
def test_tally_rounds_like_fsum_at_every_checkpoint():
    # Prime bases over the whole 64-bit range, each row's value checked
    # against math.fsum over its prefix of log terms.
    base = st.integers(2, arith.LARGEST_U64_PRIME).map(lambda b: arith.next_prime_above(b - 1))
    edges = st.sampled_from([2, 3, 5, 2**31 - 1, 2**61 - 1, arith.LARGEST_U64_PRIME])

    @settings(deadline=None, derandomize=True, max_examples=300)
    @given(st.lists(st.tuples(st.one_of(base, edges), st.integers(1, 3)), max_size=60),
           st.lists(st.integers(0, 130), min_size=1, max_size=12))
    def check(terms: list[tuple[int, int]], checkpoints: list[int]) -> None:
        hits = [(2 * i + 1, p**k, p, k) for i, (p, k) in enumerate(terms)]
        n_maxes = sorted(checkpoints) + [2 * len(hits)]
        rows = list(asymptotics._tally(iter(hits), n_maxes))
        assert len(rows) == len(n_maxes)
        for n_max, (psi, primes) in zip(n_maxes, rows):
            prefix = [hit for hit in hits if hit[0] <= n_max]
            assert psi.hex() == math.fsum(math.log(hit[2]) for hit in prefix).hex(), n_max
            assert primes == sum(hit[3] == 1 for hit in prefix), n_max

    check()


def test_schedule_keeps_each_new_value_and_ends_at_x_max():
    # 4 ** (i / 5) for i = 1 .. 5 is 1.32, 1.74, 2.30, 3.03, 4: the 2 repeats.
    assert asymptotics._schedule(4, 5) == [1, 2, 3, 4]
    assert asymptotics._schedule(100, 4) == [3, 10, 32, 100]
    assert asymptotics._schedule(1, 3) == [1]
    # float(2**53 + 1) is 2**53; the last row is x_max itself.
    assert asymptotics._schedule(2**53 + 1, 1) == [2**53 + 1]


def test_compare_asymptotic_validation():
    with pytest.raises(ValueError):
        asymptotics.compare_asymptotic(_spec(4, 1), 100, 0)
    with pytest.raises(ValueError):
        asymptotics.compare_asymptotic(identity.check_admissible(3, 3), 100, 1)
