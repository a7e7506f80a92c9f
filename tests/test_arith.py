"""Arithmetic kernel checked against slow trial-division oracles."""
from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

import float_oracle
from quadprimes import arith, identity

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:
    st = None

needs_hypothesis = pytest.mark.skipif(st is None, reason="hypothesis is not installed")


def _is_prime_slow(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _factor_slow(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_is_prime_matches_trial_division_up_to_2000():
    for n in range(2001):
        assert arith.is_prime(n) == _is_prime_slow(n), n


def test_is_prime_handles_nonpositive():
    assert arith.is_prime(0) is False
    assert arith.is_prime(1) is False
    assert arith.is_prime(-7) is False


def test_is_prime_known_values():
    assert arith.is_prime(2**61 - 1)
    assert arith.is_prime(arith.LARGEST_U64_PRIME)
    assert not arith.is_prime(561)  # Carmichael
    assert not arith.is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert not arith.is_prime(2**61 + 1)


def test_no_prime_between_largest_u64_prime_and_word_boundary():
    for n in range(arith.LARGEST_U64_PRIME + 1, 2**64):
        assert not arith.is_prime(n)


def test_next_prime_above():
    assert arith.next_prime_above(1) == 2
    assert arith.next_prime_above(2) == 3
    assert arith.next_prime_above(16) == 17
    assert arith.next_prime_above(100) == 101
    assert arith.next_prime_above(89) == 97
    with pytest.raises(ValueError):
        arith.next_prime_above(0)
    with pytest.raises(OverflowError):
        arith.next_prime_above(arith.LARGEST_U64_PRIME)


def test_factorize_round_trips_small_range():
    for n in range(1, 1500):
        fac = arith.factorize(n)
        assert dict(fac) == _factor_slow(n), n
        assert math.prod(p**e for p, e in fac) == n
        assert [p for p, _ in fac] == sorted(p for p, _ in fac)


def test_factorize_random_64_bit_products():
    rng = random.Random(20240817)
    for _ in range(40):
        parts = [rng.randrange(2, 2**31) for _ in range(2)]
        n = parts[0] * parts[1]
        fac = arith.factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        assert all(arith.is_prime(p) for p, _ in fac)


def test_factorize_semiprime_with_large_factors():
    p, q = 2147483647, 2147483629  # both prime, product near 2**62
    assert arith.factorize(p * q) == ((q, 1), (p, 1))


def test_factorize_perfect_square_of_prime():
    p = 1000000007
    assert arith.factorize(p * p) == ((p, 2),)


def test_factorize_rejects_out_of_range():
    with pytest.raises(ValueError):
        arith.factorize(0)
    with pytest.raises(ValueError):
        arith.factorize(2**64)


def test_factorization_past_64_bits_is_refused_before_pollard_rho():
    # 2**64 + 1 = 274177 * 67280421310721 has no factor below the trial
    # bound, so its cofactor is a composite beyond the 64-bit contract.
    for function in (arith.mobius, arith.euler_phi, arith.liouville, arith.von_mangoldt):
        with pytest.raises(ValueError, match="64-bit"):
            function(2**64 + 1)
    # Cofactors that are 1 or prime are still answered above 2**64.
    assert arith.mobius(2**64) == 0
    p = arith.LARGEST_U64_PRIME
    assert arith.euler_phi(2 * p) == p - 1


def test_prime_power_base():
    assert arith.prime_power_base(1) is None
    assert arith.prime_power_base(2) == (2, 1)
    assert arith.prime_power_base(8) == (2, 3)
    assert arith.prime_power_base(729) == (3, 6)
    assert arith.prime_power_base(12) is None
    assert arith.prime_power_base(2**61 - 1) == (2**61 - 1, 1)
    assert arith.prime_power_base(5**27) == (5, 27)


def test_prime_power_base_agrees_with_von_mangoldt_at_64_bit_edges():
    for n in (2**61, 2**62, 2**63, 3**40, 2**61 - 1):
        ((p, e),) = arith.factorize(n)
        assert arith.prime_power_base(n) == (p, e), n
        assert arith.von_mangoldt(n) == math.log(p), n


def test_prime_power_base_small_prime_gcd_rejects():
    # gcd with the product of the primes below 256 is a single prime, but
    # a cofactor remains.
    assert arith.prime_power_base(251 * 257) is None
    assert arith.prime_power_base(2 * (2**61 - 1)) is None
    assert arith.prime_power_base(5**20 * 257) is None
    for k in range(1, 25):
        # The gcd is 6 or 210, not a prime.
        assert arith.prime_power_base(6**k) is None, k
        if 210**k < 2**64:
            assert arith.prime_power_base(210**k) is None, k


def test_prime_power_base_powers_either_side_of_256():
    # 251 is the largest prime the gcd finds; 257 the smallest the root
    # probes must find, and 257**7 < 2**64 needs the exponent-7 probe.
    assert 257**7 < 2**64 < 257**8
    for k in range(2, 8):
        assert arith.prime_power_base(251**k) == (251, k), k
        assert arith.prime_power_base(257**k) == (257, k), k
        assert arith.prime_power_base(251**k * 257) is None, k
        assert arith.prime_power_base(257**k * 263) is None, k
    assert arith.prime_power_base(251**8) == (251, 8)


def test_prime_power_base_agrees_with_factorization_sweep():
    for n in range(2, 3000):
        fac = arith.factorize(n)
        expected = fac[0] if len(fac) == 1 else None
        assert arith.prime_power_base(n) == expected, n


def test_integer_root():
    assert arith.integer_root(26, 3) == 2
    assert arith.integer_root(27, 3) == 3
    assert arith.integer_root(10**18, 2) == 10**9
    assert arith.integer_root(2**128 - 1, 2) == 2**64 - 1
    assert arith.integer_root(2**128, 2) == 2**64
    big = 10**30
    assert arith.integer_root(big**5 - 1, 5) == big - 1
    for n in range(1, 200):
        for k in (2, 3, 5):
            r = arith.integer_root(n, k)
            assert r**k <= n < (r + 1) ** k


def test_multiplicative_functions_against_slow_oracle():
    for n in range(1, 600):
        fac = _factor_slow(n)
        mob = 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)
        assert arith.mobius(n) == mob, n
        phi = 1
        for p, e in fac.items():
            phi *= (p - 1) * p ** (e - 1)
        assert arith.euler_phi(n) == phi, n
        assert arith.liouville(n) == (-1) ** sum(fac.values()), n


def test_mobius_phi_tables_match_the_per_call_functions():
    mu, phi = arith.mobius_phi_tables(10**4)
    assert (mu.dtype, phi.dtype) == (np.int64, np.int64)
    assert mu.tolist() == [0] + [arith.mobius(n) for n in range(1, 10**4 + 1)]
    assert phi.tolist() == [0] + [arith.euler_phi(n) for n in range(1, 10**4 + 1)]
    for limit in (0, 1, 2, 4):
        assert [t.tolist() for t in arith.mobius_phi_tables(limit)] == [
            mu[:limit + 1].tolist(), phi[:limit + 1].tolist()]
    with pytest.raises(ValueError):
        arith.mobius_phi_tables(-1)


def test_von_mangoldt_structure():
    assert arith.von_mangoldt(8) == math.log(2)
    assert arith.von_mangoldt(1) == 0.0
    assert arith.von_mangoldt(6) == 0.0
    assert arith.von_mangoldt(97) == math.log(97)
    assert all(type(arith.von_mangoldt(n)) is float for n in (1, 6, 8, 97))
    with pytest.raises(ValueError):
        arith.von_mangoldt(0)


def test_chebyshev_psi_partial_sum():
    # psi(100) as ln(lcm(1..100)), an independent route to the same sum.
    lcm = 1
    for n in range(2, 101):
        lcm = lcm * n // math.gcd(lcm, n)
    psi = math.fsum(arith.von_mangoldt(n) for n in range(1, 101))
    assert psi == pytest.approx(math.log(lcm), rel=1e-12)


def test_jacobi_against_euler_criterion():
    for p in arith.primes_up_to(200):
        if p == 2:
            continue
        for a in range(0, p):
            euler = pow(a, (p - 1) // 2, p)
            expected = 0 if euler == 0 else (1 if euler == 1 else -1)
            assert arith.jacobi(a, p) == expected, (a, p)


def test_jacobi_multiplicative_in_top_argument():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 500) * 2 + 1
        a, b = rng.randrange(0, 1000), rng.randrange(0, 1000)
        assert arith.jacobi(a * b, n) == arith.jacobi(a, n) * arith.jacobi(b, n)


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        arith.jacobi(3, 10)
    with pytest.raises(ValueError):
        arith.jacobi(3, -5)


def test_primes_up_to_matches_trial_division():
    assert arith.primes_up_to(1) == []
    got = arith.primes_up_to(1000)
    assert got == [n for n in range(2, 1001) if _is_prime_slow(n)]
    assert arith.primes_up_to(29)[-1] == 29  # bound is inclusive


def test_iter_primes_matches_list_sieve():
    assert list(arith.iter_primes(7)) == [2, 3, 5, 7]
    assert list(arith.iter_primes(10**5)) == arith.primes_up_to(10**5)


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 10, 120, 121,
                                   arith.SEGMENT_SIZE + 1, 3 * arith.SEGMENT_SIZE + 5])
def test_prime_blocks_partition_the_list_sieve(limit):
    blocks = list(arith.prime_blocks(limit))
    assert all(block.dtype == np.int64 for block in blocks)
    flat = [p for block in blocks for p in block.tolist()]
    assert flat == arith.primes_up_to(limit)
    assert list(arith.iter_primes(limit)) == flat


def _plain_blocks(limit: int, primes: list[int], blocks: int) -> list[list[int]]:
    # The first `blocks` blocks of prime_blocks(limit), cut from the plain
    # sieve's primes (which reach at least that far): the primes up to
    # isqrt(limit), then one block per SEGMENT_SIZE numbers.
    root = math.isqrt(limit)
    out = [[p for p in primes if p <= root]]
    for start in range(root + 1, limit + 1, arith.SEGMENT_SIZE)[:blocks - 1]:
        stop = min(start + arith.SEGMENT_SIZE, limit + 1)
        out.append([p for p in primes if start <= p < stop])
    return out


def _wheel_blocks(limit: int, blocks: int) -> list[list[int]]:
    found = list(itertools.islice(arith.prime_blocks(limit), blocks))
    assert all(block.dtype == np.int64 for block in found)
    return [block.tolist() for block in found]


def test_prime_blocks_equal_the_plain_sieve_block_for_block_up_to_2000():
    # Every limit whose segment holds 2 or a wheel prime (root <= 13), and
    # every segment start against the wheel's phase up to 2000.
    primes = arith.primes_up_to(2000)
    for limit in range(2001):
        blocks = [] if limit < 2 else _plain_blocks(limit, primes, 2)
        assert _wheel_blocks(limit, 3) == blocks, limit


# Limits within 2 of k segment lengths, and within 2 of the limit whose k-th
# segment ends exactly at it (limit - isqrt(limit) = k SEGMENT_SIZE): the
# last segment is 1 to 3 numbers long or within 2 of a full one, after
# multiples carried across k - 1 boundaries.
SEGMENT_EDGE_LIMITS = sorted({
    edge + d
    for k in range(1, 5)
    for edge in (k * arith.SEGMENT_SIZE,
                 k * arith.SEGMENT_SIZE + math.isqrt(k * arith.SEGMENT_SIZE
                                                     + math.isqrt(k * arith.SEGMENT_SIZE)))
    for d in range(-2, 3)})


def test_prime_blocks_equal_the_plain_sieve_at_segment_edges():
    primes = arith.primes_up_to(SEGMENT_EDGE_LIMITS[-1])
    for limit in SEGMENT_EDGE_LIMITS:
        assert _wheel_blocks(limit, 6) == _plain_blocks(limit, primes, 6), limit


# Roots whose first segment starts within 3 of a multiple of 30,030: its
# first odd number is just before or just after the start of the wheel's
# 15,015-odd-number period, so its copy of the pattern runs to the pattern's
# end or starts at its beginning.  The first three blocks are checked.
PERIOD_EDGE_ROOTS = [30030 * j + d for j in (1, 2) for d in range(-4, 3)]


def test_prime_blocks_equal_the_plain_sieve_across_the_wheel_period():
    primes = arith.primes_up_to(PERIOD_EDGE_ROOTS[-1] + 2 * arith.SEGMENT_SIZE + 1)
    for root in PERIOD_EDGE_ROOTS:
        for limit in (root * root, root * root + 2 * root):  # isqrt(limit) == root
            assert _wheel_blocks(limit, 3) == _plain_blocks(limit, primes, 3), limit


def _exact_sum(values: list[float], pieces: list[int]) -> float:
    # Adds values to one of the float oracle's ExactSums in pieces of the
    # given lengths, cycling, with a piece of 1 after each round; empty
    # pieces are added too.
    total = float_oracle.ExactSum()
    start = 0
    for size in itertools.cycle(pieces + [1]):
        if start >= len(values):
            break
        total.add(np.array(values[start:start + size], dtype=np.float64))
        start += size
    return total.value()


def _same_sum(got: float, values: list[float]) -> bool:
    # An exact zero is +0.0 from ExactSum; math.fsum's sign of a zero sum
    # is no part of the correctly rounded value, so only that case compares
    # by ==.
    expected = math.fsum(values)
    return got == expected == 0.0 or got.hex() == expected.hex()


@needs_hypothesis
@pytest.mark.parametrize("batch", [3, float_oracle.EXACT_SUM_BATCH])
def test_exact_sum_rounds_like_fsum(batch, monkeypatch):
    # Subnormals, values near +-2**996 and mixed signs, sums that cancel to
    # zero or to a few ulps of their largest term, in pieces that cross
    # flush boundaries: a batch of 3 flushes at nearly every add.
    monkeypatch.setattr(float_oracle, "EXACT_SUM_BATCH", batch)
    scales = st.integers(-1074, 996)
    values = st.one_of(
        st.floats(-(2.0**996), 2.0**996, allow_nan=False),
        st.builds(lambda m, e: math.ldexp(m, e), st.floats(-1.0, 1.0), scales),
        st.floats(-(2.0**-1022), 2.0**-1022),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**996, -(2.0**996)]),
    )

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(st.lists(values, max_size=60), st.lists(st.integers(0, 9), min_size=1, max_size=4),
           st.booleans())
    @example([2.0**996, 1.0, -(2.0**996)], [1], False)
    @example([1.0, 2.0**-53, 2.0**-105], [3], False)
    @example([-0.0, -0.0], [1], False)
    @example([], [1], False)
    def check(values: list[float], pieces: list[int], cancel: bool) -> None:
        if cancel:
            values = values + [-v for v in reversed(values)] + values[:1]
        assert _same_sum(_exact_sum(values, pieces), values)

    check()


def test_exact_sum_across_many_flushes():
    rng = random.Random(3)
    values = [math.ldexp(rng.uniform(-1, 1), rng.randint(-1074, 996))
              for _ in range(3 * float_oracle.EXACT_SUM_BATCH + 5)]
    values += [-v for v in values[::2]] + [rng.gauss(0, 1) for _ in range(1000)]
    rng.shuffle(values)
    for pieces in ([1], [7, 5000], [len(values)]):
        assert _same_sum(_exact_sum(values, pieces), values), pieces


def test_exact_sum_bins_cannot_overflow_within_the_float_work_cap(monkeypatch):
    # A value adds at most 2**27 in magnitude to an int64 bin; the oracle
    # adds at most two values per term to each of its sums.
    assert float_oracle._EXACT_SUM_MAX_VALUES * 2**27 <= 2**62
    assert 2 * identity.FLOAT_WORK_CAP < float_oracle._EXACT_SUM_MAX_VALUES
    monkeypatch.setattr(float_oracle, "_EXACT_SUM_MAX_VALUES", 10)
    total = float_oracle.ExactSum()
    total.add(np.ones(10))
    assert total.value() == 10.0
    total.add(np.ones(1))
    with pytest.raises(OverflowError, match="at most 10 values"):
        total.value()


def test_characters_refuse_primes_past_the_int64_reach():
    # Past INT64_PRIME_MAX a product of two residues can leave int64.
    top = arith.INT64_PRIME_MAX
    assert top**2 <= 2**63 - 1 < (top + 1) ** 2
    past = np.array([3, arith.next_prime_above(top)], dtype=np.int64)
    for m in (-1, 2**40):  # with a class table and without
        with pytest.raises(ValueError, match="primes up to 3037000499"):
            arith.class_characters(m)(past)
