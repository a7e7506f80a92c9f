"""Arithmetic kernel against sympy on boundary-biased 64-bit inputs.

The Ramanujan closed form and divisor sum memoise each (q, d) value built
from mobius and euler_phi, so one wrong value would be replayed into every
later call; these tests check the kernel against an independent library.
The jacobi and prime_power_base tests are the oracle for any rewrite of
those two functions.
"""
from __future__ import annotations

from collections import Counter

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from quadprimes import arith  # noqa: E402

U64_MAX = 2**64 - 1

# Strong pseudoprimes and Carmichael numbers that sit on the Miller-Rabin
# witness tiers, plus the primes and composites at the top of the range.
HARD_CASES = (
    561, 41041, 2047, 1373653, 25326001, 3215031751, 2152302898747,
    3474749660383, 341550071728321, 3825123056546413051, 2**61 - 1, 2**61 + 1,
    arith.LARGEST_U64_PRIME, 4294967291**2, 4294967279 * 4294967291, U64_MAX,
)


def _near_power_of_two(k: int, delta: int) -> int:
    return min(U64_MAX, max(1, (1 << k) + delta))


def _u64(lo: int = 1) -> st.SearchStrategy[int]:
    return st.one_of(
        st.integers(lo, 2**16),
        st.integers(U64_MAX - 2**16, U64_MAX),
        st.builds(_near_power_of_two, st.integers(1, 64), st.integers(-64, 64)),
        st.sampled_from([n for n in HARD_CASES if n >= lo]),
        st.integers(lo, U64_MAX),
    )


def _factorint(n: int) -> tuple[int, dict[int, int]]:
    return n, sympy.factorint(n)


def _semiprime_near_2_32(a: int, b: int) -> tuple[int, dict[int, int]]:
    # Balanced semiprimes are the hardest 64-bit case for Pollard rho, and
    # sympy.factorint needs about 0.1 s for each, so sympy supplies the
    # primes and the product is checked against them.
    p, q = sympy.prevprime(a), sympy.prevprime(b)
    return p * q, dict(Counter((p, q)))


FACTORED = st.one_of(_u64().map(_factorint),
                     st.builds(_semiprime_near_2_32, st.integers(2**31, 2**32), st.integers(2**31, 2**32)))
DIFF = settings(deadline=None, derandomize=True, max_examples=100)


@DIFF
@given(_u64(lo=0))
def test_is_prime_matches_sympy(n):
    assert arith.is_prime(n) == sympy.isprime(n), n


@DIFF
@given(FACTORED)
def test_factorize_matches_sympy(case):
    n, expected = case
    assert arith.factorize(n) == tuple(sorted(expected.items())), n


@DIFF
@given(_u64())
def test_mobius_matches_sympy(n):
    assert arith.mobius(n) == sympy.mobius(n), n


@DIFF
@given(_u64())
def test_euler_phi_matches_sympy(n):
    assert arith.euler_phi(n) == sympy.totient(n), n


@DIFF
@given(st.one_of(_u64(lo=0), _u64().map(lambda a: -a)), _u64().map(lambda n: n | 1))
def test_jacobi_matches_sympy(a, n):
    assert arith.jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)


# Prime powers p**k at the top of the 64-bit range; 65537**4 lies just
# above 2**64.
PRIME_POWERS = ((2, 61), (3, 40), (251, 8), (257, 7), (65537, 4), (4294967291, 2))


def _prime_power(p: int, k: int) -> int:
    while k > 1 and p**k > U64_MAX:
        k -= 1
    return p**k


def _expected_prime_power_base(n: int):
    if n < 2:
        return None
    if sympy.isprime(n):
        return (n, 1)
    power = sympy.perfect_power(n)
    if power and sympy.isprime(power[0]):
        return power
    return None


@pytest.mark.parametrize("p, k", PRIME_POWERS)
def test_prime_power_base_at_top_of_range(p, k):
    assert arith.prime_power_base(p**k) == _expected_prime_power_base(p**k) == (p, k)


@DIFF
@given(st.one_of(
    _u64(lo=0),
    st.builds(_prime_power, st.sampled_from(list(sympy.primerange(2, 1000))), st.integers(2, 63)),
    st.builds(lambda b, k: min(U64_MAX, b**k), st.integers(2, 2**16), st.integers(2, 8)),
))
def test_prime_power_base_matches_sympy(n):
    assert arith.prime_power_base(n) == _expected_prime_power_base(n), n
