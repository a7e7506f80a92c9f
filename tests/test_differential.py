"""Arithmetic kernel against sympy on boundary-biased 64-bit inputs.

The Ramanujan closed form and divisor sum memoise each (q, d) value built
from mobius and euler_phi, so one wrong value would be replayed into every
later call; these tests check the kernel against an independent library.
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
    assert dict(arith.factorize(n).factors) == expected, n


@DIFF
@given(_u64())
def test_mobius_matches_sympy(n):
    assert arith.mobius(n) == sympy.mobius(n), n


@DIFF
@given(_u64())
def test_euler_phi_matches_sympy(n):
    assert arith.euler_phi(n) == sympy.totient(n), n
