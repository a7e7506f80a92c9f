"""Segmented sieve over the values q*n + a of an arithmetic progression of n.

One engine factors a whole segment of values at once instead of one value at
a time (the segmented sieve of Bays and Hudson, BIT 17, 1977).  Over n = 1,
1 + step, ... <= x it walks the values q*n + a >= 1 in segments of
SEGMENT_LENGTH.  Each sieving prime p has a single root, the n with
q*n + a = 0 (mod p), so its hits in a segment are one stride.  At every hit
p is divided out completely.  Per value the engine records the distinct
primes found, one base prime and whether any of their exponents is odd, and
keeps the unfactored rest.

The sieving primes stop at the number of values in a segment, not at the
square root of the largest value, so a progression with a huge q stays
cheap.  A rest below (bound + 1)**2 with no sieved prime is prime and is
folded in; a larger one stays in `rest` for the reader to resolve.

Values are uint64 throughout, and every array the values meet is uint64
too, so no product wraps and nothing is promoted to float up to 2**64 - 1.

Two readers sit on the engine, and each keeps its per-value route as the
test oracle:

    linear_lambda(spec, x): Lambda(q n + a) for odd n <= x
        (per value: poly.lambda_weight)
    square_flags(limit): whether each n <= limit is a perfect square
        (per value: indicator.square_char_liouville)
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import Iterator

import numpy as np

from . import arith
from .poly import PolynomialSpec

# Values per segment.  A segment's arrays and those of its hits (about 2.5
# per value) peak near 10 MB, at any x.
SEGMENT_LENGTH = 1 << 16

# (start, distinct, base, odd, rest) for one segment: entry i is
# n = start + step * i.
Segment = tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _segments(q: int, a: int, x: int, step: int) -> Iterator[Segment]:
    """Factor q*n + a over n = 1, 1 + step, ... <= x where the value is >= 1.

    Yields per segment its first n and four arrays over its values:
    distinct (int64), the number of distinct sieved primes; base (uint64),
    one of them, or the folded prime rest; odd (bool), whether any of their
    exponents is odd; rest (uint64), the part no sieved prime divides, 1
    when fully factored.
    """
    start = max(1, -((a - 1) // q))  # smallest n with q*n + a >= 1
    start += -(start - 1) % step
    if x < start:
        return
    count = (x - start) // step + 1
    A, B = q * step, q * start + a  # value at index k is A*k + B
    if math.gcd(A, B) != 1:
        raise ValueError("the progression's values must share no common factor")
    length = min(count, SEGMENT_LENGTH)
    bound = min(math.isqrt(A * (count - 1) + B), length)
    prime_cap = (bound + 1) ** 2  # a rest below it with no sieved prime is prime
    primes = [p for p in arith.primes_up_to(bound) if A % p]
    p_arr = np.array(primes, dtype=np.int64)
    # first[i]: index of the next hit of primes[i], relative to this segment.
    first = np.array([-B * pow(A, -1, p) % p for p in primes], dtype=np.int64)
    shift = length % p_arr
    step_u64 = np.uint64(A if count > 1 else 0)  # A may pass 2**64 only when count == 1

    for k0 in range(0, count, length):
        size = min(length, count - k0)
        values = np.arange(k0, k0 + size, dtype=np.uint64) * step_u64 + np.uint64(B)
        hits = np.maximum((size - 1 - first) // p_arr + 1, 0)
        pos = np.repeat(first, hits)
        prime = np.repeat(p_arr, hits)
        pos += prime * (np.arange(pos.size) - np.repeat(np.cumsum(hits) - hits, hits))
        prime = prime.astype(np.uint64)

        # Divide each hit's prime out of its value completely.  A hit that
        # p does not divide would reach 0, which p divides forever.
        hit_values = values[pos]
        quotient = hit_values // prime
        if np.any(quotient * prime != hit_values):
            raise ArithmeticError("sieve root misses its prime")
        power = prime.copy()
        odd_hit = np.ones(pos.size, dtype=bool)
        deeper = np.flatnonzero(quotient % prime == 0)
        while deeper.size:
            quotient[deeper] //= prime[deeper]
            power[deeper] *= prime[deeper]
            odd_hit[deeper] ^= True
            deeper = deeper[quotient[deeper] % prime[deeper] == 0]

        distinct = np.bincount(pos, minlength=size)
        base = np.zeros(size, dtype=np.uint64)
        base[pos] = prime
        odd = np.zeros(size, dtype=bool)
        odd[pos[odd_hit]] = True
        found = np.ones(size, dtype=np.uint64)
        np.multiply.at(found, pos, power)
        rest = values // found

        prime_rest = rest > 1
        if prime_cap <= arith.U64_MAX:
            prime_rest &= rest < np.uint64(prime_cap)
        lone = prime_rest & (distinct == 0)
        base[lone] = rest[lone]
        distinct[prime_rest] += 1
        odd |= prime_rest
        rest[prime_rest] = 1

        yield start + step * k0, distinct, base, odd, rest
        first = (first - shift) % p_arr


def linear_lambda(spec: PolynomialSpec, x: int) -> Iterator[tuple[int, float]]:
    """(n, Lambda(q n + a)) for each odd n <= x whose value is a prime power,
    ascending.

    Lambda is math.log of the base prime as a Python int, so its bits equal
    arith.von_mangoldt's; a value below 1 weighs 0 and is not yielded.  A
    value with no sieved prime goes to arith.prime_power_base.  A range of
    one segment is kept, so the identity suites, which weigh the same
    progressions, sieve each once.
    """
    if (x + 1) // 2 <= SEGMENT_LENGTH:
        numbers, weights = _one_segment_lambda(spec.q, spec.a, x)
        return zip(numbers.tolist(), weights.tolist())
    return chain.from_iterable(zip(*pair) for pair in _lambda_segments(spec.q, spec.a, x))


def _lambda_segments(q: int, a: int, x: int) -> Iterator[tuple[list[int], list[float]]]:
    for start, distinct, base, _, rest in _segments(q, a, x, 2):
        power = (distinct == 1) & (rest == 1)
        for i in np.flatnonzero((distinct == 0) & (rest > 1)).tolist():
            found = arith.prime_power_base(int(rest[i]))
            if found is not None:
                base[i] = found[0]
                power[i] = True
        index = np.flatnonzero(power)
        yield ([start + 2 * i for i in index.tolist()],
               [math.log(p) for p in base[index].tolist()])


@lru_cache(maxsize=64)
def _one_segment_lambda(q: int, a: int, x: int) -> tuple[np.ndarray, np.ndarray]:
    numbers, weights = next(_lambda_segments(q, a, x), ([], []))
    return np.array(numbers, dtype=np.int64), np.array(weights, dtype=np.float64)


def square_flags(limit: int) -> Iterator[tuple[int, np.ndarray]]:
    """(start, flags) per segment of n = 1..limit: flags[i] says whether
    n = start + i is a perfect square, read as "every prime exponent of n is
    even"."""
    for start, _, _, odd, rest in _segments(1, 0, limit, 1):
        square = ~odd & (rest == 1)
        # A rest above the sieve's reach is a square exactly when n's is.
        for i in np.flatnonzero(~odd & (rest > 1)).tolist():
            r = int(rest[i])
            square[i] = math.isqrt(r) ** 2 == r
        yield start, square
