"""Segmented sieves over the values q*n + a and q*n^2 + a of n.

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

Its values are uint64 throughout, and every array the values meet is uint64
too, so no product wraps and nothing is promoted to float up to 2**64 - 1.

Two readers sit on the engine, and each keeps its per-value route as the
test oracle:

    linear_lambda(spec, x): Lambda(q n + a) for odd n <= x
        (per value: poly.lambda_weight)
    square_flags(limit): whether each n <= limit is a perfect square
        (per value: indicator.square_char_liouville)

A second engine sieves the values q n^2 + a over odd n, the classical sieve
for n^2 + 1 (D. Shanks, Math. Comp. 14, 1960; M. J. Jacobson Jr. and H. C.
Williams, Math. Comp. 72, 2003).  A prime p has up to two roots there, the t
with q t^2 + a = 0 (mod p), found for a whole arith.prime_blocks block at a
time by Tonelli-Shanks, and their hits are expanded as above.  Its arrays
are all int64, which holds every value below 2**63.  It finds the
prime-power values without a primality test:

    prime_power_values(spec, n_max): (n, f(n), p, k) for odd n <= n_max
        with f(n) = p**k, read by asymptotics.psi2_count and
        compare_asymptotic (per value: arith.prime_power_base, in
        asymptotics, which keeps it for short scans)
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


def _hits(first: np.ndarray, primes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(pos, prime) for every hit in a segment of size values: the root at
    index first[i] of primes[i] hits first[i], first[i] + primes[i], ... < size."""
    hits = np.maximum((size - 1 - first) // primes + 1, 0)
    pos = np.repeat(first, hits)
    prime = np.repeat(primes, hits)
    pos += prime * (np.arange(pos.size) - np.repeat(np.cumsum(hits) - hits, hits))
    return pos, prime


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
        pos, prime = _hits(first, p_arr, size)
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
        del pos, prime  # free before the next segment's hits are expanded

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


# Odd n per segment of the quadratic engine.  At x = 1e10 (4n^2 + 1) a
# segment's arrays and those of its hits peak near 1.6 MB, traced, against
# 4.3 MB at 2**16, for about the same time.
QUADRATIC_SEGMENT_LENGTH = 1 << 13

# The quadratic engine's sieving primes stop at isqrt(f(n_max)), or earlier
# at QUADRATIC_REACH times the number of odd n or at QUADRATIC_PRIME_CAP.
# f(n_max) is about 4 q times that count squared, so up to q = 256 the first
# bound is the square root, and a huge q costs no more roots than the scan
# has values.  The cap keeps the roots' arrays near 33 MB (about 2.1 million
# roots) at any x; for 4n^2 + 1 it binds from x = 2.8e14 on.  At 1e14, a cap
# of 2**24 sent 66,825 values to prime_power_base and took 10.9 s; 2**25
# sends none and takes 3.9 s.
QUADRATIC_REACH = 32
QUADRATIC_PRIME_CAP = 1 << 25


def prime_power_values(spec: PolynomialSpec, n_max: int) -> Iterator[tuple[int, int, int, int]]:
    """(n, f(n), p, k) for each odd n <= n_max with f(n) = q n^2 + a = p**k
    and k >= 1, ascending in n.

    Needs gcd(q, a) = 1 and q + a odd, so that neither 2 nor a prime of q
    divides a value, and q n_max**2 + |a| <= I64_MAX, so that every value
    and every product of two residues is exact in int64.

    The sieving primes are the odd p <= isqrt(f(n_max)) not dividing q, or
    fewer (QUADRATIC_REACH, QUADRATIC_PRIME_CAP); each root of
    q t^2 + a = 0 (mod p) hits every p-th odd n.  Per value the
    engine counts the distinct sieved primes and keeps one of them.  With
    exactly one, it is divided out, and a rest of 1 makes the value its
    power.  With none, the value is prime below the square of the largest
    sieving prime and goes to arith.prime_power_base above it.  Any other
    value is not a prime power.
    """
    q, a = spec.q, spec.a
    if q * n_max * n_max + abs(a) > arith.I64_MAX:
        raise ValueError("q n^2 + |a| must not pass 2**63 - 1")
    if math.gcd(q, a) != 1 or (q + a) % 2 == 0:
        raise ValueError("q and a must be coprime with q + a odd")
    start = 1
    if q + a < 2:  # the smallest odd n with f(n) >= 2
        start = math.isqrt(-((a - 2) // q) - 1) + 1
        start += 1 - start % 2
    if n_max < start:
        return
    count = (n_max - start) // 2 + 1
    bound = min(math.isqrt(spec.value_at(n_max)), QUADRATIC_REACH * count, QUADRATIC_PRIME_CAP)
    prime_top = min((bound + 1) ** 2 - 1, arith.I64_MAX)  # no sieved prime and <= this: prime
    length = QUADRATIC_SEGMENT_LENGTH
    # first: the index k of each root's next hit, start + 2k = root (mod p),
    # relative to this segment.  A prime of at least a segment's length hits
    # it at most once, so its roots are kept apart and need no expansion.
    blocks = [(np.zeros(0, dtype=np.int64),) * 2]
    for p, root in _quadratic_roots(q, a, bound):
        blocks.append((p, (root - start) % p * ((p + 1) >> 1) % p))
    p_arr, first = (np.concatenate(part) for part in zip(*blocks))
    del blocks
    short = p_arr < length
    p_short, first_short = p_arr[short], first[short]
    p_long, first_long = p_arr[~short], first[~short]
    del p_arr, first

    for k0 in range(0, count, length):
        size = min(length, count - k0)
        n = np.arange(start + 2 * k0, start + 2 * (k0 + size), 2, dtype=np.int64)
        values = q * n * n + a
        pos, prime = _hits(first_short, p_short, size)
        once = np.flatnonzero(first_long < size)
        pos = np.concatenate((pos, first_long[once]))
        prime = np.concatenate((prime, p_long[once]))
        if np.any(values[pos] % prime):
            raise ArithmeticError("sieve root misses its prime")
        distinct = np.bincount(pos, minlength=size)
        base = values.copy()
        base[pos] = prime
        del pos, prime  # free before the next segment's hits are expanded
        exponent = np.zeros(size, dtype=np.int64)

        one = np.flatnonzero(distinct == 1)
        lone_prime = base[one]
        rest = values[one] // lone_prime
        power = np.ones_like(one)
        deeper = np.flatnonzero(rest % lone_prime == 0)
        while deeper.size:
            rest[deeper] //= lone_prime[deeper]
            power[deeper] += 1
            deeper = deeper[rest[deeper] % lone_prime[deeper] == 0]
        exponent[one] = np.where(rest == 1, power, 0)

        none = np.flatnonzero(distinct == 0)
        exponent[none] = values[none] <= prime_top
        for i in none[values[none] > prime_top].tolist():
            found = arith.prime_power_base(int(values[i]))
            if found is not None:
                base[i], exponent[i] = found

        hit = np.flatnonzero(exponent)
        yield from zip(n[hit].tolist(), values[hit].tolist(), base[hit].tolist(),
                       exponent[hit].tolist())
        first_short = (first_short - length) % p_short
        first_long -= length  # every segment but the last has size == length
        first_long[once] += p_long[once]


def _quadratic_roots(q: int, a: int, bound: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(p, t) per arith.prime_blocks block: every root t of q t^2 + a = 0
    (mod p) for the odd primes p <= bound not dividing q, p once per root.

    They are t = s / q for the roots s of s^2 = -a q (mod p): 0 alone when p
    divides a, else two or none.  Needs bound**2 and q, |a| within int64.
    """
    for block in arith.prime_blocks(bound):
        p = block[(block > 2) & (q % block != 0)]
        c = (-a) % p * (q % p) % p
        zero = c == 0
        split, c = p[~zero], c[~zero]
        square, s = _square_roots(c, split)
        split, s = split[square], s[square]
        t = s * arith.power_mod(q, split - 2, split) % split
        yield (np.concatenate((p[zero], split, split)),
               np.concatenate((np.zeros(np.count_nonzero(zero), dtype=np.int64), t, split - t)))


def _square_roots(c: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(square, t): whether c is a square mod the odd prime p, and where it
    is, a t with t*t = c (mod p); 0 < c < p and p*p <= I64_MAX.

    Tonelli-Shanks on every p at once, with p - 1 = Q 2**s.
    t = c**((Q+1)/2) is a root when u = c**Q is 1, as for every square mod
    p = 3 (mod 4), where t is the one power c**((p+1)/4).  u has order 2**i
    with i < s exactly when c is a square; each round multiplies t by a power
    of z**Q, for a non-residue z, so that i falls, on the unfinished entries
    only.
    """
    odd, s = p - 1, np.zeros_like(p)
    even = np.flatnonzero(odd & 1 == 0)
    while even.size:
        odd[even] >>= 1
        s[even] += 1
        even = even[odd[even] & 1 == 0]
    w = arith.power_mod(c, (odd - 1) >> 1, p)
    t = w * c % p
    u = w * t % p
    order = _order(u, p, s)
    square = order < s

    todo = np.flatnonzero(square & (u != 1))
    pt, m, i, tt, ut = p[todo], s[todo], order[todo], t[todo], u[todo]
    g = arith.power_mod(_non_residues(pt), odd[todo], pt)  # order 2**m
    while todo.size:
        b = _square_times(g, m - i - 1, pt)
        tt = tt * b % pt
        g = b * b % pt
        ut = ut * g % pt
        m, i = i, _order(ut, pt, i)
        done = i == 0
        t[todo[done]] = tt[done]
        keep = ~done
        todo, pt, m, i, tt, ut, g = todo[keep], pt[keep], m[keep], i[keep], tt[keep], ut[keep], g[keep]
    return square, t


def _order(u: np.ndarray, p: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """The least i >= 0 with u**(2**i) = 1 (mod p), or cap if none is below it."""
    i = np.zeros_like(p)
    x = u.copy()
    live = np.flatnonzero((x != 1) & (cap > 0))
    while live.size:
        x[live] = x[live] * x[live] % p[live]
        i[live] += 1
        live = live[(x[live] != 1) & (i[live] < cap[live])]
    return i


def _square_times(x: np.ndarray, times: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x**(2**times) mod p elementwise."""
    x = x.copy()
    live = np.flatnonzero(times > 0)
    times = times.copy()
    while live.size:
        x[live] = x[live] * x[live] % p[live]
        times[live] -= 1
        live = live[times[live] > 0]
    return x


def _non_residues(p: np.ndarray) -> np.ndarray:
    """A quadratic non-residue mod each odd prime p: the first prime below 256
    whose Euler criterion gives -1.  The primes are tried in batches of 1, 2,
    4, 8 and the rest, as about half of the p left are settled per prime.
    Every p the sieve reaches has one; none would raise ArithmeticError.
    """
    z = np.zeros_like(p)
    need = np.arange(p.size)
    candidates = np.array(arith.primes_up_to(256), dtype=np.int64)
    for batch in np.split(candidates, [1, 3, 7, 15]):
        pn = p[need]
        found = arith.power_mod(batch[:, None], (pn - 1) >> 1, pn) == pn - 1
        hit = found.any(axis=0)
        z[need[hit]] = batch[found.argmax(axis=0)[hit]]
        need = need[~hit]
    if need.size:
        raise ArithmeticError("no prime non-residue below 256")
    return z
