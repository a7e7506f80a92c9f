"""Segmented sieves over n, q*n + a and q*n^2 + a.

One engine, _sieve, sieves a whole segment of values at once instead of
factoring one value at a time (the segmented sieve of Bays and Hudson, BIT
17, 1977).
Each sieving divisor, a prime or a prime square, comes with its roots, the
indices of the values it divides, and a root hits every p-th value after
its first.  The hits of a divisor shorter than a segment are expanded as
strides; a longer one hits a segment at most once and is found by one
comparison of its root, carried from segment to segment.  Every hit is
checked to divide its value.  Three kinds of values feed it:

    n = 1, 2, ...: each prime square p*p <= limit divides n from its
        first multiple, index p*p - 1, on.
    q*n + a over odd n: each prime has one root,
        n = -a/q (mod p).  The sieving primes stop at the number of values
        in a segment, not at the square root of the largest value, so a
        huge q stays cheap.
    q*n^2 + a over odd n, the classical sieve for n^2 + 1 (D. Shanks, Math.
        Comp. 14, 1960; M. J. Jacobson Jr. and H. C. Williams, Math. Comp.
        72, 2003): a prime p has up to two roots, the t with
        q t^2 + a = 0 (mod p).  The Legendre symbol (-a q | p) of
        arith.characters, the Euler products' own, read from one table
        of p mod 4|a q| built by reciprocity, says how many, and
        Tonelli-Shanks finds them, a whole arith.prime_blocks block at a
        time, with no inverse of q mod p.

Every value lies in [0, 2**64), so all three kinds are computed in uint64,
with q n^2 + a taken mod 2**64, which is exact there; the hits' divisors
are uint64 too, so nothing is promoted to float.

Two readers sit on the engine, and each route keeps its per-value oracle in
the tests.  square_flags(limit), whether each n <= limit is a perfect
square, divides each prime square out of its hits for as long as it
divides them; n is a square when what is left, its squarefree kernel, is 1
(per value: indicator.square_char_liouville).  _prime_powers reads a value
with exactly one sieved prime as that prime's power when dividing it out
leaves 1, a value with none as prime below (bound + 1)**2, bound the reach
of the sieving primes, and by arith.prime_power_base above it, and any
other value as no prime power.  It serves

    lambda_segments(spec, x): Lambda(q n + a) for odd n <= x, per segment
        (per value: poly.lambda_weight)
    prime_power_values(spec, n_max): (n, f(n), p, k) for odd n <= n_max
        with f(n) = q n^2 + a = p**k, read by asymptotics.psi2_count and
        compare_asymptotic (per value: asymptotics._per_value_hits, which
        they keep for short scans)
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, islice
from typing import Callable, Iterator

import numpy as np

from . import arith
from .poly import PolynomialSpec

# Values per segment of q*n + a, and of n in square_flags.  A segment's
# arrays and those of its hits (about 2.5 per value) peak near 10 MB, at any x.
SEGMENT_LENGTH = 1 << 16

# (k0, values, pos, prime) for one segment of _sieve: values (uint64) of the
# indices k0, k0 + 1, ...; each hit at values[pos] by prime (uint64), a
# sieving prime or prime square.
Hits = tuple[int, np.ndarray, np.ndarray, np.ndarray]


def _sieve(values_at: Callable[[int, int], np.ndarray], count: int, length: int,
           p: np.ndarray, first: np.ndarray) -> Iterator[Hits]:
    """The hits of the int64 roots (p, first) on the values of the indices
    0 .. count - 1, length at a time: values_at(k0, size) gives those of
    k0 .. k0 + size - 1 as uint64, and p[i], a prime or a prime square,
    divides the value at first[i] and at every p[i]-th index after it
    (0 <= first[i] < p[i]).

    A p shorter than a segment has its hits expanded; a longer one hits a
    segment at most once, found by one comparison, and its root is carried
    to the next segment.  Raises ArithmeticError in the first segment where
    a hit's p does not divide its value.  The engine drops a segment's
    values when it resumes and its hits as the next segment's are
    expanded, so a reader that drops them too frees them by then.
    """
    short = p < length
    p_short, first_short = p[short], first[short]
    p_long, first_long = p[~short], first[~short]
    del p, first
    for k0 in range(0, count, length):
        size = min(length, count - k0)
        values = values_at(k0, size)
        hits = np.maximum((size - 1 - first_short) // p_short + 1, 0)
        pos = np.repeat(first_short, hits)
        prime = np.repeat(p_short, hits)
        pos += prime * (np.arange(pos.size) - np.repeat(np.cumsum(hits) - hits, hits))
        once = np.flatnonzero(first_long < size)
        pos = np.concatenate((pos, first_long[once]))
        prime = np.concatenate((prime, p_long[once]), dtype=np.uint64, casting="unsafe")
        if np.any(values[pos] % prime):
            raise ArithmeticError("sieve root misses its prime")
        yield k0, values, pos, prime
        # The values go now, for the next segment's to take their place, and
        # the hits as the next segment's are made: freeing a whole segment at
        # once lets the heap be trimmed and faulted in again each segment
        # (verify_liouville(1e7): 59k minor faults that way, 0.9k this way).
        del values
        first_short = (first_short - length) % p_short
        first_long -= length  # every segment but the last has size == length
        first_long[once] += p_long[once]


def _divide_out(values: np.ndarray, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rest, exponent) with values = rest * primes**exponent elementwise and
    rest not divisible by primes; each of primes divides its value."""
    rest = values // primes
    exponent = np.ones(values.size, dtype=np.int8)  # below 64 in uint64
    deeper = np.flatnonzero(rest % primes == 0)
    while deeper.size:
        rest[deeper] //= primes[deeper]
        exponent[deeper] += 1
        deeper = deeper[rest[deeper] % primes[deeper] == 0]
    return rest, exponent


def _prime_top(bound: int) -> np.uint64:
    """The largest value below (bound + 1)**2, within 64 bits: one with no
    prime factor up to bound and at most this is 1 or a prime."""
    return np.uint64(min((bound + 1) ** 2 - 1, arith.U64_MAX))


def _prime_powers(segments: Iterator[Hits], prime_top: np.uint64
                  ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(k0, index, value, base, exponent) per segment of _sieve, for each
    value = base**exponent with exponent >= 1 at values[index].

    The sieved primes must include every prime up to isqrt(prime_top) that
    can divide a value.
    """
    for k0, values, pos, prime in segments:
        distinct = np.bincount(pos, minlength=values.size)
        base = values.copy()
        base[pos] = prime
        del pos, prime  # free as the next segment's hits are expanded
        exponent = np.zeros(values.size, dtype=np.int64)

        one = np.flatnonzero(distinct == 1)
        rest, power = _divide_out(values[one], base[one])
        exponent[one] = np.where(rest == 1, power, 0)

        none = np.flatnonzero(distinct == 0)
        exponent[none] = (values[none] > 1) & (values[none] <= prime_top)
        for i in none[values[none] > prime_top].tolist():
            found = arith.prime_power_base(int(values[i]))
            if found is not None:
                base[i], exponent[i] = found

        index = np.flatnonzero(exponent)
        yield k0, index, values[index], base[index], exponent[index]


def _linear(q: int, a: int, x: int) -> tuple[int, np.uint64, Iterator[Hits]]:
    """(start, prime_top, segments): _sieve's segments of the values q*n + a
    over odd n = start, start + 2, ... <= x, start the least odd n with
    q*n + a >= 1, and the _prime_top of their sieving primes."""
    start = max(1, -((a - 1) // q))
    start += 1 - start % 2
    count = (x - start) // 2 + 1
    if count < 1:
        return start, _prime_top(0), iter(())
    A, B = 2 * q, q * start + a  # value at index k is A*k + B
    if math.gcd(A, B) != 1:
        raise ValueError("the progression's values must share no common factor")
    length = min(count, SEGMENT_LENGTH)
    bound = min(math.isqrt(A * (count - 1) + B), length)
    primes = [p for p in arith.primes_up_to(bound) if A % p]
    first = [-B * pow(A, -1, p) % p for p in primes]
    step_u64 = np.uint64(A if count > 1 else 0)  # A may pass 2**64 only when count == 1

    def values_at(k0: int, size: int) -> np.ndarray:
        return np.arange(k0, k0 + size, dtype=np.uint64) * step_u64 + np.uint64(B)

    segments = _sieve(values_at, count, length, np.array(primes, dtype=np.int64),
                      np.array(first, dtype=np.int64))
    return start, _prime_top(bound), segments


def lambda_segments(spec: PolynomialSpec, x: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(n, Lambda) per segment: the odd n <= x whose q n + a is a prime
    power, ascending, as int64, and Lambda(q n + a) there as float64, the
    math.log of the base prime as a Python int, bit for bit von_mangoldt's.
    A range of one segment is kept, read-only, so the identity suites, which
    weigh the same progressions, sieve each once."""
    if (x + 1) // 2 <= SEGMENT_LENGTH:
        return iter(_one_segment_lambda(spec.q, spec.a, x))
    return _lambda_segments(spec.q, spec.a, x)


def _lambda_segments(q: int, a: int, x: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    start, prime_top, segments = _linear(q, a, x)
    for k0, index, _, base, _ in _prime_powers(segments, prime_top):
        yield 2 * index + (start + 2 * k0), np.array([math.log(p) for p in base.tolist()])


@lru_cache(maxsize=64)
def _one_segment_lambda(q: int, a: int, x: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    segments = tuple(islice(_lambda_segments(q, a, x), 1))  # none where no q n + a is at least 1
    for array in chain.from_iterable(segments):
        array.setflags(write=False)  # every caller shares it
    return segments


def square_flags(limit: int) -> Iterator[tuple[int, np.ndarray]]:
    """(start, flags) per segment of n = 1..limit: flags[i] says whether
    n = start + i is a perfect square, read as "every prime exponent of n is
    even": each prime square p*p <= limit sieves n from its first multiple,
    index p*p - 1, and is divided out of its hits while it divides them,
    which leaves n's squarefree kernel, 1 exactly when n is a square."""
    squares = np.array(arith.primes_up_to(math.isqrt(limit)), dtype=np.int64) ** 2

    def values_at(k0: int, size: int) -> np.ndarray:
        return np.arange(k0 + 1, k0 + size + 1, dtype=np.uint64)

    for k0, kernel, pos, square in _sieve(values_at, limit, SEGMENT_LENGTH, squares, squares - 1):
        while pos.size:
            np.floor_divide.at(kernel, pos, square)
            deeper = kernel[pos] % square == 0
            pos, square = pos[deeper], square[deeper]
        flags = kernel == 1
        del kernel  # free before the next segment's values are made
        yield k0 + 1, flags


# Odd n per segment of q*n^2 + a.  At x = 1e10 (4n^2 + 1) a segment's arrays
# and those of its hits peak near 1.6 MB, traced, against 4.3 MB at 2**16,
# for about the same time.
QUADRATIC_SEGMENT_LENGTH = 1 << 13

# The sieving primes of q*n^2 + a stop at isqrt(f(n_max)), or earlier at
# QUADRATIC_REACH times the number of odd n or at QUADRATIC_PRIME_CAP.
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
    and k >= 1, ascending in n, read by _prime_powers.

    Needs gcd(q, a) = 1 and q + a odd, so that neither 2 nor a prime of q
    divides a value, and f(n_max) <= 2**64 - 1.  The sieving primes are the
    odd p <= isqrt(f(n_max)) not dividing q, or fewer (QUADRATIC_REACH,
    QUADRATIC_PRIME_CAP); each root of q t^2 + a = 0 (mod p) hits every
    p-th odd n.
    """
    q, a = spec.q, spec.a
    if spec.value_at(n_max) > arith.U64_MAX:
        raise ValueError("q n^2 + a must not pass 2**64 - 1")
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
    q_u64, a_u64 = np.uint64(q % 2**64), np.uint64(a % 2**64)

    def values_at(k0: int, size: int) -> np.ndarray:
        n = np.arange(start + 2 * k0, start + 2 * (k0 + size), 2, dtype=np.uint64)
        return n * n * q_u64 + a_u64  # mod 2**64, exact: each value is below it

    # first: the index k of each root's first hit, start + 2k = root (mod p).
    blocks = [(np.zeros(0, dtype=np.int64),) * 2]
    for p, root in _quadratic_roots(q, a, bound):
        blocks.append((p, (root - start) % p * ((p + 1) >> 1) % p))
    segments = _sieve(values_at, count, QUADRATIC_SEGMENT_LENGTH,
                      *(np.concatenate(part) for part in zip(*blocks)))
    del blocks
    for k0, index, value, base, exponent in _prime_powers(segments, _prime_top(bound)):
        n = start + 2 * (k0 + index)
        yield from zip(n.tolist(), value.tolist(), base.tolist(), exponent.tolist())


def _quadratic_roots(q: int, a: int, bound: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(p, t) per arith.prime_blocks block: every root t of q t^2 + a = 0
    (mod p) for the odd primes p <= bound not dividing q, p once per root.

    The character chi(p) = (-a q | p) of arith.characters counts them,
    read by p mod 4|a q| from a table built once by reciprocity while that
    period is at most arith.SEGMENT_SIZE: where chi = 0, p divides a and 0
    is the one root; where chi = 1 there are two, t and -t with q t^2 = -a,
    from _square_roots of c = -a q with factor -a, so t = r / q for the root
    r of c and no inverse of q is taken; where chi = -1 there are none.  q
    and a may be any size; bound is at most arith.INT64_PRIME_MAX.
    """
    for block in arith.prime_blocks(bound):
        p = block[block > 2]
        q_p, chi = arith.residues(q, p), arith.characters(-a * q, p)
        zero, split, q_p = p[(chi == 0) & (q_p != 0)], p[chi == 1], q_p[chi == 1]
        minus_a = arith.residues(-a, split)
        t = _square_roots(minus_a * q_p % split, split, minus_a)
        yield (np.concatenate((zero, split, split)),
               np.concatenate((np.zeros_like(zero), t, split - t)))


def _square_roots(c: np.ndarray, p: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """A t with c t^2 = factor^2 (mod p) for each square 0 < c < p mod an odd
    prime p <= arith.INT64_PRIME_MAX and 0 <= factor < p: t = r factor / c
    for a root r of c, and r itself when factor is c.

    Tonelli-Shanks on every p at once, with p - 1 = Q 2**s.
    r = c**((Q+1)/2) is a root when u = c**Q is 1, as for every square mod
    p = 3 (mod 4), where r is the one power c**((p+1)/4); so t starts as
    c**((Q-1)/2) factor.  u has order 2**i with i < s exactly when c is a
    square; each round multiplies r, and so t, by a power of z**Q, for a
    non-residue z from _non_residues, so that i falls,
    on the unfinished entries only.  If some c is not a square, or some z
    is, an i stays where it was, and ArithmeticError is raised instead of
    looping.
    """
    low = (p - 1) & (1 - p)  # the lowest set bit of p - 1, 2**s
    odd, s = (p - 1) // low, np.frexp(low)[1].astype(np.int64) - 1
    w = arith.power_mod(c, (odd - 1) >> 1, p)
    t = w * factor % p
    u = w * w % p * c % p

    todo = np.flatnonzero(u != 1)
    pt, m, tt, ut = p[todo], s[todo], t[todo], u[todo]
    i = _order(ut, pt, m)
    if np.any(i == m):
        raise ArithmeticError("Tonelli-Shanks needs a square")
    g = arith.power_mod(_non_residues(pt), odd[todo], pt)  # order 2**m
    while todo.size:
        b = _square_times(g, m - i - 1, pt)
        tt = tt * b % pt
        g = b * b % pt
        ut = ut * g % pt
        m, i = i, _order(ut, pt, i)
        if np.any(i == m):
            raise ArithmeticError("Tonelli-Shanks stalls: some z is a square")
        done = i == 0
        t[todo[done]] = tt[done]
        keep = ~done
        todo, pt, m, i, tt, ut, g = todo[keep], pt[keep], m[keep], i[keep], tt[keep], ut[keep], g[keep]
    return t


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
    """A quadratic non-residue mod each odd prime p: the first prime z below
    256 with (z | p) = -1, read by arith.characters on the p still without
    one, about half of which each z settles.  Every p the sieve reaches has
    one; none would raise ArithmeticError.
    """
    z, need = np.zeros_like(p), np.arange(p.size)
    for candidate in arith.primes_up_to(256):
        hit = arith.characters(candidate, p[need]) == -1
        z[need[hit]] = candidate
        need = need[~hit]
        if not need.size:
            return z
    raise ArithmeticError("no prime non-residue below 256")
