"""Integer arithmetic on the 64-bit value range.

Key functions:
    factorize(n): complete prime factorization (trial division + Pollard rho)
    is_prime(n): deterministic Miller-Rabin, exact for n < 2**64
    mobius(n), euler_phi(n), liouville(n): multiplicative functions
    mobius_phi_tables(limit): mu and phi on 0..limit from one sieve pass
    von_mangoldt(n): Lambda(n) = ln p when n = p**k, else 0.0
    prime_power_base(n): fast prime-power predicate without full factorization
    jacobi(a, n): Jacobi symbol via binary reciprocity
    residues(m, primes): any int m reduced mod an int64 array of primes
    power_mod(base, exponent, modulus): elementwise modular powers of int64 arrays
    characters(m, primes): Legendre symbols (m | p) on int64 prime arrays,
        from one table per m of p mod 4|m| built by reciprocity
    primes_up_to(limit), iter_primes(limit): plain and segmented sieves
    prime_blocks(limit): the segmented sieve's primes as int64 arrays, each
        segment sieved on its odd numbers from a pattern presieved by the
        wheel primes 3, 5, 7, 11 and 13
    next_prime_above(x): successor prime within the 64-bit range

All functions are pure and deterministic.  Values above 2**64 - 1 are outside
the supported domain; factorize rejects them, the multiplicative functions
reject those whose cofactor after trial division is composite and past 64
bits, and is_prime answers on a best-effort basis (its witness set is proven
well past 2**64).
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import count
from typing import Iterator, Optional

import numpy as np

U64_MAX = 2**64 - 1

# Largest prime below 2**64.  next_prime_above cannot pass it without leaving
# the 64-bit contract.
LARGEST_U64_PRIME = 18446744073709551557

# Trial division handles factors up to this bound; Pollard rho takes over for
# anything larger.  Small enough that the worst case (no small factor at all)
# stays in the microsecond range.
TRIAL_DIVISION_BOUND = 4096

# Sieve segment length.  Euler products hold about a dozen int64 and float64
# temporaries per segment's primes, so the segment also bounds their memory:
# at 2**17 the scale workload's peak stays below the 2**20 sieve's.  The odd
# segments cost speed at large limits: on a 2-core VM, prime_blocks(1e8)
# took 0.45-0.56 s at 2**17 against 0.17-0.21 s at 2**20, and 4.8-8.3
# against 4.7-5.9 ms at 3e6 (best of 3-5, three runs each).  characters
# builds its table of (m | p) by p mod 4|m|, one byte per class, only while
# it has at most this many entries, 128 KiB.
SEGMENT_SIZE = 1 << 17

# The largest modulus whose residues multiply exactly in int64:
# isqrt(2**63 - 1) = 3,037,000,499, as power_mod needs.  residues is exact
# further, for every prime below 2**32.  characters refuses a larger prime
# for every m, read from its table or not; the Euler products (cutoff <=
# 10**8) and the quadratic sieve (primes <= 2**25) stay far below it.
INT64_PRIME_MAX = math.isqrt(2**63 - 1)

# The 54 primes below 256 and their product.  One gcd with the product finds
# every small prime factor at once; what it leaves has no prime factor below
# 257 > 2**8.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151,
    157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233,
    239, 241, 251,
)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIMES)

# Deterministic Miller-Rabin witness tiers.  Each row (bound, bases) is proven:
# the bases are sound for every n below the bound.  The final row covers the
# full 64-bit range.
_MR_TIERS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (2**64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)


# --------------------------------------------------------------------------- #
# primality
# --------------------------------------------------------------------------- #

def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all n < 2**64.

    Args:
        n: nonnegative integer.

    Returns:
        True if n is prime.  The witness tiers are proven for the 64-bit
        range; larger inputs reuse the widest tier (sound far beyond 2**64
        but outside this module's contract).
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = _MR_TIERS[-1][1]
    for bound, tier in _MR_TIERS:
        if n < bound:
            bases = tier
            break
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_above(x: int) -> int:
    """Smallest prime strictly greater than x.

    Raises:
        OverflowError: if the successor prime would exceed 2**64 - 1.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if x >= LARGEST_U64_PRIME:
        raise OverflowError("no prime above x within the 64-bit range")
    if x < 2:
        return 2
    candidate = x + 1 if x % 2 == 0 else x + 2
    while not is_prime(candidate):
        candidate += 2
    return candidate


# --------------------------------------------------------------------------- #
# factorization
# --------------------------------------------------------------------------- #

@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    return tuple(primes_up_to(TRIAL_DIVISION_BOUND))


def _pollard_brent(n: int) -> int:
    """Brent-cycle Pollard rho.  Returns a nontrivial factor of composite n.

    The polynomial constant c walks a fixed schedule, so the result is
    deterministic for a given n.
    """
    for c in count(1):
        y, r, q = 2, 1, 1
        g, x, ys = 1, 0, 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # Batch overshot; replay single steps from the last checkpoint.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # This c found only the trivial factor; try the next one.


def _factor_large(n: int, out: list[int]) -> None:
    """Append the prime factors of n (> trial bound, no small factors) to out."""
    if n == 1:
        return
    if is_prime(n):
        out.append(n)
        return
    if n > U64_MAX:
        # Pollard rho on a composite past 64 bits has no useful time bound.
        raise ValueError("factorization supports the 64-bit range only")
    root = math.isqrt(n)
    if root * root == n:
        # Perfect squares stall the rho cycle; split them directly.
        tail: list[int] = []
        _factor_large(root, tail)
        out.extend(tail)
        out.extend(tail)
        return
    d = _pollard_brent(n)
    _factor_large(d, out)
    _factor_large(n // d, out)


@lru_cache(maxsize=1 << 16)
def _factorize_raw(n: int) -> tuple[tuple[int, int], ...]:
    m = n
    primes: list[int] = []
    for p in _trial_primes():
        if p * p > m:
            break
        while m % p == 0:
            primes.append(p)
            m //= p
    if m > 1:
        if m <= TRIAL_DIVISION_BOUND * TRIAL_DIVISION_BOUND:
            # No factor below the trial bound and m below its square: prime.
            primes.append(m)
        else:
            large: list[int] = []
            _factor_large(m, large)
            primes.extend(large)
    primes.sort()
    out = []
    for p in sorted(set(primes)):
        out.append((p, primes.count(p)))
    return tuple(out)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Complete prime factorization of n.

    Args:
        n: integer with 1 <= n <= 2**64 - 1.

    Returns:
        (prime, exponent) pairs with primes strictly increasing; empty for n = 1.

    Raises:
        ValueError: if n is 0, negative, or beyond the 64-bit range.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n > U64_MAX:
        raise ValueError("factorize supports the 64-bit range only")
    return _factorize_raw(n)


def prime_power_base(n: int) -> Optional[tuple[int, int]]:
    """Return (p, k) when n = p**k for prime p and k >= 1, else None.

    Uses one gcd, primality and perfect-power detection rather than
    factorization, so it stays fast on values with two large prime factors.
    """
    if n < 2:
        return None
    g = math.gcd(n, _SMALL_PRIME_PRODUCT)
    if g > 1:
        # g is the product of n's distinct prime factors below 256.
        if g not in _SMALL_PRIME_SET:
            return None
        k = 0
        while n % g == 0:
            n //= g
            k += 1
        return (g, k) if n == 1 else None
    if is_prime(n):
        return (n, 1)
    # Every prime factor is at least 257 > 2**8, so a perfect e-th power
    # exceeds 2**(8e).  A proper prime power is a perfect e-th power for
    # some prime e; below 2**64 that leaves e in {2, 3, 5, 7}, and the
    # primes below 256 cover every n below 2**2056.
    for e in _SMALL_PRIMES:
        if 1 << (8 * e) >= n:
            break
        r = integer_root(n, e)
        if r**e == n:
            inner = prime_power_base(r)
            if inner is None:
                return None
            p, k = inner
            return (p, k * e)
    return None


def integer_root(n: int, k: int) -> int:
    """Floor of the k-th root of n, exact integer arithmetic."""
    if n < 0 or k < 1:
        raise ValueError("integer_root requires n >= 0, k >= 1")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    try:
        r = max(1, int(round(n ** (1.0 / k))))
    except OverflowError:
        r = 1 << ((n.bit_length() + k - 1) // k)
    # Newton steps close the float-seed gap in O(log) iterations; the final
    # nudges fix rounding at the boundary.
    while True:
        t = ((k - 1) * r + n // r ** (k - 1)) // k
        if t >= r:
            break
        r = t
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


# --------------------------------------------------------------------------- #
# multiplicative functions
# --------------------------------------------------------------------------- #

def mobius(n: int) -> int:
    """Mobius function: 0 on squareful n, else (-1)**(distinct prime count)."""
    if n < 1:
        raise ValueError("mobius requires n >= 1")
    factors = _factorize_raw(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def euler_phi(n: int) -> int:
    """Euler totient: count of 1 <= k <= n coprime to n."""
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    for p, _ in _factorize_raw(n):
        result = result // p * (p - 1)
    return result


def mobius_phi_tables(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The Mobius function and Euler's totient on 0..limit as int64 arrays,
    0 at n = 0, from one pass over primes_up_to(limit).

    Each prime p flips the sign of mu at its multiples and zeroes it at the
    multiples of p*p, and takes phi(n) to phi(n) * (p - 1) / p at its
    multiples; phi is still divisible by p there, since the primes come in
    ascending order.  mobius and euler_phi, one factorization per n, are
    the oracles.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    mu = np.ones(limit + 1, dtype=np.int64)
    phi = np.arange(limit + 1, dtype=np.int64)
    mu[0] = 0
    for p in primes_up_to(limit):
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
        phi[p::p] -= phi[p::p] // p
    return mu, phi


def liouville(n: int) -> int:
    """Liouville function: (-1)**Omega(n), prime factors counted with multiplicity."""
    if n < 1:
        raise ValueError("liouville requires n >= 1")
    omega = sum(e for _, e in _factorize_raw(n))
    return -1 if omega % 2 else 1


def von_mangoldt(n: int) -> float:
    """von Mangoldt function: ln(p) when n = p**k for a prime p, else 0.0."""
    if n < 1:
        raise ValueError("von_mangoldt requires n >= 1")
    factors = _factorize_raw(n)
    return math.log(factors[0][0]) if len(factors) == 1 else 0.0


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a | n) for odd positive n.

    Equals the Legendre symbol when n is prime.  Implemented with the binary
    reciprocity loop: factors of two flip the sign according to n mod 8, and
    each swap flips it when both operands are 3 mod 4.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("jacobi requires odd n >= 1")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def residues(m: int, primes: np.ndarray) -> np.ndarray:
    """m mod p for each p in an int64 array of primes below 2**32, for any int m.

    Horner's rule over 31-bit limbs of |m| keeps every intermediate
    (r << 31) + limb below 2**63, so the reduction is exact however large m
    is, and for every prime up to INT64_PRIME_MAX in particular.
    """
    magnitude = abs(m)
    limbs = []
    while True:
        limbs.append(magnitude & 0x7FFFFFFF)
        magnitude >>= 31
        if not magnitude:
            break
    r = np.zeros_like(primes)
    for limb in reversed(limbs):
        r = ((r << 31) + limb) % primes
    return (primes - r) % primes if m < 0 else r


def power_mod(base: np.ndarray, exponent: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    """base**exponent % modulus elementwise, by square-and-multiply on int64.

    Exact for every modulus up to INT64_PRIME_MAX: each product of two
    residues stays below 2**63.  Exponents are >= 0; the arguments broadcast.
    """
    base = base % modulus
    power = np.ones_like(base)
    for _ in range(int(np.max(exponent, initial=0)).bit_length()):
        power = np.where((exponent & 1) == 1, power * base % modulus, power)
        base = base * base % modulus
        exponent = exponent >> 1
    return power


def characters(m: int, primes: np.ndarray) -> np.ndarray:
    """Legendre symbols (m | p) for an int64 array of odd primes p up to
    INT64_PRIME_MAX, for any int m: the one Legendre symbol of the Euler
    products and of the quadratic sieve.

    By Jacobi reciprocity (m | p) depends only on p mod 4|m|, so while
    0 < 4|m| <= SEGMENT_SIZE it is read from _character_table(m), built
    once per m.  For m = 0 or a longer period every prime goes through
    _euler_criterion, the table's oracle.  A prime above INT64_PRIME_MAX
    raises ValueError.
    """
    if np.max(primes, initial=0) > INT64_PRIME_MAX:
        raise ValueError(f"characters take primes up to {INT64_PRIME_MAX} only")
    period = 4 * abs(m)
    if 0 < period <= SEGMENT_SIZE:
        return _character_table(m)[primes % period]
    return _euler_criterion(m, primes)


def _euler_criterion(m: int, primes: np.ndarray) -> np.ndarray:
    """(m | p) on every p: r**((p-1)/2) mod p, r = m mod p, by power_mod,
    is 1 where m is a nonzero square mod p, p - 1 where it is not a square,
    and 0 where p divides m."""
    power = power_mod(residues(m, primes), (primes - 1) >> 1, primes)
    return np.where(power == primes - 1, -1, power)


@lru_cache(maxsize=64)
def _character_table(m: int) -> np.ndarray:
    """(m | p) for the odd primes p by p mod 4|m|, 0 < 4|m| <= SEGMENT_SIZE,
    as a read-only int8 table.

    It is the product of (z | p) over the prime factors z of m with odd
    exponent, times (-1 | p) for m < 0 (H. Cohen, GTM 138, ch. 1).  (2 | p)
    is 1 where p = +-1 (mod 8), else -1.  For an odd z, quadratic
    reciprocity gives (z | p) = (p | z), 1 where p mod z is a nonzero square,
    negated where z and p are both 3 (mod 4).  A class sharing a factor with
    4m holds no odd prime but a factor of m, where the symbol is 0.
    """
    period = 4 * abs(m)
    table = np.ones(period, dtype=np.int64)
    if m < 0:
        table[3::4] = -1
    table[::2] = 0  # the zeros stay through every product below
    for z, exponent in factorize(abs(m)):
        table[::z] = 0
        if exponent % 2 == 0:
            continue
        if z == 2:
            signs = np.array([0, 1, 0, -1, 0, -1, 0, 1])
        else:
            squares = np.zeros(z, dtype=bool)
            squares[np.arange(1, z) ** 2 % z] = True
            signs = np.tile(np.where(squares, 1, -1), 4)
            if z & 3 == 3:
                signs[3::4] *= -1
        table *= np.tile(signs, period // signs.size)
    table = table.astype(np.int8)
    table.setflags(write=False)  # every caller shares it
    return table


# --------------------------------------------------------------------------- #
# sieves
# --------------------------------------------------------------------------- #

def _sieve(limit: int) -> np.ndarray:
    """All primes <= limit (limit >= 0) as an int64 array, plain sieve."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit by a plain sieve of Eratosthenes."""
    if limit < 2:
        return []
    return _sieve(limit).tolist()


# The odd primes of the wheel: every segment of prime_blocks starts as a copy
# of _wheel's presieved pattern, so only the sieving primes above these write.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL_PERIOD = math.prod(_WHEEL_PRIMES)  # 15,015 odd numbers


@lru_cache(maxsize=1)
def _wheel(length: int) -> np.ndarray:
    """Flags for the odd numbers 2i + 1, i = 0 .. length + _WHEEL_PERIOD - 1:
    whether 2i + 1 has no prime factor in _WHEEL_PRIMES, the wheel primes
    themselves included.  It repeats every _WHEEL_PERIOD entries, so each
    window of length entries starts at one of its first _WHEEL_PERIOD."""
    flags = np.ones(length + _WHEEL_PERIOD, dtype=bool)
    for p in _WHEEL_PRIMES:
        flags[(p - 1) // 2:: p] = False  # 2i + 1 = 0 (mod p)
    flags.flags.writeable = False  # shared by every call; segments copy it
    return flags


def prime_blocks(limit: int) -> Iterator[np.ndarray]:
    """Yield the primes <= limit in ascending int64 blocks via a segmented sieve.

    The first block holds the sieving primes up to sqrt(limit), by the plain
    sieve; each later block holds the primes of one segment of SEGMENT_SIZE
    numbers and may be empty.  A segment sieves its odd numbers only, and
    starts as a copy of the wheel's pattern with the multiples of 3, 5, 7,
    11 and 13 already struck (P. Pritchard, J. Algorithms 4, 1983), so only
    the sieving primes above 13 write, each from the odd multiple carried
    over from the segment before.  2 and the wheel primes are added back
    where a segment holds them (limit < 196).  Memory use is bounded by the
    segment size regardless of limit, which is what makes Euler products up
    to 10**8 practical.
    """
    if limit < 2:
        return
    root = math.isqrt(limit)
    base = _sieve(root)
    yield base
    sieving = base[base > _WHEEL_PRIMES[-1]]
    primes = sieving.tolist()
    pattern = _wheel(SEGMENT_SIZE // 2)
    start = root + 1
    odd = start | 1  # the segment's first odd number, 2 * (odd // 2) + 1
    # Offset, in odd numbers from odd, of each sieving prime's first odd
    # multiple at or past it: 2i + 1 = 0 (mod p) at i = (p - 1) / 2 (mod p).
    offset = ((sieving - 1) // 2 - odd // 2) % sieving
    while start <= limit:
        stop = min(start + SEGMENT_SIZE, limit + 1)
        size = (stop - odd + 1) // 2  # odd numbers in [start, stop)
        phase = odd // 2 % _WHEEL_PERIOD
        seg = pattern[phase: phase + size].copy()
        for p, k in zip(primes, offset.tolist()):
            seg[k:: p] = False
        found = odd + 2 * np.flatnonzero(seg).astype(np.int64)
        if start <= _WHEEL_PRIMES[-1]:
            small = [w for w in (2, *_WHEEL_PRIMES) if start <= w < stop]
            found = np.concatenate((np.array(small, dtype=np.int64), found))
        yield found
        offset = (offset - size) % sieving
        start, odd = stop, odd + 2 * size


def iter_primes(limit: int) -> Iterator[int]:
    """Yield primes <= limit in ascending order, one prime_blocks block at a time."""
    for block in prime_blocks(limit):
        yield from block.tolist()
