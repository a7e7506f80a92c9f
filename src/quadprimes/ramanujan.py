"""Ramanujan sums by three independent methods, and parity checks at N = 2p.

The sum c_q(m) runs e^(2*pi*i*a*m/q) over residues a coprime to q.  Three
routes are exposed so each can cross-check the others:

    ramanujan_direct: literal complex summation (float path, capped q)
    ramanujan_closed: mu(q/d) * phi(q) / phi(q/d) with d = gcd(|m|, q)
    ramanujan_divisor: sum of mu(q/d) * d over d | gcd(|m|, q)

Each route memoises its value, bounded, on exactly the integers its formula
reads: the direct sum on (q, m % q), the other two on (q, gcd(|m|, q)).

shift_sums gives, for every n in 1..x at N = 2p, the exact sum of w * c_N(t - n)
over weighted points (w, t) and its diagonal weight d, the total w at t = n, from
three closed-form values: for 1 <= t, n <= x < p, gcd(t - n, 2p) depends only on
whether t - n is 0, even or odd.  The square indicator reads the full sum; the
exact identity paths read full - phi(N) * d, the sum with its diagonal dropped.

For a modulus N = 2p with p prime and p > x, c_N(m) with 0 < |m| < p only
depends on the parity of m.  parity_value checks the sign prediction (-1)**s
for m = s - n or s*s - n; parity_sum accumulates those values over s and
checks the claimed 0 / -1 total.  Mismatches raise LemmaCounterexample with
the measured value attached.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Literal

from . import arith
from .errors import CapacityError, LemmaCounterexample, PrecisionError

DIRECT_Q_CAP = 10**6

# Entries per route memo.  A sweep over m for one q needs at most q direct
# entries and one closed or divisor entry per divisor of q.
_MEMO_SIZE = 1 << 12

ParityMode = Literal["linear", "quadratic"]


@dataclass(frozen=True)
class ModulusContext:
    """Modulus N = 2p with a prime p exceeding the range bound x.

    Attributes:
        x: range bound for n (and s <= sqrt(x)).
        p: prime with p > x.
    """

    x: int
    p: int

    def __post_init__(self) -> None:
        if self.x < 1:
            raise ValueError("x must be >= 1")
        if not arith.is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.p <= self.x:
            raise ValueError(f"p={self.p} must exceed x={self.x}")

    @property
    def N(self) -> int:
        """The modulus 2p."""
        return 2 * self.p

    @property
    def floor_sqrt_x(self) -> int:
        """Integer square root of x."""
        return math.isqrt(self.x)

    def require_even_floor_sqrt(self) -> None:
        """Raise unless floor(sqrt(x)) is even, naming the nearest x that is."""
        if self.floor_sqrt_x % 2:
            raise ValueError(f"floor(sqrt(x)) is odd for x={self.x}; "
                             f"nearest valid x is {nearest_even_parity_x(self.x)}")

    def require_odd_n(self, n: int) -> None:
        """Raise unless n is odd and 1 <= n <= x."""
        if n % 2 == 0 or not 1 <= n <= self.x:
            raise ValueError(f"n={n} must be odd and within 1..{self.x}")


def nearest_even_parity_x(x: int) -> int:
    """Largest x' <= x whose floor square root is even."""
    if x < 1:
        raise ValueError("x must be >= 1")
    r = math.isqrt(x)
    return x if r % 2 == 0 else r * r - 1


@lru_cache(maxsize=4)
def _unit_roots(q: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * cmath.pi * k / q) for k in range(q))


@lru_cache(maxsize=4)
def _coprime_residues(q: int) -> tuple[int, ...]:
    # Residues mod q coprime to q.  For q = 1 this is (0,), which makes the
    # direct sum equal 1 and keeps all three methods consistent at q = 1.
    return tuple(a for a in range(q) if math.gcd(a, q) == 1)


@lru_cache(maxsize=_MEMO_SIZE)
def _direct_total(q: int, r: int) -> complex:
    # Keyed by the residue r = m % q, since a*m % q == a*r % q is all the
    # loop reads.  Not by gcd(|m|, q): that key would assume the theorem the
    # direct route is there to check.
    roots = _unit_roots(q)
    total = 0j
    for a in _coprime_residues(q):
        total += roots[a * r % q]
    return total


def ramanujan_direct(q: int, m: int) -> int:
    """c_q(m) by literal complex summation.

    Args:
        q: modulus, 1 <= q <= 10**6 (float-path cap).
        m: any integer.

    Returns:
        The rounded integer value.

    Raises:
        CapacityError: q beyond the float-path cap.
        PrecisionError: imaginary part or rounding residual >= 1e-6.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > DIRECT_Q_CAP:
        raise CapacityError(f"direct path capped at q <= {DIRECT_Q_CAP}")
    total = _direct_total(q, m % q)
    value = round(total.real)
    residual = max(abs(total.imag), abs(total.real - value))
    if residual >= 1e-6:
        raise PrecisionError(f"c_{q}({m}) residual {residual:.3e} >= 1e-6")
    return value


def ramanujan_closed(q: int, m: int) -> int:
    """c_q(m) by the closed form mu(q/d) * phi(q) / phi(q/d), d = gcd(|m|, q).

    Exact integer arithmetic; gcd(0, q) = q so that c_q(0) = phi(q).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    return _closed_value(q, math.gcd(abs(m), q))


@lru_cache(maxsize=_MEMO_SIZE)
def _closed_value(q: int, d: int) -> int:
    qd = q // d
    mu = arith.mobius(qd)
    if mu == 0:
        return 0
    quotient, remainder = divmod(arith.euler_phi(q), arith.euler_phi(qd))
    if remainder:
        raise ArithmeticError(f"phi({q}) not divisible by phi({qd})")
    return mu * quotient


def shift_sums(
    ctx: ModulusContext, points: Iterable[tuple[int, int]]
) -> Callable[[int], tuple[int, int]]:
    """The map n -> (full, d): full is the exact sum of w * c_N(t - n) over
    the (w, t) in points, d the weight of the points with t = n, and
    full - phi(N) * d the sum with its diagonal dropped.

    For t and n in 1..x with x < p, gcd(t - n, 2p) is 2 when t - n is even
    and nonzero, 1 when it is odd, and 2p at t = n.  So full is c_N(2) times
    the weight of the same-parity points off the diagonal, plus c_N(1) times
    the opposite-parity weight, plus c_N(0) = phi(N) times d, all three from
    ramanujan_closed.  The points are read once; each n then costs O(1).

    Raises:
        ValueError: a point t, or a later n, outside 1..x.
    """
    class_weight = [0, 0]
    diagonal: dict[int, int] = {}
    for w, t in points:
        if not 1 <= t <= ctx.x:
            raise ValueError(f"t={t} outside 1..{ctx.x}")
        class_weight[t % 2] += w
        diagonal[t] = diagonal.get(t, 0) + w
    c0, c1, c2 = (ramanujan_closed(ctx.N, m) for m in (0, 1, 2))

    def shift_sum(n: int) -> tuple[int, int]:
        if not 1 <= n <= ctx.x:
            raise ValueError(f"n={n} outside 1..{ctx.x}")
        d = diagonal.get(n, 0)
        return c2 * (class_weight[n % 2] - d) + c1 * class_weight[1 - n % 2] + c0 * d, d

    return shift_sum


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in arith.factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def ramanujan_divisor(q: int, m: int) -> int:
    """c_q(m) by the divisor sum of mu(q/d) * d over d | gcd(|m|, q)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return _divisor_value(q, math.gcd(abs(m), q))


@lru_cache(maxsize=_MEMO_SIZE)
def _divisor_value(q: int, g: int) -> int:
    return sum(arith.mobius(q // d) * d for d in _divisors(g))


def _parity_shift(ctx: ModulusContext, s: int, n: int, mode: str) -> int:
    if mode not in ("linear", "quadratic"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 1 <= s <= ctx.floor_sqrt_x:
        raise ValueError(f"s={s} outside 1..{ctx.floor_sqrt_x}")
    ctx.require_odd_n(n)
    return s - n if mode == "linear" else s * s - n


def parity_value(ctx: ModulusContext, s: int, n: int, mode: ParityMode) -> int:
    """c_N(s - n) or c_N(s*s - n), checked against the sign prediction (-1)**s.

    Args:
        ctx: modulus context with p > x.
        s: 1 <= s <= floor_sqrt_x.
        n: odd, 1 <= n <= x.
        mode: "linear" (shift s - n) or "quadratic" (shift s*s - n).

    Returns:
        The exact integer c_N value.

    Raises:
        ValueError: zero shift (s = n or s*s = n) or out-of-range arguments.
        LemmaCounterexample: the value differs from (-1)**s.
    """
    shift = _parity_shift(ctx, s, n, mode)
    if shift == 0:
        raise ValueError(f"{mode} mode requires a nonzero shift (s={s}, n={n})")
    value = ramanujan_closed(ctx.N, shift)
    predicted = -1 if s % 2 else 1
    if value != predicted:
        raise LemmaCounterexample(
            "parity-sign",
            {"x": ctx.x, "p": ctx.p, "s": s, "n": n, "mode": mode},
            predicted,
            value,
        )
    return value


def parity_sum(ctx: ModulusContext, n: int, mode: ParityMode, strict: bool = True) -> int:
    """Sum of c_N shifts over 1 <= s <= floor_sqrt_x, zero shifts skipped.

    The claimed total is 0 when floor_sqrt_x is even and -1 when odd.  With
    strict=True (the default) a differing total raises LemmaCounterexample;
    strict=False returns the measured total for data collection.

    Every term goes through parity_value, so a raised counterexample
    pinpoints whether a single term (parity-sign) or only the total
    (parity-sum-value) went wrong.
    """
    _parity_shift(ctx, 1, n, mode)  # validates n and mode
    total = sum(
        parity_value(ctx, s, n, mode)
        for s in range(1, ctx.floor_sqrt_x + 1)
        if (s if mode == "linear" else s * s) != n
    )
    claimed = 0 if ctx.floor_sqrt_x % 2 == 0 else -1
    if strict and total != claimed:
        raise LemmaCounterexample(
            "parity-sum-value",
            {"x": ctx.x, "p": ctx.p, "n": n, "mode": mode},
            claimed,
            total,
        )
    return total
