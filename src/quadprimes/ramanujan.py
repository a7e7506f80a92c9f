"""Ramanujan sums by three independent methods, and parity checks at N = 2p.

The sum c_q(m) runs e^(2*pi*i*a*m/q) over residues a coprime to q.  Three
routes are exposed so each can cross-check the others:

    ramanujan_direct: literal complex summation (float path, capped q)
    ramanujan_closed: mu(q/d) * phi(q) / phi(q/d) with d = gcd(|m|, q)
    ramanujan_divisor: sum of mu(q/d) * d over d | gcd(|m|, q)

The closed form and the divisor sum memoise their values, bounded, on
exactly the integers their formulas read, (q, gcd(|m|, q)).  The direct sum
reads m only through the residue m % q and keeps nothing.  Few residues
gather their roots of unity in numpy blocks; more take one discrete
Fourier transform of the coprime indicator, every residue of q at once.

verification.verify_ramanujan checks the three routes once per class
(q, m mod q).  It reads the direct sums from direct_cells, one
_direct_totals call per modulus, rounded as ramanujan_direct rounds, and
forms the closed form and the divisor sum from arith.mobius_phi_tables;
the per-call ramanujan_closed and ramanujan_divisor are its oracles in the
tests.

shift_sums gives, for every n in 1..x at N = 2p, the exact sum of w * c_N(t - n)
over weighted points (w, t) and its diagonal weight d, the total w at t = n, from
three closed-form values: for 1 <= t, n <= x < p, gcd(t - n, 2p) depends only on
whether t - n is 0, even or odd.  The square indicator reads the full sum; the
exact identity paths read full - phi(N) * d, the sum with its diagonal dropped.
So at an odd n the square indicator reads n only through whether n is a
square: indicator.square_char_exp is the per-n API and the oracle of
verification.verify_char, which evaluates it once per class of odd n.

For a modulus N = 2p with p prime and p > x, c_N(m) with 0 < |m| < p only
depends on the parity of m.  parity_value checks the sign prediction (-1)**s
for m = s - n or s*s - n; parity_sum accumulates those values over s and
checks the claimed 0 / -1 total.  Mismatches raise LemmaCounterexample with
the measured value attached.  They are the per-term API and the oracle of
verification.verify_parity, which reads the same verdicts from c_N(1) and
c_N(2) once per sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Literal

import numpy as np

from . import arith
from .errors import CapacityError, LemmaCounterexample, PrecisionError

DIRECT_Q_CAP = 10**6

# Entries per closed-form or divisor-sum memo.  Their readers repeat a few
# (q, gcd) keys many times: shift_sums's c_N(0), c_N(1) and c_N(2),
# verify_parity's c_N(1) and c_N(2), the per-term parity oracle
# (parity_value, one call per shift) and the CLI's ramanujan command.
_MEMO_SIZE = 1 << 12
# Terms per block of the gathered direct sum, so no block grows with q.
_DIRECT_BLOCK = 1 << 16

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


def _direct_totals(q: int, residues: np.ndarray) -> np.ndarray:
    """The sum of e(a*r/q) over the residues a coprime to q, for each r in
    residues, as complex floats.

    The literal defining sum, by one of two routes chosen from the input
    alone.  With more residues than q.bit_length(), one discrete Fourier
    transform gives every residue of q in O(q log q) (_dft_totals); with
    fewer, gathering q-th roots of unity costs less (_gathered_totals).  At
    q = 999983 one residue took 0.17 s by gather and 0.44 s by transform,
    and the transform won from about 8 to 32 residues at q = 999983, 720720
    and 65537 (2-core VM).  For q = 1 the one coprime residue is 0, so the sum is 1 and
    all three routes agree at q = 1.
    """
    if residues.size > q.bit_length():
        return _dft_totals(q, residues)
    return _gathered_totals(q, residues)


def _dft_totals(q: int, residues: np.ndarray) -> np.ndarray:
    """The direct sums at residues from the transform of the coprime indicator.

    fft(f)[j] is the sum of f(a) * e(-a*j/q) over 0 <= a < q, so for f the
    indicator of gcd(a, q) == 1 its entry at j = -r mod q is the sum at r.
    numpy's pocketfft takes O(q log q) at any q, through Bluestein's chirp
    transform when q is prime.  Its worst residual over every residue of
    every q <= 2000, and at five residues of seven q from 65537 to the cap,
    was 1.2e-10, at q = 999983.
    """
    coprime = np.gcd(np.arange(q, dtype=np.int64), q) == 1
    return np.fft.fft(coprime.astype(np.float64))[(-residues) % q]


def _gathered_totals(q: int, residues: np.ndarray) -> np.ndarray:
    """The direct sums at residues, gathered from a table of the q-th roots
    of unity in blocks of at most _DIRECT_BLOCK terms: rows of residues by
    columns of coprime a."""
    k = np.arange(q, dtype=np.int64)
    roots = np.exp(2j * np.pi * k / q)
    coprime = k[np.gcd(k, q) == 1]
    totals = np.zeros(residues.size, dtype=complex)
    cols = min(coprime.size, _DIRECT_BLOCK)
    rows = _DIRECT_BLOCK // cols
    for col in range(0, coprime.size, cols):
        units = coprime[col:col + cols]
        for row in range(0, residues.size, rows):
            r = residues[row:row + rows, None]
            totals[row:row + rows] += roots[r * units % q].sum(axis=1)
    return totals


def direct_cells(q: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """c_q(m) at each cell (q[i], ms[i]) by literal complex summation, as int64.

    Each run of consecutive cells with one modulus is one _direct_totals
    call at its residues ms % q, rounded as ramanujan_direct rounds.  A
    residue is summed as often as it occurs in its run, so a caller passes
    each residue of a modulus once.

    Raises:
        CapacityError: a q beyond the float-path cap.
        PrecisionError: imaginary part or rounding residual >= 1e-6, naming
            the first such cell.
    """
    residues = ms % q
    totals = np.empty(q.size, dtype=complex)
    edges = [0, *(np.flatnonzero(np.diff(q)) + 1).tolist(), q.size]
    for start, stop in zip(edges, edges[1:]):
        modulus = int(q[start])
        _require_direct_modulus(modulus)
        totals[start:stop] = _direct_totals(modulus, residues[start:stop])
    return _rounded(totals, lambda i: f"c_{q[i]}({ms[i]})")


def _require_direct_modulus(q: int) -> None:
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > DIRECT_Q_CAP:
        raise CapacityError(f"direct path capped at q <= {DIRECT_Q_CAP}")


def _rounded(totals: np.ndarray, case: Callable[[int], str]) -> np.ndarray:
    """Direct sums rounded to int64, case(i) naming the sum at index i.

    Raises:
        PrecisionError: imaginary part or rounding residual >= 1e-6, naming
            the first such case.
    """
    values = np.rint(totals.real)
    residual = np.maximum(np.abs(totals.imag), np.abs(totals.real - values))
    bad = np.flatnonzero(residual >= 1e-6)
    if bad.size:
        i = bad[0]
        raise PrecisionError(f"{case(i)} residual {residual[i]:.3e} >= 1e-6")
    return values.astype(np.int64)


def ramanujan_direct(q: int, m: int) -> int:
    """c_q(m) by literal complex summation.

    The sum reads m only through r = m % q, since a*m % q == a*r % q, so
    it is _direct_totals at r.  Not keyed by gcd(|m|, q): that key would
    assume the theorem the direct route is there to check.

    Args:
        q: modulus, 1 <= q <= 10**6 (float-path cap).
        m: any integer.

    Returns:
        The rounded integer value.

    Raises:
        CapacityError: q beyond the float-path cap.
        PrecisionError: imaginary part or rounding residual >= 1e-6.
    """
    _require_direct_modulus(q)
    return int(_rounded(_direct_totals(q, np.array([m % q])), lambda i: f"c_{q}({m})")[0])


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
