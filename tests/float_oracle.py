"""The literal term-by-term float sum of the linear expansion: the test oracle.

identity.rhs_linear_expansion takes its float value from two length-N
transforms.  This module keeps the route it replaced, which sums the claimed
exponential sums term by term: for each weighted odd n it counts how often
each index (s^2 - n) u mod N occurs, adds each distinct term once with its
count through an exact two-float split, and feeds both parts to an ExactSum,
which rounds each once.  So rhs_float is the correctly rounded sum of every
term, as math.fsum over all of them gives it, and its bits are pinned.  It
costs (x/2) * R * phi(N) index counts, so it serves small N only.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from exact_oracle import linear_lambda
from quadprimes import arith
from quadprimes.errors import PrecisionError

# Values per flush of an ExactSum.  A flush's bincount adds at most this
# many 27-bit halves into a float64 bin, far below the 2**26 at which such
# a sum could leave the exact integers.
EXACT_SUM_BATCH = 8192
# frexp's exponents of finite doubles run from -1073 up to 1024; bin 0 holds
# units of 2**(_LEAST_EXPONENT - 53), the least bit of a subnormal.
_LEAST_EXPONENT = -1073
_EXACT_BINS = 1024 - _LEAST_EXPONENT + 27
# Each value adds at most 2**27 in magnitude to any int64 bin, so 2**35
# values keep every bin within 2**62.  rhs_float adds fewer than 2**32
# (two per term at most, identity.FLOAT_WORK_CAP = 1e9 terms).
_EXACT_SUM_MAX_VALUES = 1 << 35
# Table entries per bincount of the index histogram.
_FLOAT_BLOCK = 1 << 18
# Multiplicities below this keep the products of _split's halves exact.
_SPLIT_LIMIT = 1 << 26
_HIGH_BITS = np.uint64(0xFFFFFFFFF8000000)


class ExactSum:
    """The exact sum of finite float64 values, rounded once by value().

    Each value is split by np.frexp into a 53-bit integer significand and an
    exponent, and the significand into a 26-bit low half and a 27-bit high
    half; np.bincount adds each half into the int64 bin of its least bit's
    exponent (R. M. Neal, Fast exact summation using small and large
    superaccumulators, arXiv:1505.05571).  value() adds the bins as one
    Python int and divides once by a power of two, and Python's int
    division rounds correctly, half to even, so the result is the
    correctly rounded sum of every value, as math.fsum gives it.  Values
    are binned EXACT_SUM_BATCH at a time; at most 2**35 may be added.
    """

    def __init__(self) -> None:
        self._bins = np.zeros(_EXACT_BINS, dtype=np.int64)
        self._pending: list[np.ndarray] = []
        self._pending_size = 0
        self._added = 0

    def add(self, values: np.ndarray) -> None:
        """Add a float64 array of finite values."""
        self._pending.append(values)
        self._pending_size += values.size
        if self._pending_size >= EXACT_SUM_BATCH:
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        values = self._pending[0] if len(self._pending) == 1 else np.concatenate(self._pending)
        self._pending, self._pending_size = [], 0
        self._added += values.size
        if self._added > _EXACT_SUM_MAX_VALUES:
            raise OverflowError(f"ExactSum holds at most {_EXACT_SUM_MAX_VALUES} values")
        for start in range(0, values.size, EXACT_SUM_BATCH):
            # |mantissa| is 0 or in [1/2, 1), so scaled is 0 or in [2**26,
            # 2**27) in magnitude: its floor is the high half, and scaled -
            # high, exact, is the low half over 2**26.
            mantissa, exponent = np.frexp(values[start:start + EXACT_SUM_BATCH])
            scaled = mantissa * 2.0**27
            high = np.floor(scaled)
            low = (scaled - high) * 2.0**26
            least = int(exponent.min())
            bins = exponent - np.int32(least)
            least -= _LEAST_EXPONENT
            low = np.bincount(bins, weights=low).astype(np.int64)
            high = np.bincount(bins, weights=high).astype(np.int64)
            self._bins[least:least + low.size] += low
            self._bins[least + 26:least + 26 + high.size] += high

    def value(self) -> float:
        """The correctly rounded sum of every value added, 0.0 if it is zero."""
        self._flush()
        used = np.flatnonzero(self._bins)
        if not used.size:
            return 0.0
        least = int(used[0])
        total = sum(int(self._bins[i]) << (int(i) - least) for i in used)
        scale = least + _LEAST_EXPONENT - 53
        return total / (1 << -scale) if scale < 0 else float(total << scale)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo == v exactly, hi being v with its low 27 significand bits cleared.

    hi has at most 26 significant bits and lo at most 27, so for any integer
    m < 2**26 both hi * m and lo * m are exact (short of overflow), and
    hi * m + lo * m is exactly v * m.
    """
    hi = (v.view(np.uint64) & _HIGH_BITS).view(np.float64)
    return hi, v - hi


def _index_table(N: int, R: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, units): the units u < N coprime to N as int64, and the int32
    table s^2 u mod N + N for s = 1 .. R, one row per s.

    The index (s^2 - n) u mod N is (s^2 u mod N) - (n u mod N) mod N, and
    table - row, row = n u mod N, lies in (0, 2N), so _index_counts needs no
    % per n.  s^2 u < R^2 N <= x N stays far below 2**63 at the sizes the
    tests run.
    """
    units = np.arange(1, N, dtype=np.int64)
    units = units[np.gcd(units, N) == 1]
    table = np.empty((R, units.size), dtype=np.int32)
    for s in range(1, R + 1):
        table[s - 1] = (units * (s * s) % N + N).astype(np.int32)
    return table, units


def _index_counts(table: np.ndarray, units: np.ndarray, N: int, n: int) -> np.ndarray:
    """How often each index k < N occurs as (s^2 - n) u mod N over the table.

    Bincounts of table - row over 2N bins, each folded in place into one
    N-long int64 count.  At most _FLOAT_BLOCK entries go to each bincount,
    so its temporaries stay small however large the table is.
    """
    row = (units * n % N).astype(np.int32)
    rows = max(1, _FLOAT_BLOCK // units.size)
    counts = np.zeros(N, dtype=np.int64)
    for start in range(0, table.shape[0], rows):
        halves = np.bincount((table[start:start + rows] - row).ravel(), minlength=2 * N)
        counts += halves[:N]
        counts += halves[N:]
        del halves  # before the next block's bincount
    return counts


def _add_terms(
    lw: float, counts: np.ndarray, roots: np.ndarray, imag: ExactSum, real: ExactSum
) -> None:
    """Add lw * roots[k], counts[k] times, for each k, to the imaginary and
    real sums, as the exact pairs hi * m, lo * m of _split.

    The distinct k go EXACT_SUM_BATCH at a time, so besides k and its counts
    no temporary holds more than one batch, however large N is.
    """
    k = np.flatnonzero(counts)
    m = counts[k]
    if m.max() >= _SPLIT_LIMIT:
        raise PrecisionError(f"index multiplicity {m.max()} >= 2**26 in float path")
    for start in range(0, k.size, EXACT_SUM_BATCH):
        ks = k[start:start + EXACT_SUM_BATCH]
        ms = m[start:start + EXACT_SUM_BATCH].astype(np.float64)
        for part, total in ((roots.imag, imag), (roots.real, real)):
            hi, lo = _split(lw * part[ks])
            total.add(hi * ms)
            total.add(lo * ms)


def rhs_float(spec, ctx) -> float:
    """The float value of the linear expansion as the correctly rounded sum
    of lw * e((s^2 - n) u / N) over the weighted odd n <= x, s <= floor(sqrt
    x) and the units u mod N, divided by phi(N).

    Each distinct product v = lw * roots[k], the IEEE product a term-by-term
    sum would add, enters both parts' sums once with its multiplicity m, as
    the exact pair hi * m, lo * m of _split.  Raises PrecisionError when the
    imaginary part reaches 1e-6 or a multiplicity reaches _SPLIT_LIMIT.
    """
    N, R = ctx.N, ctx.floor_sqrt_x
    phi_n = arith.euler_phi(N)
    roots = np.fromiter((cmath.exp(2j * math.pi * k / N) for k in range(N)), complex, N)
    table, units = _index_table(N, R)
    imag, real = ExactSum(), ExactSum()
    for n, lw in linear_lambda(spec, ctx.x):
        _add_terms(lw, _index_counts(table, units, N, n), roots, imag, real)

    imag_total = imag.value() / phi_n
    if abs(imag_total) >= 1e-6:
        raise PrecisionError(f"imaginary residue {imag_total} in float path")
    return real.value() / phi_n
