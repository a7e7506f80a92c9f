"""Quadratic-to-linear identity and its main/error term decompositions.

The central claim under test: the Lambda-weighted count over qn^2 + a for odd
n <= sqrt(x) can be rewritten as a sum over the linear argument qn + a for odd
n <= x against the exponential-sum square indicator at modulus N = 2p.  The
rewritten sum is then split, after a sampling step that replaces e(u s^2 / N)
by e(u s / N), into a diagonal main term M0 plus an off-diagonal M1 claimed to
vanish, and a Liouville-weighted error term E0 + E1.

Every operation here is a measurement.  The exact paths work in integer
Ramanujan values scaled by shared Lambda weights, so a failed identity is a
property of the formula and not of float noise; strict modes raise
LemmaCounterexample with the measured value attached.
"""
from __future__ import annotations

import cmath
import math
from typing import Iterator, Optional

import numpy as np

from . import arith, ramanujan, sieve
from .errors import CapacityError, LemmaCounterexample, PrecisionError
from .poly import PolynomialSpec, check_admissible  # noqa: F401 (re-export)
from .poly import lambda_weight, require_admissible

# Work caps keep the desk-scale checks interactive.
FLOAT_WORK_CAP = 10**9
# Largest N of the float route: its roots then take 16 MB and its int32
# index table below 32 MB.  Each n adds at most 24 MB more: the N-long int64
# count with one 2N-bin bincount folded into it, or the count with its
# nonzero k and their multiplicities.
FLOAT_TABLE_CAP = 10**6
ERROR_TERM_X_CAP = 10**4
# Table entries per bincount of the float route's index histogram.
_FLOAT_BLOCK = 1 << 18
# Multiplicities below this keep the products of _split's halves exact.
_SPLIT_LIMIT = 1 << 26
_HIGH_BITS = np.uint64(0xFFFFFFFFF8000000)


def make_context(x: int, regime: str = "minimal", c: float = 1.0) -> ramanujan.ModulusContext:
    """Pick a prime p > x and wrap it in a ModulusContext.

    The minimal regime takes the next prime above x.  The inflated regime
    takes the next prime at or above ceil(x * e^(c * sqrt(ln x))), matching
    the growth rate the error analysis assumes; c is unpinned upstream and
    defaults to 1.
    """
    if x < 4:
        raise ValueError("x must be >= 4")
    if regime not in ("minimal", "inflated"):
        raise ValueError(f"unknown regime {regime!r}")
    if regime == "minimal":
        p = arith.next_prime_above(x)
    else:
        if not c > 0:
            raise ValueError("c must be positive")
        target = math.ceil(x * math.exp(c * math.sqrt(math.log(x))))
        p = target if arith.is_prime(target) else arith.next_prime_above(target)
    return ramanujan.ModulusContext(x=x, p=p)


def lhs_quadratic_psi(spec: PolynomialSpec, x: int) -> tuple[float, tuple[tuple[int, float], ...]]:
    """Lambda-weighted sum over q n^2 + a for odd n <= sqrt(x), with records.

    Records are the (n, Lambda(q n^2 + a)) pairs of every odd n in range,
    including the zero-weight ones, so a report can show which terms failed
    to contribute.
    """
    require_admissible(spec, x)
    records = tuple(
        (n, lambda_weight(spec.value_at(n))) for n in range(1, math.isqrt(x) + 1, 2)
    )
    value = math.fsum(lw for _, lw in records)
    return value, records


def _checked_phi(spec: PolynomialSpec, ctx: ramanujan.ModulusContext) -> int:
    # Every expansion needs an admissible f, 64-bit arguments and an even
    # floor(sqrt(x)), checked in that order; phi(N) is its denominator.
    require_admissible(spec, ctx.x)
    ctx.require_even_floor_sqrt()
    return arith.euler_phi(ctx.N)


def _shift_coefficients(
    spec: PolynomialSpec, ctx: ramanujan.ModulusContext, points: list[tuple[int, int]]
) -> Iterator[tuple[float, int, int]]:
    # (Lambda(q n + a), full, d) for each odd n <= x with nonzero weight:
    # full is the sum of w * c_N(t - n) over points and d its diagonal
    # weight, so full - phi(N) * d drops the t = n terms.
    shift_sum = ramanujan.shift_sums(ctx, points)
    for n, lw in sieve.linear_lambda(spec, ctx.x):
        yield (lw, *shift_sum(n))


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

    The index (s^2 - n) u mod N of the float route is (s^2 u mod N) - (n u
    mod N) mod N, and table - row, row = n u mod N, lies in (0, 2N), so
    _index_counts needs no % per n.  s^2 u < R^2 N <= x N stays far below
    2**63 under the float route's caps.
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
    lw: float, counts: np.ndarray, roots: np.ndarray, imag: arith.ExactSum, real: arith.ExactSum
) -> None:
    """Add lw * roots[k], counts[k] times, for each k, to the imaginary and
    real sums, as the exact pairs hi * m, lo * m of _split.

    The distinct k go arith.EXACT_SUM_BATCH at a time, so besides k and its
    counts no temporary holds more than one batch, however large N is.
    """
    k = np.flatnonzero(counts)
    m = counts[k]
    if m.max() >= _SPLIT_LIMIT:
        raise PrecisionError(f"index multiplicity {m.max()} >= 2**26 in float path")
    for start in range(0, k.size, arith.EXACT_SUM_BATCH):
        ks = k[start:start + arith.EXACT_SUM_BATCH]
        ms = m[start:start + arith.EXACT_SUM_BATCH].astype(np.float64)
        for part, total in ((roots.imag, imag), (roots.real, real)):
            hi, lo = _split(lw * part[ks])
            total.add(hi * ms)
            total.add(lo * ms)


def rhs_linear_expansion(
    spec: PolynomialSpec, ctx: ramanujan.ModulusContext
) -> tuple[float, Optional[float]]:
    """Linear-argument expansion of the quadratic sum, exact and float paths.

    Exact path: for each odd n <= x the inner double sum over s and u
    collapses to the integer phi(N) * [s^2 = n] + c_N(s^2 - n), so the term
    is Lambda(q n + a) times an exact rational coefficient.  Float path:
    direct complex-exponential summation from an index histogram, in one
    pass over the weighted n.  For each n it counts how often each table
    index occurs, adds each distinct term once with its count through an
    exact two-float split, and feeds both parts (imaginary and real) to
    an arith.ExactSum, which rounds each once, so each is the correctly
    rounded sum of every term.  It runs only when the triple-sum size is
    within FLOAT_WORK_CAP and N within FLOAT_TABLE_CAP, and is None
    otherwise.

    The float route's index table holds R * phi(N) int32 entries.  With the
    default c the caps admit at most 1,025,520 (4.1 MB), at inflated x =
    1680, N = 51278, and 379,584 in the minimal regime, at x = 5261; at x =
    1024 it holds 32,960.  Under any c both caps together keep it below
    7.9 million entries (32 MB), near x = 256 with N near 1e6.
    """
    phi_n = _checked_phi(spec, ctx)
    R = ctx.floor_sqrt_x
    terms = _shift_coefficients(spec, ctx, [(1, s * s) for s in range(1, R + 1)])
    rhs_exact = math.fsum(full / phi_n * lw for lw, full, _ in terms if full)
    if ((ctx.x + 1) // 2) * R * phi_n > FLOAT_WORK_CAP or ctx.N > FLOAT_TABLE_CAP:
        return rhs_exact, None

    # Independent route on purpose: local tables and literal index counting,
    # no shared Ramanujan code.  For each weighted n the indices
    # (s^2 - n) * u mod N are counted once, and each distinct product
    # v = lw * roots[k], the IEEE product a term-by-term sum would add,
    # enters both parts' sums once with its multiplicity m, as the exact
    # pair hi * m, lo * m of _split.  The work cap keeps x in the sieve
    # segment the exact pass cached.
    N = ctx.N
    roots = np.fromiter((cmath.exp(2j * math.pi * k / N) for k in range(N)), complex, N)
    table, units = _index_table(N, R)
    imag, real = arith.ExactSum(), arith.ExactSum()
    for n, lw in sieve.linear_lambda(spec, ctx.x):
        _add_terms(lw, _index_counts(table, units, N, n), roots, imag, real)

    imag_total = imag.value() / phi_n
    if abs(imag_total) >= 1e-6:
        raise PrecisionError(f"imaginary residue {imag_total} in float path")
    return rhs_exact, real.value() / phi_n


def main_term_decomposition(
    spec: PolynomialSpec, ctx: ramanujan.ModulusContext, strict: bool = True
) -> tuple[float, float]:
    """Diagonal main term M0 and the off-diagonal M1 after the sampling step.

    M0 sums Lambda(q n + a) over odd n <= sqrt(x), the s = n diagonal.  M1
    sums Lambda(q n + a) * c_N(s - n) over odd n <= x and s != n, evaluated
    on the exact integer path.  The claim is M1 = 0; under strict=True any
    nonzero M1 raises LemmaCounterexample, under strict=False the measured
    value is returned.
    """
    phi_n = _checked_phi(spec, ctx)
    m0_terms: list[float] = []
    m1_terms: list[float] = []
    window = [(1, s) for s in range(1, ctx.floor_sqrt_x + 1)]
    for lw, full, d in _shift_coefficients(spec, ctx, window):
        if d:
            m0_terms.append(lw)
        if coeff := full - phi_n * d:
            m1_terms.append(coeff * lw)
    M0 = math.fsum(m0_terms)
    M1 = math.fsum(m1_terms) / phi_n
    if strict and m1_terms:
        raise LemmaCounterexample(
            "main-term-vanishing",
            {"q": spec.q, "a": spec.a, "x": ctx.x, "p": ctx.p},
            0,
            M1,
        )
    return M0, M1


def dyadic_pairs(R: int) -> list[tuple[int, int, int]]:
    """All (d, m, d*m) with 1 < d <= R and d*m <= R, ascending d then m."""
    pairs = []
    for d in range(2, R + 1):
        for m in range(1, R // d + 1):
            pairs.append((d, m, d * m))
    return pairs


def error_term_decomposition(
    spec: PolynomialSpec, ctx: ramanujan.ModulusContext
) -> tuple[float, float]:
    """Liouville-weighted error terms E0 (diagonal) and E1 (off-diagonal).

    Reindexing s = d m over divisors 1 < d of s turns the error part into a
    sum over pairs (d, m) with d m <= sqrt(x).  E0 collects the n = d m
    diagonal, E1 the rest via exact c_N values.  Capped at x <=
    ERROR_TERM_X_CAP, which bounds this pair list and error_term_total's
    divisor weights.
    """
    phi_n = _checked_phi(spec, ctx)
    if ctx.x > ERROR_TERM_X_CAP:
        raise CapacityError(f"error-term decomposition capped at x = {ERROR_TERM_X_CAP}")
    signed = [(arith.liouville(d), dm) for d, _, dm in dyadic_pairs(ctx.floor_sqrt_x)]
    E0 = math.fsum(lam * lambda_weight(spec.q * dm + spec.a) for lam, dm in signed if dm % 2)
    e1_terms = [coeff * lw for lw, full, d in _shift_coefficients(spec, ctx, signed)
                if (coeff := full - phi_n * d)]
    E1 = math.fsum(e1_terms) / phi_n
    return E0, E1


def divisor_weights(R: int) -> list[tuple[int, int]]:
    """(w(s), s) for each s <= R with nonzero w, ascending s.

    w(s) is the sum of liouville(d) over the divisors d > 1 of s, added
    literally by walking the multiples of each d, O(R log R) in all.
    """
    weights = [0] * (R + 1)
    for d in range(2, R + 1):
        lam = arith.liouville(d)
        for s in range(d, R + 1, d):
            weights[s] += lam
    return [(w, s) for s, w in enumerate(weights) if w]


def error_term_total(spec: PolynomialSpec, ctx: ramanujan.ModulusContext) -> float:
    """Error term evaluated directly from divisor weights, no reindexing.

    For each s the weight is the Liouville sum over divisors d > 1 of s,
    computed literally by divisor_weights.  Reconciling this against
    E0 + E1 checks the reindexing step on its own.
    """
    phi_n = _checked_phi(spec, ctx)
    if ctx.x > ERROR_TERM_X_CAP:
        raise CapacityError(f"error-term total capped at x = {ERROR_TERM_X_CAP}")
    weighted = divisor_weights(ctx.floor_sqrt_x)
    terms = [full * lw for lw, full, _ in _shift_coefficients(spec, ctx, weighted) if full]
    return math.fsum(terms) / phi_n
