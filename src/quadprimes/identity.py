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
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from . import arith, ramanujan
from .errors import CapacityError, LemmaCounterexample, PrecisionError
from .poly import PolynomialSpec, check_admissible  # noqa: F401 (re-export)
from .poly import lambda_weight, require_admissible

# Work caps keep the desk-scale checks interactive.
FLOAT_WORK_CAP = 10**9
# Entries per float-route table, about 33 MB at 33 bytes each.
FLOAT_TABLE_CAP = 10**6
ERROR_TERM_X_CAP = 10**4
# Terms per block of the float route, so no block grows with N.
_FLOAT_BLOCK = 1 << 16


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
) -> Iterator[tuple[int, float, int, int]]:
    # (n, Lambda(q n + a), full, d) for each odd n <= x with nonzero weight:
    # full is the sum of w * c_N(t - n) over points and d its diagonal
    # weight, so full - phi(N) * d drops the t = n terms.
    shift_sum = ramanujan.shift_sums(ctx, points)
    for n in range(1, ctx.x + 1, 2):
        lw = lambda_weight(spec.q * n + spec.a)
        if lw != 0.0:
            yield (n, lw, *shift_sum(n))


def rhs_linear_expansion(
    spec: PolynomialSpec, ctx: ramanujan.ModulusContext
) -> tuple[float, Optional[float]]:
    """Linear-argument expansion of the quadratic sum, exact and float paths.

    Exact path: for each odd n <= x the inner double sum over s and u
    collapses to the integer phi(N) * [s^2 = n] + c_N(s^2 - n), so the term
    is Lambda(q n + a) times an exact rational coefficient.  Float path:
    direct complex-exponential summation, each part one math.fsum over
    every term; it runs only when the triple-sum size is within
    FLOAT_WORK_CAP and N within FLOAT_TABLE_CAP, and is None otherwise.
    """
    phi_n = _checked_phi(spec, ctx)
    R = ctx.floor_sqrt_x

    weights: list[tuple[int, float]] = []
    exact_terms: list[float] = []
    squares = [(1, s * s) for s in range(1, R + 1)]
    for n, lw, full, _ in _shift_coefficients(spec, ctx, squares):
        weights.append((n, lw))
        if full:
            exact_terms.append(full / phi_n * lw)
    rhs_exact = math.fsum(exact_terms)

    work = ((ctx.x + 1) // 2) * R * phi_n
    if work > FLOAT_WORK_CAP or ctx.N > FLOAT_TABLE_CAP:
        return rhs_exact, None

    # Independent route on purpose: local tables, no shared Ramanujan code.
    # math.fsum reads the blocks of terms as one stream, so memory stays
    # bounded while each part is the correctly rounded sum of every term.
    # The table cap keeps N <= 1e6, so shift * u stays far below 2**63.
    N = ctx.N
    roots = np.fromiter((cmath.exp(2j * math.pi * k / N) for k in range(N)), complex, N)
    units = np.arange(1, N, dtype=np.int64)
    coprime = units[np.gcd(units, N) == 1]
    squares_arr = np.arange(1, R + 1, dtype=np.int64) ** 2
    step = max(1, _FLOAT_BLOCK // R)

    def blocks(table: np.ndarray) -> Iterator[list[float]]:
        for n, lw in weights:
            shifts = ((squares_arr - n) % N)[:, None]
            for start in range(0, coprime.size, step):
                yield (lw * table[shifts * coprime[start:start + step] % N]).ravel().tolist()

    imag_total = math.fsum(chain.from_iterable(blocks(roots.imag))) / phi_n
    if abs(imag_total) >= 1e-6:
        raise PrecisionError(f"imaginary residue {imag_total} in float path")
    rhs_float = math.fsum(chain.from_iterable(blocks(roots.real))) / phi_n
    return rhs_exact, rhs_float


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
    for _, lw, full, d in _shift_coefficients(spec, ctx, window):
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
    e1_terms = [coeff * lw for _, lw, full, d in _shift_coefficients(spec, ctx, signed)
                if (coeff := full - phi_n * d)]
    E1 = math.fsum(e1_terms) / phi_n
    return E0, E1


def error_term_total(spec: PolynomialSpec, ctx: ramanujan.ModulusContext) -> float:
    """Error term evaluated directly from divisor weights, no reindexing.

    For each s the weight is the Liouville sum over divisors d > 1 of s,
    computed literally.  Reconciling this against E0 + E1 checks the
    reindexing step on its own.
    """
    phi_n = _checked_phi(spec, ctx)
    if ctx.x > ERROR_TERM_X_CAP:
        raise CapacityError(f"error-term total capped at x = {ERROR_TERM_X_CAP}")
    # w(s) = sum of liouville(d) over divisors d of s with d > 1.
    weighted = []
    for s in range(1, ctx.floor_sqrt_x + 1):
        w = sum(arith.liouville(d) for d in range(2, s + 1) if s % d == 0)
        if w:
            weighted.append((w, s))

    terms = [full * lw for _, lw, full, _ in _shift_coefficients(spec, ctx, weighted) if full]
    return math.fsum(terms) / phi_n
