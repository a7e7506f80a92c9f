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
LemmaCounterexample with the measured value attached.  They read the
Ramanujan values once per class of odd n and the weights as arrays, one
sieve segment at a time (_class_terms), and give the bits of a loop over n.
"""
from __future__ import annotations

import math
from itertools import chain, count
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from . import arith, ramanujan, sieve
from .errors import CapacityError, LemmaCounterexample, PrecisionError
from .poly import PolynomialSpec, check_admissible  # noqa: F401 (re-export)
from .poly import lambda_weight, require_admissible

# The float path of the linear expansion runs only where the literal triple
# sum has at most FLOAT_WORK_CAP terms and N is at most FLOAT_TABLE_CAP.
# The two caps select the grid points that carry the float-matches-exact
# case; they do not bound the path's work, which is two length-N
# transforms.
FLOAT_WORK_CAP = 10**9
FLOAT_TABLE_CAP = 10**6
ERROR_TERM_X_CAP = 10**4


def make_context(x: int, regime: str = "minimal", c: float = 1.0) -> ramanujan.ModulusContext:
    """Pick a prime p > x and wrap it in a ModulusContext.

    The minimal regime takes the next prime above x.  The inflated regime
    takes the next prime at or above ceil(x * e^(c * sqrt(ln x))), matching
    the growth rate the error analysis assumes; c is unpinned upstream and
    defaults to 1.  A c that is not finite, or whose target has no prime
    at or above it within 64 bits, is refused with ValueError naming x and c.
    """
    if x < 4:
        raise ValueError("x must be >= 4")
    if regime not in ("minimal", "inflated"):
        raise ValueError(f"unknown regime {regime!r}")
    if regime == "minimal":
        p = arith.next_prime_above(x)
    else:
        if c <= 0:
            raise ValueError("c must be positive")
        try:
            target = math.ceil(x * math.exp(c * math.sqrt(math.log(x))))
        except (OverflowError, ValueError):  # c is NaN or infinite, or the target passes float
            target = math.inf
        if target > arith.LARGEST_U64_PRIME:
            raise ValueError(f"no prime at or above x * e^(c sqrt(ln x)) within the 64-bit "
                             f"range for x={x}, c={c}")
        p = arith.next_prime_above(target - 1)
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


def _class_terms(spec: PolynomialSpec, ctx: ramanujan.ModulusContext, points: list[tuple[int, int]],
                 *factors: Callable[[int, int], float]) -> Iterator[list[np.ndarray]]:
    """Per sieve segment, for each factor f, the terms f(full, d) * Lambda(q n + a)
    of its weighted odd n, (full, d) = shift_sum(n) of ramanujan.shift_sums.

    By shift_sums' three classes each odd t of the points has its own
    (full, d) and every other odd n shares one; f makes each class's exact
    integers one float, in Python.  A term is the IEEE product a loop over n
    forms, and math.fsum rounds the terms alike in any order and with 0.0s
    among them.  Where the other n's factor is 0, only the points' n are read.
    """
    shift_sum = ramanujan.shift_sums(ctx, points)
    odd_ts = {t for _, t in points if t % 2}
    off = next(n for n in count(1, 2) if n not in odd_ts)
    off_value = shift_sum(off) if off <= ctx.x else (0, 0)  # else no odd n is off the points
    t_array = np.array(sorted(odd_ts), dtype=np.int64)
    values = [shift_sum(t) for t in t_array.tolist()]
    point_factors = [np.array([f(*value) for value in values]) for f in factors]
    off_factors = [(i, factor) for i, f in enumerate(factors) if (factor := f(*off_value))]
    for n, lw in sieve.lambda_segments(spec, ctx.x):
        at = n.searchsorted(t_array)
        found = n.searchsorted(t_array, side="right") > at
        at = at[found]
        point_lw = lw[at]
        terms = [factor[found] * point_lw for factor in point_factors]
        for i, factor in off_factors:
            term = factor * lw
            term[at] = terms[i]
            terms[i] = term
        yield terms


def _fsum(terms: Iterable[np.ndarray]) -> float:
    """math.fsum of every value of the arrays, read one array at a time."""
    return math.fsum(chain.from_iterable(term.tolist() for term in terms))


def _unit_sums(ctx: ramanujan.ModulusContext, points: list[tuple[int, int]]) -> np.ndarray:
    """F with F[n] = sum of w * e((t - n) u / N) over the (w, t) in points and
    the units u mod N, for every n < N at once, as complex floats.

    With h the point weights binned at t mod N, S = N * ifft(h) holds
    sum w * e(t u / N) at each u; zeroed off the units (the even u and the
    multiples of p), fft(S) is F.  Two length-N transforms, with no
    Ramanujan value and no gcd argument: F[n] is an integer up to rounding.
    """
    weights, shifts = zip(*points)
    h = np.bincount(np.array(shifts) % ctx.N, weights=weights, minlength=ctx.N)
    S = np.fft.ifft(h)
    del h
    S *= ctx.N
    S[::2] = 0
    S[::ctx.p] = 0
    return np.fft.fft(S)


def rhs_linear_expansion(
    spec: PolynomialSpec, ctx: ramanujan.ModulusContext
) -> tuple[float, Optional[float]]:
    """Linear-argument expansion of the quadratic sum, exact and float paths.

    Exact path: for each odd n <= x the inner double sum over s and u
    collapses to the integer phi(N) * [s^2 = n] + c_N(s^2 - n), so the term
    is Lambda(q n + a) times an exact rational coefficient.  Float path:
    the same double sum F[n] over s and the units u, for every n at once
    from two length-N transforms (_unit_sums), then the math.fsum of
    Lambda(q n + a) * F[n] over the weighted n, divided by phi(N).  It runs
    only when the triple-sum size is within FLOAT_WORK_CAP and N within
    FLOAT_TABLE_CAP, and is None otherwise.

    The float path holds a handful of N-long arrays: the bins, the
    transforms' complex arrays and F, about 41 N bytes at the peak.  numpy
    transforms N = 2p's prime factor p by Bluestein's algorithm, whose own
    work buffers come on top: in all the path raises the peak RSS by about
    150 MB at N = 996,878, near the largest N the caps admit (numpy 2.4.6).
    """
    phi_n = _checked_phi(spec, ctx)
    R = ctx.floor_sqrt_x
    points = [(1, s * s) for s in range(1, R + 1)]
    rhs_exact = _fsum(row for row, in _class_terms(spec, ctx, points, lambda full, d: full / phi_n))
    if ((ctx.x + 1) // 2) * R * phi_n > FLOAT_WORK_CAP or ctx.N > FLOAT_TABLE_CAP:
        return rhs_exact, None

    # Independent route on purpose: the exponential sums from numpy's
    # transforms, no shared Ramanujan code.  The work cap keeps x in the
    # sieve segment the exact pass cached.
    F = _unit_sums(ctx, points)
    terms = [(lw * F.imag[n], lw * F.real[n]) for n, lw in sieve.lambda_segments(spec, ctx.x)]
    imag_total = _fsum(imag for imag, _ in terms) / phi_n
    if abs(imag_total) >= 1e-6:
        raise PrecisionError(f"imaginary residue {imag_total} in float path")
    return rhs_exact, _fsum(real for _, real in terms) / phi_n


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
    window = [(1, s) for s in range(1, ctx.floor_sqrt_x + 1)]
    # Both factors are 0 off the points on an admissible spec: R / 2 terms kept.
    segments = list(_class_terms(spec, ctx, window, lambda full, d: float(d != 0),
                                 lambda full, d: float(full - phi_n * d)))
    M0 = _fsum(m0 for m0, _ in segments)
    M1 = _fsum(m1 for _, m1 in segments) / phi_n
    if strict and any(m1.any() for _, m1 in segments):
        raise LemmaCounterexample(
            "main-term-vanishing",
            {"q": spec.q, "a": spec.a, "x": ctx.x, "p": ctx.p},
            0,
            M1,
        )
    return M0, M1


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
    R = ctx.floor_sqrt_x
    liouville = {d: arith.liouville(d) for d in range(2, R + 1)}
    signed = [(lam, d * m) for d, lam in liouville.items() for m in range(1, R // d + 1)]
    E0 = math.fsum(lam * lambda_weight(spec.q * dm + spec.a) for lam, dm in signed if dm % 2)
    terms = _class_terms(spec, ctx, signed, lambda full, d: float(full - phi_n * d))
    E1 = _fsum(row for row, in terms) / phi_n
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
    terms = _class_terms(spec, ctx, divisor_weights(ctx.floor_sqrt_x), lambda full, d: float(full))
    return _fsum(row for row, in terms) / phi_n
