"""Large-scale counts over f(t) = q t^2 + a and conjectured densities.

The weighted count psi2 finds the odd n <= sqrt(x) with f(n) a prime power
by sieve.prime_power_values, which sieves f over the odd n with the roots of
f mod each prime, from 2,048 odd n on.  A shorter scan tests each f(n) with
arith.prime_power_base (primality plus perfect powers), which stays the
sieve's oracle.  Neither route factors values the way the identity module
does, so the two paths stay independent cross-checks.  One exact tally
adds the hits' log terms as a Python int of units of 2**-53 and reads it
at each n_max asked for: psi2_count and count_primes_poly at one,
compare_asymptotic at each row's sqrt(x).  Density constants come from
truncated Euler products over odd primes in two variants that differ in
their denominator convention; both are computed rather than picking one,
in one pass over the primes, with the characters (-a q | p) of
arith.class_characters, which the sieve's roots read too.
compare_asymptotic tabulates the measured psi2 against the predicted
(c_f / 2) * sqrt(x) curve.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import arith, sieve
from .errors import CapacityError
from .poly import PolynomialSpec, require_admissible, require_range

DEFAULT_EULER_CUTOFF = 10**6
EULER_CUTOFF_MAX = 10**8
# count_primes_poly runs one Miller-Rabin test per n and keeps every hit.
# The count command for t^2 + 1 took 5.0 s and 45 MB peak RSS at n_max =
# 1e6, and 58.6 s and 164 MB at 1e7, on a 2-core VM.  At those rates, about
# 6 us and 13 bytes per n, the cap is about ten minutes and 1.3 GB.
COUNT_N_MAX = 10**8
# psi2_count and compare_asymptotic scan the odd n up to sqrt(x): for
# 4n^2 + 1, 79.2 s and 128 MB peak RSS at x = 1e15, and 200 s and 129 MB at
# the cap, on a 2-core VM.
PSI2_X_MAX = 3 * 10**15
# Largest steps of a comparison table: its schedule evaluates the power
# once per step, at most 0.2-0.3 s at the cap, and keeps at most steps rows.
# compare --output json took about 1 KB of peak RSS and 25 us per row (242
# MB and 5.6 s for 209,964 rows at x_max = 1e12), so at the cap memory
# binds: about 1 GB.
COMPARE_ROWS_MAX = 10**6

# Scans of fewer odd n test each value instead of sieving: below about this
# many the sieve's fixed cost, the roots of every prime up to sqrt(f), is
# more than the Miller-Rabin calls it saves.  For 4n^2 + 1 on a 2-core VM,
# 500 odd n take 2.9 ms sieved and 1.1 ms per value, 1,500 about 3.5 ms
# either way, and 3,000 take 4.6 against 9.2 ms.
_SIEVE_MIN_ODD_N = 2048


@dataclass(frozen=True)
class CountResult:
    """Outcome of a counting run over f(n) = q n^2 + a.

    Attributes:
        spec: the polynomial counted.
        n_max: largest n examined.
        psi_value: sum of ln(base prime) over prime-power hits.
        prime_count: hits with exponent exactly 1.
        hits: optional (n, f(n), base_prime, exponent) tuples, ascending n.
    """

    spec: PolynomialSpec
    n_max: int
    psi_value: float
    prime_count: int
    hits: Optional[tuple[tuple[int, int, int, int], ...]]


@dataclass(frozen=True)
class EulerProductReport:
    """Truncated Euler product for the density constant of f."""

    spec: PolynomialSpec
    variant: str
    cutoff: int
    epsilon: Fraction
    estimate: float
    trace: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class ComparisonRow:
    """One empirical-versus-conjectured entry of a comparison table."""

    x: int
    psi2: float
    conjectured: float
    ratio: float


def _prime_power_hits(spec: PolynomialSpec, n_max: int) -> Iterator[tuple[int, int, int, int]]:
    """(n, f(n), base prime, exponent) for each odd n <= n_max with f(n) a
    prime power: from sieve.prime_power_values from _SIEVE_MIN_ODD_N odd n
    on, else from _per_value_hits."""
    if (n_max + 1) // 2 >= _SIEVE_MIN_ODD_N:
        return sieve.prime_power_values(spec, n_max)
    return _per_value_hits(spec, n_max)


def _per_value_hits(spec: PolynomialSpec, n_max: int) -> Iterator[tuple[int, int, int, int]]:
    """The hits one value at a time by arith.prime_power_base: the sieve's oracle."""
    for n in range(1, n_max + 1, 2):
        value = spec.value_at(n)
        if value < 2:
            continue
        pp = arith.prime_power_base(value)
        if pp is not None:
            yield (n, value, *pp)


def _tally(
    hits: Iterable[tuple[int, int, int, int]], n_maxes: Iterable[int]
) -> Iterator[tuple[float, int]]:
    """(psi, prime count) over the hits with n <= n_max, for each ascending
    n_max, reading the (n, f(n), base prime, exponent) hits once; no hit
    may lie past the last n_max.

    Each log term is ln p >= ln 2 > 1/2, a double whose last bit is worth
    at least 2**-53, so it is a whole number of units of 2**-53 and one
    Python int adds the terms exactly (R. M. Neal's integer bins, arXiv:
    1505.05571, with one bin).  int / int is correctly rounded, half to
    even, so each psi has math.fsum's bits over the same terms.
    """
    units = primes = 0
    n_maxes = iter(n_maxes)
    n_max = next(n_maxes)
    for n, _, base, exponent in hits:
        if n > n_max:
            # One division serves every row before this hit.
            row = units / 2**53, primes
            while n > n_max:
                yield row
                n_max = next(n_maxes)
        units += int(math.log(base) * 2.0**53)
        if exponent == 1:
            primes += 1
    row = units / 2**53, primes
    yield row
    for _ in n_maxes:
        yield row


def _count_result(
    spec: PolynomialSpec, n_max: int, hits: Iterator[tuple[int, int, int, int]], collect: bool
) -> CountResult:
    """The CountResult of (n, f(n), base prime, exponent) hits with n <= n_max."""
    kept = tuple(hits) if collect else None
    psi_value, prime_count = next(_tally(hits if kept is None else kept, [n_max]))
    return CountResult(spec, n_max, psi_value, prime_count, kept)


def psi2_count(spec: PolynomialSpec, x: int, collect_hits: bool = False) -> CountResult:
    """Lambda-weighted count of prime-power values f(n) over odd n <= sqrt(x).

    The hits come from _prime_power_hits: the quadratic sieve for scans of
    2,048 odd n or more, per-value primality and perfect-power tests
    otherwise, with the same hits either way.  This is the scale path,
    independent of the factorization-backed identity path.  An x above
    PSI2_X_MAX is refused with CapacityError before any scan.
    """
    require_admissible(spec, x)
    if x > PSI2_X_MAX:
        raise CapacityError(f"x capped at {PSI2_X_MAX}")
    n_max = math.isqrt(x)
    return _count_result(spec, n_max, _prime_power_hits(spec, n_max), collect_hits)


def linear_psi_odd(spec: PolynomialSpec, X: int) -> tuple[float, float]:
    """Lambda sum over q n + a for odd n <= X, with its lower-bound reference.

    Returns (value, reference) where reference = (q / (2 phi(q))) * X, the
    progression-density comparison line.
    """
    require_admissible(spec, X, "X")
    value = math.fsum(chain.from_iterable(lw.tolist() for _, lw in sieve.lambda_segments(spec, X)))
    reference = spec.q * X / (2 * arith.euler_phi(spec.q))
    return value, reference


def count_primes_poly(spec: PolynomialSpec, n_max: int) -> CountResult:
    """All n <= n_max with f(n) prime, admissible or not; an n_max above
    COUNT_N_MAX is refused with CapacityError before any test runs.

    Inadmissible specs are allowed here on purpose: counting primes in a
    family like t^2 + 1 is meaningful even though the parity hypothesis of
    the quadratic-to-linear machinery excludes q = 1.
    """
    require_range(spec, n_max, "n_max", n_max * n_max)
    if n_max > COUNT_N_MAX:
        raise CapacityError(f"n_max capped at {COUNT_N_MAX}")
    hits = ((n, value, value, 1) for n in range(1, n_max + 1)
            if (value := spec.value_at(n)) >= 2 and arith.is_prime(value))
    return _count_result(spec, n_max, hits, collect=True)


def epsilon_factor(q: int) -> Fraction:
    """Front factor of the density constant: 1/2 for odd q, 1 for even q."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return Fraction(1, 1) if q % 2 == 0 else Fraction(1, 2)


def euler_products(
    spec: PolynomialSpec, cutoff: int, variants: Sequence[str]
) -> tuple[EulerProductReport, ...]:
    """Truncated Euler products over odd primes p <= cutoff, one report per
    convention in variants, from one pass over the primes.

    Two conventions are implemented side by side rather than reconciled:

        paper: epsilon * prod of p/(p-1) for p | q, else (1 - chi(p)/p)
        hl:    prod of p/(p-1) for p | q, else (1 - chi(p)/(p-1))

    with chi(p) the Legendre symbol (-a q | p).  Only the "hl" variant
    reproduces the reference value 1.37281346 for t^2 + 1; the "paper"
    variant is kept as reported data.  The trace samples the partial
    product after each power of ten.

    The primes come in sieve blocks.  Each block's primes, characters,
    p | q mask and trace positions serve every convention; each convention
    then builds its own factors, one convention at a time.  chi comes from
    arith.class_characters, the Legendre symbol the quadratic sieve reads
    too: by Jacobi reciprocity chi(p) depends only on p mod 4|a q|, so
    Euler's criterion runs once per class of that period and a table serves
    the later primes, while 4|a q| <= arith.SEGMENT_SIZE; past that bound,
    or for a = 0, it runs on every prime.  Each factor is
    one IEEE operation on exact integers, and np.multiply.accumulate
    multiplies strictly in sequence, so every partial product equals the
    prime-by-prime loop's.
    """
    if cutoff < 3:
        raise ValueError("cutoff must be >= 3")
    if cutoff > EULER_CUTOFF_MAX:
        raise CapacityError(f"cutoff capped at {EULER_CUTOFF_MAX}")
    for variant in variants:
        if variant not in ("paper", "hl"):
            raise ValueError(f"unknown variant {variant!r}")

    epsilon = epsilon_factor(spec.q)
    character_of_one = spec.q == 1 and spec.a == 1
    products = [float(epsilon) if variant == "paper" else 1.0 for variant in variants]
    traces: list[list[tuple[int, float]]] = [[] for _ in variants]
    marks = [10**k for k in range(1, 9) if 10**k <= cutoff]
    last_prime = 0
    characters = arith.class_characters(-spec.a * spec.q)

    for block in arith.prime_blocks(cutoff):
        primes = block[block != 2]
        if not primes.size:
            continue
        as_float = primes.astype(np.float64)
        chi = characters(primes).astype(np.float64)
        divides_q = arith.residues(spec.q, primes) == 0
        # The marks this block passes, and how many of its primes precede
        # each: the partial product just before the first prime past it.
        passed = bisect.bisect_left(marks, primes[-1])
        stops = np.searchsorted(primes, marks[:passed], side="right")
        mark_primes = np.where(stops, primes[stops - 1], last_prime).tolist()
        del marks[:passed]
        for j, variant in enumerate(variants):
            denominator = as_float if variant == "paper" else as_float - 1.0
            factors = np.where(divides_q, as_float / (as_float - 1.0), 1.0 - chi / denominator)
            if character_of_one and variant == "hl":
                # For t^2 + 1 the factor must straddle 1 according to p mod 4.
                wrong = np.flatnonzero((factors < 1.0) != (primes % 4 == 1))
                if wrong.size:
                    i = wrong[0]
                    raise ArithmeticError(
                        f"factor {float(factors[i])} on wrong side of 1 at p={int(primes[i])}"
                    )
            partials = np.multiply.accumulate(np.concatenate(([products[j]], factors)))
            traces[j].extend(zip(mark_primes, partials[stops].tolist()))
            products[j] = float(partials[-1])
            # Free this convention's arrays before the next one's.
            del denominator, factors, partials
        last_prime = int(primes[-1])

    # A mark's prime precedes a prime of its block, so the last prime of
    # all closes every trace.
    return tuple(
        EulerProductReport(spec, variant, cutoff, epsilon, product, (*trace, (last_prime, product)))
        for variant, product, trace in zip(variants, products, traces)
    )


def bateman_horn_constant(
    spec: PolynomialSpec, cutoff: int, variant: str = "hl"
) -> EulerProductReport:
    """The truncated Euler product over odd primes p <= cutoff in one
    convention, "hl" or "paper" (see euler_products)."""
    return euler_products(spec, cutoff, (variant,))[0]


def _schedule(x_max: int, steps: int) -> list[int]:
    """The rows of a comparison table: each new value of round(x_max ** (i /
    steps)), i = 1 .. steps, in order, the last one set to x_max."""
    xs: list[int] = []
    for i in range(1, steps + 1):
        x = round(x_max ** (i / steps))
        if not xs or x > xs[-1]:
            xs.append(x)
    xs[-1] = x_max
    return xs


def compare_asymptotic(
    spec: PolynomialSpec,
    x_max: int,
    steps: int,
    cutoff: int = DEFAULT_EULER_CUTOFF,
) -> list[ComparisonRow]:
    """Measured psi2 against (c_f / 2) * sqrt(x) at geometrically spaced x.

    The constant is the hl-variant product at the given cutoff, the only
    convention that matches the stated numeric value for t^2 + 1.  The odd
    n up to sqrt(x_max) are scanned once, and one exact tally is read at
    each row's sqrt(x), so each row's psi2 is psi2_count(spec, x)'s bit for
    bit and the table costs the scan plus the rows.  The rows are _schedule's,
    one power per step.  An x_max above PSI2_X_MAX, or steps above
    COMPARE_ROWS_MAX, is refused with CapacityError before any work.
    """
    require_admissible(spec, x_max, "x_max")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if x_max > PSI2_X_MAX:
        raise CapacityError(f"x_max capped at {PSI2_X_MAX}")
    if steps > COMPARE_ROWS_MAX:
        raise CapacityError(f"rows capped at {COMPARE_ROWS_MAX}: steps = {steps}")

    constant = bateman_horn_constant(spec, cutoff, "hl").estimate
    xs = _schedule(x_max, steps)
    # One scan of the odd n up to sqrt(x_max), tallied at each row's sqrt(x).
    hits = _prime_power_hits(spec, math.isqrt(x_max))
    rows: list[ComparisonRow] = []
    for x, (psi, _) in zip(xs, _tally(hits, [math.isqrt(x) for x in xs])):
        conjectured = 0.5 * constant * math.sqrt(x)
        rows.append(ComparisonRow(x=x, psi2=psi, conjectured=conjectured, ratio=psi / conjectured))
    return rows
