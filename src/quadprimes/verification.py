"""Verification suites that tabulate counterexamples instead of raising.

Each suite runs a family of checks, counts cases, and collects structured
counterexamples.  A suite never stops at the first failure; the point is an
exhaustive inventory, which the CLI then turns into an exit code.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import arith, asymptotics, identity, indicator, ramanujan, sieve
from .errors import CapacityError, LemmaCounterexample

# Shared identity-check grid: every admissible pair crossed with every x.
IDENTITY_PAIRS = ((4, 1), (2, 1), (3, 2), (5, 2), (8, 3))
IDENTITY_X_VALUES = (16, 36, 100, 144)
# Bound on verify_ramanujan's work, q_max (q_max + 1) / 2: the terms of one
# length-q direct pass, a transform or a gather, per modulus.  The sweep
# checks each class (q, m mod q) once, at most q of them per q whatever
# m_max is, in blocks of bounded memory.  On a 2-core VM the slowest
# admitted sweep, (19,999, m_max >= q_max / 2), took 60 s with 35 MB max
# RSS, and (19,999, 0) 17.9 s; q_max = 20,000 is the first refused.
DIRECT_WORK_CAP = 2 * 10**8
# Cells, one per class (q, m mod q), of one block of moduli in verify_ramanujan.
_CLASS_BLOCK = 1 << 14
# Counterexample rows verify_parity and verify_char may build, counted on the
# odd n a sweep may visit before any row is.  With --output json both took
# about 20-30 us and 1.1-1.3 KB of peak RSS per row on a 2-core VM: parity
# 21.5 s, 1.1 GB and 202 MB of JSON at the bound, reached at x =
# 1,000,002,000,000; char 4.2 s and 290 MB at 200,000 rows, so about 21 s and
# 1.3 GB at its bound, x = 4,000,004,000,000.
ROWS_MAX = 10**6
# Largest x of the identity, main-term and error-term grids: the exact paths
# sieve q n + a up to x, 0.05 to 0.07 us per x at x = 1e6 to 4e7 on a 2-core
# VM, so about half a minute at the cap and a minute at 1e9, which is refused.
IDENTITY_X_MAX = 5 * 10**8
# Largest limit of verify_liouville: 1.26-1.32 s at 1e8 on a 2-core VM, 13 ns
# per n or 0.83-0.86 ms per segment of 65,536 n, with 32 MB max RSS.  The
# rate per segment is flat in the limit (0.8-0.96 ms from 1e8 to 4e10), so
# about two minutes at the cap, near three when the host runs slow.
LIOUVILLE_LIMIT_MAX = 10**10


@dataclass(frozen=True)
class Counterexample:
    """One failed check with its inputs and both sides of the disagreement."""

    inputs: dict[str, Any]
    expected: Any
    actual: Any


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    cases_run: int
    cases_passed: int
    counterexamples: tuple[Counterexample, ...]

    @property
    def all_passed(self) -> bool:
        return self.cases_passed == self.cases_run


def _report(suite: str, cases_run: int, rows: Iterable[Counterexample]) -> VerificationReport:
    """The report of cases_run cases, each of the rows one that failed."""
    rows = tuple(rows)
    return VerificationReport(suite, cases_run, cases_run - len(rows), rows)


def _tally(suite: str, outcomes: Iterable[Optional[Counterexample]]) -> VerificationReport:
    """One case per outcome; the outcomes that are not None are the rows, in order."""
    outcomes = list(outcomes)
    return _report(suite, len(outcomes), (row for row in outcomes if row is not None))


def _caught(check: Callable[..., object], *args: Any) -> Optional[Counterexample]:
    """Run a strict check: None when it passes, its counterexample as a row when not."""
    try:
        check(*args)
    except LemmaCounterexample as exc:
        return Counterexample(inputs=dict(exc.inputs), expected=exc.expected, actual=exc.actual)
    return None


def _require_rows(suite: str, rows: int) -> None:
    """Refuse a sweep that may visit more than ROWS_MAX odd n."""
    if rows > ROWS_MAX:
        raise CapacityError(f"{suite} rows capped at {ROWS_MAX}; this sweep needs {rows}")


def _divisor_row(q: int, m_max: int, size: int, mu: np.ndarray) -> np.ndarray:
    """The divisor sums of q at its first size m of the sweep, m = -m_max +
    j: mu(q/d) * d added at every j with d | m, that is j = m_max mod d,
    one strided add per divisor d of q."""
    row = np.zeros(size, dtype=np.int64)
    small = [d for d in range(1, math.isqrt(q) + 1) if q % d == 0]
    for d in {*small, *(q // d for d in small)}:
        if mu[q // d]:
            row[m_max % d::d] += mu[q // d] * d
    return row


def _class_rows(lo: int, hi: int, m_max: int, mu: np.ndarray,
                phi: np.ndarray) -> Iterator[Counterexample]:
    """verify_ramanujan's rows for lo <= q <= hi, in (q, m) order.

    The cells are each q's first min(q, 2 m_max + 1) m of the sweep, one per
    class (q, m mod q) it meets; each failing cell is a row at every m of
    its class.
    """
    width = 2 * m_max + 1
    moduli = np.arange(lo, hi + 1, dtype=np.int64)
    sizes = np.minimum(moduli, width)
    starts = np.cumsum(sizes) - sizes
    q = np.repeat(moduli, sizes)
    m = np.arange(q.size, dtype=np.int64) - np.repeat(starts, sizes) - m_max
    k = q // np.gcd(m, q)  # q / gcd(|m|, q)
    guard = np.flatnonzero((mu[k] != 0) & (phi[q] % phi[k] != 0))
    if guard.size:
        i = guard[0]
        raise ArithmeticError(f"phi({q[i]}) not divisible by phi({k[i]})")
    closed = mu[k] * (phi[q] // phi[k])
    direct = ramanujan.direct_cells(q, m)
    divisor = np.concatenate([_divisor_row(modulus, m_max, size, mu)
                              for modulus, size in zip(moduli.tolist(), sizes.tolist())])
    failing = np.flatnonzero((closed != divisor) | (closed != direct)).tolist()
    for modulus, cells in itertools.groupby(failing, key=lambda i: int(q[i])):
        classes = [(int(m[i]), int(direct[i]), int(closed[i]), int(divisor[i])) for i in cells]
        for shift in range(0, width, modulus):
            for first, *values in classes:
                if first + shift <= m_max:
                    yield Counterexample(
                        inputs={"q": modulus, "m": first + shift},
                        expected="direct = closed = divisor",
                        actual=dict(zip(("direct", "closed", "divisor"), values)),
                    )


def verify_ramanujan(q_max: int = 300, m_max: int = 300) -> VerificationReport:
    """Three-way agreement of the direct, closed-form, and divisor sums at
    every 1 <= q <= q_max and |m| <= m_max, checked once per class (q, m mod q).

    The report equals one check per (q, m).  Two facts of plain arithmetic,
    not the Ramanujan-sum theorem under test, make a class's verdict its
    first m's: the direct sum reads m only through m mod q (a*m = a*r mod
    q), and the other two routes read it only through gcd(|m|, q), which is
    gcd(m mod q, q).  So each q checks its first min(q, 2 m_max + 1) m, one
    per class, and a failing class is a row at every m of it.  The moduli go
    in blocks of about _CLASS_BLOCK cells, and mu and phi come from one
    table on 0..q_max, so memory stays bounded at any m_max.  A sweep of
    more than DIRECT_WORK_CAP terms, q_max (q_max + 1) / 2, or of a width
    2 m_max + 1 past int64, is refused with CapacityError before any work.
    """
    if q_max < 1 or m_max < 0:
        raise ValueError("q_max must be >= 1 and m_max >= 0")
    work, width = q_max * (q_max + 1) // 2, 2 * m_max + 1
    # The work cap refuses q_max from 20,000 on, far below ramanujan.DIRECT_Q_CAP.
    if work > DIRECT_WORK_CAP or width > np.iinfo(np.int64).max:
        raise CapacityError(f"direct sums capped at {DIRECT_WORK_CAP} terms, q_max (q_max + 1) "
                            f"/ 2, and an int64 width 2 m_max + 1; this sweep needs {work} "
                            f"terms and width {width}")

    mu, phi = arith.mobius_phi_tables(q_max)
    rows: list[Counterexample] = []
    lo = 1
    while lo <= q_max:
        hi, cells = lo, min(lo, width)
        while hi < q_max and cells + min(hi + 1, width) <= _CLASS_BLOCK:
            hi += 1
            cells += min(hi, width)
        rows += _class_rows(lo, hi, m_max, mu, phi)
        lo = hi + 1
    return _report("ramanujan", q_max * width, rows)


def _class_outcome(
    R: int, c1: int, c2: int, z: Optional[int]
) -> Optional[tuple[Optional[int], int, int]]:
    """ramanujan.parity_sum's verdict at an odd n from the class values, as
    None or (s, expected, actual), s None for the sum-value check.

    For odd n and 0 < |shift| < p the term at odd s is c_N(2) against -1
    and the term at even s is c_N(1) against +1, in both modes, since s and
    s*s share a parity.  So the verdict reads n only through its zero shift
    z, the s skipped (None if no s is): the first failing sign is the least
    s != z of a failing class, and the total counts each class without z.
    """
    # Per class: its least s != z, the value of its terms, their predicted sign.
    classes = ((3 if z == 1 else 1, c2, -1), (4 if z == 2 else 2, c1, 1))
    failing = [(s, value, predicted) for s, value, predicted in classes
               if value != predicted and s <= R]
    if failing:
        s, value, predicted = min(failing)
        return s, predicted, value
    z_odd, z_even = z is not None and z % 2 == 1, z is not None and z % 2 == 0
    total = c2 * ((R + 1) // 2 - z_odd) + c1 * (R // 2 - z_even)
    claimed = 0 if R % 2 == 0 else -1
    return None if total == claimed else (None, claimed, total)


def verify_parity(x: int, regime: str = "minimal", c: float = 1.0) -> VerificationReport:
    """Parity sign and sum-value checks for both shift modes at every odd n.

    The report equals one ramanujan.parity_sum per (n, mode), without its
    per-term work: a verdict reads n only through its zero shift (see
    _class_outcome), n in linear mode when n <= floor(sqrt(x)) and isqrt(n)
    in quadratic mode when n is a square.  The outcome without a zero shift
    is worked out once from c_N(1) and c_N(2).  When it passes, only the n
    with a zero shift are visited; when it fails, every odd n is a row.  A
    sweep of more than ROWS_MAX possible rows (_require_rows) is refused
    with CapacityError before any row is built.
    """
    ctx = identity.make_context(x, regime, c)
    R = ctx.floor_sqrt_x
    c1, c2 = (ramanujan.ramanujan_closed(ctx.N, m) for m in (1, 2))
    odd_s, odd_n = range(1, R + 1, 2), range(1, x + 1, 2)
    if _class_outcome(R, c1, c2, None) is None:
        # Only an n with a zero shift can fail: n = s, or n = s*s, for odd s.
        rows = 2 * len(odd_s)
        cases = {"linear": ((s, s) for s in odd_s), "quadratic": ((s * s, s) for s in odd_s)}
    else:
        rows = 2 * len(odd_n)
        cases = {"linear": ((n, n if n <= R else None) for n in odd_n),
                 "quadratic": ((n, k if (k := math.isqrt(n)) * k == n else None) for n in odd_n)}
    _require_rows("parity", rows)
    counterexamples = []
    for mode, mode_cases in cases.items():
        for n, z in mode_cases:
            if (outcome := _class_outcome(R, c1, c2, z)) is not None:
                s, expected, actual = outcome
                inputs = {"x": x, "p": ctx.p, "n": n, "mode": mode} if s is None else \
                    {"x": x, "p": ctx.p, "s": s, "n": n, "mode": mode}
                counterexamples.append(Counterexample(inputs, expected, actual))
    return _report("parity", 2 * len(odd_n), counterexamples)


def _char_outcome(ctx: ramanujan.ModulusContext, n: int) -> Optional[tuple[Any, Any]]:
    """indicator.square_char_exp at odd n against the integer-root oracle:
    None when they agree, else the (expected, actual) of n's row."""
    try:
        actual = indicator.square_char_exp(ctx, n)
    except LemmaCounterexample as exc:
        return exc.expected, exc.actual
    expected = indicator.square_char_isqrt(n)
    return None if actual == expected else (expected, actual)


def verify_char(x: int, regime: str = "minimal", c: float = 1.0) -> VerificationReport:
    """Exponential-sum square indicator against the integer-root oracle at
    every odd n <= x.

    The report equals one indicator.square_char_exp per odd n, checked
    against indicator.square_char_isqrt, without the per-n work: through
    ramanujan.shift_sums the value reads an odd n only through whether n is
    a square, so n = 1 stands for the odd squares and n = 3 for the rest.
    When the non-squares pass, only the odd squares s*s are visited; when
    they fail, every odd n is, and each row is its class's row at n.  A
    sweep that may visit more than ROWS_MAX odd n is refused with
    CapacityError: the floor(sqrt(x)) / 2 odd squares before either class
    is evaluated, every odd n only once the non-squares fail.
    """
    ctx = identity.make_context(x, regime, c)
    ctx.require_even_floor_sqrt()
    odd_s = range(1, ctx.floor_sqrt_x + 1, 2)
    _require_rows("char", len(odd_s))
    square, other = (_char_outcome(ctx, n) for n in (1, 3))
    if other is None:
        cases = ((s * s, square) for s in odd_s)
    else:
        _require_rows("char", (x + 1) // 2)
        cases = ((n, square if indicator.square_char_isqrt(n) else other)
                 for n in range(1, x + 1, 2))
    rows = (Counterexample({"x": x, "p": ctx.p, "n": n}, *row)
            for n, row in cases if row is not None)
    return _report("char", (x + 1) // 2, rows)


def verify_liouville(limit: int = 10**5) -> VerificationReport:
    """Exponent-parity square indicator against the squares themselves.

    sieve.square_flags reads the parities for n <= limit from each n's
    squarefree kernel, a segment at a time; square_char_liouville reads them
    from n's own factorization.  Each segment's reference marks the squares
    k*k in it, k from math.isqrt at its two ends, so it is exact at any
    limit and shares nothing with the sieve; square_char_isqrt per n is its
    oracle.  Rows are built only where the two disagree.  A limit above
    LIOUVILLE_LIMIT_MAX is refused with CapacityError before any segment.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > LIOUVILLE_LIMIT_MAX:
        raise CapacityError(f"liouville limit capped at {LIOUVILLE_LIMIT_MAX}; this one is {limit}")
    rows: list[Counterexample] = []
    for start, flags in sieve.square_flags(limit):
        roots = np.arange(math.isqrt(start - 1) + 1, math.isqrt(start + flags.size - 1) + 1,
                          dtype=np.int64)
        squares = np.zeros(flags.size, dtype=bool)
        squares[roots * roots - start] = True
        rows += (Counterexample(inputs={"n": start + i}, expected=bool(squares[i]),
                                actual=bool(flags[i]))
                 for i in np.flatnonzero(flags != squares).tolist())
    return _report("liouville", limit, rows)


def _identity_grid(
    configs: Optional[Sequence[tuple[int, int, int]]],
    regime: str = "minimal",
    c: float = 1.0,
) -> list[tuple[identity.PolynomialSpec, ramanujan.ModulusContext]]:
    if configs is None:
        configs = [(q, a, x) for q, a in IDENTITY_PAIRS for x in IDENTITY_X_VALUES]
    grid = [(identity.check_admissible(q, a), identity.make_context(x, regime, c))
            for q, a, x in configs]
    if (x_max := max((ctx.x for _, ctx in grid), default=0)) > IDENTITY_X_MAX:
        raise CapacityError(f"identity grids capped at x = {IDENTITY_X_MAX}; this one has {x_max}")
    return grid


def _grid_check(failed: bool, spec: identity.PolynomialSpec, ctx: ramanujan.ModulusContext,
                check: str, expected: Any, actual: Any) -> Optional[Counterexample]:
    inputs = {"q": spec.q, "a": spec.a, "x": ctx.x, "p": ctx.p, "check": check}
    return Counterexample(inputs, expected, actual) if failed else None


def verify_identity(
    configs: Optional[Sequence[tuple[int, int, int]]] = None,
    regime: str = "minimal",
    c: float = 1.0,
) -> VerificationReport:
    """Exact-path equality with the quadratic sum, plus float-path agreement."""
    grid = _identity_grid(configs, regime, c)

    def outcomes() -> Iterator[Optional[Counterexample]]:
        for spec, ctx in grid:
            lhs, _ = identity.lhs_quadratic_psi(spec, ctx.x)
            rhs_exact, rhs_float = identity.rhs_linear_expansion(spec, ctx)
            rel = abs(rhs_exact - lhs) / abs(lhs) if lhs else abs(rhs_exact)
            yield _grid_check(rel > 1e-9, spec, ctx, "rhs-exact-equals-lhs", lhs, rhs_exact)
            if rhs_float is not None:
                yield _grid_check(abs(rhs_float - rhs_exact) >= 1e-6, spec, ctx,
                                  "float-matches-exact", rhs_exact, rhs_float)

    return _tally("identity", outcomes())


def verify_main_term(
    configs: Optional[Sequence[tuple[int, int, int]]] = None,
    regime: str = "minimal",
    c: float = 1.0,
) -> VerificationReport:
    """M1 = 0 on the exact integer path for every grid configuration."""
    return _tally("main-term", (
        _caught(identity.main_term_decomposition, spec, ctx)
        for spec, ctx in _identity_grid(configs, regime, c)
    ))


def verify_error_term(
    configs: Optional[Sequence[tuple[int, int, int]]] = None,
    regime: str = "minimal",
    c: float = 1.0,
) -> VerificationReport:
    """Reconciliation and trivial-bound checks for the error decomposition."""
    grid = _identity_grid(configs, regime, c)

    def outcomes() -> Iterator[Optional[Counterexample]]:
        for spec, ctx in grid:
            E0, E1 = identity.error_term_decomposition(spec, ctx)
            total = identity.error_term_total(spec, ctx)
            yield _grid_check(abs((E0 + E1) - total) > 1e-9, spec, ctx,
                              "split-reconciliation", total, E0 + E1)

            phi_n = arith.euler_phi(ctx.N)
            pair_count = sum(ctx.floor_sqrt_x // d for d in range(2, ctx.floor_sqrt_x + 1))
            lambda_total, _ = asymptotics.linear_psi_odd(spec, ctx.x)
            bound = pair_count * lambda_total / phi_n
            yield _grid_check(abs(E1) > bound + 1e-12, spec, ctx,
                              "trivial-bound", f"|E1| <= {bound}", abs(E1))

    return _tally("error-term", outcomes())
