"""Verification suites that tabulate counterexamples instead of raising.

Each suite runs a family of checks, counts cases, and collects structured
counterexamples.  A suite never stops at the first failure; the point is an
exhaustive inventory, which the CLI then turns into an exit code.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import arith, asymptotics, identity, indicator, ramanujan, sieve
from .errors import CapacityError, LemmaCounterexample

# Shared identity-check grid: every admissible pair crossed with every x.
IDENTITY_PAIRS = ((4, 1), (2, 1), (3, 2), (5, 2), (8, 3))
IDENTITY_X_VALUES = (16, 36, 100, 144)
# Direct-sum terms verify_ramanujan may run, about q_max^2/2 * (2 m_max + 1).
DIRECT_WORK_CAP = 10**9
# c_N terms verify_parity may run, (x + 1) * floor(sqrt(x)) over both modes.
# At x = 6,400 and 25,600 a term took 0.9 to 1.0 us on a 2-core VM, and up
# to 1.25 us under load, so the cap, reached near x = 630,000, is eight to
# ten minutes.
PARITY_WORK_CAP = 5 * 10**8


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


def _tally(suite: str, outcomes: Iterable[Optional[Counterexample]]) -> VerificationReport:
    """One case per outcome; the outcomes that are not None are the rows, in order."""
    run = 0
    rows: list[Counterexample] = []
    for outcome in outcomes:
        run += 1
        if outcome is not None:
            rows.append(outcome)
    return VerificationReport(suite, run, run - len(rows), tuple(rows))


def _row(exc: LemmaCounterexample) -> Counterexample:
    return Counterexample(inputs=dict(exc.inputs), expected=exc.expected, actual=exc.actual)


def _caught(check: Callable[..., object], *args: Any) -> Optional[Counterexample]:
    """Run a strict check: None when it passes, its counterexample as a row when not."""
    try:
        check(*args)
    except LemmaCounterexample as exc:
        return _row(exc)
    return None


def verify_ramanujan(q_max: int = 300, m_max: int = 300) -> VerificationReport:
    """Three-way agreement of the direct, closed-form, and divisor sums at
    every 1 <= q <= q_max and |m| <= m_max, one pass per q."""
    if q_max < 1 or m_max < 0:
        raise ValueError("q_max must be >= 1 and m_max >= 0")
    work = q_max * (q_max + 1) // 2 * (2 * m_max + 1)
    if q_max > ramanujan.DIRECT_Q_CAP or work > DIRECT_WORK_CAP:
        raise CapacityError(f"direct sums capped at q_max <= {ramanujan.DIRECT_Q_CAP} and "
                            f"{DIRECT_WORK_CAP} terms; this sweep needs {work}")

    ms = np.arange(-m_max, m_max + 1, dtype=np.int64)
    rows: list[Counterexample] = []
    for q in range(1, q_max + 1):
        direct = ramanujan.direct_values(q, ms)
        # The closed form and the divisor sum read m only through
        # gcd(|m|, q), so each runs once per gcd the sweep meets.
        gcds = np.gcd(ms, q)
        seen = np.zeros(q + 1, dtype=bool)
        seen[gcds] = True
        closed_at = np.zeros(q + 1, dtype=np.int64)
        divisor_at = np.zeros(q + 1, dtype=np.int64)
        for g in np.flatnonzero(seen).tolist():
            closed_at[g] = ramanujan.ramanujan_closed(q, g)
            divisor_at[g] = ramanujan.ramanujan_divisor(q, g)
        closed, divisor = closed_at[gcds], divisor_at[gcds]
        for i in np.flatnonzero((closed != divisor) | (closed != direct)).tolist():
            rows.append(Counterexample(
                inputs={"q": q, "m": int(ms[i])},
                expected="direct = closed = divisor",
                actual={"direct": int(direct[i]), "closed": int(closed[i]),
                        "divisor": int(divisor[i])},
            ))
    cases = q_max * ms.size
    return VerificationReport("ramanujan", cases, cases - len(rows), tuple(rows))


def verify_parity(x: int, regime: str = "minimal", c: float = 1.0) -> VerificationReport:
    """Parity sign and sum-value checks for both shift modes at every odd n.

    A sweep of more than PARITY_WORK_CAP terms is refused with CapacityError
    before any check runs.
    """
    ctx = identity.make_context(x, regime, c)
    if (work := (x + 1) * ctx.floor_sqrt_x) > PARITY_WORK_CAP:
        raise CapacityError(f"parity sums capped at {PARITY_WORK_CAP} terms; this one needs {work}")
    return _tally("parity", (
        _caught(ramanujan.parity_sum, ctx, n, mode)
        for mode in ("linear", "quadratic")
        for n in range(1, x + 1, 2)
    ))


def verify_char(x: int, regime: str = "minimal", c: float = 1.0) -> VerificationReport:
    """Exponential-sum square indicator against the integer-root oracle."""
    ctx = identity.make_context(x, regime, c)

    def outcomes() -> Iterator[Optional[Counterexample]]:
        for n in range(1, x + 1, 2):
            reference = indicator.square_char_isqrt(n)
            try:
                verdict = indicator.square_char_exp(ctx, n)
            except LemmaCounterexample as exc:
                yield _row(exc)
                continue
            yield None if verdict == reference else Counterexample(
                inputs={"x": x, "p": ctx.p, "n": n},
                expected=reference,
                actual=verdict,
            )

    return _tally("char", outcomes())


def verify_liouville(limit: int = 10**5) -> VerificationReport:
    """Exponent-parity square indicator against the integer-root oracle.

    The parities come from one sieve over 1..limit, a segment at a time;
    indicator.square_char_liouville reads the same parities from each n's
    own factorization.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")

    def outcomes() -> Iterator[Optional[Counterexample]]:
        for start, flags in sieve.square_flags(limit):
            for n, verdict in enumerate(flags.tolist(), start):
                reference = indicator.square_char_isqrt(n)
                yield None if verdict == reference else Counterexample(
                    inputs={"n": n}, expected=reference, actual=verdict,
                )

    return _tally("liouville", outcomes())


def _identity_grid(
    configs: Optional[Sequence[tuple[int, int, int]]],
    regime: str = "minimal",
    c: float = 1.0,
) -> list[tuple[identity.PolynomialSpec, ramanujan.ModulusContext]]:
    if configs is None:
        configs = [(q, a, x) for q, a in IDENTITY_PAIRS for x in IDENTITY_X_VALUES]
    return [(identity.check_admissible(q, a), identity.make_context(x, regime, c))
            for q, a, x in configs]


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
            pair_count = len(identity.dyadic_pairs(ctx.floor_sqrt_x))
            lambda_total, _ = asymptotics.linear_psi_odd(spec, ctx.x)
            bound = pair_count * lambda_total / phi_n
            yield _grid_check(abs(E1) > bound + 1e-12, spec, ctx,
                              "trivial-bound", f"|E1| <= {bound}", abs(E1))

    return _tally("error-term", outcomes())
