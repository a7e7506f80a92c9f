"""The polynomial f(t) = q t^2 + a: its admissibility record, guards and
Lambda weight.

The identity and scale paths both check a PolynomialSpec here, so neither
imports the other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import arith


@dataclass(frozen=True)
class PolynomialSpec:
    """Admissibility record for f(t) = q t^2 + a.

    Attributes:
        q: leading coefficient, q >= 1.
        a: constant term.
        admissible: coprime_ok and parity_ok and fixed_divisor == 1.
        parity_ok: q + a is odd, so f(odd) is odd.
        coprime_ok: gcd(a, q) == 1.
        fixed_divisor: gcd(f(0), f(1), f(2)), the fixed divisor of f over Z.
    """

    q: int
    a: int
    admissible: bool
    parity_ok: bool
    coprime_ok: bool
    fixed_divisor: int

    def value_at(self, n: int) -> int:
        return self.q * n * n + self.a


def check_admissible(q: int, a: int) -> PolynomialSpec:
    """Populate every admissibility flag for f(t) = q t^2 + a.

    Inadmissible pairs come back flagged, never rejected: negative results
    are data.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    coprime_ok = math.gcd(a, q) == 1
    parity_ok = (q + a) % 2 == 1
    fixed_divisor = math.gcd(a, q + a, 4 * q + a)
    admissible = coprime_ok and parity_ok and fixed_divisor == 1
    return PolynomialSpec(q, a, admissible, parity_ok, coprime_ok, fixed_divisor)


def require_range(spec: PolynomialSpec, bound: int, name: str, t: int | None = None) -> None:
    """Raise unless bound >= 1 (name is the caller's for it), then unless
    q*t + a < 2**64, with t = bound by default."""
    if bound < 1:
        raise ValueError(f"{name} must be >= 1")
    t = bound if t is None else t
    top = spec.q * t + spec.a
    if top > arith.U64_MAX:
        raise OverflowError(f"q*t + a = {top} exceeds 64-bit range at t = {t}")


def require_admissible(spec: PolynomialSpec, bound: int, name: str = "x") -> None:
    """Raise unless spec is admissible, then as require_range(spec, bound, name):
    q*bound + a caps both q n^2 + a for n <= sqrt(bound) and q n + a for n <= bound."""
    if not spec.admissible:
        reasons = []
        if not spec.coprime_ok:
            reasons.append(f"gcd(a={spec.a}, q={spec.q}) > 1")
        if not spec.parity_ok:
            reasons.append(f"q + a = {spec.q + spec.a} is even")
        if spec.fixed_divisor != 1:
            reasons.append(f"fixed divisor {spec.fixed_divisor}")
        raise ValueError(f"(q={spec.q}, a={spec.a}) is not admissible: " + "; ".join(reasons))
    require_range(spec, bound, name)


def lambda_weight(value: int) -> float:
    """Lambda(value), and 0.0 below 1: where q + a < 1 an admissible f(t) or
    q t + a dips below 1 at small t, and no prime power is there."""
    return arith.von_mangoldt(value) if value >= 1 else 0.0
