"""Characteristic functions for perfect squares.

Three independent routes to the same predicate:

    square_char_exp: exponential-sum form at modulus N = 2p, exact integers
    square_char_liouville: divisor-sum of the Liouville function
    square_char_isqrt: integer square root, the ground-truth oracle

The exponential-sum route evaluates (1/phi(N)) * sum over s <= sqrt(x) of the
u-sum of e^(2*pi*i*(s*s - n)*u/N) with u coprime to N.  Each inner u-sum is
phi(N) when s*s = n and the Ramanujan sum c_N(s*s - n) otherwise, so the whole
expression is an exact rational.  The claim under check is that it equals the
0/1 square indicator; any other value raises LemmaCounterexample carrying the
measured rational.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import arith, ramanujan
from .errors import LemmaCounterexample


def square_char_exp_value(ctx: ramanujan.ModulusContext, n: int) -> Fraction:
    """Exact rational value of the exponential-sum expression at odd n <= x.

    This is the measurement behind square_char_exp, exposed separately so
    out-of-range values can be inspected rather than only raised.
    """
    ctx.require_even_floor_sqrt()
    ctx.require_odd_n(n)
    shift_sum, phi = _square_kernel(ctx)
    full, _ = shift_sum(n)
    return Fraction(full, phi)


@lru_cache(maxsize=1)
def _square_kernel(ctx: ramanujan.ModulusContext) -> tuple[Callable[[int], tuple[int, int]], int]:
    """The shift-sum kernel over the squares s*s <= x, and phi(N): built once
    per context, so a sweep over every odd n <= x stays linear in x."""
    squares = [(1, s * s) for s in range(1, ctx.floor_sqrt_x + 1)]
    return ramanujan.shift_sums(ctx, squares), arith.euler_phi(ctx.N)


def square_char_exp(ctx: ramanujan.ModulusContext, n: int) -> bool:
    """Square indicator via the exponential sum at modulus N = 2p.

    Requires even floor(sqrt(x)) and odd n <= x.  The expression must come
    out exactly 0 or 1; anything else raises LemmaCounterexample with the
    measured rational attached.
    """
    value = square_char_exp_value(ctx, n)
    if value in (0, 1):
        return value == 1
    raise LemmaCounterexample(
        "square-indicator-value",
        {"x": ctx.x, "p": ctx.p, "n": n},
        "0 or 1",
        value,
    )


def square_char_liouville(n: int) -> bool:
    """Square indicator via exponent parities of the factorization.

    Equivalent to the divisor sum of the Liouville function: the sum is 1 on
    squares and 0 otherwise, and n is a square exactly when every prime
    exponent is even.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return all(e % 2 == 0 for _, e in arith.factorize(n))


def square_char_isqrt(n: int) -> bool:
    """Square indicator via the integer square root (ground truth)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.isqrt(n) ** 2 == n
