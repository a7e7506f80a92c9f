"""Square indicators: three routes against each other and frozen rationals."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest

from quadprimes import arith, indicator, ramanujan
from quadprimes.errors import LemmaCounterexample
from quadprimes.identity import make_context


def test_nearest_even_parity_x():
    assert ramanujan.nearest_even_parity_x(16) == 16
    assert ramanujan.nearest_even_parity_x(9) == 8
    assert ramanujan.nearest_even_parity_x(25) == 24
    assert ramanujan.nearest_even_parity_x(35) == 24
    assert ramanujan.nearest_even_parity_x(100) == 100
    assert ramanujan.nearest_even_parity_x(1) == 0
    with pytest.raises(ValueError):
        ramanujan.nearest_even_parity_x(0)


def test_exp_value_frozen_rationals_minimal_context():
    ctx = make_context(16)
    values = {n: indicator.square_char_exp_value(ctx, n) for n in range(1, 17, 2)}
    assert values[1] == Fraction(17, 16)
    assert values[9] == Fraction(17, 16)
    for n in (3, 5, 7, 11, 13, 15):
        assert values[n] == 0, n


def test_exp_value_inflated_context():
    ctx = make_context(16, "inflated", 1.0)
    assert ctx.p == 89
    assert indicator.square_char_exp_value(ctx, 9) == Fraction(89, 88)
    assert indicator.square_char_exp_value(ctx, 7) == 0


def test_exp_verdicts_and_counterexamples():
    ctx = make_context(16)
    assert indicator.square_char_exp(ctx, 7) is False
    with pytest.raises(LemmaCounterexample) as info:
        indicator.square_char_exp(ctx, 9)
    assert info.value.check == "square-indicator-value"
    assert info.value.actual == Fraction(17, 16)
    assert info.value.inputs == {"x": 16, "p": 17, "n": 9}


def test_exp_rejects_bad_inputs():
    ctx = make_context(16)
    with pytest.raises(ValueError):
        indicator.square_char_exp(ctx, 8)
    with pytest.raises(ValueError):
        indicator.square_char_exp(ctx, 17)
    odd_ctx = make_context(9)
    with pytest.raises(ValueError, match="nearest valid x is 8"):
        indicator.square_char_exp(odd_ctx, 3)


def test_liouville_route_matches_isqrt_route():
    for n in range(1, 2000):
        assert indicator.square_char_liouville(n) is indicator.square_char_isqrt(n), n


def _liouville_divisor_sum(n: int) -> int:
    # Literal divisor sum of the Liouville function.
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += arith.liouville(d)
            other = n // d
            if other != d:
                total += arith.liouville(other)
    return total


def test_liouville_divisor_sum_is_square_indicator():
    for n in range(1, 400):
        expected = 1 if math.isqrt(n) ** 2 == n else 0
        assert _liouville_divisor_sum(n) == expected, n


def test_large_squares_recognised():
    for n in (10**18, (2**32 - 1) ** 2):
        assert indicator.square_char_isqrt(n) is True, n
        assert indicator.square_char_liouville(n) is True, n
        assert indicator.square_char_isqrt(n + 1) is False, n
        assert indicator.square_char_liouville(n + 1) is False, n
