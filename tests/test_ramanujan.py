"""Ramanujan sums: method agreement, algebraic laws, parity behavior."""
from __future__ import annotations

import math
import random

import pytest

from quadprimes import arith, identity, ramanujan
from quadprimes.errors import CapacityError, LemmaCounterexample


def _ctx(x: int) -> ramanujan.ModulusContext:
    return ramanujan.ModulusContext(x=x, p=arith.next_prime_above(x))


def test_frozen_spot_values():
    assert ramanujan.ramanujan_closed(5, 0) == 4
    assert ramanujan.ramanujan_closed(6, 4) == -1
    assert ramanujan.ramanujan_closed(4, 2) == -2
    assert ramanujan.ramanujan_closed(1, 7) == 1
    assert ramanujan.ramanujan_closed(202, -5) == 1
    assert ramanujan.ramanujan_closed(202, -6) == -1
    assert ramanujan.ramanujan_direct(202, 9) == 1
    assert all(type(route(6, 2)) is int for route in ROUTES)


def test_three_way_agreement_small_sweep():
    for q in range(1, 61):
        for m in range(-60, 61):
            direct = ramanujan.ramanujan_direct(q, m)
            closed = ramanujan.ramanujan_closed(q, m)
            divisor = ramanujan.ramanujan_divisor(q, m)
            assert direct == closed == divisor, (q, m)


def test_special_arguments():
    for q in range(1, 80):
        assert ramanujan.ramanujan_closed(q, 0) == arith.euler_phi(q)
        assert ramanujan.ramanujan_closed(q, 1) == arith.mobius(q)


ROUTES = (ramanujan.ramanujan_direct, ramanujan.ramanujan_closed, ramanujan.ramanujan_divisor)


def test_symmetry_and_periodicity():
    rng = random.Random(99)
    for _ in range(200):
        q = rng.randrange(1, 150)
        m = rng.randrange(-300, 301)
        for route in ROUTES:
            c = route(q, m)
            assert c == route(q, -m), (route.__name__, q, m)
            assert c == route(q, m + q), (route.__name__, q, m)


def test_multiplicative_in_q():
    rng = random.Random(5)
    for _ in range(150):
        q1 = rng.randrange(1, 40)
        q2 = rng.randrange(1, 40)
        if math.gcd(q1, q2) != 1:
            continue
        m = rng.randrange(-50, 51)
        for route in ROUTES:
            lhs = route(q1 * q2, m)
            rhs = route(q1, m) * route(q2, m)
            assert lhs == rhs, (route.__name__, q1, q2, m)


def test_memo_keys(cold_ramanujan_memos):
    # The direct route is keyed by the residue m % q: 1 and 5 share
    # gcd(m, 12) = 1 but are two residues, and 13 is the residue of 1.
    ramanujan.ramanujan_direct(12, 1)
    ramanujan.ramanujan_direct(12, 5)
    assert ramanujan._direct_total.cache_info()[:2] == (0, 2)
    ramanujan.ramanujan_direct(12, 13)
    assert ramanujan._direct_total.cache_info()[:2] == (1, 2)
    # The closed form and the divisor sum are keyed by gcd(|m|, q).
    for route, memo in ((ramanujan.ramanujan_closed, ramanujan._closed_value),
                        (ramanujan.ramanujan_divisor, ramanujan._divisor_value)):
        route(12, 1)
        route(12, 5)
        assert memo.cache_info()[:2] == (1, 1), route.__name__


def test_direct_capacity_cap():
    with pytest.raises(CapacityError):
        ramanujan.ramanujan_direct(ramanujan.DIRECT_Q_CAP + 1, 1)


def test_context_validation():
    with pytest.raises(ValueError):
        ramanujan.ModulusContext(x=16, p=15)
    with pytest.raises(ValueError):
        ramanujan.ModulusContext(x=16, p=13)
    ctx = ramanujan.ModulusContext(x=16, p=17)
    assert (ctx.N, ctx.floor_sqrt_x) == (34, 4)


def _caller_points(x: int) -> dict[str, list[tuple[int, int]]]:
    # The weighted points of each exact path: the square indicator and the
    # linear expansion, M1, E1 and the direct error total.
    R = math.isqrt(x)
    divisor_weights = [(sum(arith.liouville(d) for d in range(2, s + 1) if s % d == 0), s)
                       for s in range(1, R + 1)]
    return {
        "squares": [(1, s * s) for s in range(1, R + 1)],
        "window": [(1, s) for s in range(1, R + 1)],
        "pairs": [(arith.liouville(d), dm) for d, _, dm in identity.dyadic_pairs(R)],
        "divisor weights": [(w, s) for w, s in divisor_weights if w],
    }


def _check_shift_sums(x: int, c_n) -> None:
    # full against the literal sum of w * c_N(t - n), d against the weight at
    # t = n, and full - phi(N) * d against the literal off-diagonal sum.
    ctx = _ctx(x)
    phi_n = arith.euler_phi(ctx.N)
    for name, points in _caller_points(x).items():
        shift_sum = ramanujan.shift_sums(ctx, points)
        for n in range(1, x + 1, 2):
            terms = [(t, w, w * c_n(ctx.N, t - n)) for w, t in points]
            full, d = shift_sum(n)
            assert full == sum(term for _, _, term in terms), (name, x, n)
            assert d == sum(w for t, w, _ in terms if t == n), (name, x, n)
            off_diagonal = sum(term for t, _, term in terms if t != n)
            assert full - phi_n * d == off_diagonal, (name, x, n)


@pytest.mark.parametrize("x", (16, 100, 144, 1296, 10**4))
def test_shift_sums_match_literal_closed_form_sum(x):
    _check_shift_sums(x, ramanujan.ramanujan_closed)


@pytest.mark.parametrize("x", (16, 100, 144))
def test_shift_sums_match_direct_summation(x):
    _check_shift_sums(x, ramanujan.ramanujan_direct)


def test_shift_sums_reject_points_outside_range():
    # Beyond 1..x a shift t - n can be a nonzero multiple of p, where the
    # parity classes no longer give the value.
    ctx = _ctx(16)
    for t in (0, 17, ctx.p + 1):
        with pytest.raises(ValueError):
            ramanujan.shift_sums(ctx, [(1, 4), (1, t)])
    shift_sum = ramanujan.shift_sums(ctx, [(1, 4)])
    for n in (0, 17):
        with pytest.raises(ValueError):
            shift_sum(n)


def test_parity_value_sign_alternation():
    ctx = _ctx(16)
    for mode in ("linear", "quadratic"):
        for s in range(1, ctx.floor_sqrt_x + 1):
            for n in range(1, 17, 2):
                shift = (s - n) if mode == "linear" else (s * s - n)
                if shift == 0:
                    with pytest.raises(ValueError):
                        ramanujan.parity_value(ctx, s, n, mode)
                    continue
                value = ramanujan.parity_value(ctx, s, n, mode)
                assert value == (-1) ** s, (mode, s, n)


def test_parity_sum_even_floor_inventory():
    # floor(sqrt(16)) = 4 is even, so every claimed sum is 0.  The measured
    # value is 1 exactly when the diagonal term got dropped from the
    # alternating sum: linear mode at n <= 4, quadratic mode at odd squares.
    ctx = _ctx(16)
    expected_fail = {"linear": {1, 3}, "quadratic": {1, 9}}
    for mode in ("linear", "quadratic"):
        for n in range(1, 17, 2):
            measured = ramanujan.parity_sum(ctx, n, mode, strict=False)
            if n in expected_fail[mode]:
                assert measured == 1, (mode, n)
                with pytest.raises(LemmaCounterexample) as info:
                    ramanujan.parity_sum(ctx, n, mode, strict=True)
                assert info.value.check == "parity-sum-value"
                assert info.value.expected == 0
                assert info.value.actual == 1
                assert info.value.inputs["n"] == n
            else:
                assert measured == 0, (mode, n)
                assert ramanujan.parity_sum(ctx, n, mode, strict=True) == 0


def test_parity_sum_odd_floor_inventory():
    # floor(sqrt(9)) = 3 is odd, claimed sums are -1; dropped-term cases
    # measure 0 instead.
    ctx = _ctx(9)
    expected_fail = {"linear": {1, 3}, "quadratic": {1, 9}}
    for mode in ("linear", "quadratic"):
        for n in range(1, 10, 2):
            measured = ramanujan.parity_sum(ctx, n, mode, strict=False)
            if n in expected_fail[mode]:
                assert measured == 0, (mode, n)
            else:
                assert measured == -1, (mode, n)


def test_parity_sum_rejects_even_n():
    ctx = _ctx(16)
    with pytest.raises(ValueError):
        ramanujan.parity_sum(ctx, 2, "linear")
