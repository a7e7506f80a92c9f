"""Identity and decomposition measurements against brute-force values."""
from __future__ import annotations

import cmath
import hashlib
import math
import tracemalloc

import pytest

from quadprimes import arith, identity, indicator, verification
from quadprimes.errors import CapacityError, LemmaCounterexample


def test_check_admissible_flags():
    spec = identity.check_admissible(4, 1)
    assert spec.admissible and spec.parity_ok and spec.coprime_ok
    assert spec.fixed_divisor == 1

    assert identity.check_admissible(3, 3).coprime_ok is False
    assert identity.check_admissible(3, 3).admissible is False

    both_odd = identity.check_admissible(3, 1)
    assert both_odd.parity_ok is False
    assert both_odd.admissible is False
    # gcd(f(0), f(1), f(2)) = gcd(1, 4, 13) = 1 even though f(odd) is even;
    # three sample points cannot see the parity obstruction for this pair.
    assert both_odd.fixed_divisor == 1

    assert identity.check_admissible(1, 1).parity_ok is False
    for q, a in ((2, 1), (5, 2), (8, 3)):
        assert identity.check_admissible(q, a).admissible, (q, a)
    with pytest.raises(ValueError):
        identity.check_admissible(0, 1)


def test_check_admissible_negative_constant():
    spec = identity.check_admissible(4, -1)
    assert spec.coprime_ok and spec.parity_ok and spec.fixed_divisor == 1


def test_make_context():
    ctx = identity.make_context(16)
    assert (ctx.p, ctx.N, ctx.floor_sqrt_x) == (17, 34, 4)
    assert identity.make_context(100).p == 101
    inflated = identity.make_context(16, "inflated", 1.0)
    assert inflated.p == 89 and inflated.N == 178
    with pytest.raises(ValueError):
        identity.make_context(3)
    with pytest.raises(ValueError):
        identity.make_context(16, "huge")
    with pytest.raises(ValueError):
        identity.make_context(16, "inflated", 0.0)


def test_lhs_frozen_values():
    spec = identity.check_admissible(4, 1)
    value, records = identity.lhs_quadratic_psi(spec, 16)
    assert value == pytest.approx(math.log(5) + math.log(37), rel=1e-15)
    assert value == pytest.approx(5.220355825078324, rel=1e-15)
    assert [n for n, _ in records] == [1, 3]

    value100, records100 = identity.lhs_quadratic_psi(spec, 100)
    assert value100 == pytest.approx(15.118680070657573, rel=1e-15)
    by_n = dict(records100)
    # 4 * 81 + 1 = 325 = 5^2 * 13 contributes nothing.
    assert by_n[9] == 0.0
    assert by_n[1] == math.log(5) and by_n[3] == math.log(37)

    spec21 = identity.check_admissible(2, 1)
    single, _ = identity.lhs_quadratic_psi(spec21, 1)
    assert single == pytest.approx(math.log(3), rel=1e-15)


def test_lhs_rejects_inadmissible_and_overflow():
    with pytest.raises(ValueError):
        identity.lhs_quadratic_psi(identity.check_admissible(3, 3), 16)
    wide = identity.check_admissible(2**40, 1)
    with pytest.raises(OverflowError):
        identity.lhs_quadratic_psi(wide, 2**25)


def test_rhs_exact_exceeds_lhs_by_reciprocal_phi():
    # The linear expansion reproduces each lhs weight with coefficient
    # (phi(N) + 1) / phi(N) instead of 1: the dropped diagonal term of the
    # alternating Ramanujan sum leaves a +1 residue at every odd square.
    for q, a in ((4, 1), (3, 2)):
        spec = identity.check_admissible(q, a)
        ctx = identity.make_context(16)
        lhs, _ = identity.lhs_quadratic_psi(spec, 16)
        rhs_exact, rhs_float = identity.rhs_linear_expansion(spec, ctx)
        assert rhs_exact == pytest.approx(lhs * (1 + 1 / 16), rel=1e-14), (q, a)
        assert rhs_float == pytest.approx(rhs_exact, abs=1e-6)


def test_rhs_float_path_agreement_at_100():
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(100)
    rhs_exact, rhs_float = identity.rhs_linear_expansion(spec, ctx)
    assert rhs_float is not None
    assert abs(rhs_float - rhs_exact) < 1e-6


def test_rhs_float_path_capacity():
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(10404)
    rhs_exact, rhs_float = identity.rhs_linear_expansion(spec, ctx)
    assert rhs_float is None and rhs_exact > 0


def test_rhs_float_route_skips_oversized_tables(monkeypatch):
    # N = 3.7e8 passes the work cap with 7.5e8 terms, but its tables would
    # need about 12 GB; the route must be skipped before any is built.
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(4, "inflated", 15.0)
    assert ctx.N > identity.FLOAT_TABLE_CAP
    assert 2 * ctx.floor_sqrt_x * arith.euler_phi(ctx.N) <= identity.FLOAT_WORK_CAP

    def refuse(*args, **kwargs):
        raise AssertionError("float-route table built")

    monkeypatch.setattr(identity.np, "fromiter", refuse)
    rhs_exact, rhs_float = identity.rhs_linear_expansion(spec, ctx)
    assert rhs_float is None and rhs_exact > 0


def test_rhs_float_path_memory_is_bounded():
    # x = 256 sums about 1M real and imaginary terms; the float route
    # streams them block by block into math.fsum instead of keeping them.
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(256)
    tracemalloc.start()
    try:
        _, rhs_float = identity.rhs_linear_expansion(spec, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rhs_float is not None
    assert peak < 2 * 2**20, peak


def test_rhs_float_is_correctly_rounded_sum_of_every_term():
    # The float route must round the exact sum of all its terms once: plain
    # left-to-right addition of the same terms gives different low bits.
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(64)
    N, R = ctx.N, ctx.floor_sqrt_x
    roots = [cmath.exp(2j * math.pi * k / N) for k in range(N)]
    units = [u for u in range(1, N) if math.gcd(u, N) == 1]
    terms: list[float] = []
    for n in range(1, ctx.x + 1, 2):
        lw = arith.von_mangoldt(4 * n + 1)
        terms += [lw * roots[(s * s - n) * u % N].real for s in range(1, R + 1) for u in units]
    _, rhs_float = identity.rhs_linear_expansion(spec, ctx)
    assert rhs_float.hex() == (math.fsum(terms) / len(units)).hex()


def test_rhs_exact_matches_square_indicator_route_on_default_grid():
    for q, a in verification.IDENTITY_PAIRS:
        spec = identity.check_admissible(q, a)
        for x in verification.IDENTITY_X_VALUES:
            ctx = identity.make_context(x)
            expected = math.fsum(
                arith.von_mangoldt(q * n + a)
                * float(indicator.square_char_exp_value(ctx, n))
                for n in range(1, x + 1, 2)
            )
            rhs_exact, _ = identity.rhs_linear_expansion(spec, ctx)
            assert rhs_exact == expected, (q, a, x)


def test_rhs_rejects_odd_floor_context():
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(9)
    with pytest.raises(ValueError, match="nearest valid x is 8"):
        identity.rhs_linear_expansion(spec, ctx)


def test_main_term_frozen_values():
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(16)
    M0, M1 = identity.main_term_decomposition(spec, ctx, strict=False)
    assert M0 == pytest.approx(math.log(5) + math.log(13), rel=1e-15)
    # The off-diagonal reduces to exactly one surviving +1 per diagonal term,
    # so M1 = M0 / phi(N) instead of the claimed 0.
    assert M1 == pytest.approx(M0 / 16, rel=1e-15)

    spec32 = identity.check_admissible(3, 2)
    ctx36 = identity.make_context(36)
    M0b, M1b = identity.main_term_decomposition(spec32, ctx36, strict=False)
    assert M0b == pytest.approx(math.log(5) + math.log(11) + math.log(17), rel=1e-15)
    assert M1b == pytest.approx(M0b / 36, rel=1e-15)


def test_main_term_strict_raises():
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(100)
    with pytest.raises(LemmaCounterexample) as info:
        identity.main_term_decomposition(spec, ctx, strict=True)
    assert info.value.check == "main-term-vanishing"
    assert info.value.expected == 0
    assert info.value.inputs == {"q": 4, "a": 1, "x": 100, "p": 101}
    assert info.value.actual > 0


def test_error_term_frozen_values():
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(16)
    E0, E1 = identity.error_term_decomposition(spec, ctx)
    assert E0 == pytest.approx(-math.log(13), rel=1e-15)
    assert E1 == pytest.approx(-math.log(13) / 16, rel=1e-15)

    spec32 = identity.check_admissible(3, 2)
    ctx36 = identity.make_context(36)
    E0b, E1b = identity.error_term_decomposition(spec32, ctx36)
    assert E0b == pytest.approx(-(math.log(11) + math.log(17)), rel=1e-15)
    assert E1b == pytest.approx(E0b / 36, rel=1e-14)

    spec21 = identity.check_admissible(2, 1)
    ctx100 = identity.make_context(100)
    E0c, E1c = identity.error_term_decomposition(spec21, ctx100)
    assert E0c == pytest.approx(-4.3438054219, abs=1e-9)
    assert E1c == pytest.approx(-1.0426670601, abs=1e-9)


def test_error_term_vanishes_below_first_odd_pair():
    # At x = 4 the only pair is d = 2, m = 1, whose product is even.
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(4)
    E0, _ = identity.error_term_decomposition(spec, ctx)
    assert E0 == 0.0


def test_error_term_reconciles_with_direct_route():
    for q, a, x in ((4, 1, 16), (3, 2, 36), (2, 1, 100), (8, 3, 144)):
        spec = identity.check_admissible(q, a)
        ctx = identity.make_context(x)
        E0, E1 = identity.error_term_decomposition(spec, ctx)
        total = identity.error_term_total(spec, ctx)
        assert abs((E0 + E1) - total) < 1e-12, (q, a, x)


def test_error_term_capacity_cap():
    spec = identity.check_admissible(4, 1)
    ctx = identity.make_context(10404)  # 102**2, keeps floor(sqrt(x)) even
    with pytest.raises(CapacityError):
        identity.error_term_decomposition(spec, ctx)
    with pytest.raises(CapacityError):
        identity.error_term_total(spec, ctx)


def test_exact_paths_keep_their_bits():
    # Every exact-path float on the default grid and at the error-term cap,
    # pinned bit for bit: a rewrite of these paths must not move a single ulp.
    configs = [(q, a, x) for q, a in verification.IDENTITY_PAIRS
               for x in verification.IDENTITY_X_VALUES]
    configs += [(q, a, identity.ERROR_TERM_X_CAP) for q, a in verification.IDENTITY_PAIRS]
    lines = []
    for q, a, x in configs:
        spec = identity.check_admissible(q, a)
        ctx = identity.make_context(x)
        lhs, _ = identity.lhs_quadratic_psi(spec, x)
        rhs_exact, _ = identity.rhs_linear_expansion(spec, ctx)
        M0, M1 = identity.main_term_decomposition(spec, ctx, strict=False)
        E0, E1 = identity.error_term_decomposition(spec, ctx)
        total = identity.error_term_total(spec, ctx)
        hexes = [v.hex() for v in (lhs, rhs_exact, M0, M1, E0, E1, total)]
        lines.append(f"{q},{a},{x}:" + ",".join(hexes))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest[:16] == "b6f73d7bbac3038d"
