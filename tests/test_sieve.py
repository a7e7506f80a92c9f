"""The segment sieve against its per-value oracles, and the routes that read it.

poly.lambda_weight (one factorization per value) is the oracle of
sieve.linear_lambda, and indicator.square_char_liouville of
sieve.square_flags.  Short segments make every draw cross several segment
boundaries; the tests at the real SEGMENT_LENGTH cover its edges once.
"""
from __future__ import annotations

import contextlib

import pytest

from quadprimes import arith, asymptotics, indicator, poly, sieve, verification

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:
    st = None

# The two property tests build their strategies inside the test, so without
# hypothesis only they skip; the pinned tests below run either way.
needs_hypothesis = pytest.mark.skipif(st is None, reason="hypothesis is not installed")
DIFF = dict(deadline=None, derandomize=True, max_examples=60)


@contextlib.contextmanager
def _segment_length(length: int):
    saved = sieve.SEGMENT_LENGTH
    sieve.SEGMENT_LENGTH = length
    sieve._one_segment_lambda.cache_clear()
    try:
        yield
    finally:
        sieve.SEGMENT_LENGTH = saved
        sieve._one_segment_lambda.cache_clear()


def _lambda_oracle(spec: poly.PolynomialSpec, x: int) -> list[tuple[int, float]]:
    weights = ((n, poly.lambda_weight(spec.q * n + spec.a)) for n in range(1, x + 1, 2))
    return [(n, w) for n, w in weights if w]


def _square_oracle(limit: int) -> list[bool]:
    return [indicator.square_char_liouville(n) for n in range(1, limit + 1)]


def _square_flags(limit: int) -> list[bool]:
    flags: list[bool] = []
    for start, segment in sieve.square_flags(limit):
        assert start == len(flags) + 1
        flags += segment.tolist()
    return flags


def _progressions(draw) -> tuple[poly.PolynomialSpec, int, int]:
    """An admissible spec, an x, and a segment length; with q + a < 1 in
    reach, and half the draws with values q n + a near 2**64."""
    length = draw(st.integers(1, 24))
    x = draw(st.one_of(
        st.integers(1, 160),
        # the x whose count of odd n sits at a segment edge, or one off it
        st.builds(lambda k, d: max(1, 2 * (k * length + d) - 1),
                  st.integers(1, 4), st.sampled_from((-1, 0, 1))),
    ))
    a = draw(st.integers(-300, 300))
    if draw(st.booleans()):
        top = (arith.U64_MAX - max(a, 0)) // x
        q = draw(st.integers(max(1, top - 2**40), top))
    else:
        q = draw(st.integers(1, 60))
    spec = poly.check_admissible(q, a)
    assume(spec.admissible)
    return spec, x, length


@needs_hypothesis
def test_linear_lambda_matches_per_value_weights():
    @settings(**DIFF)
    @given(st.composite(_progressions)())
    def check(case):
        spec, x, length = case
        with _segment_length(length):
            assert list(sieve.linear_lambda(spec, x)) == _lambda_oracle(spec, x)

    check()


@needs_hypothesis
def test_square_flags_match_factorization_parity():
    @settings(**DIFF)
    @given(st.integers(1, 24), st.one_of(
        st.integers(1, 400),
        st.builds(lambda k, d: max(1, k + d), st.sampled_from((24, 48, 96)),
                  st.sampled_from((-1, 0, 1))),
    ))
    def check(length, limit):
        with _segment_length(length):
            assert _square_flags(limit) == _square_oracle(limit)

    check()


@pytest.mark.parametrize("delta", (-1, 0, 1))
def test_readers_at_the_segment_edge(delta):
    count = sieve.SEGMENT_LENGTH + delta
    spec = poly.check_admissible(2, -5)
    x = 2 * count + 1  # odd n from 3 up: n = 1 gives -3
    assert list(sieve.linear_lambda(spec, x)) == _lambda_oracle(spec, x)
    assert _square_flags(count) == _square_oracle(count)


def test_rest_beyond_the_sieve_is_read_exactly():
    # With one-value segments nothing is sieved, so every value is resolved
    # from its rest: the squares by isqrt, the prime powers by prime_power_base.
    with _segment_length(1):
        assert _square_flags(200) == _square_oracle(200)
        spec = poly.check_admissible(1, 2)
        assert list(sieve.linear_lambda(spec, 300)) == _lambda_oracle(spec, 300)


def test_verify_liouville_reads_the_sieve(monkeypatch):
    def never(n):
        raise AssertionError("factorize called")

    monkeypatch.setattr(arith, "factorize", never)
    report = verification.verify_liouville(10**4)
    assert (report.cases_run, report.cases_passed, report.counterexamples) == (10**4, 10**4, ())


@pytest.mark.parametrize("q, a, expected", [
    (4, 1, "0x1.384848e1b893dp+13"),
    (1, -2, "0x1.38a31613c7cfcp+13"),
    (3, 2, "0x1.d44a4dde52c82p+13"),
])
def test_linear_psi_odd_reads_the_sieve(monkeypatch, q, a, expected):
    # The values the per-value von_mangoldt route gave, bit for bit.
    def never(n):
        raise AssertionError("von_mangoldt called")

    monkeypatch.setattr(arith, "von_mangoldt", never)
    sieve._one_segment_lambda.cache_clear()
    value, _ = asymptotics.linear_psi_odd(poly.check_admissible(q, a), 10**4)
    assert value.hex() == expected
