"""The segment sieves against their per-value oracles, and the routes that read them.

poly.lambda_weight (one factorization per value) is the oracle of
exact_oracle.linear_lambda, the pair view of sieve.lambda_segments,
indicator.square_char_liouville of sieve.square_flags,
and asymptotics._per_value_hits (arith.prime_power_base per value) of
sieve.prime_power_values.  Short segments make every draw cross several
segment boundaries; the tests at the real segment lengths cover their edges
once.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import exact_oracle
from quadprimes import arith, asymptotics, indicator, poly, sieve, verification

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:
    st = None

# The three property tests build their strategies inside the test, so without
# hypothesis only they skip; the pinned tests below run either way.
needs_hypothesis = pytest.mark.skipif(st is None, reason="hypothesis is not installed")
DIFF = dict(deadline=None, derandomize=True, max_examples=60)
I64_MAX = 2**63 - 1


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
            assert list(exact_oracle.linear_lambda(spec, x)) == _lambda_oracle(spec, x)

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
    assert list(exact_oracle.linear_lambda(spec, x)) == _lambda_oracle(spec, x)
    assert _square_flags(count) == _square_oracle(count)


def test_rest_beyond_the_sieve_is_read_exactly():
    # With one-value segments the linear sieve sieves nothing, so every
    # value is resolved from its rest by prime_power_base; square_flags still
    # divides every prime square out of its one value.
    with _segment_length(1):
        assert _square_flags(200) == _square_oracle(200)
        spec = poly.check_admissible(1, 2)
        assert list(exact_oracle.linear_lambda(spec, 300)) == _lambda_oracle(spec, 300)


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


# The quadratic engine against the per-value scan (asymptotics._per_value_hits,
# one arith.prime_power_base call per value).  Among the specs: f < 2 at small
# n, primes dividing a (3 and 5 in 2n^2 + 15, 3 in 4n^2 + 9), odd q with two
# primes (15, 21), prime squares (2n^2 - 1 = 49 = 7^2 at n = 5, 1681 = 41^2 at
# n = 29) and a q past the sieve's reach (1000003), whose unsieved values go
# to prime_power_base.
QUADRATIC_SPECS = [(4, 1), (2, 1), (3, 2), (1, 2), (2, -1), (1, -2), (2, -5), (4, -3),
                   (3, -10), (2, -101), (15, 2), (21, -4), (2, 15), (4, 9), (1000003, 2)]


def _both_routes(spec: poly.PolynomialSpec, n_max: int):
    """CountResults of the sieve and of the per-value scan over odd n <= n_max."""
    return tuple(asymptotics._count_result(spec, n_max, hits, collect=True) for hits in (
        sieve.prime_power_values(spec, n_max), asymptotics._per_value_hits(spec, n_max)))


def _assert_routes_agree(spec: poly.PolynomialSpec, n_max: int) -> None:
    fast, slow = _both_routes(spec, n_max)
    assert fast.hits == slow.hits, (spec.q, spec.a, n_max)
    assert fast.psi_value.hex() == slow.psi_value.hex()


@pytest.mark.parametrize("length", (64, None))
def test_prime_power_values_match_the_per_value_scan(monkeypatch, length):
    if length:
        monkeypatch.setattr(sieve, "QUADRATIC_SEGMENT_LENGTH", length)
    for q, a in QUADRATIC_SPECS:
        spec = poly.check_admissible(q, a)
        assert spec.admissible, (q, a)
        for n_max in (1, 2, 7, 10, 29, 100, 1000, 10**4):
            _assert_routes_agree(spec, n_max)
    hits = _both_routes(poly.check_admissible(2, -1), 29)[0].hits
    assert (5, 49, 7, 2) in hits and (29, 1681, 41, 2) in hits


def test_prime_power_values_past_the_prime_cap(monkeypatch):
    # With the sieving primes cut at 50, a value with no prime up to 47 and
    # above 51**2 goes to prime_power_base.
    monkeypatch.setattr(sieve, "QUADRATIC_PRIME_CAP", 50)
    for q, a in QUADRATIC_SPECS:
        _assert_routes_agree(poly.check_admissible(q, a), 3001)


def test_prime_power_values_at_scale():
    _assert_routes_agree(poly.check_admissible(4, 1), math.isqrt(10**9))


@pytest.mark.parametrize("length, k", [(64, 1), (64, 2), (64, 3), (None, 1)])
def test_prime_power_values_at_segment_edges(monkeypatch, length, k):
    if length:
        monkeypatch.setattr(sieve, "QUADRATIC_SEGMENT_LENGTH", length)
    edge = 2 * k * sieve.QUADRATIC_SEGMENT_LENGTH  # odd n <= edge - 1 fill k segments
    for q, a in ((4, 1), (2, -5), (15, 2)):
        for n_max in (edge - 3, edge - 1, edge + 1):
            _assert_routes_agree(poly.check_admissible(q, a), n_max)


@pytest.fixture
def sieved(monkeypatch) -> list[int]:
    """The n_max of every call to sieve.prime_power_values in the test."""
    calls: list[int] = []
    real = sieve.prime_power_values

    def spy(spec, n_max):
        calls.append(n_max)
        return real(spec, n_max)

    monkeypatch.setattr(sieve, "prime_power_values", spy)
    return calls


@pytest.mark.parametrize("n_max, sieves", [(4093, False), (4095, True)])
def test_psi2_sieves_from_the_crossover(sieved, n_max, sieves):
    # 4093 holds 2,047 odd n and 4095 holds 2,048.
    assert ((n_max + 1) // 2 >= asymptotics._SIEVE_MIN_ODD_N) == sieves
    for q, a in ((4, 1), (2, -1)):
        spec = poly.check_admissible(q, a)
        routed = asymptotics.psi2_count(spec, n_max * n_max, collect_hits=True)
        slow = asymptotics._count_result(
            spec, n_max, asymptotics._per_value_hits(spec, n_max), collect=True)
        assert routed == slow
        assert routed.psi_value.hex() == slow.psi_value.hex()
    assert sieved == ([n_max, n_max] if sieves else [])


def test_psi2_sieves_past_int64(sieved):
    # q n^2 + 2 fits in int64 up to n = 4999 and passes it at 5001; it fits
    # in 64 bits up to n_top.  All three are sieved in uint64.  At 4999 the
    # square root of f is 3e9, so the sieving primes stop at 32 times the
    # 2,500 odd n.
    q = I64_MAX // 5000**2 - 1
    spec = poly.check_admissible(q, 2)
    assert spec.admissible and q * 4999**2 + 2 <= I64_MAX < q * 5001**2 + 2
    n_top = math.isqrt((arith.U64_MAX - 2) // q)
    assert spec.value_at(n_top) <= arith.U64_MAX < spec.value_at(n_top + 1)
    for n_max in (4999, 5001, n_top):
        routed = asymptotics.psi2_count(spec, n_max * n_max, collect_hits=True)
        assert routed.hits == tuple(asymptotics._per_value_hits(spec, n_max))
    assert sieved == [4999, 5001, n_top]
    with pytest.raises(ValueError, match="2\\*\\*64"):
        next(sieve.prime_power_values(spec, n_top + 1))


def _quadratics(draw) -> tuple[poly.PolynomialSpec, int]:
    """An admissible spec and an n_max, with f < 2 at small n in reach and half
    the draws with q n_max^2 + a near 2**64 - 1, some of them with |a| >= 2**63."""
    n_max = draw(st.one_of(
        st.integers(1, 400),
        # odd n <= 128 k - 1 fill k segments of 64
        st.builds(lambda k, d: 128 * k + d, st.integers(1, 4), st.sampled_from((-3, -1, 1))),
    ))
    a = draw(st.integers(-300, 300))
    if draw(st.booleans()):
        a = draw(st.one_of(st.just(a), st.integers(-(2**64), -(2**63)),
                           st.integers(2**63, arith.U64_MAX - n_max * n_max)))
        top = (arith.U64_MAX - a) // (n_max * n_max)
        q = draw(st.integers(max(1, top - 2**20), top))
    else:
        q = draw(st.integers(1, 60))
    spec = poly.check_admissible(q, a)
    assume(spec.admissible)
    return spec, n_max


@needs_hypothesis
def test_prime_power_values_match_per_value_property(monkeypatch):
    monkeypatch.setattr(sieve, "QUADRATIC_SEGMENT_LENGTH", 64)

    @settings(**DIFF)
    @given(st.composite(_quadratics)())
    def check(case):
        _assert_routes_agree(*case)

    check()


# (q, a) for the roots of q t^2 + a: with a = 0 and primes dividing a (root 0
# only), q with odd prime factors (no roots there), |a| near 2**62, and q or
# |a| past int64.
ROOT_SPECS = [(4, 1), (1, 1), (2, -1), (3, 2), (15, 2), (2, 15), (1, 0), (7, -2), (1000003, 2),
              (1, -(2**62) - 1), (2**40, 3**25), (2**63 + 1, 2), (1, -(2**63) - 5)]


def _roots(q: int, a: int, bound: int) -> dict[int, list[int]]:
    found: dict[int, list[int]] = {}
    for primes, roots in sieve._quadratic_roots(q, a, bound):
        for p, t in zip(primes.tolist(), roots.tolist()):
            found.setdefault(p, []).append(t)
    return found


@pytest.mark.parametrize("q, a", ROOT_SPECS)
def test_quadratic_roots_match_brute_force(q, a):
    found = _roots(q, a, 2000)
    for p in arith.primes_up_to(2000)[1:]:
        brute = [t for t in range(p) if (q * t * t + a) % p == 0]
        assert sorted(found.get(p, [])) == brute, (q, a, p)
    assert set(found) <= set(arith.primes_up_to(2000)[1:])


@pytest.mark.parametrize("q, a", ROOT_SPECS)
def test_quadratic_roots_solve_their_congruence(q, a):
    found = _roots(q, a, 3 * 10**5)
    assert all((q * t * t + a) % p == 0 for p, roots in found.items() for t in roots)
    assert all(len(roots) <= 2 for roots in found.values())


# q with two to four odd primes, negative a, and q and |a| past the primes
# (q and a coprime): the roots of q t^2 + a come from the root of -a q times -a,
# with no inverse of q.  The primes up to 2000 include p = 1 (mod 2**k) for
# k = 3 .. 8 (257 and 769 for k = 8), so Tonelli-Shanks takes up to seven
# rounds.
INVERSE_FREE_SPECS = [(105, -2), (1155, 2), (1155, -4), (105, -(10**6 + 3)),
                      (1155 * 10007, -(17**30)), (3 * 10**9 + 19, -(2**61 - 1)), (3465, -3465 - 8)]


@pytest.mark.parametrize("q, a", INVERSE_FREE_SPECS)
def test_quadratic_roots_without_an_inverse_match_brute_force(q, a):
    found = _roots(q, a, 2000)
    primes = arith.primes_up_to(2000)[1:]
    for p in primes:
        brute = [t for t in range(p) if (q % p * t * t + a) % p == 0]
        assert sorted(found.get(p, [])) == brute, (q, a, p)
    deep = [p for p in found if p % 8 == 1 and q % p and a % p]
    assert deep and max((p - 1) & (1 - p) for p in deep) >= 64, (q, a)


# p*p just below 2**63, and primes with p - 1 divisible by 2**23 to 2**27:
# all past 2**27, where residues, the character and Tonelli-Shanks stay exact.
INT64_REACH_PRIMES = [arith.next_prime_above(3037000499 - 600 * k) for k in range(1, 6)]
INT64_REACH_PRIMES += [998244353, 469762049, 2013265921]


def test_squareness_near_the_int64_reach():
    primes = np.array(INT64_REACH_PRIMES, dtype=np.int64)
    rng = np.random.default_rng(18)
    for c in [*range(1, 41), *rng.integers(1, 2**32, 200).tolist(), -1]:
        for m in (c, c - 2**100):
            assert arith.residues(m, primes).tolist() == [m % p for p in INT64_REACH_PRIMES]
            chi = arith.characters(m, primes).tolist()
            assert chi == [arith.jacobi(m, p) for p in INT64_REACH_PRIMES], m
            euler = [pow(m, (p - 1) // 2, p) for p in INT64_REACH_PRIMES]
            assert chi == [-1 if e == p - 1 else e for e, p in zip(euler, INT64_REACH_PRIMES)], m


def test_square_roots_near_the_int64_reach():
    rng = np.random.default_rng(18)
    for p in INT64_REACH_PRIMES:
        assert 2**27 < p <= arith.INT64_PRIME_MAX
        r = np.concatenate((np.arange(1, 41), rng.integers(1, p, 200), [p - 1]))
        c = r * r % p
        t = sieve._square_roots(c, np.full(c.size, p, dtype=np.int64), c)
        for ci, ti in zip(c.tolist(), t.tolist()):
            assert ti * ti % p == ci, (p, ci)
        # A non-residue is refused, not looped on.
        z = sieve._non_residues(np.array([p]))
        with pytest.raises(ArithmeticError, match="needs a square"):
            sieve._square_roots(z, np.array([p]), z)


def test_non_residues_are_the_least_prime_non_residues():
    primes = arith.primes_up_to(10**5)[1:] + INT64_REACH_PRIMES
    z = sieve._non_residues(np.array(primes, dtype=np.int64)).tolist()
    for p, zp in zip(primes, z):
        assert arith.jacobi(zp, p) == -1, (p, zp)
        assert all(arith.jacobi(y, p) == 1 for y in arith.primes_up_to(zp - 1)), (p, zp)


def test_quadratic_roots_read_one_character_per_class(monkeypatch):
    # For 4 t^2 + 1, chi(p) = (-4 | p) is read once per odd prime from the
    # table of p mod 16, and the non-residue search reads each (z | p),
    # z < 256, from the table of p mod 4z, all built by reciprocity: across
    # the call's four prime_blocks blocks Euler's criterion runs on no
    # prime.  Tonelli-Shanks runs on the split primes, p = 1 (mod 4), only.
    real_characters, real_euler = arith.characters, arith._euler_criterion
    real_square_roots = sieve._square_roots
    asked: dict[int, list[int]] = {}
    euler: list[int] = []
    rooted: list[int] = []

    def characters(m, primes):
        asked.setdefault(m, []).extend(primes.tolist())
        return real_characters(m, primes)

    def euler_criterion(m, primes):
        euler.extend(primes.tolist())
        return real_euler(m, primes)

    def square_roots(c, p, factor):
        rooted.extend(p.tolist())
        return real_square_roots(c, p, factor)

    monkeypatch.setattr(arith, "characters", characters)
    monkeypatch.setattr(arith, "_euler_criterion", euler_criterion)
    monkeypatch.setattr(sieve, "_square_roots", square_roots)
    bound = 3 * arith.SEGMENT_SIZE
    found = _roots(4, 1, bound)
    assert euler == []
    assert asked.pop(-4) == arith.primes_up_to(bound)[1:]
    assert 2 in asked and set(asked) <= set(arith.primes_up_to(256))
    split = [p for p in arith.primes_up_to(bound) if p % 4 == 1]
    assert sorted(rooted) == split and sorted(found) == split


def test_corrupted_root_raises_at_its_first_hit(monkeypatch):
    # One root of 1009 moved by one: the hits before the segment of its first
    # hit come out as the per-value scan's, then the sieve refuses.
    real = sieve._quadratic_roots
    moved = _roots(4, 1, 1009)[1009][0] + 1

    def corrupted(q, a, bound):
        for primes, roots in real(q, a, bound):
            roots = roots.copy()
            roots[np.flatnonzero(primes == 1009)[:1]] += 1
            yield primes, roots

    monkeypatch.setattr(sieve, "_quadratic_roots", corrupted)
    monkeypatch.setattr(sieve, "QUADRATIC_SEGMENT_LENGTH", 64)
    spec = poly.check_admissible(4, 1)
    first_hit = next(n for n in range(1, 2019, 2) if n % 1009 == moved)
    seen = []
    with pytest.raises(ArithmeticError, match="misses its prime"):
        seen.extend(sieve.prime_power_values(spec, 3001))
    segment_start = first_hit - first_hit % 128 + 1  # odd n of 64-value segments
    oracle = [hit for hit in asymptotics._per_value_hits(spec, 3001) if hit[0] < segment_start]
    assert seen == oracle


@pytest.fixture
def engine_segments(monkeypatch) -> list[list[tuple]]:
    """Per call of sieve._sieve in the test, the (values, pos, prime) of each
    segment it yields."""
    calls: list[list[tuple]] = []
    real = sieve._sieve

    def spy(*args):
        calls.append([])
        for k0, values, pos, prime in real(*args):
            calls[-1].append((values, pos, prime))
            yield k0, values, pos, prime

    monkeypatch.setattr(sieve, "_sieve", spy)
    return calls


def test_sieve_values_and_primes_are_uint64(engine_segments):
    # uint64 mixed with int64 becomes float64, which loses bits past 2**53,
    # under numpy 1.24's promotion rules as under numpy 2's.
    sieve._one_segment_lambda.cache_clear()
    uint64 = np.dtype(np.uint64)
    q = I64_MAX // 5000**2 - 1
    for run in (lambda: exact_oracle.linear_lambda(poly.check_admissible(4, 1), 10**4),
                lambda: sieve.square_flags(10**4),
                lambda: sieve.prime_power_values(poly.check_admissible(q, 2), 5001)):
        engine_segments.clear()
        assert list(run())
        seen = {(values.dtype, prime.dtype) for call in engine_segments for values, _, prime in call}
        assert seen == {(uint64, uint64)}
    sieve._one_segment_lambda.cache_clear()


def test_square_flags_read_the_engine(engine_segments):
    # One engine call for the whole range, whose hits are the multiples of
    # the prime squares up to 10**4: 25 of them, 4,492 hits in one segment.
    assert _square_flags(10**4) == _square_oracle(10**4)
    assert len(engine_segments) == 1 and len(engine_segments[0]) == 1
    _, pos, prime = engine_segments[0][0]
    squares = [p * p for p in arith.primes_up_to(100)]
    assert sorted(zip(prime.tolist(), pos.tolist())) == [
        (s, n - 1) for s in squares for n in range(s, 10**4 + 1, s)]


def test_square_flags_far_from_the_start():
    # At 4e10 the prime squares p*p <= limit number 17,984, and all but the
    # 54 below 2**16 are longer than a segment; the first two segments are
    # checked against the squares from math.isqrt.
    segments = list(itertools.islice(sieve.square_flags(4 * 10**10), 2))
    assert [start for start, _ in segments] == [1, sieve.SEGMENT_LENGTH + 1]
    for start, flags in segments:
        expected = [math.isqrt(n) ** 2 == n for n in range(start, start + sieve.SEGMENT_LENGTH)]
        assert flags.tolist() == expected


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sieve_routes_keep_their_memory():
    # Traced peaks: 8.57 MB for verify_liouville(1e5) and 1.49 MB for psi2 at
    # 1e10 before the two engines were merged, 6.56 and 1.49 MB after, and
    # 8.59 and 1.69 MB when no reader drops a segment's hits before the next
    # segment's are expanded.  square_flags by squarefree kernel peaks at
    # 1.71 MB, on the engine as off it, and psi2 at 1.47 MB; at limit 1e7
    # square_flags peaks at 1.79 MB, and at 2.31 MB if it keeps its kernel
    # across the yield.
    liouville = _traced_peak(lambda: verification.verify_liouville(10**5))
    assert liouville < 3 * 10**6, liouville
    psi2 = _traced_peak(lambda: asymptotics.psi2_count(poly.check_admissible(4, 1), 10**10))
    assert psi2 < 1.65 * 10**6, psi2
