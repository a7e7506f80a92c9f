"""The exact identity sums one odd n at a time: the test oracle.

identity's exact paths read ramanujan.shift_sums once per class of odd n and
multiply whole sieve segments of Lambda by the class factors.  This module
keeps the loop they replaced: shift_sum at every weighted odd n, one Python
step per n, each term formed from that n's own exact integers and summed by
math.fsum.  Its values are the ones the library must give bit for bit.
"""
from __future__ import annotations

import math
from itertools import chain

from quadprimes import arith, identity, ramanujan, sieve
from quadprimes.errors import LemmaCounterexample


def linear_lambda(spec, x):
    """sieve.lambda_segments as (n, Lambda(q n + a)) pairs, ascending in n:
    the tests' per-value view of the sieve."""
    return chain.from_iterable(zip(n.tolist(), lw.tolist())
                               for n, lw in sieve.lambda_segments(spec, x))


def shift_coefficients(spec, ctx, points):
    """(Lambda(q n + a), full, d) for each odd n <= x with nonzero weight:
    full is the sum of w * c_N(t - n) over points and d its diagonal
    weight, so full - phi(N) * d drops the t = n terms."""
    shift_sum = ramanujan.shift_sums(ctx, points)
    for n, lw in linear_lambda(spec, ctx.x):
        yield (lw, *shift_sum(n))


def rhs_exact(spec, ctx) -> float:
    """identity.rhs_linear_expansion's exact value: full / phi(N) * Lambda per n."""
    phi_n = arith.euler_phi(ctx.N)
    points = [(1, s * s) for s in range(1, ctx.floor_sqrt_x + 1)]
    return math.fsum(full / phi_n * lw for lw, full, _ in shift_coefficients(spec, ctx, points)
                     if full)


def main_term(spec, ctx, strict: bool) -> tuple[float, float]:
    """identity.main_term_decomposition: M0 and M1 over the window (1, s)."""
    phi_n = arith.euler_phi(ctx.N)
    m0_terms: list[float] = []
    m1_terms: list[float] = []
    window = [(1, s) for s in range(1, ctx.floor_sqrt_x + 1)]
    for lw, full, d in shift_coefficients(spec, ctx, window):
        if d:
            m0_terms.append(lw)
        if coeff := full - phi_n * d:
            m1_terms.append(coeff * lw)
    M0 = math.fsum(m0_terms)
    M1 = math.fsum(m1_terms) / phi_n
    if strict and m1_terms:
        raise LemmaCounterexample(
            "main-term-vanishing",
            {"q": spec.q, "a": spec.a, "x": ctx.x, "p": ctx.p},
            0,
            M1,
        )
    return M0, M1


def error_term(spec, ctx) -> tuple[float, float]:
    """identity.error_term_decomposition, liouville(d) taken once per pair."""
    phi_n = arith.euler_phi(ctx.N)
    R = ctx.floor_sqrt_x
    signed = [(arith.liouville(d), d * m) for d in range(2, R + 1) for m in range(1, R // d + 1)]
    E0 = math.fsum(lam * identity.lambda_weight(spec.q * dm + spec.a)
                   for lam, dm in signed if dm % 2)
    e1_terms = [coeff * lw for lw, full, d in shift_coefficients(spec, ctx, signed)
                if (coeff := full - phi_n * d)]
    return E0, math.fsum(e1_terms) / phi_n


def error_total(spec, ctx) -> float:
    """identity.error_term_total over the divisor weights."""
    phi_n = arith.euler_phi(ctx.N)
    weighted = identity.divisor_weights(ctx.floor_sqrt_x)
    terms = [full * lw for lw, full, _ in shift_coefficients(spec, ctx, weighted) if full]
    return math.fsum(terms) / phi_n
