"""Shared fixtures."""
from __future__ import annotations

import pytest

from quadprimes import asymptotics, ramanujan

RAMANUJAN_MEMOS = (ramanujan._closed_value, ramanujan._divisor_value)


@pytest.fixture
def cold_ramanujan_memos():
    """Empty the process-wide Ramanujan memos before and after the test.

    A value memoised by an earlier test would hide a function the test
    patches, and a value memoised under a patch would leak into later tests.
    """
    for memo in RAMANUJAN_MEMOS:
        memo.cache_clear()
    yield
    for memo in RAMANUJAN_MEMOS:
        memo.cache_clear()


@pytest.fixture
def cold_euler_memo():
    """Empty the process-wide memo of Euler-product passes before and after
    the test, for the same reasons as cold_ramanujan_memos: a test that
    patches the primes or their characters must see a pass run under it."""
    asymptotics._euler_pass.cache_clear()
    yield
    asymptotics._euler_pass.cache_clear()
