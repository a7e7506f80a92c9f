"""Shared fixtures."""
from __future__ import annotations

import pytest

from quadprimes import arith, asymptotics, ramanujan

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
    """Empty the process-wide memos of Euler-product passes and of character
    tables before and after the test, for the same reasons as
    cold_ramanujan_memos: a test that patches the primes or their characters
    must see a pass, and a table, made under it."""
    for memo in (asymptotics._euler_pass, arith._character_table):
        memo.cache_clear()
    yield
    for memo in (asymptotics._euler_pass, arith._character_table):
        memo.cache_clear()
