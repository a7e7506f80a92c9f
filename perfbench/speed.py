"""The host's speed while a pass runs, and operation times scaled to a fixed speed.

On a VM that shares physical cores with other tenants, the same code runs at
two or more speeds that switch within seconds: a fixed pure-Python loop takes
about 0.009 s in the fast state and 0.015 s in the slow one, on either vCPU,
with nothing else running in the VM.  The fraction of time spent slow drifts
over minutes, so the raw time of a 30 s run moves by 20-30% with the host,
not with the program.

``SpeedSampler`` times a fixed chunk of pure-Python work every
``PERIOD_S`` seconds of wall time, from a ``SIGALRM`` handler that runs
between the bytecodes of whatever the pass is doing.  ``scaled_time`` turns
an operation's raw time into seconds at the reference speed (the speed at
which one chunk takes ``REFERENCE_CHUNK_S``): it removes the handler's own
time and multiplies by the mean speed the samples around the operation saw.
A change that makes the program do less work lowers the scaled time as much
as the raw time; a slow spell of the host lowers the speed instead.
"""
from __future__ import annotations

import bisect
import math
import signal
import time
from typing import Any, Optional

PERIOD_S = 0.01
MARGIN_S = 0.05
REFERENCE_CHUNK_S = 1e-4  # about one chunk's time in the fast state of the host above


def _chunk() -> int:
    """Fixed work in the style of the library: integer arithmetic, gcd, a dict."""
    acc = 0
    table = {}
    for n in range(1, 301):
        r = n * n + 1
        acc = (acc + r % 97 + math.gcd(r, 210)) & 0xFFFFFFFF
        table[n & 255] = acc
    return acc


class SpeedSampler:
    """Samples (start, chunk seconds) while started.

    With a tracer installed, each sample's time is charged to no function:
    it is added to the open frame's child time and to ``nested_hook_s``, as
    the tracer's own hooks are.
    """

    def __init__(self, tracer: Optional[Any] = None) -> None:
        self.tracer = tracer
        self.starts: list[float] = []
        self.chunks: list[float] = []
        self._previous: Any = None

    def sample(self, *_: Any) -> None:
        start = time.perf_counter()
        _chunk()
        took = time.perf_counter() - start
        self.starts.append(start)
        self.chunks.append(took)
        if self.tracer is not None and self.tracer.stack:
            self.tracer.stack[-1][0] += took
            self.tracer.nested_hook_s += took

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """scaled_time(start, end) per second of raw time."""
        return self.scaled_time(start, end) / (end - start)

    def scaled_time(self, start: float, end: float) -> float:
        """Seconds at the reference speed that [start, end] took, sampling excluded.

        The speed is the mean of REFERENCE_CHUNK_S / chunk over the samples
        within MARGIN_S of the interval, and at least the nearest one on each
        side: one chunk's time varies by a fifth from sample to sample, while
        the host's speed holds for about a second.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        first = min(lo - 1, bisect.bisect_left(self.starts, start - MARGIN_S))
        last = max(hi + 1, bisect.bisect_right(self.starts, end + MARGIN_S))
        window = self.chunks[max(0, first):last]
        speed = math.fsum(REFERENCE_CHUNK_S / c for c in window) / len(window)
        return (end - start - math.fsum(self.chunks[lo:hi])) * speed
