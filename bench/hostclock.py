"""Wall time scaled by the host's speed at the moment it was spent.

The benchmark runs on a machine that other programs share, and the speed
they leave it changes by up to about two times within seconds. While a
`HostClock` runs, an interval timer (SIGALRM, every `INTERVAL_S`) times a
fixed reference in the main thread: a Python loop, small-array numpy calls
and a dense layer, the three kinds of work the program does.
`scaled(t0, t1)` is the wall time of `[t0, t1]` less the reference's own
time in it, times `REF_S` over the mean reference time in it: the time the
interval would have taken at the speed at which the reference takes
`REF_S`. A change to the program moves its scaled times; a change of host
speed moves the program and the reference alike and cancels out (see
README.md, "Host-speed scaling").

The process is single-threaded and the handler runs between bytecodes, so
each reference sample lies wholly inside or wholly outside an interval whose
ends the main thread reads.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2
#: The reference's median time on the 2-CPU VM the bounds in BENCHMARK.json
#: were set on, so that scaled seconds read about as wall seconds there.
REF_S = 1.7e-3


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y


_PAIRS = [_Pair(i, i + 1) for i in range(64)]
_rng = np.random.default_rng(0)
_AGENTS, _OBSTACLES = _rng.standard_normal((8, 2)), _rng.standard_normal((5, 2))
_BATCH, _WEIGHTS = _rng.standard_normal((256, 64)), _rng.standard_normal((64, 64))


def reference() -> float:
    """About 0.5 ms each of dict updates and attribute reads, of distance
    queries on a few points, and of a 256 x 64 x 64 tanh layer."""
    table: dict[int, int] = {}
    total = 0.0
    for i in range(1500):
        pair = _PAIRS[i & 63]
        table[i & 63] = table.get(i & 63, 0) + pair.x * pair.y
        total += len(table)
    for _ in range(60):
        diff = _AGENTS[:, None, :] - _OBSTACLES[None, :, :]
        total += float(np.sqrt((diff * diff).sum(-1)).min())
    for _ in range(4):
        total += float(np.tanh(_BATCH @ _WEIGHTS).sum())
    return total


class HostClock:
    def __init__(self):
        self.starts: list[float] = []  # perf_counter() at the start of each sample
        self.durations: list[float] = []  # the reference's time in each sample
        self._previous = None

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        reference()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def start(self) -> HostClock:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> HostClock:
        return self.start()

    def __exit__(self, *_) -> None:
        self.stop()

    def scaled(self, t0: float, t1: float) -> float:
        """Scaled seconds of `[t0, t1]`. With no sample inside, the samples
        just before and just after it (as far as they exist) give the speed."""
        a = bisect.bisect_left(self.starts, t0)
        b = bisect.bisect_left(self.starts, t1)
        inside = self.durations[a:b]
        speed = inside or self.durations[max(0, a - 1) : a + 1]
        return (t1 - t0 - sum(inside)) * REF_S / statistics.fmean(speed)

    def host_speed(self) -> float:
        """REF_S over the median sample: 1 at the speed REF_S was set at."""
        return REF_S / statistics.median(self.durations)
