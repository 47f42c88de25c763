"""Host-speed probe: a fixed pure-Python workload, independent of ordopt.

On a shared machine other tenants slow a process by up to 2x, for tens of
seconds at a time, so raw times of identical runs spread far wider than the
benchmark's bounds.  The benchmark times this probe every PROBE_EVERY_S
between operations and scales each operation by REF_S over the mean of the
probes just before and after it: the time the operation would have taken on
a host where the probe takes REF_S.  The probe mixes what the program spends
its time on (object creation, `__lt__` calls from heapq, tuple hashing and
dict stores), so contention slows both alike.
"""

from __future__ import annotations

import heapq
import random
import time

#: Probe time on an idle core of a shared 2-core Xeon VM (Python 3.11).
REF_S = 0.005
PROBE_EVERY_S = 0.1

_rng = random.Random(20240611)
_KEYS = [(_rng.randrange(1 << 30), i) for i in range(3000)]


class _Key:
    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __lt__(self, other):
        return self.k < other.k


def seconds() -> float:
    """Time one probe pass."""
    t0 = time.perf_counter()
    items = [_Key(k) for k in _KEYS]
    heapq.heapify(items)
    seen = {}
    while items:
        seen[heapq.heappop(items).k] = len(seen)
    return time.perf_counter() - t0
