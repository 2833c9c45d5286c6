"""How fast the host runs Python right now, and a clock that leaves it out.

On a shared host the core this process runs on changes speed for
seconds at a time: identical cycles take up to 2x longer through a slow
spell, CPU time equals wall time throughout (so it is not scheduling),
and how much of a run falls in a slow spell changes from run to run.
The benchmark therefore times a fixed loop of plain Python, which no
program change can speed up, once per cycle outside the program's timed
stretch, and rescales each throughput window's host time to a reference
core on which the loop takes :data:`REFERENCE_MS`.  A window the host ran
1.7x slower has a loop 1.7x slower too, so the rescaled time is the same.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Dict, List

#: Host ms of :func:`loop` on the reference core the timings are scaled to.
REFERENCE_MS = 0.25

_SIZE = 512
_ITERATIONS = 1200
# Made once, so the loop allocates no containers and never starts a
# garbage collection.
_TABLE = list(range(_SIZE))
_INDEX = {i: (i * 7) % _SIZE for i in range(_SIZE)}


def loop() -> None:
    """Dict lookups, list stores and integer arithmetic, like the program's
    own inner loops, on a fixed working set."""
    table, index = _TABLE, _INDEX
    mask = _SIZE - 1
    for i in range(_ITERATIONS):
        j = index[i & mask]
        table[j] = (table[j] * 31 + i) & 0xFFFF


def scale(loop_ms: List[float]) -> float:
    """Factor from host time to reference-core time for a stretch whose
    loop samples are ``loop_ms`` (1 when it has none)."""
    if not loop_ms:
        return 1.0
    return REFERENCE_MS / statistics.median(loop_ms)


class ProgramClock:
    """``perf_counter`` less the time spent in :func:`loop`, with the loop's
    host ms recorded per cycle.  Without ``calibrate`` it never runs the
    loop and is plain ``perf_counter``."""

    def __init__(self, calibrate: bool) -> None:
        self.calibrate = calibrate
        self.spent = 0.0
        self.loops: Dict[int, float] = {}

    def now(self) -> float:
        return perf_counter() - self.spent

    def sample(self) -> List[float]:
        """Run the loop once; its host ms, as a list (empty when not
        calibrating)."""
        if not self.calibrate:
            return []
        start = perf_counter()
        loop()
        seconds = perf_counter() - start
        self.spent += seconds
        return [1e3 * seconds]

    def sample_cycle(self, cycle: int) -> None:
        for ms in self.sample():
            self.loops[cycle] = ms

    def loop_ms(self, cycles: List[int]) -> List[List[float]]:
        """Each cycle's loop samples, in the order given."""
        return [[self.loops[c]] if c in self.loops else [] for c in cycles]
