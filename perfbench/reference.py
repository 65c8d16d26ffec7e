"""A fixed unit of reference work, timed beside every op.

The benchmark's hosts are shared: other tenants' load changes how fast
the same code runs, by up to 1.5–2× for tens of seconds at a time, in
process CPU time as well as in wall time.  A raw op time therefore
measures the host as much as the program.  The benchmark times this
reference unit just before and just after every op, and reports each
op's time divided by the mean of the two, times :data:`REFERENCE_S`
(:func:`perfbench.stats.normalise`).  That is the op's time on a host
that runs the reference unit in exactly ``REFERENCE_S`` seconds.

The unit is three parts of about equal time, each a kind of work the
pure-Python engine does: arithmetic on a small dict, random lookups in
a dict larger than the CPU's near caches, and a semijoin that builds a
set of key tuples and filters rows against it.  How much each kind
slows under load differs, and so does each workload's mix of them.  On
a loaded 2-vCPU host, normalising 12–16 s windows of each workload by
one part alone left a spread (coefficient of variation) of 4–8%
(arithmetic), 8–9% (lookups) or 2–6% (semijoin); by the three
together 4–5% on every workload, against 15–22% for the raw clock.
The unit's work and data never change, so a change to the program
moves the reported times and a change of host speed mostly does not.
"""

from __future__ import annotations

import random
import time
from typing import List, Tuple

#: Reported times are seconds on a host that runs the unit this fast.
#: It is about the unit's time on a quiet 2-vCPU development host.
REFERENCE_S = 0.010

_LOOP = 20_000
_TABLE_SIZE = 100_000
_LOOKUPS = 10_000
_ROWS = 12_000
_PROBES = 8_000
_KEYS = 6_000


class Reference:
    """The reference unit with its data; ``walls`` keeps every wall time."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.walls: List[float] = []
        self._table = {i: str(i) for i in range(_TABLE_SIZE)}
        self._lookups = [rng.randrange(_TABLE_SIZE) for _ in range(_LOOKUPS)]
        self._rows = [
            (f"k{rng.randrange(_KEYS)}", rng.randrange(500), f"r{i}")
            for i in range(_ROWS)
        ]
        self._probes = [(f"k{rng.randrange(_KEYS)}", i) for i in range(_PROBES)]

    def _work(self) -> int:
        counts: dict = {}
        for i in range(_LOOP):
            counts[i % 97] = counts.get(i % 97, 0) + i * i % 7
        width = 0
        for key in self._lookups:
            width += len(self._table[key])
        keys = {(probe[0],) for probe in self._probes}
        survivors = {row for row in self._rows if (row[0],) in keys}
        return len(counts) + width + len(survivors)

    def time(self) -> Tuple[float, float]:
        """Run the unit once; its ``(wall, cpu)`` seconds."""
        w0, c0 = time.perf_counter(), time.process_time()
        self._work()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        self.walls.append(wall)
        return wall, cpu
