"""Machine-speed calibration for the benchmark's times.

The machine the benchmark was built on (2 shared cores) changes speed from
minute to minute by more than the bounds allow: over ten consecutive
``er_sparse`` runs the median decode pass ranged from 17 to 30 ms.  The
change is common to all pure-Python work, so an untraced run times a fixed
reference kernel between all its timed work, and scales each timed piece
by ``REFERENCE_S`` over the mean kernel time on either side of it.  A
reported time is thus the time the work would have taken at the speed
where the kernel takes ``REFERENCE_S``; a change to vrgc moves it, a
change in machine speed mostly does not.  The unscaled times are kept in
each run's ``run.json``.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time

# Median time of one ``reference_work()`` call on the machine the
# benchmark was built on (Python 3.11, 2 vCPUs).
REFERENCE_S = 0.028
REPEATS = 11


def reference_work() -> int:
    """Fixed work of the kind vrgc does: sets and dicts of small ints,
    sorted tuples, and a JSON round trip.  Independent of vrgc."""
    rng = random.Random(0)
    adj: dict[int, set[int]] = {v: set() for v in range(300)}
    for _ in range(900):
        u, v = rng.randrange(300), rng.randrange(300)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    triples = set()
    for v in adj:
        for w in adj[v]:
            for x in adj[w] | adj[v]:
                if x != v and x != w:
                    triples.add(tuple(sorted((v, w, x))))
    return len(json.loads(json.dumps(sorted(triples))))


def kernel_seconds() -> float:
    """Median time of ``REPEATS`` calls of the reference kernel.  The cyclic
    garbage collector is off meanwhile, so the size of the program's heap
    does not leak into the kernel's time (the kernel makes no cycles)."""
    samples = []
    gc.disable()
    try:
        for _ in range(REPEATS):
            started = time.perf_counter()
            reference_work()
            samples.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return statistics.median(samples)
