"""Reference loop that measures a core's speed beside a timed process.

    python3 perfbench/calib.py CPU OUT

Pinned to CPU at nice 10, it repeats a fixed unit of pure-Python integer
work: a fraction-free elimination of a 12x10 integer matrix and a product of
two dict polynomials, the kinds of work chowforge does.  After every unit it
records the monotonic time and its own CPU time.  On SIGTERM it writes the
samples to OUT as JSON.  It dies with its parent.

This host's cores change speed by up to 2x within seconds, as neighbours
come and go.  The benchmark runs each timed chowforge process on the same
core as this loop, at the same time, and divides the chowforge CPU time by
the loop's CPU time per unit over the same interval.  The result is the
chowforge cost in reference units, which a faster or slower core does not
change.  The loop's code is fixed, so a change to chowforge cannot move it.
"""

from __future__ import annotations

import array
import ctypes
import json
import os
import random
import signal
import sys
import time

NICE = 10  # about a tenth of the core beside a process at nice 0
PR_SET_PDEATHSIG = 1


def _inputs():
    rng = random.Random(7)
    matrix = [[rng.randrange(-50, 50) for _ in range(10)] for _ in range(12)]
    poly = {(rng.randrange(6), rng.randrange(6)): rng.randrange(-9, 9) for _ in range(12)}
    return matrix, poly


MATRIX, POLY = _inputs()


def unit() -> tuple[int, int]:
    """One unit of reference work: Bareiss elimination and a poly product."""
    m = [row[:] for row in MATRIX]
    prev, rank = 1, 0
    for c in range(len(m[0])):
        p = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        piv = m[rank][c]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            m[i] = [(piv * a - f * b) // prev for a, b in zip(m[i], m[rank])]
        prev, rank = piv, rank + 1
    prod: dict[tuple, int] = {}
    for (a, b), x in POLY.items():
        for (c, d), y in POLY.items():
            key = (a + c, b + d)
            prod[key] = prod.get(key, 0) + x * y
    return rank, len(prod)


def main(argv=None) -> int:
    cpu, out = argv or sys.argv[1:]
    try:  # SIGKILL when the benchmark dies, even while stopped
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass
    parent = os.getppid()
    os.sched_setaffinity(0, {int(cpu)})
    os.nice(NICE)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    ts, cpu_ns = array.array("d", [time.monotonic()]), array.array("q", [time.thread_time_ns()])
    while not stop and os.getppid() == parent:
        unit()
        ts.append(time.monotonic())
        cpu_ns.append(time.thread_time_ns())
    with open(out, "w", encoding="ascii") as fh:
        json.dump({"t": ts.tolist(), "cpu_ns": cpu_ns.tolist()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
