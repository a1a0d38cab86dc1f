#!/usr/bin/env python3
"""Where the time goes: O(n log n) construction vs O(n^2) certification.

Building a candidate order is nearly free even at large n; certifying it
against all four compatibility notions touches every matrix entry and
dominates.  Doubling n should roughly double construction time and quadruple
verification time.
"""

import statistics
import time

from circrob import circle_instance, find_compatible_order, verify


def median_time(fn, reps=5):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


print(f"{'n':>6} {'construct':>12} {'verify':>12}")
prev = None
for n in (500, 1000, 2000, 4000):
    D = circle_instance(n, "chord")
    order = find_compatible_order(D)
    t_con = median_time(lambda: find_compatible_order(D))
    t_ver = median_time(lambda: verify(D, order))
    note = ""
    if prev:
        note = f"   (x{t_con / prev[0]:.1f} / x{t_ver / prev[1]:.1f} vs n/2)"
    print(f"{n:>6} {t_con * 1e3:>10.2f}ms {t_ver * 1e3:>10.2f}ms{note}")
    prev = (t_con, t_ver)

print(
    "\nend-to-end and per-layer timings of the CLI (see perfbench/README.md):"
    "\n  python3 perfbench/run.py --workload circle-shuffled --seed 1 --seconds 12"
)
