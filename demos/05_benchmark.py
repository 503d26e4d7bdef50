#!/usr/bin/env python3
"""Heavy-light target product vs. the naive cubic kernel.

Both kernels get the same restricted instances: the heavy-light one reads
the right matrix as the bool mask of its -inf entries, the naive one as
+/-inf floats.  The naive one always forms
the full (min, max) product; the heavy-light one touches each entry's
light (row, value) group plus one Boolean matrix product, which is why it
pulls ahead as n grows.
"""

import time

import numpy as np

from minmax_apsp import restricted_target_minmax, target_minmax_naive
from minmax_apsp.cli import _bench_instance


def best_of(call, repeats=3):
    best = None
    for _ in range(repeats):
        tic = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - tic
        best = elapsed if best is None else min(best, elapsed)
    return best, result


print(f"{'n':>5} {'naive (ms)':>11} {'heavy-light (ms)':>17} {'ratio':>6}")
for n in (64, 128, 256, 512):
    instance = _bench_instance(n, seed=1)
    # the naive kernel reads the right matrix as +/-inf floats, built untimed
    b = np.where(instance.b_neg, -np.inf, np.inf)
    t_naive, want = best_of(lambda: target_minmax_naive(instance.a, b, instance.target))
    t_fast, got = best_of(lambda: restricted_target_minmax(instance))
    assert np.array_equal(got, want)
    print(f"{n:>5} {t_naive * 1e3:>11.2f} {t_fast * 1e3:>17.2f} {t_fast / t_naive:>6.2f}")

print("\noutputs verified identical on every size")
