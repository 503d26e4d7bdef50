#!/usr/bin/env python3
"""Watch the halving recursion level by level.

Each level halves every distance (rounding toward +inf) by solving the
two-hop closure of the canonical graph, so the hop budget delta shrinks from
n^2 down to 1 in ceil(log2(n^2)) steps.  Once a level's halving returns its
own canonical matrix, the deeper levels would only repeat it: they are
skipped and listed as reused.  Coming back up, two target products
decide each pair's parity: did some shortest path end on a +1 edge, or on a
-1 edge, at odd total weight?
"""

import numpy as np

from minmax_apsp import (
    RecursionTrace,
    adjacency_from_graph,
    ext_ceil_half,
    gen_random_graph,
    oracle_apsp,
    solve_apsp,
    canonical_adjacency,
    two_hop_target,
)

n = 24
a = adjacency_from_graph(gen_random_graph(n, 0.3, seed=11))

trace = RecursionTrace()
star = solve_apsp(a, verify=True, trace=trace)  # verify re-checks every level
print(f"solved n={n} with per-level verification, depth {trace.depth}\n")

print(f"{'level':>5} {'n':>4} {'delta':>6} {'reused':>6} {'canonical':>10} "
      f"{'two-hop':>8} {'products':>9} {'assembly':>9}")
for k, lv in enumerate(trace.levels):
    print(f"{k:>5} {lv.n:>4} {lv.delta:>6} {str(lv.reused):>6} {lv.canonical_s:>10.4f} "
          f"{lv.two_hop_s:>8.4f} {lv.products_s:>9.4f} {lv.assembly_s:>9.4f}")

# the halving law, shown concretely for the first level
halved = two_hop_target(canonical_adjacency(a))
print("\nhalving law at the top level:",
      np.array_equal(oracle_apsp(halved), ext_ceil_half(oracle_apsp(a))))
print("final distances match the oracle:", np.array_equal(star, oracle_apsp(a)))
