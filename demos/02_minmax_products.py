#!/usr/bin/env python3
"""Tour of the three product kernels.

The (min, max) product takes the bottleneck of every two-leg route and keeps
the best one.  The target product only asks *whether* each entry of a given
target matrix is that optimum.  For restricted instances (right matrix all
+/-inf, target never above the optimum) the production kernel answers without
ever forming the product.  Such a right matrix is Boolean, so the instance
takes it as the bool mask of its -inf entries.  The kernel groups each row's
columns by value, sends targets in heavy (large) groups through one Boolean
matrix product and scans the few columns of light groups.
"""

import numpy as np

from minmax_apsp import (
    NEG_INF,
    POS_INF,
    ROUTE_ABSENT,
    ROUTE_HEAVY,
    ROUTE_LIGHT,
    ROUTE_TARGET_INF,
    RestrictedInstance,
    build_row_index,
    minmax_product,
    restricted_target_minmax,
    target_minmax_naive,
)

a = np.array([[1, 3], [2, 0]], dtype=float)
b = np.array([[2, NEG_INF], [POS_INF, 1]], dtype=float)
print("A =", a.tolist())
print("B =", b.tolist())
print("min-max product:", minmax_product(a, b).tolist())

target = np.array([[2, 0], [2, 1]], dtype=float)
print("target:", target.tolist())
print("hits  :", target_minmax_naive(a, b, target).astype(int).tolist())

# a bigger restricted instance with a skewed value distribution so both
# routes fire (the hot value is low, so bottleneck optima often equal it)
rng = np.random.default_rng(0)
n = 12
values = np.where(rng.random((n, n)) < 0.5, -5.0, rng.integers(-4, 6, (n, n)))
b_neg = rng.random((n, n)) < 0.5  # where the right matrix is -inf
signs = np.where(b_neg, NEG_INF, POS_INF)  # the same matrix, for the oracles
product = minmax_product(values, signs)
goal = np.where(np.isfinite(product), product - rng.integers(0, 2, (n, n)), product)
instance = RestrictedInstance(values, b_neg, goal)

index = build_row_index(values)
print(f"\nn={n}, cutoff ceil(sqrt(n)) = {index.cutoff}, "
      f"registered heavy (row, value) pairs: {index.heavy_rows}")

bits, routes = restricted_target_minmax(instance, return_routes=True)
reference = target_minmax_naive(values, signs, goal)
print("matches the naive kernel:", np.array_equal(bits, reference))
names = {ROUTE_HEAVY: "heavy", ROUTE_LIGHT: "light",
         ROUTE_ABSENT: "absent", ROUTE_TARGET_INF: "+inf target"}
print("entries per route:",
      ", ".join(f"{name} {int((routes == code).sum())}" for code, name in names.items()))
