"""Min-max matrix products.

Three operations live here: the cubic (min, max) product, the naive target
product built on top of it (both serve as oracles), and the production target
product for restricted instances.  That one groups the columns of every row of
the left matrix by value into one flat (row, value) group index, finds the
group of every target at once by binary search on the sorted group keys, and
answers targets in heavy groups (more than ceil(sqrt(n)) columns) through one
Boolean matrix product and targets in light groups by scanning the group's few
columns.  Both target products return (n, n) bool arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extmat import (
    NEG_INF,
    POS_INF,
    BitMatrix,
    VerificationError,
    _conform_square_pair,
    bool_product,
)

# routing outcome per entry, for diagnostics and the completeness tests
ROUTE_ABSENT = 0
ROUTE_HEAVY = 1
ROUTE_LIGHT = 2
ROUTE_TARGET_INF = 3


def minmax_product(a, b):
    """out[i, j] = min_k max(a[i, k], b[k, j]).  Cubic; this is the oracle."""
    a, b = _conform_square_pair(a, b)
    n = a.shape[0]
    out = np.empty_like(a)
    for i in range(n):
        out[i] = np.minimum.reduce(np.maximum(a[i][:, None], b), axis=0)
    return out


def target_minmax_naive(a, b, target) -> np.ndarray:
    """Flag entries where the (min, max) product equals the target: compute the
    full product, then compare elementwise."""
    product = minmax_product(a, b)
    target = np.asarray(target, dtype=np.float64)
    if target.shape != product.shape:
        raise ValueError(f"dimension mismatch: {target.shape} vs {product.shape}")
    return product == target


@dataclass
class RowIndex:
    """The (row, value) groups of a matrix: the columns of row i that hold one
    value, for every row i and every value in it.

    Group g has key row * width + rank, where rank is the value's position
    among the matrix's ``values``; keys ascend, so groups run row-major in
    ascending value order.  Its columns, ascending, are
    ``columns[starts[g]:starts[g + 1]]``.  A group is heavy when it holds
    strictly more than ``cutoff`` columns; heavy groups get consecutive ids in
    group order, so the heavy matrix is reproducible bit for bit, and light
    groups carry heavy id -1.
    """

    n: int
    cutoff: int
    values: np.ndarray  # (width,) distinct values of the matrix, ascending
    keys: np.ndarray  # (groups,) row * width + rank of the value
    starts: np.ndarray  # (groups + 1,) offset of each group in columns
    columns: np.ndarray  # (rows * n,) columns in group order
    heavy_id: np.ndarray  # (groups,) heavy id per group, -1 when light
    heavy_rows: int  # number of heavy groups

    def group_of(self, rows, values):
        """Group number of each (row, value) pair, or -1 where the value does
        not occur in its row."""
        if not self.keys.size:  # rows with no columns hold no value
            return np.full(np.shape(values), -1)
        width = self.values.size
        rank = np.minimum(np.searchsorted(self.values, values), width - 1)
        keys = rows * width + rank
        group = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        group[(self.values[rank] != values) | (self.keys[group] != keys)] = -1
        return group


def build_row_index(a) -> RowIndex:
    """Group every row's columns by value and mark the groups holding more
    than ceil(sqrt(n)) columns heavy.

    The cutoff only balances cost, so the product's answer is the same at
    every cutoff; this one is the smallest m with m * m >= n, in exact
    integer arithmetic."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    rows, n = a.shape
    cutoff = math.isqrt(n - 1) + 1 if n > 1 else 1
    # a stable sort keeps each group's columns ascending
    order = np.argsort(a, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(a, order, axis=1)
    is_start = np.ones((rows, n), dtype=bool)
    is_start[:, 1:] = sorted_vals[:, 1:] != sorted_vals[:, :-1]
    heads = np.flatnonzero(is_start)
    head_vals = sorted_vals.ravel()[heads]
    values = np.unique(head_vals)
    keys = heads // n * values.size + np.searchsorted(values, head_vals)
    starts = np.append(heads, rows * n)
    heavy = np.diff(starts) > cutoff
    heavy_id = np.where(heavy, np.cumsum(heavy) - 1, -1)
    return RowIndex(
        n, cutoff, values, keys, starts, order.ravel(), heavy_id, int(heavy.sum())
    )


def build_heavy_matrix(index: RowIndex) -> BitMatrix:
    """One 0/1 row per heavy group: bit j set iff column j is in the group."""
    member_id = np.repeat(index.heavy_id, np.diff(index.starts))
    member = member_id >= 0
    occupancy = np.zeros((index.heavy_rows, index.n), dtype=bool)
    occupancy[member_id[member], index.columns[member]] = True
    return BitMatrix.from_bool(occupancy)


@dataclass(frozen=True)
class RestrictedInstance:
    """A target product instance whose second matrix is all +/-inf and whose
    target never exceeds the true (min, max) product.

    The +/-inf shape of ``b`` is cheap and checked on construction; the target
    bound costs a full cubic product and is only checked on demand.
    """

    a: np.ndarray
    b: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        a, b = _conform_square_pair(self.a, self.b)
        target = np.asarray(self.target, dtype=np.float64)
        if target.shape != a.shape:
            raise ValueError(f"dimension mismatch: target {target.shape} vs {a.shape}")
        if not ((b == POS_INF) | (b == NEG_INF)).all():
            bad = np.argwhere((b != POS_INF) & (b != NEG_INF))[0]
            raise ValueError(
                f"b[{bad[0]}, {bad[1]}] = {b[bad[0], bad[1]]}: every entry of b "
                "must be -inf or +inf"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "target", target)

    def check_target_bound(self):
        """Assert target <= min-max product elementwise (cubic)."""
        product = minmax_product(self.a, self.b)
        bad = self.target > product
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise VerificationError(
                f"target[{i}, {j}] = {self.target[i, j]} exceeds the min-max "
                f"product {product[i, j]}"
            )


def restricted_target_minmax(
    instance: RestrictedInstance,
    *,
    verify=False,
    return_routes=False,
):
    """Target product for restricted instances via heavy-light row decomposition.

    For each entry the target value is looked up among the (row, value)
    groups of ``a``: a target in a heavy group reads one precomputed bit of
    F = H x B', a target in a light group scans the group's (few) columns for
    one where b is -inf, and a target absent from its row yields False.  A
    +inf target yields True directly: the instance bound forces the min-max
    there to +inf, and no finite witness rule applies.  The result is an
    (n, n) bool array.

    Groups of more than ceil(sqrt(n)) columns are heavy (``build_row_index``).
    With verify=True the target bound is asserted first (cubic).  With
    return_routes=True a second (n, n) int8 array of ROUTE_* codes is returned
    for diagnostics.
    """
    if verify:
        instance.check_target_bound()
    a, b, target = instance.a, instance.b, instance.target
    n = a.shape[0]
    index = build_row_index(a)
    b_neg = b == NEG_INF
    f = bool_product(build_heavy_matrix(index), BitMatrix.from_bool(b_neg))

    target_inf = target.ravel() == POS_INF
    queries = np.flatnonzero(~target_inf)
    qi, qj = np.divmod(queries, n)
    group = index.group_of(qi, target.ravel()[queries])
    heavy_id = index.heavy_id[group]
    heavy = (group >= 0) & (heavy_id >= 0)
    light = (group >= 0) & (heavy_id < 0)

    out = target_inf.copy()
    out[queries[heavy]] = f.to_bool()[heavy_id[heavy], qj[heavy]]
    # scan each light group, retiring queries as they hit or exhaust it
    b_neg_flat = b_neg.ravel()
    live_q, live_j = queries[light], qj[light]
    pos, end = index.starts[group[light]], index.starts[group[light] + 1]
    while live_q.size:
        hit = b_neg_flat[index.columns[pos] * n + live_j]
        out[live_q[hit]] = True
        pos = pos + 1
        live = ~hit & (pos < end)
        live_q, live_j, pos, end = live_q[live], live_j[live], pos[live], end[live]

    result = out.reshape(n, n)
    if not return_routes:
        return result
    routes = np.where(target_inf, ROUTE_TARGET_INF, ROUTE_ABSENT).astype(np.int8)
    routes[queries[heavy]] = ROUTE_HEAVY
    routes[queries[light]] = ROUTE_LIGHT
    return result, routes.reshape(n, n)
