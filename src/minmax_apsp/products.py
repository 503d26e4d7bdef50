"""Min-max matrix products.

Three operations live here: the cubic (min, max) product, the naive target
product built on top of it (both serve as oracles), and the production target
product for restricted instances.  A restricted instance's second matrix B' is
all +/-inf, so it is Boolean: the instance holds it as the bool mask of its
-inf entries, and only the two oracles read a float B'.  The production
product groups the columns of every row of the left matrix by value into one
flat (row, value) group index, finds the group of every target at once by
binary search on the sorted group keys, and answers targets in heavy groups
(more than ceil(sqrt(n)) columns, of a value other than +inf) through one
Boolean matrix product and targets in light groups by scanning the group's
few columns of the mask.  The index, with its heavy matrix, depends on the
left matrix alone, so products that share it (the two parity products of a
recursion level) build it once and pass it in.  Both target products return (n, n) bool arrays.
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
    as_square,
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


# the index's column offsets, heavy ids and group numbers, and the kernel's
# query numbers, are int32: half the bytes of int64 on arrays of n^2 entries
_INT32_ENTRIES = 2**31


@dataclass
class RowIndex:
    """The (row, value) groups of a (rows, n) matrix: the columns of row i that
    hold one value, for every row i and every value in it.

    Group g has key row * width + rank, where rank is the value's position
    among the matrix's ``values``; keys ascend, so groups run row-major in
    ascending value order.  Its columns, ascending, are
    ``columns[starts[g]:starts[g + 1]]``.  A group is heavy when it holds
    strictly more than ``cutoff`` columns and its value is not +inf: a +inf
    target is answered without a lookup (ROUTE_TARGET_INF), so no query ever
    reads a +inf group, and it stays light.  Heavy groups get consecutive ids
    in group order, so the heavy matrix is reproducible bit for bit, and light
    groups carry heavy id -1.  ``heavy`` is that matrix, one row per heavy
    group (``build_heavy_matrix``).

    Offsets, columns and heavy ids are int32, which holds every offset while
    rows * n < 2**31 (``build_row_index`` refuses larger matrices); keys stay
    int64, since row * width can pass 2**31.  No product writes to an index,
    so one index serves any number of products with the same left matrix.
    """

    rows: int
    n: int
    cutoff: int
    values: np.ndarray  # (width,) distinct values of the matrix, ascending
    keys: np.ndarray  # (groups,) int64 row * width + rank of the value
    starts: np.ndarray  # (groups + 1,) int32 offset of each group in columns
    columns: np.ndarray  # (rows * n,) int32 columns in group order
    heavy_id: np.ndarray  # (groups,) int32 heavy id per group, -1 when light
    heavy_rows: int  # number of heavy groups
    heavy: np.ndarray | None = None  # (heavy_rows, n) bool, set by build_row_index

    def group_of(self, rows, values):
        """Group number of each (row, value) pair as int32, or -1 where the
        value does not occur in its row."""
        if not self.keys.size:  # rows with no columns hold no value
            return np.full(np.shape(values), -1, dtype=np.int32)
        width = self.values.size
        rank = np.minimum(np.searchsorted(self.values, values), width - 1)
        keys = rows * np.int64(width) + rank
        group = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        missing = (self.values[rank] != values) | (self.keys[group] != keys)
        group = group.astype(np.int32)
        group[missing] = -1
        return group


def build_row_index(a) -> RowIndex:
    """Group every row's columns by value, mark the groups of finite or -inf
    value holding more than ceil(sqrt(n)) columns heavy, and build their
    heavy matrix.

    The cutoff only balances cost, so the product's answer is the same at
    every cutoff; this one is the smallest m with m * m >= n, in exact
    integer arithmetic.  A matrix of 2**31 entries or more is refused with
    ValueError before anything is allocated: its offsets would not fit the
    index's int32 arrays."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    rows, n = a.shape
    if rows * n >= _INT32_ENTRIES:
        raise ValueError(
            f"a {rows} x {n} matrix has {rows * n} entries; the row index "
            "holds fewer than 2**31"
        )
    cutoff = math.isqrt(n - 1) + 1 if n > 1 else 1
    # a stable sort keeps each group's columns ascending
    order = np.argsort(a, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(a, order, axis=1)
    columns = order.ravel().astype(np.int32)
    del order
    is_start = np.ones((rows, n), dtype=bool)
    is_start[:, 1:] = sorted_vals[:, 1:] != sorted_vals[:, :-1]
    heads = np.flatnonzero(is_start)
    head_vals = sorted_vals.ravel()[heads]
    del sorted_vals, is_start
    values = np.unique(head_vals)
    keys = heads // n * values.size + np.searchsorted(values, head_vals)
    starts = np.append(heads, rows * n).astype(np.int32)
    heavy = (np.diff(starts) > cutoff) & (head_vals != POS_INF)
    heavy_id = np.where(heavy, np.cumsum(heavy, dtype=np.int32) - 1, np.int32(-1))
    index = RowIndex(
        rows, n, cutoff, values, keys, starts, columns, heavy_id, int(heavy.sum())
    )
    # looked up on this module, so that perfbench's tracer times it
    index.heavy = build_heavy_matrix(index)
    return index


def build_heavy_matrix(index: RowIndex) -> np.ndarray:
    """One bool row per heavy group: True at the columns in the group."""
    member_id = np.repeat(index.heavy_id, np.diff(index.starts))
    member = member_id >= 0
    occupancy = np.zeros((index.heavy_rows, index.n), dtype=bool)
    occupancy[member_id[member], index.columns[member]] = True
    return occupancy


@dataclass(frozen=True)
class RestrictedInstance:
    """A target product instance whose second matrix B' is all +/-inf and
    whose target never exceeds the true (min, max) product.

    B' is held as ``b_neg``, the bool mask of its -inf entries.  A mask that
    is not bool or not of a's shape raises ValueError; it is never coerced,
    as a float +/-inf B' would read True everywhere.  So does NaN in ``a`` or
    ``target``.  The target bound costs a cubic product; it is checked on
    demand.
    """

    a: np.ndarray
    b_neg: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        a = as_square(self.a, "a")
        b_neg = np.asarray(self.b_neg)
        if b_neg.dtype != bool or b_neg.shape != a.shape:
            raise ValueError(
                f"b_neg must be a {a.shape} bool mask of the -inf entries of b, "
                f"got {b_neg.dtype} of shape {b_neg.shape}"
            )
        target = np.asarray(self.target, dtype=np.float64)
        if target.shape != a.shape:
            raise ValueError(f"dimension mismatch: target {target.shape} vs {a.shape}")
        for name, matrix in (("a", a), ("target", target)):
            nan = np.isnan(matrix)
            if nan.any():
                i, j = np.argwhere(nan)[0]
                raise ValueError(f"{name}[{i}, {j}] is nan, not an extended integer")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b_neg", b_neg)
        object.__setattr__(self, "target", target)

    def check_target_bound(self):
        """Assert target <= min-max product elementwise (cubic)."""
        product = minmax_product(self.a, np.where(self.b_neg, NEG_INF, POS_INF))
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
    index: RowIndex | None = None,
    verify=False,
    return_routes=False,
):
    """Target product for restricted instances via heavy-light row decomposition.

    For each entry the target value is looked up among the (row, value)
    groups of ``a``: a target in a heavy group reads one bit of F = H x B',
    a target in a light group scans the group's (few) columns for one where
    B' is -inf, and a target absent from its row yields False.  A +inf
    target yields True directly: the instance bound forces the min-max there
    to +inf, and no finite witness rule applies.  The result is an (n, n)
    bool array.

    ``index`` is ``build_row_index(instance.a)``, built here when it is None.
    Products with the same left matrix can share one: the call only reads it.
    An index of another shape raises ValueError.  Groups of more than
    ceil(sqrt(n)) columns are heavy, unless their value is +inf.  With
    verify=True the target bound is asserted first (cubic).  With
    return_routes=True a second (n, n) int8 array of ROUTE_* codes is
    returned for diagnostics.
    """
    a, b_neg, target = instance.a, instance.b_neg, instance.target
    n = a.shape[0]
    if index is None:
        index = build_row_index(a)
    elif (index.rows, index.n) != a.shape:
        raise ValueError(
            f"row index of a {index.rows} x {index.n} matrix for a {a.shape} instance"
        )
    if verify:
        instance.check_target_bound()

    # True at +inf targets; the rest are int32 queries (fewer than 2**31)
    out = target.ravel() == POS_INF
    queries = np.flatnonzero(~out).astype(np.int32)
    qi, qj = np.divmod(queries, n)
    group = index.group_of(qi, target.ravel()[queries])
    heavy_id = index.heavy_id[group]
    heavy = (group >= 0) & (heavy_id >= 0)
    light = (group >= 0) & (heavy_id < 0)
    heavy_q, heavy_j, heavy_id = queries[heavy], qj[heavy], heavy_id[heavy]
    light_q, light_j, light_g = queries[light], qj[light], group[light]
    # F = H x B' only once the lookup's arrays over every query are gone
    del queries, qi, qj, group, heavy, light

    f = bool_product(BitMatrix(index.heavy), BitMatrix(b_neg))
    out[heavy_q] = f[heavy_id, heavy_j]
    del f
    # scan each light group, retiring queries as they hit or exhaust it
    b_neg_flat = b_neg.ravel()
    live_q, live_j = light_q, light_j
    pos, end = index.starts[light_g], index.starts[light_g + 1]
    while live_q.size:
        hit = b_neg_flat[index.columns[pos] * n + live_j]
        out[live_q[hit]] = True
        pos = pos + 1
        live = ~hit & (pos < end)
        live_q, live_j, pos, end = live_q[live], live_j[live], pos[live], end[live]

    result = out.reshape(n, n)
    if not return_routes:
        return result
    routes = np.where(target.ravel() == POS_INF, ROUTE_TARGET_INF, ROUTE_ABSENT)
    routes[heavy_q] = ROUTE_HEAVY
    routes[light_q] = ROUTE_LIGHT
    return result, routes.reshape(n, n).astype(np.int8)
