"""Min-max matrix products.

Three operations live here: the cubic (min, max) product, the naive target
product built on top of it (both serve as oracles), and the production target
product for restricted instances, which splits each row's values into heavy
and light by occurrence count and answers heavy targets through one packed
Boolean matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_CEILING, Context, Decimal
from fractions import Fraction

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


def target_minmax_naive(a, b, target) -> BitMatrix:
    """Flag entries where the (min, max) product equals the target: compute the
    full product, then compare elementwise."""
    product = minmax_product(a, b)
    target = np.asarray(target, dtype=np.float64)
    if target.shape != product.shape:
        raise ValueError(f"dimension mismatch: {target.shape} vs {product.shape}")
    return BitMatrix.from_bool(product == target)


def occurrence_cutoff(n, t):
    """Smallest integer m with m >= n**t.

    Found by binary search with an exact integer-power predicate whenever t is
    a binary rational with denominator <= 64 (which covers every value the
    tooling uses); otherwise evaluated at 60 significant digits.  Plain
    ``ceil(n ** t)`` can land on the wrong side of an exact power boundary.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold exponent must lie in [0, 1], got {t}")
    if n <= 1 or t == 0.0:
        return 1
    frac = Fraction(t)
    if frac.denominator <= 64:
        p, q = frac.numerator, frac.denominator
        target = n**p
        lo, hi = 1, n
        while lo < hi:
            mid = (lo + hi) // 2
            if mid**q >= target:
                hi = mid
            else:
                lo = mid + 1
        return lo
    power = Context(prec=60).power(Decimal(n), Decimal(t))
    return int(power.to_integral_value(ROUND_CEILING))


@dataclass
class RowIndex:
    """Per-row sorted view of a matrix plus its heavy-value registry.

    Row i sorted by (value, column) is the pair (sorted_vals[i], order[i]).
    A value is heavy for row i when it occurs strictly more than ``cutoff``
    times there; heavy values get consecutive ids row-major in ascending value
    order, so runs are reproducible bit for bit.  The run_* arrays describe
    the maximal equal-value runs of the row-sorted matrix in flat row-major
    positions; every heavy run carries its registry id, light runs carry -1.
    """

    n: int
    t: float
    cutoff: int
    order: np.ndarray  # (rows, n) argsort of each row, ties by column
    sorted_vals: np.ndarray  # (rows, n) row-sorted values
    heavy_values: list  # per row: ascending ndarray of heavy values
    rho_offsets: np.ndarray  # (rows + 1,) id of each row's first heavy value
    run_starts: np.ndarray  # flat position of each equal-value run
    run_lengths: np.ndarray
    run_heavy_id: np.ndarray  # registry id per run, -1 when light

    @property
    def heavy_rows(self) -> int:
        """Total number of registered (row, heavy value) pairs."""
        return int(self.rho_offsets[-1])

    def heavy_row_id(self, i, value):
        """Registry id of (row i, value), or None if the value is not heavy there."""
        hv = self.heavy_values[i]
        pos = int(np.searchsorted(hv, value))
        if pos == hv.size or hv[pos] != value:
            return None
        return int(self.rho_offsets[i]) + pos


def build_row_index(a, t) -> RowIndex:
    """Sort every row lexicographically by (value, column) and register the
    values occurring more than ceil(n**t) times."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    rows, n = a.shape
    cutoff = occurrence_cutoff(n, t)
    order = np.argsort(a, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(a, order, axis=1)
    if rows == 0 or n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return RowIndex(
            n,
            t,
            cutoff,
            order,
            sorted_vals,
            [sorted_vals[i, :0] for i in range(rows)],
            np.zeros(rows + 1, dtype=np.int64),
            empty,
            empty.copy(),
            empty.copy(),
        )
    is_start = np.ones((rows, n), dtype=bool)
    is_start[:, 1:] = sorted_vals[:, 1:] != sorted_vals[:, :-1]
    run_starts = np.flatnonzero(is_start)
    run_lengths = np.diff(np.append(run_starts, rows * n))
    heavy_runs = run_lengths > cutoff
    run_heavy_id = np.full(run_starts.size, -1, dtype=np.int64)
    run_heavy_id[heavy_runs] = np.arange(int(heavy_runs.sum()), dtype=np.int64)
    per_row = np.bincount(run_starts[heavy_runs] // n, minlength=rows)
    rho_offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(per_row, out=rho_offsets[1:])
    heavy_values = np.split(
        sorted_vals.ravel()[run_starts[heavy_runs]], rho_offsets[1:-1]
    )
    return RowIndex(
        n,
        t,
        cutoff,
        order,
        sorted_vals,
        heavy_values,
        rho_offsets,
        run_starts,
        run_lengths,
        run_heavy_id,
    )


def build_heavy_matrix(a, index: RowIndex) -> BitMatrix:
    """One 0/1 row per registered heavy value: bit j set iff a[i, j] equals it."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] + 1 != index.rho_offsets.size or a.shape[1] != index.n:
        raise ValueError("row index does not match the matrix it was built from")
    occupancy = np.zeros((index.heavy_rows, index.n), dtype=bool)
    heavy_runs = index.run_heavy_id >= 0
    if heavy_runs.any():
        starts = index.run_starts[heavy_runs]
        lengths = index.run_lengths[heavy_runs]
        total = int(lengths.sum())
        bases = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        members = np.arange(total, dtype=np.int64) + np.repeat(starts - bases, lengths)
        rows = np.repeat(index.run_heavy_id[heavy_runs], lengths)
        occupancy[rows, index.order.ravel()[members]] = True
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
    t=0.5,
    *,
    verify=False,
    return_routes=False,
):
    """Target product for restricted instances via heavy-light row decomposition.

    For each entry the target value is looked up in its row of ``a``: a heavy
    target reads one precomputed bit of F = H x B', a light target scans its
    (short) occurrence run for a column where b is -inf, and an absent target
    yields 0.  A +inf target yields 1 directly: the instance bound forces the
    min-max there to +inf, and no finite witness rule applies.

    ``t`` in [0, 1] positions the heavy/light cutoff at ceil(n**t); the output
    is the same for every t.  With verify=True the target bound is asserted
    first (cubic).  With return_routes=True a second (n, n) int8 array of
    ROUTE_* codes is returned for diagnostics.
    """
    if verify:
        instance.check_target_bound()
    a, b, target = instance.a, instance.b, instance.target
    n = a.shape[0]
    index = build_row_index(a, t)
    heavy_bits = build_heavy_matrix(a, index)
    b_neg = b == NEG_INF
    f = bool_product(heavy_bits, BitMatrix.from_bool(b_neg))

    lo = np.empty((n, n), dtype=np.int64)
    hi = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        sv = index.sorted_vals[i]
        lo[i] = sv.searchsorted(target[i], side="left")
        hi[i] = sv.searchsorted(target[i], side="right")
    counts = hi - lo

    target_inf = target == POS_INF
    heavy = (counts > index.cutoff) & ~target_inf
    light = (counts > 0) & (counts <= index.cutoff) & ~target_inf

    out = target_inf.copy()
    out_flat = out.ravel()
    if heavy.any():
        qi, qj = np.nonzero(heavy)
        # lo points at the first occurrence, which is exactly a run start
        run = np.searchsorted(index.run_starts, qi * n + lo[qi, qj], side="right") - 1
        registry_row = index.run_heavy_id[run]
        word = f.words[registry_row, qj >> 6]
        bit = ((word >> (qj & 63).astype(np.uint64)) & np.uint64(1)).astype(bool)
        out_flat[(qi * n + qj)[bit]] = True
    if light.any():
        qi, qj = np.nonzero(light)
        order_flat = index.order.ravel()
        b_neg_flat = b_neg.ravel()
        pos = lo[qi, qj]
        end = hi[qi, qj]
        base = qi * n
        # scan each occurrence run, retiring queries as they hit or exhaust
        while qi.size:
            hit = b_neg_flat[order_flat[base + pos] * n + qj]
            if hit.any():
                out_flat[(base + qj)[hit]] = True
            pos = pos + 1
            live = ~hit & (pos < end)
            if not live.all():
                qi, qj, pos, end, base = (
                    qi[live],
                    qj[live],
                    pos[live],
                    end[live],
                    base[live],
                )

    result = BitMatrix.from_bool(out)
    if not return_routes:
        return result
    routes = np.full((n, n), ROUTE_ABSENT, dtype=np.int8)
    routes[target_inf] = ROUTE_TARGET_INF
    routes[heavy] = ROUTE_HEAVY
    routes[light] = ROUTE_LIGHT
    return result, routes
