"""The recursive halving engine.

Each level rewires the graph canonically, halves all distances through a
two-hop closure (three Boolean products), solves the halved instance
recursively, and then recovers the lost parity bit with two restricted
target products: one against the canonical +1 edges, one against the -1
edges.  A pair's distance is odd exactly when one of the two products fires.
Both products have the halved distances as their left matrix, so they share
one row index.  The products' heavy/light cutoff only balances their cost; no
output depends on it.  Once a level's halving returns its own canonical
matrix, every deeper level would repeat it, so the recursion goes straight to
delta = 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import extmat, products
from .extmat import POS_INF, BitMatrix, VerificationError, as_square, ext_ceil_half
from .graph import canonical_adjacency, is_delta_regular, one_regular_apsp, oracle_apsp
from .products import RestrictedInstance, restricted_target_minmax


@dataclass
class LevelTrace:
    """Size, hop budget, and stage timings for one recursion level; a reused
    level was skipped because it would repeat the level above it."""

    n: int
    delta: int
    reused: bool = False
    canonical_s: float = 0.0
    two_hop_s: float = 0.0
    recursion_s: float = 0.0
    products_s: float = 0.0
    assembly_s: float = 0.0


@dataclass
class RecursionTrace:
    levels: list = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.levels)


def two_hop_target(canonical) -> np.ndarray:
    """Halved two-hop closure ext_ceil_half(minplus_product(c, c)) of a
    canonical adjacency c with entries in {-1, 0, 1, +inf}, from Boolean
    products of N = (c == -1), Z = (c <= 0) and F = finite: -1 where N.N is
    set, else 0 where N.F + F.N + Z.Z is set, else 1 where F.F is set, else
    +inf (the small-weight reduction of Alon-Galil-Margalit and Zwick)."""
    c = as_square(canonical)
    legal = (c == -1) | (c == 0) | (c == 1) | (c == POS_INF)
    if not legal.all():
        i, j = np.argwhere(~legal)[0]
        raise VerificationError(
            f"canonical entry ({i}, {j}) = {c[i, j]} left {{-1, 0, 1, +inf}}"
        )
    neg, zero, finite = c == -1, c <= 0, c < POS_INF

    # looked up on extmat, so that perfbench's tracer counts these products
    def product(p, q):
        return extmat.bool_product(BitMatrix.from_bool(p), BitMatrix.from_bool(q))

    halved = np.full(c.shape, POS_INF)
    halved[product(finite, finite)] = 1.0
    halved[product(np.hstack([neg, finite, zero]), np.vstack([finite, neg, zero]))] = 0.0
    halved[product(neg, neg)] = -1.0
    return halved


def parity_masks(signs):
    """(x_plus, x_minus): the bool masks of the +1 / -1 canonical edges, the
    -inf entries of the two parity products' B'."""
    signs = np.asarray(signs)
    return signs == 1, signs == -1


def parity_products(halved_dist, x_plus, x_minus, *, verify=False):
    """The two parity detectors (z_plus, z_minus).

    z_minus targets the halved distances themselves against the -1-edge mask;
    z_plus targets them shifted down by one against the +1-edge mask (both
    infinities stay put under the shift).  Both instances satisfy the
    restricted-product bound by the triangle inequality; verify=True asserts
    it.  Both products group the same left matrix, so one row index, heavy
    matrix included, serves them both.
    """
    halved_dist = as_square(halved_dist)
    minus_inst = RestrictedInstance(halved_dist, x_minus, halved_dist)
    plus_inst = RestrictedInstance(halved_dist, x_plus, halved_dist - 1.0)
    # looked up on products, so that perfbench's tracer times it
    index = products.build_row_index(halved_dist)
    z_minus = restricted_target_minmax(minus_inst, index=index, verify=verify)
    z_plus = restricted_target_minmax(plus_inst, index=index, verify=verify)
    return z_plus, z_minus


def assemble_distances(halved_dist, z_plus, z_minus) -> np.ndarray:
    """Undo the halving: odd pairs (either detector fired) get 2d - 1, the
    rest get 2d; IEEE arithmetic keeps +/-inf where they are."""
    doubled = 2.0 * as_square(halved_dist)
    return np.where(z_plus | z_minus, doubled - 1.0, doubled)


def apsp_minus_zero_one(a, delta, *, verify=False, trace=None) -> np.ndarray:
    """Exact distances for a delta-regular {-1, 0, 1} adjacency matrix.

    delta=1 solves directly; otherwise the instance is rewired canonically,
    halved, recursed with ceil(delta/2) (or 1, see below), and reassembled
    from the parity products.  verify=True re-derives every level against the brute-force
    oracle (regularity, the halving law, the product bounds, the parity law,
    and the final distances) at cubic cost per level.  Pass a RecursionTrace
    to collect per-level sizes and timings.

    The fixed-point skip: when a level's halved matrix equals its canonical
    matrix, it recurses with delta = 1.  This is exact because
    canonical_adjacency is idempotent: every deeper level would get this same
    matrix, rewire it to itself and halve it to itself until delta reached 1,
    so the base case sees exactly the matrix it would have seen without the
    skip (and verify=True still checks that it is 1-regular).  The trace
    keeps one reused LevelTrace per skipped delta, so its depth and deltas
    are those of the full recursion.

    Across its recursive call a level holds only an (n, n) int8 matrix of
    the canonical edge signs, which is all that its parity masks read: its
    input is dropped once rewired, and the halved matrix is handed to the
    callee, which drops it in turn.  So with verify=False no float64 (n, n)
    array outlives its level, and peak memory does not grow with depth
    (on CPython >= 3.11, whose calls move their arguments into the callee).
    verify=True also keeps the level's oracle distances.
    """
    a = as_square(a)
    delta = int(delta)
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    level = LevelTrace(n=a.shape[0], delta=delta)
    if trace is not None:
        trace.levels.append(level)

    star = None
    if verify:
        star = oracle_apsp(a)
        if not is_delta_regular(a, delta):
            raise VerificationError(f"input is not {delta}-regular")

    if delta == 1:
        result = one_regular_apsp(a)
        if verify and not np.array_equal(result, star):
            raise VerificationError("1-regular base case disagrees with the oracle")
        return result

    tic = time.perf_counter()
    canonical = canonical_adjacency(a)
    level.canonical_s = time.perf_counter() - tic
    del a

    tic = time.perf_counter()
    # Popped in the recursive call below, so that no name here keeps the
    # halved matrix alive: CPython >= 3.11 moves call arguments into the
    # callee's frame, and the callee drops it once rewired.
    halved = [two_hop_target(canonical)]
    level.two_hop_s = time.perf_counter() - tic
    repeat = np.array_equal(halved[0], canonical)

    if verify:
        if not np.array_equal(oracle_apsp(canonical), star):
            raise VerificationError("canonical rewiring changed some distance")
        if not np.array_equal(oracle_apsp(halved[0]), ext_ceil_half(star)):
            raise VerificationError("halving law failed: halved distances are off")

    # the parity masks read only the +1 and -1 edges
    signs = np.zeros(canonical.shape, dtype=np.int8)
    signs[canonical == 1] = 1
    signs[canonical == -1] = -1
    del canonical

    next_delta = (delta + 1) // 2
    if repeat:
        while trace is not None and next_delta > 1:
            trace.levels.append(LevelTrace(n=level.n, delta=next_delta, reused=True))
            next_delta = (next_delta + 1) // 2
        next_delta = 1

    tic = time.perf_counter()
    halved_star = apsp_minus_zero_one(
        halved.pop(), next_delta, verify=verify, trace=trace
    )
    level.recursion_s = time.perf_counter() - tic

    tic = time.perf_counter()
    x_plus, x_minus = parity_masks(signs)
    z_plus, z_minus = parity_products(halved_star, x_plus, x_minus, verify=verify)
    level.products_s = time.perf_counter() - tic

    if verify:
        finite = np.isfinite(halved_star)
        fired = z_plus | z_minus
        odd = np.zeros_like(fired)
        odd[finite] = (star[finite] % 2) == 1
        if not np.array_equal(fired[finite], odd[finite]):
            raise VerificationError("parity detectors disagree with oracle parity")

    tic = time.perf_counter()
    result = assemble_distances(halved_star, z_plus, z_minus)
    level.assembly_s = time.perf_counter() - tic

    if verify and not np.array_equal(result, star):
        raise VerificationError("assembled distances disagree with the oracle")
    return result


def solve_apsp(a, *, verify=False, trace=None) -> np.ndarray:
    """Distances for an arbitrary {-1, 0, 1} adjacency: every such matrix is
    n^2-regular, so the recursion starts at delta = n^2."""
    a = as_square(a)
    n = a.shape[0]
    return apsp_minus_zero_one(a, max(1, n * n), verify=verify, trace=trace)
