"""Graphs with edge weights in {-1, 0, 1}: adjacency construction, the
brute-force APSP oracle, canonical rewiring, and hop-regularity checks.

Adjacency matrices follow one convention throughout: a[i, i] is min(0, best
self-loop weight), so the empty walk is always representable and off-diagonal
a[i, j] is the best edge weight or +inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extmat import (
    NEG_INF,
    POS_INF,
    BitMatrix,
    as_square,
    bool_closure,
    bool_product,
    bounded_hop_closure,
    count_product,
)

WEIGHTS = (-1, 0, 1)


@dataclass(frozen=True)
class SignedGraph:
    """Directed multigraph with weights in {-1, 0, 1}.

    Parallel edges are legal here and collapse to the minimum weight when the
    adjacency matrix is built.
    """

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        for u, v, w in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            if w not in WEIGHTS:
                raise ValueError(f"edge weight {w} outside {{-1, 0, 1}}")


def adjacency_from_graph(graph: SignedGraph) -> np.ndarray:
    """Minimum-weight adjacency matrix of ``graph`` under the diagonal convention."""
    a = np.full((graph.n, graph.n), POS_INF)
    np.fill_diagonal(a, 0.0)
    if graph.edges:
        e = np.asarray(graph.edges, dtype=np.int64)
        np.minimum.at(a, (e[:, 0], e[:, 1]), e[:, 2].astype(np.float64))
    return a


def oracle_apsp(a) -> np.ndarray:
    """Exact distance matrix by Floyd-Warshall plus negative-cycle blasting.

    After the cubic pass, every k with a negative diagonal lies on a negative
    closed walk; all pairs routing through such a k become -inf.

    Each round clamps its two operands from below at -n before adding them,
    so no entry drops below -2n; unclamped, the entries on a dense negative
    cycle can double every round, overflow to -inf and meet +inf as nan.  The
    clamp keeps the result exact.  It only raises operands, so every entry
    stays at least the weight of some walk.  Every simple path weighs at
    least -(n - 1), so the clamp leaves both halves of a simple path through
    k at their weights, and every entry stays at most the weight of each
    simple path through the vertices handled so far.  So pairs that no
    negative cycle touches come out exact, every vertex of a negative simple
    cycle still ends with a negative diagonal, and the blast sees the same
    vertices.
    """
    a = as_square(a)
    if (a == NEG_INF).any():
        raise ValueError("adjacency matrices cannot contain -inf")
    d = a.copy()
    n = d.shape[0]
    for k in range(n):
        to_k = np.maximum(d[:, k : k + 1], -n)
        from_k = np.maximum(d[k : k + 1, :], -n)
        np.minimum(d, to_k + from_k, out=d)
    negative = np.flatnonzero(np.diagonal(d) < 0)
    if negative.size:
        into = (d[:, negative] < POS_INF).astype(np.int64)
        outof = (d[negative, :] < POS_INF).astype(np.int64)
        d[(into @ outof) > 0] = NEG_INF
    return d


def check_adjacency(a) -> np.ndarray:
    """``a`` as a square float64 array; ValueError if it breaks the convention."""
    a = as_square(a)
    legal = np.isin(a, (-1, 0, 1, POS_INF))
    np.fill_diagonal(legal, np.isin(np.diagonal(a), (0, -1)))
    if not legal.all():
        i, j = np.argwhere(~legal)[0]
        allowed = "{0, -1} (the diagonal)" if i == j else "{-1, 0, 1, +inf}"
        raise ValueError(f"a[{i}, {j}] = {a[i, j]} outside {allowed}")
    return a


def canonical_adjacency(a) -> np.ndarray:
    """Rewire a {-1, 0, 1} adjacency so shortest paths never need zero-weight
    edges (except as single edges) and never need more hops.

    Maximal zero-edge runs are closed transitively; each nonzero edge is then
    composed with zero runs on both sides, and coinciding candidates keep the
    minimum weight.  Distances are preserved because every composite edge is
    the weight of a real path.  Rewiring is idempotent: it maps its own
    output to itself.

    Both composites come from one power-encoded product pair,
    S = (Z* (y N + P)) Z*, with Z* the zero-run closure, N and P the masks of
    the -1 and +1 edges (disjoint), and y the smallest power of two
    >= 4 n^2.  S[i, j] = y * (negative composites i -> j) + (positive ones),
    so a pair is -1 where S >= y / 2, else 0 on Z*, else 1 where S > 0, else
    +inf.

    Exact in any summation order.  There are at most n^2 composites of each
    sign, so without a negative one S <= n^2 <= y / 4, and with one S >= y.
    Every product of two entries is exact in float32 (y is a power of two,
    Z* is 0/1), and every term is at least 1, so S > 0 exactly when some
    composite exists.  By ``count_product``'s rounding bound each of the two
    chained products is within a factor 1 +/- gamma of its exact sum, with
    gamma <= n 2^-24 / (1 - n 2^-24), so S is within (1 +/- gamma)^2; for
    n <= 2^21 that keeps both classes on their side of y / 2, and the
    largest sum, y n^2 <= 8 n^4, is far inside float32's range.
    """
    a = check_adjacency(a)
    n = a.shape[0]
    zero_edges = a == 0
    np.fill_diagonal(zero_edges, False)
    if not zero_edges.any():
        # Z* = I, so both composites are a itself (+ 0.0 turns -0.0 into 0.0)
        return a + 0.0
    zero_reach = bool_closure(zero_edges)
    y = np.float32(2 ** (4 * n * n - 1).bit_length())
    weighted = (a == 1).astype(np.float32)
    weighted[a == -1] = y
    reach = zero_reach.astype(np.float32)
    s = count_product(count_product(reach, weighted), reach)
    c = np.full((n, n), POS_INF)
    c[s > 0] = 1.0
    c[zero_reach] = 0.0  # includes the reflexive diagonal
    c[s >= y / 2] = -1.0
    return c


def is_delta_regular(a, delta) -> bool:
    """True iff every finite distance is realized within ``delta`` hops and
    every -inf pair already shows a negative walk within ``delta`` hops."""
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    star = oracle_apsp(a)
    bounded = bounded_hop_closure(a, delta)
    not_blasted = star != NEG_INF
    if not (bounded[not_blasted] == star[not_blasted]).all():
        return False
    return bool((bounded[~not_blasted] < 0).all())


def one_regular_apsp(a) -> np.ndarray:
    """Distances for a 1-regular adjacency: a pair is -inf exactly when some k
    with a -1 self-loop has finite entries from i and to j; everything else is
    already optimal as a direct entry.  A solve at n <= 1 starts here, so
    the input is checked as ``canonical_adjacency`` checks it."""
    a = check_adjacency(a)
    out = a.copy()
    looped = np.flatnonzero(np.diagonal(a) == -1)
    if looped.size:
        finite = a < POS_INF
        into, outof = BitMatrix(finite[:, looped]), BitMatrix(finite[looped, :])
        out[bool_product(into, outof)] = NEG_INF
    return out
