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
    """
    a = as_square(a)
    if (a == NEG_INF).any():
        raise ValueError("adjacency matrices cannot contain -inf")
    d = a.copy()
    n = d.shape[0]
    for k in range(n):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    negative = np.flatnonzero(np.diagonal(d) < 0)
    if negative.size:
        into = (d[:, negative] < POS_INF).astype(np.int64)
        outof = (d[negative, :] < POS_INF).astype(np.int64)
        d[(into @ outof) > 0] = NEG_INF
    return d


def canonical_adjacency(a) -> np.ndarray:
    """Rewire a {-1, 0, 1} adjacency so shortest paths never need zero-weight
    edges (except as single edges) and never need more hops.

    Maximal zero-edge runs are closed transitively; each nonzero edge is then
    composed with zero runs on both sides, and coinciding candidates keep the
    minimum weight.  Distances are preserved because every composite edge is
    the weight of a real path.  Rewiring is idempotent: it maps its own
    output to itself.
    """
    a = as_square(a)
    n = a.shape[0]
    diag = np.diagonal(a)
    off = ~np.eye(n, dtype=bool)
    legal_off = (a == -1) | (a == 0) | (a == 1) | (a == POS_INF)
    if not (legal_off | ~off).all():
        i, j = np.argwhere(~legal_off & off)[0]
        raise ValueError(f"a[{i}, {j}] = {a[i, j]} outside {{-1, 0, 1, +inf}}")
    if not ((diag == 0) | (diag == -1)).all():
        k = np.argwhere((diag != 0) & (diag != -1))[0][0]
        raise ValueError(f"a[{k}, {k}] = {a[k, k]} breaks the diagonal convention")

    zero_edges = (a == 0) & off
    if not zero_edges.any():
        # Z* = I, so both composites are a itself (+ 0.0 turns -0.0 into 0.0)
        return a + 0.0
    zero_reach = bool_closure(zero_edges)
    # both weights in two products: Z*.[N | P], then [Z*N ; Z*P].Z*
    reach = BitMatrix.from_bool(zero_reach)
    signed = BitMatrix.from_bool(np.hstack([a == -1, a == 1]))
    span = bool_product(reach, signed)
    stacked = BitMatrix.from_bool(np.vstack([span[:, :n], span[:, n:]]))
    composite = bool_product(stacked, reach)
    c = np.full((n, n), POS_INF)
    c[composite[n:]] = 1.0
    c[zero_reach] = 0.0  # includes the reflexive diagonal
    c[composite[:n]] = -1.0
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
    already optimal as a direct entry."""
    a = as_square(a)
    out = a.copy()
    looped = np.flatnonzero(np.diagonal(a) == -1)
    if looped.size:
        finite = a < POS_INF
        into = BitMatrix.from_bool(finite[:, looped])
        outof = BitMatrix.from_bool(finite[looped, :])
        out[bool_product(into, outof)] = NEG_INF
    return out
