"""Independent reference implementations, kept deliberately naive.

Everything here is written with scalar Python loops straight off the
definitions, so a shared bug with the vectorized production kernels is as
unlikely as we can make it.
"""

import numpy as np

from minmax_apsp import NEG_INF, POS_INF, ext_add


def naive_minplus(a, b):
    n = len(a)
    out = np.full((n, n), POS_INF)
    for i in range(n):
        for j in range(n):
            best = POS_INF
            for k in range(n):
                best = min(best, ext_add(a[i][k], b[k][j]))
            out[i][j] = best
    return out


def naive_minmax(a, b):
    n = len(a)
    out = np.full((n, n), POS_INF)
    for i in range(n):
        for j in range(n):
            best = POS_INF
            for k in range(n):
                best = min(best, max(a[i][k], b[k][j]))
            out[i][j] = best
    return out


def naive_bool_product(p, q):
    p = np.asarray(p, dtype=bool)
    q = np.asarray(q, dtype=bool)
    out = np.zeros((p.shape[0], q.shape[1]), dtype=bool)
    for i in range(p.shape[0]):
        for j in range(q.shape[1]):
            out[i, j] = any(p[i, k] and q[k, j] for k in range(p.shape[1]))
    return out


def warshall_closure(relation):
    """Reflexive-transitive closure by the classic cubic sweep."""
    r = np.asarray(relation, dtype=bool).copy()
    n = r.shape[0]
    for i in range(n):
        r[i, i] = True
    for k in range(n):
        for i in range(n):
            if r[i, k]:
                for j in range(n):
                    if r[k, j]:
                        r[i, j] = True
    return r


def naive_canonical(a):
    """Canonical rewiring off its definition: the zero-run closure Z*, then
    -1 where Z* N Z* is set, else 0 on Z*, else 1 where Z* P Z* is set."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    reach = warshall_closure((a == 0) & ~np.eye(n, dtype=bool))
    negative = naive_bool_product(naive_bool_product(reach, a == -1), reach)
    positive = naive_bool_product(naive_bool_product(reach, a == 1), reach)
    out = np.full((n, n), POS_INF)
    out[positive] = 1.0
    out[reach] = 0.0
    out[negative] = -1.0
    return out


def walk_dp(a, hops):
    """Minimum walk weight using at most ``hops`` edges, stepping one edge at
    a time from the empty walk."""
    n = len(a)
    dist = [[0.0 if i == j else POS_INF for j in range(n)] for i in range(n)]
    for _ in range(hops):
        nxt = [row[:] for row in dist]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    cand = ext_add(dist[i][k], a[k][j])
                    if cand < nxt[i][j]:
                        nxt[i][j] = cand
        dist = nxt
    return np.asarray(dist)


def bellman_ford_apsp(a):
    """Ground-truth distances with -inf propagation, independent of the
    Floyd-Warshall oracle in the package."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    base = walk_dp(a.tolist(), max(n - 1, 0))
    probe = walk_dp(a.tolist(), n)
    on_negative = [v for v in range(n) if probe[v][v] < 0]
    reach = warshall_closure(a < POS_INF)
    out = base.copy()
    for i in range(n):
        for j in range(n):
            if any(reach[i][w] and reach[w][j] for w in on_negative):
                out[i][j] = NEG_INF
    return out


def random_signed_adjacency(rng, n, density, loop_prob=0.15):
    """Adjacency with off-diagonal entries in {-1, 0, 1, +inf} and the
    diagonal convention (0, or -1 for a negative self-loop)."""
    a = np.full((n, n), POS_INF)
    np.fill_diagonal(a, 0.0)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    weights = rng.integers(-1, 2, size=(n, n)).astype(np.float64)
    a[mask] = weights[mask]
    loops = rng.random(n) < loop_prob
    a[np.diag_indices(n)] = np.where(loops, -1.0, 0.0)
    return a


def inf_matrix(b_neg):
    """The +/-inf matrix B' whose -inf entries the bool mask ``b_neg`` marks,
    as the float oracles read it."""
    return np.where(b_neg, NEG_INF, POS_INF)


def random_restricted_instance(rng, n, inf_frac=0.06):
    """A valid restricted target-product instance: B' is +/-inf everywhere
    (held as its -inf mask) and the target sits a nonnegative amount below
    the true min-max product.

    Each row holds a hot value on about half its entries, so its group
    outgrows the heavy/light cutoff; the other entries are spread over about
    2n + 3 values and mostly form light groups."""
    from minmax_apsp import RestrictedInstance, minmax_product

    a = rng.integers(-n - 1, n + 2, size=(n, n)).astype(np.float64)
    hot = rng.integers(-n - 1, n + 2, size=(n, 1)).astype(np.float64)
    a = np.where(rng.random((n, n)) < 0.5, hot, a)
    a[rng.random((n, n)) < inf_frac] = POS_INF
    a[rng.random((n, n)) < inf_frac / 2] = NEG_INF
    b_neg = rng.random((n, n)) < 0.5
    product = minmax_product(a, inf_matrix(b_neg))
    slack = rng.integers(0, 3, size=(n, n)).astype(np.float64)
    target = np.where(np.isfinite(product), product - slack, product)
    return RestrictedInstance(a, b_neg, target)
