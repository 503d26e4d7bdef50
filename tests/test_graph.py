import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minmax_apsp import (
    NEG_INF,
    POS_INF,
    SignedGraph,
    adjacency_from_graph,
    bounded_hop_closure,
    canonical_adjacency,
    is_delta_regular,
    minplus_product,
    one_regular_apsp,
    oracle_apsp,
    solve_apsp,
)
from oracles import bellman_ford_apsp, naive_canonical, random_signed_adjacency

INF = POS_INF

CHAIN = np.array([[0, 1, INF], [INF, 0, 1], [INF, INF, 0]], dtype=float)


# ---------------------------------------------------------------------------
# SignedGraph and adjacency


def test_signed_graph_rejects_bad_weight():
    with pytest.raises(ValueError):
        SignedGraph(2, ((0, 1, 2),))


def test_signed_graph_rejects_bad_endpoint():
    with pytest.raises(ValueError):
        SignedGraph(2, ((0, 2, 1),))


def test_adjacency_empty_graph():
    a = adjacency_from_graph(SignedGraph(2, ()))
    assert a.tolist() == [[0, INF], [INF, 0]]


def test_adjacency_parallel_edges_take_min():
    g = SignedGraph(3, ((0, 1, 1), (0, 1, -1)))
    assert adjacency_from_graph(g)[0, 1] == -1


def test_adjacency_negative_self_loop_kept():
    g = SignedGraph(2, ((0, 0, -1),))
    assert adjacency_from_graph(g)[0, 0] == -1


def test_adjacency_nonnegative_self_loop_collapses_to_zero():
    g = SignedGraph(2, ((0, 0, 1), (1, 1, 0)))
    a = adjacency_from_graph(g)
    assert a[0, 0] == 0 and a[1, 1] == 0


# ---------------------------------------------------------------------------
# brute-force oracle


def test_oracle_chain():
    star = oracle_apsp(CHAIN)
    assert star.tolist() == [[0, 1, 2], [INF, 0, 1], [INF, INF, 0]]


def test_oracle_negative_two_cycle_blasts_everything():
    a = np.array([[0, -1], [0, 0]], dtype=float)
    assert (oracle_apsp(a) == NEG_INF).all()


def test_oracle_edgeless():
    a = adjacency_from_graph(SignedGraph(3, ()))
    star = oracle_apsp(a)
    assert (np.diagonal(star) == 0).all()
    assert (star[~np.eye(3, dtype=bool)] == INF).all()


def test_oracle_rejects_neg_inf_entries():
    with pytest.raises(ValueError):
        oracle_apsp(np.array([[0.0, NEG_INF], [INF, 0.0]]))


def test_oracle_matches_bellman_ford():
    rng = np.random.default_rng(61)
    for trial in range(40):
        n = int(rng.integers(1, 11))
        a = random_signed_adjacency(rng, n, density=float(rng.uniform(0.1, 0.8)))
        assert np.array_equal(oracle_apsp(a), bellman_ford_apsp(a)), (trial, a)


def test_oracle_stays_finite_on_a_dense_negative_cycle():
    # the complete -1 graph on m vertices, plus vertex m, which reaches it and
    # which nothing reaches: unclamped, Floyd-Warshall's entries doubled each
    # round until they overflowed to -inf and met +inf as nan (from m ~ 1030)
    m = 1100
    a = np.full((m + 1, m + 1), INF)
    a[:m, :m] = -1.0
    np.fill_diagonal(a, 0.0)
    a[m, 0] = 1.0
    want = np.full((m + 1, m + 1), NEG_INF)
    want[:, m] = INF
    want[m, m] = 0.0
    star = oracle_apsp(a)
    assert np.array_equal(star, want)
    assert np.array_equal(solve_apsp(a), want)


# ---------------------------------------------------------------------------
# canonical rewiring


def test_canonical_zero_run_then_edge():
    # v0 -> v1 weight 0, v1 -> v2 weight 1
    a = adjacency_from_graph(SignedGraph(3, ((0, 1, 0), (1, 2, 1))))
    c = canonical_adjacency(a)
    assert c[0, 2] == 1  # zero run composed with the +1 edge
    assert c[0, 1] == 0
    assert c[1, 2] == 1
    assert np.array_equal(oracle_apsp(c), oracle_apsp(a))


def test_canonical_identity_without_zero_edges():
    a = adjacency_from_graph(SignedGraph(3, ((0, 1, 1), (1, 2, -1), (2, 0, 1))))
    assert np.array_equal(canonical_adjacency(a), a)


def test_canonical_zero_cycle_feeds_negative_composite():
    a = adjacency_from_graph(SignedGraph(3, ((0, 1, 0), (1, 0, 0), (1, 2, -1))))
    c = canonical_adjacency(a)
    assert c[0, 2] == -1


def test_canonical_rejects_out_of_range_entries():
    bad = CHAIN.copy()
    bad[0, 1] = 2
    with pytest.raises(ValueError):
        canonical_adjacency(bad)
    bad = CHAIN.copy()
    bad[1, 1] = 1
    with pytest.raises(ValueError):
        canonical_adjacency(bad)


@st.composite
def adjacencies(draw, weights=(-1.0, 0.0, 1.0, INF)):
    """Off-diagonal entries from ``weights``; the diagonal 0, -0.0 or -1."""
    n = draw(st.integers(0, 8))
    a = draw(arrays(float, (n, n), elements=st.sampled_from(weights)))
    a[np.diag_indices(n)] = draw(arrays(float, n, elements=st.sampled_from([0.0, -0.0, -1.0])))
    return a


@settings(max_examples=300, deadline=None)
@given(st.one_of(adjacencies(), adjacencies(weights=(-1.0, 1.0, INF))))
def test_canonical_matches_its_definition_and_is_idempotent(a):
    # the second strategy has no zero edges, where rewiring returns a copy
    c = canonical_adjacency(a)
    assert np.array_equal(c, naive_canonical(a))
    assert not np.signbit(c[c == 0]).any()
    # the recursion's fixed-point skip relies on this
    assert np.array_equal(canonical_adjacency(c), c)


def min_hops_reaching_distance(a, star, max_hops):
    """hop_scan[l][i][j] is True when the true distance is met within l+1 hops."""
    scans = []
    bounded = a.copy()
    for _ in range(max_hops):
        scans.append(bounded == star)
        bounded = minplus_product(bounded, a)
    return scans


def assert_canonical_invariants(a):
    c = canonical_adjacency(a)
    star = oracle_apsp(a)
    # distance preservation
    assert np.array_equal(oracle_apsp(c), star)
    # hop condition: whenever the original meets its distance within l hops,
    # so does the canonical graph (finite pairs)
    n = a.shape[0]
    finite = np.isfinite(star)
    for scan_a, scan_c in zip(
        min_hops_reaching_distance(a, star, n), min_hops_reaching_distance(c, star, n)
    ):
        assert scan_c[finite & scan_a].all()
    # zero-freeness: dropping zero edges and re-adding single direct edges
    # loses nothing
    nonzero_only = c.copy()
    off = ~np.eye(n, dtype=bool)
    nonzero_only[off & (c == 0)] = POS_INF
    assert np.array_equal(np.minimum(oracle_apsp(nonzero_only), c), oracle_apsp(c))


def test_canonical_invariants_on_random_graphs():
    rng = np.random.default_rng(67)
    for _ in range(30):
        n = int(rng.integers(2, 21))
        a = random_signed_adjacency(rng, n, density=float(rng.uniform(0.05, 0.6)))
        assert_canonical_invariants(a)


# ---------------------------------------------------------------------------
# regularity


def test_regular_chain_needs_two_hops():
    assert not is_delta_regular(CHAIN, 1)
    assert is_delta_regular(CHAIN, 2)


def test_regular_edgeless_is_one_regular():
    a = adjacency_from_graph(SignedGraph(3, ()))
    assert is_delta_regular(a, 1)


def test_regular_n_squared_always_holds():
    rng = np.random.default_rng(71)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        a = random_signed_adjacency(rng, n, density=float(rng.uniform(0.1, 0.9)))
        assert is_delta_regular(a, n * n)


def test_regular_monotone_in_delta():
    rng = np.random.default_rng(73)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = random_signed_adjacency(rng, n, density=0.4)
        deltas = [d for d in range(1, n * n + 1)]
        flags = [is_delta_regular(a, d) for d in deltas]
        # once true, stays true
        assert flags == sorted(flags)


def test_regular_rejects_bad_delta():
    with pytest.raises(ValueError):
        is_delta_regular(CHAIN, 0)


# ---------------------------------------------------------------------------
# 1-regular base case


def test_one_regular_single_edge_fixed_point():
    a = np.array([[0, 1], [INF, 0]], dtype=float)
    assert np.array_equal(one_regular_apsp(a), a)


def test_one_regular_negative_self_loop():
    a = np.array([[-1, 1], [INF, 0]], dtype=float)
    got = one_regular_apsp(a)
    assert np.array_equal(got, oracle_apsp(a))
    assert got.tolist() == [[NEG_INF, NEG_INF], [INF, 0]]


def test_one_regular_edgeless():
    a = adjacency_from_graph(SignedGraph(4, ()))
    assert np.array_equal(one_regular_apsp(a), a)


def test_one_regular_matches_oracle_on_one_regular_draws():
    rng = np.random.default_rng(79)
    found = 0
    for _ in range(400):
        n = int(rng.integers(1, 6))
        a = random_signed_adjacency(rng, n, density=float(rng.uniform(0.0, 0.5)))
        if not is_delta_regular(a, 1):
            continue
        found += 1
        assert np.array_equal(one_regular_apsp(a), oracle_apsp(a))
    assert found >= 50
