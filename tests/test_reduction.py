import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import minmax_apsp
from minmax_apsp import (
    NEG_INF,
    POS_INF,
    RecursionTrace,
    SignedGraph,
    VerificationError,
    adjacency_from_graph,
    apsp_minus_zero_one,
    assemble_distances,
    bounded_hop_closure,
    canonical_adjacency,
    ext_ceil_half,
    oracle_apsp,
    parity_masks,
    parity_products,
    solve_apsp,
    two_hop_target,
)
from minmax_apsp import extmat, products, reduction
from oracles import random_signed_adjacency

INF = POS_INF

CHAIN = np.array([[0, 1, INF], [INF, 0, 1], [INF, INF, 0]], dtype=float)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ["neg-cycles", "long-dag", "unit-cli"]


def workload_adjacency(monkeypatch, workload, n):
    """The adjacency of the first graph of a perfbench workload at size n."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from solvebench import make_graph

    return adjacency_from_graph(make_graph(minmax_apsp, workload, n, 3))


def halved_two_hop_oracle(c):
    return ext_ceil_half(bounded_hop_closure(c, 2))


def expected_depth(n):
    # ceil(log2(n**2)) + 1 via integer arithmetic
    return (n * n - 1).bit_length() + 1


# ---------------------------------------------------------------------------
# stage operations


def test_two_hop_chain():
    assert two_hop_target(CHAIN)[0, 2] == 1  # ceil(2 / 2)


def test_two_hop_keeps_infinity():
    t = two_hop_target(CHAIN)
    assert t[2, 0] == INF and t[1, 0] == INF


def test_two_hop_negative_two_cycle_diagonal():
    a = np.array([[0, -1], [-1, 0]], dtype=float)
    t = two_hop_target(a)
    assert t[0, 0] == -1 and t[1, 1] == -1


def test_two_hop_flags_out_of_range_inputs():
    # non-canonical matrices: any entry outside {-1, 0, 1, +inf}, whether or
    # not its halved two-hop value would leave that set
    for junk in (
        [[0, 3], [3, 0]],
        [[0, 2], [2, 0]],
        [[0, 0.5], [0.5, 0]],
        [[0, -2], [INF, 0]],
    ):
        with pytest.raises(VerificationError):
            two_hop_target(np.array(junk, dtype=float))


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        float,
        st.integers(0, 8).map(lambda n: (n, n)),
        elements=st.sampled_from([-1.0, 0.0, 1.0, INF]),
    )
)
def test_two_hop_matches_min_plus_on_any_canonical_entries(c):
    # any diagonal, not only the canonical 0 / -1
    assert np.array_equal(two_hop_target(c), halved_two_hop_oracle(c))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_hop_matches_min_plus_on_workload_levels(monkeypatch, workload):
    # the two-hop inputs of the first three levels at n = 512
    a = workload_adjacency(monkeypatch, workload, 512)
    for _ in range(3):
        c = canonical_adjacency(a)
        a = two_hop_target(c)
        assert np.array_equal(a, halved_two_hop_oracle(c))


def test_parity_masks_definitional():
    c = np.array([[0, 1], [-1, INF]], dtype=float)
    x_plus, x_minus = parity_masks(c)
    assert x_plus.tolist() == [[INF, NEG_INF], [INF, INF]]
    assert x_minus.tolist() == [[INF, INF], [NEG_INF, INF]]


def halved_star_of(a):
    return ext_ceil_half(oracle_apsp(a))


def test_parity_products_even_distance():
    # chain: a*[0, 2] = 2 is even, so neither detector fires there
    c = canonical_adjacency(CHAIN)
    x_plus, x_minus = parity_masks(c)
    z_plus, z_minus = parity_products(halved_star_of(CHAIN), x_plus, x_minus, verify=True)
    assert not z_plus[0, 2] and not z_minus[0, 2]


def test_parity_products_single_positive_edge():
    a = np.array([[0, 1], [INF, 0]], dtype=float)
    c = canonical_adjacency(a)
    z_plus, z_minus = parity_products(halved_star_of(a), *parity_masks(c), verify=True)
    assert z_plus[0, 1]
    assert not z_minus[0, 1]


def test_parity_products_single_negative_edge():
    a = np.array([[0, -1], [INF, 0]], dtype=float)
    c = canonical_adjacency(a)
    z_plus, z_minus = parity_products(halved_star_of(a), *parity_masks(c), verify=True)
    assert z_minus[0, 1]
    assert not z_plus[0, 1]


def test_assemble_distances_branches():
    halved = np.array([[3, NEG_INF], [2, INF]], dtype=float)
    z_plus = np.array([[1, 1], [0, 0]], dtype=bool)
    z_minus = np.zeros((2, 2), dtype=bool)
    out = assemble_distances(halved, z_plus, z_minus)
    assert out[0, 0] == 5  # 2 * 3 - 1
    assert out[0, 1] == NEG_INF  # infinity wins over the fired detector
    assert out[1, 0] == 4  # even branch
    assert out[1, 1] == INF


# ---------------------------------------------------------------------------
# the full recursion


def test_apsp_chain():
    got = apsp_minus_zero_one(CHAIN, 9)
    assert got.tolist() == [[0, 1, 2], [INF, 0, 1], [INF, INF, 0]]


def test_apsp_negative_cycle():
    a = np.array([[0, -1], [0, 0]], dtype=float)
    assert (apsp_minus_zero_one(a, 4) == NEG_INF).all()


def test_apsp_edgeless():
    a = adjacency_from_graph(SignedGraph(5, ()))
    got = apsp_minus_zero_one(a, 25)
    assert np.array_equal(got, a)


def test_apsp_rejects_bad_delta():
    with pytest.raises(ValueError):
        apsp_minus_zero_one(CHAIN, 0)


def test_verify_mode_rejects_non_regular_input():
    with pytest.raises(VerificationError):
        apsp_minus_zero_one(CHAIN, 1, verify=True)


def test_solve_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(83)
    for _ in range(30):
        n = int(rng.integers(1, 33))
        a = random_signed_adjacency(rng, n, density=float(rng.uniform(0.05, 0.7)))
        assert np.array_equal(solve_apsp(a), oracle_apsp(a))


def test_solve_verified_runs_check_every_level():
    rng = np.random.default_rng(89)
    for _ in range(8):
        n = int(rng.integers(2, 17))
        a = random_signed_adjacency(rng, n, density=0.35)
        trace = RecursionTrace()
        got = solve_apsp(a, verify=True, trace=trace)
        assert np.array_equal(got, oracle_apsp(a))
        assert trace.depth == expected_depth(n)


def test_solve_structured_graphs():
    # negative directed cycle: everything -inf
    n = 6
    cyc = SignedGraph(n, tuple((i, (i + 1) % n, -1) for i in range(n)))
    a = adjacency_from_graph(cyc)
    assert (solve_apsp(a, verify=True) == NEG_INF).all()
    # zero directed cycle: all distances 0
    zcyc = SignedGraph(n, tuple((i, (i + 1) % n, 0) for i in range(n)))
    a = adjacency_from_graph(zcyc)
    assert (solve_apsp(a, verify=True) == 0).all()
    # self loops everywhere
    loops = SignedGraph(4, tuple((i, i, -1) for i in range(4)))
    a = adjacency_from_graph(loops)
    got = solve_apsp(a, verify=True)
    assert (np.diagonal(got) == NEG_INF).all()
    assert (got[~np.eye(4, dtype=bool)] == INF).all()


def test_trace_depth_formula_and_timings():
    for n in (1, 2, 3, 5, 8, 13, 21):
        rng = np.random.default_rng(n)
        a = random_signed_adjacency(rng, n, density=0.3)
        trace = RecursionTrace()
        solve_apsp(a, trace=trace)
        assert trace.depth == expected_depth(n)
        assert trace.levels[0].n == n
        assert trace.levels[0].delta == max(1, n * n)
        assert trace.levels[-1].delta == 1
        # deltas halve downward
        for above, below in zip(trace.levels, trace.levels[1:]):
            assert below.delta == (above.delta + 1) // 2
        assert all(
            lv.canonical_s >= 0 and lv.products_s >= 0 and lv.recursion_s >= 0
            for lv in trace.levels
        )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_solve_runs_no_cubic_float_kernel(monkeypatch, workload):
    # the Boolean product is the only cubic kernel in a solve without verify
    a = workload_adjacency(monkeypatch, workload, 64)
    want = oracle_apsp(a)

    def forbidden(*args, **kwargs):
        raise AssertionError("a solve called a cubic float kernel")

    monkeypatch.setattr(extmat, "minplus_product", forbidden)
    monkeypatch.setattr(products, "minmax_product", forbidden)
    assert np.array_equal(solve_apsp(a), want)


def test_threshold_exponent_does_not_change_results():
    rng = np.random.default_rng(97)
    a = random_signed_adjacency(rng, 14, density=0.4)
    want = oracle_apsp(a)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert np.array_equal(solve_apsp(a, t), want)


# ---------------------------------------------------------------------------
# memory


@pytest.mark.parametrize("workload", WORKLOADS)
def test_solve_memory_does_not_grow_with_depth(monkeypatch, workload):
    # n = 256 recurses 16 levels deep: keeping a float64 (n, n) input and its
    # canonical rewiring per level leaves 256 bytes per entry live at the base
    n = 256
    a = workload_adjacency(monkeypatch, workload, n)
    before = a.copy()
    live = []
    base_case = reduction.one_regular_apsp

    def measured_base_case(m, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        return base_case(m, **kwargs)

    monkeypatch.setattr(reduction, "one_regular_apsp", measured_base_case)
    tracemalloc.start()
    try:
        got = solve_apsp(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, oracle_apsp(a))
    assert np.array_equal(a, before)
    assert len(live) == 1
    if sys.version_info < (3, 11):
        # older calls keep their arguments in the caller's frame, so each
        # level's halved matrix stays alive until the level returns
        pytest.skip("the memory bound needs CPython >= 3.11")
    assert live[0] < 64 * n * n
    assert peak < 200 * n * n
