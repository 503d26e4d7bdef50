import os
import subprocess
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
    RestrictedInstance,
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
    restricted_target_minmax,
    solve_apsp,
    target_minmax_naive,
    two_hop_target,
)
from minmax_apsp import cli, extmat, products, reduction
from oracles import inf_matrix, random_signed_adjacency, stacked_canonical, three_mask_two_hop

INF = POS_INF

CHAIN = np.array([[0, 1, INF], [INF, 0, 1], [INF, INF, 0]], dtype=float)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ["neg-cycles", "long-dag", "unit-cli"]


def workload_adjacency(monkeypatch, workload, n):
    """The adjacency of the first graph of a perfbench workload at size n."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from solvebench import make_graph

    return adjacency_from_graph(make_graph(minmax_apsp, workload, n, 3))


PATHS = {"plus-path": 1, "minus-path": -1}


def path_adjacency(n, weight):
    """The path 0 -> 1 -> ... -> n - 1 with every edge weighing ``weight``."""
    return adjacency_from_graph(SignedGraph(n, tuple((i, i + 1, weight) for i in range(n - 1))))


def graph_adjacency(monkeypatch, graph, n):
    if graph in PATHS:
        return path_adjacency(n, PATHS[graph])
    return workload_adjacency(monkeypatch, graph, n)


def stage_calls(monkeypatch, graph, n, names):
    """Per named reduction stage, the arguments of its every call in a solve
    of a workload's first graph or a path, in call order: the top level's
    rewiring and halving come first, its parity products last."""
    calls = {name: [] for name in names}
    originals = {name: getattr(reduction, name) for name in names}

    def capturing(name):
        def capture(*args, **kwargs):
            calls[name].append(args)
            return originals[name](*args, **kwargs)

        return capture

    for name in names:
        monkeypatch.setattr(reduction, name, capturing(name))
    solve_apsp(graph_adjacency(monkeypatch, graph, n))
    for name, original in originals.items():
        monkeypatch.setattr(reduction, name, original)
    return calls


def parity_calls(monkeypatch, workload, n):
    """The arguments of every parity_products call in a solve of a workload's
    first graph; the top level's call comes last."""
    return stage_calls(monkeypatch, workload, n, ["parity_products"])["parity_products"]


def levels_run(trace):
    return sum(not level.reused for level in trace.levels)


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


@pytest.mark.parametrize("graph", WORKLOADS + list(PATHS))
def test_two_hop_matches_min_plus_on_workload_levels(monkeypatch, graph):
    # the two-hop input of every level a solve runs at n = 512
    calls = stage_calls(monkeypatch, graph, 512, ["two_hop_target"])["two_hop_target"]
    assert len(calls) > 1
    for (c,) in calls:
        got = two_hop_target(c)
        assert np.array_equal(got, three_mask_two_hop(c))
        assert np.array_equal(got, halved_two_hop_oracle(c))


@pytest.mark.parametrize("graph", WORKLOADS + list(PATHS))
def test_canonical_matches_stacked_composites_on_every_level(monkeypatch, graph):
    # the rewiring input of every level a solve runs at n = 512; the +1 path
    # never has zero edges, the -1 path gets them from its first halving
    calls = stage_calls(monkeypatch, graph, 512, ["canonical_adjacency"])
    assert len(calls["canonical_adjacency"]) > 1
    for (a,) in calls["canonical_adjacency"]:
        assert np.array_equal(canonical_adjacency(a), stacked_canonical(a))


# every level of the three workloads and the two paths at n = 512, both
# stages against their oracles; prints one digest of all the stage outputs
STAGES_SCRIPT = """
import hashlib
import numpy as np
import minmax_apsp
from minmax_apsp import SignedGraph, reduction
from oracles import stacked_canonical, three_mask_two_hop
from solvebench import make_graph

n = 512
graphs = {w: make_graph(minmax_apsp, w, n, 3) for w in ("neg-cycles", "long-dag", "unit-cli")}
for name, weight in (("plus-path", 1), ("minus-path", -1)):
    graphs[name] = SignedGraph(n, tuple((i, i + 1, weight) for i in range(n - 1)))
digest = hashlib.sha256()
rewire = reduction.canonical_adjacency
for name, graph in graphs.items():
    inputs = []

    def capture(a):
        inputs.append(a)
        return rewire(a)

    reduction.canonical_adjacency = capture
    minmax_apsp.solve_apsp(minmax_apsp.adjacency_from_graph(graph))
    reduction.canonical_adjacency = rewire
    assert len(inputs) > 1, name
    for a in inputs:
        c = rewire(a)
        halved = reduction.two_hop_target(c)
        assert np.array_equal(c, stacked_canonical(a)), name
        assert np.array_equal(halved, three_mask_two_hop(c)), name
        digest.update(c.tobytes() + halved.tobytes())
print(digest.hexdigest())
"""


def test_power_encoded_stages_across_blas_thread_counts():
    src = Path(minmax_apsp.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(map(str, (src, tests, PERFBENCH)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        env["OMP_NUM_THREADS"] = threads
        done = subprocess.run(
            [sys.executable, "-c", STAGES_SCRIPT], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0].strip() and digests[0] == digests[1]


def test_parity_masks_definitional():
    c = np.array([[0, 1], [-1, INF]], dtype=float)
    x_plus, x_minus = parity_masks(c)
    assert x_plus.tolist() == [[False, True], [False, False]]
    assert x_minus.tolist() == [[False, False], [True, False]]
    # the level's int8 edge signs give the same masks
    signs = np.array([[0, 1], [-1, 0]], dtype=np.int8)
    for got, want in zip(parity_masks(signs), (x_plus, x_minus)):
        assert got.dtype == bool and np.array_equal(got, want)


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


def test_parity_products_build_one_row_index(monkeypatch):
    built = []
    build = products.build_row_index

    def counted(a):
        built.append(a.shape)
        return build(a)

    monkeypatch.setattr(products, "build_row_index", counted)
    a = path_adjacency(6, 1)
    c = canonical_adjacency(a)
    z_plus, z_minus = parity_products(halved_star_of(a), *parity_masks(c), verify=True)
    assert built == [(6, 6)]
    assert z_plus[0, 1] and z_plus[0, 5] and not z_plus[0, 2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_shared_row_index_matches_on_workload_levels(monkeypatch, workload):
    # every level's two parity instances at n = 512, each answered with the
    # level's one index, with its own index and by the naive kernel
    calls = parity_calls(monkeypatch, workload, 512)
    assert len(calls) > 1
    for halved_dist, x_plus, x_minus in calls:
        index = products.build_row_index(halved_dist)
        for x, target in ((x_minus, halved_dist), (x_plus, halved_dist - 1.0)):
            inst = RestrictedInstance(halved_dist, x, target)
            shared = restricted_target_minmax(inst, index=index, return_routes=True)
            alone = restricted_target_minmax(inst, return_routes=True)
            assert np.array_equal(shared[0], alone[0])
            assert np.array_equal(shared[1], alone[1])
            want = target_minmax_naive(halved_dist, inf_matrix(x), target)
            assert np.array_equal(shared[0], want)


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


@pytest.mark.parametrize("entry", [5.0, 1.0, 0.5, INF, NEG_INF, np.nan])
def test_solve_checks_the_input_at_n_1(entry):
    # at n = 1 the recursion starts at delta = 1, in the base case; the
    # same entry on the diagonal at n = 2 fails canonical rewiring's check
    for a in ([[entry]], [[entry, INF], [INF, 0.0]]):
        with pytest.raises(ValueError, match=r"a\[0, 0\] = .* \(the diagonal\)"):
            solve_apsp(np.array(a))


def test_solve_at_n_at_most_1():
    assert solve_apsp(np.array([[0.0]])).tolist() == [[0.0]]
    assert solve_apsp(np.array([[-1.0]])).tolist() == [[NEG_INF]]
    assert solve_apsp(np.zeros((0, 0))).shape == (0, 0)


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


@pytest.mark.parametrize("graph", WORKLOADS + list(PATHS))
def test_skip_matches_oracle_at_n_512(monkeypatch, graph):
    a = graph_adjacency(monkeypatch, graph, 512)
    trace = RecursionTrace()
    assert np.array_equal(solve_apsp(a, trace=trace), oracle_apsp(a))
    assert trace.depth == expected_depth(512)
    assert levels_run(trace) < trace.depth


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.floats(0.02, 0.8), st.integers(0, 2**32 - 1))
def test_skip_is_exact_under_verify(n, density, seed):
    a = random_signed_adjacency(np.random.default_rng(seed), n, density=density)
    trace = RecursionTrace()
    assert np.array_equal(solve_apsp(a, verify=True, trace=trace), oracle_apsp(a))
    assert trace.depth == expected_depth(n)
    # the skipped deltas sit between the last level run and the base case
    reused = [level.reused for level in trace.levels]
    assert reused == sorted(reused[:-1]) + [False]


def test_levels_run_are_logarithmic_in_n(monkeypatch):
    # finite distances lie in [-(n - 1), n - 1], so about log2 n halvings
    # bring them to {0, 1}; the -1 path meets the bound exactly
    rng = np.random.default_rng(97)
    for n in (2, 3, 5, 8, 17, 64, 129, 257):
        bound = (n - 1).bit_length() + 2
        graphs = [path_adjacency(n, 1), random_signed_adjacency(rng, n, density=0.1)]
        graphs += [workload_adjacency(monkeypatch, "long-dag", n)]
        for a in graphs:
            trace = RecursionTrace()
            solve_apsp(a, trace=trace)
            assert levels_run(trace) <= bound, n
        trace = RecursionTrace()
        solve_apsp(path_adjacency(n, -1), trace=trace)
        assert levels_run(trace) == bound, n


# each check verify=True makes, by the stage whose result it checks
VERIFY_CHECKS = {
    "one_regular_apsp": "1-regular base case disagrees with the oracle",
    "canonical_adjacency": "canonical rewiring changed some distance",
    "two_hop_target": "halving law failed",
    "parity_products": "parity detectors disagree with oracle parity",
    "assemble_distances": "assembled distances disagree with the oracle",
}


@pytest.mark.parametrize("stage", sorted(VERIFY_CHECKS))
def test_each_verify_check_fires(monkeypatch, stage):
    # the stage returns its true result with one finite entry changed to
    # another legal value; on the +1 path the first off-diagonal finite
    # entry is the edge 0 -> 1, weight 1 at every level, and lowering it to
    # 0 changes a distance
    original = getattr(reduction, stage)

    def corrupted(*args, **kwargs):
        out = original(*args, **kwargs)
        if stage == "parity_products":
            # flip z_minus where z_plus is False, so the pair's parity flips
            z_plus, z_minus = out
            finite = np.isfinite(args[0]) & ~z_plus
            i, j = np.argwhere(finite)[0]
            z_minus = z_minus.copy()
            z_minus[i, j] = not z_minus[i, j]
            return z_plus, z_minus
        finite = np.isfinite(out) & ~np.eye(len(out), dtype=bool)
        i, j = np.argwhere(finite)[0]
        out = out.copy()
        out[i, j] -= 1.0
        return out

    monkeypatch.setattr(reduction, stage, corrupted)
    a = path_adjacency(6, 1)
    # unchecked, the change reaches the result
    assert not np.array_equal(solve_apsp(a), oracle_apsp(a))
    with pytest.raises(VerificationError, match=VERIFY_CHECKS[stage]):
        solve_apsp(a, verify=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_solve_packs_no_bits(monkeypatch, workload):
    # Boolean operands stay bool arrays: only a reader of BitMatrix.words,
    # such as the benchmark's tracer, packs them
    a = workload_adjacency(monkeypatch, workload, 512)

    def forbidden(*args, **kwargs):
        raise AssertionError("a solve packed or unpacked bits")

    monkeypatch.setattr(np, "packbits", forbidden)
    monkeypatch.setattr(np, "unpackbits", forbidden)
    got = solve_apsp(a)
    monkeypatch.undo()
    assert np.array_equal(got, oracle_apsp(a))


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


# ---------------------------------------------------------------------------
# memory


@pytest.mark.parametrize("workload", WORKLOADS + ["plus-path"])
def test_solve_memory_does_not_grow_with_depth(monkeypatch, workload):
    # at n = 256 the +1 path runs 10 levels before the base case (the
    # workloads 3 to 9): keeping a float64 (n, n) input and its canonical
    # rewiring per level would leave 160 bytes per entry live at the base
    n = 256
    a = graph_adjacency(monkeypatch, workload, n)
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
    assert live[0] < 64 * n * n
    assert peak < cli.SOLVE_BYTES_PER_ENTRY * n * n


def test_parity_products_memory_on_the_top_level(monkeypatch):
    # one row index shared by both products, with int32 offsets and queries:
    # 15.73 MiB on this level (numpy 2.4; 15.98 while the kernel derived its
    # -inf mask from a float B'), 19.32 MiB with an int64 index per product
    *_, top = parity_calls(monkeypatch, "unit-cli", 512)
    tracemalloc.start()
    try:
        parity_products(*top)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17.5 * 2**20


def test_parity_stage_memory_on_the_top_level(monkeypatch):
    # the whole stage from the level's int8 edge signs: two bool masks, not
    # two float64 +/-inf ones (19.98 MiB with those, 16 B per entry more)
    calls = stage_calls(monkeypatch, "unit-cli", 512, ["parity_masks", "parity_products"])
    (signs,) = calls["parity_masks"][-1]
    halved_dist = calls["parity_products"][-1][0]
    tracemalloc.start()
    try:
        parity_products(halved_dist, *parity_masks(signs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17.5 * 2**20
