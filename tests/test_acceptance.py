"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The engine's headline is exactness, so every criterion here is differential
or property-based; the scaling benchmark is informational and reports its
ratio without gating the build.
"""

import csv
import time

import numpy as np

from minmax_apsp import (
    NEG_INF,
    POS_INF,
    RecursionTrace,
    SignedGraph,
    adjacency_from_graph,
    canonical_adjacency,
    ext_ceil_half,
    is_delta_regular,
    minmax_product,
    oracle_apsp,
    parity_masks,
    parity_products,
    restricted_target_minmax,
    solve_apsp,
    target_minmax_naive,
    two_hop_target,
)
from minmax_apsp.cli import format_matrix, gen_random_graph, main
from oracles import random_restricted_instance, random_signed_adjacency

INF = POS_INF
DENSITIES = (0.1, 0.3, 0.7)


def report(name, detail):
    print(f"\nACCEPTANCE PASS: {name} ({detail})")


def structured_graphs():
    """Cycles, chains, edgeless, all-self-loop, and everyone-on-a-negative-cycle."""
    out = []
    for n in (2, 3, 5, 8, 13):
        for weights in ((-1,) * n, (0,) * n, (1,) * n):
            out.append(SignedGraph(n, tuple((i, (i + 1) % n, w) for i, w in enumerate(weights))))
        mixed = tuple((i, (i + 1) % n, (-1, 1, -1, 0, 0)[i % 5]) for i in range(n))
        out.append(SignedGraph(n, mixed))
    for n in (2, 4, 9):
        out.append(SignedGraph(n, tuple((i, i + 1, 1) for i in range(n - 1))))
        out.append(SignedGraph(n, tuple((i, i + 1, (-1, 0, 1)[i % 3]) for i in range(n - 1))))
        out.append(SignedGraph(n, ()))
        out.append(SignedGraph(n, tuple((i, i, -1) for i in range(n))))
    # every vertex on a negative cycle: one big -1 cycle, and two -1 cycles
    # joined by a zero edge
    n = 12
    out.append(SignedGraph(n, tuple((i, (i + 1) % n, -1) for i in range(n))))
    half = tuple((i, (i + 1) % 6, -1) for i in range(6))
    other = tuple((6 + i, 6 + (i + 1) % 6, -1) for i in range(6))
    out.append(SignedGraph(12, half + other + ((0, 6, 0),)))
    return out


def test_end_to_end_differential():
    started = time.perf_counter()
    count = 0
    for n in range(2, 65):
        for di, density in enumerate(DENSITIES):
            for rep in range(3):
                seed = n * 1000 + di * 10 + rep
                graph = gen_random_graph(n, density, seed)
                a = adjacency_from_graph(graph)
                got = solve_apsp(a)
                want = oracle_apsp(a)
                assert np.array_equal(got, want), (n, density, seed)
                count += 1
    for graph in structured_graphs():
        a = adjacency_from_graph(graph)
        assert np.array_equal(solve_apsp(a), oracle_apsp(a)), graph
        count += 1
    elapsed = time.perf_counter() - started
    assert count >= 500
    assert elapsed <= 300
    report("end-to-end differential", f"{count} graphs, 0 mismatches, {elapsed:.1f}s")


def test_product_oracle_equivalence():
    rng = np.random.default_rng(20240501)
    instances = 0
    runs = 0
    for trial in range(500):
        n = int(rng.integers(2, 65))
        instance = random_restricted_instance(rng, n)
        want = target_minmax_naive(instance.a, instance.b, instance.target)
        instances += 1
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            got = restricted_target_minmax(instance, t)
            assert got == want, (trial, n, t)
            runs += 1
    assert instances >= 500
    report("product oracle equivalence", f"{instances} instances x 5 thresholds, {runs} runs")


def test_canonical_invariants():
    rng = np.random.default_rng(20240502)
    graphs = 0
    for trial in range(200):
        n = int(rng.integers(2, 49))
        a = random_signed_adjacency(rng, n, density=float(rng.uniform(0.05, 0.6)))
        c = canonical_adjacency(a)
        star = oracle_apsp(a)
        # distance preservation
        assert np.array_equal(oracle_apsp(c), star), trial
        # hop non-increase at every horizon, for finite pairs
        finite = np.isfinite(star)
        bounded_a, bounded_c = a.copy(), c.copy()
        from minmax_apsp import minplus_product

        for _ in range(n):
            reached = finite & (bounded_a == star)
            assert (bounded_c[reached] == star[reached]).all(), trial
            bounded_a = minplus_product(bounded_a, a)
            bounded_c = minplus_product(bounded_c, c)
        # zero-freeness: nonzero-edge distances plus direct edges lose nothing
        nonzero_only = c.copy()
        off = ~np.eye(n, dtype=bool)
        nonzero_only[off & (c == 0)] = POS_INF
        assert np.array_equal(np.minimum(oracle_apsp(nonzero_only), c), oracle_apsp(c))
        graphs += 1
    assert graphs >= 200
    report("canonical-graph invariants", f"{graphs} graphs, all three invariants hold")


def test_regularity_suite():
    rng = np.random.default_rng(20240503)
    sampled = 0
    for _ in range(60):
        n = int(rng.integers(1, 25))
        a = random_signed_adjacency(rng, n, density=float(rng.uniform(0.05, 0.9)))
        assert is_delta_regular(a, n * n)
        sampled += 1
    # per-level regularity descent and the exact halving law, walked manually
    levels_checked = 0
    for seed in range(20):
        n = int(rng.integers(2, 25))
        a = random_signed_adjacency(rng, n, density=0.35)
        delta = n * n
        while delta > 1:
            star = oracle_apsp(a)
            halved = two_hop_target(canonical_adjacency(a))
            next_delta = (delta + 1) // 2
            assert is_delta_regular(halved, next_delta), (seed, delta)
            halved_star = oracle_apsp(halved)
            assert np.array_equal(halved_star, ext_ceil_half(star)), (seed, delta)
            a, delta = halved, next_delta
        levels_checked += 1
    # the engine's own verification mode re-asserts the same per level
    for seed in range(10):
        n = int(rng.integers(2, 25))
        a = random_signed_adjacency(rng, n, density=0.3)
        solve_apsp(a, verify=True)
    report(
        "regularity suite",
        f"{sampled} n^2-regular samples, {levels_checked} full descents, 10 verified runs",
    )


def test_parity_suite():
    rng = np.random.default_rng(20240504)
    seeds = 0
    levels = 0
    for seed in range(100):
        n = int(rng.integers(2, 33))
        a = random_signed_adjacency(rng, n, density=float(rng.uniform(0.05, 0.6)))
        delta = n * n
        while delta > 1:
            star = oracle_apsp(a)
            c = canonical_adjacency(a)
            halved = two_hop_target(c)
            halved_star = oracle_apsp(halved)
            z_plus, z_minus = parity_products(halved_star, *parity_masks(c), verify=True)
            fired = z_plus.to_bool() | z_minus.to_bool()
            finite = np.isfinite(halved_star)
            odd = (star[finite] % 2) == 1
            assert np.array_equal(fired[finite], odd), (seed, delta)
            # odd and finite always has a detector fired (last-edge parity law)
            assert fired[finite][odd].all(), (seed, delta)
            a, delta = halved, (delta + 1) // 2
            levels += 1
        seeds += 1
    assert seeds >= 100
    report("parity suite", f"{seeds} seeds, {levels} recursion levels checked")


def test_determinism(tmp_path):
    edge_args = ["gen", "-n", "20", "--density", "0.45", "--seed", "31415"]
    gen_a, gen_b = tmp_path / "ga.txt", tmp_path / "gb.txt"
    assert main(edge_args + ["-o", str(gen_a)]) == 0
    assert main(edge_args + ["-o", str(gen_b)]) == 0
    assert gen_a.read_bytes() == gen_b.read_bytes()

    solve_a, solve_b = tmp_path / "sa.txt", tmp_path / "sb.txt"
    for out in (solve_a, solve_b):
        code = main(["solve", str(gen_a), "-o", str(out)])
        assert code == 0
    assert solve_a.read_bytes() == solve_b.read_bytes()

    rng = np.random.default_rng(20240505)
    instance = random_restricted_instance(rng, 24)
    pa, pb, pt = (tmp_path / f"{k}.txt" for k in "abt")
    pa.write_text(format_matrix(instance.a), encoding="utf-8")
    pb.write_text(format_matrix(instance.b), encoding="utf-8")
    pt.write_text(format_matrix(instance.target), encoding="utf-8")
    prod_a, prod_b = tmp_path / "pa.txt", tmp_path / "pb.txt"
    for out in (prod_a, prod_b):
        code = main(
            ["product", "--kernel", "tminmax-restricted", str(pa), str(pb), str(pt), "-o", str(out)]
        )
        assert code == 0
    assert prod_a.read_bytes() == prod_b.read_bytes()
    report("determinism", "gen/solve/product byte-identical across repeated runs")


def test_scaling_bench_informational(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "128,256,512", "--seed", "1", "-o", str(out)]) == 0
    with open(out, encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert {r["kernel"] for r in rows} == {"minmax", "tminmax-naive", "tminmax-restricted"}
    walls = {(r["kernel"], int(r["n"])): int(r["wall_ns"]) for r in rows}
    sums = {(r["kernel"], int(r["n"])): r["checksum"] for r in rows}
    for n in (128, 256, 512):
        assert sums[("tminmax-naive", n)] == sums[("tminmax-restricted", n)]
    ratio = walls[("tminmax-restricted", 512)] / walls[("tminmax-naive", 512)]
    verdict = "PASS" if ratio <= 0.5 else "INFO-FAIL (non-gating: hardware-dependent)"
    print(
        f"\nACCEPTANCE {verdict}: scaling bench "
        f"(restricted/naive wall ratio at n=512: {ratio:.3f}, target <= 0.5)"
    )


def test_recursion_depth():
    rng = np.random.default_rng(20240506)
    checked = 0
    for n in (1, 2, 3, 4, 7, 16, 33, 50, 64):
        a = random_signed_adjacency(rng, n, density=0.4)
        trace = RecursionTrace()
        solve_apsp(a, trace=trace)
        assert trace.depth == (n * n - 1).bit_length() + 1, n
        checked += 1
    report("recursion depth", f"depth == ceil(log2(n^2)) + 1 for {checked} sizes")
