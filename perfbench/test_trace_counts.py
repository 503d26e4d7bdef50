"""The traced pass is deterministic in its counts and accounts for its time.

Run from the repository root:

    python3 -m pytest perfbench/test_trace_counts.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import solvebench as sb  # noqa: E402
from tracer import COUNT_METRICS, MIB_METRICS, SELF_TIME_METRICS  # noqa: E402

N = 40
SEED = 7


@pytest.mark.parametrize("workload", sorted(sb.WORKLOADS))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    [instance], _ = sb.setup(workload, N, SEED, tmp_path, repeats=1, graphs=1)
    original = instance.mods.reduction.solve_apsp
    tally = sb.Tally()
    first, _ = sb.traced_solve(instance, tally)
    second, _ = sb.traced_solve(instance, tally)

    assert (tally.attempted, tally.failed) == (2, 0)
    assert instance.mods.reduction.solve_apsp is original
    for name in COUNT_METRICS + MIB_METRICS:
        assert first[name] == second[name], name
    assert first["reduction.levels"] == first["reduction.two_hop_calls"] + 1 > 1
    products = first["products.restricted_target_minmax_calls"]
    assert products == 2 * first["reduction.two_hop_calls"]
    routes = sum(first[name] for name in first if name.startswith("products.route_"))
    assert routes == products * N * N
    assert first["extmat.minplus_ops"] == first["extmat.minplus_product_calls"] * N**3
    assert (first["cli.output_mib"] > 0) == (workload == "unit-cli")


@pytest.mark.parametrize("workload", sorted(sb.WORKLOADS))
def test_self_times_partition_the_traced_solve(workload, tmp_path):
    [instance], _ = sb.setup(workload, N, SEED, tmp_path, repeats=1, graphs=1)
    metrics, spans = sb.traced_solve(instance, sb.Tally())

    assert sum(1 for span in spans if span[3] < 0) == 1
    covered = sum(metrics[name] for name in set(SELF_TIME_METRICS.values()))
    assert covered == pytest.approx(metrics["trace.solve_s"], rel=1e-9, abs=1e-12)
    assert 0 <= metrics["products.heavy_product_s"] <= metrics["extmat.bool_product_s"]
