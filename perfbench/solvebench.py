"""Workloads, set-up, timed solves and the oracle check.

A run generates GRAPHS seeded n = 512 graphs of one workload.  It then times
rounds, each on the next graph in turn: Floyd-Warshall (``oracle_apsp``) on
the adjacency, then one solve request, whose output must equal the oracle's
exactly.  The samples are reduced to medians.  Cycling over several graphs
keeps any one graph's structure from setting a run's figures.  ``--trace 1``
runs add a traced solve to every round and report per-layer metrics from
the traced solves.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import sys
import time
import tracemalloc

import numpy as np

from tracer import MIB, Tracer, layer_metrics

N = 512
GRAPHS = 3
DEFAULT_SEED = 1
PACKAGE = "minmax_apsp"
SETUP_REPEATS = 5
# share of the last solve's time spent timing the oracle in each round
ORACLE_SHARE = 0.35

# README.md gives the reason for each workload
WORKLOADS = ("neg-cycles", "long-dag", "unit-cli")

END_TO_END = {
    "solve_s": "s",
    "speedup_vs_oracle": "x",
    "peak_mib": "MiB",
    "setup_s": "s",
}


def import_package():
    """Import the package afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE)


def make_graph(mods, workload, n, seed):
    gen = mods.gen_random_graph
    if workload == "neg-cycles":
        return gen(n, 0.02, seed)
    if workload == "long-dag":
        edges = gen(n, 0.5, seed).edges
        return mods.SignedGraph(n, tuple(e for e in edges if 0 < e[1] - e[0] <= 8))
    if workload == "unit-cli":
        edges = gen(n, 0.005, seed).edges
        return mods.SignedGraph(n, tuple((u, v, 1) for u, v, _ in edges))
    raise ValueError(f"unknown workload {workload!r}")


def graph_seeds(seed, count=GRAPHS):
    """The gen_random_graph seeds of a run's graphs."""
    return [seed * count + i for i in range(count)]


def checksum(matrix) -> str:
    """'finite-sum:+inf-count:-inf-count', sum mod 2**64; the format of the
    CLI's bench checksums."""
    finite = np.isfinite(matrix)
    total = int(matrix[finite].sum()) % (1 << 64)
    return f"{total}:{int((matrix == np.inf).sum())}:{int((matrix == -np.inf).sum())}"


class Instance:
    """One graph of a workload, its input file, and a solve request for it.

    The first oracle output becomes the reference that every solve output
    must match exactly; with ``pinned`` set, the reference's checksum must
    also equal it.
    """

    def __init__(self, mods, workload, n, seed, workdir):
        self.mods = mods
        self.workload = workload
        graph = make_graph(mods, workload, n, seed)
        self.adjacency = mods.adjacency_from_graph(graph)
        self.input = workdir / f"graph-{seed}.txt"
        self.output = workdir / f"distances-{seed}.txt"
        if workload == "unit-cli":
            self.input.write_text(mods.format_edge_list(graph), encoding="utf-8")
        self.pinned = None
        self.checksum = None
        self._expected = None

    def solve(self):
        """One solve request; returns what the user gets back."""
        if self.workload != "unit-cli":
            # looked up on each call, so a tracer's wrapper is seen
            return self.mods.reduction.solve_apsp(self.adjacency)
        code = self.mods.cli.main(["solve", str(self.input), "-o", str(self.output)])
        if code != 0:
            raise RuntimeError(f"solve exited with code {code}")
        return self.output.read_bytes()

    def oracle(self):
        out = self.mods.oracle_apsp(self.adjacency)
        if self._expected is None:
            self.checksum = checksum(out)
            if self.workload == "unit-cli":
                self._expected = self.mods.format_matrix(out).encode("utf-8")
            else:
                self._expected = out
        return out

    def matches(self, out) -> bool:
        if self._expected is None:
            self.oracle()
        if self.pinned is not None and self.pinned != self.checksum:
            print(f"checksum {self.checksum} is not the pinned {self.pinned}", file=sys.stderr)
            return False
        if self.workload == "unit-cli":
            return out == self._expected
        return np.array_equal(out, self._expected)


class Tally:
    """Solves attempted and failed.  A solve fails when it raises or exits
    nonzero, or when its output differs from the oracle; none is dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def solve(self, instance):
        """Run and check one solve; return its seconds, or None if it raised."""
        self.attempted += 1
        try:
            tic = time.perf_counter()
            out = instance.solve()
            elapsed = time.perf_counter() - tic
        except Exception as exc:  # noqa: BLE001 - a failed solve is a result
            print(f"solve failed: {exc!r}", file=sys.stderr)
            self.failed += 1
            return None
        if not instance.matches(out):
            print("solve output differs from the oracle", file=sys.stderr)
            self.failed += 1
        return elapsed


def setup(workload, n, seed, workdir, repeats=SETUP_REPEATS, graphs=GRAPHS):
    """Import the package, generate the run's graphs and write their input
    files, ``repeats`` times; return the last instances and the median
    seconds.  Only the first repetition imports numpy; the median leaves it
    out."""
    times = []
    for _ in range(repeats):
        tic = time.perf_counter()
        mods = import_package()
        instances = [
            Instance(mods, workload, n, s, workdir) for s in graph_seeds(seed, graphs)
        ]
        times.append(time.perf_counter() - tic)
    return instances, statistics.median(times)


def _timed(call):
    tic = time.perf_counter()
    call()
    return time.perf_counter() - tic


def _time_oracle(instance, budget):
    """Oracle seconds, timed at least once and until ``budget`` is spent."""
    times = [_timed(instance.oracle)]
    while sum(times) < budget:
        times.append(_timed(instance.oracle))
    return times


def oracle_seconds(samples):
    """The oracle's time from all its samples in a run: their mean.

    Each burst of oracle calls runs in one of two speeds, about 0.27 s or
    0.35 s at n = 512 on a 2-core x86 VM, set by where the heap puts its
    arrays after the solve before it.  A median jumps between the two; the
    mean follows the mix.
    """
    return statistics.fmean(samples)


def warm_up(instance, tally):
    """The run's first solve, untimed and under tracemalloc, after the
    graph's oracle: it takes the cold start off the timed rounds and returns
    the solve's seconds and the peak MiB it allocated."""
    instance.oracle()
    tracemalloc.start()
    try:
        tic = time.perf_counter()
        tally.solve(instance)
        return time.perf_counter() - tic, tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def _rounds(instances, seconds, tally, body):
    """Warm up on the first graph, then call ``body(instance, oracle_budget)``
    on the next graph in turn while another round fits in ``seconds`` from
    the start.  ``body`` returns its solve's seconds, or None.  Returns the
    warm-up's peak MiB."""
    deadline = time.perf_counter() + seconds
    last_solve, peak_mib = warm_up(instances[0], tally)
    for r in itertools.count(1):
        tic = time.perf_counter()
        solve_s = body(instances[r % len(instances)], ORACLE_SHARE * last_solve)
        last_solve = solve_s or last_solve
        now = time.perf_counter()
        if now + (now - tic) > deadline:
            return peak_mib


def measure(instances, tally, seconds):
    """End-to-end metrics from rounds of (oracle timings, one timed solve)."""
    solves, oracle = [], []

    def body(instance, budget):
        oracle.append(_time_oracle(instance, budget))
        solve_s = tally.solve(instance)
        if solve_s is not None:
            solves.append(solve_s)
        return solve_s

    metrics = {"peak_mib": _rounds(instances, seconds, tally, body)}
    if solves:
        metrics["solve_s"] = statistics.median(solves)
        oracle_s = oracle_seconds(itertools.chain.from_iterable(oracle))
        metrics["speedup_vs_oracle"] = oracle_s / metrics["solve_s"]
    return metrics, {"solve_s": solves, "oracle_s_per_round": oracle}


def traced_solve(instance, tally):
    """One solve with every trace point wrapped; returns its layer metrics
    and its spans."""
    tracer = Tracer()
    with tracer.installed(instance.mods):
        tally.solve(instance)
    return layer_metrics(tracer), tracer.spans


def measure_traced(instances, tally, seconds):
    """Per-layer metrics from rounds of (oracle timings, untraced solve,
    oracle timings, traced solve).  Times are medians over the traced solves;
    counts come from the first (on one graph they repeat exactly, see
    test_trace_counts.py)."""
    untraced, oracle, layers, spans = [], [], [], []

    def body(instance, budget):
        oracle.extend(_time_oracle(instance, budget))
        solve_s = tally.solve(instance)
        if solve_s is not None:
            untraced.append(solve_s)
        # the traced solve follows oracle timings too, as the untraced one does
        oracle.extend(_time_oracle(instance, budget))
        metrics, trace_spans = traced_solve(instance, tally)
        layers.append(metrics)
        spans.append(trace_spans)
        return solve_s

    _rounds(instances, seconds, tally, body)
    metrics = dict(layers[0])
    for name, value in metrics.items():
        if isinstance(value, float) and name.endswith("_s"):
            metrics[name] = statistics.median(m[name] for m in layers)
    metrics["graph.oracle_apsp_s"] = oracle_seconds(oracle)
    if untraced:
        overhead = metrics["trace.solve_s"] - statistics.median(untraced)
        metrics["trace.overhead_s"] = overhead
    return metrics, spans[0]
