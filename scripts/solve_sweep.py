"""Engine and oracle over a size sweep, appended as rows to BENCH_solve.json.

    python3 scripts/solve_sweep.py --label change [--root CHECKOUT] [--sizes N ...]

Run from the repository root.  Every row is one workload's first benchmark
graph at one n of ``SIZES`` or ``--sizes`` (``make_graph`` from
``perfbench/solvebench.py`` at the default seed's first graph seed).  The
oracle (``oracle_apsp``) is timed once; the engine (``solve_apsp``) runs once
under tracemalloc for its peak and its recursion trace (levels run and
reused), which also serves as an untimed warm-up, and then once timed.  The
two outputs' checksums must agree: the exit status is 1 when they differ in
a row this run appended (rows from earlier runs do not count).  ``--root``
measures the ``src/`` of another checkout, such as a parent commit, with
this repository's benchmark helpers.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
OUT = ROOT / "BENCH_solve.json"
SIZES = (256, 512, 1024, 2048)
DESCRIPTION = (
    "solve_apsp against oracle_apsp on the first graph of each benchmark "
    "workload (perfbench/solvebench.py make_graph) at several n; written by "
    "scripts/solve_sweep.py. peak_mib is the tracemalloc peak of one solve "
    "(the input adjacency excluded), solve_s one timed solve after it, "
    "oracle_s one Floyd-Warshall run. levels counts the RecursionTrace "
    "entries of the traced solve, reused_levels those its fixed-point skip "
    "reused (0 for versions without the skip)."
)


def _git(root, *args) -> str | None:
    """git's answer in ``root``, or None where it has none (no git, or a tree
    that is not a checkout)."""
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _timed(call):
    tic = time.perf_counter()
    out = call()
    return out, time.perf_counter() - tic


def sweep_row(mods, sb, workload, n):
    seed = sb.graph_seeds(sb.DEFAULT_SEED)[0]
    a = mods.adjacency_from_graph(sb.make_graph(mods, workload, n, seed))
    want, oracle_s = _timed(lambda: mods.oracle_apsp(a))
    trace = mods.RecursionTrace()
    tracemalloc.start()
    try:
        mods.solve_apsp(a, trace=trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a LevelTrace from before the fixed-point skip has no reused field
    reused = sum(getattr(level, "reused", False) for level in trace.levels)
    got, solve_s = _timed(lambda: mods.solve_apsp(a))
    engine, oracle = sb.checksum(got), sb.checksum(want)
    return {
        "workload": workload,
        "n": n,
        "graph_seed": seed,
        "peak_mib": round(peak / 2**20, 2),
        "peak_bytes_per_n2": round(peak / n**2, 1),
        "solve_s": round(solve_s, 3),
        "oracle_s": round(oracle_s, 3),
        "levels": trace.depth,
        "reused_levels": reused,
        "engine_checksum": engine,
        "oracle_checksum": oracle,
        "checksums_agree": engine == oracle,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="name of the measured version")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to measure")
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES, help="values of n")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(PERFBENCH))
    from run import cap_threads, environment, nproc

    cap_threads(os.environ, nproc())
    sys.path.insert(0, str(args.root.resolve() / "src"))
    import numpy as np

    import minmax_apsp as mods
    import solvebench as sb

    status = _git(args.root, "status", "--porcelain", "--", "src")
    record = {
        "label": args.label,
        "commit": _git(args.root, "rev-parse", "--short", "HEAD") or "unknown",
        # null where git cannot tell, as in an exported tree
        "src_modified": None if status is None else status != "",
    }
    record.update(environment(np))
    bench = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else {}
    bench["description"] = DESCRIPTION
    rows = bench.setdefault("rows", [])
    agree = True
    for n in args.sizes:
        for workload in sb.WORKLOADS:
            row = dict(record, **sweep_row(mods, sb, workload, n))
            print(json.dumps(row), flush=True)
            rows.append(row)
            agree = agree and row["checksums_agree"]
            OUT.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
