"""End-to-end solve benchmark for minmax-apsp, checked against the oracle.

    python3 perfbench/run.py --workload neg-cycles --seed 1 --seconds 42 --trace 0

Run from the repository root.  The package is imported from ``src/`` next to
this directory.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINS = HERE / "checksums.json"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads(environ, limit):
    """Cap every BLAS/OpenMP thread-count variable at ``limit``; this has to
    happen before numpy is imported to take effect."""
    for var in THREAD_VARS:
        try:
            current = int(environ.get(var, ""))
        except ValueError:
            current = limit
        environ[var] = str(max(1, min(current, limit)))


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    record = {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }
    record.update({var: os.environ.get(var) for var in THREAD_VARS})
    return record


def parse_args(argv, workloads, default_seed):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "minmax_apsp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    cap_threads(os.environ, nproc())
    sys.path.insert(0, str(SRC))
    import numpy as np

    import solvebench as sb

    args = parse_args(argv, sb.WORKLOADS, sb.DEFAULT_SEED)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        instances, setup_s = sb.setup(args.workload, sb.N, args.seed, workdir)
        pins = json.loads(PINS.read_text(encoding="utf-8"))
        if args.seed == pins["seed"]:
            for instance, pinned in zip(instances, pins["checksums"][args.workload]):
                instance.pinned = pinned
        tally = sb.Tally()
        if args.trace:
            metrics, spans = sb.measure_traced(instances, tally, args.seconds)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, samples = sb.measure(instances, tally, args.seconds)
            metrics["setup_s"] = setup_s
            units = sb.END_TO_END
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    env = environment(np)
    checksums = [instance.checksum for instance in instances]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "graph_seeds": sb.graph_seeds(args.seed),
        "checksums": checksums,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record.update({"spans": spans} if args.trace else {"samples": samples})
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for key, value in env.items():
        print(f"# {key} = {value}")
    print(f"# graph seeds = {sb.graph_seeds(args.seed)}")
    print(f"# checksums = {checksums}")
    print(f"# report = {report.relative_to(ROOT)}")
    error_rate = tally.failed / tally.attempted
    print(f"error_rate {error_rate:g} ({tally.failed} of {tally.attempted} solves failed)")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    correct = tally.failed == 0 and set(units) <= set(metrics)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def layer_unit(name) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
