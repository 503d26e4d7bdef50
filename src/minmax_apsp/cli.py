"""Command-line front end: generate, solve, verify, run product kernels, bench.

File formats (all UTF-8 text, '\\n' line endings, bit-exact across runs):

* edge list: '#' starts a comment line; first data line is "n m"; then m
  lines "u<TAB>v<TAB>w" with 0-based endpoints and w in {-1, 0, 1}.
* matrix: first line "r c"; then r lines of c whitespace-separated tokens;
  finite entries in decimal with |value| <= 2**53, infinities as
  "+inf"/"-inf" ("inf" parses as "+inf").  0/1 matrices use the same frame.

Exit codes: 0 success, 1 verification mismatch, 2 parse error (malformed
header or framing), 3 invalid input (weight or index out of range, a matrix
entry beyond 2**53, or a violated product precondition in verification mode).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .extmat import NEG_INF, POS_INF, VerificationError
from .graph import SignedGraph, adjacency_from_graph, oracle_apsp
from .products import (
    RestrictedInstance,
    minmax_product,
    restricted_target_minmax,
    target_minmax_naive,
)
from .reduction import solve_apsp

KERNELS = ("minmax", "tminmax-naive", "tminmax-restricted")


class ParseError(Exception):
    """A file (or its framing) could not be parsed.  Exit code 2."""


class InvalidInputError(Exception):
    """A well-formed file carries out-of-domain data.  Exit code 3."""


# ---------------------------------------------------------------------------
# deterministic randomness: a counter-indexed splitmix64 stream


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix_stream(seed, start, count) -> np.ndarray:
    """Outputs [start, start+count) of the splitmix64 sequence for ``seed``."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + idx * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def gen_random_graph(n, density, seed) -> SignedGraph:
    """Seeded random graph: each ordered pair (i, j), i != j, in row-major
    order gets an edge with the given probability and a uniform weight from
    {-1, 0, 1}.

    Pair number p consumes splitmix64 outputs 2p (presence: output <
    floor(density * 2**64)) and 2p + 1 (weight: output mod 3, minus 1), so the
    result is bit-identical for a fixed (n, density, seed) on any platform.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    pairs = n * (n - 1)
    if pairs == 0:
        return SignedGraph(n, ())
    draws = _splitmix_stream(seed, 0, 2 * pairs)
    if density >= 1.0:
        present = np.ones(pairs, dtype=bool)
    else:
        present = draws[0::2] < np.uint64(int(density * 2.0**64))
    weights = (draws[1::2] % np.uint64(3)).astype(np.int64) - 1
    p = np.flatnonzero(present)
    src = p // (n - 1)
    off = p % (n - 1)
    dst = off + (off >= src)
    return SignedGraph(n, tuple(zip(src.tolist(), dst.tolist(), weights[p].tolist())))


# ---------------------------------------------------------------------------
# file formats


def _data_lines(text):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def parse_edge_list(text) -> SignedGraph:
    lines = _data_lines(text)
    try:
        number, header = next(lines)
    except StopIteration:
        raise ParseError("empty edge-list file") from None
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(f"line {number}: expected header 'n m', got {header!r}")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(f"line {number}: non-integer header {header!r}") from None
    if n < 0 or m < 0:
        raise InvalidInputError(f"line {number}: negative count in header {header!r}")
    edges = []
    for number, line in lines:
        if len(edges) == m:
            raise ParseError(f"line {number}: more than {m} edge lines")
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(f"line {number}: expected 'u v w', got {line!r}")
        try:
            u, v, w = (int(f) for f in fields)
        except ValueError:
            raise ParseError(f"line {number}: non-integer edge {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInputError(
                f"line {number}: endpoint out of range for n={n}: {line!r}"
            )
        if w not in (-1, 0, 1):
            raise InvalidInputError(
                f"line {number}: weight {w} outside {{-1, 0, 1}}"
            )
        edges.append((u, v, w))
    if len(edges) != m:
        raise ParseError(f"expected {m} edge lines, found {len(edges)}")
    return SignedGraph(n, tuple(edges))


def format_edge_list(graph: SignedGraph) -> str:
    lines = [f"{graph.n} {len(graph.edges)}"]
    lines.extend(f"{u}\t{v}\t{w}" for u, v, w in graph.edges)
    return "\n".join(lines) + "\n"


def _format_entry(value) -> str:
    if value == POS_INF:
        return "+inf"
    if value == NEG_INF:
        return "-inf"
    return str(int(value))


def format_matrix(matrix) -> str:
    matrix = np.asarray(matrix, dtype=np.float64)
    lines = ["{} {}".format(*matrix.shape)]
    lines.extend(" ".join(_format_entry(v) for v in row) for row in matrix)
    return "\n".join(lines) + "\n"


# largest magnitude up to which every integer is exact in float64
_EXACT_LIMIT = 2**53


def _parse_entry(token, number):
    if token in ("inf", "+inf"):
        return POS_INF
    if token == "-inf":
        return NEG_INF
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"line {number}: bad matrix entry {token!r}") from None
    if abs(value) > _EXACT_LIMIT:
        raise InvalidInputError(
            f"line {number}: entry {token!r} exceeds 2**53 in magnitude"
        )
    return float(value)


def parse_matrix(text) -> np.ndarray:
    lines = _data_lines(text)
    try:
        number, header = next(lines)
    except StopIteration:
        raise ParseError("empty matrix file") from None
    fields = header.split()
    try:
        rows, cols = map(int, fields)  # a field count other than 2 also fails
        if rows < 0 or cols < 0:
            raise ValueError
    except ValueError:
        raise ParseError(f"line {number}: expected header 'r c', got {header!r}") from None
    values = []
    for number, line in lines:
        if len(values) == rows:
            raise ParseError(f"line {number}: more than {rows} matrix rows")
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(
                f"line {number}: expected {cols} entries, got {len(tokens)}"
            )
        values.append([_parse_entry(tok, number) for tok in tokens])
    if len(values) != rows:
        raise ParseError(f"expected {rows} matrix rows, found {len(values)}")
    try:
        # only a zero-row header can still name a shape numpy cannot hold
        return np.array(values, dtype=np.float64).reshape(rows, cols)
    except ValueError:
        raise ParseError(f"header {header!r} is too large") from None


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _write(path, text):
    Path(path).write_text(text, encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# commands


@dataclass
class RunConfig:
    command: str
    input: str = ""
    inputs: tuple = ()
    output: str = ""
    algorithm: str = "reduction"
    threshold: float = 0.5
    seed: int = 0
    n: int = 8
    density: float = 0.3
    kernel: str = "minmax"
    sizes: tuple = (128, 256, 512)
    repeats: int = 2
    verify: bool = False


def _checksum(matrix) -> str:
    """'finite-sum:+inf-count:-inf-count' with the sum reduced mod 2**64."""
    matrix = np.asarray(matrix, dtype=np.float64)
    finite = np.isfinite(matrix)
    total = int(matrix[finite].sum()) % (1 << 64)
    pos = int((matrix == POS_INF).sum())
    neg = int((matrix == NEG_INF).sum())
    return f"{total}:{pos}:{neg}"


def _cmd_solve(config: RunConfig) -> int:
    adjacency = adjacency_from_graph(parse_edge_list(_read(config.input)))
    if config.algorithm == "oracle":
        star = oracle_apsp(adjacency)
    else:
        star = solve_apsp(adjacency, config.threshold, verify=config.verify)
    _write(config.output, format_matrix(star))
    return 0


def _cmd_verify(config: RunConfig) -> int:
    adjacency = adjacency_from_graph(parse_edge_list(_read(config.input)))
    got = solve_apsp(adjacency, config.threshold, verify=config.verify)
    want = oracle_apsp(adjacency)
    if np.array_equal(got, want):
        print(f"ok: {adjacency.shape[0]} vertices, engine matches oracle")
        return 0
    bad = np.argwhere(got != want)
    print(f"MISMATCH: {len(bad)} differing entries")
    for i, j in bad[:10]:
        print(
            f"  ({i}, {j}): got {_format_entry(got[i, j])} "
            f"want {_format_entry(want[i, j])}"
        )
    return 1


def _cmd_product(config: RunConfig) -> int:
    a = parse_matrix(_read(config.inputs[0]))
    b = parse_matrix(_read(config.inputs[1]))
    if config.kernel == "minmax":
        _write(config.output, format_matrix(minmax_product(a, b)))
        return 0
    target = parse_matrix(_read(config.inputs[2]))
    if config.kernel == "tminmax-naive":
        bits = target_minmax_naive(a, b, target)
    else:
        try:
            instance = RestrictedInstance(a, b, target)
        except ValueError as exc:
            raise InvalidInputError(str(exc)) from None
        bits = restricted_target_minmax(
            instance, config.threshold, verify=config.verify
        )
    _write(config.output, format_matrix(bits.to_bool().astype(np.float64)))
    return 0


def _cmd_gen(config: RunConfig) -> int:
    graph = gen_random_graph(config.n, config.density, config.seed)
    header = f"# random graph: n={config.n} density={config.density} seed={config.seed}\n"
    _write(config.output, header + format_edge_list(graph))
    return 0


def _bench_instance(n, seed) -> RestrictedInstance:
    """Synthetic restricted instance: a few hot values (to feed the heavy
    route) over a wide finite range, some +/-inf, and a target pulled a
    nonnegative amount below the true product."""
    draws = _splitmix_stream(seed, 0, 4 * n * n)
    shaped = [draws[k * n * n : (k + 1) * n * n].reshape(n, n) for k in range(4)]
    kind, value, bsign, pull = shaped
    a = (value % np.uint64(2 * n + 1)).astype(np.float64) - n
    hot = (value % np.uint64(5)).astype(np.float64)
    a = np.where((kind % np.uint64(100)) < 30, hot, a)
    a[(kind % np.uint64(100)) >= 97] = POS_INF
    a[(kind % np.uint64(100)) == 96] = NEG_INF
    b = np.where((bsign % np.uint64(2)).astype(bool), NEG_INF, POS_INF)
    product = minmax_product(a, b)
    slack = (pull % np.uint64(3)).astype(np.float64)
    target = np.where(np.isfinite(product), product - slack, product)
    return RestrictedInstance(a, b, target)


def _cmd_bench(config: RunConfig) -> int:
    rows = []
    for n in config.sizes:
        instance = _bench_instance(n, config.seed)
        runs = {
            "minmax": lambda: minmax_product(instance.a, instance.b),
            "tminmax-naive": lambda: target_minmax_naive(
                instance.a, instance.b, instance.target
            ),
            "tminmax-restricted": lambda: restricted_target_minmax(
                instance, config.threshold
            ),
        }
        for kernel, call in runs.items():
            best = None
            result = None
            for _ in range(max(1, config.repeats)):
                tic = time.perf_counter_ns()
                result = call()
                elapsed = time.perf_counter_ns() - tic
                best = elapsed if best is None else min(best, elapsed)
            if kernel == "minmax":
                checksum = _checksum(result)
            else:
                checksum = _checksum(result.to_bool().astype(np.float64))
            rows.append((kernel, n, config.threshold, best, checksum))
    with open(config.output, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["kernel", "n", "t", "wall_ns", "checksum"])
        writer.writerows(rows)
    return 0


def run(config: RunConfig) -> int:
    """Execute one command, mapping domain failures to the documented exit codes."""
    handlers = {
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "product": _cmd_product,
        "gen": _cmd_gen,
        "bench": _cmd_bench,
    }
    try:
        return handlers[config.command](config)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidInputError, VerificationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


# ---------------------------------------------------------------------------
# argument parsing


def _threshold(text):
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"threshold must lie in [0, 1], got {text}")
    return value


def _density(text):
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"density must lie in [0, 1], got {text}")
    return value


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _sizes(text):
    try:
        sizes = tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from None
    if not sizes or any(n < 1 for n in sizes):
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    return sizes


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="minmax-apsp",
        description="Exact all-pairs shortest paths for {-1, 0, 1} edge weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--threshold",
            "-t",
            type=_threshold,
            default=0.5,
            help="heavy/light exponent in [0, 1] for the restricted product",
        )
        p.add_argument(
            "--verify",
            action="store_true",
            help="enable cubic per-stage self-checks",
        )

    p = sub.add_parser("solve", help="write the distance matrix of an edge list")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--output", "-o", required=True, help="matrix file to write")
    p.add_argument("--algorithm", choices=("reduction", "oracle"), default="reduction")
    common(p)

    p = sub.add_parser("verify", help="solve twice (engine and oracle) and compare")
    p.add_argument("input", help="edge-list file")
    common(p)

    p = sub.add_parser("product", help="run one product kernel on matrix files")
    p.add_argument("--kernel", choices=KERNELS, required=True)
    p.add_argument("a", help="left matrix file")
    p.add_argument("b", help="right matrix file")
    p.add_argument("target", nargs="?", help="target matrix file (tminmax kernels)")
    p.add_argument("--output", "-o", required=True)
    common(p)

    p = sub.add_parser("gen", help="write a seeded random edge list")
    p.add_argument("--n", "-n", type=_positive, required=True)
    p.add_argument("--density", type=_density, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", required=True)
    common(p)

    p = sub.add_parser("bench", help="time the product kernels over a size sweep")
    p.add_argument("--sizes", type=_sizes, default=(128, 256, 512))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=_positive, default=2)
    p.add_argument("--output", "-o", required=True)
    common(p)

    return parser


def _config_from_args(args) -> RunConfig:
    config = RunConfig(command=args.command)
    for name in (
        "input",
        "output",
        "algorithm",
        "threshold",
        "seed",
        "n",
        "density",
        "kernel",
        "sizes",
        "repeats",
        "verify",
    ):
        if hasattr(args, name):
            setattr(config, name, getattr(args, name))
    if args.command == "product":
        if args.kernel != "minmax" and args.target is None:
            raise ParseError(f"kernel {args.kernel} needs a target matrix file")
        config.inputs = tuple(p for p in (args.a, args.b, args.target) if p)
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)
