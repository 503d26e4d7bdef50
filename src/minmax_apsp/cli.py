"""Command-line front end: generate, solve, verify, run product kernels, bench.

File formats (all UTF-8 text, '\\n' line endings, bit-exact across runs):

* edge list: '#' starts a comment line; first data line is "n m"; then m
  lines "u<TAB>v<TAB>w" with 0-based endpoints and w in {-1, 0, 1}.
* matrix: first line "r c"; then r lines of c whitespace-separated tokens;
  finite entries in decimal with |value| <= 2**53, infinities as
  "+inf"/"-inf" ("inf" parses as "+inf").  0/1 matrices use the same frame.

Every integer field and argument is plain ASCII decimal, ``[+-]?[0-9]+``.

Exit codes: 0 success, 1 verification mismatch, 2 parse error (malformed
header or framing, a non-decimal integer) or a file that cannot be read or
written, 3 invalid input (weight or index out of range, a matrix entry
beyond 2**53, an n whose measured memory peak exceeds physical memory, or a
violated product precondition in verification mode).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
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
    """A file could not be read, written or parsed.  Exit code 2."""


class InvalidInputError(Exception):
    """A well-formed file carries out-of-domain data.  Exit code 3."""


# ---------------------------------------------------------------------------
# deterministic randomness: a counter-indexed splitmix64 stream


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix_stream(seed, positions) -> np.ndarray:
    """The splitmix64 outputs for ``seed`` at the given stream positions."""
    z = (np.asarray(positions, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def gen_random_graph(n, density, seed) -> SignedGraph:
    """Seeded random graph: each ordered pair (i, j), i != j, in row-major
    order gets an edge with the given probability and a uniform weight from
    {-1, 0, 1}.

    Pair number p consumes splitmix64 outputs 2p (presence: output <
    floor(density * 2**64)) and, if present, 2p + 1 (weight: output mod 3,
    minus 1), so the result is bit-identical for a fixed (n, density, seed)
    on any platform.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    pairs = n * (n - 1)
    if pairs == 0:
        return SignedGraph(n, ())
    if density >= 1.0:
        p = np.arange(pairs)
    else:
        presence = _splitmix_stream(seed, np.arange(0, 2 * pairs, 2))
        p = np.flatnonzero(presence < np.uint64(int(density * 2.0**64)))
    weights = (_splitmix_stream(seed, 2 * p + 1) % np.uint64(3)).astype(np.int64) - 1
    src = p // (n - 1)
    off = p % (n - 1)
    dst = off + (off >= src)
    return SignedGraph(n, tuple(zip(src.tolist(), dst.tolist(), weights.tolist())))


# ---------------------------------------------------------------------------
# file formats


def _data_lines(text):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(text) -> int:
    """``int(text)`` for plain ASCII decimal only: ``int`` alone would also
    take ``1_0`` and non-ASCII digits.  Raises ValueError otherwise, also for
    more digits than ``int`` converts."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _integer(token, number, what) -> int:
    try:
        return _decimal(token)
    except ValueError:
        raise ParseError(f"line {number}: non-integer {what} {token!r}") from None


def _header(lines, kind, names):
    """The first data line as its line number and its two integer fields."""
    try:
        number, header = next(lines)
    except StopIteration:
        raise ParseError(f"empty {kind} file") from None
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(f"line {number}: expected header {names!r}, got {header!r}")
    return number, [_integer(f, number, "header field") for f in fields]


def parse_edge_list(text) -> SignedGraph:
    lines = _data_lines(text)
    number, (n, m) = _header(lines, "edge-list", "n m")
    if n < 0 or m < 0:
        raise InvalidInputError(f"line {number}: negative count in header '{n} {m}'")
    edges = []
    for number, line in lines:
        if len(edges) == m:
            raise ParseError(f"line {number}: more than {m} edge lines")
        fields = line.split()
        if len(fields) != 3:
            raise ParseError(f"line {number}: expected 'u v w', got {line!r}")
        u, v, w = (_integer(f, number, "edge field") for f in fields)
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
    # each distinct value is formatted once, then looked up per entry
    values, inverse = np.unique(matrix, return_inverse=True)
    words = np.array([_format_entry(v) for v in values], dtype=object)
    lines = ["{} {}".format(*matrix.shape)]
    lines.extend(" ".join(row) for row in words[inverse.reshape(matrix.shape)].tolist())
    return "\n".join(lines) + "\n"


# largest magnitude up to which every integer is exact in float64
_EXACT_LIMIT = 2**53


def _parse_entry(token, number):
    if token in ("inf", "+inf"):
        return POS_INF
    if token == "-inf":
        return NEG_INF
    value = _integer(token, number, "matrix entry")
    if abs(value) > _EXACT_LIMIT:
        raise InvalidInputError(
            f"line {number}: entry {token!r} exceeds 2**53 in magnitude"
        )
    return float(value)


def parse_matrix(text) -> np.ndarray:
    lines = _data_lines(text)
    number, (rows, cols) = _header(lines, "matrix", "r c")
    if rows < 0 or cols < 0:
        raise ParseError(f"line {number}: negative count in header '{rows} {cols}'")
    values = []  # one float64 array per row read, 8 bytes per entry
    for number, line in lines:
        if len(values) == rows:
            raise ParseError(f"line {number}: more than {rows} matrix rows")
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(
                f"line {number}: expected {cols} entries, got {len(tokens)}"
            )
        values.append(np.array([_parse_entry(tok, number) for tok in tokens]))
    # the r rows of an r x 0 matrix are blank lines, so there are none to count
    if cols and len(values) != rows:
        raise ParseError(f"expected {rows} matrix rows, found {len(values)}")
    try:
        # only a header with a zero count can still name a shape numpy cannot hold
        return np.array(values, dtype=np.float64).reshape(rows, cols)
    except ValueError:
        raise ParseError(f"header '{rows} {cols}' is too large") from None


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _write(path, text):
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# commands


def _checksum(matrix) -> str:
    """'finite-sum:+inf-count:-inf-count' with the sum reduced mod 2**64."""
    matrix = np.asarray(matrix, dtype=np.float64)
    finite = np.isfinite(matrix)
    total = int(matrix[finite].sum()) % (1 << 64)
    pos = int((matrix == POS_INF).sum())
    neg = int((matrix == NEG_INF).sum())
    return f"{total}:{pos}:{neg}"


def _refuse_beyond_memory(nbytes, what):
    """Refuse (exit 3), before allocating it, a run larger than physical memory."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > memory:
        raise InvalidInputError(
            f"{what} would take {nbytes / 2**30:.1f} GiB, "
            f"more than the {memory / 2**30:.1f} GiB of physical memory"
        )


# Peak bytes per n**2 of one engine solve with verify off (tracemalloc,
# through `solve`).  A solve has one configuration, so this bounds every
# solve.  unit-cli reads 92 at n = 1024 and 91 at n = 2048; solve_apsp alone
# peaks at 98 at most, neg-cycles at n = 256 (BENCH_solve.json); a `gen`
# graph of the default density 0.3 reads 90 / 89 / 88 at n = 256 / 512 /
# 1024.  The largest measured before the bool parity masks was 141.
SOLVE_BYTES_PER_ENTRY = 192

# Peak bytes per n**2 of `solve --algorithm oracle` (tracemalloc, through
# `solve`): 57 to 65 at `gen` densities 0 to 0.3 and n = 128 to 2048.
ORACLE_BYTES_PER_ENTRY = 72

# Peak bytes of `gen` (tracemalloc, gen_random_graph plus format_edge_list)
# per ordered pair and per edge, rounded up from n = 500: 24 bytes per pair
# at densities 0 to 0.1 (the presence draws), 188.5 at density 1.
GEN_BYTES_PER_PAIR = 24
GEN_BYTES_PER_EDGE = 168

# Peak bytes per n**2 of `bench` at one size (tracemalloc, through `bench`):
# 97 / 97 / 98 at n = 256 / 512 / 1024, mostly the instance and its
# min-max product.  The first command of a process also imports about
# 1.3 MiB of modules once (numpy.ma among them), which no bound counts.
BENCH_BYTES_PER_ENTRY = 128

# Peak bytes of `product` (tracemalloc, parsing included): 88 to 89 per
# n**2 on bench instances at n = 256 / 512 / 1024, plus the restricted
# kernel's heavy matrix H and F = H.B', one bool byte per entry each.  A row
# holds at most isqrt(n) heavy groups, so each of those has at most
# n**2 * isqrt(n) entries; the most-heavy case, rows split into groups of
# cutoff + 1 columns, peaks at 93 / 98 / 114 per n**2.
PRODUCT_BYTES_PER_ENTRY = 128
PRODUCT_BYTES_PER_HEAVY_ENTRY = 4


def _read_adjacency(path, *, engine, verify=False) -> np.ndarray:
    """The adjacency of an edge list, refused (exit 3) before it is built
    when the solve's peak would exceed physical memory."""
    graph = parse_edge_list(_read(path))
    n = graph.n
    per_entry = SOLVE_BYTES_PER_ENTRY if engine else ORACLE_BYTES_PER_ENTRY
    if verify:  # the engine's: `solve --algorithm oracle` refuses --verify
        # every level (one per halving of n**2, plus the base case) keeps
        # its float64 oracle distances across the recursion
        per_entry += 8 * ((n * n - 1).bit_length() + 1)
    _refuse_beyond_memory(
        per_entry * n**2, f"solving n={n} at {per_entry} bytes per entry"
    )
    return adjacency_from_graph(graph)


def _cmd_solve(args) -> int:
    adjacency = _read_adjacency(
        args.input, engine=args.algorithm != "oracle", verify=args.verify
    )
    if args.algorithm == "oracle":
        star = oracle_apsp(adjacency)
    else:
        star = solve_apsp(adjacency, verify=args.verify)
    _write(args.output, format_matrix(star))
    return 0


def _cmd_verify(args) -> int:
    adjacency = _read_adjacency(args.input, engine=True, verify=args.verify)
    got = solve_apsp(adjacency, verify=args.verify)
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


def _cmd_product(args) -> int:
    if args.kernel != "minmax" and args.target is None:
        raise ParseError(f"kernel {args.kernel} needs a target matrix file")
    a = parse_matrix(_read(args.a))
    n = max(a.shape)
    per_entry = PRODUCT_BYTES_PER_ENTRY + PRODUCT_BYTES_PER_HEAVY_ENTRY * math.isqrt(n)
    _refuse_beyond_memory(
        per_entry * n**2, f"a product of n={n} at {per_entry} bytes per entry"
    )
    b = parse_matrix(_read(args.b))
    if args.kernel == "minmax":
        _write(args.output, format_matrix(minmax_product(a, b)))
        return 0
    if args.kernel == "tminmax-naive":
        bits = target_minmax_naive(a, b, parse_matrix(_read(args.target)))
    else:
        # B' must be all +/-inf; the instance holds its -inf mask, and the
        # float B' is dropped before the target is read
        b_neg = b == NEG_INF
        bad = np.argwhere(~b_neg & (b != POS_INF))
        if bad.size:
            i, j = bad[0]
            raise InvalidInputError(
                f"b[{i}, {j}] = {b[i, j]}: every entry of b must be -inf or +inf"
            )
        del b
        target = parse_matrix(_read(args.target))
        # a target that breaks the instance contract raises ValueError: exit 3
        instance = RestrictedInstance(a, b_neg, target)
        bits = restricted_target_minmax(instance, verify=args.verify)
    _write(args.output, format_matrix(bits))
    return 0


def _cmd_gen(args) -> int:
    # the random draws and their temporaries per ordered pair, then the edges
    pairs = args.n * (args.n - 1)
    _refuse_beyond_memory(
        pairs * (GEN_BYTES_PER_PAIR + args.density * GEN_BYTES_PER_EDGE),
        f"a random graph of n={args.n} and density {args.density}",
    )
    graph = gen_random_graph(args.n, args.density, args.seed)
    header = f"# random graph: n={args.n} density={args.density} seed={args.seed}\n"
    _write(args.output, header + format_edge_list(graph))
    return 0


def _bench_instance(n, seed) -> RestrictedInstance:
    """Synthetic restricted instance: hot values over a wide finite range,
    some +/-inf (-inf at a rate of 1/(4n), so -inf targets stay a minority),
    and a target pulled a nonnegative amount below the true product.  Odd
    rows hold two hot values below the finite range, so their minima take the
    heavy route; even rows' minima are rare finite values (light route)."""
    draws = _splitmix_stream(seed, np.arange(4 * n * n))
    shaped = [draws[k * n * n : (k + 1) * n * n].reshape(n, n) for k in range(4)]
    kind, value, bsign, pull = shaped
    a = (value % np.uint64(2 * n + 1)).astype(np.float64) - n
    hot = (value % np.uint64(5)).astype(np.float64)
    hot[1::2] = -n - 1.0 - (value[1::2] % np.uint64(2))
    a = np.where((kind % np.uint64(100)) < 30, hot, a)
    a[(kind % np.uint64(100)) >= 97] = POS_INF
    a[(kind % np.uint64(100 * n)) < 25] = NEG_INF
    b_neg = (bsign % np.uint64(2)).astype(bool)
    product = minmax_product(a, np.where(b_neg, NEG_INF, POS_INF))
    slack = (pull % np.uint64(3)).astype(np.float64)
    target = np.where(np.isfinite(product), product - slack, product)
    return RestrictedInstance(a, b_neg, target)


def _cmd_bench(args) -> int:
    n = max(args.sizes)
    _refuse_beyond_memory(
        BENCH_BYTES_PER_ENTRY * n**2,
        f"a bench of n={n} at {BENCH_BYTES_PER_ENTRY} bytes per entry",
    )
    rows = []
    for n in args.sizes:
        instance = _bench_instance(n, args.seed)
        # the cubic kernels read B' as floats, built before any timing
        b = np.where(instance.b_neg, NEG_INF, POS_INF)
        runs = {
            "minmax": lambda: minmax_product(instance.a, b),
            "tminmax-naive": lambda: target_minmax_naive(
                instance.a, b, instance.target
            ),
            "tminmax-restricted": lambda: restricted_target_minmax(instance),
        }
        for kernel, call in runs.items():
            best = None
            result = None
            for _ in range(args.repeats):
                tic = time.perf_counter_ns()
                result = call()
                elapsed = time.perf_counter_ns() - tic
                best = elapsed if best is None else min(best, elapsed)
            rows.append((kernel, n, best, _checksum(result)))
    lines = ["kernel,n,wall_ns,checksum"]
    lines.extend(",".join(map(str, row)) for row in rows)
    _write(args.output, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _density(text):
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"density must lie in [0, 1], got {text}")
    return value


def _positive(text):
    value = _decimal(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _sizes(text):
    try:
        sizes = tuple(_decimal(part) for part in text.split(",") if part)
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

    verify_help = "enable cubic per-stage self-checks"

    p = sub.add_parser("solve", help="write the distance matrix of an edge list")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--output", "-o", required=True, help="matrix file to write")
    p.add_argument("--algorithm", choices=("reduction", "oracle"), default="reduction")
    p.add_argument("--verify", action="store_true", help=verify_help)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("verify", help="solve twice (engine and oracle) and compare")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--verify", action="store_true", help=verify_help)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("product", help="run one product kernel on matrix files")
    p.add_argument("--kernel", choices=KERNELS, required=True)
    p.add_argument("a", help="left matrix file")
    p.add_argument("b", help="right matrix file")
    p.add_argument("target", nargs="?", help="target matrix file (tminmax kernels)")
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--verify", action="store_true", help=verify_help)
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("gen", help="write a seeded random edge list")
    p.add_argument("--n", "-n", type=_positive, required=True)
    p.add_argument("--density", type=_density, default=0.3)
    p.add_argument("--seed", type=_decimal, default=0)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("bench", help="time the product kernels over a size sweep")
    p.add_argument("--sizes", type=_sizes, default=(128, 256, 512))
    p.add_argument("--seed", type=_decimal, default=0)
    p.add_argument("--repeats", type=_positive, default=2)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    """Run one subcommand, mapping domain failures to the documented exit codes."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and args.algorithm == "oracle" and args.verify:
        parser.error("solve --algorithm oracle runs no self-checks: drop --verify")
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidInputError, VerificationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
