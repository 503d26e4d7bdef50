import csv
import hashlib
import math
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
from minmax_apsp import NEG_INF, POS_INF, minmax_product, oracle_apsp, target_minmax_naive
from minmax_apsp.cli import (
    InvalidInputError,
    ParseError,
    _format_entry,
    format_edge_list,
    format_matrix,
    gen_random_graph,
    main,
    parse_edge_list,
    parse_matrix,
)

INF = POS_INF

CHAIN_TEXT = "# three-vertex chain\n3 2\n0\t1\t1\n1\t2\t1\n"


# ---------------------------------------------------------------------------
# generator


def test_gen_density_zero_is_edgeless():
    assert gen_random_graph(5, 0.0, 1).edges == ()


def test_gen_density_one_is_complete():
    g = gen_random_graph(3, 1.0, 1)
    assert len(g.edges) == 6
    assert len({(u, v) for u, v, _ in g.edges}) == 6


def test_gen_is_deterministic():
    a = gen_random_graph(17, 0.4, 123456789)
    b = gen_random_graph(17, 0.4, 123456789)
    assert a == b
    assert format_edge_list(a) == format_edge_list(b)
    assert gen_random_graph(17, 0.4, 987654321) != a


# sha256 of format_edge_list(gen_random_graph(n, density, seed)), pinned so
# that a change to the generator cannot silently change the graphs it draws
GEN_DIGESTS = [
    (1, 0.5, 1, "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7"),
    (2, 0.5, 5, "73e7cc91b544da7f58a32d97e27a52abd7dc2670a744ed177173e994534d333d"),
    (2, 1.0, 0, "c5dd47db21710b0463cda1edca652939d18066e23dbafb6210d3e91599b0d402"),
    (7, 0.0, 3, "13316410c3243a6b30a5a799aabf36a1e1a8f2aec49fd3af6869c33441dabea7"),
    (7, 1.0, 3, "f285eaa0c74c161080ffe6778fbff53fad09bc3f10dc61fda30c5a706e52a6c9"),
    (40, 0.3, 2**63 + 5, "8c0bf4341ae5b2dc29ba30c562d0d8081f90c6eacc79bb771ba5690a5ded11ac"),
    (64, 0.02, 3, "5490a48c1bdd248bb26ef5aacf60aeaefe43a45cb84602dda8ffdfff9eb1a586"),
    (100, 0.999, 17, "5f7334ad7897ea5370fa445fa32c74fc2c1e55dd0b683017715622a7e8a3facb"),
]


@pytest.mark.parametrize("n, density, seed, digest", GEN_DIGESTS)
def test_gen_output_is_pinned(n, density, seed, digest):
    text = format_edge_list(gen_random_graph(n, density, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_gen_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gen_random_graph(0, 0.5, 1)
    with pytest.raises(ValueError):
        gen_random_graph(3, 1.5, 1)


# ---------------------------------------------------------------------------
# file formats


def test_edge_list_round_trip():
    g = gen_random_graph(9, 0.5, 7)
    assert parse_edge_list(format_edge_list(g)) == g
    assert parse_edge_list(format_edge_list(parse_edge_list(format_edge_list(g)))) == g


def test_edge_list_accepts_comments_and_blanks():
    g = parse_edge_list("# header\n\n2 1\n# edge below\n0\t1\t-1\n\n")
    assert g.edges == ((0, 1, -1),)
    assert parse_edge_list("+2 1\n0 +1 -1\n").edges == ((0, 1, -1),)  # signs are decimal


def test_edge_list_parse_errors():
    with pytest.raises(ParseError):
        parse_edge_list("")
    with pytest.raises(ParseError):
        parse_edge_list("2\n")
    with pytest.raises(ParseError):
        parse_edge_list("2 1\n0 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("2 2\n0 1 1\n")  # too few edges
    with pytest.raises(ParseError):
        parse_edge_list("2 1\n0 1 1\n1 0 1\n")  # too many


def test_edge_list_invalid_input_names_line():
    with pytest.raises(InvalidInputError, match="line 3"):
        parse_edge_list("2 2\n0 1 1\n1 0 2\n")
    with pytest.raises(InvalidInputError, match="line 2"):
        parse_edge_list("2 1\n0 5 1\n")


def test_matrix_round_trip_with_infinities():
    m = np.array([[0, 5, INF], [NEG_INF, -3, 1]], dtype=float)
    assert np.array_equal(parse_matrix(format_matrix(m)), m)


def test_matrix_parse_accepts_bare_inf():
    m = parse_matrix("1 2\ninf -inf\n")
    assert m.tolist() == [[INF, NEG_INF]]


def test_matrix_parse_errors():
    with pytest.raises(ParseError):
        parse_matrix("1 2\n3\n")
    with pytest.raises(ParseError):
        parse_matrix("1 1\nx\n")
    with pytest.raises(ParseError):
        parse_matrix("2 1\n3\n")
    with pytest.raises(ParseError):
        parse_matrix("2 0\n3\n")


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        float,
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        elements=st.sampled_from([0.0, -0.0, 1.0, -3.0, INF, NEG_INF, 2.0**53, -(2.0**53)]),
    )
)
def test_format_matrix_matches_per_entry_formatting(m):
    rows = [" ".join(_format_entry(v) for v in row) for row in m]
    assert format_matrix(m) == "\n".join(["{} {}".format(*m.shape)] + rows) + "\n"


def test_parse_matrix_holds_float64_rows():
    # nested lists of Python floats peaked at 35 bytes per entry here;
    # float64 rows and their one stacked copy peak at 16
    n = 512
    rng = np.random.default_rng(5)
    m = rng.integers(-999, 1000, size=(n, n)).astype(float)
    m[rng.random((n, n)) < 0.2] = INF
    m[rng.random((n, n)) < 0.05] = NEG_INF
    text = format_matrix(m)
    tracemalloc.start()
    try:
        parsed = parse_matrix(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(parsed, m)
    assert peak < 20 * n * n


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (2, 0), (3, 3)])
def test_matrix_round_trip_shapes(shape):
    m = np.arange(math.prod(shape), dtype=float).reshape(shape) - 4
    m[m == 0] = INF
    m[m == 1] = NEG_INF
    out = parse_matrix(format_matrix(m))
    assert out.shape == shape
    assert np.array_equal(out, m)


@pytest.mark.parametrize(
    "text", ["1 2\n1_0 3\n", "1 2\n10 \u0663\n", "\uff12 1\n5\n5\n", "1 1_0\n" + " 0" * 10 + "\n"]
)
def test_matrix_integers_are_ascii_decimal(text):
    with pytest.raises(ParseError, match="non-integer"):
        parse_matrix(text)


@pytest.mark.parametrize(
    "text", ["2 1\n0 \u0661 1\n", "\uff12 1\n0 1 1\n", "2 1\n0 1 0_1\n", "1_1 1\n0 1 1\n"]
)
def test_edge_list_integers_are_ascii_decimal(text):
    with pytest.raises(ParseError, match="non-integer"):
        parse_edge_list(text)


_MATRIX_TOKENS = st.sampled_from(
    ["0", "1", "2", "-3", "inf", "+inf", "-inf", "x", str(2**53), str(2**53 + 1), "99999999999999999999"]
)


@st.composite
def _matrix_texts(draw):
    """Near-valid matrix files: a header, then rows of tokens with skewed counts."""
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    header = draw(st.sampled_from([f"{rows} {cols}", f"{rows}", f"{rows} {cols} 1", "0 99999999999999999999"]))
    lines = [header]
    for _ in range(draw(st.integers(0, 5))):
        width = draw(st.sampled_from([cols, cols, cols + 1, max(cols - 1, 0)]))
        lines.append(" ".join(draw(st.lists(_MATRIX_TOKENS, min_size=width, max_size=width))))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="0129 \n\t-+#inf"), _matrix_texts()))
def test_parse_matrix_fuzz(text):
    try:
        out = parse_matrix(text)
    except (ParseError, InvalidInputError):
        return
    data = (line.strip() for line in text.splitlines())
    header = next(line for line in data if line and not line.startswith("#"))
    assert out.dtype == np.float64
    assert out.shape == tuple(int(f) for f in header.split())


_EDGE_TOKENS = st.one_of(
    st.integers(-1, 8).map(str),
    st.sampled_from(["+1", "2", "x", "1_0", "\u0661", "\uff12", "99999999999999999999"]),
)


@st.composite
def _edge_list_texts(draw):
    """Near-valid edge lists with n <= 8: a header, then lines of skewed width."""
    n = draw(st.integers(0, 8))
    m = draw(st.integers(0, 4))
    header = draw(st.sampled_from([f"{n} {m}", f"{n} {m}", f"{n}", f"{n} {m} 1", f"-{n} {m}", f"{n} 1_0"]))
    lines = [header]
    for _ in range(draw(st.integers(0, 5))):
        width = draw(st.sampled_from([3, 3, 3, 2, 4]))
        lines.append("\t".join(draw(st.lists(_EDGE_TOKENS, min_size=width, max_size=width))))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(),
        st.text(alphabet="0129 \n\t-+#_\u0661\uff12"),
        st.sampled_from(["200000 0\n", "99999999999999999999 1\n0 1 1\n"]),
        _edge_list_texts(),
    )
)
def test_parse_edge_list_fuzz(text):
    try:
        graph = parse_edge_list(text)
    except (ParseError, InvalidInputError):
        return
    data = (line.strip() for line in text.splitlines())
    header = next(line for line in data if line and not line.startswith("#"))
    assert (graph.n, len(graph.edges)) == tuple(int(f) for f in header.split())


# ---------------------------------------------------------------------------
# commands through main()


def write_chain(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text(CHAIN_TEXT, encoding="utf-8")
    return path


def test_solve_writes_distances(tmp_path):
    inp = write_chain(tmp_path)
    out = tmp_path / "star.txt"
    assert main(["solve", str(inp), "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.splitlines()[1] == "0 1 2"
    assert np.array_equal(
        parse_matrix(text), [[0, 1, 2], [INF, 0, 1], [INF, INF, 0]]
    )


def test_solve_algorithms_agree_byte_for_byte(tmp_path):
    gen = tmp_path / "g.txt"
    assert main(["gen", "-n", "24", "--density", "0.4", "--seed", "5", "-o", str(gen)]) == 0
    out_red = tmp_path / "red.txt"
    out_ora = tmp_path / "ora.txt"
    assert main(["solve", str(gen), "-o", str(out_red)]) == 0
    assert main(["solve", str(gen), "--algorithm", "oracle", "-o", str(out_ora)]) == 0
    assert out_red.read_bytes() == out_ora.read_bytes()


def test_solve_with_verification_mode(tmp_path):
    gen = tmp_path / "g.txt"
    main(["gen", "-n", "10", "--density", "0.4", "--seed", "3", "-o", str(gen)])
    out = tmp_path / "star.txt"
    assert main(["solve", str(gen), "-o", str(out), "--verify"]) == 0
    a_star = parse_matrix(out.read_text(encoding="utf-8"))
    from minmax_apsp import adjacency_from_graph

    assert np.array_equal(a_star, oracle_apsp(adjacency_from_graph(parse_edge_list(gen.read_text(encoding="utf-8")))))


def test_solve_is_deterministic_across_runs(tmp_path):
    gen = tmp_path / "g.txt"
    main(["gen", "-n", "16", "--density", "0.5", "--seed", "9", "-o", str(gen)])
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(["solve", str(gen), "-o", str(out1)]) == 0
    assert main(["solve", str(gen), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_output_is_byte_identical(tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    args = ["gen", "-n", "12", "--density", "0.3", "--seed", "77"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_ok_on_seeded_graphs(tmp_path, capsys):
    for seed in range(6):
        gen = tmp_path / f"g{seed}.txt"
        assert main(["gen", "-n", "32", "--density", "0.35", "--seed", str(seed), "-o", str(gen)]) == 0
        assert main(["verify", str(gen)]) == 0
    assert "engine matches oracle" in capsys.readouterr().out


def test_solve_invalid_weight_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 1 2\n", encoding="utf-8")
    assert main(["solve", str(bad), "-o", str(tmp_path / "x.txt")]) == 3
    assert "line 2" in capsys.readouterr().err


def test_solve_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 1\n", encoding="utf-8")
    assert main(["solve", str(bad), "-o", str(tmp_path / "x.txt")]) == 2
    assert "error" in capsys.readouterr().err
    bad.write_text("2 1\n0 \u0661 1\n", encoding="utf-8")  # ARABIC-INDIC DIGIT ONE
    assert main(["solve", str(bad), "-o", str(tmp_path / "x.txt")]) == 2
    assert "line 2: non-integer edge field" in capsys.readouterr().err


def test_missing_input_file_exits_2(tmp_path):
    assert main(["solve", str(tmp_path / "nope.txt"), "-o", str(tmp_path / "x.txt")]) == 2


def run_cli(argv, **env):
    """``python -m minmax_apsp ARGV`` in a fresh interpreter."""
    src = Path(minmax_apsp.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "minmax_apsp", *argv],
        env=dict(os.environ, PYTHONPATH=str(src), **env),
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["solve", "gen", "product", "bench"])
def test_unwritable_output_exits_2(tmp_path, command, where):
    matrix = tmp_path / "m.txt"
    matrix.write_text(format_matrix(np.zeros((2, 2))), encoding="utf-8")
    argv = {
        "solve": ["solve", str(write_chain(tmp_path))],
        "gen": ["gen", "-n", "4"],
        "product": ["product", "--kernel", "minmax", str(matrix), str(matrix)],
        "bench": ["bench", "--sizes", "4", "--repeats", "1"],
    }[command]
    out = tmp_path / "missing" / "x.txt" if where == "missing-directory" else tmp_path
    done = run_cli(argv + ["-o", str(out)])
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert f"error: cannot write {out}: " in done.stderr


def test_solve_is_identical_across_blas_thread_counts(tmp_path):
    gen = tmp_path / "g.txt"
    assert main(["gen", "-n", "200", "--density", "0.02", "--seed", "11", "-o", str(gen)]) == 0
    outputs = []
    for threads, algorithm in (("1", "reduction"), ("2", "reduction"), ("1", "oracle")):
        out = tmp_path / f"{algorithm}-{threads}.txt"
        argv = ["solve", str(gen), "--algorithm", algorithm, "-o", str(out)]
        done = run_cli(argv, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_unknown_flags_exit_2(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--nonsense"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["gen", "-n", "4", "--threshold", "0.3"],
        ["gen", "-n", "4", "--verify"],
        ["bench", "--verify"],
        ["solve", "g.txt", "-t", "0.3"],
        ["verify", "g.txt", "--threshold", "0"],
        ["product", "--kernel", "minmax", "a", "b", "-t", "0.5"],
        ["bench", "--threshold", "0.5"],
    ],
)
def test_flags_a_command_ignores_are_unknown(tmp_path, flags):
    with pytest.raises(SystemExit) as info:
        main(flags + ["-o", str(tmp_path / "x.txt")])
    assert info.value.code == 2


@settings(max_examples=150, deadline=None)
@given(_edge_list_texts())
def test_solve_fuzz_exits_cleanly(tmp_path_factory, text):
    # headers stay at n <= 8: a valid large header would allocate n**2 and solve
    inp = tmp_path_factory.getbasetemp() / "fuzz-edges.txt"
    inp.write_text(text, encoding="utf-8")
    assert main(["solve", str(inp), "-o", str(inp.with_suffix(".out"))]) in (0, 2, 3)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "-n", "\u0661_\u0660"],
        ["bench", "--sizes", "1_6"],
        ["bench", "--sizes", "16", "--seed", "\u0663"],
        ["bench", "--sizes", "16", "--repeats", "\uff12"],
    ],
)
def test_integer_arguments_are_ascii_decimal(tmp_path, argv):
    with pytest.raises(SystemExit) as info:
        main(argv + ["-o", str(tmp_path / "x.txt")])
    assert info.value.code == 2


@pytest.mark.parametrize("command", ["solve", "verify", "gen", "bench"])
def test_n_beyond_physical_memory_exits_3_before_allocating(tmp_path, capsys, command):
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    n = 4 * math.isqrt(memory // 8)  # an n x n float64 matrix is 16x physical memory
    graph, out = tmp_path / "huge.txt", str(tmp_path / "out.txt")
    graph.write_text(f"{n} 0\n", encoding="utf-8")
    argv = {
        "solve": ["solve", str(graph), "-o", out],
        "verify": ["verify", str(graph)],
        "gen": ["gen", "-n", str(n), "-o", out],
        "bench": ["bench", "--sizes", str(n), "-o", out],
    }[command]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 64 * 2**20
    assert "physical memory" in capsys.readouterr().err


def cli_with_memory(monkeypatch, mib):
    """The current CLI module, reporting ``mib`` MiB of physical memory; the
    package may have been imported afresh since this file's imports."""
    import minmax_apsp.cli as cli

    pages = {"SC_PHYS_PAGES": mib * 256, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    return cli


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_engine_refuses_beyond_its_measured_peak(tmp_path, capsys, monkeypatch, command):
    # 64 MiB holds the 8 MiB adjacency of n = 1024, but not a solve of it
    cli = cli_with_memory(monkeypatch, 64)

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_apsp was called")

    monkeypatch.setattr(cli, "solve_apsp", no_solve)
    graph = tmp_path / "edgeless.txt"
    graph.write_text("1024 0\n", encoding="utf-8")
    argv = {
        "solve": ["solve", str(graph), "-o", str(tmp_path / "out.txt")],
        "verify": ["verify", str(graph)],
    }[command]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "physical memory" in err and "Traceback" not in err


def test_oracle_solve_is_bounded_by_its_adjacency(tmp_path, monkeypatch):
    # 4 MiB holds the 0.5 MiB adjacency of n = 256, but not an engine solve
    cli = cli_with_memory(monkeypatch, 4)
    graph, out = tmp_path / "edgeless.txt", str(tmp_path / "out.txt")
    graph.write_text("256 0\n", encoding="utf-8")
    assert cli.main(["solve", str(graph), "-o", out]) == 3
    assert cli.main(["solve", str(graph), "-o", out, "--algorithm", "oracle"]) == 0


def test_verify_flag_counts_every_levels_oracle_distances(tmp_path, monkeypatch):
    # n = 256 recurses 17 levels deep: 192 bytes per entry (12 MiB) without
    # --verify, 192 + 8 * 17 (20.5 MiB) with it
    cli = cli_with_memory(monkeypatch, 16)
    graph = tmp_path / "edgeless.txt"
    graph.write_text("256 0\n", encoding="utf-8")
    assert cli.main(["verify", str(graph)]) == 0
    assert cli.main(["verify", str(graph), "--verify"]) == 3


@pytest.mark.parametrize("density, code", [("0", 0), ("1", 3)])
def test_gen_refusal_counts_the_edges_it_builds(tmp_path, monkeypatch, density, code):
    # n = 600 at density 1 peaks near 190 bytes per ordered pair, 65 MiB
    cli = cli_with_memory(monkeypatch, 48)
    argv = ["gen", "-n", "600", "--density", density, "-o", str(tmp_path / "g.txt")]
    assert cli.main(argv) == code


def test_bench_refuses_beyond_its_measured_peak(tmp_path, monkeypatch):
    # 16 MiB holds the 8 MiB of random draws of n = 512, but not a bench of it
    cli = cli_with_memory(monkeypatch, 16)

    def no_instance(*args, **kwargs):
        raise AssertionError("a bench instance was built")

    monkeypatch.setattr(cli, "_bench_instance", no_instance)
    assert cli.main(["bench", "--sizes", "64,512", "-o", str(tmp_path / "b.csv")]) == 3


@pytest.mark.parametrize("n, code", [(32, 0), (128, 3)])
def test_product_refuses_beyond_its_measured_peak(tmp_path, monkeypatch, n, code):
    # the bound counts the heavy rows: (128 + 4 * isqrt(n)) bytes per entry,
    # 148 KiB at n = 32 and 2.7 MiB at n = 128
    cli = cli_with_memory(monkeypatch, 1)
    zeros = format_matrix(np.zeros((n, n)))
    paths = [tmp_path / f"{name}.txt" for name in "abt"]
    paths[0].write_text(zeros, encoding="utf-8")
    paths[1].write_text(format_matrix(np.full((n, n), NEG_INF)), encoding="utf-8")
    paths[2].write_text(zeros, encoding="utf-8")
    argv = ["product", "--kernel", "tminmax-restricted", *map(str, paths)]
    assert cli.main([*argv, "-o", str(tmp_path / "c.txt")]) == code


def test_product_minmax(tmp_path):
    a = np.array([[1, 3], [2, 0]], dtype=float)
    b = np.array([[2, NEG_INF], [INF, 1]], dtype=float)
    pa, pb, out = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
    pa.write_text(format_matrix(a), encoding="utf-8")
    pb.write_text(format_matrix(b), encoding="utf-8")
    assert main(["product", "--kernel", "minmax", str(pa), str(pb), "-o", str(out)]) == 0
    assert np.array_equal(parse_matrix(out.read_text(encoding="utf-8")), minmax_product(a, b))


def test_product_target_kernels_agree(tmp_path):
    rng = np.random.default_rng(3)
    n = 12
    a = rng.integers(-6, 7, size=(n, n)).astype(float)
    b = np.where(rng.random((n, n)) < 0.5, NEG_INF, INF)
    target = np.where(
        np.isfinite(minmax_product(a, b)),
        minmax_product(a, b) - rng.integers(0, 2, size=(n, n)),
        minmax_product(a, b),
    )
    paths = {}
    for name, m in (("a", a), ("b", b), ("t", target)):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(format_matrix(m), encoding="utf-8")
    out_naive = tmp_path / "naive.txt"
    out_rest = tmp_path / "rest.txt"
    base = ["product", str(paths["a"]), str(paths["b"]), str(paths["t"])]
    assert main(base + ["--kernel", "tminmax-naive", "-o", str(out_naive)]) == 0
    assert main(base + ["--kernel", "tminmax-restricted", "-o", str(out_rest), "--verify"]) == 0
    assert out_naive.read_bytes() == out_rest.read_bytes()
    want = target_minmax_naive(a, b, target).astype(float)
    assert np.array_equal(parse_matrix(out_naive.read_text(encoding="utf-8")), want)


def test_product_missing_target_exits_2(tmp_path, capsys):
    pa = tmp_path / "a.txt"
    pa.write_text(format_matrix(np.zeros((2, 2))), encoding="utf-8")
    code = main(["product", "--kernel", "tminmax-naive", str(pa), str(pa), "-o", str(tmp_path / "o.txt")])
    assert code == 2


def _product_minmax_exit(tmp_path, text):
    pa = tmp_path / "a.txt"
    pa.write_text(text, encoding="utf-8")
    return main(["product", "--kernel", "minmax", str(pa), str(pa), "-o", str(tmp_path / "o.txt")])


def test_product_non_decimal_entry_exits_2(tmp_path, capsys):
    assert _product_minmax_exit(tmp_path, "1 1\n1_0\n") == 2
    assert "line 2: non-integer matrix entry" in capsys.readouterr().err


def test_product_one_field_header_exits_2(tmp_path, capsys):
    assert _product_minmax_exit(tmp_path, "3\n") == 2
    assert "expected header" in capsys.readouterr().err


def test_product_huge_header_exits_2_without_allocating(tmp_path, capsys):
    assert _product_minmax_exit(tmp_path, "1000000000 1000000000\n0\n") == 2
    assert "expected 1000000000 entries" in capsys.readouterr().err
    assert _product_minmax_exit(tmp_path, "1000000000 1000000000\n") == 2


def test_product_entries_beyond_2_53_exit_3(tmp_path, capsys):
    out = tmp_path / "o.txt"
    for limit in (2**53, -(2**53)):  # min-max of a 1x1 matrix with itself is its entry
        assert _product_minmax_exit(tmp_path, f"1 1\n{limit}\n") == 0
        assert out.read_text(encoding="utf-8") == f"1 1\n{limit}\n"
    for beyond in (2**53 + 1, -(2**53) - 1, 100000000000000000001):
        assert _product_minmax_exit(tmp_path, f"1 1\n{beyond}\n") == 3
        assert "line 2" in capsys.readouterr().err


def test_product_restricted_rejects_finite_b(tmp_path):
    pa = tmp_path / "a.txt"
    pa.write_text(format_matrix(np.zeros((2, 2))), encoding="utf-8")
    code = main(
        ["product", "--kernel", "tminmax-restricted", str(pa), str(pa), str(pa), "-o", str(tmp_path / "o.txt")]
    )
    assert code == 3


def test_product_restricted_names_the_first_b_entry_not_inf(tmp_path, capsys):
    # B' is read as floats and checked before its -inf mask is taken: a mask
    # alone would read 5 as +inf
    paths = [tmp_path / f"{name}.txt" for name in "abt"]
    b = np.array([[NEG_INF, INF], [5.0, NEG_INF]])
    for path, m in zip(paths, (np.zeros((2, 2)), b, np.zeros((2, 2)))):
        path.write_text(format_matrix(m), encoding="utf-8")
    argv = ["product", "--kernel", "tminmax-restricted", *map(str, paths)]
    assert main([*argv, "-o", str(tmp_path / "o.txt")]) == 3
    assert "b[1, 0] = 5.0: every entry of b must be -inf or +inf" in capsys.readouterr().err


def test_product_restricted_verify_rejects_bad_target(tmp_path):
    a = np.array([[1.0]])
    b = np.array([[NEG_INF]])
    target = np.array([[7.0]])  # exceeds the min-max product
    pa, pb, pt = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "t.txt"
    pa.write_text(format_matrix(a), encoding="utf-8")
    pb.write_text(format_matrix(b), encoding="utf-8")
    pt.write_text(format_matrix(target), encoding="utf-8")
    base = ["product", "--kernel", "tminmax-restricted", str(pa), str(pb), str(pt)]
    assert main(base + ["-o", str(tmp_path / "o1.txt")]) == 0  # unchecked without --verify
    assert main(base + ["-o", str(tmp_path / "o2.txt"), "--verify"]) == 3


def test_bench_writes_consistent_checksums(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "24,40", "--repeats", "1", "-o", str(out)]) == 0
    with open(out, encoding="utf-8") as handle:
        assert handle.readline() == "kernel,n,wall_ns,checksum\n"
        handle.seek(0)
        rows = list(csv.DictReader(handle))
    assert {r["kernel"] for r in rows} == {"minmax", "tminmax-naive", "tminmax-restricted"}
    for n in ("24", "40"):
        sums = {r["kernel"]: r["checksum"] for r in rows if r["n"] == n}
        assert sums["tminmax-naive"] == sums["tminmax-restricted"]
        assert all(int(r["wall_ns"]) > 0 for r in rows)


def test_verify_mismatch_report(tmp_path, capsys, monkeypatch):
    # the engine never actually disagrees with the oracle, so corrupt it to
    # exercise the exit-1 report contract; the package may have been imported
    # afresh since this file's imports, so patch and call the current module
    import minmax_apsp.cli as cli_mod

    def corrupted(a, **kwargs):
        out = oracle_apsp(a)
        out[0, 1] = 12345.0  # no 8-vertex distance can be this
        return out

    monkeypatch.setattr(cli_mod, "solve_apsp", corrupted)
    gen = tmp_path / "g.txt"
    cli_mod.main(["gen", "-n", "8", "--density", "0.9", "--seed", "4", "-o", str(gen)])
    assert cli_mod.main(["verify", str(gen)]) == 1
    report = capsys.readouterr().out
    assert "MISMATCH" in report
    assert "(0, 1)" in report and "got" in report and "want" in report
