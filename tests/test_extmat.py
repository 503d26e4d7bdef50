import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minmax_apsp import (
    NEG_INF,
    POS_INF,
    BitMatrix,
    bool_closure,
    bool_product,
    bounded_hop_closure,
    count_product,
    ext_add,
    ext_ceil_half,
    minplus_product,
)
from oracles import naive_bool_product, naive_minplus, walk_dp, warshall_closure

INF = POS_INF

CHAIN = np.array([[0, 1, INF], [INF, 0, 1], [INF, INF, 0]], dtype=float)


def test_ext_add_finite():
    assert ext_add(3, -1) == 2


def test_ext_add_no_edge_absorbs():
    assert ext_add(POS_INF, NEG_INF) == POS_INF
    assert ext_add(NEG_INF, POS_INF) == POS_INF


def test_ext_add_neg_inf():
    assert ext_add(NEG_INF, 5) == NEG_INF


def test_ext_ceil_half_examples():
    assert ext_ceil_half(3) == 2
    assert ext_ceil_half(-1) == 0
    assert ext_ceil_half(NEG_INF) == NEG_INF
    assert ext_ceil_half(POS_INF) == POS_INF


@given(st.integers(min_value=-200, max_value=200))
def test_ext_ceil_half_matches_integer_formula(x):
    assert ext_ceil_half(x) == -((-x) // 2)


def test_minplus_path_graph_idempotent():
    a = np.array([[0, 1], [INF, 0]], dtype=float)
    assert np.array_equal(minplus_product(a, a), a)


def test_minplus_chain_two_hops():
    assert minplus_product(CHAIN, CHAIN)[0, 2] == 2


def test_minplus_all_inf_absorbs():
    a = np.full((3, 3), INF)
    b = np.array([[0, -1, 1]] * 3, dtype=float)
    assert (minplus_product(a, b) == INF).all()


def test_minplus_dimension_mismatch():
    with pytest.raises(ValueError):
        minplus_product(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        minplus_product(np.zeros((2, 3)), np.zeros((2, 3)))


def test_minplus_matches_naive_oracle():
    rng = np.random.default_rng(11)
    choices = np.array([-1.0, 0.0, 1.0, INF])
    for _ in range(40):
        n = int(rng.integers(1, 13))
        a = choices[rng.integers(0, 4, size=(n, n))]
        b = choices[rng.integers(0, 4, size=(n, n))]
        np.fill_diagonal(a, 0.0)
        assert np.array_equal(minplus_product(a, b), naive_minplus(a, b))


def test_minplus_mixed_infinities_match_scalar_rule():
    # the vectorized kernel must apply ext_add's absorption, not IEEE's nan
    a = np.array([[POS_INF, NEG_INF], [2.0, POS_INF]])
    b = np.array([[NEG_INF, POS_INF], [POS_INF, NEG_INF]])
    assert np.array_equal(minplus_product(a, b), naive_minplus(a, b))


def test_minplus_associative_on_semiring_samples():
    rng = np.random.default_rng(5)
    choices = np.array([-1.0, 0.0, 1.0, INF])
    for _ in range(25):
        n = int(rng.integers(2, 13))
        mats = []
        for _ in range(3):
            m = choices[rng.integers(0, 4, size=(n, n))]
            np.fill_diagonal(m, 0.0)
            mats.append(m)
        a, b, c = mats
        left = minplus_product(minplus_product(a, b), c)
        right = minplus_product(a, minplus_product(b, c))
        assert np.array_equal(left, right)


def test_bounded_hop_chain():
    assert bounded_hop_closure(CHAIN, 1)[0, 2] == INF
    assert bounded_hop_closure(CHAIN, 2)[0, 2] == 2


def test_bounded_hop_exponent_one_is_identity():
    out = bounded_hop_closure(CHAIN, 1)
    assert np.array_equal(out, CHAIN)
    assert out is not CHAIN


def test_bounded_hop_rejects_bad_exponent():
    with pytest.raises(ValueError):
        bounded_hop_closure(CHAIN, 0)
    with pytest.raises(ValueError):
        bounded_hop_closure(np.zeros((2, 3)), 1)


def test_bounded_hop_matches_walk_enumeration():
    rng = np.random.default_rng(23)
    choices = np.array([-1.0, 0.0, 1.0, INF, INF])
    for _ in range(20):
        n = int(rng.integers(1, 7))
        a = choices[rng.integers(0, 5, size=(n, n))]
        np.fill_diagonal(a, np.where(rng.random(n) < 0.2, -1.0, 0.0))
        for hops in (1, 2, 3, 7):
            assert np.array_equal(
                bounded_hop_closure(a, hops), walk_dp(a.tolist(), hops)
            ), (a, hops)


def test_bounded_hop_composes_additively():
    rng = np.random.default_rng(31)
    choices = np.array([-1.0, 0.0, 1.0, INF])
    for _ in range(15):
        n = int(rng.integers(2, 11))
        a = choices[rng.integers(0, 4, size=(n, n))]
        np.fill_diagonal(a, 0.0)
        for lo, hi in ((1, 1), (1, 2), (2, 3), (3, 4)):
            composed = minplus_product(
                bounded_hop_closure(a, lo), bounded_hop_closure(a, hi)
            )
            assert np.array_equal(composed, bounded_hop_closure(a, lo + hi))


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=130),
    st.randoms(use_true_random=False),
)
def test_bitmatrix_roundtrip(rows, cols, rnd):
    dense = np.array(
        [[rnd.random() < 0.4 for _ in range(cols)] for _ in range(rows)], dtype=bool
    )
    operand = BitMatrix(dense)
    assert operand.bits is dense  # a bool input is held, not copied
    assert np.array_equal(BitMatrix(dense.astype(np.float64)).bits, dense)
    words = operand.words
    assert words.dtype == np.uint8 and words.shape == (rows, (cols + 7) // 8)
    unpacked = np.unpackbits(words, axis=1, count=cols, bitorder="little")
    assert np.array_equal(unpacked.view(bool), dense)
    # padding bits past cols stay zero
    if cols % 8:
        tail = words[:, -1] >> np.uint8(cols % 8)
        assert (tail == 0).all()


def test_bitmatrix_rejects_what_is_not_2d():
    for array in (np.zeros(3, dtype=bool), np.zeros((2, 2, 2), dtype=bool)):
        with pytest.raises(ValueError):
            BitMatrix(array)


def test_bool_product_identity():
    rng = np.random.default_rng(3)
    q = rng.random((3, 5)) < 0.5
    out = bool_product(BitMatrix(np.eye(3, dtype=bool)), BitMatrix(q))
    assert np.array_equal(out, q)


def test_bool_product_ors_rows():
    p = BitMatrix(np.array([[1, 1]], dtype=bool))
    q = BitMatrix(np.array([[0, 1], [1, 0]], dtype=bool))
    assert np.array_equal(bool_product(p, q), [[True, True]])


def test_bool_product_matches_naive():
    rng = np.random.default_rng(17)
    p = rng.random((20, 30)) < 0.2
    q = rng.random((30, 10)) < 0.2
    got = bool_product(BitMatrix(p), BitMatrix(q))
    assert np.array_equal(got, naive_bool_product(p, q))


def integer_bool_product(p, q):
    """Reference Boolean product through numpy's integer matmul, which does
    not use BLAS."""
    return (p.astype(np.int64) @ q.astype(np.int64)) > 0


# zero sizes and the byte and 64-bit edges, plus anything in between
SIZES = st.one_of(
    st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129]), st.integers(0, 130)
)
DENSITIES = st.sampled_from([0.0, 0.03, 0.5, 1.0])


@settings(max_examples=150, deadline=None)
@given(SIZES, SIZES, SIZES, DENSITIES, DENSITIES, st.integers(0, 2**32 - 1))
@example(0, 3, 5, 1.0, 1.0, 0)
@example(4, 3, 0, 1.0, 1.0, 0)
@example(0, 0, 0, 1.0, 1.0, 0)
def test_bool_product_matches_integer_matmul(rows, inner, cols, dp, dq, seed):
    rng = np.random.default_rng(seed)
    p = rng.random((rows, inner)) < dp
    q = rng.random((inner, cols)) < dq
    got = bool_product(BitMatrix(p), BitMatrix(q))
    assert got.dtype == bool and got.shape == (rows, cols)
    assert got.flags.c_contiguous
    assert np.array_equal(got, integer_bool_product(p, q))


def test_bool_product_matches_integer_matmul_at_2048_rows():
    rng = np.random.default_rng(61)
    p = rng.random((2048, 512)) < 0.1
    q = rng.random((512, 512)) < 0.01
    got = bool_product(BitMatrix(p), BitMatrix(q))
    assert np.array_equal(got, integer_bool_product(p, q))


def test_bool_product_memory_is_bounded_for_tall_operands():
    # 16.7M set bits: one 64-byte packed row of q gathered per set bit would
    # take 1 GiB, and one float32 copy of p alone takes 128 MiB; the bool
    # result itself is 32 MiB
    rng = np.random.default_rng(67)
    dense_p = rng.random((65536, 512)) < 0.5
    p = BitMatrix(dense_p)
    q = BitMatrix(rng.random((512, 512)) < 0.01)
    tracemalloc.start()
    try:
        got = bool_product(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
    # spot-check the first, last and block-straddling rows
    rows = np.r_[0:64, 8160:8224, 65472:65536]
    want = integer_bool_product(dense_p[rows], q.bits)
    assert np.array_equal(got[rows], want)


def structured(rng, rows, cols, structure, density):
    """A (rows, cols) bool pattern of one structure the box compaction meets:
    triangular (a DAG's matrices), block-diagonal, or with empty rows or
    columns, which shrink a block's inner or column range."""
    pattern = rng.random((rows, cols)) < density
    if structure == "upper":
        pattern &= np.triu(np.ones((rows, cols), dtype=bool))
    elif structure == "lower":
        pattern &= np.tril(np.ones((rows, cols), dtype=bool))
    elif structure == "block-diagonal":
        blocks = int(rng.integers(1, 5))
        pattern &= (np.arange(rows) * blocks // max(rows, 1))[:, None] == (
            np.arange(cols) * blocks // max(cols, 1)
        )
    elif structure == "empty-rows":
        pattern[rng.random(rows) < 0.5] = False
    elif structure == "empty-columns":
        pattern[:, rng.random(cols) < 0.5] = False
    return pattern


STRUCTURES = st.sampled_from(
    ["dense", "upper", "lower", "block-diagonal", "empty-rows", "empty-columns"]
)
# row counts below, at and past the product's row blocks
ROWS = st.one_of(st.sampled_from([0, 1, 255, 256, 257, 600]), st.integers(0, 130))


@settings(max_examples=150, deadline=None)
@given(ROWS, SIZES, SIZES, STRUCTURES, STRUCTURES, DENSITIES, st.integers(0, 2**32 - 1))
@example(600, 130, 130, "upper", "upper", 1.0, 0)
@example(0, 3, 5, "dense", "dense", 1.0, 0)
@example(4, 0, 5, "dense", "dense", 1.0, 0)
@example(4, 3, 0, "dense", "dense", 1.0, 0)
def test_count_product_matches_integer_matmul(rows, inner, cols, sp, sq, density, seed):
    # entries 0 or a power of two up to 2**8, as in the power-encoded stages:
    # every sum stays below 2**24, so float32 holds it exactly
    rng = np.random.default_rng(seed)
    p = structured(rng, rows, inner, sp, density)
    q = structured(rng, inner, cols, sq, density)
    p_int = p * 2 ** rng.integers(0, 9, size=p.shape)
    q_int = q * 2 ** rng.integers(0, 9, size=q.shape)
    want = p_int @ q_int
    got = count_product(p_int.astype(np.float32), q_int.astype(np.float32))
    assert got.dtype == np.float32 and got.shape == (rows, cols)
    assert np.array_equal(got, want)
    bits = bool_product(BitMatrix(p), BitMatrix(q))
    assert np.array_equal(bits, want > 0)


def test_count_product_dimension_mismatch():
    for p, q in ((np.zeros((2, 3)), np.zeros((4, 2))), (np.zeros(3), np.zeros((3, 1)))):
        with pytest.raises(ValueError):
            count_product(p, q)


def test_bool_product_dimension_mismatch():
    with pytest.raises(ValueError):
        bool_product(BitMatrix(np.zeros((2, 3))), BitMatrix(np.zeros((4, 2))))


def test_bool_closure_reflexive_only():
    out = bool_closure(np.zeros((3, 3), dtype=bool))
    assert out.dtype == bool
    assert np.array_equal(out, np.eye(3, dtype=bool))


def test_bool_closure_chain():
    chain = np.zeros((3, 3), dtype=bool)
    chain[0, 1] = chain[1, 2] = True
    out = bool_closure(chain)
    assert np.array_equal(out, np.triu(np.ones((3, 3), dtype=bool)))


def test_bool_closure_matches_warshall():
    rng = np.random.default_rng(29)
    for _ in range(10):
        rel = rng.random((15, 15)) < 0.12
        got = bool_closure(rel)
        assert np.array_equal(got, warshall_closure(rel))


def test_bool_closure_rejects_rectangular():
    with pytest.raises(ValueError):
        bool_closure(np.zeros((2, 3), dtype=bool))
