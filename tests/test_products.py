import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minmax_apsp
from minmax_apsp import cli
from minmax_apsp import (
    NEG_INF,
    POS_INF,
    ROUTE_ABSENT,
    ROUTE_HEAVY,
    ROUTE_LIGHT,
    ROUTE_TARGET_INF,
    RestrictedInstance,
    VerificationError,
    build_heavy_matrix,
    build_row_index,
    minmax_product,
    occurrence_cutoff,
    restricted_target_minmax,
    target_minmax_naive,
)
from oracles import naive_minmax, random_restricted_instance

INF = POS_INF

A22 = np.array([[1, 3], [2, 0]], dtype=float)
B22 = np.array([[2, NEG_INF], [INF, 1]], dtype=float)


def bits(m):
    return m.astype(int).tolist()


# ---------------------------------------------------------------------------
# minmax product and the naive target product


def test_minmax_all_neg_inf_right_takes_row_min():
    a = np.array([[3, 1, 2], [0, -1, 5], [7, 7, 7]], dtype=float)
    b = np.full((3, 3), NEG_INF)
    assert np.array_equal(minmax_product(a, b), np.tile(a.min(axis=1)[:, None], 3))


def test_minmax_all_pos_inf_right_saturates():
    a = np.array([[3, 1], [0, -1]], dtype=float)
    assert (minmax_product(a, np.full((2, 2), INF)) == INF).all()


def test_minmax_worked_example():
    assert minmax_product(A22, B22).tolist() == [[2, 1], [2, 1]]


def test_minmax_matches_naive():
    rng = np.random.default_rng(13)
    choices = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, NEG_INF, INF])
    for _ in range(30):
        n = int(rng.integers(1, 10))
        a = choices[rng.integers(0, 7, size=(n, n))]
        b = choices[rng.integers(0, 7, size=(n, n))]
        assert np.array_equal(minmax_product(a, b), naive_minmax(a, b))


def test_minmax_monotone():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = rng.integers(-5, 6, size=(n, n)).astype(float)
        b = rng.integers(-5, 6, size=(n, n)).astype(float)
        base = minmax_product(a, b)
        bumped = a.copy()
        i, j = rng.integers(0, n, size=2)
        bumped[i, j] += rng.integers(1, 4)
        assert (minmax_product(bumped, b) >= base).all()


def test_target_naive_all_ones_when_target_is_product():
    product = minmax_product(A22, B22)
    assert bits(target_minmax_naive(A22, B22, product)) == [[1, 1], [1, 1]]


def test_target_naive_all_zeros_when_decremented():
    product = minmax_product(A22, B22)  # finite everywhere
    assert bits(target_minmax_naive(A22, B22, product - 1)) == [[0, 0], [0, 0]]


def test_target_naive_worked_example():
    target = np.array([[2, 0], [2, 1]], dtype=float)
    assert bits(target_minmax_naive(A22, B22, target)) == [[1, 0], [1, 1]]


# ---------------------------------------------------------------------------
# occurrence cutoff and the row index


def test_cutoff_examples():
    assert occurrence_cutoff(4, 0.5) == 2
    assert occurrence_cutoff(10, 1.0) == 10
    assert occurrence_cutoff(10, 0.0) == 1
    assert occurrence_cutoff(1, 0.7) == 1


def test_cutoff_exact_at_power_boundaries():
    # float pow easily lands on the wrong side of these
    assert occurrence_cutoff(16, 0.25) == 2
    assert occurrence_cutoff(1 << 20, 0.5) == 1 << 10
    assert occurrence_cutoff(27, 1 / 3) == 3 or occurrence_cutoff(27, 1 / 3) == 3


def test_cutoff_irrational_denominator_path():
    # float 1/3 is slightly below a third, so 8**t is slightly below 2
    assert occurrence_cutoff(8, 1 / 3) == 2


def test_cutoff_needs_no_mpmath():
    # a None entry in sys.modules makes every import of mpmath fail
    script = (
        "import sys; sys.modules['mpmath'] = None\n"
        "from minmax_apsp import occurrence_cutoff\n"
        "assert occurrence_cutoff(8, 1 / 3) == 2\n"
    )
    src = Path(minmax_apsp.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def test_cutoff_rejects_bad_exponent():
    with pytest.raises(ValueError):
        occurrence_cutoff(4, -0.1)
    with pytest.raises(ValueError):
        occurrence_cutoff(4, 1.1)


def group(idx, i, value):
    """Group number of (row i, value) in the index, or -1."""
    return int(idx.group_of(np.array([i]), np.array([value], dtype=float))[0])


def heavy_row(idx, i, value):
    """Heavy id of (row i, value), or None when the value is light or absent."""
    g = group(idx, i, value)
    return None if g < 0 or idx.heavy_id[g] < 0 else int(idx.heavy_id[g])


def test_row_index_heavy_example():
    a = np.array([[4, 4, 4, 1], [1, 2, 3, 4], [5, 5, 6, 6], [0, 0, 0, 0]], dtype=float)
    idx = build_row_index(a, 0.5)  # cutoff 2
    assert idx.cutoff == 2
    assert idx.heavy_rows == 2
    assert heavy_row(idx, 0, 4) == 0
    assert heavy_row(idx, 0, 1) is None
    assert heavy_row(idx, 2, 5) is None  # two columns are not more than the cutoff
    assert heavy_row(idx, 3, 0) == 1
    assert group(idx, 1, 5) == -1  # 5 occurs in the matrix, but not in row 1


def test_row_index_t_one_never_heavy():
    a = np.arange(16, dtype=float).reshape(4, 4)
    idx = build_row_index(a, 1.0)
    assert idx.heavy_rows == 0


def test_row_index_t_zero_pairs_are_heavy():
    a = np.array([[7, 7, 1, 2]], dtype=float)
    idx = build_row_index(a, 0.0)
    assert idx.cutoff == 1
    assert idx.heavy_rows == 1
    assert heavy_row(idx, 0, 7) == 0
    assert heavy_row(idx, 0, 1) is None


def test_row_index_is_lexicographic():
    a = np.array([[2, 1, 2, NEG_INF, 1, INF]], dtype=float)
    idx = build_row_index(a, 0.5)
    assert idx.values.tolist() == [NEG_INF, 1, 2, INF]
    assert idx.keys.tolist() == [0, 1, 2, 3]
    assert idx.starts.tolist() == [0, 1, 3, 5, 6]
    # groups in ascending value order, each group's columns ascending
    assert idx.columns.tolist() == [3, 1, 4, 0, 2, 5]


def test_row_index_heavy_count_bound():
    rng = np.random.default_rng(37)
    for t in (0.0, 0.3, 0.5, 0.8, 1.0):
        for _ in range(10):
            n = int(rng.integers(1, 33))
            a = rng.integers(-3, 4, size=(n, n)).astype(float)
            idx = build_row_index(a, t)
            heavy_keys = idx.keys[idx.heavy_id >= 0]
            per_row = np.bincount(heavy_keys // idx.values.size, minlength=n)
            assert (per_row <= n / idx.cutoff).all()
            assert idx.heavy_rows <= n * occurrence_cutoff(n, 1 - t)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_row_index_groups_match_the_matrix(data):
    rows = data.draw(st.integers(min_value=0, max_value=6), label="rows")
    n = data.draw(st.integers(min_value=0, max_value=6), label="n")
    entries = st.sampled_from([NEG_INF, -2.0, -1.0, 0.0, 1.0, 2.0, INF])
    row = st.lists(entries, min_size=n, max_size=n)
    a = np.array(
        data.draw(st.lists(row, min_size=rows, max_size=rows)), dtype=float
    ).reshape(rows, n)
    t = data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]), label="t")
    idx = build_row_index(a, t)
    h = build_heavy_matrix(idx).to_bool()
    assert h.shape == (idx.heavy_rows, n)
    assert idx.heavy_rows <= rows * occurrence_cutoff(n, 1 - t)
    # keys ascend strictly, so groups run row-major in ascending value order,
    # and heavy ids count up in that order
    assert (np.diff(idx.keys) > 0).all()
    assert idx.heavy_id[idx.heavy_id >= 0].tolist() == list(range(idx.heavy_rows))
    groups = 0
    for i in range(rows):
        assert group(idx, i, 99.0) == -1
        for value in np.unique(a[i]):
            g = group(idx, i, value)
            columns = idx.columns[idx.starts[g] : idx.starts[g + 1]]
            assert columns.tolist() == np.flatnonzero(a[i] == value).tolist()
            assert (idx.heavy_id[g] >= 0) == (columns.size > idx.cutoff)
            if idx.heavy_id[g] >= 0:
                assert np.array_equal(h[idx.heavy_id[g]], a[i] == value)
            groups += 1
    assert idx.keys.size == groups


def test_heavy_matrix_empty_registry():
    a = np.arange(9, dtype=float).reshape(3, 3)
    idx = build_row_index(a, 1.0)
    assert build_heavy_matrix(idx).rows == 0


def test_heavy_matrix_occurrence_mask():
    a = np.array([[4, 4, 4, 1], [1, 1, 1, 1], [0, 1, 2, 3], [2, 2, 3, 3]], dtype=float)
    idx = build_row_index(a, 0.5)
    h = build_heavy_matrix(idx)
    assert np.array_equal(h.to_bool()[heavy_row(idx, 0, 4)], [1, 1, 1, 0])
    assert np.array_equal(h.to_bool()[heavy_row(idx, 1, 1)], [1, 1, 1, 1])


def test_heavy_matrix_rows_recount_multiplicities():
    rng = np.random.default_rng(41)
    a = rng.integers(0, 3, size=(8, 8)).astype(float)
    idx = build_row_index(a, 0.3)
    h = build_heavy_matrix(idx).to_bool()
    assert idx.heavy_rows > 0
    for g in np.flatnonzero(idx.heavy_id >= 0):
        i, rank = divmod(int(idx.keys[g]), idx.values.size)
        row = h[idx.heavy_id[g]]
        assert row.sum() == (a[i] == idx.values[rank]).sum()
        assert np.array_equal(row, a[i] == idx.values[rank])


# ---------------------------------------------------------------------------
# restricted target product


def test_restricted_instance_rejects_finite_b():
    with pytest.raises(ValueError):
        RestrictedInstance(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))


def test_restricted_instance_target_bound_check():
    a = np.array([[1.0]])
    b = np.array([[NEG_INF]])
    good = RestrictedInstance(a, b, np.array([[1.0]]))
    good.check_target_bound()
    bad = RestrictedInstance(a, b, np.array([[2.0]]))
    with pytest.raises(VerificationError):
        bad.check_target_bound()


def test_restricted_worked_example():
    a = np.array([[5, 3], [7, 7]], dtype=float)
    b = np.array([[NEG_INF, INF], [INF, NEG_INF]], dtype=float)
    target = np.array([[5, 3], [6, 7]], dtype=float)
    got = restricted_target_minmax(RestrictedInstance(a, b, target), verify=True)
    assert bits(got) == [[1, 1], [0, 1]]


def test_restricted_all_ones_when_target_is_product():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(1, 10))
        a = rng.integers(-4, 5, size=(n, n)).astype(float)
        a[rng.random((n, n)) < 0.1] = INF
        b = np.where(rng.random((n, n)) < 0.5, NEG_INF, INF)
        product = minmax_product(a, b)
        inst = RestrictedInstance(a, b, product)
        assert restricted_target_minmax(inst).all()


def test_restricted_plus_inf_target_with_all_plus_inf_column():
    # every b in this column is +inf, so the product is +inf with no
    # (value, -inf) witness anywhere; the bound still forces output 1
    a = np.array([[5.0]])
    b = np.array([[INF]])
    target = np.array([[INF]])
    inst = RestrictedInstance(a, b, target)
    assert bits(restricted_target_minmax(inst, verify=True)) == [[1]]
    assert bits(target_minmax_naive(a, b, target)) == [[1]]


def test_restricted_matches_naive_across_thresholds():
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = int(rng.integers(1, 33))
        inst = random_restricted_instance(rng, n)
        want = target_minmax_naive(inst.a, inst.b, inst.target)
        outputs = [
            restricted_target_minmax(inst, t) for t in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        for got in outputs:
            assert np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_restricted_matches_naive_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=6), label="n")
    ints = st.integers(min_value=-4, max_value=4)
    a = np.array(
        data.draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n)),
        dtype=float,
    )
    signs = data.draw(
        st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    b = np.where(np.array(signs), NEG_INF, INF)
    slack = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=float,
    )
    product = minmax_product(a, b)
    target = np.where(np.isfinite(product), product - slack, product)
    inst = RestrictedInstance(a, b, target)
    t = data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="t")
    assert np.array_equal(
        restricted_target_minmax(inst, t), target_minmax_naive(a, b, target)
    )


def test_restricted_routes_partition_entries():
    rng = np.random.default_rng(53)
    for _ in range(15):
        n = int(rng.integers(2, 25))
        inst = random_restricted_instance(rng, n)
        for t in (0.0, 0.5, 1.0):
            result, routes = restricted_target_minmax(inst, t, return_routes=True)
            cutoff = build_row_index(inst.a, t).cutoff
            for i in range(n):
                row = inst.a[i]
                for j in range(n):
                    value = inst.target[i, j]
                    count = int((row == value).sum())
                    if value == INF:
                        expected = ROUTE_TARGET_INF
                    elif count == 0:
                        expected = ROUTE_ABSENT
                    elif count > cutoff:
                        expected = ROUTE_HEAVY
                    else:
                        expected = ROUTE_LIGHT
                    assert routes[i, j] == expected
                    if expected == ROUTE_ABSENT:
                        assert not result[i, j]


def _check_restricted_at_bench_size(n):
    for seed in (0, 1):
        inst = cli._bench_instance(n, seed)
        want = target_minmax_naive(inst.a, inst.b, inst.target)
        for t in (0.0, 0.5, 1.0):
            got, routes = restricted_target_minmax(inst, t, return_routes=True)
            assert np.array_equal(got, want)
            assert t == 1.0 or (routes == ROUTE_HEAVY).any()
            assert t == 0.0 or (routes == ROUTE_LIGHT).any()


def test_restricted_matches_naive_at_bench_size():
    _check_restricted_at_bench_size(512)


@pytest.mark.parametrize("n", [128, 256])
def test_restricted_matches_naive_at_smaller_bench_sizes(n):
    _check_restricted_at_bench_size(n)


def test_restricted_memory_with_n_squared_distinct_values():
    # every entry of a is its own value, so the matrix has n**2 values; an
    # index with a row per (row, value) pair of the whole matrix would be n**3
    n = 512
    rng = np.random.default_rng(59)
    a = rng.permutation(n * n).reshape(n, n).astype(float)
    b = np.where(rng.random((n, n)) < 0.5, NEG_INF, INF)
    # a row's minimum never exceeds the product; one below it occurs nowhere
    row_min = np.broadcast_to(a.min(axis=1)[:, None], (n, n))
    target = row_min - (rng.random((n, n)) < 0.5)
    inst = RestrictedInstance(a, b, target)
    tracemalloc.start()
    try:
        got = restricted_target_minmax(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    # the only column holding the row minimum must meet a -inf in b
    want = (target == row_min) & (b[a.argmin(axis=1)] == NEG_INF)
    assert np.array_equal(got, want)
