import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    restricted_target_minmax,
    target_minmax_naive,
)
from oracles import inf_matrix, naive_minmax, random_restricted_instance

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
# the heavy/light cutoff and the row index


def test_cutoff_exact_at_power_boundaries():
    # the smallest m with m * m >= n, exact where float sqrt is not
    cases = {0: 1, 1: 1, 2: 2, 4: 2, 5: 3, 16: 4, 17: 5, 2**20: 2**10, 2**20 + 1: 2**10 + 1}
    for n, cutoff in cases.items():
        assert build_row_index(np.zeros((1, n))).cutoff == cutoff, n


def group(idx, i, value):
    """Group number of (row i, value) in the index, or -1."""
    return int(idx.group_of(np.array([i]), np.array([value], dtype=float))[0])


def heavy_row(idx, i, value):
    """Heavy id of (row i, value), or None when the value is light or absent."""
    g = group(idx, i, value)
    return None if g < 0 or idx.heavy_id[g] < 0 else int(idx.heavy_id[g])


def test_row_index_heavy_example():
    a = np.array([[4, 4, 4, 1], [1, 2, 3, 4], [5, 5, 6, 6], [0, 0, 0, 0]], dtype=float)
    idx = build_row_index(a)  # cutoff 2
    assert idx.cutoff == 2
    assert idx.heavy_rows == 2
    assert heavy_row(idx, 0, 4) == 0
    assert heavy_row(idx, 0, 1) is None
    assert heavy_row(idx, 2, 5) is None  # two columns are not more than the cutoff
    assert heavy_row(idx, 3, 0) == 1
    assert group(idx, 1, 5) == -1  # 5 occurs in the matrix, but not in row 1


def test_row_index_heavy_boundary():
    # n = 16, so the cutoff is 4: a group of 4 columns is light, one of 5 heavy
    n = 16
    a = np.arange(2 * n, dtype=float).reshape(2, n)
    a[0, :4] = a[1, :5] = -1.0
    idx = build_row_index(a)
    assert idx.cutoff == 4
    assert idx.heavy_rows == 1
    assert heavy_row(idx, 0, -1.0) is None
    assert group(idx, 0, -1.0) >= 0
    assert heavy_row(idx, 1, -1.0) == 0


def test_row_index_is_lexicographic():
    a = np.array([[2, 1, 2, NEG_INF, 1, INF]], dtype=float)
    idx = build_row_index(a)
    assert idx.values.tolist() == [NEG_INF, 1, 2, INF]
    assert idx.keys.tolist() == [0, 1, 2, 3]
    assert idx.starts.tolist() == [0, 1, 3, 5, 6]
    # groups in ascending value order, each group's columns ascending
    assert idx.columns.tolist() == [3, 1, 4, 0, 2, 5]


def test_row_index_heavy_count_bound():
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = int(rng.integers(1, 33))
        a = rng.integers(-3, 4, size=(n, n)).astype(float)
        idx = build_row_index(a)
        heavy_keys = idx.keys[idx.heavy_id >= 0]
        per_row = np.bincount(heavy_keys // idx.values.size, minlength=n)
        assert (per_row <= n / idx.cutoff).all()
        assert idx.heavy_rows <= n * idx.cutoff


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
    idx = build_row_index(a)
    h = build_heavy_matrix(idx)
    assert h.shape == (idx.heavy_rows, n)
    assert idx.heavy_rows <= rows * idx.cutoff
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
            heavy = columns.size > idx.cutoff and value != INF
            assert (idx.heavy_id[g] >= 0) == heavy
            if idx.heavy_id[g] >= 0:
                assert np.array_equal(h[idx.heavy_id[g]], a[i] == value)
            groups += 1
    assert idx.keys.size == groups


def test_row_index_keeps_plus_inf_groups_light():
    # a +inf target takes the TARGET_INF route, so no query reads a +inf group
    n = 16
    a = np.zeros((2, n))
    a[0, :8] = INF
    a[1, :] = INF
    idx = build_row_index(a)
    assert idx.heavy_rows == 1
    assert heavy_row(idx, 0, 0.0) == 0
    assert heavy_row(idx, 0, INF) is None and group(idx, 0, INF) >= 0
    assert heavy_row(idx, 1, INF) is None and group(idx, 1, INF) >= 0


def test_heavy_matrix_empty_registry():
    a = np.arange(9, dtype=float).reshape(3, 3)
    idx = build_row_index(a)
    assert build_heavy_matrix(idx).shape == (0, 3)


def test_heavy_matrix_occurrence_mask():
    a = np.array([[4, 4, 4, 1], [1, 1, 1, 1], [0, 1, 2, 3], [2, 2, 3, 3]], dtype=float)
    idx = build_row_index(a)
    h = build_heavy_matrix(idx)
    assert np.array_equal(h[heavy_row(idx, 0, 4)], [1, 1, 1, 0])
    assert np.array_equal(h[heavy_row(idx, 1, 1)], [1, 1, 1, 1])


def test_heavy_matrix_rows_recount_multiplicities():
    rng = np.random.default_rng(41)
    a = rng.integers(0, 3, size=(8, 8)).astype(float)
    idx = build_row_index(a)
    h = build_heavy_matrix(idx)
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


@pytest.mark.parametrize(
    "b_neg",
    [
        # a float +/-inf B' is no mask: coerced to bool, both infinities read True
        np.array([[NEG_INF, INF], [INF, NEG_INF]]),
        np.ones((2, 3), dtype=bool),
        np.ones((3, 3), dtype=bool),
        np.ones(4, dtype=bool),
    ],
    ids=["float-inf", "2x3", "3x3", "flat"],
)
def test_restricted_instance_rejects_what_is_not_a_mask_of_a(b_neg):
    with pytest.raises(ValueError, match="bool mask"):
        RestrictedInstance(np.zeros((2, 2)), b_neg, np.zeros((2, 2)))


@pytest.mark.parametrize("where", ["a", "target"])
def test_restricted_instance_rejects_nan(where):
    # nan is no extended integer: with it in a, the restricted kernel answered
    # True where the naive kernel answers False
    matrices = {
        "a": np.zeros((2, 2)),
        "b_neg": np.ones((2, 2), dtype=bool),
        "target": np.zeros((2, 2)),
    }
    matrices[where][1, 0] = np.nan
    with pytest.raises(ValueError, match=rf"{where}\[1, 0\] is nan"):
        RestrictedInstance(**matrices)


def test_restricted_instance_target_bound_check():
    a = np.array([[1.0]])
    b_neg = np.array([[True]])
    good = RestrictedInstance(a, b_neg, np.array([[1.0]]))
    good.check_target_bound()
    bad = RestrictedInstance(a, b_neg, np.array([[2.0]]))
    with pytest.raises(VerificationError):
        bad.check_target_bound()


def test_restricted_worked_example():
    a = np.array([[5, 3], [7, 7]], dtype=float)
    b_neg = np.array([[True, False], [False, True]])
    target = np.array([[5, 3], [6, 7]], dtype=float)
    got = restricted_target_minmax(RestrictedInstance(a, b_neg, target), verify=True)
    assert bits(got) == [[1, 1], [0, 1]]


def test_restricted_all_ones_when_target_is_product():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(1, 10))
        a = rng.integers(-4, 5, size=(n, n)).astype(float)
        a[rng.random((n, n)) < 0.1] = INF
        b_neg = rng.random((n, n)) < 0.5
        product = minmax_product(a, inf_matrix(b_neg))
        inst = RestrictedInstance(a, b_neg, product)
        assert restricted_target_minmax(inst).all()


def test_restricted_plus_inf_target_with_all_plus_inf_column():
    # every b in this column is +inf, so the product is +inf with no
    # (value, -inf) witness anywhere; the bound still forces output 1
    a = np.array([[5.0]])
    b_neg = np.array([[False]])
    target = np.array([[INF]])
    inst = RestrictedInstance(a, b_neg, target)
    assert bits(restricted_target_minmax(inst, verify=True)) == [[1]]
    assert bits(target_minmax_naive(a, inf_matrix(b_neg), target)) == [[1]]


def assert_both_routes(routes):
    """Both routes of the kernel fired across a test's draws."""
    seen = set(np.unique(np.concatenate([r.ravel() for r in routes])).tolist())
    assert {ROUTE_HEAVY, ROUTE_LIGHT} <= seen, seen


def test_restricted_matches_naive_on_random_instances():
    rng = np.random.default_rng(47)
    routes = []
    for _ in range(40):
        n = int(rng.integers(1, 33))
        inst = random_restricted_instance(rng, n)
        got, route = restricted_target_minmax(inst, return_routes=True)
        want = target_minmax_naive(inst.a, inf_matrix(inst.b_neg), inst.target)
        assert np.array_equal(got, want)
        routes.append(route)
    assert_both_routes(routes)


def test_restricted_matches_naive_hypothesis():
    routes = []

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def check(data):
        routes.append(_check_restricted_hypothesis(data))

    check()
    assert_both_routes(routes)


def _check_restricted_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=6), label="n")

    def square(elements):
        rows = st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)
        return np.array(data.draw(rows))

    a = square(st.integers(min_value=-4, max_value=4)).astype(float)
    # a value below all others on the drawn entries: where a row holds it
    # more than cutoff times and a -inf meets it, the target's group is heavy
    a[square(st.booleans())] = -5.0
    b_neg = square(st.booleans())
    b = inf_matrix(b_neg)
    slack = square(st.integers(min_value=0, max_value=2)).astype(float)
    product = minmax_product(a, b)
    target = np.where(np.isfinite(product), product - slack, product)
    got, routes = restricted_target_minmax(
        RestrictedInstance(a, b_neg, target), return_routes=True
    )
    assert np.array_equal(got, target_minmax_naive(a, b, target))
    return routes


def test_restricted_routes_partition_entries():
    rng = np.random.default_rng(53)
    seen = []
    for _ in range(15):
        n = int(rng.integers(2, 25))
        inst = random_restricted_instance(rng, n)
        result, routes = restricted_target_minmax(inst, return_routes=True)
        cutoff = build_row_index(inst.a).cutoff
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
        seen.append(routes)
    assert_both_routes(seen)


def test_one_row_index_serves_several_targets():
    # one index, two targets drawn below the same product, and the first again
    # after the second: each answer is the naive kernel's, routes included
    rng = np.random.default_rng(67)
    seen = []
    for _ in range(20):
        n = int(rng.integers(1, 33))
        first = random_restricted_instance(rng, n)
        a, b_neg = first.a, first.b_neg
        b = inf_matrix(b_neg)
        product = minmax_product(a, b)
        slack = rng.integers(0, 3, size=(n, n)).astype(float)
        target = np.where(np.isfinite(product), product - slack, product)
        second = RestrictedInstance(a, b_neg, target)
        index = build_row_index(a)
        for inst in (first, second, first):
            got, routes = restricted_target_minmax(inst, index=index, return_routes=True)
            alone, alone_routes = restricted_target_minmax(inst, return_routes=True)
            assert np.array_equal(got, target_minmax_naive(a, b, inst.target))
            assert np.array_equal(got, alone)
            assert np.array_equal(routes, alone_routes)
            seen.append(routes)
    assert_both_routes(seen)


def test_restricted_rejects_an_index_of_another_shape():
    rng = np.random.default_rng(71)
    inst = random_restricted_instance(rng, 6)
    for shape in ((5, 5), (6, 5), (5, 6), (7, 7)):
        with pytest.raises(ValueError, match="row index"):
            restricted_target_minmax(inst, index=build_row_index(np.zeros(shape)))


@pytest.mark.parametrize("shape", [(2**16, 2**15), (1, 2**31), (2**31 + 1, 1)])
def test_row_index_refuses_offsets_past_int32(shape):
    # a read-only view of one float: nothing of that size is allocated
    with pytest.raises(ValueError, match="2\\*\\*31"):
        build_row_index(np.broadcast_to(np.zeros(1), shape))


def test_row_index_holds_int32_offsets_below_the_limit():
    idx = build_row_index(np.arange(12.0).reshape(3, 4) % 3)
    for name in ("starts", "columns", "heavy_id"):
        assert getattr(idx, name).dtype == np.int32, name
    assert idx.keys.dtype == np.int64
    assert idx.group_of(np.array([0]), np.array([1.0])).dtype == np.int32


def _check_restricted_at_bench_size(n):
    for seed in (0, 1):
        inst = cli._bench_instance(n, seed)
        got, routes = restricted_target_minmax(inst, return_routes=True)
        want = target_minmax_naive(inst.a, inf_matrix(inst.b_neg), inst.target)
        assert np.array_equal(got, want)
        assert_both_routes([routes])


def test_restricted_matches_naive_at_bench_size():
    _check_restricted_at_bench_size(512)


@pytest.mark.parametrize("n", [128, 256])
def test_restricted_matches_naive_at_smaller_bench_sizes(n):
    _check_restricted_at_bench_size(n)


def _check_restricted_memory(a, rng):
    """The restricted product on ``a`` stays under a 64 MiB tracemalloc peak
    and flags exactly the targets that equal a row minimum met by a -inf."""
    n = a.shape[0]
    b_neg = rng.random((n, n)) < 0.5
    # a row's minimum never exceeds the product; one below it occurs nowhere
    row_min = a.min(axis=1)[:, None]
    target = row_min - (rng.random((n, n)) < 0.5)
    inst = RestrictedInstance(a, b_neg, target)
    tracemalloc.start()
    try:
        got = restricted_target_minmax(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    witness = (a == row_min).astype(np.float32) @ b_neg.astype(np.float32)
    assert np.array_equal(got, (target == row_min) & (witness > 0))


def test_restricted_memory_with_n_squared_distinct_values():
    # every entry of a is its own value, so the matrix has n**2 values; an
    # index with a row per (row, value) pair of the whole matrix would be n**3
    n = 512
    rng = np.random.default_rng(59)
    _check_restricted_memory(rng.permutation(n * n).reshape(n, n).astype(float), rng)


def test_restricted_memory_with_the_most_heavy_rows():
    # every row splits into groups of cutoff + 1 columns, the smallest heavy
    # size, so the heavy matrix has as many rows as the cutoff allows:
    # 21 per row, 10 752 in all at n = 512
    n = 512
    rng = np.random.default_rng(61)
    cutoff = build_row_index(np.zeros((1, n))).cutoff
    a = np.array([rng.permutation(np.arange(n) // (cutoff + 1)) for _ in range(n)])
    assert build_row_index(a).heavy_rows == 21 * n
    _check_restricted_memory(a.astype(float), rng)
