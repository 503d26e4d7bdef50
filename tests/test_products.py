import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minmax_apsp
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
    return m.to_bool().astype(int).tolist()


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


def test_row_index_heavy_example():
    a = np.array([[4, 4, 4, 1], [1, 2, 3, 4], [5, 5, 6, 6], [0, 0, 0, 0]], dtype=float)
    idx = build_row_index(a, 0.5)  # cutoff 2
    assert idx.cutoff == 2
    assert idx.heavy_values[0].tolist() == [4]
    assert idx.heavy_values[1].tolist() == []
    assert idx.heavy_values[2].tolist() == []
    assert idx.heavy_values[3].tolist() == [0]
    assert idx.heavy_row_id(0, 4) == 0
    assert idx.heavy_row_id(0, 1) is None
    assert idx.heavy_row_id(3, 0) == 1


def test_row_index_t_one_never_heavy():
    a = np.arange(16, dtype=float).reshape(4, 4)
    idx = build_row_index(a, 1.0)
    assert idx.heavy_rows == 0


def test_row_index_t_zero_pairs_are_heavy():
    a = np.array([[7, 7, 1, 2]], dtype=float)
    idx = build_row_index(a, 0.0)
    assert idx.cutoff == 1
    assert idx.heavy_values[0].tolist() == [7]


def test_row_index_is_lexicographic():
    a = np.array([[2, 1, 2, NEG_INF, 1, INF]], dtype=float)
    idx = build_row_index(a, 0.5)
    assert idx.sorted_vals[0].tolist() == [NEG_INF, 1, 1, 2, 2, INF]
    # ties broken by ascending column
    assert idx.order[0].tolist() == [3, 1, 4, 0, 2, 5]


def test_row_index_heavy_count_bound():
    rng = np.random.default_rng(37)
    for t in (0.0, 0.3, 0.5, 0.8, 1.0):
        for _ in range(10):
            n = int(rng.integers(1, 33))
            a = rng.integers(-3, 4, size=(n, n)).astype(float)
            idx = build_row_index(a, t)
            assert all(hv.size <= n / idx.cutoff for hv in idx.heavy_values)
            assert idx.heavy_rows <= n * occurrence_cutoff(n, 1 - t)


def test_heavy_matrix_empty_registry():
    a = np.arange(9, dtype=float).reshape(3, 3)
    idx = build_row_index(a, 1.0)
    assert build_heavy_matrix(a, idx).rows == 0


def test_heavy_matrix_occurrence_mask():
    a = np.array([[4, 4, 4, 1], [1, 1, 1, 1], [0, 1, 2, 3], [2, 2, 3, 3]], dtype=float)
    idx = build_row_index(a, 0.5)
    h = build_heavy_matrix(a, idx)
    assert np.array_equal(h.to_bool()[idx.heavy_row_id(0, 4)], [1, 1, 1, 0])
    assert np.array_equal(h.to_bool()[idx.heavy_row_id(1, 1)], [1, 1, 1, 1])


def test_heavy_matrix_rows_recount_multiplicities():
    rng = np.random.default_rng(41)
    a = rng.integers(0, 3, size=(8, 8)).astype(float)
    idx = build_row_index(a, 0.3)
    h = build_heavy_matrix(a, idx).to_bool()
    for i in range(8):
        for value in idx.heavy_values[i]:
            row = h[idx.heavy_row_id(i, value)]
            assert row.sum() == (a[i] == value).sum()
            assert np.array_equal(row, a[i] == value)


def test_heavy_matrix_rejects_mismatched_shapes():
    a = np.zeros((3, 3))
    idx = build_row_index(a, 0.5)
    with pytest.raises(ValueError):
        build_heavy_matrix(np.zeros((4, 4)), idx)


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
        assert restricted_target_minmax(inst).to_bool().all()


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
            assert got == want


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
    assert restricted_target_minmax(inst, t) == target_minmax_naive(a, b, target)


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
                        assert result.get(i, j) == 0
