import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sphuni import (
    BadShapeError,
    NotOrthogonalError,
    NotUnitError,
    ParseError,
    ZeroRowError,
    apply_rotation,
    load_points_csv,
    make_unit_point_set,
    pairwise_inner_products,
)
from sphuni import points
from sphuni.points import _sorted_pairs


def test_accepts_exact_unit_rows():
    s = make_unit_point_set([[1.0, 0.0], [0.0, 1.0]], normalize=False)
    assert s.n == 2 and s.p == 2
    np.testing.assert_allclose(np.linalg.norm(s.data, axis=1), 1.0, atol=1e-15)


def test_normalizes_3_4_5_rows():
    s = make_unit_point_set([[3.0, 4.0], [3.0, 4.0]], normalize=True)
    np.testing.assert_allclose(s.data, [[0.6, 0.8], [0.6, 0.8]], atol=1e-15)


def test_normalize_leaves_the_callers_array_alone():
    a = np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 2.0]])
    before = a.copy()
    s = make_unit_point_set(a, normalize=True)
    np.testing.assert_array_equal(a, before)
    assert a.flags.writeable and not np.shares_memory(s.data, a)


@pytest.mark.parametrize("layout", ["fortran", "column-sliced", "reversed-rows"])
def test_make_unit_point_set_layouts_give_the_allocating_formula(layout):
    # the norms of a C-contiguous array go through a scratch buffer; a
    # Fortran-ordered array sums its squares in another order, so it keeps
    # np.linalg.norm, and every layout gives the floats of arr / norm
    base = np.random.default_rng(8).standard_normal((50, 601))
    arr = {
        "fortran": np.asfortranarray(base[:, :300]),
        "column-sliced": base[:, ::2],
        "reversed-rows": base[::-1],
    }[layout]
    want = arr / np.linalg.norm(arr, axis=1)[:, None]
    s = make_unit_point_set(arr, normalize=True)
    assert np.array_equal(s.data, want)
    assert s.data.flags.f_contiguous == want.flags.f_contiguous
    assert not s.data.flags.writeable


def test_row_norms_equal_linalg_norm_without_squares():
    # every row's squares are summed along the row whichever rows share a
    # chunk of the scratch buffer; a warm call allocates no array of squares
    x = np.random.default_rng(9).standard_normal((3, 400, 600))
    assert np.array_equal(points._norms(x), np.linalg.norm(x, axis=-1))
    for p in (2, 9, 17, 1 << 15):
        y = np.random.default_rng(p).standard_normal((5, p))
        assert np.array_equal(points._norms(y), np.linalg.norm(y, axis=-1)), p
    tracemalloc.start()
    try:
        points._row_norms(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * points._NORM_SCRATCH, peak


def test_row_norms_checks_survive_the_scratch_buffer():
    big = np.full((3, 4), 1e200)  # finite, but its squares overflow
    with np.errstate(over="ignore"):
        assert np.all(np.isinf(points._row_norms(big)))
    bad = np.ones((2, 3, 4))
    bad[1, 2, 3] = np.nan
    with pytest.raises(BadShapeError, match="row 2"):
        points._row_norms(bad)


def test_zero_row_rejected():
    with pytest.raises(ZeroRowError, match="row 1"):
        make_unit_point_set([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], normalize=True)


def test_not_unit_rejected_with_row_number():
    with pytest.raises(NotUnitError, match="row 1"):
        make_unit_point_set([[1.0, 0.0], [0.5, 0.5]], normalize=False)


@pytest.mark.parametrize(
    "bad", [np.zeros((1, 5)), np.zeros((5, 1)), np.zeros(5), np.zeros((2, 2, 2))]
)
def test_bad_shapes_rejected(bad):
    with pytest.raises(BadShapeError):
        make_unit_point_set(np.asarray(bad) + 1.0)


def test_data_is_readonly():
    s = make_unit_point_set([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        s.data[0, 0] = 2.0


def test_pairwise_identical_points():
    s = make_unit_point_set([[1.0, 0.0], [1.0, 0.0]])
    ip = pairwise_inner_products(s)
    np.testing.assert_allclose(ip.values, [1.0], atol=0)


def test_pairwise_orthonormal_frame():
    s = make_unit_point_set(np.eye(3))
    ip = pairwise_inner_products(s)
    np.testing.assert_allclose(ip.values, [0.0, 0.0, 0.0], atol=1e-16)


def test_pairwise_count_and_order():
    rng = np.random.default_rng(0)
    s = make_unit_point_set(rng.standard_normal((4, 6)), normalize=True)
    ip = pairwise_inner_products(s)
    assert len(ip) == 6
    assert np.all(np.diff(ip.values) >= 0)
    assert np.all(np.abs(ip.values) <= 1.0)


@pytest.mark.parametrize("n", [2, 3, 80, 400])
def test_pairwise_equals_the_allocating_formula(n):
    # one sample's Gram, upper-triangle gather, clip and sort, written out
    for p in (2, 7, 80, 600):
        for seed in range(3):
            rng = np.random.default_rng([n, p, seed])
            s = make_unit_point_set(rng.standard_normal((n, p)), normalize=True)
            gram = s.data @ s.data.T
            want = gram.ravel()[np.ravel_multi_index(np.triu_indices(n, k=1), (n, n))]
            np.clip(want, -1.0, 1.0, out=want)
            want.sort()
            assert np.array_equal(pairwise_inner_products(s).values, want), (p, seed)


def test_sorted_pairs_allocates_nothing():
    # np.take copies a read-only index on every call (624 KiB at n = 400);
    # the cached index is writeable, so a warm call allocates no n(n-1)/2 array
    n, p = 400, 60
    s = make_unit_point_set(np.random.default_rng(4).standard_normal((n, p)), normalize=True)
    x = s.data[None]
    gram, out = np.empty((1, n, n)), np.empty((1, n * (n - 1) // 2))
    _sorted_pairs(x, gram, out)
    tracemalloc.start()
    try:
        _sorted_pairs(x, gram, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert np.array_equal(out[0], pairwise_inner_products(s).values)


def test_inner_products_cached_on_first_use():
    rng = np.random.default_rng(2)
    s = make_unit_point_set(rng.standard_normal((30, 7)), normalize=True)
    assert "_inner_products" not in vars(s)  # construction computes nothing
    ip = s.inner_products
    assert s.inner_products is ip
    np.testing.assert_array_equal(ip.values, pairwise_inner_products(s).values)
    assert ip.n == s.n
    with pytest.raises(ValueError):
        ip.values[0] = 0.0


def test_pairwise_inner_products_stays_uncached():
    rng = np.random.default_rng(3)
    s = make_unit_point_set(rng.standard_normal((12, 5)), normalize=True)
    cached = s.inner_products
    a, b = pairwise_inner_products(s), pairwise_inner_products(s)
    assert a is not b and a.values is not b.values
    assert a is not cached and a.values is not cached.values
    np.testing.assert_array_equal(a.values, b.values)


def test_inner_products_identical_across_threads():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((200, 40))
    want = pairwise_inner_products(make_unit_point_set(data, normalize=True)).values
    for _ in range(5):
        s = make_unit_point_set(data, normalize=True)
        start = threading.Barrier(2, timeout=30)

        def read(_):
            start.wait()
            return s.inner_products

        with ThreadPoolExecutor(max_workers=2) as pool:
            a, b = pool.map(read, range(2))
        assert a is b is s.inner_products
        np.testing.assert_array_equal(a.values, want)


def test_pairwise_invariant_under_row_permutation():
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((9, 5))
    a = pairwise_inner_products(make_unit_point_set(raw, normalize=True))
    b = pairwise_inner_products(make_unit_point_set(raw[::-1], normalize=True))
    np.testing.assert_array_equal(a.values, b.values)


def test_rotation_identity():
    s = make_unit_point_set(np.eye(4))
    r = apply_rotation(s, np.eye(4))
    np.testing.assert_allclose(r.data, s.data, atol=1e-15)


def test_rotation_permutation_matrix_preserves_products():
    s = make_unit_point_set(np.eye(3))
    q = np.eye(3)[[2, 0, 1]]
    r = apply_rotation(s, q)
    np.testing.assert_array_equal(
        pairwise_inner_products(r).values, pairwise_inner_products(s).values
    )


def test_rotation_householder_preserves_products():
    rng = np.random.default_rng(7)
    s = make_unit_point_set(rng.standard_normal((20, 12)), normalize=True)
    v = rng.standard_normal(12)
    v /= np.linalg.norm(v)
    q = np.eye(12) - 2.0 * np.outer(v, v)
    r = apply_rotation(s, q)
    np.testing.assert_allclose(
        pairwise_inner_products(r).values, pairwise_inner_products(s).values, atol=1e-10
    )


def test_rotation_rejects_non_orthogonal():
    s = make_unit_point_set(np.eye(3))
    with pytest.raises(NotOrthogonalError):
        apply_rotation(s, np.eye(3) * 1.001)


def test_csv_roundtrip_with_header(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x,y,z\n1,0,0\n0,1,0\n0.6,0.8,0\n")
    s = load_points_csv(path)
    assert s.n == 3 and s.p == 3
    np.testing.assert_allclose(s.data[2], [0.6, 0.8, 0.0], atol=1e-15)


def test_csv_bad_field_count(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1,0,0\n0,1\n")
    with pytest.raises(ParseError, match="line 2"):
        load_points_csv(path)


def test_csv_non_numeric_field(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1,0,0\n0,oops,0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_points_csv(path)
