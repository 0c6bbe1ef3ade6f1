import math
import sys
import threading
import tracemalloc
from concurrent import futures

import numpy as np
import pytest
from scipy import special

from sphuni import points, statistics
from sphuni import (
    AlphaSpherical,
    BadTailError,
    CalibrationUnavailableError,
    CapMixture,
    DomainError,
    Fvml,
    LowRank,
    RngSeed,
    Uniform,
    Watson,
    apply_rotation,
    calibrate_critical_value_mc,
    kolmogorov_sf,
    make_unit_point_set,
    normal_cdf,
    null_inner_cdf,
    packing_gumbel_cdf,
    packing_gumbel_quantile,
    pairwise_inner_products,
    run_test,
    sample,
    sample_uniform_direction,
    statistic_bingham,
    statistic_packing,
    statistic_projection,
    statistic_rayleigh,
    statistic_sup_distance,
    sup_cdf_distance,
    sup_distance_critical_value,
    sup_null_distance,
)
from sphuni.distributions import _null_cdf_table
from sphuni.samplers import _cap_block
from sphuni.statistics import (
    _STAT_FUNCS,
    METHODS,
    PROJECTION,
    _null_statistics,
    _replicate,
    _run_tests,
    _sup_null_rows,
    p_values,
)
from test_samplers import _unit_mu


def _rand_sample(n, p, seed):
    return sample(Uniform(p), n, RngSeed(seed))


# ---------------------------------------------------------------------------
# sup-distance statistic


def test_sup_distance_two_points():
    s = make_unit_point_set([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    # single inner product 0: T = max(1 - m(0), m(0)) = 0.5
    assert statistic_sup_distance(s) == pytest.approx(0.5, abs=1e-12)
    v = 0.3
    s2 = make_unit_point_set(
        [[1.0, 0.0], [v, math.sqrt(1 - v * v)]], normalize=False
    )
    m = null_inner_cdf(v, 2)
    assert statistic_sup_distance(s2) == pytest.approx(max(1 - m, m), abs=1e-12)


def test_sup_distance_all_identical_is_one():
    s = make_unit_point_set([[1.0, 0.0]] * 5)
    assert statistic_sup_distance(s) == pytest.approx(1.0, abs=0)


def test_sup_distance_in_unit_interval_and_positive():
    for seed in range(5):
        s = _rand_sample(12, 6, seed)
        t = statistic_sup_distance(s)
        assert 0.0 < t <= 1.0


def brute_force_sup(values, p, grid_points=10**6):
    """Oracle: dense t-grid joined with both sides of every jump."""
    grid = np.linspace(-1.0, 1.0, grid_points)
    eval_at = np.concatenate([grid, values])
    F = null_inner_cdf(eval_at, p)
    edf = np.searchsorted(values, eval_at, side="right") / len(values)
    edf_left = np.searchsorted(values, eval_at, side="left") / len(values)
    return max(np.max(np.abs(edf - F)), np.max(np.abs(edf_left - F)))


def test_jump_formula_equals_brute_force_small_samples():
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        p = int(rng.choice([2, 3, 5, 8]))
        s = sample(Uniform(p), n, rng)
        ip = pairwise_inner_products(s)
        got = sup_cdf_distance(ip.values, null_inner_cdf(ip.values, p))
        want = brute_force_sup(ip.values, p, grid_points=10**5)
        assert got == pytest.approx(want, abs=1e-9)


def _exactness_samples(n, p, seed):
    models = (Uniform(p), Fvml(p, 2.0 * p**0.75 / math.sqrt(n)), Watson(p, 0.2 * p),
              LowRank(p, max(2, p // 2)), CapMixture(p))
    for i, model in enumerate(models):
        data = sample(model, n, RngSeed(seed, i)).data
        yield data
        # repeated rows: tied values and values clamped at exactly 1
        yield np.vstack([data, data[: max(1, n // 4)]])


@pytest.mark.parametrize("n", [3, 12, 80, 100, 400])
def test_sup_null_distance_equals_full_evaluation(n):
    # N = 3 and 66 are evaluated value by value; 3160, 4950 and 79800 each
    # use another block rule
    p = 40
    for data in _exactness_samples(n, p, seed=1000 + n):
        v = pairwise_inner_products(make_unit_point_set(data)).values
        assert sup_null_distance(v, p) == sup_cdf_distance(v, null_inner_cdf(v, p))


def _null_quantiles(count, p):
    a = (p - 1) / 2.0
    return 2.0 * special.betaincinv(a, a, (np.arange(count) + 0.5) / count) - 1.0


@pytest.mark.parametrize("count", [1500, 5000, 70000])
def test_sup_null_distance_maximum_at_block_edges(count):
    # values at the null quantiles, so every term is about 1/(2N), with one
    # run of ties that puts a 3.5/N term on the first or last index of a block
    p = 30
    base = _null_quantiles(count, p)
    for k in (0, 8, 32, 64, 128, 7, 31, 63, 127, 1023, 1024, count - 1):
        for side in ("lower", "upper"):
            v = base.copy()
            if side == "lower" and k + 3 < count:
                v[k : k + 4] = v[k + 3]  # F_k - k/N is the largest term
            elif side == "upper" and k >= 3:
                v[k - 3 : k + 1] = v[k - 3]  # (k+1)/N - F_k is the largest term
            else:
                continue
            f = null_inner_cdf(v, p)
            j = np.arange(count)
            terms = np.maximum((j + 1) / count - f, f - j / count)
            assert np.argmax(terms) == k
            assert sup_null_distance(v, p) == sup_cdf_distance(v, f)


def _full(v, p):
    return sup_cdf_distance(v, null_inner_cdf(v, p))


@pytest.mark.parametrize("p", [3, 40, 600])
def test_sup_null_distance_values_on_knots(p):
    # a value on a knot is bracketed by its own exact F
    knots = _null_cdf_table(p)[0]
    rng = np.random.default_rng(p)
    for count in (1, 7, 500, 3000, 70000):
        v = np.sort(rng.choice(knots, size=count))
        assert sup_null_distance(v, p) == _full(v, p)
    # every knot once, and a run of ties on one knot
    assert sup_null_distance(knots, p) == _full(knots, p)
    v = knots.copy()
    v[8000:8300] = v[8000]
    assert sup_null_distance(v, p) == _full(v, p)


@pytest.mark.parametrize("p", [2, 3, 40, 5000])
def test_sup_null_distance_values_at_plus_minus_one(p):
    rng = np.random.default_rng(p)
    for count, ends in ((5, 1), (900, 40), (5000, 300), (5000, 2600)):
        v = 2.0 * special.betaincinv((p - 1) / 2.0, (p - 1) / 2.0, rng.random(count)) - 1.0
        v[:ends], v[-ends:] = -1.0, 1.0
        v = np.sort(v)
        assert sup_null_distance(v, p) == _full(v, p)
        # within the 1e-12 that null_inner_cdf clamps
        v[0], v[-1] = -1.0 - 5e-13, 1.0 + 5e-13
        assert sup_null_distance(v, p) == _full(v, p)
    for v in (np.array([-1.0]), np.array([1.0]), np.array([-1.0, 1.0])):
        assert sup_null_distance(v, p) == _full(v, p)


@pytest.mark.parametrize("p", [2, 3, 5000])
def test_sup_null_distance_small_n_and_extreme_p(p):
    # N < 1024 is bracketed value by value; p = 3 has a linear F
    rng = np.random.default_rng(7 * p)
    for count in (1, 2, 3, 66, 1023, 1024, 5000):
        v = np.sort(rng.uniform(-1.0, 1.0, count))
        assert sup_null_distance(v, p) == _full(v, p)
    models = [Uniform(p)]
    if p >= 3:
        models.append(CapMixture(p))
    if p > 3:  # the tilted samplers need p > 3
        models.append(Watson(p, 0.2 * p))
    for i, model in enumerate(models):
        for n in (2, 12, 45, 120):
            data = sample(model, n, RngSeed(p, 10 * i + n)).data
            for rows in (data, np.vstack([data, data[: n // 2 + 1]])):  # repeated rows
                v = pairwise_inner_products(make_unit_point_set(rows)).values
                assert sup_null_distance(v, p) == _full(v, p)


@pytest.mark.parametrize("p, eps", [(5, 0.3), (40, 0.05), (5000, None)])
def test_sup_null_distance_cap_mixture_near_one(p, eps):
    # every cap on the unit diagonal (s = 0, c = d = 1/sqrt(p)): all values
    # sit near 1, in the table's last cells, and the sup is close to 1
    eps = 1.0 / (4.0 * p) if eps is None else eps
    diagonal = (0.0, 1.0 / math.sqrt(p), 1.0 / math.sqrt(p))
    for n in (30, 150, 400):
        rows = _cap_block(eps, [RngSeed(n).generator()], np.empty((1, n, p)), *diagonal)[0]
        v = pairwise_inner_products(make_unit_point_set(rows)).values
        got = sup_null_distance(v, p)
        assert got == _full(v, p)
        assert got > 0.95


def test_null_cdf_table_is_read_only_and_brackets():
    table = _null_cdf_table(80)
    for arr in table:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    knots, lower, upper = table
    assert knots[0] == -1.0 and knots[-1] == 1.0 and np.all(np.diff(knots) >= 0)
    v = np.concatenate([np.linspace(-1.0, 1.0, 10001), knots[::97]])
    i = np.searchsorted(knots, v, side="right")
    f = null_inner_cdf(v, 80)
    assert np.all(lower[i] <= f + 1e-15) and np.all(f <= upper[i] + 1e-15)
    on_knot = np.isin(v, knots)
    assert np.array_equal(lower[i][on_knot], f[on_knot])


def test_null_statistics_threads_equal_from_a_cold_table_cache():
    statistics._null_memo.clear()
    _null_cdf_table.cache_clear()
    two = _null_statistics(30, 17, METHODS, 200, 5, threads=2)
    statistics._null_memo.clear()
    _null_cdf_table.cache_clear()
    one = _null_statistics(30, 17, METHODS, 200, 5, threads=1)
    for m in METHODS:
        assert np.array_equal(two[m], one[m])


def _row_kernel_rows(count, p, rng):
    """Sorted rows of `count` values: null draws, which prune to a few
    exact values; the null quantiles, where every term is about 1/(2N)
    and thousands stay; pairwise values near 1, and with ties."""
    a = (p - 1) / 2.0
    yield np.sort(2.0 * special.betaincinv(a, a, rng.random(count)) - 1.0)
    yield _null_quantiles(count, p)
    n = int(math.ceil((1.0 + math.sqrt(1.0 + 8.0 * count)) / 2.0))
    diagonal = (0.0, 1.0 / math.sqrt(p), 1.0 / math.sqrt(p))  # every cap on one direction
    data = sample(Uniform(p), n, RngSeed(count)).data
    for rows in (
        _cap_block(0.05, [RngSeed(count, 1).generator()], np.empty((1, n, p)), *diagonal)[0],  # every value near 1
        np.vstack([data[: n // 2 + 1], data[: n // 2 + 1]])[:n],  # every row twice
    ):
        v = pairwise_inner_products(make_unit_point_set(rows)).values
        yield np.sort(rng.choice(v, size=count, replace=False))


@pytest.mark.parametrize("count", [300, 1024, 20000, 70000])
def test_sup_null_rows_equals_each_row_alone(count):
    # every row of one call is the float of full evaluation on that row,
    # with rows that keep a few exact values next to rows that keep thousands
    p = 40
    rng = np.random.default_rng(count)
    rows = [row for _ in range(2) for row in _row_kernel_rows(count, p, rng)]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    got = _sup_null_rows(np.array(rows), p)
    assert got.shape == (len(rows),)
    for row, value in zip(rows, got):
        assert value == _full(row, p)


def test_sup_null_rows_rejects_a_row_outside_the_range():
    rows = np.tile(np.linspace(-1.0, 1.0, 2000), (3, 1))
    rows[1, -1] = 1.5
    with pytest.raises(DomainError):
        _sup_null_rows(rows, 5)
    rows[1, -1], rows[2, 0] = 1.0, -1.5
    with pytest.raises(DomainError):
        _sup_null_rows(rows, 5)
    with pytest.raises(DomainError):
        _sup_null_rows(np.empty((2, 0)), 5)


@pytest.mark.parametrize("end, sign", [(0, -1.0), (-1, 1.0)])
def test_sup_null_rows_checks_each_rows_ends(end, sign):
    # a sorted row's first and last values bound it: 1e-9 past either end
    # raises, 1e-13 past is clamped as null_inner_cdf clamps it
    rows = np.tile(np.linspace(-0.9, 0.9, 2000), (2, 1))
    rows[1, end] = sign * (1.0 + 1e-13)
    clamped = _sup_null_rows(rows, 5)
    assert clamped[1] == _full(rows[1], 5)
    rows[1, end] = sign * (1.0 + 1e-9)
    with pytest.raises(DomainError, match=r"t outside \[-1, 1\]"):
        _sup_null_rows(rows, 5)


def test_sup_null_rows_gives_nan_for_a_row_holding_nan():
    # the floats recorded before the kernel skipped null_inner_cdf's checks
    rows = np.tile(np.linspace(-0.9, 0.9, 2000), (3, 1))
    rows[1, -1] = np.nan
    rows[2, 1000] = np.nan
    rows[2].sort()
    with np.errstate(invalid="ignore"):
        got = _sup_null_rows(rows, 5)
    assert got[0] == _full(rows[0], 5) and np.isnan(got[1:]).all()
    rows[0, -1] = 1.5  # and a NaN in other rows does not hide this row's end
    with pytest.raises(DomainError):
        _sup_null_rows(rows, 5)


def test_sup_null_distance_rejects_what_full_evaluation_rejects():
    with pytest.raises(DomainError):
        sup_null_distance(np.array([]), 5)
    with pytest.raises(DomainError):
        sup_null_distance(np.linspace(-1.0, 1.5, 2000), 5)
    with pytest.raises(DomainError):
        sup_null_distance(np.linspace(-1.5, 1.0, 2000), 5)
    with pytest.raises(DomainError):
        sup_null_distance(np.linspace(-1.0, 1.0, 2000), 1)


# ---------------------------------------------------------------------------
# classical statistics


def test_rayleigh_single_aligned_pair():
    p = 7
    row = np.zeros(p)
    row[0] = 1.0
    s = make_unit_point_set([row, row])
    assert statistic_rayleigh(s) == pytest.approx(math.sqrt(2 * p) / 2.0, abs=1e-12)


def test_rayleigh_orthonormal_rows():
    s = make_unit_point_set(np.eye(6))
    assert statistic_rayleigh(s) == pytest.approx(0.0, abs=1e-12)


def test_bingham_orthogonal_pair():
    s = make_unit_point_set(np.eye(2))
    assert statistic_bingham(s) == pytest.approx(-0.5, abs=1e-12)


def test_bingham_identical_pair():
    p = 11
    row = np.zeros(p)
    row[2] = 1.0
    s = make_unit_point_set([row, row])
    assert statistic_bingham(s) == pytest.approx((p - 1) / 2.0, abs=1e-12)


def test_packing_orthonormal_frame():
    s = make_unit_point_set(np.eye(3))
    # max product 0, so the statistic is -4 log 3 + log log 3 = -4.3004
    want = -4.0 * math.log(3.0) + math.log(math.log(3.0))
    assert statistic_packing(s) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(-4.3004, abs=5e-4)


def test_packing_duplicate_point():
    p, n = 6, 4
    rows = np.eye(p)[:n].copy()
    rows[3] = rows[0]
    s = make_unit_point_set(rows)
    want = p - 4.0 * math.log(n) + math.log(math.log(n))
    assert statistic_packing(s) == pytest.approx(want, abs=1e-12)


def test_packing_needs_three_points():
    with pytest.raises(DomainError):
        statistic_packing(make_unit_point_set(np.eye(2)))


def test_packing_monotone_in_closest_pair():
    base = np.eye(5)[:4].copy()
    s1 = statistic_packing(make_unit_point_set(base))
    base[1] = [0.6, 0.8, 0, 0, 0]  # move a pair closer together
    s2 = statistic_packing(make_unit_point_set(base))
    assert s2 > s1


# ---------------------------------------------------------------------------
# projection statistic


def test_projection_single_value_formula():
    # the one-sample jump formula at a single observation
    v = 0.42
    m = null_inner_cdf(v, 9)
    assert sup_cdf_distance([v], [m]) == pytest.approx(max(1 - m, m), abs=1e-14)


def test_projection_all_points_on_direction():
    p = 4
    row = np.zeros(p)
    row[0] = 1.0
    s = make_unit_point_set([row] * 3)
    assert statistic_projection(s, row) == pytest.approx(1.0, abs=0)


def test_projection_requires_unit_direction():
    s = _rand_sample(5, 4, 0)
    with pytest.raises(DomainError):
        statistic_projection(s, np.ones(4))


# ---------------------------------------------------------------------------
# invariances


def test_all_statistics_rotation_invariant():
    rng = np.random.default_rng(3)
    s = _rand_sample(15, 8, 3)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    r = apply_rotation(s, q)
    u = rng.standard_normal(8)
    u /= np.linalg.norm(u)
    assert statistic_sup_distance(r) == pytest.approx(statistic_sup_distance(s), abs=1e-8)
    assert statistic_rayleigh(r) == pytest.approx(statistic_rayleigh(s), abs=1e-8)
    assert statistic_bingham(r) == pytest.approx(statistic_bingham(s), abs=1e-8)
    assert statistic_packing(r) == pytest.approx(statistic_packing(s), abs=1e-8)
    assert statistic_projection(r, q @ u) == pytest.approx(
        statistic_projection(s, u), abs=1e-8
    )


def test_all_statistics_permutation_invariant():
    from sphuni import UnitPointSet

    s = _rand_sample(12, 5, 4)
    perm = UnitPointSet(s.data[::-1])  # same rows, reordered, no renorm
    assert statistic_sup_distance(perm) == statistic_sup_distance(s)
    assert statistic_rayleigh(perm) == pytest.approx(statistic_rayleigh(s), abs=1e-14)
    assert statistic_bingham(perm) == pytest.approx(statistic_bingham(s), abs=1e-14)
    assert statistic_packing(perm) == statistic_packing(s)


# ---------------------------------------------------------------------------
# run_test


def test_run_test_sup_distance_rule_matches_critical_value():
    s = _rand_sample(20, 10, 5)
    out = run_test(s, "sup_distance", alpha=0.05)
    scale = math.sqrt(20 * 19 / 2.0)
    assert out.standardized == pytest.approx(scale * out.statistic, abs=1e-12)
    assert out.p_value == pytest.approx(float(kolmogorov_sf(out.standardized)), abs=1e-14)
    assert out.reject == (out.statistic >= sup_distance_critical_value(20, 0.05))


def test_run_test_rejects_degenerate_sample():
    s = make_unit_point_set([[1.0, 0.0]] * 6)
    out = run_test(s, "sup_distance", alpha=0.05)
    assert out.statistic == 1.0 and out.reject


def test_rayleigh_normal_quantile_pvalue():
    # standardized 1.6449 in the upper tail is the 5% point
    assert 1.0 - normal_cdf(1.6449) == pytest.approx(0.05, abs=1e-4)
    s = _rand_sample(30, 12, 6)
    out = run_test(s, "rayleigh", alpha=0.05, tail="upper")
    assert out.p_value == pytest.approx(1.0 - normal_cdf(out.statistic), abs=1e-14)
    out2 = run_test(s, "rayleigh", alpha=0.05, tail="two-sided")
    assert out2.p_value == pytest.approx(
        2.0 * (1.0 - normal_cdf(abs(out.statistic))), abs=1e-14
    )


def test_packing_pvalue_inverse_identity():
    crit = packing_gumbel_quantile(0.05)
    assert 1.0 - packing_gumbel_cdf(crit) == pytest.approx(0.05, abs=1e-10)


def test_projection_reproducible_with_direction():
    s = _rand_sample(25, 9, 7)
    u = np.zeros(9)
    u[1] = 1.0
    a = run_test(s, "projection", direction=u)
    b = run_test(s, "projection", direction=u)
    assert a.statistic == b.statistic
    assert a.p_value == pytest.approx(
        float(kolmogorov_sf(math.sqrt(25) * a.statistic)), abs=1e-14
    )


def test_bad_tail_rejected():
    s = _rand_sample(10, 5, 8)
    with pytest.raises(BadTailError):
        run_test(s, "sup_distance", tail="two-sided")
    with pytest.raises(BadTailError):
        run_test(s, "projection", tail="two-sided")
    with pytest.raises(BadTailError):
        run_test(s, "rayleigh", tail="lower")


def test_monte_carlo_needs_seed():
    s = _rand_sample(10, 5, 9)
    with pytest.raises(CalibrationUnavailableError):
        run_test(s, "rayleigh", calibration="monte-carlo")


def test_run_test_fails_before_any_work():
    # a bad calibration, mc_reps or mc_seed raises before projection draws
    # its direction, so the caller's rng is left as it was
    s = _rand_sample(10, 5, 15)
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(DomainError, match="calibration"):
        run_test(s, "projection", calibration="bootstrap", rng=rng)
    with pytest.raises(CalibrationUnavailableError):
        run_test(s, "projection", calibration="monte-carlo", rng=rng)
    with pytest.raises(DomainError, match="mc_seed"):
        run_test(s, "projection", calibration="monte-carlo", mc_seed=RngSeed(7, 3), rng=rng)
    # a negative seed ended in numpy's SeedSequence ValueError
    with pytest.raises(DomainError, match="mc_seed: must be >= 0, got -1"):
        run_test(s, "projection", calibration="monte-carlo", mc_seed=-1, rng=rng)
    with pytest.raises(DomainError, match="mc_seed: must be an integer, got 7.5"):
        run_test(s, "projection", calibration="monte-carlo", mc_seed=7.5, rng=rng)
    with pytest.raises(DomainError, match="mc_reps"):
        run_test(s, "projection", calibration="monte-carlo", mc_reps=0, mc_seed=7, rng=rng)
    assert rng.bit_generator.state == before


def test_monte_carlo_two_sided_packing_is_equal_tailed():
    # the packing null has median -2.49, so folding |.| about 0 gave
    # P(|T| >= 4) = 0.256 where the asymptotic two-sided p-value is 0.053
    n = 80
    u = np.random.default_rng(5).random(200_000)
    gumbel = -2.0 * np.log(-math.sqrt(8.0 * math.pi) * np.log(u))
    mc = p_values("packing", 4.0, n, "two-sided", gumbel)
    assert abs(mc - p_values("packing", 4.0, n, "two-sided")) <= 0.005


def test_monte_carlo_two_sided_p_value_counts_both_tails():
    null = np.arange(1.0, 10.0)  # R = 9
    # 2 at or below, 8 at or above: min(1, 2 min(9, 3) / 10)
    assert p_values("rayleigh", 2.0, 10, "two-sided", null) == 0.6
    assert p_values("rayleigh", 5.0, 10, "two-sided", null) == 1.0
    assert p_values("rayleigh", 0.0, 10, "two-sided", null) == 0.2
    assert p_values("rayleigh", 0.0, 10, "upper", null) == 1.0


def test_monte_carlo_mode_outcome():
    s = _rand_sample(10, 5, 10)
    statistics._null_memo.clear()
    out = run_test(s, "rayleigh", calibration="monte-carlo", mc_reps=400, mc_seed=11)
    assert 0.0 < out.p_value <= 1.0
    assert out.calibration == "monte-carlo(reps=400,seed=11)"
    statistics._null_memo.clear()
    again = run_test(s, "rayleigh", calibration="monte-carlo", mc_reps=400, mc_seed=11)
    assert out == again


def test_monte_carlo_outcome_is_labelled_by_its_master_seed():
    # 7 and RngSeed(7) name the same null law, so they give one outcome
    s = _rand_sample(10, 5, 10)
    out = run_test(s, "rayleigh", calibration="monte-carlo", mc_reps=100, mc_seed=7)
    assert out == run_test(s, "rayleigh", calibration="monte-carlo", mc_reps=100,
                           mc_seed=RngSeed(7))
    assert out.calibration == "monte-carlo(reps=100,seed=7)"


@pytest.mark.parametrize("method", METHODS)
def test_asymptotic_p_value_is_the_upper_tail_at_the_standardized_statistic(method):
    n = 30
    s = sample(Fvml(12, 2.0), n, RngSeed(14))
    out = run_test(s, method, rng=np.random.default_rng(3))
    scale = {"sup_distance": math.sqrt(n * (n - 1) / 2.0), "projection": math.sqrt(n)}
    assert out.standardized == scale.get(method, 1.0) * out.statistic
    assert statistics.NULL_LAWS[method].upper(out.standardized) == out.p_value


def test_run_test_computes_gram_once_per_sample(monkeypatch):
    calls = []

    def spy(s):
        calls.append(s)
        return pairwise_inner_products(s)

    monkeypatch.setattr(points, "pairwise_inner_products", spy)
    s = sample(Fvml(30, 4.0), 25, RngSeed(61))
    outs = {m: run_test(s, m) for m in _STAT_FUNCS}
    assert calls == [s]
    fresh = pairwise_inner_products(s)
    for m, out in outs.items():
        assert out.statistic == _STAT_FUNCS[m](s, fresh)


def test_outcome_csv_row():
    s = _rand_sample(10, 5, 12)
    out = run_test(s, "bingham")
    row = out.csv_row()
    assert row.startswith("bingham,")
    assert len(row.split(",")) == len(type(out).csv_header().split(","))


# ---------------------------------------------------------------------------
# Monte Carlo calibration


def test_calibrate_deterministic_and_edge():
    statistics._null_memo.clear()
    a = calibrate_critical_value_mc(10, 6, "rayleigh", 0.05, 1000, 13)
    statistics._null_memo.clear()
    b = calibrate_critical_value_mc(10, 6, "rayleigh", 0.05, 1000, 13)
    assert a == b
    mn = calibrate_critical_value_mc(10, 6, "rayleigh", 1.0, 1000, 13)
    assert mn <= a  # alpha = 1 returns the smallest observed value


def test_calibrate_sup_distance_matches_asymptotic():
    n = p = 80
    crit = calibrate_critical_value_mc(n, p, "sup_distance", 0.05, 5000, 17)
    asym = math.sqrt(2.0) * 1.36 / math.sqrt(n * (n - 1.0))
    assert abs(crit - asym) / asym <= 0.05


def test_null_statistics_one_pass_equals_each_method_alone():
    statistics._null_memo.clear()
    null = _null_statistics(10, 6, METHODS, 1000, 13)
    assert list(null) == list(METHODS)
    # scoring every method in one pass leaves each method's null law as it is alone
    for m in METHODS:
        statistics._null_memo.clear()
        alone = _null_statistics(10, 6, (m,), 1000, 13)[m]
        assert null[m].shape == (1000,)
        np.testing.assert_array_equal(alone, null[m])
    statistics._null_memo.clear()
    again = _null_statistics(10, 6, METHODS[::-1], 1000, RngSeed(13))
    for m in METHODS:
        np.testing.assert_array_equal(again[m], null[m])


def _scores(s, methods, rng) -> dict[str, float]:
    """Each of `methods` on one sample; projection draws its direction
    from `rng`, after whatever drew the sample."""
    return {
        meth: statistic_projection(s, sample_uniform_direction(s.p, rng))
        if meth == PROJECTION
        else _STAT_FUNCS[meth](s)
        for meth in methods
    }


def _replicate_one_by_one(model, n, methods, reps, rng_of):
    """The replication engine's reference: replication r scores
    `sample(model, n, rng_of(r))` by itself."""
    out = {m: np.empty(reps) for m in methods}
    for r in range(reps):
        rng = rng_of(r)
        for m, v in _scores(sample(model, n, rng), methods, rng).items():
            out[m][r] = v
    return out


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize(
    "model, n",
    [
        (Uniform(80), 80),
        (Fvml(100, 3.0), 64),
        (Watson(100, 10.0), 64),
        (LowRank(100, 10), 64),
        (CapMixture(100), 64),
        (AlphaSpherical(100, 1.0), 64),
        (Fvml(100, 3.0, _unit_mu(100, 5, 1.0)), 64),
        (Watson(100, 10.0, _unit_mu(100, 6, -1.0)), 64),
    ],
    ids=["uniform", "fvml", "watson", "lowrank", "capmixture", "alphaspherical",
         "fvml-mu", "watson-mu-negative"],
)
def test_replicate_equals_per_sample_loop(model, n, threads):
    # B replications share a block; reps cover one, a partial and several blocks
    block = statistics._REP_BLOCK_ELEMS // (n * max(n, model.p))
    assert block == 10
    for reps in (1, block - 1, block, block + 1, 2 * block + 3):
        def rng_of(r):
            return RngSeed(reps, r).generator()

        got = _replicate(model, n, METHODS, reps, rng_of, threads)
        want = _replicate_one_by_one(model, n, METHODS, reps, rng_of)
        assert list(got) == list(METHODS)
        for m in METHODS:
            assert np.array_equal(got[m], want[m]), (reps, m)


def test_replicate_block_of_one_allocates_no_sample_sized_temporary():
    # at n = 400, p = 600 a block holds one replication; its workspace is
    # allocated once per call, and the draw, normalisation and statistics
    # allocate nothing as large as one n x p array besides
    model, n, p = Watson(600, 190.19), 400, 600
    methods = ("sup_distance", "rayleigh", "bingham")
    def rng_of(r):
        return RngSeed(3, r).generator()

    _replicate(model, n, methods, 1, rng_of)  # fill the lru caches
    workspace = 8 * (n * p + n * (p - 1) + n * n + n * (n - 1) // 2 + p + len(methods))
    tracemalloc.start()
    try:
        _replicate(model, n, methods, 1, rng_of)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - workspace < 8 * n * p, (peak, workspace)


@pytest.mark.parametrize("threads", [0, -2])
def test_null_statistics_rejects_threads_below_one(threads):
    with pytest.raises(DomainError, match=f"threads: need >= 1, got {threads}"):
        _null_statistics(10, 6, ("rayleigh",), 100, 1, threads)


def test_null_statistics_rejects_seed_stream():
    s = _rand_sample(10, 6, 14)
    with pytest.raises(DomainError, match="mc_seed"):
        run_test(s, "rayleigh", calibration="monte-carlo", mc_reps=100, mc_seed=RngSeed(7, 3))
    with pytest.raises(DomainError, match="mc_seed"):
        calibrate_critical_value_mc(10, 6, "rayleigh", 0.05, 1000, RngSeed(7, 1))
    with pytest.raises(DomainError, match="unknown method"):
        calibrate_critical_value_mc(10, 6, "gini", 0.05, 1000, 7)
    a = run_test(s, "rayleigh", calibration="monte-carlo", mc_reps=100, mc_seed=RngSeed(7))
    b = run_test(s, "rayleigh", calibration="monte-carlo", mc_reps=100, mc_seed=7)
    assert (a.p_value, a.reject) == (b.p_value, b.reject)


# ---------------------------------------------------------------------------
# the null memo


@pytest.fixture
def null_passes(monkeypatch):
    """An empty null memo of the default budget, and the methods of every
    `_replicate` pass that `_null_statistics` makes from here on."""
    monkeypatch.setattr(statistics, "_null_memo", statistics._NullMemo(statistics._NULL_MEMO_ELEMS))
    passes = []
    replicate = statistics._replicate

    def spy(model, n, methods, *args):
        passes.append(tuple(methods))
        return replicate(model, n, methods, *args)

    monkeypatch.setattr(statistics, "_replicate", spy)
    return passes


def test_null_statistics_memo_repeated_run_test_makes_no_pass(null_passes):
    s = _rand_sample(10, 6, 21)
    kw = dict(calibration="monte-carlo", mc_reps=300, mc_seed=8)
    first = run_test(s, "sup_distance", **kw)
    assert null_passes == [("sup_distance",)]
    assert run_test(s, "sup_distance", **kw) == first
    assert run_test(_rand_sample(10, 6, 22), "sup_distance", **kw).calibration == first.calibration
    assert null_passes == [("sup_distance",)]


def test_null_statistics_memo_scores_only_the_missing_methods(null_passes):
    s = _rand_sample(10, 6, 23)
    run_test(s, "sup_distance", calibration="monte-carlo", mc_reps=300, mc_seed=8)
    requests = (("sup_distance", "upper"), ("rayleigh", "upper"))
    _run_tests(s, requests, 0.05, "monte-carlo", None, 300, 8, None)
    assert null_passes == [("sup_distance",), ("rayleigh",)]


def test_null_statistics_memo_arrays_are_read_only(null_passes):
    fresh = _null_statistics(10, 6, METHODS, 200, 4)
    kept = _null_statistics(10, 6, METHODS, 200, 4)
    assert len(null_passes) == 1
    for m in METHODS:
        assert kept[m] is fresh[m]
        assert not kept[m].flags.writeable
        with pytest.raises(ValueError):
            kept[m][0] = 0.0


def test_null_statistics_memo_key_is_the_master_seed_without_threads(null_passes):
    null = _null_statistics(10, 6, ("rayleigh", "packing"), 200, 13, threads=2)
    seeded = _null_statistics(10, 6, ("packing", "rayleigh"), 200, RngSeed(13), threads=1)
    assert len(null_passes) == 1
    assert all(seeded[m] is null[m] for m in null)
    assert list(seeded) == ["packing", "rayleigh"]
    # n, p, reps and the seed each name another law
    for n, p, reps, seed in ((11, 6, 200, 13), (10, 7, 200, 13), (10, 6, 201, 13), (10, 6, 200, 14)):
        _null_statistics(n, p, ("rayleigh",), reps, seed)
    assert len(null_passes) == 5


def test_null_statistics_memo_evicts_the_least_recently_used(monkeypatch, null_passes):
    monkeypatch.setattr(statistics, "_null_memo", statistics._NullMemo(2500))

    def law(seed, reps=1000):
        before = len(null_passes)
        out = _null_statistics(10, 6, ("rayleigh",), reps, seed)["rayleigh"]
        return out, len(null_passes) > before

    one, scored = law(1)
    assert scored
    assert law(2)[1]
    again, scored = law(1)  # 1 is now more recent than 2
    assert again is one and not scored
    assert law(3)[1]  # 3000 floats over a budget of 2500: 2 goes
    big, scored = law(1, reps=3000)  # larger than the budget: returned, not kept
    assert scored and big.shape == (3000,) and not big.flags.writeable
    assert law(1, reps=3000)[1]
    assert not law(1)[1] and not law(3)[1]
    assert law(2)[1]


def test_null_statistics_memo_p_values_equal_a_cold_recomputation():
    s = _rand_sample(12, 7, 24)
    requests = tuple((m, t) for m in METHODS for t in statistics.NULL_LAWS[m].tails)
    direction = sample_uniform_direction(7, np.random.default_rng(3))

    def outcomes():
        return _run_tests(s, requests, 0.1, "monte-carlo", direction, 400, 19, None)

    def crits():
        return {m: calibrate_critical_value_mc(12, 7, m, 0.1, 1000, 19) for m in METHODS}

    statistics._null_memo.clear()
    outcomes(), crits()
    kept, crit = outcomes(), crits()
    statistics._null_memo.clear()
    assert outcomes() == kept
    for m in METHODS:
        statistics._null_memo.clear()
        assert calibrate_critical_value_mc(12, 7, m, 0.1, 1000, 19) == crit[m]


def test_null_statistics_memo_under_racing_threads(monkeypatch):
    # more threads than cores, switching often: the memo's size stays the
    # sum of what it holds and within its budget, and racers on one key
    # get the same floats
    memo = statistics._NullMemo(50)
    monkeypatch.setattr(statistics, "_null_memo", memo)
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = threading.Barrier(8)

        def churn(t):
            start.wait(timeout=60)
            for i in range(5000):
                key = (t, i % 7)
                if not memo.get([key]):
                    memo.put(key, np.full(1 + i % 7, float(t)))

        with futures.ThreadPoolExecutor(8) as pool:
            list(pool.map(churn, range(8), timeout=60))
            laws = list(pool.map(lambda _: _null_statistics(9, 5, METHODS, 30, 3)["rayleigh"],
                                 range(8), timeout=60))
    finally:
        sys.setswitchinterval(before)
    kept = memo._laws.values()
    assert memo._size == sum(a.size for a in kept) <= memo.budget
    assert all(np.array_equal(a, laws[0]) for a in laws)
