import math

import numpy as np
import pytest

from sphuni import (
    AlphaSpherical,
    CapMixture,
    DomainError,
    Fvml,
    LowRank,
    RngSeed,
    ShiftFunction,
    Uniform,
    Watson,
    competitor_low_rank_power,
    distance_from_uniformity,
    estimate_distance_mc,
    fvml_llr_second_moment,
    fvml_marginal,
    model_inner_cdf,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    null_inner_cdf,
    predict_asymptotic_power,
    sample,
    simulate_bridge_sup,
    watson_marginal,
)
from sphuni import asymptotics

SQRT2PI = math.sqrt(2 * math.pi)


# ---------------------------------------------------------------------------
# shift functions


def test_shifts_vanish_at_endpoints():
    for kind in ("fvml", "quadratic"):
        s = ShiftFunction(kind, 1.7)
        assert s.value(0.0) == 0.0
        assert s.value(1.0) == 0.0


def test_fvml_shift_at_half():
    s = ShiftFunction("fvml", 1.0)
    assert s.value(0.5) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-12)
    assert s.value(0.5) == pytest.approx(0.28209, abs=5e-6)


def test_quadratic_shift_value_and_max():
    s = ShiftFunction("quadratic", 1.0)
    t1 = float(normal_cdf(1.0))
    assert s.value(t1) == pytest.approx(normal_pdf(1.0) / (2 * math.sqrt(2)), abs=1e-12)
    assert s.value(t1) == pytest.approx(0.0855496, abs=1e-6)
    # |u phi(u)| peaks at u = 1, so the global max is tau/(4 sqrt(pi e))
    t = np.linspace(0, 1, 20001)
    got = np.max(np.abs(s.value(t)))
    assert got == pytest.approx(1.0 / (4.0 * math.sqrt(math.pi * math.e)), abs=1e-6)


def test_shift_validation():
    with pytest.raises(DomainError):
        ShiftFunction("cubic", 1.0)
    with pytest.raises(DomainError):
        ShiftFunction("fvml", 1.0).value(1.5)


# ---------------------------------------------------------------------------
# model inner-product CDF


def test_model_cdf_null_reduction_kappa_zero():
    for model in (Fvml(400, 0.0), Watson(400, 0.0)):
        for u in (-2.0, 0.0, 2.0):
            want = null_inner_cdf(u / 20.0, 400)
            assert model_inner_cdf(model, u) == pytest.approx(want, abs=1e-8)


def test_model_cdf_quadrature_route_matches_null_identity():
    # force the 2-D quadrature with a vanishingly small tilt: it must
    # reproduce the exact p-dimensional null CDF
    p = 400
    u = np.array([-2.0, 0.0, 2.0])
    got = model_inner_cdf(Watson(p, 1e-12), u)
    want = null_inner_cdf(u / math.sqrt(p), p)
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_model_cdf_lowrank_closed_form():
    model = LowRank(100, 100)
    u = np.linspace(-3, 3, 7)
    np.testing.assert_allclose(
        model_inner_cdf(model, u), null_inner_cdf(u / 10.0, 100), atol=0
    )
    model2 = LowRank(100, 40)
    np.testing.assert_allclose(
        model_inner_cdf(model2, u), null_inner_cdf(u / 10.0, 40), atol=0
    )


def test_model_cdf_monotone_and_bounded():
    model = Watson(600, 150.0)
    u = np.linspace(-8, 8, 512)
    vals = model_inner_cdf(model, u)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all((vals >= 0) & (vals <= 1))


def test_watson_cdf_matches_sampler_monte_carlo():
    p, kappa, u = 600, 150.0, 0.5
    want = model_inner_cdf(Watson(p, kappa), u)
    m, block = 200000, 10000
    rng = RngSeed(211).generator()
    model = Watson(p, kappa)
    hits = 0
    for _ in range(m // block):
        xs = sample(model, 2 * block, rng).data
        ip = np.sum(xs[:block] * xs[block:], axis=1)
        hits += int(np.sum(math.sqrt(p) * ip <= u))
    est = hits / m
    se = math.sqrt(est * (1 - est) / m)
    assert abs(want - est) <= 3.0 * se


def _full_grid_cdf(u, p, kappa, power):
    """The tilted CDF on the full 96 x 96 (T, T') grid, one betainc per
    ordered node pair, reduced in the product code's 455-row blocks."""
    marg = fvml_marginal(kappa, p) if power == 1 else watson_marginal(kappa, p)
    t, wt = asymptotics._pair_nodes(marg)
    alpha = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    prod = np.multiply.outer(t, t).ravel()
    scale = np.multiply.outer(alpha, alpha).ravel()
    weight = np.multiply.outer(wt, wt).ravel()
    block = (1 << 22) // 9216
    out = np.empty(len(u))
    for b0 in range(0, len(u), block):
        ub = u[b0 : b0 + block, None]
        arg = np.clip((ub / math.sqrt(p) - prod[None, :]) / scale[None, :], -1.0, 1.0)
        out[b0 : b0 + block] = null_inner_cdf(arg, p - 1) @ weight
    return out


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("p", [5, 60, 1000])
def test_tilted_cdf_equals_full_grid(power, p):
    # the grid is stored once per unordered node pair; the result must
    # be == to the full ordered-pair grid for 1 and 17 rows, one block
    # plus one row, and two blocks plus one row
    kappa = p**0.75 / 2.0
    for rows in (1, 17, 456, 911):
        u = np.linspace(-6.0, 6.0 + math.sqrt(p) * 0.1, rows) if rows > 1 else np.array([0.3])
        got = asymptotics._tilted_inner_cdf(u, p, kappa, power)
        assert np.array_equal(got, _full_grid_cdf(u, p, kappa, power)), (power, p, rows)


def test_tilted_cdf_evaluates_each_unordered_pair_once(monkeypatch):
    uprod, uscale, lut, weight = asymptotics._pair_grid(60, 3.0, 1)
    assert uprod.shape == uscale.shape == (96 * 97 // 2,)
    assert lut.shape == weight.shape == (96 * 96,)
    pair = lut.reshape(96, 96)
    assert np.array_equal(pair, pair.T)
    assert np.array_equal(np.unique(lut), np.arange(96 * 97 // 2))
    shapes = []
    real = asymptotics.null_inner_cdf

    def spy(t, p):
        shapes.append(np.shape(t))
        return real(t, p)

    monkeypatch.setattr(asymptotics, "null_inner_cdf", spy)
    asymptotics._tilted_inner_cdf(np.linspace(-3.0, 3.0, 500), 60, 3.0, 1)
    assert shapes == [(455, 4656), (45, 4656)]


# ---------------------------------------------------------------------------
# distance from uniformity


def test_distance_pinned_value():
    # recorded before the quadrature grid was halved to unordered pairs
    assert repr(distance_from_uniformity(Fvml(200, 1.0))) == "0.00014121682313905648"


def _full_grid_distance(model, grid_size=4096, tol=1e-8):
    """The distance search with the gap evaluated on every point of the
    initial grid: the reference the block-pruned search must equal."""
    p = model.p

    def gap(u):
        return np.abs(
            np.asarray(model_inner_cdf(model, u))
            - null_inner_cdf(np.clip(u / math.sqrt(p), -1, 1), p)
        )

    lo, hi = asymptotics._u_window(model)
    u = np.linspace(lo, hi, grid_size)
    g = gap(u)
    best_i = int(np.argmax(g))
    best, u_star = float(g[best_i]), float(u[best_i])
    h = (hi - lo) / (grid_size - 1)
    for _ in range(60):
        uu = np.linspace(u_star - h, u_star + h, 17)
        gg = gap(uu)
        j = int(np.argmax(gg))
        improved = float(gg[j]) - best
        if gg[j] > best:
            best, u_star = float(gg[j]), float(uu[j])
        h /= 4.0
        if improved < tol and h < 1e-6 * (hi - lo):
            break
    return best


@pytest.mark.parametrize(
    "model, grid_size",
    [
        (Fvml(3, 1.0), 4096),
        (Fvml(5, 0.01), 4096),
        (Fvml(5, 2.0), 4096),
        (Watson(5, 0.05), 4096),
        (Watson(5, 3.0), 4096),
        (Fvml(60, 0.05), 4096),
        (Fvml(60, 5.0), 4096),
        (Watson(60, 0.1), 4096),
        (Watson(60, 4.0), 4096),
        # p = 200 costs twice as much per row; 1024 rows are 2 full blocks
        # and a partial one
        (Fvml(200, 0.1), 1024),
        (Watson(200, 10.0), 1024),
        (LowRank(300, 200), 4096),
        (LowRank(50, 5), 4096),
        (Uniform(300), 4096),
    ],
    ids=repr,
)
def test_distance_equals_full_grid_search(model, grid_size):
    got = distance_from_uniformity(model, grid_size=grid_size)
    assert got == _full_grid_distance(model, grid_size)


@pytest.mark.parametrize("model", [Fvml(5, 0.5), LowRank(40, 30)], ids=repr)
@pytest.mark.parametrize("grid_size", [64, 455, 456, 911, 4096])
def test_distance_equals_full_grid_search_at_block_edges(model, grid_size):
    # one partial block, one exact block, a block plus one row, two
    # blocks plus one row, and the default grid
    got = distance_from_uniformity(model, grid_size=grid_size)
    assert got == _full_grid_distance(model, grid_size)


def _grid_blocks(model, grid_size, calls):
    """(start, rows) of the calls in `calls` that evaluate a contiguous
    slice of the distance search's initial grid."""
    u = np.linspace(*asymptotics._u_window(model), grid_size)
    blocks = []
    for c in calls:
        b0 = int(np.searchsorted(u, c[0]))
        if len(c) <= grid_size - b0 and np.array_equal(u[b0 : b0 + len(c)], c):
            blocks.append((b0, len(c)))
    return blocks


def _spy_tilted_cdf(monkeypatch, nan_between=None):
    """Record the u of every `_tilted_inner_cdf` call; optionally return
    NaN for the u in the closed interval `nan_between`."""
    real = asymptotics._tilted_inner_cdf
    calls = []

    def spy(u, p, kappa, power):
        calls.append(np.array(u))
        out = real(u, p, kappa, power)
        if nan_between is not None:
            out[(u >= nan_between[0]) & (u <= nan_between[1])] = np.nan
        return out

    monkeypatch.setattr(asymptotics, "_tilted_inner_cdf", spy)
    return calls


def test_distance_evaluates_whole_blocks_near_the_maximum(monkeypatch):
    model = Fvml(200, 1.0)
    calls = _spy_tilted_cdf(monkeypatch)
    assert repr(distance_from_uniformity(model)) == "0.00014121682313905648"
    block = asymptotics._GRID_BLOCK
    assert block == 455
    # the first call brackets the 10 blocks at both ends, in one call
    assert len(calls[0]) == 20
    blocks = _grid_blocks(model, 4096, calls)
    assert blocks and len(blocks) <= 3
    for b0, rows in blocks:
        assert b0 % block == 0
        assert rows == block or b0 + rows == 4096
    # everything else is the refinement's 17-point windows
    assert all(len(c) == 17 for c in calls[1 + len(blocks) :])


def test_distance_evaluates_a_block_whose_bracket_is_nan(monkeypatch):
    # block 0 is a tail block that the brackets prune; with its model CDF
    # NaN it must be evaluated, and the search returns the full grid's NaN
    model, block = Fvml(5, 0.5), asymptotics._GRID_BLOCK
    calls = _spy_tilted_cdf(monkeypatch)
    distance_from_uniformity(model)
    assert 0 not in [b0 for b0, _ in _grid_blocks(model, 4096, calls)]
    monkeypatch.undo()
    u = np.linspace(*asymptotics._u_window(model), 4096)
    calls = _spy_tilted_cdf(monkeypatch, nan_between=(u[0], u[block - 1]))
    got = distance_from_uniformity(model)
    assert (0, block) in _grid_blocks(model, 4096, calls)
    # a NaN gap is returned from the grid pass, with no refinement window
    assert not any(len(c) == 17 for c in calls)
    assert repr(got) == repr(_full_grid_distance(model)) == "nan"


@pytest.mark.parametrize("grid_size", [1, 0, -5])
def test_distance_rejects_small_grid(grid_size):
    with pytest.raises(DomainError, match=f"grid_size must be >= 2, got {grid_size}"):
        distance_from_uniformity(Fvml(50, 1.0), grid_size=grid_size)


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")])
def test_distance_rejects_nonpositive_tol(tol):
    with pytest.raises(DomainError, match="tol must be > 0"):
        distance_from_uniformity(Fvml(50, 1.0), tol=tol)


def test_distance_zero_signal():
    assert distance_from_uniformity(Fvml(300, 0.0)) <= 1e-7
    assert distance_from_uniformity(LowRank(300, 300)) <= 1e-7
    assert distance_from_uniformity(Uniform(300)) <= 1e-7


def test_fvml_distance_near_limit():
    n = p = 500
    kappa = p**0.75 / math.sqrt(n)  # tau = 1
    nd = n * distance_from_uniformity(Fvml(p, kappa))
    assert nd == pytest.approx(1.0 / SQRT2PI, rel=0.10)


def test_distance_rejects_mc_only_models():
    with pytest.raises(DomainError):
        distance_from_uniformity(CapMixture(100))
    with pytest.raises(DomainError):
        distance_from_uniformity(AlphaSpherical(100, 1.0))


def test_mc_distance_uniform_small():
    d = estimate_distance_mc(Uniform(64), 10**6, RngSeed(223))
    assert d <= 0.0035  # KS sampling error ~ 0.87/sqrt(M) plus slack


def test_mc_distance_cap_mixture_large():
    d = estimate_distance_mc(CapMixture(2000), 10**5, RngSeed(227))
    assert d >= 0.4


def test_mc_distance_alpha_spherical_large():
    d = estimate_distance_mc(AlphaSpherical(2000, 1.0), 10**5, RngSeed(229))
    assert d >= 0.3  # limit is 1 - Phi(1/2) = 0.3085


def test_mc_distance_needs_enough_pairs():
    with pytest.raises(DomainError):
        estimate_distance_mc(Uniform(10), 100, RngSeed(0))


# ---------------------------------------------------------------------------
# shifted bridge simulation


def test_bridge_null_exceedance_at_classical_critical_value():
    law = simulate_bridge_sup(None, grid_size=2048, reps=20000, seed=0)
    assert abs(law.exceedance(1.36) - 0.05) <= 0.01


def test_bridge_null_mean_sup_after_grid_bias():
    # the grid max under-estimates the continuous sup by about
    # |zeta(1/2)|/sqrt(2 pi g); correcting for it recovers
    # E sup |B| = sqrt(pi/2) log 2 = 0.86873
    want = math.sqrt(math.pi / 2.0) * math.log(2.0)
    bias = 0.5826
    for g in (2048, 8192):
        law = simulate_bridge_sup(None, grid_size=g, reps=20000, seed=0)
        assert float(np.mean(law.sups)) + bias / math.sqrt(g) == pytest.approx(
            want, abs=0.005
        )


def test_bridge_null_ks_to_kolmogorov_series():
    from sphuni import kolmogorov_cdf, sup_cdf_distance

    ks = {}
    for g in (2048, 8192):
        law = simulate_bridge_sup(None, grid_size=g, reps=20000, seed=0)
        ks[g] = sup_cdf_distance(law.sups, kolmogorov_cdf(law.sups))
    # grid bias of order 1/sqrt(g) dominates: ~0.022 at g = 2048
    assert ks[2048] <= 0.03
    assert ks[8192] < ks[2048]


def test_bridge_exceedance_monotone_in_tau():
    for kind in ("fvml", "quadratic"):
        rates = [
            predict_asymptotic_power(ShiftFunction(kind, tau), 0.05, reps=4000, seed=5)
            for tau in (0.5, 1.0, 2.0)
        ]
        assert rates[0] <= rates[1] <= rates[2]


def test_predict_power_null_reduction():
    assert abs(predict_asymptotic_power(None, 0.05, reps=20000, seed=0) - 0.05) <= 0.01
    tiny = ShiftFunction("fvml", 1e-4)
    assert abs(predict_asymptotic_power(tiny, 0.05, reps=20000, seed=0) - 0.05) <= 0.01


def test_predict_power_regression_baselines():
    # pinned from 1e5-replication runs (grid 2048, seed 0):
    # fvml tau=2 -> 0.6726, quadratic tau=8 -> 0.2913
    got = predict_asymptotic_power(ShiftFunction("fvml", 2.0), 0.05, reps=20000, seed=0)
    assert got == pytest.approx(0.6726, abs=0.015)
    assert 0.05 < got < 1.0
    got8 = predict_asymptotic_power(ShiftFunction("quadratic", 8.0), 0.05, reps=20000, seed=0)
    assert got8 == pytest.approx(0.2913, abs=0.015)


def test_predict_power_reproducible():
    a = predict_asymptotic_power(ShiftFunction("fvml", 2.0), 0.05, reps=2000, seed=42)
    b = predict_asymptotic_power(ShiftFunction("fvml", 2.0), 0.05, reps=2000, seed=42)
    assert a == b


def test_bridge_argument_validation():
    with pytest.raises(DomainError):
        simulate_bridge_sup(None, grid_size=100, reps=2000)
    with pytest.raises(DomainError):
        simulate_bridge_sup(None, grid_size=1024, reps=10)


# ---------------------------------------------------------------------------
# likelihood-ratio second moment


def test_llr_kappa_zero_is_one():
    assert fvml_llr_second_moment(100, 100, 0.0) == 1.0


def test_llr_second_moment_near_limit():
    n = p = 500
    kappa = p**0.75 / math.sqrt(n)  # tau = 1
    val = fvml_llr_second_moment(n, p, kappa)
    assert math.exp(0.5) * 0.90 <= val <= math.exp(0.5) * 1.10


def test_llr_monotone_in_kappa():
    n = p = 200
    vals = [fvml_llr_second_moment(n, p, k) for k in (0.0, 1.0, 2.0, 4.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(v >= 1.0 for v in vals)  # second moment of a mean-one variable


def test_llr_overflow_guard():
    with pytest.raises(DomainError):
        fvml_llr_second_moment(2000, 50, 40.0)


# ---------------------------------------------------------------------------
# closed-form competitor power (low-rank alternative)


def test_bingham_low_rank_power_formula():
    # tau = n(1 - k/p) = 4 gives 1 - Phi(z_.05 - 2) = 0.639
    n, p = 80, 80
    k = round(p * (1 - 4.0 / n))
    got = competitor_low_rank_power("bingham", n, p, k, 0.05)
    want = 1.0 - normal_cdf(normal_quantile(0.95) - 2.0)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.639, abs=2e-3)


def test_rayleigh_two_sided_full_rank_is_alpha():
    assert competitor_low_rank_power("rayleigh2sided", 100, 50, 50, 0.05) == pytest.approx(
        0.05, abs=1e-12
    )


def test_bingham_zero_signal_is_alpha():
    assert competitor_low_rank_power("bingham", 100, 50, 50, 0.05) == pytest.approx(
        0.05, abs=1e-12
    )


def test_packing_full_rank_is_alpha():
    assert competitor_low_rank_power("packing", 100, 50, 50, 0.05) == pytest.approx(
        0.05, abs=1e-12
    )
