import math

import numpy as np
import pytest
from scipy import special

from sphuni import (
    DomainError,
    fvml_log_normalizer,
    fvml_marginal,
    kolmogorov_quantile,
    kolmogorov_sf,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    null_coordinate_marginal,
    null_inner_cdf,
    packing_gumbel_cdf,
    packing_gumbel_quantile,
    watson_marginal,
)
from sphuni import distributions


# ---------------------------------------------------------------------------
# incomplete beta, through null_inner_cdf(t, p) = I_{(1+t)/2}((p-1)/2, (p-1)/2)


def gauss_legendre_beta_cdf(x, a, b, panels=64, order=40):
    """Independent oracle: composite Gauss-Legendre quadrature of the
    Beta(a, b) density with a log-space prefactor."""
    if x == 0.0:
        return 0.0
    logc = special.gammaln(a + b) - special.gammaln(a) - special.gammaln(b)
    xs, ws = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, x, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        t = (hi + lo) / 2 + (hi - lo) / 2 * xs
        w = (hi - lo) / 2 * ws
        total += np.sum(w * np.exp(logc + (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)))
    return total


def test_beta_symmetric_half():
    for p in (2, 3, 16, 100, 4001):  # a = 0.5, 1, 7.5, 49.5, 2000
        assert null_inner_cdf(0.0, p) == pytest.approx(0.5, abs=1e-13)


def test_beta_uniform_case():
    # p = 3: a = b = 1, so I_x is x itself; t = 0.5 is x = 0.75
    assert null_inner_cdf(0.5, 3) == pytest.approx(0.75, abs=1e-14)


def test_beta_against_quadrature_oracle():
    got = null_inner_cdf(0.2, 100)  # I_0.6(49.5, 49.5)
    want = gauss_legendre_beta_cdf(0.6, 49.5, 49.5)
    assert got == pytest.approx(want, abs=1e-10)


def test_beta_endpoints_and_domain():
    assert null_inner_cdf(-1.0, 7) == 0.0
    assert null_inner_cdf(1.0, 7) == 1.0
    with pytest.raises(DomainError):
        null_inner_cdf(1.5, 7)
    with pytest.raises(DomainError):
        null_inner_cdf(0.5, 1)


# ---------------------------------------------------------------------------
# null inner-product CDF


def test_null_cdf_symmetry_point():
    for p in (2, 3, 10, 100, 10000):
        assert null_inner_cdf(0.0, p) == pytest.approx(0.5, abs=1e-13)


def test_null_cdf_p3_is_uniform():
    # (p-3)/2 = 0 makes the inner-product density uniform on [-1, 1]
    assert null_inner_cdf(0.5, 3) == pytest.approx(0.75, abs=1e-14)


def test_null_cdf_against_density_quadrature():
    # direct quadrature of c_p (1-rho^2)^{(p-3)/2} on [-1, t]
    p, t = 100, 0.1
    logc = special.gammaln(p / 2) - special.gammaln((p - 1) / 2) - 0.5 * math.log(math.pi)
    xs, ws = np.polynomial.legendre.leggauss(60)
    edges = np.linspace(-1.0, t, 65)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        x = (hi + lo) / 2 + (hi - lo) / 2 * xs
        w = (hi - lo) / 2 * ws
        total += np.sum(w * np.exp(logc + (p - 3) / 2 * np.log1p(-x * x)))
    assert null_inner_cdf(t, p) == pytest.approx(total, abs=1e-10)


def test_null_cdf_monotone_and_reflective():
    t = np.linspace(-1, 1, 501)
    for p in (2, 5, 80, 1000):
        vals = null_inner_cdf(t, p)
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[0] == 0.0 and vals[-1] == 1.0
        np.testing.assert_allclose(vals + null_inner_cdf(-t, p), 1.0, atol=1e-12)


def test_null_cdf_clamps_tiny_overshoot_only():
    assert null_inner_cdf(1.0 + 5e-13, 10) == 1.0
    with pytest.raises(DomainError):
        null_inner_cdf(1.1, 10)


def _count_pools(monkeypatch):
    """Count the thread pools null_inner_cdf starts, with their sizes."""
    started = []
    real = distributions.futures.ThreadPoolExecutor

    def pool(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(distributions.futures, "ThreadPoolExecutor", pool)
    return started


@pytest.mark.parametrize("workers", [None, 1, 3])
@pytest.mark.parametrize(
    "shape", [(distributions._CDF_SPLIT - 1,), (distributions._CDF_SPLIT,), (455, 4656)]
)
def test_null_cdf_split_is_betainc_bit_for_bit(shape, workers, monkeypatch):
    # below the threshold one slice on the calling thread; from it on one
    # contiguous slice per worker, with every value betainc's own float
    if workers is not None:
        monkeypatch.setattr(distributions, "_CDF_WORKERS", workers)
    started = _count_pools(monkeypatch)
    p = 999
    rng = np.random.default_rng(list(shape))
    t = np.clip(rng.standard_normal(shape) * 3.0 / math.sqrt(p), -1.0, 1.0)
    t.flat[:3] = -1.0, 1.0, 1.0 + 5e-13
    t.flat[-1] = np.nan
    a = (p - 1) / 2.0
    got = null_inner_cdf(t, p)
    assert got.shape == shape
    assert np.array_equal(got, special.betainc(a, a, np.clip((1 + t) / 2, 0, 1)), equal_nan=True)
    assert np.isnan(got.flat[-1]) and got.flat[2] == 1.0
    split = t.size >= distributions._CDF_SPLIT and distributions._CDF_WORKERS > 1
    assert started == ([distributions._CDF_WORKERS] if split else [])
    if t.ndim == 2:  # a Fortran-ordered view is sliced in C order too
        assert np.array_equal(null_inner_cdf(t.T, p), got.T, equal_nan=True)


def test_null_cdf_scalar_and_nan_pass_through():
    assert type(null_inner_cdf(0.3, 10)) is float
    assert math.isnan(null_inner_cdf(math.nan, 10))
    assert null_inner_cdf(np.zeros((2, 3)), 10).shape == (2, 3)


def test_null_cdf_rejects_out_of_range_before_any_worker(monkeypatch):
    monkeypatch.setattr(distributions, "_CDF_WORKERS", 3)
    started = _count_pools(monkeypatch)
    t = np.zeros(2 * distributions._CDF_SPLIT)
    t[-1] = 1.1
    with pytest.raises(DomainError):
        null_inner_cdf(t, 50)
    assert started == []


def test_null_cdf_normal_approx_improves_with_p():
    u = np.linspace(-5, 5, 2001)
    gap100 = np.max(np.abs(null_inner_cdf(u / 10.0, 100) - normal_cdf(u)))
    gap400 = np.max(np.abs(null_inner_cdf(u / 20.0, 400) - normal_cdf(u)))
    assert gap400 <= gap100 / 2.0  # O(1/p) correction


# ---------------------------------------------------------------------------
# Kolmogorov distribution


def test_kolmogorov_sf_value_at_136():
    # series evaluates to 0.0494859 here; cross-checked against an
    # independent implementation of the same law
    assert kolmogorov_sf(1.36) == pytest.approx(0.04948588, abs=1e-7)
    assert kolmogorov_sf(1.36) == pytest.approx(float(special.kolmogorov(1.36)), abs=1e-14)


def test_kolmogorov_sf_one_term_dominance():
    assert kolmogorov_sf(3.0) == pytest.approx(2.0 * math.exp(-18.0), rel=1e-6)


def test_kolmogorov_sf_array_equals_scalar():
    # each value's series stops at its own first term below 1e-16
    xs = np.concatenate([[0.0, 1e-3, 40.0], np.linspace(0.0, 5.0, 26000)])
    got = kolmogorov_sf(xs)
    want = np.array([kolmogorov_sf(float(x)) for x in xs])
    assert np.array_equal(got, want)


def test_kolmogorov_sf_tail_and_convention():
    assert kolmogorov_sf(40.0) == 0.0
    assert kolmogorov_sf(0.0) == 1.0
    with pytest.raises(DomainError):
        kolmogorov_sf(-0.5)


def test_kolmogorov_quantile_at_005():
    # the classical two-decimal critical value is 1.36
    assert kolmogorov_quantile(0.05) == pytest.approx(1.36, abs=0.005)
    assert kolmogorov_quantile(0.05) == pytest.approx(1.3580986, abs=1e-6)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.10])
def test_kolmogorov_inverse_identity(alpha):
    assert kolmogorov_sf(kolmogorov_quantile(alpha)) == pytest.approx(alpha, abs=1e-9)


def test_kolmogorov_quantile_matches_series_root():
    # independent bracketed root solve on the series
    from scipy.optimize import brentq

    want = brentq(lambda x: kolmogorov_sf(x) - 0.10, 0.3, 3.0, xtol=1e-12)
    assert kolmogorov_quantile(0.10) == pytest.approx(want, abs=1e-9)


def test_kolmogorov_sf_strictly_decreasing_and_inverse_on_range():
    xs = np.linspace(0.5, 2.5, 21)
    vals = [kolmogorov_sf(x) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    for x in xs:
        assert kolmogorov_quantile(kolmogorov_sf(x)) == pytest.approx(x, abs=1e-9)


# ---------------------------------------------------------------------------
# normal law


def test_normal_basics():
    assert normal_cdf(0.0) == 0.5
    assert normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)
    assert normal_quantile(0.5) == 0.0
    assert normal_cdf(normal_quantile(0.975)) == pytest.approx(0.975, abs=1e-12)
    with pytest.raises(DomainError):
        normal_quantile(0.0)
    with pytest.raises(DomainError):
        normal_quantile(1.0)


# ---------------------------------------------------------------------------
# packing Gumbel null


def test_packing_gumbel_quantile_005():
    assert packing_gumbel_quantile(0.05) == pytest.approx(2.716219, abs=1e-3)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
def test_packing_gumbel_inverse_identity(alpha):
    x = packing_gumbel_quantile(alpha)
    assert packing_gumbel_cdf(x) == pytest.approx(1.0 - alpha, abs=1e-12)


def test_packing_gumbel_monotone_to_minus_infinity():
    alphas = np.linspace(0.05, 0.999, 40)
    q = [packing_gumbel_quantile(a) for a in alphas]
    assert all(b < a for a, b in zip(q, q[1:]))
    # the quantile keeps falling (logarithmically) as alpha -> 1
    assert packing_gumbel_quantile(1.0 - 1e-12) < q[-1] - 2.0


# ---------------------------------------------------------------------------
# FvML normalizer


def test_fvml_log_normalizer_zero():
    assert fvml_log_normalizer(0.0, 50) == 0.0


def test_fvml_log_normalizer_gaussian_bound():
    # |log C_p(k) + k^2/(2p)| <= k^4/(2 p^3): the bound the Bessel-ratio
    # inequality |I_{p/2}/I_{p/2-1} - t/p| <= 2 t^3/p^3 integrates to
    for p in (50, 200, 1000):
        for kappa in (1.0, 3.0, 10.0, p / 4.0):
            lhs = abs(fvml_log_normalizer(kappa, p) + kappa**2 / (2.0 * p))
            assert lhs <= kappa**4 / (2.0 * p**3) * (1 + 1e-6)


def test_fvml_log_normalizer_two_rule_cross_check():
    # second, independent rule: 50-digit tanh-sinh quadrature
    import mpmath

    p, kappa = 200, 10.0
    mpmath.mp.dps = 50
    integral = mpmath.quad(
        lambda t: mpmath.exp(kappa * t) * (1 - t * t) ** ((p - 3) / 2.0), [-1, 0, 1]
    )
    logc = (
        mpmath.loggamma(p / 2.0)
        - mpmath.loggamma((p - 1) / 2.0)
        - mpmath.log(mpmath.pi) / 2
    )
    want = float(-(logc + mpmath.log(integral)))
    assert fvml_log_normalizer(kappa, p) == pytest.approx(want, abs=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kappa", [0.5, 1.0, 5.0])
def test_fvml_log_normalizer_p3_closed_form(kappa):
    # at p = 3, mu.X is uniform on [-1, 1] under the null, so
    # E exp(kappa T) = sinh(kappa) / kappa
    want = -math.log(math.sinh(kappa) / kappa)
    assert fvml_log_normalizer(kappa, 3) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("kappa", [0.5, 5.0])
def test_fvml_mode_at_p3_is_the_end_point(kappa):
    # at p = 3 the density exp(kappa t) increases on [-1, 1]
    assert fvml_marginal(kappa, 3).modes == (1.0 - 1e-9,)


def test_fvml_log_normalizer_domain():
    with pytest.raises(DomainError):
        fvml_log_normalizer(-1.0, 50)
    with pytest.raises(DomainError):
        fvml_log_normalizer(1.0, 2)


# ---------------------------------------------------------------------------
# coordinate marginals


def test_null_marginal_second_moment_is_one_over_p():
    for p in (5, 60, 600):
        marg = null_coordinate_marginal(p)
        assert marg.moment(2) == pytest.approx(1.0 / p, rel=1e-10)
        # Beta identity: E T^4 = 3 / (p (p+2))
        assert marg.moment(4) == pytest.approx(3.0 / (p * (p + 2.0)), rel=1e-9)
        assert marg.moment(1) == 0.0


def test_watson_moment_band_600_150():
    marg = watson_marginal(150.0, 600)
    p, kappa = 600, 150.0
    delta = p / 2.0 - kappa
    r = kappa / delta
    m2 = marg.moment(2)
    assert abs(m2 - (1 + r) / p) <= 5.0 * (1 + r) ** 3 / p**2


@pytest.mark.parametrize("p,kappa", [(600, 150.0), (3000, 951.0)])
def test_watson_first_moment_identity(p, kappa):
    # integrating d/dt [t e^{k t^2} (1-t^2)^{(p-1)/2}] over [-1, 1]
    # forces 1 - 2 delta E T^2 - 2 kappa E T^4 = 0 exactly
    marg = watson_marginal(kappa, p)
    delta = p / 2.0 - kappa
    resid = 1.0 - 2.0 * delta * marg.moment(2) - 2.0 * kappa * marg.moment(4)
    assert abs(resid) <= 1e-8


def test_watson_normalizer_ratio_stable_across_p():
    # tilt normalizer scales like sqrt(p / delta_p) at fixed kappa/p;
    # the ratio should be stable in p and close to its chi-square limit
    # (1 - 2c)^{-1/2} * sqrt(delta/p) = sqrt(2)/2 at c = 1/4
    ratios = []
    for p in (200, 800, 3200):
        kappa = p / 4.0
        delta = p / 2.0 - kappa
        z = watson_marginal(kappa, p).tilt_normalizer
        ratios.append(z * math.sqrt(delta / p))
    assert max(ratios) / min(ratios) <= 1.1
    assert ratios[-1] == pytest.approx(math.sqrt(2.0) / 2.0, rel=0.05)


def test_marginal_logpdf_normalized():
    marg = watson_marginal(150.0, 600)
    t = np.linspace(-0.999999, 0.999999, 20001)
    dens = np.exp(marg.logpdf(t))
    mass = np.trapezoid(dens, t)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_marginal_moment_domain():
    marg = null_coordinate_marginal(10)
    with pytest.raises(DomainError):
        marg.moment(9)


# the normaliser is computed on first use, with the floats recorded when it
# was computed at construction
@pytest.mark.parametrize("marg, want", [
    (lambda: fvml_marginal(4.0, 30), (
        "1.3027659473998032",
        ["-25.528270550035145", "-7.933275143426519", "-1.9815934308046124",
         "0.4916007420571458", "0.4184065691953887", "-3.1332751434265167",
         "-18.328270550035143"],
        "0.048957214653857994")),
    (lambda: watson_marginal(25.0, 40), (
        "6.0259868194335215",
        ["-11.363175844309708", "-0.1459599167349247", "-0.38439608832712746",
         "-0.8896485181091628", "-0.3843960883271277", "-0.14595991673492292",
         "-11.363175844309708"],
        "0.19565480636601268")),
    (lambda: null_coordinate_marginal(20), (
        "0.9999999999999989",
        ["-13.576086141624533", "-3.2533112559820654", "-0.26151165914605",
         "0.5401291163595016", "-0.26151165914604924", "-3.253311255982064",
         "-13.576086141624533"],
        "0.050000000000000024")),
], ids=["fvml", "watson", "null"])
def test_lazy_normalizer_keeps_its_floats(marg, want):
    m = marg()
    logpdf = [repr(float(v)) for v in m.logpdf(np.linspace(-0.9, 0.9, 7))]
    assert (repr(m.tilt_normalizer), logpdf, repr(m.moment(2))) == want


def test_fvml_log_normalizer_keeps_its_float():
    assert repr(fvml_log_normalizer(4.0, 30)) == "-0.2644896560677475"


def test_table_and_pair_grid_run_no_quadrature(monkeypatch):
    from sphuni import asymptotics, samplers

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(distributions, "log_quad", no_quadrature)
    # (p, kappa) pairs no other test builds, so every cache starts empty
    samplers._marginal_table(37, 2.75, 1)
    samplers._marginal_table(41, 3.25, 2)
    asymptotics._pair_grid(43, 1.75, 1)
    asymptotics._pair_grid(47, 2.25, 2)
    with pytest.raises(AssertionError, match="quadrature ran"):
        fvml_marginal(2.75, 37).tilt_normalizer


@pytest.mark.parametrize("make", [
    lambda: fvml_marginal(1.0, 2),
    lambda: watson_marginal(1.0, 2),
    lambda: fvml_marginal(-1.0, 10),
    lambda: watson_marginal(-0.5, 10),
], ids=["fvml-p2", "watson-p2", "fvml-negative-kappa", "watson-negative-kappa"])
def test_marginal_checks_its_arguments_at_construction(make):
    with pytest.raises(DomainError):
        make()
