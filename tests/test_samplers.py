import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from sphuni import (
    AlphaSpherical,
    CapMixture,
    DomainError,
    Fvml,
    LowRank,
    RngSeed,
    Uniform,
    Watson,
    build_simplex_frame,
    null_inner_cdf,
    pairwise_inner_products,
    sample,
    sample_uniform_direction,
    signal_model,
    watson_marginal,
)
from sphuni.samplers import _cap_block, _draw_block, _marginal_table


def _null_cdf_callable(p):
    return lambda t: null_inner_cdf(np.clip(t, -1, 1), p)


def _draw_rows(model, n, rng):
    """`sample`'s n rows from `model`, before it normalises them: a block of one."""
    return _draw_block(model, n, [rng], np.empty((1, n, model.p)))[0]


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_bit_identical():
    a = sample(Fvml(30, 4.0), 50, RngSeed(123, 7))
    b = sample(Fvml(30, 4.0), 50, RngSeed(123, 7))
    np.testing.assert_array_equal(a.data, b.data)


def test_different_stream_differs():
    a = sample(Uniform(10), 20, RngSeed(123, 0))
    b = sample(Uniform(10), 20, RngSeed(123, 1))
    assert not np.array_equal(a.data, b.data)


# sha256 of the float64 bytes, recorded with numpy 2.4.6 and scipy 1.17.1
# (x86-64, the OpenBLAS numpy bundles) before the samplers and the
# pairwise layer were rewritten to work in place; a rewrite must leave
# every stream where it was.  FvML, Watson, rotated low-rank and the
# pairwise values pass through BLAS, whose kernels may round differently
# on another CPU family.
_STREAM_DIGESTS = {
    "Uniform": "f528cff637424688c5a4ba92b89d21222aef9c2165ef3febf94cb3740e2f2a81",
    "Fvml": "2d42f6840d8adfbde8edb11bb5e1aa0e2a9bc6aea6a12733f58c1706bf71591e",
    "Watson": "549af5f89ba87c5c9343f24ca1bf2608c64c174065abb436e311ad7c2d863099",
    "LowRank": "2538b628c279e97c550ac9d75f11b8a380f1d70d29ee01999f3236e0bc32bbf5",
    "AlphaSpherical": "bf22f2a48833b8b8e0f1923bf13710e43a34c42624734a958a6c6059020987a6",
    "CapMixture": "573578ec998601497e150013ada71fc04743090e0c8e7f35d70d589f12ddfa9f",
}
_PAIRWISE_DIGEST = "9e78f7c9db558d9e08cd9928e0b2e3781e317e070f7abc2d86c8c4a5c860348b"


def _digest(arr):
    return hashlib.sha256(arr.tobytes()).hexdigest()


def test_sample_streams_unchanged():
    models = (Uniform(25), Fvml(25, 6.0), Watson(25, 8.0), LowRank(25, 5, rotate=True),
              AlphaSpherical(25, 1.2), CapMixture(25))
    got = {type(m).__name__: _digest(sample(m, 40, RngSeed(2024, 3)).data) for m in models}
    assert got == _STREAM_DIGESTS
    ip = pairwise_inner_products(sample(Fvml(25, 6.0), 40, RngSeed(2024, 3)))
    assert _digest(ip.values) == _PAIRWISE_DIGEST


def _unit_mu(p, seed, first_sign):
    """A unit mean direction whose first coordinate has the sign `first_sign`,
    which picks the tilt's Householder reflection."""
    mu = np.random.default_rng(seed).standard_normal(p)
    mu[0] = first_sign * abs(mu[0])
    return mu / np.linalg.norm(mu)


_BLOCK_MODELS = [
    Uniform(30),
    Fvml(30, 6.0),
    Watson(30, 8.0),
    Fvml(30, 6.0, _unit_mu(30, 1, 1.0)),
    Watson(30, 8.0, _unit_mu(30, 2, -1.0)),  # mu[0] < 0: the other reflection
    LowRank(30, 5, rotate=True),
    LowRank(30, 5),
    AlphaSpherical(30, 1.2),
    CapMixture(30),
]


@pytest.mark.parametrize("model", _BLOCK_MODELS,
                         ids=["uniform", "fvml", "watson", "fvml-mu", "watson-mu-negative",
                              "lowrank", "lowrank-unrotated", "alphaspherical", "capmixture"])
def test_draw_block_equals_blocks_of_one(model):
    # sample k of a block is a block of one bit for bit, and leaves its
    # generator where a block of one does: the next projection direction
    # drawn from it is the same too
    b, n, p = 4, 17, model.p
    rngs = [RngSeed(31, k).generator() for k in range(b)]
    block = _draw_block(model, n, rngs, np.empty((b, n, p)), np.empty((b, n, p - 1)))
    for k, rng in enumerate(rngs):
        one = RngSeed(31, k).generator()
        assert np.array_equal(block[k], _draw_rows(model, n, one)), k
        assert np.array_equal(sample_uniform_direction(p, rng),
                              sample_uniform_direction(p, one)), k


@pytest.mark.parametrize("model", [AlphaSpherical(600, 1.0), CapMixture(600)],
                         ids=["alphaspherical", "capmixture"])
def test_draw_block_allocates_less_than_one_sample(model):
    # the draws go straight into the block and the transforms run on it
    # in place: besides `out`, a block of one allocates less than one
    # n x p array (1.92 MB at n = 400, p = 600)
    n, p = 400, model.p
    out = np.empty((1, n, p))
    _draw_block(model, n, [RngSeed(5).generator()], out)  # fill the lru caches
    tracemalloc.start()
    try:
        _draw_block(model, n, [RngSeed(6).generator()], out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * p, peak


def test_sample_normalises_its_own_block_in_place():
    s = sample(Watson(30, 8.0), 20, RngSeed(4))
    rows = _draw_rows(Watson(30, 8.0), 20, RngSeed(4).generator())
    assert np.array_equal(s.data, rows / np.linalg.norm(rows, axis=1)[:, None])
    assert not s.data.flags.writeable


def test_sample_requires_two_points():
    with pytest.raises(DomainError):
        sample(Uniform(5), 1, RngSeed(0))


# ---------------------------------------------------------------------------
# uniform draws


def test_uniform_direction_unit_norm():
    rng = RngSeed(5).generator()
    for p in (2, 3, 17, 400):
        x = sample_uniform_direction(p, rng)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12


def test_uniform_first_coordinate_follows_null_cdf():
    p = 6
    rng = RngSeed(11).generator()
    draws = np.array([sample_uniform_direction(p, rng)[0] for _ in range(20000)])
    res = stats.kstest(draws, _null_cdf_callable(p))
    assert res.pvalue > 0.01


def test_uniform_p2_angle_uniform():
    rng = RngSeed(13).generator()
    xs = sample(Uniform(2), 20000, rng).data
    ang = np.arctan2(xs[:, 1], xs[:, 0]) % (2 * math.pi)
    counts, _ = np.histogram(ang, bins=16, range=(0, 2 * math.pi))
    res = stats.chisquare(counts)
    assert res.pvalue > 0.01


def test_uniform_mean_vector_small():
    xs = sample(Uniform(3), 100000, RngSeed(17)).data
    assert np.linalg.norm(xs.mean(axis=0)) <= 0.02


def test_fvml_kappa_zero_matches_uniform():
    p, m = 25, 10000
    rng = RngSeed(19).generator()
    a = sample(Fvml(p, 0.0), 2 * m, rng).data
    b = sample(Uniform(p), 2 * m, rng).data
    ip_a = np.sum(a[:m] * a[m:], axis=1)
    ip_b = np.sum(b[:m] * b[m:], axis=1)
    assert stats.ks_2samp(ip_a, ip_b).pvalue > 0.01


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fvml_and_watson_sample_at_p3():
    # at p = 3 the coordinate density is exp(kappa t^power) on [-1, 1]
    # with no (1 - t^2) factor: FvML's E[mu.X] is coth(kappa) - 1/kappa,
    # and Watson's E[(mu.X)^2] is a ratio of two 1-D integrals
    m = 2000
    t = sample(Fvml(3, 1.0), m, RngSeed(1)).data[:, 0]
    want = 1.0 / math.tanh(1.0) - 1.0
    assert abs(t.mean() - want) <= 3.0 * np.std(t, ddof=1) / math.sqrt(m)
    t2 = sample(Watson(3, 0.6), m, RngSeed(1)).data[:, 0] ** 2
    num, _ = integrate.quad(lambda s: s * s * math.exp(0.6 * s * s), -1.0, 1.0)
    den, _ = integrate.quad(lambda s: math.exp(0.6 * s * s), -1.0, 1.0)
    assert abs(t2.mean() - num / den) <= 3.0 * np.std(t2, ddof=1) / math.sqrt(m)


# ---------------------------------------------------------------------------
# tangent-normal draws


def test_watson_projection_moment_matches_quadrature():
    p, kappa, m = 600, 150.0, 100000
    mu = np.zeros(p)
    mu[0] = 1.0
    marg = watson_marginal(kappa, p)
    xs = _draw_rows(Watson(p, kappa, mu), m, RngSeed(23).generator())
    t2 = (xs @ mu) ** 2
    want = marg.moment(2)
    se = np.std(t2, ddof=1) / math.sqrt(m)
    assert abs(t2.mean() - want) <= 3.0 * se


def test_watson_projection_ks_against_quadrature_marginal():
    # empirical law of mu.X vs the tabulated marginal CDF: KS <= 2/sqrt(M)
    p, kappa, m = 600, 150.0, 100000
    mu = np.zeros(p)
    mu[0] = 1.0
    xs = _draw_rows(Watson(p, kappa, mu), m, RngSeed(97).generator())
    proj = np.sort(xs @ mu)
    tbl = _marginal_table(p, kappa, 2)
    cdf_at = np.interp(proj, tbl.knots, tbl.cdf)
    i = np.arange(1, m + 1)
    ks = max(np.max(i / m - cdf_at), np.max(cdf_at - (i - 1) / m))
    assert ks <= 2.0 / math.sqrt(m)


def test_fvml_kappa_zero_projection_follows_null_coordinate_law():
    p, m = 40, 20000
    mu = np.zeros(p)
    mu[3] = 1.0
    xs = _draw_rows(Fvml(p, 0.0, mu), m, RngSeed(29).generator())
    res = stats.kstest(xs @ mu, _null_cdf_callable(p))
    assert res.pvalue > 0.01


def test_tangent_component_rotation_invariant():
    p, m = 30, 40000
    mu = np.zeros(p)
    mu[0] = 1.0
    xs = _draw_rows(Fvml(p, 6.0, mu), m, RngSeed(31).generator())
    # projections onto two fixed orthogonal tangent directions
    a, b = xs[:, 1], xs[:, 2]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(m)
    assert abs(a.mean()) <= 3.0 * a.std(ddof=1) / math.sqrt(m)


def test_tangent_normal_unit_and_mu_checked():
    p = 12
    mu = np.zeros(p)
    mu[0] = 1.0
    xs = _draw_rows(Fvml(p, 3.0, mu), 100, RngSeed(37).generator())
    np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, atol=1e-12)
    with pytest.raises(DomainError):
        Fvml(p, 3.0, mu * 2)


def test_negative_mu_first_coordinate_householder_branch():
    p = 9
    mu = np.zeros(p)
    mu[0] = -1.0
    xs = _draw_rows(Fvml(p, 5.0, mu), 4000, RngSeed(41).generator())
    np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, atol=1e-12)
    assert (xs @ mu).mean() > 0.2  # concentrates around mu, not -mu


# ---------------------------------------------------------------------------
# low-rank draws


def test_lowrank_full_rank_is_null():
    p, m = 30, 10000
    rng = RngSeed(43).generator()
    a = _draw_rows(LowRank(p, p), 2 * m, rng)
    ip = np.sum(a[:m] * a[m:], axis=1)
    assert stats.kstest(ip, _null_cdf_callable(p)).pvalue > 0.01


def test_lowrank_pairs_follow_k_dimensional_law():
    p, k, m = 50, 10, 10000
    rng = RngSeed(47).generator()
    a = _draw_rows(LowRank(p, k), 2 * m, rng)
    ip = np.sum(a[:m] * a[m:], axis=1)
    assert stats.kstest(ip, _null_cdf_callable(k)).pvalue > 0.01


def test_lowrank_embedding_zeros():
    xs = _draw_rows(LowRank(20, 7), 200, RngSeed(53).generator())
    assert np.all(xs[:, 7:] == 0.0)
    np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, atol=1e-12)


def test_lowrank_rotate_preserves_inner_products():
    s1 = sample(LowRank(20, 5, rotate=False), 40, RngSeed(59))
    s2 = sample(LowRank(20, 5, rotate=True), 40, RngSeed(59))
    assert not np.array_equal(s1.data, s2.data)
    # same underlying k-sphere law either way
    v1 = pairwise_inner_products(s1).values
    v2 = pairwise_inner_products(s2).values
    assert stats.ks_2samp(v1, v2).pvalue > 1e-4


# ---------------------------------------------------------------------------
# alpha-spherical draws


def test_alpha_spherical_unit_norm():
    xs = _draw_rows(AlphaSpherical(100, 1.0), 500, RngSeed(61).generator())
    np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, atol=1e-12)


def test_alpha_spherical_inner_product_stabilizes():
    # p^{1/alpha} X.Y has a nondegenerate limit: its median magnitude
    # should be of the same order at p = 500 and p = 2000
    meds = []
    for p in (500, 2000):
        rng = RngSeed(67).generator()
        m = 2000
        xs = _draw_rows(AlphaSpherical(p, 1.0), 2 * m, rng)
        ip = np.abs(p * np.sum(xs[:m] * xs[m:], axis=1))
        meds.append(np.median(ip))
    assert meds[0] / meds[1] < 3.0
    assert meds[1] / meds[0] < 3.0


def test_alpha_spherical_sign_symmetric():
    p, m = 300, 4000
    rng = RngSeed(71).generator()
    xs = _draw_rows(AlphaSpherical(p, 1.2), 2 * m, rng)
    signs = np.sign(np.sum(xs[:m] * xs[m:], axis=1))
    frac = np.mean(signs > 0)
    assert abs(frac - 0.5) <= 3.0 * 0.5 / math.sqrt(m)


# ---------------------------------------------------------------------------
# simplex frame and cap mixture


def test_simplex_frame_p3():
    frame = build_simplex_frame(3)
    assert frame.shape == (4, 3)
    gram = frame @ frame.T
    np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-12)
    off = gram[~np.eye(4, dtype=bool)]
    np.testing.assert_allclose(off, -1.0 / 3.0, atol=1e-10)


def test_simplex_frame_gram_eigenvalues():
    p = 40
    frame = build_simplex_frame(p)
    eig = np.sort(np.linalg.eigvalsh(frame @ frame.T))
    assert abs(eig[0]) < 1e-10
    np.testing.assert_allclose(eig[1:], (p + 1) / p, atol=1e-10)


def test_simplex_frame_sums_to_zero():
    frame = build_simplex_frame(17)
    assert np.linalg.norm(frame.sum(axis=0)) < 1e-10


def test_cap_mixture_geometry():
    p = 50
    eps = 1.0 / (4.0 * p)
    frame = build_simplex_frame(p)
    xs = _cap_block(eps, [RngSeed(73).generator()], np.empty((1, 2000, p)), frame)[0]
    # recover labels: caps are far narrower than the frame separation
    labels = np.argmax(xs @ frame.T, axis=1)
    align = np.einsum("ij,ij->i", xs, frame[labels])
    assert np.all(np.arccos(np.clip(align, -1, 1)) <= eps)
    # pairwise bounds, every pair of 2000 draws
    gram = xs @ xs.T
    same = labels[:, None] == labels[None, :]
    iu = np.triu_indices(len(xs), k=1)
    g, s = gram[iu], same[iu]
    assert np.all(g[s] >= math.cos(2 * eps))
    assert np.all(np.abs(g[~s] + 1.0 / p) <= 2 * eps)


def test_cap_mixture_tiny_default_width():
    model = CapMixture(200)
    assert model.eps == 1.0 / 800.0
    xs = sample(model, 50, RngSeed(79))
    np.testing.assert_allclose(np.linalg.norm(xs.data, axis=1), 1.0, atol=1e-12)


def test_cap_mixture_moderate_width():
    # wider caps exercise the non-flat part of the rim density
    p, eps = 120, 0.3
    frame = build_simplex_frame(p)
    xs = _cap_block(eps, [RngSeed(83).generator()], np.empty((1, 1000, p)), frame)[0]
    labels = np.argmax(xs @ frame.T, axis=1)
    align = np.einsum("ij,ij->i", xs, frame[labels])
    assert np.all(np.arccos(np.clip(align, -1, 1)) <= eps * (1 + 1e-12))


# ---------------------------------------------------------------------------
# model validation


def test_model_validation():
    with pytest.raises(DomainError):
        Fvml(10, -1.0)
    with pytest.raises(DomainError):
        Watson(2, 1.0)
    with pytest.raises(DomainError):
        LowRank(10, 1)
    with pytest.raises(DomainError):
        LowRank(10, 11)
    with pytest.raises(DomainError):
        AlphaSpherical(10, 2.0)
    with pytest.raises(DomainError):
        CapMixture(10, 1.0)
    mu_bad = np.ones(10)
    with pytest.raises(DomainError):
        Fvml(10, 1.0, mu_bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model", [Fvml, Watson])
@pytest.mark.parametrize("kappa", [math.nan, math.inf, -1.0])
def test_tilt_rejects_a_kappa_that_is_not_finite_and_nonnegative(model, kappa):
    # NaN passed `kappa < 0` and failed later inside the normaliser's
    # quadrature, with an error that named no field
    with pytest.raises(DomainError, match="kappa"):
        model(10, kappa)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model, p, kappa, why", [
    # the marginal's window is too narrow for the inverse-CDF table: FvML
    # failed inside scipy's PCHIP with non-finite slopes, Watson with
    # fewer than two knots
    (Fvml, 50, 1e12, "finite inverse CDF"),
    (Watson, 50, 1e12, "not a finite positive number"),
    # the peaks near +-1 are ~1/kappa wide; merging zero-mass cells left one
    # inside a cell whose 16-point rule missed it, and every draw came out
    # on one side (at p = 3 the normaliser's quadrature raised first)
    (Watson, 3, 3.16e7, "lost"),
    (Watson, 50, 3.16e7, "lost"),
])
def test_too_concentrated_tilt_raises_domain_error_naming_p_and_kappa(model, p, kappa, why):
    with pytest.raises(DomainError, match=rf"p={p}, kappa={re.escape(str(kappa))} .*{why}"):
        sample(model(p, kappa), 4, 0)


@pytest.mark.parametrize("family, n, p, tau", [("fvml", 80, 80, 1.0), ("watson", 400, 600, 2.0)])
def test_inverse_cdf_table_error_after_five_passes(family, n, p, tau):
    # the table's own CDF at the inverse of every cell's mid-level, against
    # quad from the window's start, for the power-small and power-large
    # tables: the build stops after five passes, and these are the errors
    # it left (1.2e-8 and 1.3e-8 inside [1e-3, 1 - 1e-3], 1.69e-6 and
    # 1.73e-6 in the widest tail cells), not _TABLE_TOL = 1e-10
    model = signal_model(family, n, p, tau)
    tbl = _marginal_table(p, model.kappa, model.power)
    log_unnorm = model.marginal.log_unnorm
    levels = 0.5 * (tbl.cdf[1:] + tbl.cdf[:-1])
    t = np.concatenate([[tbl.lo], tbl(levels), [tbl.hi]])
    shift = float(np.max(log_unnorm(t)))
    mass = np.cumsum([
        integrate.quad(lambda x: math.exp(float(log_unnorm(x)) - shift), a, b,
                       epsabs=0.0, epsrel=1e-12)[0]
        for a, b in zip(t[:-1], t[1:])
    ])
    err = np.abs(mass[:-1] / mass[-1] - levels)
    inner = (levels > 1e-3) & (levels < 1.0 - 1e-3)
    assert np.max(err[inner]) < 2e-8
    assert np.max(err) < 2e-6


@pytest.mark.parametrize("kappa", [2e5, 1e6, 5e6])
def test_watson_p3_concentrated_table_matches_the_closed_form(kappa):
    # at p = 3 the Watson coordinate law exp(kappa t^2) has the CDF
    # 1/2 + sign(t)/2 exp(kappa (t^2 - 1)) F(sqrt(kappa)|t|) / F(sqrt(kappa)),
    # F the Dawson function; these tables build without a normaliser
    from scipy import special

    tbl = _marginal_table(3, kappa, 2)
    t, s = tbl.knots, math.sqrt(kappa)
    exact = 0.5 + 0.5 * np.sign(t) * np.exp(kappa * (t * t - 1.0)) * special.dawsn(
        s * np.abs(t)) / special.dawsn(s)
    assert np.max(np.abs(tbl.cdf - exact)) < 1e-5
