import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from sphuni import (
    ConfigError,
    ExperimentConfig,
    Fvml,
    InRegimeError,
    LowRank,
    ParseError,
    RngSeed,
    Uniform,
    Watson,
    export_csv,
    load_config,
    run_nonlocal_experiment,
    run_null_distribution_check,
    run_power_curve,
    run_size_experiment,
    run_test,
    sample,
    signal_model,
)
from sphuni import harness, statistics
from sphuni.harness import _CONFIG_FIELDS, NonlocalResult, _calibration_seed, _cell_rng
from sphuni.statistics import (
    METHODS,
    NULL_LAWS,
    calibrate_critical_value_mc,
    p_values,
)
from test_statistics import _scores


def _cfg(**over):
    base = dict(
        n=30,
        p=30,
        alpha=0.05,
        reps=150,
        model_family="fvml",
        signal_grid=(1.0, 2.0),
        methods=("sup_distance", "rayleigh"),
        seed=77,
    )
    base.update(over)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config and signal maps


def test_config_json_roundtrip(tmp_path):
    cfg = _cfg(tails={"rayleigh": "two-sided"})
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    back = load_config(path)
    assert back == cfg


def test_config_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 30, "p": ,}')
    with pytest.raises(ParseError, match="line 1"):
        load_config(path)


def test_config_missing_and_unknown_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 30}))
    with pytest.raises(ParseError, match="missing field 'p'"):
        load_config(path)
    cfg = json.loads(_cfg().to_json())
    cfg["bogus"] = 1
    path.write_text(json.dumps(cfg))
    with pytest.raises(ParseError, match="bogus"):
        load_config(path)


def test_config_wrong_type_names_field(tmp_path):
    cfg = json.loads(_cfg().to_json())
    cfg["reps"] = "many"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ParseError, match="'reps'"):
        load_config(path)


@pytest.mark.parametrize("field, value", [
    ("signal_grid", ["x", 1.0]),
    ("signal_grid", [None]),
    ("signal_grid", ["1.5"]),
    ("signal_grid", [True, 2.0]),
    ("n", True),
    ("p", True),
    ("reps", False),
    ("seed", True),
    ("alpha", True),
])
def test_config_entry_not_a_json_number_names_field(tmp_path, field, value):
    # float() and the int check let these through: "1.5" and true ran as
    # 1.5 and 1, and a string or null in the grid raised ValueError or TypeError
    cfg = json.loads(_cfg().to_json())
    cfg[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ParseError, match=f"field '{field}'"):
        load_config(path)


@pytest.mark.parametrize("grid", [("x", 1.0), (None,), ("1.5",), (True, 2.0)])
def test_config_signal_grid_entries_must_be_numbers(grid):
    with pytest.raises(ConfigError, match="field signal_grid: "):
        _cfg(signal_grid=grid)
    assert _cfg(signal_grid=(1, np.float64(2.5))).signal_grid == (1.0, 2.5)


def test_config_json_fields_are_the_dataclass_fields():
    assert list(_CONFIG_FIELDS) == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_config_hash_pinned():
    path = Path(__file__).resolve().parent.parent / "configs" / "fvml_fig1.json"
    # 73dc0c13869abff6 while the config carried "output_path": null; the
    # CSV's path is no part of the experiment, so it left the hashed JSON
    assert load_config(path).config_hash() == "d5e0acfe431e44b6"


def test_config_invariants():
    with pytest.raises(ConfigError, match="reps"):
        _cfg(reps=50)
    with pytest.raises(ConfigError, match="signal_grid"):
        _cfg(signal_grid=())
    with pytest.raises(ConfigError, match="signal_grid"):
        _cfg(signal_grid=(2.0, 1.0))
    with pytest.raises(ConfigError, match="methods"):
        _cfg(methods=("nope",))
    with pytest.raises(ConfigError, match="alpha"):
        _cfg(alpha=1.5)
    # a negative seed ended in numpy's SeedSequence ValueError
    with pytest.raises(ConfigError, match="field seed: must be >= 0, got -1"):
        _cfg(seed=-1)
    # a float seed was truncated, so 1.5 drew the seed-1 curve, and a
    # string seed raised TypeError from the sign check
    for seed in (1.5, True, "3"):
        with pytest.raises(ConfigError, match=f"field seed: must be an integer, got {seed!r}"):
            _cfg(seed=seed)
    with pytest.raises(ConfigError, match="field seed: must be an integer, got 1.5"):
        run_null_distribution_check(10, 10, 100, 1.5)


def test_config_tails_key_must_be_a_method():
    with pytest.raises(ConfigError, match="field tails: 'bingham'"):
        _cfg(tails={"rayleigh": "upper", "bingham": "upper"})


def test_config_tails_value_must_be_known():
    # "lower" used to be accepted and silently run upper-tailed
    with pytest.raises(ConfigError, match="field tails: rayleigh .*'lower'"):
        _cfg(tails={"rayleigh": "lower"})


def test_config_tails_two_sided_only_where_allowed():
    with pytest.raises(ConfigError, match="field tails: sup_distance is upper-tailed"):
        _cfg(tails={"sup_distance": "two-sided"})


def test_config_packing_needs_three_points():
    with pytest.raises(ConfigError, match="field n"):
        _cfg(n=2, methods=("packing",))
    _cfg(n=2, methods=("rayleigh",))


def test_signal_maps():
    m = signal_model("fvml", 80, 80, 1.0)
    assert isinstance(m, Fvml)
    assert m.kappa == pytest.approx(80**0.75 / math.sqrt(80), rel=1e-12)
    assert isinstance(signal_model("fvml", 80, 80, 0.0), Uniform)

    w = signal_model("watson", 400, 600, 1.0)
    assert isinstance(w, Watson)
    # the map inverts the scaling relation n k^2 / (p (p/2-k)^2) = tau
    tau_back = 400 * w.kappa**2 / (600 * (300 - w.kappa) ** 2)
    assert tau_back == pytest.approx(1.0, rel=1e-12)

    lr = signal_model("lowrank", 80, 80, 4.0)
    assert isinstance(lr, LowRank) and lr.k == 76
    assert isinstance(signal_model("lowrank", 80, 80, 0.0), LowRank)
    assert signal_model("lowrank", 80, 80, 0.0).k == 80


def test_signal_map_out_of_regime():
    with pytest.raises(InRegimeError):
        signal_model("lowrank", 10, 10, 9.5)  # k would fall below 2
    with pytest.raises(ConfigError):
        signal_model("capmixture", 10, 300, 1.0)


@pytest.mark.parametrize("family", ["fvml", "watson", "lowrank"])
@pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
def test_signal_map_rejects_bad_tau(family, tau):
    with pytest.raises(ConfigError, match="field signal_grid: tau must be finite"):
        signal_model(family, 10, 10, tau)


def test_watson_marginal_regime_warns():
    with pytest.warns(UserWarning, match="marginal"):
        signal_model("watson", 1000, 100, 0.5)


# ---------------------------------------------------------------------------
# size and null-distribution checks


def test_size_experiment_at_alpha_half():
    cfg = _cfg(n=80, p=80, alpha=0.5, reps=5000, model_family="uniform",
               signal_grid=(0.0,), methods=("sup_distance",), seed=101)
    curve = run_size_experiment(cfg)
    rate = curve.rate(0.0, "sup_distance")
    assert 0.46 <= rate <= 0.54


def test_size_experiment_deterministic():
    cfg = _cfg(model_family="uniform", signal_grid=(0.0,), reps=150)
    a = run_size_experiment(cfg)
    b = run_size_experiment(cfg)
    assert a.cells == b.cells


def test_null_distribution_check_smoke_and_scale():
    ks100 = run_null_distribution_check(20, 20, 100, seed=5)
    assert 0.0 < ks100 < 0.5  # wide-tolerance smoke value


_NULL_CHECK_PINNED = 0.06325131966003766  # n=20, p=10, reps=200, seed 3


@pytest.mark.parametrize("threads", [1, 3])
def test_null_distribution_check_pinned(threads):
    assert run_null_distribution_check(20, 10, 200, 3, threads=threads) == _NULL_CHECK_PINNED


def test_null_distribution_improves_with_size():
    ks80 = run_null_distribution_check(80, 80, 2000, seed=7)
    ks200 = run_null_distribution_check(200, 200, 2000, seed=7)
    assert ks200 <= ks80 + 0.01


# ---------------------------------------------------------------------------
# power curves


def test_power_curve_monotone_and_accounted():
    cfg = _cfg(n=80, p=80, reps=200, signal_grid=(0.5, 2.0),
               methods=("sup_distance", "bingham"), seed=11)
    curve = run_power_curve(cfg)
    assert len(curve.cells) == 4
    assert sum(c.reps for c in curve.cells) == 200 * 2 * 2
    assert curve.rate(2.0, "sup_distance") > curve.rate(0.5, "sup_distance")
    for c in curve.cells:
        assert 0.0 <= c.rate <= 1.0
        assert c.se == pytest.approx(math.sqrt(c.rate * (1 - c.rate) / c.reps), abs=1e-15)


def test_power_curve_zero_signal_matches_size():
    cfg = _cfg(n=40, p=40, reps=400, signal_grid=(0.0, 1.0),
               methods=("sup_distance",), seed=13)
    curve = run_power_curve(cfg)
    size = run_size_experiment(_cfg(n=40, p=40, reps=400, signal_grid=(0.0,),
                                    methods=("sup_distance",), seed=13))
    r1 = curve.rate(0.0, "sup_distance")
    r2 = size.rate(0.0, "sup_distance")
    se = math.sqrt(0.05 * 0.95 / 400)
    assert abs(r1 - r2) <= 2 * (se + se)


def test_power_curve_rejects_nonlocal_families():
    with pytest.raises(ConfigError):
        run_power_curve(_cfg(model_family="capmixture", signal_grid=(1.0,), p=2000))


@pytest.mark.parametrize("threads", [0, -2])
def test_experiments_reject_threads_below_one(threads):
    match = f"field threads: need >= 1, got {threads}"
    with pytest.raises(ConfigError, match=match):
        run_power_curve(_cfg(), threads=threads)
    with pytest.raises(ConfigError, match=match):
        run_size_experiment(_cfg(model_family="uniform", signal_grid=(0.0,)), threads=threads)
    with pytest.raises(ConfigError, match=match):
        run_null_distribution_check(20, 20, 100, seed=5, threads=threads)
    with pytest.raises(ConfigError, match=match):
        run_nonlocal_experiment("alphaspherical", 10, 20, 0.05, 10, seed=1, threads=threads)


def test_power_curve_csv_identical_across_threads(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(run_power_curve(_cfg(reps=120), threads=1), p1)
    export_csv(run_power_curve(_cfg(reps=120), threads=3), p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("threads", [1, 3])
def test_monte_carlo_power_curve_csv_pinned(tmp_path, threads):
    # all five methods, so projection's direction draw follows each sample
    path = tmp_path / "mc.csv"
    cfg = _cfg(n=12, p=8, reps=100, signal_grid=(0.0, 3.0), methods=METHODS,
               calibration="monte-carlo", seed=29)
    export_csv(run_power_curve(cfg, threads=threads), path)
    assert path.read_text() == (
        "family,tau,method,rate,se,reps,seed\n"
        "fvml,0,sup_distance,0.1,0.03,100,29\n"
        "fvml,0,rayleigh,0.08,0.02712931993,100,29\n"
        "fvml,0,bingham,0.04,0.01959591794,100,29\n"
        "fvml,0,packing,0,0,100,29\n"
        "fvml,0,projection,0.04,0.01959591794,100,29\n"
        "fvml,3,sup_distance,0.87,0.03363034344,100,29\n"
        "fvml,3,rayleigh,0.92,0.02712931993,100,29\n"
        "fvml,3,bingham,0.35,0.04769696007,100,29\n"
        "fvml,3,packing,0.09,0.02861817604,100,29\n"
        "fvml,3,projection,0.25,0.04330127019,100,29\n"
    )


def test_monte_carlo_critical_values_match_per_method_calibration():
    # at alpha = 0.1 and R = 1000 null draws no integer lies in
    # (alpha (R + 1) - 1, alpha (R - 1)], so p <= alpha rejects exactly where
    # stat >= the "higher" (1 - alpha) null quantile of each method alone
    cfg = _cfg(n=10, p=6, alpha=0.1, reps=200, model_family="uniform",
               signal_grid=(0.0,), methods=METHODS, calibration="monte-carlo", seed=5)
    curve = run_size_experiment(cfg)
    stats = []
    for rep in range(cfg.reps):
        rng = _cell_rng(cfg.seed, "uniform", 0, rep)
        stats.append(_scores(sample(Uniform(cfg.p), cfg.n, rng), METHODS, rng))
    statistics._null_memo.clear()
    for m in METHODS:
        crit = calibrate_critical_value_mc(10, 6, m, 0.1, 1000, _calibration_seed(5))
        assert curve.rate(0.0, m) == sum(s[m] >= crit for s in stats) / cfg.reps


@pytest.mark.parametrize("calibration", ["asymptotic", "monte-carlo"])
@pytest.mark.parametrize("tail", ["upper", "two-sided"])
def test_power_curve_decisions_equal_run_test(monkeypatch, tail, calibration):
    # every replication of the harness gets run_test's p-value and decision
    seen = []

    def spy(meth, stats, n, tail="upper", null=None):
        out = p_values(meth, stats, n, tail, null)
        seen.append((meth, tail, out))
        return out

    monkeypatch.setattr(harness, "p_values", spy)
    tails = {m: tail for m in METHODS if tail in NULL_LAWS[m].tails}
    cfg = _cfg(n=12, p=8, reps=100, signal_grid=(0.0, 3.0), methods=METHODS,
               tails=tails, calibration=calibration, seed=29)
    curve = run_power_curve(cfg)
    statistics._null_memo.clear()
    mc = {}
    if calibration == "monte-carlo":
        mc = dict(mc_seed=_calibration_seed(cfg.seed), mc_reps=max(1000, cfg.reps))
    calls = iter(seen)
    rejects = 0
    for ti, tau in enumerate(cfg.signal_grid):
        model = signal_model(cfg.model_family, cfg.n, cfg.p, tau)
        outs = []
        for rep in range(cfg.reps):
            rng = _cell_rng(cfg.seed, cfg.model_family, ti, rep)
            smp = sample(model, cfg.n, rng)
            outs.append({
                m: run_test(smp, m, alpha=cfg.alpha, tail=cfg.tail_for(m),
                            calibration=calibration, rng=rng, **mc)
                for m in cfg.methods
            })
        for m in cfg.methods:
            meth, used_tail, pv = next(calls)
            assert (meth, used_tail) == (m, cfg.tail_for(m))
            assert np.array_equal(pv, [o[m].p_value for o in outs])
            assert [bool(x <= cfg.alpha) for x in pv] == [o[m].reject for o in outs]
            hits = sum(o[m].reject for o in outs)
            assert curve.rate(tau, m) == hits / cfg.reps
            rejects += hits
    assert next(calls, None) is None
    assert 0 < rejects < len(cfg.signal_grid) * len(cfg.methods) * cfg.reps


def test_two_sided_packing_size():
    # two-sided packing used to reject when |stat| reached the upper Gumbel
    # point, 0.62 of these null samples
    cfg = _cfg(n=80, p=80, reps=2000, model_family="uniform", signal_grid=(0.0,),
               methods=("packing",), tails={"packing": "two-sided"}, seed=3)
    assert run_size_experiment(cfg).rate(0.0, "packing") <= 0.07


def test_monte_carlo_two_sided_rayleigh_size():
    # Monte Carlo calibration used to compare |stat| with the raw (1 - alpha)
    # null quantile, 1.65 instead of about 1.95, and rejected 0.090 here
    cfg = _cfg(n=20, p=200, reps=4000, model_family="uniform", signal_grid=(0.0,),
               methods=("rayleigh",), tails={"rayleigh": "two-sided"},
               calibration="monte-carlo", seed=3)
    assert run_size_experiment(cfg).rate(0.0, "rayleigh") <= 0.07


def test_export_csv_format(tmp_path):
    cfg = _cfg(reps=120)
    curve = run_power_curve(cfg)
    path = tmp_path / "out.csv"
    export_csv(curve, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "family,tau,method,rate,se,reps,seed"
    assert len(lines) == 1 + len(curve.cells)
    fam, tau, meth, rate, se, reps, seed = lines[1].split(",")
    assert fam == "fvml" and int(reps) == 120 and int(seed) == 77


# ---------------------------------------------------------------------------
# non-local experiments


def test_nonlocal_capmixture_requires_regime():
    with pytest.raises(ConfigError, match="2 n"):
        run_nonlocal_experiment("capmixture", 50, 100, 0.05, 100, seed=1)


def test_nonlocal_capmixture_warns_on_cap_collisions():
    # p = 2 n^2: two of 50 draws share one of 5001 caps with probability 0.217
    with pytest.warns(UserWarning, match="probability 0.217"):
        run_nonlocal_experiment("capmixture", 50, 5000, 0.05, 2, seed=1)


def test_nonlocal_capmixture_no_warning_where_collisions_are_rare():
    # n(n-1)/(2(p+1)) = 0.038 at n = 20, p = 5000 (acceptance criterion 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_nonlocal_experiment("capmixture", 20, 5000, 0.05, 2, seed=1)


def test_nonlocal_needs_three_points():
    with pytest.raises(ConfigError, match="n >= 3"):
        run_nonlocal_experiment("capmixture", 2, 8, 0.05, 2, seed=1)


def test_nonlocal_rejects_bad_alpha_and_reps():
    # checked before any work, so the cap-collision warning never fires
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, reps, field in ((1.5, 100, "alpha"), (0.0, 100, "alpha"),
                                   (0.05, 0, "reps"), (0.05, 1, "reps")):
            with pytest.raises(ConfigError, match=f"field {field}"):
                run_nonlocal_experiment("capmixture", 50, 5000, alpha, reps, seed=1)


def test_nonlocal_alphaspherical_smoke():
    res = run_nonlocal_experiment("alphaspherical", 20, 400, 0.05, 100, seed=3)
    assert set(res.rates) == {"sup_distance", "rayleigh", "bingham", "packing"}
    assert all(0.0 <= r <= 1.0 for r in res.rates.values())
    assert res.rates["sup_distance"] >= 0.5  # heavy tails are easy to see
    assert 0.0 <= res.share_bingham_negative <= 1.0
    again = run_nonlocal_experiment("alphaspherical", 20, 400, 0.05, 100, seed=3)
    assert res == again


_NONLOCAL_PINNED = NonlocalResult(
    kind="alphaspherical", n=20, p=400, alpha=0.05, reps=100, seed=3,
    rates={"sup_distance": 1.0, "rayleigh": 0.02, "bingham": 0.3, "packing": 0.86},
    mean_rayleigh=-0.22312999378633688,
    mean_abs_rayleigh=0.7150544122215565,
    se_abs_rayleigh=0.05770812299149186,
    share_bingham_negative=0.62,
    share_packing_below_alpha_quantile=0.01,
)


@pytest.mark.parametrize("threads", [1, 3])
def test_nonlocal_alphaspherical_pinned(threads):
    res = run_nonlocal_experiment("alphaspherical", 20, 400, 0.05, 100, seed=3,
                                  threads=threads)
    assert res == _NONLOCAL_PINNED


def test_experiment_seeds_accept_an_rng_seed_of_stream_0():
    # an RngSeed of stream 0 names the same master as its int
    assert run_null_distribution_check(20, 10, 200, RngSeed(3)) == _NULL_CHECK_PINNED
    res = run_nonlocal_experiment("alphaspherical", 20, 400, 0.05, 100, seed=RngSeed(3))
    assert res == _NONLOCAL_PINNED


def test_experiment_seed_of_another_stream_raises_before_any_work():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="field seed"):
            run_null_distribution_check(20, 10, 200, RngSeed(3, 1))
        # the cap-collision warning would fire if the model were built first
        with pytest.raises(ConfigError, match="field seed"):
            run_nonlocal_experiment("capmixture", 50, 5000, 0.05, 2, seed=RngSeed(1, 2))


def test_nonlocal_alphaspherical_high_dimensional_power():
    # heavy-tailed alternative at n=50, p=4000: the sup-distance test is
    # consistent here while the moment tests are not
    res = run_nonlocal_experiment("alphaspherical", 50, 4000, 0.05, 200, seed=47,
                                  model_param=1.0)
    assert res.rates["sup_distance"] >= 0.9


def test_nonlocal_export(tmp_path):
    res = run_nonlocal_experiment("alphaspherical", 20, 400, 0.05, 100, seed=3)
    path = tmp_path / "nl.csv"
    export_csv(res, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "family,tau,method,rate,se,reps,seed"
    assert len(lines) == 5
