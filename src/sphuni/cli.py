"""Command-line interface.

Machine-first output: every command prints exactly one `key=value ...`
result line to stdout; human-readable tables go to stderr.  Unknown
flags exit with status 64; `--exit-on-reject` makes `test` exit with
status 2 when any method rejects.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import __version__
from .asymptotics import (
    FVML_SHIFT,
    QUADRATIC_SHIFT,
    ShiftFunction,
    distance_from_uniformity,
    estimate_distance_mc,
    predict_asymptotic_power,
)
from .errors import SphuniError
from .harness import (
    ExperimentConfig,
    export_csv,
    load_config,
    run_nonlocal_experiment,
    run_null_distribution_check,
    run_power_curve,
    run_size_experiment,
    signal_model,
)
from .points import load_points_csv
from .samplers import AlphaSpherical, CapMixture, RngSeed
from .statistics import (
    CALIBRATIONS,
    METHODS,
    NULL_LAWS,
    TAILS,
    TestOutcome,
    _run_tests,
    calibrate_critical_value_mc,
)

_USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    top = _Parser(prog="sphuni", description=__doc__)
    top.add_argument("--version", action="version", version=f"sphuni {__version__}")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, threads=False, out=False, seed_default="env SPHUNI_SEED, else 0"):
        p.add_argument("--seed", type=int, default=None,
                       help=f"master RNG seed (default: {seed_default})")
        if threads:
            p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                           help="worker threads for Monte Carlo replications")
        if out:
            p.add_argument("--out", default=None, help="optional CSV output path")

    p = sub.add_parser("test", help="run uniformity tests on a CSV sample")
    p.add_argument("--data", required=True, help="CSV file, one observation per row")
    p.add_argument("--method", action="append", choices=METHODS,
                   help="repeatable; default: the four omnibus tests "
                        "(projection draws a random direction, opt in explicitly)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--tail", choices=TAILS, default="upper",
                   help="methods that are upper-tailed only run upper-tailed")
    p.add_argument("--calibration", choices=CALIBRATIONS, default="asymptotic")
    p.add_argument("--mc-reps", type=int, default=2000)
    p.add_argument("--normalize", action="store_true", help="rescale rows to unit norm")
    p.add_argument("--exit-on-reject", action="store_true",
                   help="exit with status 2 when any method rejects")
    common(p, out=True)

    p = sub.add_parser("size", help="null rejection rates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--method", action="append", choices=METHODS)
    common(p, threads=True, out=True)

    p = sub.add_parser("power", help="power curve from a JSON experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--svg", default=None, help="write a line-chart SVG here")
    common(p, threads=True, out=True, seed_default="the config's seed")

    p = sub.add_parser("nulldist", help="KS distance of the null statistic law to its limit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--reps", type=int, default=2000)
    common(p, threads=True)

    p = sub.add_parser("distance", help="distance from uniformity for a model")
    p.add_argument("--model", required=True,
                   choices=["fvml", "watson", "lowrank", "alphaspherical", "capmixture"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--alpha-index", type=float, default=1.0, help="tail index (alphaspherical)")
    p.add_argument("--eps", type=float, default=None, help="cap width (capmixture)")
    p.add_argument("--mode", choices=["quadrature", "mc"], default="quadrature")
    p.add_argument("--pairs", type=int, default=10**5, help="Monte Carlo pair count")
    common(p)

    p = sub.add_parser("predict", help="asymptotic power of the sup-distance test")
    p.add_argument("--shift", choices=[FVML_SHIFT, QUADRATIC_SHIFT], required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)

    p = sub.add_parser("calibrate", help="Monte Carlo critical value under the null")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=2000)
    common(p)

    p = sub.add_parser("nonlocal", help="non-local alternative experiment")
    p.add_argument("--kind", choices=["capmixture", "alphaspherical"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--alpha-index", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=None)
    common(p, threads=True, out=True)

    return top


def _kv(**pairs) -> str:
    return " ".join(f"{k}={v}" for k, v in pairs.items())


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _cmd_test(args) -> int:
    sample = load_points_csv(args.data, normalize=args.normalize)
    methods = args.method or list(METHODS[:4])
    requests = [(m, args.tail if args.tail in NULL_LAWS[m].tails else "upper") for m in methods]
    # one Monte Carlo null pass serves every method
    mc_seed = args.seed if args.calibration == "monte-carlo" else None
    outcomes = _run_tests(
        sample, requests, args.alpha, args.calibration, None, args.mc_reps,
        mc_seed, RngSeed(args.seed).generator(),
    )
    print(TestOutcome.csv_header(), file=sys.stderr)
    for o in outcomes:
        print(o.csv_row(), file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(TestOutcome.csv_header() + "\n")
            fh.writelines(o.csv_row() + "\n" for o in outcomes)
    any_reject = any(o.reject for o in outcomes)
    print(_kv(command="test", n=sample.n, p=sample.p, alpha=_fmt(args.alpha),
              rejected=int(any_reject),
              p_min=_fmt(min(o.p_value for o in outcomes))))
    return 2 if (args.exit_on_reject and any_reject) else 0


def _cmd_size(args) -> int:
    cfg = ExperimentConfig(
        n=args.n, p=args.p, alpha=args.alpha, reps=args.reps,
        model_family="uniform", signal_grid=(0.0,),
        methods=tuple(args.method or METHODS[:4]), seed=args.seed,
        output_path=args.out,
    )
    curve = run_size_experiment(cfg, threads=args.threads)
    pairs = {f"rate_{c.method}": _fmt(c.rate) for c in curve.cells}
    print(_kv(command="size", n=args.n, p=args.p, alpha=_fmt(args.alpha),
              reps=args.reps, seed=args.seed, **pairs))
    return 0


def _cmd_power(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, output_path=args.out)
    curve = run_power_curve(cfg, threads=args.threads)
    if args.svg:
        _write_power_svg(curve, args.svg)
    print(_kv(command="power", family=cfg.model_family, n=cfg.n, p=cfg.p,
              reps=cfg.reps, seed=cfg.seed, cells=len(curve.cells),
              config_hash=curve.config_hash,
              out=cfg.output_path or "-"))
    return 0


def _cmd_nulldist(args) -> int:
    ks = run_null_distribution_check(args.n, args.p, args.reps, args.seed, threads=args.threads)
    print(_kv(command="nulldist", n=args.n, p=args.p, reps=args.reps, seed=args.seed,
              ks_distance=_fmt(ks)))
    return 0


def _cmd_distance(args) -> int:
    if args.model in ("fvml", "watson", "lowrank"):
        model = signal_model(args.model, args.n, args.p, args.tau)
    elif args.model == "alphaspherical":
        model = AlphaSpherical(args.p, args.alpha_index)
    else:
        model = CapMixture(args.p, args.eps)
    if args.mode == "quadrature":
        d = distance_from_uniformity(model)
    else:
        d = estimate_distance_mc(model, args.pairs, args.seed)
    print(_kv(command="distance", model=args.model, n=args.n, p=args.p,
              tau=_fmt(args.tau), mode=args.mode, d=_fmt(d), nd=_fmt(args.n * d)))
    return 0


def _cmd_predict(args) -> int:
    power = predict_asymptotic_power(ShiftFunction(args.shift, args.tau), args.alpha)
    print(_kv(command="predict", shift=args.shift, tau=_fmt(args.tau),
              alpha=_fmt(args.alpha), power=_fmt(power)))
    return 0


def _cmd_calibrate(args) -> int:
    crit = calibrate_critical_value_mc(args.n, args.p, args.method, args.alpha,
                                       args.reps, args.seed)
    print(_kv(command="calibrate", n=args.n, p=args.p, method=args.method,
              alpha=_fmt(args.alpha), reps=args.reps, seed=args.seed,
              critical_value=_fmt(crit)))
    return 0


def _cmd_nonlocal(args) -> int:
    param = args.eps if args.kind == "capmixture" else args.alpha_index
    res = run_nonlocal_experiment(args.kind, args.n, args.p, args.alpha, args.reps,
                                  args.seed, model_param=param, threads=args.threads)
    if args.out:
        export_csv(res, args.out)
    pairs = {f"rate_{m}": _fmt(r) for m, r in res.rates.items()}
    print(_kv(command="nonlocal", kind=args.kind, n=args.n, p=args.p,
              alpha=_fmt(args.alpha), reps=args.reps, seed=args.seed,
              mean_rayleigh=_fmt(res.mean_rayleigh),
              mean_abs_rayleigh=_fmt(res.mean_abs_rayleigh),
              share_bingham_negative=_fmt(res.share_bingham_negative),
              share_packing_low=_fmt(res.share_packing_below_alpha_quantile),
              **pairs))
    return 0


def _write_power_svg(curve, path) -> None:
    """Minimal line chart: one polyline per method, tau on x, rate on y."""
    methods = sorted({c.method for c in curve.cells})
    taus = sorted({c.tau for c in curve.cells})
    w, h, pad = 640, 420, 50
    colors = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#f39c12"]
    lo, hi = min(taus), max(taus)
    span = (hi - lo) or 1.0

    def xy(tau, rate):
        x = pad + (tau - lo) / span * (w - 2 * pad)
        y = h - pad - rate * (h - 2 * pad)
        return f"{x:.1f},{y:.1f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{pad}" y1="{h-pad}" x2="{w-pad}" y2="{h-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h-pad}" stroke="black"/>',
        f'<text x="{w//2}" y="{h-12}" font-size="12" text-anchor="middle">signal tau</text>',
        f'<text x="14" y="{h//2}" font-size="12" transform="rotate(-90 14 {h//2})" '
        f'text-anchor="middle">rejection rate</text>',
    ]
    for i, meth in enumerate(methods):
        pts = " ".join(
            xy(c.tau, c.rate) for c in sorted(curve.cells, key=lambda c: c.tau)
            if c.method == meth
        )
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{w-pad+4}" y="{pad+14*i+10}" font-size="11" fill="{color}">{meth}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


_COMMANDS = {
    "test": _cmd_test,
    "size": _cmd_size,
    "power": _cmd_power,
    "nulldist": _cmd_nulldist,
    "distance": _cmd_distance,
    "predict": _cmd_predict,
    "calibrate": _cmd_calibrate,
    "nonlocal": _cmd_nonlocal,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # power keeps its config's seed, and predict draws nothing
    if args.command not in ("power", "predict") and args.seed is None:
        args.seed = int(os.environ.get("SPHUNI_SEED", "0"))
    try:
        return _COMMANDS[args.command](args)
    except SphuniError as exc:
        print(f"sphuni {args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"sphuni {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
