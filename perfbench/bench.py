"""Workloads, output checks and the traced replay of the sphuni benchmark.

`run.py` is the command line; NOTES.md describes the workloads and the
metrics.  Importing this module pins the BLAS thread count to one, puts
the checkout's `src/` first on `sys.path` and refuses any other copy of
sphuni, so that a run always measures the source tree it sits in.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, so that `threads=2` means two threads in total.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import hashlib  # noqa: E402
import inspect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import sphuni  # noqa: E402

if not Path(sphuni.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"sphuni was imported from {sphuni.__file__}, not from {SRC}")

from sphuni import (  # noqa: E402
    ExperimentConfig,
    Fvml,
    PowerCell,
    PowerCurve,
    Watson,
    calibrate_critical_value_mc,
    distance_from_uniformity,
    fvml_marginal,
    make_unit_point_set,
    model_inner_cdf,
    normal_quantile,
    null_inner_cdf,
    packing_gumbel_quantile,
    pairwise_inner_products,
    run_power_curve,
    run_test,
    sample,
    signal_model,
    statistic_bingham,
    statistic_packing,
    statistic_rayleigh,
    sup_cdf_distance,
    sup_distance_critical_value,
    watson_marginal,
)

ALPHA = 0.05
SEED_POOL = 16  # --seed selects one of this many stored input sets
BASE_SEED = 20260810  # the master seed of configs/*.json
SUP, RAY, BING, PACK = "sup_distance", "rayleigh", "bingham", "packing"
OMNIBUS = (SUP, RAY, BING, PACK)
MOMENTS = {RAY: statistic_rayleigh, BING: statistic_bingham, PACK: statistic_packing}
# Per-replication streams of the harness: SeedSequence(master, spawn_key=(family
# index, tau index, rep)); the family index is the position in its family list.
STREAM_FAMILY = {"fvml": 1, "watson": 2}
REFERENCE_PATH = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench-out"


# ---------------------------------------------------------------------------
# workload shapes


@dataclass(frozen=True)
class Power:
    """A reduced power curve, run at threads=1 and threads=2."""

    family: str
    n: int
    p: int
    taus: tuple[float, ...]
    methods: tuple[str, ...]
    reps: int

    def config(self, master: int) -> ExperimentConfig:
        return ExperimentConfig(
            n=self.n, p=self.p, alpha=ALPHA, reps=self.reps, model_family=self.family,
            signal_grid=self.taus, methods=self.methods, seed=master,
        )

    @property
    def replications(self) -> int:
        return self.reps * len(self.taus)


@dataclass(frozen=True)
class Distance:
    """One FvML quadrature distance, then closed-form low-rank distances."""

    n: int
    p: int
    tau: float
    grid_size: int | None  # None: distance_from_uniformity's default
    lowrank_taus: tuple[float, ...]
    lowrank_per_round: int

    def fvml(self):
        return signal_model("fvml", self.n, self.p, self.tau)

    def lowrank(self, tau: float):
        return signal_model("lowrank", self.n, self.p, tau)

    def distance(self, model) -> float:
        if self.grid_size is None:
            return distance_from_uniformity(model)
        return distance_from_uniformity(model, grid_size=self.grid_size)

    @property
    def grid(self) -> int:
        if self.grid_size is not None:
            return self.grid_size
        return inspect.signature(distance_from_uniformity).parameters["grid_size"].default


@dataclass(frozen=True)
class Requests:
    """A closed-loop stream of run_test requests from one client.

    Every `mc_every`-th request is Monte Carlo calibrated; the others run
    the four omnibus tests, asymptotic, on one fresh sample.
    """

    n: int
    p: int
    pool: int
    mc_n: int
    mc_p: int
    mc_reps: int
    mc_every: int
    mc_pool: int


FULL = {
    "power-small": Power("fvml", 80, 80, (0.5, 1.0, 1.5, 2.0), OMNIBUS, 100),
    "power-large": Power("watson", 400, 600, (2.0,), (SUP, RAY, BING), 100),
    "distance-quadrature": Distance(1000, 1000, 1.0, None,
                                    (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0), 128),
    "test-requests": Requests(400, 600, 128, 80, 80, 1000, 16, 4),
}
TINY = {
    "power-small": Power("fvml", 12, 12, (1.0,), OMNIBUS, 100),
    "power-large": Power("watson", 12, 40, (2.0,), (SUP, RAY, BING), 100),
    "distance-quadrature": Distance(20, 20, 1.0, 64, (1.0, 2.0), 4),
    "test-requests": Requests(20, 24, 8, 10, 10, 1000, 4, 2),
}
SHAPES = {"full": FULL, "tiny": TINY}
WORKLOADS = tuple(FULL)


def master_seed(seed: int) -> int:
    return BASE_SEED + seed % SEED_POOL


def request_sample(master: int, index: int, n: int, p: int, stream: int = 1):
    """A uniform sample made with numpy alone, so inputs do not depend on sphuni."""
    rng = np.random.default_rng([master, stream, index])
    return make_unit_point_set(rng.standard_normal((n, p)), normalize=True)


def mc_sample(master: int, index: int, shape: Requests):
    return request_sample(master, index, shape.mc_n, shape.mc_p, stream=2)


# ---------------------------------------------------------------------------
# outputs and their references


def csv_text(curve: PowerCurve) -> str:
    return "\n".join([curve.csv_header(), *curve.csv_rows()]) + "\n"


def csv_digest(curve: PowerCurve) -> str:
    return hashlib.sha256(csv_text(curve).encode()).hexdigest()


def asymptotic_request(smp) -> dict:
    return {m: run_test(smp, m, alpha=ALPHA) for m in OMNIBUS}


def mc_request(smp, shape: Requests, master: int):
    return run_test(smp, SUP, alpha=ALPHA, calibration="monte-carlo",
                    mc_reps=shape.mc_reps, mc_seed=master)


def record_references(shapes: dict, residues=range(SEED_POOL), log=None) -> dict:
    """Reference outputs of the current sources, for every seed in the pool."""
    refs = {"seed_pool": SEED_POOL, "source_sha256": source_digest()}
    for name, shape in shapes.items():
        if isinstance(shape, Power):
            refs[name] = {
                str(r): {str(t): csv_digest(run_power_curve(shape.config(BASE_SEED + r), threads=t))
                         for t in (1, 2)}
                for r in residues
            }
        elif isinstance(shape, Distance):
            refs[name] = {
                "fvml": shape.distance(shape.fvml()),
                "lowrank": {repr(t): shape.distance(shape.lowrank(t)) for t in shape.lowrank_taus},
            }
        else:
            refs[name] = {}
            for r in residues:
                master = BASE_SEED + r
                refs[name][str(r)] = {
                    "asymptotic": [
                        [o.p_value for o in asymptotic_request(
                            request_sample(master, i, shape.n, shape.p)).values()]
                        for i in range(shape.pool)
                    ],
                    "mc": [mc_request(mc_sample(master, i, shape), shape, master).p_value
                           for i in range(shape.mc_pool)],
                }
        if log:
            log(f"recorded {name}")
    return refs


def load_references() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans around calls into sphuni, kept in memory and timed from outside.

    A span records its name, start, end, parent span and the number of
    values it processed; a span whose body raised is marked failed.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, values, failed]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, values: int = 0):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, values, False])
        self._open.append(index)
        try:
            yield
        except BaseException:
            self.spans[index][5] = True
            raise
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def seconds(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def roots(self, name: str) -> list[int]:
        return [i for i, sp in enumerate(self.spans) if sp[0] == name and sp[3] is None]

    def root_of(self, i: int) -> int:
        while self.spans[i][3] is not None:
            i = self.spans[i][3]
        return i

    def under(self, name: str, root: str) -> list[int]:
        """Spans called `name` inside a root span called `root`."""
        return [i for i, sp in enumerate(self.spans)
                if sp[0] == name and self.spans[self.root_of(i)][0] == root]

    def median_seconds(self, name: str, root: str) -> float:
        return statistics.median(self.seconds(i) for i in self.under(name, root))

    def summary(self) -> dict:
        """Per span name: calls, failures, total and self seconds, values."""
        child = defaultdict(float)
        for i, sp in enumerate(self.spans):
            if sp[3] is not None:
                child[sp[3]] += self.seconds(i)
        out: dict[str, dict] = {}
        for i, (name, _, _, _, values, failed) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "failures": 0, "total_s": 0.0,
                                      "self_s": 0.0, "values": 0})
            s["calls"] += 1
            s["failures"] += int(failed)
            s["total_s"] += self.seconds(i)
            s["self_s"] += self.seconds(i) - child[i]
            s["values"] += values
        return out


class ReplayMismatch(AssertionError):
    """The traced replay computed other values than the untraced run."""


def universal_layers(tracer: Tracer, op_root: str, layer_root: str, cdf_root: str,
                     main_op_ms: float) -> dict:
    """The layer metrics that every workload reports (see NOTES.md).

    `op_root` spans replay one main operation, `layer_root` spans hold the
    direct layer calls of one main operation, and the null-CDF spans under
    `cdf_root` are the null-CDF work of one main operation.
    """
    ops = set(tracer.roots(layer_root))
    layer_s = sum(tracer.seconds(i) for i, sp in enumerate(tracer.spans) if sp[3] in ops)
    cdf = tracer.under("distributions.null_cdf", cdf_root)
    cdf_s = sum(tracer.seconds(i) for i in cdf)
    cdf_ms = cdf_s * 1000.0 / len(ops)
    cdf_values = sum(tracer.spans[i][4] for i in cdf)
    replay_ms = statistics.median(tracer.seconds(i) for i in tracer.roots(op_root)) * 1000.0
    return {
        "distributions.null_cdf_ms_per_op": (cdf_ms, "ms"),
        "distributions.null_cdf_values_per_s": (cdf_values / cdf_s, "1/s"),
        "distributions.null_cdf_share_pct": (100.0 * cdf_ms / main_op_ms, "%"),
        "trace.layer_sum_ms_per_op": (layer_s * 1000.0 / len(ops), "ms"),
        "trace.overhead_pct": (100.0 * (replay_ms - main_op_ms) / main_op_ms, "%"),
    }


# ---------------------------------------------------------------------------
# the traced replay: each layer's public functions, called directly


def layer_statistics(smp, ip, methods, tracer: Tracer) -> dict:
    out = {}
    if SUP in methods:
        with tracer.span("distributions.null_cdf", values=len(ip)):
            cdf = null_inner_cdf(ip.values, smp.p)
        with tracer.span("statistics.sup"):
            out[SUP] = sup_cdf_distance(ip.values, cdf)
    with tracer.span("statistics.moments"):
        for m in methods:
            if m in MOMENTS:
                out[m] = MOMENTS[m](smp, ip)
    return out


def replay_power_curve(shape: Power, master: int, tracer: Tracer) -> str:
    """The curve's CSV, rebuilt from per-replication layer calls."""
    cfg = shape.config(master)
    crit = {SUP: sup_distance_critical_value(cfg.n, ALPHA),
            RAY: float(normal_quantile(1.0 - ALPHA)),
            BING: float(normal_quantile(1.0 - ALPHA)),
            PACK: packing_gumbel_quantile(ALPHA)}
    cells = []
    for ti, tau in enumerate(cfg.signal_grid):
        model = signal_model(cfg.model_family, cfg.n, cfg.p, tau)
        stats = []
        for rep in range(cfg.reps):
            with tracer.span("op.replication"):
                rng = np.random.default_rng(np.random.SeedSequence(
                    master, spawn_key=(STREAM_FAMILY[cfg.model_family], ti, rep)))
                with tracer.span("samplers.sample"):
                    smp = sample(model, cfg.n, rng)
                with tracer.span("points.pairwise"):
                    ip = pairwise_inner_products(smp)
                stats.append(layer_statistics(smp, ip, cfg.methods, tracer))
        for m in cfg.methods:
            rate = sum(s[m] >= crit[m] for s in stats) / cfg.reps
            se = math.sqrt(rate * (1.0 - rate) / cfg.reps)
            cells.append(PowerCell(cfg.model_family, tau, m, rate, se, cfg.reps))
    return csv_text(PowerCurve(tuple(cells), cfg.seed, cfg.config_hash()))


def marginal(model):
    if isinstance(model, Fvml):
        return fvml_marginal(model.kappa, model.p)
    return watson_marginal(model.kappa, model.p)


def u_window(model) -> tuple[float, float]:
    """The u-range of distance_from_uniformity's initial grid."""
    lo, hi = -8.5, 8.5
    if isinstance(model, (Fvml, Watson)) and model.kappa > 0:
        wlo, whi = marginal(model).window()
        shift = math.sqrt(model.p) * max(abs(wlo), abs(whi)) ** 2
        lo, hi = lo - shift, hi + shift
    return lo, hi


def replay_distance(model, grid_size: int, tracer: Tracer, root: str) -> float:
    """distance_from_uniformity as a traced grid pass and refinement."""
    p = model.p

    def null(u):
        with tracer.span("distributions.null_cdf", values=len(u)):
            return null_inner_cdf(np.clip(u / math.sqrt(p), -1, 1), p)

    with tracer.span(root):
        lo, hi = u_window(model)
        u = np.linspace(lo, hi, grid_size)
        with tracer.span("asymptotics.model_cdf_grid"):
            fm = np.asarray(model_inner_cdf(model, u))
        g = np.abs(fm - null(u))
        best_i = int(np.argmax(g))
        best, u_star = float(g[best_i]), float(u[best_i])
        h = (hi - lo) / (grid_size - 1)
        with tracer.span("asymptotics.refine"):
            for _ in range(60):
                uu = np.linspace(u_star - h, u_star + h, 17)
                gg = np.abs(np.asarray(model_inner_cdf(model, uu)) - null(uu))
                j = int(np.argmax(gg))
                improved = float(gg[j]) - best
                if gg[j] > best:
                    best, u_star = float(gg[j]), float(uu[j])
                h /= 4.0
                if improved < 1e-8 and h < 1e-6 * (hi - lo):
                    break
    return best


def betainc_grid(model, grid_size: int, tracer: Tracer) -> None:
    """null_inner_cdf in dimension p-1 on every argument of the FvML/Watson
    quadrature's initial grid: 96 Gauss-Legendre nodes on four panels of
    the marginal's window, squared, times the u-grid, in blocks of 2^22."""
    p = model.p
    lo, hi = marginal(model).window()
    edges = np.linspace(lo, hi, 5)
    xg, _ = np.polynomial.legendre.leggauss(24)
    t = np.concatenate([(b + a) / 2 + (b - a) / 2 * xg for a, b in zip(edges[:-1], edges[1:])])
    prod = np.multiply.outer(t, t).ravel()
    root = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    scale = np.multiply.outer(root, root).ravel()
    u = np.linspace(*u_window(model), grid_size)
    block = max(1, (1 << 22) // len(prod))
    with tracer.span("layers.betainc_grid"):
        for b0 in range(0, grid_size, block):
            arg = np.clip((u[b0:b0 + block, None] / math.sqrt(p) - prod) / scale, -1.0, 1.0)
            with tracer.span("distributions.null_cdf", values=arg.size):
                null_inner_cdf(arg, p - 1)


def replay_request(smp, outcomes: dict, tracer: Tracer) -> None:
    """Replay one asymptotic request; raise if a statistic differs."""
    with tracer.span("op.request"):
        for m in OMNIBUS:
            with tracer.span(f"statistics.run_test.{m}"):
                run_test(smp, m, alpha=ALPHA)
    with tracer.span("layers.request"):
        with tracer.span("points.pairwise"):
            ip = pairwise_inner_products(smp)
        stats = layer_statistics(smp, ip, OMNIBUS, tracer)
    for m in OMNIBUS:
        if stats[m] != outcomes[m].statistic:
            raise ReplayMismatch(f"{m}: replay {stats[m]!r} != run {outcomes[m].statistic!r}")


def replay_mc_request(smp, outcome, shape: Requests, master: int, tracer: Tracer) -> None:
    with tracer.span("op.mc_request"):
        with tracer.span("statistics.mc_null"):
            crit = calibrate_critical_value_mc(shape.mc_n, shape.mc_p, SUP, ALPHA,
                                               shape.mc_reps, master)
        with tracer.span("points.pairwise"):
            ip = pairwise_inner_products(smp)
        stat = layer_statistics(smp, ip, (SUP,), tracer)[SUP]
    if stat != outcome.statistic or (stat > crit) != outcome.reject:
        raise ReplayMismatch(f"mc request: replay ({stat!r}, crit {crit!r}) != run "
                             f"({outcome.statistic!r}, reject {outcome.reject})")


# ---------------------------------------------------------------------------
# running a workload


class Tally:
    """Operation latencies by kind, with attempted and failed counts."""

    def __init__(self):
        self.ms: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def run(self, kind: str, ops: int, call, check):
        """Time `call()` as `ops` operations; all fail if it raises or
        `check(result)` names a problem."""
        self.attempted += ops
        try:
            t0 = time.perf_counter()
            out = call()
            dt = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.failed += ops
            return None
        self.ms[kind].append(dt * 1000.0 / ops)
        problem = check(out)
        if problem:
            self.failed += ops
            self.mismatches.append(f"{kind}: {problem}")
        return out

    def median(self, kind: str) -> float:
        return statistics.median(self.ms[kind])


def timed_rounds(rounds, seconds: float, filler=None) -> int:
    """Run rounds until the next one would end after `seconds` (at least
    one), then `filler()` operations until the next one would."""
    start = time.perf_counter()

    def run_while_fits(calls) -> int:
        durations: list[float] = []
        for call in calls:
            elapsed = time.perf_counter() - start
            if durations and (elapsed >= seconds
                              or elapsed + statistics.median(durations) > seconds):
                break
            t0 = time.perf_counter()
            call()
            durations.append(time.perf_counter() - t0)
        return len(durations)

    n_rounds = run_while_fits(rounds)
    if filler is not None and time.perf_counter() - start < seconds:
        run_while_fits(itertools.repeat(filler))
    return n_rounds


def forever(make_round):
    k = 0
    while True:
        yield lambda k=k: make_round(k)
        k += 1


def expect(got, want) -> str | None:
    return None if got == want else f"got {got!r}, reference {want!r}"


def fill_caches(shape) -> None:
    """The first calls that fill sphuni's lru caches for the workload's models."""
    if isinstance(shape, Power):
        for tau in shape.taus:
            sample(signal_model(shape.family, shape.n, shape.p, tau), 2, 0)
    elif isinstance(shape, Distance):
        model_inner_cdf(shape.fvml(), 0.0)
        model_inner_cdf(shape.lowrank(shape.lowrank_taus[0]), 0.0)
    else:
        run_test(request_sample(BASE_SEED, 0, shape.n, shape.p), SUP, alpha=ALPHA)


def table_build_seconds(shape: Power) -> float:
    """First sample() per model, which builds its inverse-CDF table, less
    a second, cached call."""
    total = 0.0
    for tau in shape.taus:
        model = signal_model(shape.family, shape.n, shape.p, tau)
        t0 = time.perf_counter()
        sample(model, 2, 0)
        t1 = time.perf_counter()
        sample(model, 2, 0)
        total += (t1 - t0) - (time.perf_counter() - t1)
    return total


def fresh_process_seconds(argv: list[str], runs: int, **kw) -> list[float]:
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, **kw)
        out.append(time.perf_counter() - t0)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_power(shape: Power, master: int, ref: dict, seconds: float, trace: bool):
    tally, tracer = Tally(), Tracer()
    cfg = shape.config(master)

    def round_(k):
        for threads in ((1, 2), (2, 1))[k % 2]:
            curve = tally.run(f"t{threads}", shape.replications,
                              lambda: run_power_curve(cfg, threads=threads),
                              lambda c: expect(csv_digest(c), ref[str(threads)]))
            if trace and threads == 1 and curve is not None:
                if replay_power_curve(shape, master, tracer) != csv_text(curve):
                    raise ReplayMismatch("replayed power CSV differs from run_power_curve")

    rounds = timed_rounds(forever(round_), seconds)
    t1, t2 = tally.median("t1"), tally.median("t2")
    e2e = {"main_op_ms": (t1, "ms"), "second_op_ms": (t2, "ms")}
    named = {"reps_per_s_t1": (1000.0 / t1, "1/s", len(tally.ms["t1"])),
             "reps_per_s_t2": (1000.0 / t2, "1/s", len(tally.ms["t2"]))}
    layers = {}
    if trace:
        s = tracer.summary()
        reps = s["op.replication"]["calls"]
        per = {k: v["self_s"] * 1000.0 / reps for k, v in s.items() if k != "op.replication"}
        layers = universal_layers(tracer, "op.replication", "op.replication",
                                  "op.replication", t1)
        layers.update({
            "samplers.sample_ms": (per["samplers.sample"], "ms"),
            "points.pairwise_ms": (per["points.pairwise"], "ms"),
            "statistics.sup_ms": (per["statistics.sup"], "ms"),
            "statistics.moments_ms": (per["statistics.moments"], "ms"),
            "harness.overhead_ms_per_rep": (t1 - layers["trace.layer_sum_ms_per_op"][0], "ms"),
            "harness.thread_speedup": (t1 / t2, "ratio"),
        })
    return tally, tracer, e2e, named, layers, rounds


def run_distance(shape: Distance, seed: int, ref: dict, seconds: float, trace: bool):
    tally, tracer = Tally(), Tracer()
    fvml = shape.fvml()

    def distance(kind, model, want):
        out = tally.run(kind, 1, lambda: shape.distance(model),
                        lambda d: expect(d, want))
        if trace and out is not None:
            replayed = replay_distance(model, shape.grid, tracer, f"op.{kind}")
            if replayed != out:
                raise ReplayMismatch(f"{kind}: replay {replayed!r} != run {out!r}")

    offset = seed % len(shape.lowrank_taus)
    taus = itertools.cycle(shape.lowrank_taus[offset:] + shape.lowrank_taus[:offset])

    def lowrank():
        tau = next(taus)
        distance("lowrank", shape.lowrank(tau), ref["lowrank"][repr(tau)])

    def round_(k):
        for _ in range(shape.lowrank_per_round):
            lowrank()
        distance("fvml", fvml, ref["fvml"])
        if trace:
            betainc_grid(fvml, shape.grid, tracer)

    rounds = timed_rounds(forever(round_), seconds, filler=lowrank)
    fv, lr = tally.median("fvml"), tally.median("lowrank")
    e2e = {"main_op_ms": (fv, "ms"), "second_op_ms": (lr, "ms")}
    named = {"distance_s": (fv / 1000.0, "s", len(tally.ms["fvml"])),
             "lowrank_distance_ms": (lr, "ms", len(tally.ms["lowrank"]))}
    layers = {}
    if trace:
        layers = universal_layers(tracer, "op.fvml", "op.fvml", "layers.betainc_grid", fv)
        layers.update({
            "distributions.betainc_grid_s":
                (tracer.median_seconds("layers.betainc_grid", "layers.betainc_grid"), "s"),
            "asymptotics.model_cdf_grid_s":
                (tracer.median_seconds("asymptotics.model_cdf_grid", "op.fvml"), "s"),
            "asymptotics.refine_s": (tracer.median_seconds("asymptotics.refine", "op.fvml"), "s"),
        })
    return tally, tracer, e2e, named, layers, rounds


def run_requests(shape: Requests, master: int, ref: dict, seconds: float, trace: bool):
    tally, tracer = Tally(), Tracer()
    null_keys: list[tuple] = []

    asymptotic_ids = itertools.count()

    def asymptotic():
        i = next(asymptotic_ids)
        smp = request_sample(master, i % shape.pool, shape.n, shape.p)
        outcomes = tally.run("asymptotic", 1, lambda: asymptotic_request(smp),
                             lambda o: expect([x.p_value for x in o.values()],
                                              ref["asymptotic"][i % shape.pool]))
        if trace and outcomes is not None:
            replay_request(smp, outcomes, tracer)

    def monte_carlo(i):
        smp = mc_sample(master, i % shape.mc_pool, shape)
        null_keys.append((shape.mc_n, shape.mc_p, SUP, shape.mc_reps, master))
        outcome = tally.run("mc", 1, lambda: mc_request(smp, shape, master),
                            lambda o: expect(o.p_value, ref["mc"][i % shape.mc_pool]))
        if trace and outcome is not None:
            replay_mc_request(smp, outcome, shape, master, tracer)

    def round_(k):
        for _ in range(shape.mc_every - 1):
            asymptotic()
        monte_carlo(k)

    rounds = timed_rounds(forever(round_), seconds, filler=asymptotic)
    asym = tally.ms["asymptotic"]
    p50, mc = tally.median("asymptotic"), tally.median("mc")
    e2e = {"main_op_ms": (p50, "ms"), "second_op_ms": (mc, "ms")}
    named = {"test_p50_ms": (p50, "ms", len(asym)),
             "test_p90_ms": (statistics.quantiles(asym, n=10)[-1], "ms", len(asym)),
             "mc_test_s": (mc / 1000.0, "s", len(tally.ms["mc"])),
             "mc_null_repeat_share": ((len(null_keys) - len(set(null_keys))) / len(null_keys),
                                      "ratio", len(null_keys))}
    layers = {}
    if trace:
        requests = len(tracer.roots("layers.request"))
        per = {k: sum(tracer.seconds(i) for i in tracer.under(k, "layers.request"))
               * 1000.0 / requests
               for k in ("points.pairwise", "statistics.sup", "statistics.moments")}
        layers = universal_layers(tracer, "op.request", "layers.request", "layers.request", p50)
        layers.update({
            "points.pairwise_ms": (per["points.pairwise"], "ms"),
            "statistics.sup_ms": (per["statistics.sup"], "ms"),
            "statistics.moments_ms": (per["statistics.moments"], "ms"),
            "statistics.mc_null_s":
                (tracer.median_seconds("statistics.mc_null", "op.mc_request"), "s"),
        })
        for m in OMNIBUS:
            layers[f"statistics.run_test_ms.{m}"] = (
                tracer.median_seconds(f"statistics.run_test.{m}", "op.request") * 1000.0, "ms")
    return tally, tracer, e2e, named, layers, rounds


# ---------------------------------------------------------------------------
# one benchmark run


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sphuni").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def blas_version() -> str | None:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}" if blas else None


def manifest(workload: str, seed: int, shape) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version(),
        "blas_env": BLAS_ENV,
        "workload": workload,
        "seed": seed,
        "master_seed": master_seed(seed),
        "threads": [1, 2] if isinstance(shape, Power) else [1],
        "shape": {k: getattr(shape, k) for k in shape.__dataclass_fields__},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, shapes: str = "full",
                 refs: dict | None = None, fresh_runs: int = 3) -> dict:
    """One run: set-up, then closed-loop rounds for `seconds`, outputs checked.

    Untraced, it reports the end-to-end metrics; traced, it also replays
    every operation layer by layer and reports the layer metrics.
    """
    shape = SHAPES[shapes][workload]
    refs = load_references() if refs is None else refs
    ref = refs[workload]
    if not isinstance(shape, Distance):
        ref = ref[str(seed % SEED_POOL)]
    fresh = {}
    if trace:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        fresh["cli.startup_s"] = fresh_process_seconds(
            [sys.executable, "-m", "sphuni.cli", "--version"], fresh_runs,
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    else:
        fresh["setup_s"] = fresh_process_seconds(
            [sys.executable, str(HERE / "bench.py"), "setup", workload, shapes], fresh_runs)
    table_s = table_build_seconds(shape) if isinstance(shape, Power) else None
    fill_caches(shape)
    if isinstance(shape, Power):
        out = run_power(shape, master_seed(seed), ref, seconds, trace)
    elif isinstance(shape, Distance):
        out = run_distance(shape, seed, ref, seconds, trace)
    else:
        out = run_requests(shape, master_seed(seed), ref, seconds, trace)
    tally, tracer, e2e, named, layers, rounds = out
    if trace:
        layers["cli.startup_s"] = (statistics.median(fresh["cli.startup_s"]), "s")
        if table_s is not None:
            layers["samplers.table_build_s"] = (table_s, "s")
    else:
        e2e["setup_s"] = (statistics.median(fresh["setup_s"]), "s")
        e2e["peak_rss_mb"] = (peak_rss_mb(), "MB")
    named["error_rate"] = (tally.failed / tally.attempted, "ratio", tally.attempted)
    return {
        "workload": workload, "seed": seed, "trace": trace, "rounds": rounds,
        "attempted": tally.attempted, "failed": tally.failed,
        "mismatches": tally.mismatches[:20],
        "end_to_end": e2e, "named": named, "layers": layers,
        "samples": {k: len(v) for k, v in tally.ms.items()},
        "fresh_process_s": fresh,
        "spans": tracer.summary(),
        "span_records": tracer.spans,  # [name, start, end, parent index, values, failed]
        "manifest": manifest(workload, seed, shape),
    }


if __name__ == "__main__" and sys.argv[1:2] == ["setup"]:
    fill_caches(SHAPES[sys.argv[3]][sys.argv[2]])
