"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_bench.py

It checks that every metric BENCHMARK.json names is emitted with its
unit, that the traced replay reproduces the untraced run (and that a
difference would be caught), and that an output differing from its
stored reference is counted as a failed operation.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import pytest  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
SEED = 3


@pytest.fixture(scope="module")
def refs():
    return bench.record_references(bench.TINY, residues=[SEED])


def tiny_run(workload, trace, refs):
    return bench.run_workload(workload, SEED, 0.2, trace, shapes="tiny", refs=refs, fresh_runs=1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, refs):
    # a traced run raises ReplayMismatch unless the replay equals the run
    result = tiny_run(workload, trace, refs)
    measured = result["layers"] if trace else result["end_to_end"]
    for metric in SPEC["per_layer" if trace else "end_to_end"]:
        value, unit = measured[metric["name"]]
        assert unit == metric["unit"], metric["name"]
        assert math.isfinite(value), metric["name"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["mismatches"]


def test_replay_mismatch_is_detected():
    smp = bench.request_sample(bench.BASE_SEED, 0, 20, 24)
    outcomes = bench.asymptotic_request(smp)
    bingham = outcomes[bench.BING]
    outcomes[bench.BING] = dataclasses.replace(bingham, statistic=bingham.statistic + 1e-12)
    with pytest.raises(bench.ReplayMismatch):
        bench.replay_request(smp, outcomes, bench.Tracer())


@pytest.mark.parametrize("workload, path, wrong", [
    ("power-small", (str(SEED), "1"), "0" * 64),
    ("distance-quadrature", ("fvml",), 0.5),
    ("test-requests", (str(SEED), "mc", 0), 0.5),
])
def test_wrong_reference_counts_as_failed(workload, path, wrong, refs):
    bad = copy.deepcopy(refs)
    node = bad[workload]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = wrong
    result = tiny_run(workload, False, bad)
    kind = {"power-small": "t1", "distance-quadrature": "fvml", "test-requests": "mc"}[workload]
    per_op = bench.TINY[workload].replications if workload == "power-small" else 1
    assert result["failed"] == len(result["mismatches"]) * per_op
    assert result["mismatches"] and all(m.startswith(kind) for m in result["mismatches"])
    assert result["failed"] < result["attempted"]
