"""Run one workload of the sphuni benchmark and print its metrics.

    python3 perfbench/run.py --workload power-small --seed 1 --seconds 20 --trace 0

Workloads: power-small, power-large, distance-quadrature, test-requests
(see NOTES.md).  The lines before the last report every metric with its
unit and sample count, the run manifest and, with --trace 1, every span.
The last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics BENCHMARK.json names, or with --trace 1
its per-layer metrics.  The full result is also written to
.perfbench-out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json

import bench


def report(result: dict) -> None:
    print("manifest " + json.dumps(result["manifest"], sort_keys=True))
    for name, (value, unit, count) in result["named"].items():
        print(f"metric {name} = {value:.6g} {unit} (n={count})")
    for name, (value, unit) in {**result["end_to_end"], **result["layers"]}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, s in sorted(result["spans"].items()):
        print(f"span {name} calls={s['calls']} failures={s['failures']} "
              f"total_s={s['total_s']:.6g} self_s={s['self_s']:.6g} values={s['values']}")
    for problem in result["mismatches"]:
        print(f"mismatch {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: replay every operation layer by layer and report layer metrics")
    args = ap.parse_args(argv)

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    result = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.OUT_DIR.mkdir(exist_ok=True)
    out = bench.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, sort_keys=True))
    report(result)

    measured = result["layers"] if args.trace else result["end_to_end"]
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"{m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
