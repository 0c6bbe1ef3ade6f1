"""Capture the reference outputs that every benchmark run is checked against.

    python3 perfbench/record.py [workload ...]

Computes, from the sources in this checkout, the outputs of every input
the benchmark can generate (one per seed of the seed pool) and writes them
to perfbench/reference.json, replacing the named workloads (default: all).
Run it only at a commit whose outputs are known to be right: from then on
a run that computes anything else counts those operations as failed.
"""

from __future__ import annotations

import json
import re
import sys

import bench


def main(argv: list[str]) -> int:
    names = argv or list(bench.WORKLOADS)
    refs = bench.load_references() if bench.REFERENCE_PATH.exists() else {}
    shapes = {name: bench.FULL[name] for name in names}
    refs.update(bench.record_references(shapes, log=lambda msg: print(msg, flush=True)))
    refs["git_sha"] = bench.git_sha()
    text = json.dumps(refs, indent=1, sort_keys=True)
    # one line per list of numbers, so that a changed output is a one-line diff
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + ", ".join(x.strip() for x in m.group(1).split(",")) + "]", text)
    bench.REFERENCE_PATH.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
