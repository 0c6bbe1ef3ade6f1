"""The modules a cold start loads: numpy and scipy.special, and no more
until a call needs a quadrature.  A tilt's or a cap mixture's first draw
builds its inverse-CDF table on numpy alone.

Each check runs in a fresh interpreter, since the test modules here
import scipy.integrate themselves."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sphuni

_LAZY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")

_SCRIPT = """
import json, sys

def loaded():
    return [m for m in {lazy!r} if m in sys.modules]

steps = {{}}
import sphuni
from sphuni import (CapMixture, ExperimentConfig, Fvml, LowRank, Uniform, Watson,
                    distance_from_uniformity, run_power_curve, run_test, sample)
steps["import sphuni"] = loaded()
x = sample(Uniform(20), 30, 1)
for method in ("sup_distance", "rayleigh", "bingham", "packing"):
    run_test(x, method)
steps["run_test"] = loaded()
distance_from_uniformity(Fvml(20, 2.0))
steps["fvml distance"] = loaded()
distance_from_uniformity(LowRank(20, 5))
steps["low-rank distance"] = loaded()
sample(Fvml(20, 2.0), 5, 0)
steps["fvml sample"] = loaded()
sample(Watson(20, 2.0), 5, 0)
sample(CapMixture(20), 5, 0)
steps["watson and cap sample"] = loaded()
# configs/fvml_fig1.json's shape, at 100 replications
run_power_curve(ExperimentConfig(80, 80, 0.05, 100, "fvml", (0.5, 1.0, 1.5, 2.0),
                                 ("sup_distance", "rayleigh", "bingham", "packing"), 1))
steps["power curve"] = loaded()
top = {{m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}}
steps["scipy subpackages"] = sorted(t for t in top if not t.startswith("_") and t != "version")
print(json.dumps(steps))
"""


def _env():
    # the child imports the sphuni these tests import
    return dict(os.environ, PYTHONPATH=str(Path(sphuni.__file__).resolve().parents[1]))


def test_cold_start_loads_no_quadrature_or_interpolation():
    out = subprocess.run([sys.executable, "-c", _SCRIPT.format(lazy=_LAZY)], env=_env(),
                         capture_output=True, text=True, check=True, timeout=300).stdout
    steps = json.loads(out)
    # a tilt's or a cap mixture's first draw builds its inverse-CDF table on
    # numpy alone, and no normaliser
    for step in ("import sphuni", "run_test", "fvml distance", "low-rank distance",
                 "fvml sample", "watson and cap sample", "power curve"):
        assert steps[step] == [], step
    assert steps["scipy subpackages"] == ["special"]


@pytest.mark.parametrize("args", [
    ["--version"],
    ["test", "--data", "{csv}", "--normalize", "--seed", "1"],
    ["power", "--config", "{config}"],
], ids=["version", "test", "power"])
def test_cli_cold_start_loads_no_quadrature_or_interpolation(tmp_path, args):
    # cli.py imports more of the package than `import sphuni` does; its
    # import log, on stderr under -X importtime, must name none of the
    # modules, and a power curve's tilt draws load none of them either
    csv, config = tmp_path / "cold.csv", tmp_path / "cold.json"
    np.savetxt(csv, np.random.default_rng(1).standard_normal((30, 20)), delimiter=",")
    config.write_text(json.dumps({
        "n": 20, "p": 20, "alpha": 0.05, "reps": 100, "model_family": "fvml",
        "signal_grid": [1.0], "methods": ["sup_distance", "rayleigh", "bingham", "packing"],
        "seed": 1,
    }))
    cmd = [sys.executable, "-X", "importtime", "-m", "sphuni.cli"] + [
        a.format(csv=csv, config=config) for a in args]
    run = subprocess.run(cmd, env=_env(), capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert "import time:" in run.stderr
    assert [m for m in _LAZY if m in run.stderr] == []
