"""The modules a cold start loads: numpy and scipy.special, and no more
until a call needs a quadrature or an inverse-CDF table.

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

_LAZY = ("scipy.integrate", "scipy.interpolate")

_SCRIPT = """
import json, sys

def loaded():
    return [m for m in {lazy!r} if m in sys.modules]

steps = {{}}
import sphuni
from sphuni import Fvml, LowRank, Uniform, distance_from_uniformity, run_test, sample
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
print(json.dumps(steps))
"""


def _env():
    # the child imports the sphuni these tests import
    return dict(os.environ, PYTHONPATH=str(Path(sphuni.__file__).resolve().parents[1]))


def test_cold_start_loads_no_quadrature_or_interpolation():
    out = subprocess.run([sys.executable, "-c", _SCRIPT.format(lazy=_LAZY)], env=_env(),
                         capture_output=True, text=True, check=True, timeout=300).stdout
    steps = json.loads(out)
    for step in ("import sphuni", "run_test", "fvml distance", "low-rank distance"):
        assert steps[step] == [], step
    # a tilt's first draw builds its inverse-CDF table, and no normaliser
    assert steps["fvml sample"] == ["scipy.interpolate"]


@pytest.mark.parametrize("args", [["--version"], ["test", "--data", "{csv}", "--normalize", "--seed", "1"]],
                         ids=["version", "test"])
def test_cli_cold_start_loads_no_quadrature_or_interpolation(tmp_path, args):
    # cli.py imports more of the package than `import sphuni` does; its
    # import log, on stderr under -X importtime, must name neither module
    csv = tmp_path / "cold.csv"
    np.savetxt(csv, np.random.default_rng(1).standard_normal((30, 20)), delimiter=",")
    cmd = [sys.executable, "-X", "importtime", "-m", "sphuni.cli"] + [a.format(csv=csv) for a in args]
    run = subprocess.run(cmd, env=_env(), capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert "import time:" in run.stderr
    assert [m for m in _LAZY if m in run.stderr] == []
