import os
import subprocess
import sys
from pathlib import Path

import pytest

import nclaw

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# the library-tour demos call the solvers and functionals directly; the later
# ones only call the scenario functions with their defaults, which the
# acceptance tests already run
@pytest.mark.parametrize(
    "demo",
    ["01_fields_and_functionals.py", "02_kernels_and_convolution.py",
     "03_local_solver_and_oracles.py"],
)
def test_library_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(nclaw.__file__).resolve().parents[1]))
    r = subprocess.run(
        [sys.executable, str(DEMOS / demo)], env=env, cwd=tmp_path,
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
