import os
import subprocess
import sys
from pathlib import Path

import pytest

import nclaw

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run(demo, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(nclaw.__file__).resolve().parents[1]))
    r = subprocess.run(
        [sys.executable, str(DEMOS / demo)], env=env, cwd=cwd,
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr


# the library-tour demos call the solvers and functionals directly
@pytest.mark.parametrize(
    "demo",
    ["01_fields_and_functionals.py", "02_kernels_and_convolution.py",
     "03_local_solver_and_oracles.py"],
)
def test_library_demo_runs(demo, tmp_path):
    _run(demo, tmp_path)


# the scenario demos call the scenario functions below the preset sizes:
# 04-06 pass their own particle and Godunov cell counts, 07 runs rate and
# visc on shorter eps and nu lists without the gate
@pytest.mark.parametrize(
    "demo",
    ["04_halfline_mass_counterexample.py", "05_confinement_counterexample.py",
     "06_entropy_counterexample.py", "07_viscous_limits.py"],
)
def test_scenario_demo_runs(demo, tmp_path):
    _run(demo, tmp_path)
