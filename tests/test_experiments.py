import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import nclaw
from nclaw.cli import main
from nclaw.data import gaussian_datum
from nclaw.experiments import counterexample_1
from nclaw.grids import Field, Grid1D, lp_norm
from nclaw.kernels import EVEN_BUMP, Kernel
from nclaw.local_entropy import CFLError
from nclaw.nonlocal_solvers import CharacteristicsCrossed, NonlocalRunConfig, run_nonlocal
from nclaw.velocity import identity_law, normalize
from nclaw.viscous import NonFiniteState, ViscousRunConfig, run_viscous


def test_ce1_mass_gap_persists_at_smaller_eps():
    # the equality branch of the half-line mass identity is uniform in eps:
    # rerun the nonlocal side with eps = 0.025 (shorter horizon, fewer
    # particles; the structure is resolution independent)
    grid = Grid1D(-4.5, 4.5, 900)
    fine = Grid1D(-4.5, 4.5, int(round(9.0 / (2.0 / 1000))))
    cfg = NonlocalRunConfig(
        grid=grid,
        kernel=Kernel(EVEN_BUMP, 0.025),
        law=identity_law(),
        t_end=0.1,
        scheme="particles",
        n_outputs=5,
        windows=((-4.0, 0.0),),
        signed_masses=True,
    )
    from nclaw.data import odd_datum

    res = run_nonlocal(cfg, odd_datum(fine))
    wm = res.diagnostics.array("window_mass")
    assert np.max(np.abs(wm - 1.0)) <= 0.02


def test_tiny_scenario_rerun_is_bit_identical():
    r1 = counterexample_1(n_particles=300, godunov_n=512, gate=False)
    r2 = counterexample_1(n_particles=300, godunov_n=512, gate=False)
    assert r1.manifest.hash == r2.manifest.hash
    for label in r1.series:
        a, b = r1.series[label], r2.series[label]
        assert a.times == b.times
        for name in a.channels:
            assert a.channels[name] == b.channels[name]


def test_ce1_lax_friedrichs_gate_reruns_on_half_the_cells():
    # the gate must compare two resolutions, not a run with itself
    r = counterexample_1(n_particles=300, godunov_n=512, t_end=0.05,
                         solver="lax_friedrichs", gate=True)
    (cmp,) = [c for c in r.gate.comparisons if c["name"] == "nonlocal_window_mass"]
    assert cmp["coarse"] != cmp["fine"]


def test_b_zero_viscous_distance_is_heat_smoothing():
    # with b = 0 the inviscid solution never moves, so the viscous-inviscid
    # distance is the pure diffusion smoothing error (closed-form Gaussian
    # widening oracle)
    law, _ = normalize(lambda u: np.zeros_like(np.asarray(u, dtype=float)))
    grid = Grid1D(-4.75, 4.75, 3800)
    u0 = gaussian_datum(grid, 1.0, 0.6)
    nu = 0.01
    res = run_viscous(
        ViscousRunConfig(grid=grid, law=law, nu=nu, t_end=0.5, dt=0.01, n_outputs=5),
        u0,
    )
    dist = lp_norm(Field(grid, res.final.values - u0.values), 1)
    widened = gaussian_datum(grid, 1.0, np.sqrt(0.6**2 + 2 * nu * 0.5))
    oracle = lp_norm(Field(grid, widened.values - u0.values), 1)
    assert dist == pytest.approx(oracle, rel=0.1)


# ---------------------------------------------------------------------------
# the gate rerun in a forked child process

TINY_CE1 = ["--no-emit", "ce1", "--n", "300", "--godunov-n", "512"]
FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not FORK, reason="the rerun runs in-process without fork")


def _patch_godunov(monkeypatch, acts):
    """Make ce1's Godunov run call ``acts[n_cells]()`` first at those resolutions.

    The forked child inherits the patch. At TINY_CE1's preset the main run
    has 512 cells and the gate rerun 256.
    """
    import nclaw.experiments

    real = nclaw.experiments.run_local

    def run_local(initial, *args, **kwargs):
        acts.get(initial.grid.n_cells, lambda: None)()
        return real(initial, *args, **kwargs)

    monkeypatch.setattr(nclaw.experiments, "run_local", run_local)


@pytest.mark.parametrize(
    "exc",
    [CFLError(1.0, 0.5), CharacteristicsCrossed("crossed"), NonFiniteState("nan")],
    ids=lambda e: type(e).__name__,
)
def test_scenario_errors_survive_pickling(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


@pytest.mark.parametrize("exc_type, code", [(CharacteristicsCrossed, 4), (ValueError, 1)])
def test_rerun_failure_keeps_its_exit_code(monkeypatch, capsys, exc_type, code):
    def fail():
        raise exc_type(f"raised in process {os.getpid()}")

    _patch_godunov(monkeypatch, {256: fail})
    assert main(TINY_CE1) == code
    err = capsys.readouterr().err
    assert "raised in process" in err
    if FORK:
        assert f"raised in process {os.getpid()}" not in err  # the child raised it


@needs_fork
def test_rerun_failure_carries_the_child_traceback(monkeypatch):
    def fail():
        raise ValueError("bad rerun")

    _patch_godunov(monkeypatch, {256: fail})
    with pytest.raises(ValueError, match="bad rerun") as info:
        counterexample_1(n_particles=300, godunov_n=512)
    cause = str(info.value.__cause__)
    assert "raised in the gate rerun process" in cause
    assert "in fail" in cause and "ValueError: bad rerun" in cause


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the test after ``seconds``, so a hang fails it."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@needs_fork
def test_rerun_child_that_dies_is_named_not_awaited(monkeypatch):
    _patch_godunov(monkeypatch, {256: lambda: os._exit(7)})
    with _deadline(30), pytest.raises(ChildProcessError, match="exit code 7"):
        counterexample_1(n_particles=300, godunov_n=512)
    assert multiprocessing.active_children() == []


@needs_fork
def test_main_failure_stops_the_running_child(monkeypatch):
    def fail():
        raise CharacteristicsCrossed("main run failed")

    # the child stalls, so it still runs when the main run fails
    _patch_godunov(monkeypatch, {256: lambda: time.sleep(60), 512: fail})
    with _deadline(30), pytest.raises(CharacteristicsCrossed, match="main run failed"):
        counterexample_1(n_particles=300, godunov_n=512)
    assert multiprocessing.active_children() == []


def test_no_gate_starts_no_child_and_phases_are_recorded(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    r = counterexample_1(n_particles=300, godunov_n=512, gate=False)
    assert forks == []
    assert r.manifest.phase_wall_s["rerun"] is None
    r = counterexample_1(n_particles=300, godunov_n=512)
    assert len(forks) == FORK
    assert sorted(r.manifest.phase_wall_s) == ["judge", "main", "rerun"]
    assert all(s > 0.0 for s in r.manifest.phase_wall_s.values())


def test_importing_the_cli_does_not_import_multiprocessing():
    # the rerun imports it when it forks, so setting up the CLI stays lean
    env = dict(os.environ, PYTHONPATH=str(Path(nclaw.__file__).resolve().parents[1]))
    code = "import nclaw.cli, sys; assert 'multiprocessing' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
