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
from nclaw.experiments import _pool, counterexample_1, singular_limit_rate
from nclaw.grids import Grid1D
from nclaw.kernels import EVEN_BUMP, Kernel
from nclaw.local_entropy import CFLError
from nclaw.nonlocal_solvers import CharacteristicsCrossed, NonlocalRunConfig, run_nonlocal
from nclaw.viscous import NonFiniteState


def test_ce1_mass_gap_persists_at_smaller_eps():
    # the equality branch of the half-line mass identity is uniform in eps:
    # rerun the nonlocal side with eps = 0.025 (shorter horizon, fewer
    # particles; the structure is resolution independent)
    grid = Grid1D(-4.5, 4.5, 900)
    fine = Grid1D(-4.5, 4.5, int(round(9.0 / (2.0 / 1000))))
    cfg = NonlocalRunConfig(
        grid=grid,
        kernel=Kernel(EVEN_BUMP, 0.025),
        t_end=0.1,
        scheme="particles",
        n_outputs=5,
        windows=((-4.0, 0.0),),
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


def test_rate_extrapolates_its_distances_from_the_gate_rerun():
    # first-order dx error: d(0) ~ 2 d(dx/2) - d(dx), with no rerun no estimate
    kw = dict(eps_list=(0.4, 0.2), t_end=0.2)
    n = singular_limit_rate(**kw).numbers
    assert n["distances_extrapolated"] == [
        2.0 * d2 - d1 for d1, d2 in zip(n["distances"], n["distances_refined"])]
    assert singular_limit_rate(**kw, gate=False).numbers["distances_extrapolated"] is None


def test_ce1_lax_friedrichs_gate_reruns_on_half_the_cells():
    # the gate must compare two resolutions, not a run with itself
    r = counterexample_1(n_particles=300, godunov_n=512, t_end=0.05,
                         solver="lax_friedrichs", gate=True)
    (cmp,) = [c for c in r.gate.comparisons if c["name"] == "nonlocal_window_mass"]
    assert cmp["main"] != cmp["rerun"]


# ---------------------------------------------------------------------------
# the pooled runs: this process and one forked helper

TINY_CE1 = ["--no-emit", "ce1", "--n-particles", "300", "--godunov-n", "512"]
FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not FORK, reason="the runs are not pooled without fork")


def _patch_godunov(monkeypatch, in_parent=lambda: None, in_helper=lambda: None):
    """Make ce1's Godunov runs call ``in_parent()`` in this process and
    ``in_helper()`` in the pool's helper first.

    Each Godunov run first waits, up to 20 s, until the other process has
    entered one too. With the gate on, TINY_CE1 pools two Godunov runs (512
    and 256 cells), and a process that waits in one cannot take the other,
    so each process runs one of them whatever the schedule.
    """
    import nclaw.experiments

    real = nclaw.experiments.run_local
    pid = os.getpid()
    entered = {"parent": multiprocessing.Event(), "helper": multiprocessing.Event()}

    def run_local(initial, *args, **kwargs):
        me, other = ("parent", "helper") if os.getpid() == pid else ("helper", "parent")
        entered[me].set()
        entered[other].wait(20)
        (in_parent if me == "parent" else in_helper)()
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
@pytest.mark.parametrize("exc_type, code", [(CharacteristicsCrossed, 4), (ValueError, 1)])
def test_rerun_failure_keeps_its_exit_code(monkeypatch, capsys, exc_type, code):
    # a failure in the gated run keeps its exit code in either process
    def fail():
        raise exc_type(f"raised in process {os.getpid()}")

    for where in ("in_helper", "in_parent"):
        with monkeypatch.context() as patch, _deadline(30):
            _patch_godunov(patch, **{where: fail})
            assert main(TINY_CE1) == code
        err = capsys.readouterr().err
        assert "raised in process" in err
        assert (f"raised in process {os.getpid()}" in err) == (where == "in_parent")


@needs_fork
def test_rerun_failure_carries_the_child_traceback(monkeypatch):
    def fail():
        raise ValueError("bad rerun")

    _patch_godunov(monkeypatch, in_helper=fail)
    with _deadline(30), pytest.raises(ValueError, match="bad rerun") as info:
        counterexample_1(n_particles=300, godunov_n=512)
    cause = str(info.value.__cause__)
    assert "raised in the pool helper process" in cause
    assert "in fail" in cause and "ValueError: bad rerun" in cause


@needs_fork
def test_rerun_child_that_dies_is_named_not_awaited(monkeypatch):
    _patch_godunov(monkeypatch, in_helper=lambda: os._exit(7))
    with _deadline(30), pytest.raises(ChildProcessError, match="exit code 7"):
        counterexample_1(n_particles=300, godunov_n=512)
    assert multiprocessing.active_children() == []


@needs_fork
def test_main_failure_stops_the_running_child(monkeypatch):
    def fail():
        raise CharacteristicsCrossed("main run failed")

    # the helper stalls in its Godunov run, so it still runs when this process fails
    _patch_godunov(monkeypatch, in_parent=fail, in_helper=lambda: time.sleep(60))
    with _deadline(30), pytest.raises(CharacteristicsCrossed, match="main run failed"):
        counterexample_1(n_particles=300, godunov_n=512)
    assert multiprocessing.active_children() == []


def test_no_gate_starts_no_helper_and_runs_are_recorded(monkeypatch):
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
    assert [(s["label"], s["k"], s["process"]) for s in r.manifest.run_stats] == [
        ("nonlocal", 1, "parent"), ("godunov", 1, "parent"), ("lf_coarse", 1, "parent")]
    r = counterexample_1(n_particles=300, godunov_n=512)
    assert len(forks) == FORK
    stats = r.manifest.run_stats
    assert [(s["label"], s["k"]) for s in stats] == [
        ("nonlocal", 2), ("godunov", 2), ("nonlocal", 1), ("godunov", 1), ("lf_coarse", 1)]
    assert all(s["wall_s"] > 0.0 and s["n_steps"] > 0 for s in stats)
    assert [s["n_rejected"] for s in stats if s["label"] == "nonlocal"] == [0, 0]
    assert stats[1]["n_rejected"] is None  # Godunov runs reject no step
    assert r.manifest.judge_wall_s > 0.0


def test_importing_the_cli_does_not_import_multiprocessing():
    # the pool imports it when it forks, so setting up the CLI stays lean
    env = dict(os.environ, PYTHONPATH=str(Path(nclaw.__file__).resolve().parents[1]))
    code = "import nclaw.cli, sys; assert 'multiprocessing' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


_SCIPY_FREE_COUNTEREXAMPLES = """
import sys

def scipy_modules():
    return [m for m in sys.modules if m.partition(".")[0] == "scipy"]

import nclaw.cli
assert scipy_modules() == [], scipy_modules()[:5]

import multiprocessing
multiprocessing.get_all_start_methods = lambda: ["spawn"]  # every call runs here
from nclaw import experiments as ex

loaded_at_pool = []
pool = ex._pool

def recording_pool(jobs, fork=True):
    loaded_at_pool.append("scipy.linalg.lapack" in sys.modules)
    return pool(jobs, fork)

ex._pool = recording_pool
r = ex.counterexample_1(n_particles=300, godunov_n=512)
assert r.manifest.to_json()["backend"]["scipy"] is None
ex.counterexample_2(n_particles=200, godunov_n=512)
ex.counterexample_3(n_particles=200, godunov_n=512)
assert scipy_modules() == [], scipy_modules()[:5]

del loaded_at_pool[:]
r = ex.vanishing_viscosity(nu_list=(0.1, 0.03), t_end=0.1)
assert "scipy.linalg" in sys.modules
assert r.manifest.backend["scipy"] == sys.modules["scipy"].__version__
# loaded before the pool is entered, so a forked helper inherits it
assert loaded_at_pool == [True], loaded_at_pool
"""


def test_counterexamples_never_import_scipy():
    # only the viscous solver and the heat-kernel quadrature need SciPy:
    # importing the CLI and running ce1-ce3 leave it unloaded, and the
    # manifest's backend says so; the viscous experiment loads it before
    # it pools its runs
    env = dict(os.environ, PYTHONPATH=str(Path(nclaw.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", _SCIPY_FREE_COUNTEREXAMPLES], env=env, check=True)


# ---------------------------------------------------------------------------
# _pool itself


def _jobs(*calls):
    return [(f"call{i}", 1, call) for i, call in enumerate(calls)]


@needs_fork
def test_pool_returns_results_in_order_whichever_process_ran_them():
    # the first two calls meet at a barrier, so they run in different processes
    both = multiprocessing.Barrier(2, timeout=20)

    def meet_then(i):
        both.wait()
        return i, os.getpid()

    calls = [lambda: meet_then(0), lambda: meet_then(1)] + [
        (lambda i=i: (i, os.getpid())) for i in range(2, 8)]
    with _deadline(30):
        outs, stats = zip(*_pool(_jobs(*calls)))
    assert [i for i, _ in outs] == list(range(8))
    assert [s["label"] for s in stats] == [f"call{i}" for i in range(8)]
    assert {s["process"] for s in stats[:2]} == {"parent", "helper"}
    for (_, pid), s in zip(outs, stats):
        assert (pid == os.getpid()) == (s["process"] == "parent")
        assert s["n_steps"] is None and s["n_rejected"] is None


@needs_fork
def test_pool_result_larger_than_the_pipe_does_not_stall_the_helper():
    # whichever process runs the second of two calls that meet at a barrier,
    # this one then waits for the third call: only the helper can make it,
    # after returning 1 MB from its first
    both = multiprocessing.Barrier(2, timeout=20)
    third_ran = multiprocessing.Event()
    pid = os.getpid()

    def big():
        both.wait()
        waited = third_ran.wait(20) if os.getpid() == pid else None
        return np.arange(131_072, dtype=float), waited

    with _deadline(30):
        outs, stats = zip(*_pool(_jobs(big, big, third_ran.set)))
    for (arr, waited), s in zip(outs[:2], stats):
        assert np.array_equal(arr, np.arange(131_072, dtype=float))
        assert waited is (True if s["process"] == "parent" else None)


@pytest.mark.parametrize("hide_fork", [False, True], ids=["one_call", "fork_hidden"])
def test_pool_runs_inline_with_one_call_or_without_fork(monkeypatch, hide_fork):
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    if hide_fork:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    calls = [os.getpid] * (3 if hide_fork else 1)
    outs, stats = zip(*_pool(_jobs(*calls)))
    assert outs == (os.getpid(),) * len(calls)
    assert [s["process"] for s in stats] == ["parent"] * len(calls)
    assert forks == []
