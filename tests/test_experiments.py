import math
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
from nclaw import kernels, viscous
from nclaw.cli import main
from nclaw.data import gaussian_datum, step_datum
from nclaw.experiments import (
    _pool,
    counterexample_1,
    counterexample_2,
    counterexample_3,
    singular_limit_rate,
    vanishing_viscosity,
)
from nclaw.grids import Grid1D
from nclaw.kernels import EVEN_BUMP, Kernel
from nclaw.local_entropy import CFLError
from nclaw.nonlocal_solvers import CharacteristicsCrossed, run_nonlocal
from nclaw.viscous import NonFiniteState


@pytest.mark.parametrize("n_particles", [-5, 0])
def test_ce1_rejects_a_particle_count_below_one_before_any_run(monkeypatch, n_particles):
    # ce1 rounds its count to a multiple of 4; a count below 1 must not
    # round up to 4 particles and pass
    import nclaw.experiments

    monkeypatch.setattr(nclaw.experiments, "_pool", lambda *a, **kw: pytest.fail("ran"))
    with pytest.raises(ValueError, match="n_particles"):
        counterexample_1(n_particles=n_particles, godunov_n=512, gate=False)


@pytest.mark.parametrize("scenario", [counterexample_1, counterexample_2, counterexample_3])
@pytest.mark.parametrize("godunov_n, gate, message", [
    (3, True, "godunov_n=3 must be >= 4 with the gate on"),
    (1, False, "godunov_n=1 must be >= 2$"),
])
def test_a_godunov_count_below_two_cells_is_rejected_before_any_run(
    monkeypatch, scenario, godunov_n, gate, message
):
    # with the gate on the rerun halves the count: 3 cells become 1
    import nclaw.experiments

    monkeypatch.setattr(nclaw.experiments, "_pool", lambda *a, **kw: pytest.fail("ran"))
    with pytest.raises(ValueError, match=message):
        scenario(n_particles=300, godunov_n=godunov_n, gate=gate)


def test_ce1_mass_gap_persists_at_smaller_eps():
    # the equality branch of the half-line mass identity is uniform in eps:
    # rerun the nonlocal side with eps = 0.025 (shorter horizon, fewer
    # particles; the structure is resolution independent)
    fine = Grid1D(-4.5, 4.5, int(round(9.0 / (2.0 / 1000))))
    from nclaw.data import odd_datum

    res = run_nonlocal(odd_datum(fine), Kernel(EVEN_BUMP, 0.025), 0.1, n_outputs=5,
                       window=(-4.0, 0.0))
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
            # bytes, not ==: a NaN from the pool's helper is a new object,
            # and two NaN objects are never equal
            assert np.asarray(a.channels[name]).tobytes() == np.asarray(b.channels[name]).tobytes()


def test_rate_extrapolates_its_distances_from_the_gate_rerun():
    # first-order dx error: d(0) ~ 2 d(dx/2) - d(dx), with no rerun no estimate
    kw = dict(eps_list=(0.4, 0.2), t_end=0.2)
    n = singular_limit_rate(**kw).numbers
    assert n["distances_extrapolated"] == [
        2.0 * d2 - d1 for d1, d2 in zip(n["distances"], n["distances_refined"])]
    assert singular_limit_rate(**kw, gate=False).numbers["distances_extrapolated"] is None


def test_ce2_reads_the_entropy_right_mass_at_t_end():
    # t_end is a Godunov output: the headline is the window mass there, and
    # the time integral runs over [0, t_end]
    r = counterexample_2(n_particles=200, godunov_n=512, gate=False)
    gd = r.series["godunov"]
    i = int(np.argmin(np.abs(gd.t - 0.5)))
    assert gd.t[i] == pytest.approx(0.5, abs=1e-12)
    wm = gd.array("window_mass")
    checks = {c.name: c.value for c in r.checks}
    assert checks["entropy_right_mass_at_T"] == wm[i]
    assert checks["entropy_right_mass_time_integral"] == np.trapezoid(wm[: i + 1], gd.t[: i + 1])


def test_ce2_judges_its_entropy_headlines_at_its_own_t_end():
    # the right mass is t and its time integral t^2/2 up to t = 1/2: the
    # bands are centred on those closed forms at t_end, not at 1/2
    r = counterexample_2(n_particles=200, godunov_n=512, t_end=0.4, gate=False)
    checks = {c.name: c for c in r.checks}
    at_t, integral = checks["entropy_right_mass_at_T"], checks["entropy_right_mass_time_integral"]
    assert at_t.passed and integral.passed
    assert (at_t.lo, at_t.hi) == pytest.approx((0.38, 0.42), abs=1e-15)
    assert (integral.lo, integral.hi) == pytest.approx((0.076, 0.084), abs=1e-15)
    assert at_t.value == pytest.approx(0.4, abs=2e-3)
    assert integral.value == pytest.approx(0.08, rel=5e-3)


@pytest.mark.parametrize("scenario, n_particles, t_end, name, exact", [
    (counterexample_1, 300, 0.2, "entropy_window_mass", 0.8),
    (counterexample_3, 200, 0.3, "entropy_solution_entropy_at_T", -0.15),
], ids=["ce1", "ce3"])
def test_the_entropy_side_band_is_centred_on_the_exact_value_at_t_end(scenario, n_particles,
                                                                       t_end, name, exact):
    # the entropy solution's half-line mass is 1 - t (ce1) and its entropy
    # -t/2 (ce3): a band fixed at the preset's t_end failed any other t_end
    r = scenario(n_particles=n_particles, godunov_n=512, t_end=t_end, gate=False)
    (check,) = [c for c in r.checks if c.name == name]
    assert (check.lo, check.hi) == pytest.approx((exact - 0.02, exact + 0.02), abs=1e-15)
    assert check.passed and r.verdict == "PASS"


@pytest.mark.parametrize("t_end", [0.505, 0.6, 0.0, -0.1])
def test_ce2_rejects_a_t_end_off_its_closed_forms_before_any_run(monkeypatch, t_end):
    # past 1/2 the right mass is no longer t; off the Godunov output times
    # the headlines would be read at another time
    import nclaw.experiments

    monkeypatch.setattr(nclaw.experiments, "_pool", lambda *a, **kw: pytest.fail("ran"))
    with pytest.raises(ValueError, match=f"t_end={t_end} must be a multiple of 0.01"):
        counterexample_2(n_particles=200, godunov_n=512, t_end=t_end, gate=False)


def test_visc_rejects_a_datum_too_wide_for_its_margin_before_any_run(monkeypatch, capsys):
    # the viscous runs' domain check, made for every nu before the pool:
    # without it the particle reference left its grid first and the run exited 4
    import nclaw.experiments

    monkeypatch.setattr(nclaw.experiments, "_pool", lambda *a, **kw: pytest.fail("ran"))
    argv = ["--no-emit", "visc", "--width", "3", "--nu-list", "0.1,0.03", "--no-gate"]
    assert main(argv) == 1
    margin = 4.0 * math.sqrt(0.1 * 0.5) + 0.1
    assert f"domain too small: needs support plus a margin of {margin:.3f}" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("gate", [[], ["--no-gate"]], ids=["gate", "no-gate"])
def test_visc_rejects_an_eps_below_its_cell_width_before_any_run(monkeypatch, capsys, gate):
    # the kernel check of the viscous runs' convolution, made once before
    # the pool: inside it, the first viscous run refused after a particle run
    import nclaw.experiments

    monkeypatch.setattr(nclaw.experiments, "_pool", lambda *a, **kw: pytest.fail("ran"))
    assert main(["--no-emit", "visc", "--eps", "0.002", *gate]) == 1
    assert "error: kernel under-resolved: eps=0.002 < dx=0.0025 of the viscous runs" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("scenario, t_end, horizon", [
    (counterexample_1, 0.0, 0.25), (counterexample_1, -0.1, 0.25), (counterexample_1, 0.3, 0.25),
    (counterexample_3, 0.0, 1.0), (counterexample_3, 1.5, 1.0),
])
def test_ce1_and_ce3_reject_a_t_end_off_their_oracles_horizon_before_any_run(
    monkeypatch, scenario, t_end, horizon
):
    # at t_end = 0 no run moves: the pool was started and its first run failed
    import nclaw.experiments

    monkeypatch.setattr(nclaw.experiments, "_pool", lambda *a, **kw: pytest.fail("ran"))
    with pytest.raises(ValueError, match=rf"t_end={t_end} must lie in \(0.0, {horizon}\]"):
        scenario(n_particles=200, godunov_n=512, t_end=t_end, gate=False)


@pytest.mark.parametrize("scenario, kwargs, message", [
    (singular_limit_rate, dict(width=-0.3, eps_list=(0.4, 0.2), t_end=0.2),
     "width=-0.3 must be positive and finite"),
    (vanishing_viscosity, dict(width=-0.6, nu_list=(0.1, 0.03), t_end=0.1),
     "width=-0.6 must be positive and finite"),
    (vanishing_viscosity, dict(nu_list=(0.1, -0.03), t_end=0.1), "nu=-0.03 must be positive"),
    (singular_limit_rate, dict(eps_list=(-0.4, -0.2), t_end=0.2),
     r"eps_list=\[-0.4, -0.2\] must hold positive finite eps only"),
    (singular_limit_rate, dict(width=1e-9, eps_list=(0.4, 0.2), t_end=0.2),
     "width=1e-09 spans 5e-08 cells of dx=0.02, fewer than 4"),
    (vanishing_viscosity, dict(width=0.001, nu_list=(0.1, 0.03), t_end=0.1),
     "width=0.001 spans 0.4 cells of dx=0.0025, fewer than 4"),
], ids=["rate_width", "visc_width", "visc_nu", "rate_eps", "rate_unresolved_width",
        "visc_unresolved_width"])
def test_a_viscous_input_without_a_verdict_is_refused_before_any_run(
    monkeypatch, scenario, kwargs, message
):
    # a negative Gaussian width gave a datum of mass -1 and a FAIL verdict;
    # a negative nu was refused inside the pool, after two runs; negative
    # eps were refused by a grid of -188 cells, naming neither eps nor the list;
    # a width inside one cell gave a FAIL (rate's order -0.015, visc's
    # distances about 2)
    import nclaw.experiments

    monkeypatch.setattr(nclaw.experiments, "_pool", lambda *a, **kw: pytest.fail("ran"))
    with pytest.raises(ValueError, match=message):
        scenario(gate=False, **kwargs)


@pytest.mark.parametrize("width", [-0.3, 0.0, math.nan, math.inf])
def test_gaussian_datum_refuses_a_width_that_is_not_positive_and_finite(width):
    with pytest.raises(ValueError, match=f"width={width} must be positive and finite"):
        gaussian_datum(Grid1D(-1.0, 1.0, 10), width=width)


def test_gaussian_datum_refuses_a_width_of_fewer_than_4_cells():
    grid = Grid1D(-4.0, 4.0, 400)  # dx = 0.02
    assert gaussian_datum(grid, width=0.08).values.sum() * grid.dx == pytest.approx(1.0)
    with pytest.raises(ValueError, match="width=0.079 spans 3.95 cells of dx=0.02, fewer than 4"):
        gaussian_datum(grid, width=0.079)


def test_every_check_carries_its_rerun_and_the_gate_compares_those_with_a_margin():
    # ce2's support bounds, baricenter and moment gap have a rerun too; the
    # moment gap reads the k = 2 Godunov states at t >= 0.6
    r = counterexample_2(n_particles=200, godunov_n=512)
    assert all(c.rerun is not None and c.delta == abs(c.value - c.rerun) for c in r.checks)
    assert r.gate == "CONVERGED"
    assert [c.name for c in r.checks if c.converged is not None] == [
        c.name for c in r.checks if c.margin is not None] == [
        "nonlocal_right_mass", "entropy_right_mass_at_T", "entropy_right_mass_time_integral"]
    (gap,) = [c for c in r.checks if c.name == "godunov_moment_violation_gap"]
    assert gap.rerun > 0.0 and gap.rerun != gap.value
    assert all(c.null_reason == "no margin: the gate does not compare it"
               for c in r.checks if c.margin is None)


def test_ce1_reports_the_resolved_lax_friedrichs_drain_beside_a_passing_check():
    # resolved in eps (dx = 0.04 eps), the dissipative scheme still drains
    # the half-line mass that the particle flow keeps: a side number, not a check
    r = counterexample_1(n_particles=300, godunov_n=512, t_end=0.05, gate=False)
    (check,) = [c for c in r.checks if c.name == "nonlocal_window_mass"]
    assert check.passed and check.provenance == "particles"
    assert r.numbers["fv_window_mass"] < 0.98
    assert r.numbers["fv_dx_over_eps"] == 0.04
    assert next(iter(r.series)) == "nonlocal" and "fv" in r.series


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


@needs_fork
def test_no_gate_forks_one_helper_and_runs_are_recorded(monkeypatch):
    # the gate decides what is compared, not where the runs run: gate off,
    # the runs are pooled too
    import nclaw.experiments

    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    # each process's first run waits, up to 20 s, until the other process
    # has entered one too, so both make a run whatever the schedule
    pid = os.getpid()
    entered = {"parent": multiprocessing.Event(), "helper": multiprocessing.Event()}

    def meet(solver):
        def run(*args, **kwargs):
            me, other = ("parent", "helper") if os.getpid() == pid else ("helper", "parent")
            if not entered[me].is_set():
                entered[me].set()
                entered[other].wait(20)
            return solver(*args, **kwargs)
        return run

    monkeypatch.setattr(os, "fork", counting_fork)
    with monkeypatch.context() as patch:
        for name in ("run_nonlocal", "run_local"):
            patch.setattr(nclaw.experiments, name, meet(getattr(nclaw.experiments, name)))
        r = counterexample_1(n_particles=300, godunov_n=512, gate=False)
    assert len(forks) == 1
    stats = r.manifest.run_stats
    assert [(s["label"], s["k"]) for s in stats] == [
        ("nonlocal", 1), ("godunov", 1), ("fv", 1), ("lf_coarse", 1)]
    assert {s["process"] for s in stats} == {"parent", "helper"}
    assert all(s["passes"] is not None for s in stats)  # tallied in the pool
    r = counterexample_1(n_particles=300, godunov_n=512)
    assert len(forks) == 2
    stats = r.manifest.run_stats
    assert [(s["label"], s["k"]) for s in stats] == [
        ("nonlocal", 2), ("godunov", 2), ("nonlocal", 1), ("godunov", 1), ("fv", 1),
        ("lf_coarse", 1)]
    assert all(s["wall_s"] > 0.0 and s["n_steps"] > 0 for s in stats)
    assert [s["n_rejected"] for s in stats if s["label"] == "nonlocal"] == [0, 0]
    assert stats[1]["n_rejected"] is None  # Godunov runs reject no step
    for s in stats:
        assert 0.0 < s["dt_min"] <= s["dt_median"] <= s["dt_max"]  # every run's dt range
        if s["label"] == "nonlocal":  # the particle runs' step-rule telemetry
            assert sum(s["steps_by_rule"].values()) == s["n_steps"]
            assert s["steps_by_rule"]["output"] > 0 and s["n_startup"] == 2
        else:
            assert s["steps_by_rule"] is None
        if s["label"] == "godunov":  # one uniform step
            assert s["dt_max"] == pytest.approx(s["dt_min"], rel=1e-9)
    assert r.manifest.judge_wall_s > 0.0


def test_importing_the_cli_does_not_import_multiprocessing():
    # the pool imports it when it forks, so setting up the CLI stays lean
    env = dict(os.environ, PYTHONPATH=str(Path(nclaw.__file__).resolve().parents[1]))
    code = "import nclaw.cli, sys; assert 'multiprocessing' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


_SCIPY_FREE_LAB = """
import sys

def scipy_modules():
    return [m for m in sys.modules if m.partition(".")[0] == "scipy"]

import nclaw.cli
assert scipy_modules() == [], scipy_modules()[:5]

import multiprocessing
multiprocessing.get_all_start_methods = lambda: ["spawn"]  # every call runs here
from nclaw import experiments as ex

for fn, kwargs in [
    (ex.counterexample_1, dict(n_particles=300, godunov_n=512)),
    (ex.counterexample_2, dict(n_particles=200, godunov_n=512)),
    (ex.counterexample_3, dict(n_particles=200, godunov_n=512)),
    (ex.singular_limit_rate, dict(eps_list=(0.4, 0.2), t_end=0.2)),
    (ex.vanishing_viscosity, dict(nu_list=(0.1, 0.03), t_end=0.1)),
]:
    backend = fn(**kwargs).manifest.to_json()["backend"]
    assert backend["scipy"] is None and backend["lapack"] == "numpy-openblas", backend
    assert scipy_modules() == [], (fn.__name__, scipy_modules()[:5])
"""


def test_no_scenario_imports_scipy():
    # the diffusion solve calls the LAPACK of NumPy's own OpenBLAS and the
    # Gaussian datum takes math.erf, so importing the CLI and running all
    # five scenarios, each call in this one process, leave SciPy unloaded,
    # and every manifest's backend says so
    if viscous._lapack() is viscous._scipy_factor:
        pytest.skip("NumPy's bundled OpenBLAS is not loaded here: SciPy's LAPACK runs")
    env = dict(os.environ, PYTHONPATH=str(Path(nclaw.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", _SCIPY_FREE_LAB], env=env, check=True)


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
        assert (s["passes"], s["shared_passes"], s["partner_share"]) == (0, 0, None)
    assert multiprocessing.active_children() == []


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


@needs_fork
@pytest.mark.parametrize("where", ["parent", "helper"])
def test_a_numerical_failure_names_its_run(where):
    # the two calls meet at a barrier, so they run in different processes;
    # the one in ``where`` fails, with its index in its dt, and the message
    # leads with its label and k, also when it crosses the helper's pipe
    both = multiprocessing.Barrier(2, timeout=20)
    pid = os.getpid()

    def meet_then_fail(i):
        both.wait()
        if (os.getpid() == pid) == (where == "parent"):
            raise CFLError(float(i), 0.5)
        return i

    jobs = [("first", 2, lambda: meet_then_fail(1)), ("second", 1, lambda: meet_then_fail(2))]
    with _deadline(30), pytest.raises(CFLError) as info:
        _pool(jobs)
    exc = info.value
    label, k = {1.0: ("first", 2), 2.0: ("second", 1)}[exc.dt]
    assert str(exc) == (f"run {label!r} at k={k}: CFL violation: dt={exc.dt:.3e} exceeds "
                        "admissible dt=5.000e-01")
    assert multiprocessing.active_children() == []


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


def _particle_run():
    # 200 particles, about 20 in each one's reach: 4000 cells a pass, so at
    # least 2 tiles once the tiles hold 512 cells
    return run_nonlocal(step_datum(Grid1D(-1.5, 0.5, 400)), Kernel(EVEN_BUMP, 0.05), 0.1,
                        n_outputs=2)


def _one_particle_run_in(where):
    """Two calls that meet at a barrier, so they run in different processes:
    the one in ``where`` makes ``_particle_run`` and returns its final
    positions, the other returns None at once and so runs out of calls."""
    both = multiprocessing.Barrier(2, timeout=20)
    pid = os.getpid()

    def meet_then():
        both.wait()
        if (os.getpid() == pid) == (where == "parent"):
            return _particle_run().final.positions
        return None

    return _jobs(meet_then, meet_then)


def _let_the_partner_claim(monkeypatch, where):
    """512-cell tiles, so that each pass of ``_particle_run`` has two tiles
    or more, and the process in ``where`` sleeps 1 ms before it claims the
    tiles of a shared pass, so that the other process claims some even where
    the two share a CPU."""
    monkeypatch.setattr(kernels, "_TILE_CELLS", 512)
    real, pid = kernels._tile_sums, os.getpid()

    def tile_sums(*args):
        if len(args) > 6 and (os.getpid() == pid) == (where == "parent"):
            time.sleep(0.001)
        return real(*args)

    monkeypatch.setattr(kernels, "_tile_sums", tile_sums)


@needs_fork
@pytest.mark.parametrize("where", ["parent", "helper"])
def test_a_particle_run_shared_with_the_idle_process_keeps_its_bits(monkeypatch, where):
    # the process in ``where`` runs the particles while the other, out of
    # calls, sums the tiles of its passes from a split index on: the
    # helper serving the parent, or the parent serving the helper
    _let_the_partner_claim(monkeypatch, where)
    with _deadline(30):
        outs, stats = zip(*_pool(_one_particle_run_in(where)))
    assert multiprocessing.active_children() == [] and kernels._partner is None
    (i,) = [i for i, out in enumerate(outs) if out is not None]
    assert stats[i]["process"] == where
    assert 0 < stats[i]["shared_passes"] <= stats[i]["passes"]
    assert 0.0 < stats[i]["partner_share"] <= 1.0
    # no partner here: the passes run whole, as with fork hidden
    assert np.array_equal(outs[i], _particle_run().final.positions)


@needs_fork
@pytest.mark.parametrize("fate", ["dies", "raises"])
def test_a_helper_lost_while_it_serves_is_named_not_awaited(monkeypatch, fate):
    # the helper fails in the first tile of this process's passes that it
    # claims: its death names its exit code, its exception crosses the pipe
    # with its traceback
    _let_the_partner_claim(monkeypatch, "parent")
    real, pid = kernels._tile_sums, os.getpid()

    def tile_sums(*args):
        if os.getpid() != pid:
            for _ in args[6]:  # the claims of the serving helper
                if fate == "dies":
                    os._exit(9)
                raise ValueError("bad tiles")
        return real(*args)

    monkeypatch.setattr(kernels, "_tile_sums", tile_sums)
    expected = (ChildProcessError, "exit code 9") if fate == "dies" else (ValueError, "bad tiles")
    with _deadline(30), pytest.raises(expected[0], match=expected[1]) as info:
        _pool(_one_particle_run_in("parent"))
    if fate == "raises":
        assert "raised in the pool helper process" in str(info.value.__cause__)
    assert multiprocessing.active_children() == [] and kernels._partner is None
