"""Scripted scenarios measuring what separates the nonlocal flow from the
local entropy solution, plus the two positive-regime experiments.

Each scenario returns a ScenarioReport: named checks with pass bands, a
grid-convergence gate (verdicts are PASS / FAIL / INCONCLUSIVE - a verdict
is only issued when the headline numbers are stable under refinement), all
logged side numbers (including the coarse Lax-Friedrichs counterparts that
show how numerical viscosity masks the structural effects), and a manifest
that reproduces the run bit-for-bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field as dc_field, replace
from functools import cache, partial

import numpy as np

from . import kernels
from .data import gaussian_datum, odd_datum, step_datum
from .grids import Field, Grid1D, entropy_functional, lp_norm, snap_window, window_mass
from .kernels import EVEN_BUMP, ONE_SIDED_LEFT, Kernel
from .local_entropy import (ExactSolution, NumericalFailure, baricenter_lower_bound, run_local,
                            sample_exact)
from .nonlocal_solvers import deposit, run_nonlocal
from .records import RunManifest, output_times
from .viscous import _CFL, _cell_speeds, _check_domain, run_viscous

__all__ = ["Check", "ScenarioReport", "counterexample_1", "counterexample_2", "counterexample_3",
           "singular_limit_rate", "vanishing_viscosity"]


# the gate's resolution divisors: the rerun's, then the main run's
GATE_LEVELS = (2, 1)


@dataclass
class Check:
    """One named acceptance check: the headline number of its name must
    land in [lo, hi].

    A scenario's ``judge`` declares the band, the provenance (the manifest's
    entry for the number), a note and ``margin``, the decision margin the
    gate holds the number to (None: the gate does not compare it). ``read``
    then sets the rest from the headlines, once per check.
    """

    name: str
    lo: float
    hi: float
    provenance: str = ""
    note: str = ""
    margin: float | None = None
    value: float = dc_field(default=math.nan, init=False)
    rerun: float | None = dc_field(default=None, init=False)
    null_reason: str = dc_field(default="", init=False)
    converged: bool | None = dc_field(default=None, init=False)

    @property
    def passed(self) -> bool:
        return self.lo <= self.value <= self.hi

    @property
    def delta(self) -> float | None:
        return None if self.rerun is None else abs(self.value - self.rerun)

    @property
    def threshold(self) -> float | None:
        """A quarter of the margin, which ``delta`` must stay under (None without a margin)."""
        return None if self.margin is None else 0.25 * self.margin

    def read(self, main: dict, rerun: dict | None) -> None:
        """Take ``value`` from the main run's headline and ``rerun`` from the
        gate rerun's (None without the gate), and say in ``null_reason`` why
        the margin or the rerun is None. ``converged`` is None without a
        margin or without the gate, where nothing is compared; else False
        without a rerun, else ``delta < threshold``: the rerun halves the
        resolution parameter (``_scenario``), and a value stable under one
        grid doubling moves by less than a quarter of its margin."""
        self.value = main[self.name]
        self.rerun = None if rerun is None else rerun.get(self.name)
        why = [] if self.margin is not None else ["no margin: the gate does not compare it"]
        if self.rerun is None:
            why.append("no rerun: " + ("gate off" if rerun is None
                                       else "no run of the gate rerun gives it"))
        self.null_reason = "; ".join(why)
        self.converged = (None if self.margin is None or rerun is None
                          else self.delta is not None and self.delta < self.threshold)

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed, "delta": self.delta,
                "threshold": self.threshold}


@dataclass
class ScenarioReport:
    """A scenario's checks, numbers and records; ``gate`` is the gate's status, None if off."""

    scenario: str
    checks: list
    gate: str | None
    numbers: dict
    manifest: RunManifest
    series: dict = dc_field(default_factory=dict)
    trajectories: dict = dc_field(default_factory=dict)

    @property
    def verdict(self) -> str:
        if any(not c.passed for c in self.checks):
            return "FAIL"
        if self.gate not in (None, "CONVERGED"):
            return "INCONCLUSIVE"
        return "PASS"

    def summary_lines(self) -> list:
        def num(value, spec):
            return "null" if value is None else format(value, spec)

        lines = [f"[{self.scenario}] verdict: {self.verdict}"]
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            prov = f" ({c.provenance})" if c.provenance else ""
            line = f"  [{tag}] {c.name} = {c.value:.6g} in [{c.lo:.6g}, {c.hi:.6g}]{prov}"
            if self.gate is not None:
                line += f" rerun={num(c.rerun, '.6g')}"
                if c.margin is not None:
                    line += (f" delta={num(c.delta, '.3g')} threshold={c.threshold:.3g} "
                             + ("ok" if c.converged else "NOT CONVERGED"))
            lines.append(line)
        if self.gate is not None:
            lines.append(f"  [gate] {self.gate}")
        return lines

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "verdict": self.verdict,
            "checks": [c.to_json() for c in self.checks],
            "gate": self.gate,
            "numbers": self.numbers,
            "manifest_hash": self.manifest.hash,
        }


def _window_moment(f: Field, a: float, b: float) -> float:
    """First moment of f restricted to [a, b] (window snapped to edges)."""
    i_lo, i_hi = snap_window(f.grid, a, b)
    c = f.grid.centers[i_lo:i_hi]
    return float(np.sum(c * f.values[i_lo:i_hi]) * f.grid.dx)


def _support_datum_grid(x_min, x_max, support_len, n_particles, eps):
    """Grid whose cells give one particle per support cell at the asked count,
    refused where the particles sit eps or more apart: none would see another."""
    if n_particles < 1:
        raise ValueError(f"n_particles gives {n_particles} particles at this resolution; "
                         "need at least 1")
    grid = Grid1D(x_min, x_max, int(round((x_max - x_min) / (support_len / n_particles))))
    if grid.dx >= eps:
        raise ValueError(f"particles {grid.dx:.4g} apart at this resolution, not closer "
                         f"than eps={eps}: none would see another")
    return grid


def _godunov_grid(x_min, x_max, godunov_n, k):
    """The Godunov grid at resolution k, which ``runs(k)`` builds before any run."""
    if godunov_n // k < 2:
        raise ValueError(f"godunov_n={godunov_n} must be >= {2 * k}"
                         + (" with the gate on" if k > 1 else ""))
    return Grid1D(x_min, x_max, godunov_n // k)


def _kernel(shape: str, eps: float) -> Kernel:
    """The scenario's kernel, after refusing an ``eps`` that is not positive
    and finite under the setting's own name."""
    if not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError(f"eps={eps} must be positive and finite")
    return Kernel(shape, eps)


def _check_oracle_horizon(variant: str, t_end: float) -> ExactSolution:
    """The exact solution a verdict reads, after rejecting a t_end outside (0, its horizon]."""
    oracle = ExactSolution(variant)
    lo, hi = oracle.validity
    if not lo < t_end <= hi:
        raise ValueError(f"t_end={t_end} must lie in ({lo}, {hi}]: after the datum and in the "
                         f"validity of the {variant!r} exact solution the verdict reads")
    return oracle


def _final(solver, *args, **kwargs):
    """``solver(*args, **kwargs)``, keeping only the final state."""
    run = solver(*args, **kwargs)
    return replace(run, states=[run.final])


def _final_at_rerun(k, solver, *args, **kwargs):
    """``solver(*args, **kwargs)``; at k = 2, where only ``headline`` reads the
    run and it reads diagnostics, keeping only the final state (``_final``)."""
    return _final(solver, *args, **kwargs) if k == 2 else solver(*args, **kwargs)


def _counterexample_records(r: dict, diag_grid: Grid1D) -> dict:
    """The series and trajectories a counterexample records: the diagnostics
    of every k = 1 run in ``runs(1)`` order, the particle run deposited on
    ``diag_grid`` and the Godunov run."""
    return {
        "series": {label: run.diagnostics for label, run in r.items()},
        "trajectories": {
            "nonlocal": [deposit(s, diag_grid) for s in r["nonlocal"].states],
            "godunov": r["godunov"].states,
        },
    }


def _scenario(name: str, params: dict, runs, headline, judge) -> ScenarioReport:
    """Run a scenario through the steps every scenario shares.

    ``runs(k)`` names the scenario's solver calls (zero-argument callables)
    with its resolution parameter divided by k: the particle count and the
    Godunov cell count for the counterexamples, the cell width for the
    viscous experiments. ``runs(1)`` may add calls that only ``judge``
    reads. The calls run at k = 1, and at every k of ``GATE_LEVELS`` when
    ``params["gate"]`` is set, the gate rerun's calls first; gate on or off,
    they are independent and go through one pool (``_pool``). The gate
    decides what is compared, not where a call runs. ``headline(results,
    k)`` reduces the results of each k to its headline numbers.
    ``judge(results, main, rerun)`` gets the k = 1 results and both
    headlines (``rerun`` is None without the gate) and returns the checks
    (band, margin, provenance and note), the side numbers it computes,
    their provenance and optionally the series and trajectories to record.

    This is the one place a judged number is recorded: each check reads
    its value and rerun by its name (``Check.read``), its provenance is the
    manifest's entry for that name, and each headline number that no check
    names goes into ``numbers``. The gate's status is CONVERGED if every
    check with a margin converged, else INCONCLUSIVE. The manifest records
    ``params``, the wall time, a ``run_stats`` entry per call and the wall
    time of the judging.
    """
    t0 = time.monotonic()
    ks = GATE_LEVELS if params["gate"] else (1,)
    results, stats = {k: {} for k in ks}, []
    jobs = [(label, k, call) for k in ks for label, call in runs(k).items()]
    for (label, k, _), (out, entry) in zip(jobs, _pool(jobs)):
        results[k][label] = out
        stats.append(entry)
    rerun = headline(results.pop(ks[0]), ks[0]) if params["gate"] else None
    t_judge = time.monotonic()
    main = headline(results[1], 1)
    out = judge(results[1], main, rerun)
    for c in out["checks"]:
        c.read(main, rerun)
    judge_s = time.monotonic() - t_judge
    checked = {c.name: c.provenance for c in out["checks"]}
    out["numbers"] = {**{k: v for k, v in main.items() if k not in checked}, **out["numbers"]}
    manifest = RunManifest(name, params, provenance={**out.pop("provenance"), **checked},
                           wall_time_s=time.monotonic() - t0, run_stats=stats, judge_wall_s=judge_s)
    gated = [c.converged for c in out["checks"] if c.margin is not None]
    gate = None if rerun is None else ("CONVERGED" if all(gated) else "INCONCLUSIVE")
    return ScenarioReport(name, gate=gate, manifest=manifest, **out)


def _timed(fn, *args):
    """``fn(*args)`` and the wall time it took, in seconds."""
    t0 = time.monotonic()
    out = fn(*args)
    return out, time.monotonic() - t0


# the keys of a run's ``info`` that its ``run_stats`` entry copies
_RUN_STAT_KEYS = ("n_steps", "n_rejected", "dt_min", "dt_median", "dt_max", "steps_by_rule",
                 "n_startup")
# the keys of ``_Partner.tally`` in a ``run_stats`` entry, None outside a forked pool
_SHARE_KEYS = ("passes", "shared_passes", "partner_share")

# how long a process waiting on the pool's pipe polls before it blocks in
# recv: a message to a blocked reader took 0.4-1 ms to arrive, to a polling
# one 45-83 us, and a particle pass sends one every few ms
_POLL_S = 0.003


class _Partner:
    """The other process of a forked pool, as ``kernels._atom_sums`` sees it.

    ``idle`` holds one flag per process (this one's at ``me``), set once the
    process runs out of calls; ``claims`` is the shared (pass, front, back)
    of the pass being shared, guarded by ``lock``. While the other process
    is idle, ``sums`` sends it each pass of two tiles or more; this process
    then claims tiles from the front and the other one, in ``serve``, from
    the back, one at a time, until they meet. The other process answers
    with its sums only where it claimed a tile, so a pass it reaches too
    late costs nothing and a stalled partner holds up at most the tiles it
    claimed. ``lost()`` is the exception raised where the other process is
    gone; a helper's error that arrives instead is re-raised (see
    ``_pool``). ``tally`` counts the passes of each call.
    """

    def __init__(self, conn, idle, claims, lock, me: int, lost):
        self.conn, self.idle, self.claims, self.lock = conn, idle, claims, lock
        self.me, self.lost = me, lost
        self.passes = self.shared = 0
        self.share = 0.0

    def tally(self) -> dict:
        """The passes since the last tally, how many of them the other
        process took tiles of and the mean fraction of their cells it took
        (None if it took none); the counts start afresh."""
        out = dict(zip(_SHARE_KEYS, (self.passes, self.shared,
                                     self.share / self.shared if self.shared else None)))
        self.passes = self.shared = 0
        self.share = 0.0
        return out

    def sums(self, Yp, mp, j0, yq, tiles, slope):
        """``kernels._tile_sums`` over all ``tiles``, the other process
        summing those it claims from the back while it is idle."""
        self.passes += 1
        if len(tiles) < 2 or not self.idle[1 - self.me]:
            return kernels._tile_sums(Yp, mp, j0, yq, tiles, slope)
        with self.lock:
            n = self.claims[0] + 1
            self.claims[:] = [n, 0, len(tiles)]
        self.send(("share", (n, Yp, mp, j0, yq, tiles, slope)))
        acc, dacc = kernels._tile_sums(Yp, mp, j0, yq, tiles, slope, self._claim(n, front=True))
        with self.lock:
            split = self.claims[2]
        if split < len(tiles):
            row = tiles[split][0]
            theirs, dtheirs = self._recv()[1]
            acc[row:] = theirs
            if slope:
                dacc[row:] = dtheirs
            cells = [(b - a) * w for a, b, w in tiles]
            self.shared += 1
            self.share += sum(cells[split:]) / sum(cells)
        return acc, dacc

    def serve(self):
        """Sum the tiles of the passes the other process sends, claimed from
        the back, until it sends anything else; return that message."""
        while (msg := self._recv())[0] == "share":
            n, Yp, mp, j0, yq, tiles, slope = msg[1]
            taken = []
            acc, dacc = kernels._tile_sums(Yp, mp, j0, yq, tiles, slope,
                                           self._claim(n, front=False, taken=taken))
            if taken:
                row = tiles[taken[-1]][0]
                self.send(("share", (acc[row:], dacc[row:] if slope else None)))
        return msg

    def _claim(self, n, front: bool, taken=None):
        """Claim the tiles of pass ``n``, one at a time from the front or the
        back, until the two ends meet or another pass is shared; yield the
        index of each and append it to ``taken``."""
        while True:
            with self.lock:
                pass_n, lo, hi = self.claims
                if pass_n != n or lo >= hi:
                    return
                if front:
                    i, self.claims[1] = lo, lo + 1
                else:
                    i = self.claims[2] = hi - 1
            if taken is not None:
                taken.append(i)
            yield i

    def send(self, msg) -> None:
        try:
            self.conn.send(msg)
        except OSError:
            if self.conn.poll():  # a helper that failed sent its error first
                self._recv()
            raise self.lost() from None

    def _recv(self):
        """The next message, polled for up to ``_POLL_S`` and then awaited."""
        deadline = time.perf_counter() + _POLL_S
        try:
            while not self.conn.poll() and time.perf_counter() < deadline:
                pass
            msg = self.conn.recv()
        except (EOFError, OSError):
            raise self.lost() from None
        if msg[0] == "err":
            exc, trace = msg[1]
            # the traceback does not pickle: chain its text, for the reader of a crash
            raise exc from ChildProcessError(f"raised in the pool helper process:\n{trace}")
        return msg


def _pool(jobs):
    """Call each ``(label, k, call)`` of ``jobs``; return its result and a
    stats entry for each, in the order of ``jobs``.

    With two calls or more on a platform that can fork, a forked helper
    process works beside this one, each taking the next call from a
    shared counter. A process that finds the calls run out marks
    itself idle under the counter's lock. The first to do so does not wait:
    it serves the other, which still runs a call, over a persistent duplex
    pipe, summing tiles of that call's particle passes (``_Partner``,
    ``kernels._atom_sums``) with the same bits. The second releases it: the
    parent sends ``done``, or the helper its answer. The helper inherits the
    calls, so only its results cross the pipe, in that one answer once both
    processes have run out: it never waits on a full pipe while this process
    computes. Its exceptions are re-raised here with their class, chained to
    a ChildProcessError that holds its traceback; a helper that dies without
    an answer raises ChildProcessError naming its exit code, also where this
    process was serving it or waiting for its sums. A ``NumericalFailure``
    raised in either process names the call's label and k (its ``run``).
    Leaving, also by an exception, terminates and reaps a helper that still
    runs. A single call, or a platform without fork, runs here, in order.

    A stats entry holds the label, k, the process that made the call
    (``parent`` or ``helper``), its wall seconds, the keys of
    ``_RUN_STAT_KEYS`` from the result's ``info`` (None where it has none):
    the step count and dt range of every run, and a particle run's step
    rules; and those of ``_SHARE_KEYS``: in a forked pool, the call's
    particle passes, how many the other process shared and the mean share
    of the cells it took (``_Partner.tally``), else None.
    """
    import multiprocessing  # here, not at the top: importing nclaw stays lean
    import traceback

    def run(i, process):
        label, k, call = jobs[i]
        try:
            out, seconds = _timed(call)
        except NumericalFailure as exc:
            exc.run = f"run {label!r} at k={k}"
            raise
        info = getattr(out, "info", {})
        partner = kernels._partner
        return out, {"label": label, "k": k, "process": process, "wall_s": seconds,
                     **{key: info.get(key) for key in _RUN_STAT_KEYS},
                     **(dict.fromkeys(_SHARE_KEYS) if partner is None else partner.tally())}

    if len(jobs) < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [run(i, "parent") for i in range(len(jobs))]

    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("i", 0)
    idle = ctx.RawArray("b", 2)  # per process, set under the counter's lock
    claims, lock = ctx.RawArray("q", 3), ctx.Lock()

    def work(me, process):
        """Run calls until they run out, then mark this process idle; return
        the results and whether the other process was idle first."""
        results = []
        while True:
            with counter.get_lock():
                i = counter.value
                counter.value += 1
                if i >= len(jobs):
                    idle[me] = 1
                    return results, bool(idle[1 - me])
            results.append((i, run(i, process)))

    def helper():
        here.close()  # a parent that is gone then reads as a broken pipe, not a full one
        kernels._partner = partner = _Partner(
            there, idle, claims, lock, 1, lambda: EOFError("the pool's parent process is gone"))
        try:
            results, last = work(1, "helper")
            if not last:
                partner.serve()  # until the parent runs out too and sends done
            msg = ("ok", results)
        except Exception as exc:
            msg = ("err", (exc, traceback.format_exc()))
        there.send(msg)

    def lost():
        child.join()
        return ChildProcessError(
            f"pool helper process died without an answer (exit code {child.exitcode})")

    done = [None] * len(jobs)
    here, there = ctx.Pipe()
    child = ctx.Process(target=helper, daemon=True)
    child.start()
    there.close()  # the helper now holds the only other end: its death reads as EOF
    kernels._partner = partner = _Partner(here, idle, claims, lock, 0, lost)
    try:
        results, last = work(0, "parent")
        if last:
            partner.send(("done", None))
        _, answer = partner.serve()  # until the helper's answer
        for i, value in results + answer:
            done[i] = value
        child.join()
    finally:
        kernels._partner = None
        here.close()
        if child.is_alive():
            child.terminate()
        child.join()
    return done


# ---------------------------------------------------------------------------
# counterexample 1: half-line mass (odd datum, even kernel)


def counterexample_1(
    eps: float = 0.05,
    n_particles: int = 2400,
    t_end: float = 0.25,
    godunov_n: int = 4096,
    gate: bool = True,
) -> ScenarioReport:
    """Half-line mass: conserved by the odd nonlocal flow, drained at unit
    rate by the standing shock of the entropy solution.

    The nonlocal number comes from the particle solver. A Lax-Friedrichs run
    on the 4500-cell sampling grid (dx = 0.04 eps at the preset) is reported
    alongside: resolved in eps, its numerical viscosity still drains the
    window mass, the evidence that had pointed the other way.
    """
    params = dict(locals())  # the manifest records every argument
    if n_particles < 1:
        raise ValueError(f"n_particles={n_particles} must be >= 1")
    oracle = _check_oracle_horizon("odd", t_end)
    kernel = _kernel(EVEN_BUMP, eps)
    window = (-4.0, 0.0)
    diag_grid = Grid1D(-4.5, 4.5, 4500)
    # coarse Lax-Friedrichs counterpart (dx ~ eps): numerical viscosity
    # drains the window mass, masking the conservation; logged, not judged
    lf_grid = Grid1D(-4.5, 4.5, int(round(9.0 / eps)))

    def runs(k):
        # multiples of 4 keep the datum edges and the origin on cell edges
        # of the sampling grid, so the sampled window mass starts at exactly 1
        n = 4 * max(1, round(n_particles // k / 4))
        datum_grid = _support_datum_grid(-4.5, 4.5, 2.0, n, eps)
        gd_grid = _godunov_grid(-4.5, 4.5, godunov_n, k)
        out = {
            "nonlocal": lambda: _final_at_rerun(k, run_nonlocal, odd_datum(datum_grid),
                                                kernel, t_end, n_outputs=25, window=window),
            "godunov": lambda: _final_at_rerun(k, run_local, odd_datum(gd_grid), t_end,
                                               window=window, n_outputs=25),
        }
        if k == 1:
            out["fv"] = lambda: _final(run_nonlocal, odd_datum(diag_grid), kernel, t_end,
                                       scheme="lax_friedrichs", n_outputs=25, window=window)
            out["lf_coarse"] = lambda: _final(run_nonlocal, odd_datum(lf_grid), kernel, t_end,
                                              scheme="lax_friedrichs", n_outputs=10,
                                              window=window)
        return out

    def headline(r, k):
        return {
            "nonlocal_window_mass": r["nonlocal"].diagnostics.last("window_mass"),
            "entropy_window_mass": r["godunov"].diagnostics.last("window_mass"),
        }

    def judge(r, main, rerun):
        nl, fv, lf = r["nonlocal"], r["fv"], r["lf_coarse"]
        oracle_grid = Grid1D(-4.5, 4.5, 9000)
        oracle_wm = window_mass(sample_exact(oracle, t_end, oracle_grid), *window)
        return {
            "checks": [
                Check("nonlocal_window_mass", 0.98, 1.02, provenance="particles", margin=0.02),
                Check("entropy_window_mass", 1.0 - t_end - 0.02, 1.0 - t_end + 0.02,
                      provenance=f"godunov N={godunov_n}", margin=0.02),
            ],
            "numbers": {
                "oracle_window_mass": oracle_wm,
                "window": list(window),
                "nonlocal_mass_total": nl.diagnostics.last("mass"),
                "nonlocal_window_mass_initial": nl.diagnostics.array("window_mass")[0],
                "fv_window_mass": fv.diagnostics.last("window_mass"),
                "fv_dx_over_eps": diag_grid.dx / eps,
                "lf_coarse_window_mass": lf.diagnostics.last("window_mass"),
                "lf_coarse_dx": lf_grid.dx,
            },
            "provenance": {
                "fv_window_mass": f"lax_friedrichs N={diag_grid.n_cells}",
                "lf_coarse_window_mass": f"lax_friedrichs N={lf_grid.n_cells}",
            },
            **_counterexample_records(r, diag_grid),
        }

    return _scenario("ce1", params, runs, headline, judge)


# ---------------------------------------------------------------------------
# counterexample 2: one-sided kernel confinement


def counterexample_2(
    eps: float = 0.05,
    n_particles: int = 1500,
    t_end: float = 0.5,
    godunov_n: int = 4096,
    gate: bool = True,
) -> ScenarioReport:
    """Support confinement under a left-supported kernel vs the spreading
    entropy solution, including the first-moment contradiction for confined
    distributional solutions.

    The entropy solution's right-half-line mass is t, and its time integral
    t^2/2, until the left rarefaction reaches the origin at t = 1/2; both are
    judged against these closed forms at t_end, a Godunov output time <= 1/2.
    """
    params = dict(locals())  # the manifest records every argument
    t_godunov = 0.75  # extended run for the moment contradiction
    if not (t_end <= 0.5 and np.min(np.abs(output_times(t_godunov, 75) - t_end)) <= 1e-12):
        raise ValueError(f"t_end={t_end} must be a multiple of 0.01 in (0, 0.5]: a Godunov "
                         "output time where the entropy solution's right mass is t_end")
    kernel = _kernel(ONE_SIDED_LEFT, eps)
    diag_grid = Grid1D(-1.5, 0.5, 2000)
    right_window = (0.0, 0.5)
    # dx = eps/2 is the coarsest grid with an interior sample of the
    # one-sided kernel; still far too coarse to keep the confinement sharp
    # (wide domain: the scheme smear travels one cell per step)
    lf_grid = Grid1D(-3.5, 2.5, max(int(round(6.0 / (eps / 2.0))), 8))
    # first-moment bounds for a solution confined to (a, b): the Godunov
    # solution escapes the window and violates them for t >= t_moment
    a, b = -1.05, 0.05
    t_moment = 0.6
    right_mass_integral = t_end**2 / 2.0  # the right mass is t

    def moment_states(run):
        return [s for s in run.states if s.time_stamp >= t_moment - 1e-9]

    def runs(k):
        datum_grid = _support_datum_grid(-1.5, 0.5, 1.0, n_particles // k, eps)
        gd_grid = _godunov_grid(-2.0, 2.0, godunov_n, k)

        def godunov():
            run = run_local(step_datum(gd_grid), t_godunov, window=(0.0, 1.0), n_outputs=75)
            # the rerun keeps only the states its moment gap reads
            return run if k == 1 else replace(run, states=moment_states(run))

        out = {
            "nonlocal": lambda: _final_at_rerun(k, run_nonlocal, step_datum(datum_grid),
                                                kernel, t_end, n_outputs=25,
                                                window=right_window),
            "godunov": godunov,
        }
        if k == 1:
            out["lf_coarse"] = lambda: _final(run_nonlocal, step_datum(lf_grid), kernel, t_end,
                                              scheme="lax_friedrichs", n_outputs=10,
                                              window=right_window)
        return out

    def headline(r, k):
        nl, gd = r["nonlocal"].diagnostics, r["godunov"]
        # entropy-solution right-half-line mass at t_end and its time integral
        tg = gd.diagnostics.t
        right = gd.diagnostics.array("window_mass")
        sel = tg <= t_end + 1e-12
        u0 = step_datum(_godunov_grid(-2.0, 2.0, godunov_n, k))
        win_mass0, win_mom0 = window_mass(u0, a, b), _window_moment(u0, a, b)
        times, plain, jensen = [], [], []
        for state in moment_states(gd):
            bounds = baricenter_lower_bound(win_mass0, win_mom0, state.time_stamp, a, b)
            mom = _window_moment(state, a, b)
            plain.append(bounds["plain"] - mom)
            jensen.append(bounds["jensen"] - mom)
            times.append(state.time_stamp)
        return {
            "nonlocal_right_mass": nl.last("window_mass"),
            "nonlocal_support_lo": float(nl.array("support_lo").min()),
            "nonlocal_support_hi": float(nl.array("support_hi").max()),
            "nonlocal_baricenter": nl.last("baricenter"),
            "entropy_right_mass_at_T": float(right[int(np.argmin(np.abs(tg - t_end)))]),
            "entropy_right_mass_time_integral": float(np.trapezoid(right[sel], tg[sel])),
            "godunov_moment_violation_gap": float(min(plain)),
            "moment_violation_times": times,
            "moment_gaps_plain": plain,
            "moment_gaps_jensen": jensen,
            "window_mass0": win_mass0,
            "window_moment0": win_mom0,
        }

    def judge(r, main, rerun):
        win_mass0, win_mom0 = main["window_mass0"], main["window_moment0"]
        gd = f"godunov N={godunov_n}"
        return {
            "checks": [
                Check("nonlocal_right_mass", -1e-12, 0.01, provenance="particles", margin=0.01),
                Check("nonlocal_support_lo", -1.01, 0.0, provenance="particles"),
                Check("nonlocal_support_hi", -1.0, 0.01, provenance="particles"),
                Check("nonlocal_baricenter", -1.0, 0.01, provenance="particles"),
                Check("entropy_right_mass_at_T", t_end - 0.02, t_end + 0.02,
                      provenance=gd, margin=0.02),
                Check("entropy_right_mass_time_integral", right_mass_integral * 0.95,
                      right_mass_integral * 1.05, provenance=gd,
                      margin=right_mass_integral * 0.05),
                Check("godunov_moment_violation_gap", 0.0, math.inf, provenance=gd,
                      note="plain-form first-moment bound minus windowed moment, min over "
                      "t>=0.6; positive = bound violated (support escaped the window)"),
            ],
            "numbers": {
                "right_window": list(right_window),
                "moment_window": [a, b],
                "moment_bound_crosses_zero_at": {
                    "plain": -win_mom0 / win_mass0**2,
                    "jensen": -win_mom0 * (b - a) / win_mass0**2,
                },
                "moment_bound_exceeds_confinement_cap_at": {
                    "plain": (b * win_mass0 - win_mom0) / win_mass0**2,
                    "jensen": (b * win_mass0 - win_mom0) * (b - a) / win_mass0**2,
                },
                "lf_coarse_right_mass": float(
                    np.sum(r["lf_coarse"].final.values[lf_grid.centers > 0.0]) * lf_grid.dx),
                "lf_coarse_dx": lf_grid.dx,
            },
            "provenance": {"lf_coarse_right_mass": f"lax_friedrichs N={lf_grid.n_cells}"},
            **_counterexample_records(r, diag_grid),
        }

    return _scenario("ce2", params, runs, headline, judge)


# ---------------------------------------------------------------------------
# counterexample 3: entropy conservation vs dissipation


def counterexample_3(
    eps: float = 0.05,
    n_particles: int = 2000,
    t_end: float = 0.5,
    godunov_n: int = 4096,
    gate: bool = True,
) -> ScenarioReport:
    """The functional u*ln(u): constant along the nonlocal flow with an even
    kernel, strictly dissipated by the entropy solution (-t/2 for the
    indicator datum).

    The nonlocal headline uses the Lagrangian gap-density entropy (exact for
    the uniform initial sampling, resolves the compressed front); the
    deposit-based value and its grid scale are reported alongside, as is the
    finite-volume run whose numerical viscosity visibly dissipates.
    """
    params = dict(locals())  # the manifest records every argument
    oracle = _check_oracle_horizon("step", t_end)
    kernel = _kernel(EVEN_BUMP, eps)
    diag_grid = Grid1D(-2.0, 1.5, 1400)
    # finite-volume nonlocal run at dx = eps/20: resolved in eps but its
    # numerical viscosity still dissipates a visible amount of entropy
    fv_grid = Grid1D(-2.0, 1.5, int(round(3.5 / (eps / 20.0))))
    # wide domain: the coarse scheme smear travels one cell per step
    lf_grid = Grid1D(-3.5, 3.5, max(int(round(7.0 / eps)), 8))

    def runs(k):
        datum_grid = _support_datum_grid(-2.0, 1.5, 1.0, n_particles // k, eps)
        gd_grid = _godunov_grid(-2.0, 2.0, godunov_n, k)
        out = {
            "nonlocal": lambda: _final_at_rerun(k, run_nonlocal, step_datum(datum_grid),
                                                kernel, t_end, n_outputs=25),
            "godunov": lambda: _final_at_rerun(k, run_local, step_datum(gd_grid), t_end,
                                               n_outputs=50),
        }
        if k == 1:
            out["fv"] = lambda: _final(run_nonlocal, step_datum(fv_grid), kernel, t_end,
                                       scheme="lax_friedrichs", n_outputs=25)
            out["lf_coarse"] = lambda: _final(run_nonlocal, step_datum(lf_grid), kernel, t_end,
                                              scheme="lax_friedrichs", n_outputs=10)
        return out

    def headline(r, k):
        return {
            "nonlocal_entropy_at_T": r["nonlocal"].diagnostics.last("entropy_lagrangian"),
            "entropy_solution_entropy_at_T": r["godunov"].diagnostics.last("entropy"),
        }

    def judge(r, main, rerun):
        nl, gd, fv, lf = r["nonlocal"], r["godunov"], r["fv"], r["lf_coarse"]
        oracle_grid = Grid1D(-2.0, 2.0, 16000)
        oracle_ent = entropy_functional(sample_exact(oracle, t_end, oracle_grid))
        return {
            "checks": [
                Check("nonlocal_entropy_at_T", -0.05, 0.05,
                      provenance="particles (lagrangian gap density)", margin=0.05),
                Check("entropy_solution_entropy_at_T", -t_end / 2.0 - 0.02, -t_end / 2.0 + 0.02,
                      provenance=f"godunov N={godunov_n}", margin=0.02),
            ],
            "numbers": {
                "oracle_entropy": oracle_ent,
                "oracle_entropy_closed_form": -t_end / 2.0,
                "nonlocal_entropy_deposit": nl.diagnostics.last("entropy"),
                "nonlocal_entropy_deposit_dx": nl.info["entropy_grid_dx"],
                "nonlocal_entropy_deposit_bias_order": nl.info["entropy_bias_order"],
                "nonlocal_entropy_initial": nl.diagnostics.array("entropy_lagrangian")[0],
                "fv_entropy_at_T": fv.diagnostics.last("entropy"),
                "fv_dx_over_eps": fv_grid.dx / eps,
                "lf_coarse_entropy": lf.diagnostics.last("entropy"),
                "lf_coarse_dx": lf_grid.dx,
                "godunov_entropy_nonincreasing": bool(
                    np.all(np.diff(gd.diagnostics.array("entropy")) <= 1e-10)
                ),
            },
            "provenance": {
                "nonlocal_entropy_deposit":
                    f"particles, deposit dx={nl.info['entropy_grid_dx']:.4g}",
                "fv_entropy_at_T": f"lax_friedrichs N={fv_grid.n_cells}",
                "lf_coarse_entropy": f"lax_friedrichs N={lf_grid.n_cells}",
            },
            **_counterexample_records(r, diag_grid),
        }

    return _scenario("ce3", params, runs, headline, judge)


# ---------------------------------------------------------------------------
# positive regime: rate in eps of the viscous nonlocal-to-local distance


def _pairwise_orders(eps_list, distances) -> list:
    """The observed order log(d_i / d_i+1) / log(eps_i / eps_i+1) of each
    consecutive pair; NaN (null in the record) where it does not exist: a
    distance that is not positive, or a repeated eps."""
    return [
        math.log(d1 / d2) / math.log(e1 / e2) if min(d1, d2) > 0.0 and e1 != e2 else math.nan
        for e1, e2, d1, d2 in zip(eps_list, eps_list[1:], distances, distances[1:])
    ]


def singular_limit_rate(
    nu: float = 0.1,
    p: float = 2.0,
    eps_list=(0.2, 0.1, 0.05, 0.025),
    kernel_shape: str = ONE_SIDED_LEFT,
    t_end: float = 1.0,
    width: float = 0.3,
    gate: bool = True,
) -> ScenarioReport:
    """Fitted order in eps of sup_t ||u_eps_nu - u_nu||_L^p at fixed nu.

    Only the order is judged (>= 0.9); the prefactor involves exponentially
    bad stability constants and is explicitly not checked. The one-sided
    kernel has nonzero first moment, which makes the distance genuinely
    first order in eps for smooth data (an even kernel would show order ~2).
    The verdict reads ``fitted_order_in_eps``, the slope of one fit over all
    eps; the order of each consecutive pair is recorded beside it
    (``pairwise_orders``, and ``pairwise_orders_extrapolated`` from the
    Richardson-extrapolated distances with the gate on) and not judged.
    The gate reruns the sweep at half the cell width. Needs p >= 1 and at
    least two distinct positive finite eps to fit the order, and a width of
    4 cells (of min eps / 10) or more.
    """
    if not p >= 1.0:
        raise ValueError(f"p={p} must be >= 1: the L^p distance needs a norm")
    # each eps's range before the count of distinct eps: set() tells two NaN
    # objects apart, but not one NaN object passed twice
    if not all(eps > 0.0 and math.isfinite(eps) for eps in eps_list):
        raise ValueError(f"eps_list={list(eps_list)} must hold positive finite eps only")
    if len(set(eps_list)) < 2:
        raise ValueError(f"eps_list={list(eps_list)} needs at least two distinct eps "
                         "to fit an order")
    eps_list = tuple(sorted(eps_list, reverse=True))
    params = dict(locals())  # the manifest records every argument
    dx = min(eps_list) / 10.0

    @cache
    def setup(k):
        grid = Grid1D(-3.5, 4.0, int(round(7.5 / (dx / k))))
        u0 = gaussian_datum(grid, mass=1.0, width=width)
        # shared by all runs: the IMEX step of the local problem's initial
        # wave speed with a 1.4 headroom
        return u0, _CFL * grid.dx / (1.4 * float(np.max(_cell_speeds(None, u0.values))))

    # the runs' own check, made once before any run: the largest eps reaches farthest
    _check_domain(setup(1)[0], Kernel(kernel_shape, eps_list[0]), nu, t_end)

    def runs(k):
        u0, dt = setup(k)
        out = {"local": partial(run_viscous, u0, None, t_end, nu=nu, dt=dt, n_outputs=10)}
        for eps in eps_list:
            out[f"eps={eps}"] = partial(run_viscous, u0, Kernel(kernel_shape, eps), t_end,
                                        nu=nu, dt=dt, n_outputs=10)
        return out

    def headline(r, k):
        local = r["local"].states[1:]
        ds = [max(lp_norm(Field(a.grid, a.values - b.values), p)
                  for a, b in zip(r[f"eps={eps}"].states[1:], local))
              for eps in eps_list]
        slope = float(np.polyfit(np.log(np.array(eps_list)), np.log(np.array(ds)), 1)[0])
        return {"fitted_order_in_eps": slope, "distances": ds, "dt": setup(k)[1]}

    def judge(r, main, rerun):
        ds = main["distances"]
        # Richardson extrapolation of the first-order dx error
        extrapolated = None if rerun is None else [
            2.0 * d2 - d1 for d1, d2 in zip(ds, rerun["distances"])
        ]
        return {
            "checks": [
                Check("fitted_order_in_eps", 0.9, math.inf, provenance="imex pair", margin=0.15),
            ],
            "numbers": {
                "nu": nu,
                "p": p,
                "beta_exponent": math.inf if p == 1.0 else (p + 1.0) / (p - 1.0),
                "eps_list": list(eps_list),
                "halving_ratios": [ds[i] / ds[i + 1] for i in range(len(ds) - 1)],
                "dx": dx,
                "advection_flux": "rusanov",
                "pairwise_orders": _pairwise_orders(eps_list, ds),
                "distances_refined": None if rerun is None else rerun["distances"],
                "distances_extrapolated": extrapolated,
                "pairwise_orders_extrapolated":
                    None if rerun is None else _pairwise_orders(eps_list, extrapolated),
                "constant_not_checked":
                    "prefactor exp(C nu^-beta) is a stability constant, not reproduced",
            },
            "provenance": {"distances": "viscous IMEX, shared grid and dt per pair"},
        }

    return _scenario("rate", params, runs, headline, judge)


# ---------------------------------------------------------------------------
# positive regime: vanishing viscosity at fixed eps


def vanishing_viscosity(
    eps: float = 0.1,
    nu_list=(0.1, 0.03, 0.01, 0.003),
    t_end: float = 0.5,
    width: float = 0.6,
    gate: bool = True,
) -> ScenarioReport:
    """L1 distance between the viscous and inviscid nonlocal solutions as
    nu decreases at fixed eps (strong-norm surrogate for the weak-star
    statement; two windowed weak functionals are reported alongside).

    Distances are measured on a comparison grid with spacing eps/10: the
    viscous fields are averaged onto it exactly, the particle reference is
    deposited onto it with linear (cloud-in-cell) weights. That deposit is
    not free of aliasing: at the preset the reference from 3786 particles is
    4.5e-3 off in L1 from one with 14,898 particles, about 60% of the
    nu = 0.003 distance, so the smallest-nu line carries deposit noise.
    The gate reruns the sweep at half the cell width. Needs at least two
    distinct positive nu to compare, and a width of 4 cells (0.01) or more.
    """
    nu_list = tuple(sorted(nu_list, reverse=True))
    params = dict(locals())  # the manifest records every argument
    kernel = _kernel(EVEN_BUMP, eps)
    dx = 0.0025
    # diagram-corner consistency: the inviscid nonlocal solution with a
    # one-sided kernel stays far from the local entropy solution
    corner_grid = Grid1D(-1.5, 0.5, 1200)
    corner_datum = step_datum(Grid1D(-1.5, 0.5, 1600))  # 800 particles on the unit support
    gd_grid = Grid1D(-2.0, 2.0, 2048)

    def grids(k):
        n = int(round(9.5 / (dx / k)))
        factor = max(1, int(round((eps / 10.0) / (dx / k))))
        n_cmp = n // factor
        return Grid1D(-4.75, 4.75, n_cmp * factor), Grid1D(-4.75, 4.75, n_cmp), factor

    # the viscous runs' own checks, made before any run: the kernel and the
    # datum are resolved on their coarsest cells, and each nu is positive
    # with room for the domain margin 4 sqrt(nu t_end) + eps
    grid = grids(1)[0]
    if eps < grid.dx:
        raise ValueError(f"kernel under-resolved: eps={eps} < dx={grid.dx} of the viscous runs")
    u0 = gaussian_datum(grid, mass=1.0, width=width)
    for nu in nu_list:
        _check_domain(u0, kernel, nu, t_end)
    # counted after each nu's range: set() tells two NaN objects apart, but
    # not one NaN object passed twice
    if len(set(nu_list)) < 2:
        raise ValueError(f"nu_list={list(nu_list)} needs at least two distinct nu "
                         "to compare")

    def runs(k):
        u0 = gaussian_datum(grids(k)[0], mass=1.0, width=width)
        out = {"particles": lambda: _final(run_nonlocal, u0, kernel, t_end, n_outputs=5)}
        for nu in nu_list:
            out[f"nu={nu}"] = partial(_final, run_viscous, u0, kernel, t_end, nu=nu,
                                      n_outputs=5)
        if k == 1:
            out["corner"] = lambda: _final(run_nonlocal, corner_datum,
                                           Kernel(ONE_SIDED_LEFT, eps), 0.5, n_outputs=2)
            out["corner_godunov"] = lambda: _final(run_local, step_datum(gd_grid), 0.5,
                                                   n_outputs=2)
        return out

    def headline(r, k):
        _, cmp_grid, factor = grids(k)
        ref_dep = deposit(r["particles"].final, cmp_grid)
        out = {"distances": [], "weak_window_mass_diffs": [], "weak_moment_diffs": []}
        for nu in nu_list:
            vc = Field(cmp_grid, r[f"nu={nu}"].final.values.reshape(-1, factor).mean(axis=1))
            out["distances"].append(lp_norm(Field(cmp_grid, vc.values - ref_dep.values), 1))
            out["weak_window_mass_diffs"].append(
                abs(window_mass(vc, -4.75, 0.0) - window_mass(ref_dep, -4.75, 0.0))
            )
            out["weak_moment_diffs"].append(
                abs(_window_moment(vc, -4.75, 4.75) - _window_moment(ref_dep, -4.75, 4.75))
            )
        dists = out["distances"]
        out.update((f"distance_nu_{nu}", d) for nu, d in zip(nu_list, dists))
        out["ratios"] = [dists[i + 1] / dists[i] for i in range(len(dists) - 1)]
        out["final_over_first"] = dists[-1] / dists[0]
        out["max_step_ratio"] = max(out["ratios"])
        out["steps_decreasing_fraction"] = float(
            all(q <= 0.9 or abs(q - 1.0) <= 0.05 for q in out["ratios"]))
        if "corner" in r:  # the corner runs are made at k = 1 only
            gd = r["corner_godunov"].final
            gd_on_corner = np.interp(corner_grid.centers, gd_grid.centers, gd.values)
            out["corner_inviscid_vs_entropy_distance"] = lp_norm(
                Field(corner_grid, deposit(r["corner"].final, corner_grid).values - gd_on_corner),
                1)
        return out

    def judge(r, main, rerun):
        return {
            "checks": [
                *(Check(f"distance_nu_{nu}", 0.0, math.inf, provenance="imex vs particles",
                        margin=max(0.15 * d, 0.01))
                  for nu, d in zip(nu_list, main["distances"])),
                Check("final_over_first", 0.0, 0.3, provenance="imex vs particles"),
                Check("max_step_ratio", 0.0, 1.05, provenance="imex vs particles",
                      note="every step must shrink by >=10% or sit in a 5% noise band"),
                Check("steps_decreasing_fraction", 1.0, 1.0, provenance="imex vs particles"),
                Check("corner_inviscid_vs_entropy_distance", 0.1, math.inf,
                      provenance=f"particles vs godunov N={gd_grid.n_cells}",
                      note="the inviscid eps->0 edge does not close: distance stays macroscopic"),
            ],
            "numbers": {"eps": eps, "nu_list": list(nu_list), "comparison_dx": eps / 10.0},
            "provenance": {"distances": "imex (cfl 0.9) vs particle deposit on eps/10 grid"},
        }

    return _scenario("visc", params, runs, headline, judge)
