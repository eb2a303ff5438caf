import argparse
import inspect
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nclaw.cli import _build_parser, main
from nclaw.config import COMMANDS, DEFAULTS, ConfigError, command_function, parse_config
from nclaw.data import odd_datum, step_datum
from nclaw.experiments import Check, _scenario
from nclaw.grids import Field, Grid1D
from nclaw.kernels import EVEN_BUMP, Kernel
from nclaw.local_entropy import (CFLError, NumericalFailure, SupportReachedBoundary,
                                 godunov_step, run_local)
from nclaw.nonlocal_solvers import (
    CharacteristicsCrossed,
    ParticlesLeftGrid,
    SignPartitionViolated,
    lf_step,
    particle_step,
    particle_velocity_and_bound,
    run_nonlocal,
    sample_particles,
)
from nclaw.records import (
    DiagnosticSeries,
    RunManifest,
    emit_report,
    field_diagnostics,
    manifest_hash,
    output_times,
)
from nclaw.viscous import NonFiniteState, imex_step, run_viscous


class TestDiagnosticSeries:
    def test_appends_and_orders_columns(self, tmp_path):
        d = DiagnosticSeries()
        vals = {
            "mass": 1.0, "window_mass": 0.5, "entropy": 0.0,
            "baricenter": -0.5, "support_lo": -1.0, "support_hi": 0.0,
            "extra_channel": 7.0,
        }
        d.append(0.0, vals)
        d.append(0.1, {k: v + 1 for k, v in vals.items()})
        p = tmp_path / "d.csv"
        d.to_csv(p)
        header = p.read_text().splitlines()[0]
        assert header == (
            "t,mass,window_mass,entropy,baricenter,support_lo,support_hi,extra_channel"
        )

    @pytest.mark.parametrize("n_rows", [0, 1, 40])
    def test_csv_bytes_match_the_csv_module(self, tmp_path, n_rows):
        # the diagnostics were written row by row with csv.writer; the bytes must not move
        import csv
        import io

        rng = np.random.default_rng(n_rows)
        d = DiagnosticSeries()
        for i in range(n_rows):
            values = rng.normal(size=7) * 10.0 ** rng.integers(-300, 300, size=7)
            if i == 0:
                values[:4] = [math.nan, -math.inf, -0.0, 5e-324]
            d.append(0.01 * i, dict(zip(["mass", "entropy", "support_lo", "support_hi",
                                         "baricenter", "zeta", "alpha"], values)))
        ref = io.StringIO(newline="")
        w = csv.writer(ref)
        cols = d._ordered_columns()
        w.writerow(["t"] + cols)
        for i, t in enumerate(d.times):
            w.writerow([repr(t)] + [repr(d.channels[c][i]) for c in cols])
        d.to_csv(tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == ref.getvalue().encode()

    def test_times_strictly_increasing(self):
        d = DiagnosticSeries()
        d.append(0.0, {"mass": 1.0})
        with pytest.raises(ValueError):
            d.append(0.0, {"mass": 1.0})

    def test_channel_set_fixed(self):
        d = DiagnosticSeries()
        d.append(0.0, {"mass": 1.0})
        with pytest.raises(ValueError):
            d.append(0.1, {"other": 1.0})


class TestFieldDiagnostics:
    def test_signed_field_entropy_nan(self):
        grid = Grid1D(-1.0, 1.0, 10)
        vals = field_diagnostics(Field(grid, np.linspace(-1, 1, 10)))
        assert math.isnan(vals["entropy"])

    def test_window_channels(self):
        grid = Grid1D(-1.0, 1.0, 10)
        f = Field(grid, np.ones(10))
        vals = field_diagnostics(f, window=(-1.0, 0.0))
        assert vals["window_mass"] == pytest.approx(1.0)
        assert vals["mass"] == pytest.approx(2.0)
        assert field_diagnostics(f)["window_mass"] == vals["mass"]


class TestManifest:
    def test_hash_stable_and_ignores_wall_time(self):
        m1 = RunManifest("ce1", {"eps": 0.05}, wall_time_s=1.0)
        m2 = RunManifest("ce1", {"eps": 0.05}, wall_time_s=99.0)
        assert m1.hash == m2.hash
        m3 = RunManifest("ce1", {"eps": 0.025})
        assert m3.hash != m1.hash

    def test_hash_canonicalizes_numpy_scalars(self):
        assert manifest_hash({"a": np.float64(0.5)}) == manifest_hash({"a": 0.5})

    def test_backend_names_the_blas_and_its_core_outside_the_hash(self):
        m = RunManifest("ce1", {"eps": 0.05})
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        backend = m.to_json()["backend"]
        assert backend["blas"] == f"{blas['name']} {blas['version']}"
        if blas["name"] == "scipy-openblas":  # the OpenBLAS of the NumPy wheels
            assert isinstance(backend["blas_core"], str) and backend["blas_core"]
        assert m.hash == RunManifest("ce1", {"eps": 0.05}, backend={}).hash

    def test_backend_names_numpys_enabled_dispatch_targets(self):
        # a process that disables all but the lowest target records only that
        # one, as NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
        # leaves "X86_V3" where NumPy dispatches up to AVX512_SPR
        enabled = RunManifest("ce1", {}).backend["cpu_dispatch"].split()
        probe = ("from nclaw.records import RunManifest; "
                 "print(RunManifest('ce1', {}).backend['cpu_dispatch'])")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                                                  NPY_DISABLE_CPU_FEATURES=" ".join(enabled[1:])))
        assert out.stdout.split() == enabled[:1]

    def test_source_digest_names_the_code_outside_the_hash(self, tmp_path):
        # two copies of the package, the second with one byte of a docstring
        # changed, run the same preset: the digests differ, and the run
        # directory and every CSV and report.json byte are the same
        import nclaw.records as records

        runs = {}
        for name in ("copy", "edited"):
            package = tmp_path / name / "nclaw"
            shutil.copytree(Path(records.__file__).parent, package,
                            ignore=shutil.ignore_patterns("__pycache__"))
            if name == "edited":
                text = (package / "kernels.py").read_bytes()
                assert text.startswith(b'"""Convolution')
                (package / "kernels.py").write_bytes(b'"""c' + text[4:])
            out = tmp_path / name / "runs"
            subprocess.run([sys.executable, "-m", "nclaw.cli", "--out", str(out), "ce1",
                            "--n-particles", "300", "--godunov-n", "512", "--no-gate"],
                           env=dict(os.environ, PYTHONPATH=str(package.parent)),
                           cwd=tmp_path, check=True, capture_output=True)
            (runs[name],) = out.iterdir()
        digest = {name: json.loads((run / "manifest.json").read_text())["source_digest"]
                  for name, run in runs.items()}
        assert digest["copy"] == records._source_digest() != digest["edited"]
        assert digest["edited"] == records._source_digest(tmp_path / "edited" / "nclaw")
        assert runs["copy"].name == runs["edited"].name
        recorded = {name: {p.relative_to(run): p.read_bytes() for p in run.rglob("*")
                           if p.suffix == ".csv" or p.name == "report.json"}
                    for name, run in runs.items()}
        assert len(recorded["copy"]) == 57 and recorded["copy"] == recorded["edited"]

    def test_blas_core_is_null_without_a_loaded_openblas(self, fresh_lapack, monkeypatch,
                                                         tmp_path):
        # a library file that was never loaded is not opened to ask it
        import nclaw.records as records

        (tmp_path / "numpy.libs").mkdir()
        (tmp_path / "numpy.libs" / "libscipy_openblas64_-0.so").write_bytes(b"")
        monkeypatch.setattr(records.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        assert records._backend()["blas_core"] is None
        assert records._backend()["lapack"] == "scipy"  # the diffusion solve's fallback


def _gated(checks, main, rerun):
    """The report the scenario runner makes of ``checks`` with the gate on,
    ``main`` and ``rerun`` being the main run's and the gate rerun's
    headlines: no solver runs."""
    return _scenario("unit", {"gate": True}, lambda k: {}, lambda r, k: rerun if k == 2 else main,
                     lambda r, main, rerun: {"checks": checks, "numbers": {}, "provenance": {}})


class TestGate:
    def test_converged_and_inconclusive(self):
        assert _gated([Check("m", -1.0, 2.0, margin=0.02)], {"m": 1.000}, {"m": 1.001}).gate == (
            "CONVERGED")
        assert _gated([Check("m", -1.0, 2.0, margin=0.05)], {"m": 1.00}, {"m": 1.04}).gate == (
            "INCONCLUSIVE")

    def test_richardson_style_example(self):
        # halving self-difference under refinement counts as converged
        assert _gated([Check("err", -1.0, 2.0, margin=0.02)], {"err": 0.010},
                      {"err": 0.0102}).gate == "CONVERGED"

    def test_a_check_without_a_margin_records_its_rerun_but_is_not_compared(self):
        # a delta that any margin would fail leaves the gate converged
        checks = [Check("m", -1.0, 2.0, margin=0.02), Check("support", -1.0, 2.0)]
        r = _gated(checks, {"m": 1.000, "support": 0.0}, {"m": 1.001, "support": 1.0})
        assert r.gate == "CONVERGED"
        assert [c.name for c in r.checks if c.converged is not None] == ["m"]
        record = r.checks[1].to_json()
        assert (record["margin"], record["rerun"], record["delta"]) == (None, 1.0, 1.0)
        assert (record["threshold"], record["converged"]) == (None, None)
        assert record["null_reason"] == "no margin: the gate does not compare it"
        record = r.checks[0].to_json()
        assert (record["threshold"], record["converged"]) == (0.25 * 0.02, True)

    def test_a_check_with_a_margin_and_no_rerun_is_inconclusive(self):
        # the rerun makes no run of the number: nothing shows it converged
        r = _gated([Check("corner", 0.0, 2.0, margin=0.02)], {"corner": 1.0}, {"other": 1.0})
        (check,) = r.checks
        assert (check.rerun, check.delta, check.converged) == (None, None, False)
        assert check.null_reason == "no rerun: no run of the gate rerun gives it"
        assert (r.gate, r.verdict) == ("INCONCLUSIVE", "INCONCLUSIVE")

    def test_without_the_gate_every_rerun_is_null_and_says_so(self):
        check = Check("m", 0.0, 2.0)
        check.read({"m": 1.0}, None)
        record = check.to_json()
        assert (record["margin"], record["rerun"], record["delta"]) == (None, None, None)
        assert (record["threshold"], record["converged"]) == (None, None)
        assert record["null_reason"] == ("no margin: the gate does not compare it; "
                                         "no rerun: gate off")
        # a check with a margin is not compared either: converged is null,
        # as the gate's status is, not false
        check = Check("m", 0.0, 2.0, margin=0.02)
        check.read({"m": 1.0}, None)
        record = check.to_json()
        assert (record["rerun"], record["delta"], record["converged"]) == (None, None, None)
        assert (record["threshold"], record["null_reason"]) == (0.25 * 0.02, "no rerun: gate off")


def _tiny_report():
    from nclaw.experiments import ScenarioReport

    d = DiagnosticSeries()
    grid = Grid1D(0.0, 1.0, 4)
    f = Field(grid, np.ones(4))
    d.append(0.0, field_diagnostics(f))
    checks = [Check("c", 0.9, 1.1, provenance="unit")]
    checks[0].read({"c": 1.0}, {"c": 1.0})
    manifest = RunManifest("unit", {"x": 1})
    return ScenarioReport(
        "unit", checks, "CONVERGED", {"n": 1}, manifest,
        series={"main": d}, trajectories={"main": [f]},
    )


class TestSummaryLines:
    def test_each_gated_check_line_ends_in_its_comparison_and_the_gate_line_follows(self):
        lines = _gated([Check("m", -1.0, 2.0, margin=0.02), Check("w", -1.0, 2.0, margin=0.02)],
                       {"m": 1.0, "w": 0.5}, {"m": 1.001, "w": 0.6}).summary_lines()
        assert lines[1] == (
            "  [PASS] m = 1 in [-1, 2] rerun=1.001 delta=0.001 threshold=0.005 ok")
        assert lines[2].startswith("  [PASS] w = 0.5 in [-1, 2] rerun=0.6 delta=0.1 ")
        assert lines[2].endswith(" NOT CONVERGED")
        assert lines[3:] == ["  [gate] INCONCLUSIVE"]

    def test_every_check_line_shows_its_rerun_with_the_gate_on(self):
        report = _gated([Check("m", -1.0, 2.0, margin=0.02), Check("corner", 0.1, math.inf)],
                        {"m": 1.0, "corner": 1.5}, {"m": 1.001})
        assert report.summary_lines()[1:3] == [
            "  [PASS] m = 1 in [-1, 2] rerun=1.001 delta=0.001 threshold=0.005 ok",
            "  [PASS] corner = 1.5 in [0.1, inf] rerun=null",
        ]
        report.gate = None
        assert report.summary_lines()[1:] == ["  [PASS] m = 1 in [-1, 2]",
                                              "  [PASS] corner = 1.5 in [0.1, inf]"]

    def test_a_gated_check_without_a_rerun_prints_null_and_is_not_converged(self):
        # its delta is None: the line must say so, not fail to format it
        report = _gated([Check("corner", 0.0, 2.0, margin=0.02)], {"corner": 1.0},
                        {"other": 1.0})
        assert report.verdict == "INCONCLUSIVE"
        assert report.summary_lines()[1:] == [
            "  [PASS] corner = 1 in [0, 2] rerun=null delta=null threshold=0.005 NOT CONVERGED",
            "  [gate] INCONCLUSIVE",
        ]


class TestOutputSchedule:
    @settings(max_examples=30, deadline=None)
    @given(t_end=st.floats(0.05, 1.0), n_outputs=st.integers(1, 60))
    def test_every_driver_records_at_the_output_times(self, t_end, n_outputs):
        # one schedule for all four drivers: t = 0, then output_times. The
        # wide grid keeps the Lax-Friedrichs smear, one cell per step, off
        # the walls: 75 cells from the support, at most 72 steps
        grid = Grid1D(-2.0, 2.0, 64)
        wide = Grid1D(-16.0, 16.0, 160)
        kernel = Kernel(EVEN_BUMP, 0.4)

        def viscous(dt):
            return run_viscous(step_datum(wide), kernel, t_end, nu=0.01, dt=dt,
                               n_outputs=n_outputs)

        local = run_local(step_datum(grid), t_end, n_outputs=n_outputs)
        runs = [
            local,
            run_nonlocal(step_datum(grid), kernel, t_end, n_outputs=n_outputs),
            run_nonlocal(step_datum(wide), kernel, t_end, scheme="lax_friedrichs",
                         n_outputs=n_outputs),
            viscous(None),
            viscous(0.03),
        ]
        expected = [0.0, *output_times(t_end, n_outputs)]
        for res in runs:
            np.testing.assert_allclose(res.diagnostics.times, expected, rtol=0.0, atol=1e-12)
        # Godunov: one uniform step, a whole number of them per output
        # interval, at Courant number at most 0.9 for the datum's speed 2
        info = local.info
        assert info["n_steps"] % n_outputs == 0
        assert info["dt_max"] - info["dt_min"] <= 1e-12
        assert info["dt_max"] * 2.0 / grid.dx <= 0.9 + 1e-12

    def test_an_interval_no_step_would_cross_is_refused(self):
        # march steps to within 1e-13 of each output time, so a shorter
        # interval would take no step and record t = 0 twice
        with pytest.raises(ValueError, match=r"^t_end=1e-12 gives 10 output intervals of 1e-13"):
            output_times(1e-12, 10)
        assert output_times(1.01e-12, 10)[0] > 1e-13
        with pytest.raises(ValueError, match=r"^t_end=1e-14 gives 50 output intervals"):
            run_local(step_datum(Grid1D(-2.0, 2.0, 64)), 1e-14)
        # an infinite t_end gave NaN output times, and a RuntimeWarning
        # before `visc --nu-list= --t-end inf` was refused for its list
        with pytest.raises(ValueError, match=r"^t_end=inf must be finite$"):
            output_times(math.inf, 5)


def _bytes(state) -> tuple:
    """The time stamp and the array bytes of a field or a particle ensemble."""
    arrays = [state.values] if isinstance(state, Field) else [state.positions, state.masses]
    return (state.time_stamp, *(a.tobytes() for a in arrays))


def _particle_steps(adams: bool):
    """A start-up or an Adams step of 100 particles, each with its input."""
    kernel = Kernel(EVEN_BUMP, 0.1)
    e = sample_particles(step_datum(Grid1D(-1.5, 0.5, 200)))
    v, bound = particle_velocity_and_bound(e, kernel)
    dt = 0.5 * bound
    history = [(v, dt), (v, dt)] if adams else ()
    return e, lambda s: particle_step(s, kernel, dt, stage1=(v, bound), history=history)


class TestMarch:
    # march records each state by reference, so no step may edit its input
    @pytest.mark.parametrize("step", [
        "godunov", "lax_friedrichs", "imex_local", "imex_nonlocal", "particle_startup",
        "particle_adams"])
    def test_every_step_returns_a_new_state_and_leaves_its_input(self, step):
        kernel, datum = Kernel(EVEN_BUMP, 0.4), step_datum(Grid1D(-4.0, 4.0, 80))
        state, advance = {
            "godunov": (datum, lambda u: godunov_step(u, 0.01)),
            "lax_friedrichs": (datum, lambda u: lf_step(u, kernel, 0.01)),
            "imex_local": (datum, lambda u: imex_step(u, None, 0.1, 0.01)),
            "imex_nonlocal": (datum, lambda u: imex_step(u, kernel, 0.1, 0.01)),
            "particle_startup": _particle_steps(adams=False),
            "particle_adams": _particle_steps(adams=True),
        }[step]
        before = _bytes(state)
        out = advance(state)
        assert _bytes(state) == before
        assert out is not state and out.time_stamp > state.time_stamp
        if isinstance(out, Field):
            assert not np.shares_memory(out.values, state.values)
        else:  # transport moves the positions only: the masses are the input's
            assert not np.shares_memory(out.positions, state.positions)
            assert out.masses is state.masses

    def test_recorded_states_are_the_steps_own(self):
        datum = step_datum(Grid1D(-2.0, 2.0, 64))
        run = run_local(datum, 0.2, n_outputs=4)
        assert run.states[0] is datum
        assert [s.time_stamp for s in run.states] == list(run.diagnostics.times)
        for a, b in zip(run.states, run.states[1:]):
            assert not np.shares_memory(a.values, b.values)
        run = run_nonlocal(datum, Kernel(EVEN_BUMP, 0.4), 0.2, n_outputs=4)
        assert all(s.masses is run.states[0].masses for s in run.states)
        assert len({id(s.positions) for s in run.states}) == len(run.states)


class TestEmitReport:
    def test_writes_expected_files(self, tmp_path):
        report = _tiny_report()
        paths = emit_report(report, tmp_path)
        assert paths["manifest"].exists()
        assert paths["report"].exists()
        assert (paths["run_dir"] / "diagnostics.csv").exists()
        assert (paths["fields_main"] / "t_0000.csv").exists()
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["scenario"] == "unit"
        assert manifest["manifest_hash"] == report.manifest.hash

    def test_reruns_byte_identical_csvs(self, tmp_path):
        r1 = _tiny_report()
        p1 = emit_report(r1, tmp_path / "a")
        r2 = _tiny_report()
        p2 = emit_report(r2, tmp_path / "b")
        c1 = (p1["run_dir"] / "diagnostics.csv").read_bytes()
        c2 = (p2["run_dir"] / "diagnostics.csv").read_bytes()
        assert c1 == c2
        assert p1["run_dir"].name == p2["run_dir"].name  # same manifest hash

    def test_nan_number_written_as_null(self, tmp_path):
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        report = _tiny_report()
        report.numbers = {"n": 1, "entropy": math.nan, "entropy_np": np.float64("nan")}
        paths = emit_report(report, tmp_path)
        numbers = json.loads(paths["report"].read_text(), parse_constant=reject)["numbers"]
        assert numbers == {"n": 1, "entropy": None, "entropy_np": None}


class TestConfig:
    def test_empty_is_all_defaults(self):
        cfg = parse_config("")
        assert cfg["ce1"]["eps"] == 0.05
        assert cfg["rate"]["eps_list"] == [0.2, 0.1, 0.05, 0.025]

    def test_override(self):
        cfg = parse_config("[ce1]\neps = 0.025\n")
        assert cfg["ce1"]["eps"] == 0.025
        assert cfg["ce2"]["eps"] == 0.05

    def test_unknown_key_named_with_line(self):
        with pytest.raises(ConfigError, match="line 2.*frobnicate"):
            parse_config("[ce1]\nfrobnicate = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[ce9]\n")

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError, match="line 2.*godunov_n"):
            parse_config("[ce1]\ngodunov_n = soon\n")

    def test_negative_epsilon_rejected(self, tmp_path, monkeypatch, capsys):
        # the config types the value; the command that reads it refuses it,
        # under the setting's own name, before any run
        import nclaw.experiments

        monkeypatch.setattr(nclaw.experiments, "_pool", lambda *a, **kw: pytest.fail("ran"))
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("[ce1]\neps = -1\n")
        assert parse_config(cfg.read_text())["ce1"]["eps"] == -1.0
        assert main(["--no-emit", "--config", str(cfg), "ce1"]) == 1
        assert capsys.readouterr().err == "error: eps=-1.0 must be positive and finite\n"

    def test_list_parsing(self):
        cfg = parse_config("[visc]\nnu_list = 0.2, 0.1\n")
        assert cfg["visc"]["nu_list"] == [0.2, 0.1]

    def test_old_key_epsilon_is_unknown(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'epsilon'"):
            parse_config("[ce1]\nepsilon = 0.05\n")

    @pytest.mark.parametrize("section", sorted(COMMANDS))
    def test_keys_and_flags_are_the_signature_parameters(self, section):
        # one name per setting: config key = parameter, flag = --key-with-dashes
        params = inspect.signature(command_function(section)).parameters
        assert list(DEFAULTS[section]) == list(params)
        (sub,) = [a for a in _build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        flags = {a.dest: a.option_strings for a in sub.choices[section]._actions
                 if a.dest != "help"}
        assert sorted(flags) == sorted(params)
        for name, p in params.items():
            prefix = "--no-" if p.default is True else "--"
            assert flags[name] == [prefix + name.replace("_", "-")]


# small values of every setting, in range and out of it: each grid a drawn
# command builds before its runs stays small
_DRAWN = {
    "eps": st.sampled_from([-0.05, 0.0, math.nan, math.inf, 0.002, 0.05, 0.1, 0.4]),
    "n_particles": st.sampled_from([-5, 0, 1, 3, 40, 200]),
    "t_end": st.sampled_from([-0.1, 0.0, math.nan, math.inf, 0.05, 0.1, 0.25, 0.3, 1.5]),
    "godunov_n": st.sampled_from([-4, 0, 1, 3, 64]),
    "gate": st.booleans(),
    "nu": st.sampled_from([-0.1, 0.0, math.nan, 0.03, 0.1]),
    "p": st.sampled_from([0.5, 1.0, 2.0, math.inf, math.nan]),
    "eps_list": st.lists(st.sampled_from([-0.1, 0.0, math.nan, math.inf, 0.1, 0.2, 0.4]),
                         max_size=3),
    "kernel_shape": st.sampled_from(["even_bump", "one_sided_left", "spectral"]),
    "width": st.sampled_from([-0.3, 0.0, math.nan, math.inf, 1e-9, 0.001, 0.05, 0.3, 3.0]),
    "nu_list": st.lists(st.sampled_from([-0.03, 0.0, math.nan, 0.003, 0.03, 0.1]), max_size=3),
    "variant": st.sampled_from(["step", "odd", "spectral"]),
    "t": st.sampled_from([-0.5, 0.0, math.nan, 0.1, 0.3, 1.5]),
    "x_min": st.sampled_from([-4.0, 0.0, math.nan, math.inf]),
    "x_max": st.sampled_from([4.0, -1.0, math.inf]),
    "n_cells": st.sampled_from([-4, 0, 2, 64]),
}


def _raw(value) -> str:
    """``value`` as a flag or a config line spells it."""
    if isinstance(value, (bool, str)):
        return str(value).lower()
    return ",".join(map(repr, value)) if isinstance(value, list) else repr(value)


def _exit_1_before_any_run_or_exit_4_naming_a_run(section: str, values: dict) -> int:
    """Give ``values`` to the command of ``section`` by flag, by config line
    and to the library function, with every solver failing at once, and
    return its exit code: a refusal (exit 1) comes before the pool, with
    one message all three ways; an input that is not refused starts the
    pool, whose failure names its run's label and k (lab oracle has no
    pool: it writes its CSV or refuses)."""
    import nclaw.experiments as ex

    pooled, real_pool = [], ex._pool

    def spy(jobs):
        pooled.append([(label, k) for label, k, _ in jobs])
        return real_pool(jobs)

    def failing(*args, **kwargs):
        raise NumericalFailure("a drawn failure")

    flags = [f"--{key.replace('_', '-')}={_raw(v)}" for key, v in values.items()
             if key != "gate"] + (["--no-gate"] if values.get("gate") is False else [])
    lines = "".join(f"{key} = {_raw(v)}\n" for key, v in values.items())
    outcomes = []
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        mp.setattr(ex, "_pool", spy)
        for name in ("run_nonlocal", "run_local", "run_viscous"):
            mp.setattr(ex, name, failing)
        cfg = Path(out) / "lab.cfg"
        cfg.write_text(f"[{section}]\n{lines}")
        for argv in ([section, *flags], ["--config", str(cfg), section]):
            pooled.clear()
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main(["--no-emit", "--out", out, *argv])
            outcomes.append((code, err.getvalue(), list(pooled)))
        pooled.clear()
        try:
            command_function(section)(**values)
            library = ""
        except ValueError as exc:
            library = f"error: {exc}\n"
        except NumericalFailure as exc:
            library = f"numerical failure: {exc}\n"
        outcomes.append((None, library, list(pooled)))

    codes = {code for code, _, _ in outcomes[:2]}
    assert len(codes) == 1
    (code,) = codes
    if code == 1:
        assert all(not p for _, _, p in outcomes)
        assert len({err for _, err, _ in outcomes}) == 1
        assert outcomes[0][1].startswith("error: ")
    elif section == "oracle":
        assert code == 0 and outcomes[2][1] == ""
    else:
        assert code == 4
        for _, err, p in outcomes:
            (jobs,) = p
            found = re.fullmatch(r"numerical failure: run '(.+)' at k=(\d+): a drawn failure\n",
                                 err)
            assert found and (found[1], int(found[2])) in jobs
    return code


class TestCLI:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_exit_1_is_before_any_run_and_a_failed_run_is_exit_4_naming_it(self, data):
        # drawn settings of a drawn command, given all three ways
        section = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
        keys = data.draw(st.sets(st.sampled_from(list(DEFAULTS[section]))), label="keys")
        values = {key: data.draw(_DRAWN[key], label=key) for key in sorted(keys)}
        code = _exit_1_before_any_run_or_exit_4_naming_a_run(section, values)
        event(f"lab {section} exit {code}")

    @pytest.mark.parametrize("section, key, message", [
        ("rate", "eps_list", "eps_list=[nan, nan] must hold positive finite eps only"),
        ("visc", "nu_list", "nu=nan must be positive"),
    ])
    def test_one_nan_object_passed_twice_is_refused_like_two(self, section, key, message):
        # a list of one NaN object twice, as the property above can draw it:
        # set() counts it once, the parsed flag and config line hold two NaN
        # objects; each value's range is checked before distinct values count
        values = {key: [math.nan, math.nan]}
        assert len(set(values[key])) == 1
        assert _exit_1_before_any_run_or_exit_4_naming_a_run(section, values) == 1
        with pytest.raises(ValueError) as info:
            command_function(section)(**values)
        assert str(info.value) == message

    def test_oracle_emits_csv(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "oracle", "--variant", "step", "--t", "0.5"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith(".csv")
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "x,u"

    @pytest.mark.parametrize("variant, datum", [("step", step_datum), ("odd", odd_datum)])
    def test_oracle_at_t_0_writes_the_datum(self, tmp_path, capsys, variant, datum):
        # the closed forms hold from t = 0, where they are the scenario data
        code = main(["--out", str(tmp_path), "oracle", "--variant", variant, "--t", "0"])
        assert code == 0
        out = Path(capsys.readouterr().out.strip())
        assert out.name == f"oracle_{variant}_t0.csv"
        rows = out.read_text().splitlines()[1:]
        u = np.array([float(row.split(",")[1]) for row in rows])
        assert np.array_equal(u, datum(Grid1D(-4.0, 4.0, 2048)).values)

    def test_oracle_outside_validity_is_usage_error(self, tmp_path):
        code = main(["--out", str(tmp_path), "oracle", "--variant", "odd", "--t", "0.5"])
        assert code == 1

    def test_bad_config_is_usage_error(self, tmp_path, monkeypatch):
        # a value out of range is refused by the command that reads it, before
        # any run; a value that does not type is refused for every command
        import nclaw.experiments

        monkeypatch.setattr(nclaw.experiments, "_pool", lambda *a, **kw: pytest.fail("ran"))
        bad = tmp_path / "bad.cfg"
        bad.write_text("[ce1]\neps = -3\n")
        assert main(["--config", str(bad), "ce1"]) == 1
        assert main(["--config", str(bad), "--out", str(tmp_path), "oracle"]) == 0
        bad.write_text("[ce1]\neps = soon\n")
        assert main(["--config", str(bad), "oracle"]) == 1

    def test_tiny_ce1_passes_and_emits(self, tmp_path, capsys):
        code = main(
            ["--out", str(tmp_path), "ce1", "--n-particles", "300", "--godunov-n", "1024"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: PASS" in out
        runs = list(tmp_path.glob("ce1-*"))
        assert len(runs) == 1
        assert (runs[0] / "manifest.json").exists()
        assert (runs[0] / "diagnostics.csv").exists()

    def test_numerical_failure_has_its_own_exit_code(self, monkeypatch, capsys):
        # the scenario is looked up when the command runs, so the patch applies
        import nclaw.experiments
        from nclaw.cli import EXIT_NUMERICAL
        from nclaw.nonlocal_solvers import CharacteristicsCrossed

        def crossing(**kwargs):
            raise CharacteristicsCrossed("characteristics crossed: dt too large")

        monkeypatch.setattr(nclaw.experiments, "counterexample_1", crossing)
        assert main(["--no-emit", "ce1"]) == EXIT_NUMERICAL == 4
        assert "characteristics crossed" in capsys.readouterr().err

    @pytest.mark.parametrize("failure", [
        lambda: CFLError(1.0, 0.5),
        lambda: CharacteristicsCrossed("characteristics crossed"),
        lambda: ParticlesLeftGrid("particle support left the grid"),
        lambda: SignPartitionViolated("sign partition violated"),
        lambda: SupportReachedBoundary("support reached the boundary"),
        lambda: NonFiniteState("non-finite advected state"),
    ], ids=["cfl", "crossed", "left_grid", "partition", "boundary", "non_finite"])
    def test_every_numerical_failure_is_exit_4_and_nothing_else_is(self, monkeypatch, failure):
        # a RuntimeError that is not a NumericalFailure is a defect of the
        # code, not a numerical result: it is raised, not reported as exit 4
        import nclaw.experiments
        from nclaw.cli import EXIT_NUMERICAL

        exc = failure()
        assert isinstance(exc, NumericalFailure) and isinstance(exc, RuntimeError)

        def failing(**kwargs):
            raise exc

        monkeypatch.setattr(nclaw.experiments, "counterexample_1", failing)
        assert main(["--no-emit", "ce1"]) == EXIT_NUMERICAL

        def defect(**kwargs):
            raise RuntimeError("a defect")

        monkeypatch.setattr(nclaw.experiments, "counterexample_1", defect)
        with pytest.raises(RuntimeError, match="^a defect$"):
            main(["--no-emit", "ce1"])

    def test_viscous_blow_up_has_the_numerical_exit_code(self, monkeypatch, capsys):
        # a NaN advected state must not read as a usage error (exit 1)
        import nclaw.viscous
        from nclaw.cli import EXIT_NUMERICAL

        monkeypatch.setattr(
            nclaw.viscous, "_lf_update", lambda u, V, dx, dt, speed: np.full_like(u, np.nan)
        )
        assert main(["--no-emit", "rate"]) == EXIT_NUMERICAL
        assert "non-finite advected state" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, raw", [
        ("ce1", "n_particles", "-5"),
        ("rate", "kernel_shape", "spectral"),
        ("oracle", "variant", "spectral"),
        ("ce2", "godunov_n", "soon"),
        ("rate", "eps_list", "0.1,-0.2"),
        ("oracle", "n_cells", "-4"),
        ("oracle", "t", "-0.5"),
        # a value that starts with "-" but is no plain negative decimal, which
        # argparse alone takes for a flag: one for every float and list flag
        *((section, key, "-0.4,0.2" if isinstance(default, list) else "-inf")
          for section in sorted(COMMANDS) for key, default in DEFAULTS[section].items()
          if isinstance(default, (float, list))),
        ("rate", "t_end", "-nan"),
        ("rate", "t_end", "-1e-3"),
    ])
    def test_flag_value_is_validated_like_a_config_value(
        self, section, key, raw, tmp_path, monkeypatch, capsys
    ):
        # by flag (--flag value or --flag=value) and by config line, the same
        # refusal before any run: a value out of range in the command
        # function's own words, a value that does not type naming the flag or
        # the line
        import nclaw.experiments

        monkeypatch.setattr(nclaw.experiments, "_pool", lambda *a, **kw: pytest.fail("ran"))
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(f"[{section}]\n{key} = {raw}\n")
        flag = "--" + key.replace("_", "-")
        assert main(["--no-emit", "--out", str(tmp_path), section, flag, raw]) == 1
        by_flag = capsys.readouterr().err
        assert main(["--no-emit", "--out", str(tmp_path), section, f"{flag}={raw}"]) == 1
        assert capsys.readouterr().err == by_flag
        assert main(["--no-emit", "--out", str(tmp_path), "--config", str(cfg), section]) == 1
        by_line = capsys.readouterr().err
        try:
            parse_config(cfg.read_text())
        except ConfigError as exc:  # does not type
            message = str(exc).removeprefix("line 2: ")
            assert by_flag == f"error: {flag}: {message}\n"
            assert by_line == f"config error: line 2: {message}\n"
        else:  # out of range
            assert by_flag == by_line and by_flag.startswith("error: ")
            assert "Traceback" not in by_flag

    def test_old_flag_n_is_rejected(self, capsys):
        # so is --solver: ce1's Lax-Friedrichs drain is a side number now
        for flag in (["--n", "300"], ["--solver", "particles"]):
            assert main(["--no-emit", "ce1", *flag, "--no-gate"]) == 1
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, prefix", [
        (["rate", "--eps", "0.4,0.2", "--t-end", "0.1", "--no-gate"], "--eps"),
        (["visc", "--nu", "0.1,0.03", "--t-end", "0.1", "--no-gate"], "--nu"),
        (["--no-em", "ce1", "--n-particles", "300", "--no-gate"], "--no-em"),
    ], ids=["rate-eps", "visc-nu", "lab-no-em"])
    def test_flag_prefix_is_a_usage_error(self, monkeypatch, capsys, argv, prefix):
        # a prefix of a flag name does not stand for the flag
        import nclaw.experiments

        monkeypatch.setattr(nclaw.experiments, "_pool", lambda *a, **kw: pytest.fail("ran"))
        assert main(argv) == 1
        assert f"unrecognized arguments: {prefix}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["rate", "--p", "0.5"], "p=0.5"),
        (["rate", "--eps-list", "0.2"], "eps_list=[0.2]"),
        (["rate", "--eps-list", "0.1,0.1"], "eps_list=[0.1, 0.1]"),
        (["visc", "--nu-list", "0.1"], "nu_list=[0.1]"),
        (["ce2", "--n-particles", "1"], "n_particles"),
        (["ce3", "--n-particles", "1"], "n_particles"),
        (["ce1", "--t-end", "0.3"], "t_end=0.3"),
        (["ce3", "--t-end", "1.5"], "t_end=1.5"),
        (["ce1", "--t-end", "0"], "t_end=0.0"),
        (["ce3", "--t-end", "0"], "t_end=0.0"),
        (["rate", "--width", "1e-9", "--eps-list", "0.4,0.2", "--t-end", "0.2", "--no-gate"],
         "width=1e-09"),
        (["visc", "--width", "0.001", "--nu-list", "0.1,0.03", "--t-end", "0.1", "--no-gate"],
         "width=0.001"),
        (["ce1", "--eps", "0"], "eps=0.0 must be positive and finite"),
        (["ce2", "--eps", "0"], "eps=0.0 must be positive and finite"),
        (["ce3", "--eps", "0"], "eps=0.0 must be positive and finite"),
        (["visc", "--eps", "0"], "eps=0.0 must be positive and finite"),
        # below the cells of ce1's resolved Lax-Friedrichs run (0.002)
        (["ce1", "--eps", "0.0019", "--t-end", "0.01", "--no-gate"],
         "kernel under-resolved: eps=0.0019"),
        # output intervals within the runs' time tolerance: no step would be taken
        (["ce3", "--t-end", "1e-14", "--no-gate"], "t_end=1e-14 gives 50 output intervals"),
        (["ce1", "--t-end", "1e-12"], "t_end=1e-12 gives 25 output intervals"),
        (["visc", "--t-end", "1e-13"], "t_end=1e-13 gives 5 output intervals"),
        (["rate", "--t-end", "1e-12"], "t_end=1e-12 gives 10 output intervals"),
    ])
    def test_input_without_a_verdict_is_rejected_before_any_run(
        self, monkeypatch, capsys, argv, name
    ):
        import nclaw.experiments

        monkeypatch.setattr(nclaw.experiments, "_pool", lambda *a, **kw: pytest.fail("ran"))
        assert main(["--no-emit", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}") and "Traceback" not in err

    @pytest.mark.parametrize("argv, spacing, eps", [
        (["ce1", "--eps", "0.001", "--n-particles", "40", "--no-gate"], "0.05", "0.001"),
        (["ce2", "--eps", "0.001", "--n-particles", "40", "--no-gate"], "0.025", "0.001"),
        (["ce3", "--eps", "0.001", "--n-particles", "40", "--no-gate"], "0.025", "0.001"),
        (["ce2", "--eps", "0.05", "--n-particles", "30"], "0.06667", "0.05"),
    ], ids=["ce1", "ce2", "ce3", "ce2-rerun"])
    def test_particles_that_cannot_see_each_other_are_rejected_before_any_run(
        self, monkeypatch, capsys, argv, spacing, eps
    ):
        # at spacing >= eps no particle is inside another's kernel, so each
        # moves alone; with the gate on the rerun's halved count is refused
        # too (ce2-rerun: 30 particles are 0.0333 apart, its 15 are 0.0667)
        import nclaw.experiments

        monkeypatch.setattr(nclaw.experiments, "_pool", lambda *a, **kw: pytest.fail("ran"))
        assert main(["--no-emit", *argv, "--godunov-n", "64"]) == 1
        assert capsys.readouterr().err == (
            f"error: particles {spacing} apart at this resolution, not closer than "
            f"eps={eps}: none would see another\n")

    def test_rate_at_p_1_records_an_open_beta_exponent(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "rate", "--p", "1", "--eps-list", "0.4,0.2",
                     "--t-end", "0.2", "--no-gate"])
        assert code in (0, 2)
        (report,) = tmp_path.glob("rate-*/report.json")
        assert json.loads(report.read_text())["numbers"]["beta_exponent"] is None

    def test_exit_code_mapping(self):
        from nclaw.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, EXIT_USAGE

        assert (EXIT_PASS, EXIT_USAGE, EXIT_FAIL, EXIT_INCONCLUSIVE) == (0, 1, 2, 3)

    @pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
    def test_documented_commands_are_the_parser_subcommands(self, doc):
        (sub,) = [a for a in _build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        text = (Path(__file__).parents[1] / doc).read_text()
        documented = [line.split()[1] for line in text.splitlines() if line.startswith("lab ")]
        assert sorted(documented) == sorted(sub.choices)
