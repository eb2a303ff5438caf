import argparse
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from nclaw.cli import _build_parser, main
from nclaw.config import COMMANDS, DEFAULTS, ConfigError, command_function, parse_config
from nclaw.experiments import Check, GateResult, grid_convergence_gate
from nclaw.grids import Field, Grid1D
from nclaw.records import (
    DiagnosticSeries,
    RunManifest,
    emit_report,
    field_diagnostics,
    manifest_hash,
)


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
        vals = field_diagnostics(f, windows=((-1.0, 0.0), (0.0, 1.0)))
        assert vals["window_mass"] == pytest.approx(1.0)
        assert vals["window_mass_2"] == pytest.approx(1.0)
        assert vals["mass"] == pytest.approx(2.0)


class TestManifest:
    def test_hash_stable_and_ignores_wall_time(self):
        m1 = RunManifest("ce1", {"eps": 0.05}, wall_time_s=1.0)
        m2 = RunManifest("ce1", {"eps": 0.05}, wall_time_s=99.0)
        assert m1.hash == m2.hash
        m3 = RunManifest("ce1", {"eps": 0.025})
        assert m3.hash != m1.hash

    def test_hash_canonicalizes_numpy_scalars(self):
        assert manifest_hash({"a": np.float64(0.5)}) == manifest_hash({"a": 0.5})


class TestGate:
    def test_converged_and_inconclusive(self):
        g = grid_convergence_gate({"m": 1.000}, {"m": 1.001}, {"m": 0.02})
        assert g.status == "CONVERGED"
        g = grid_convergence_gate({"m": 1.00}, {"m": 1.04}, {"m": 0.05})
        assert g.status == "INCONCLUSIVE"

    def test_richardson_style_example(self):
        # halving self-difference under refinement counts as converged
        g = grid_convergence_gate({"err": 0.010}, {"err": 0.0102}, {"err": 0.02})
        assert g.status == "CONVERGED"


def _tiny_report():
    from nclaw.experiments import ScenarioReport

    d = DiagnosticSeries()
    grid = Grid1D(0.0, 1.0, 4)
    f = Field(grid, np.ones(4))
    d.append(0.0, field_diagnostics(f))
    checks = [Check("c", 1.0, 0.9, 1.1, provenance="unit")]
    manifest = RunManifest("unit", {"x": 1})
    return ScenarioReport(
        "unit", checks, GateResult("CONVERGED", []), {"n": 1}, manifest,
        series={"main": d}, trajectories={"main": [f]},
    )


class TestSummaryLines:
    def test_one_line_per_gate_comparison(self):
        report = _tiny_report()
        report.gate = grid_convergence_gate(
            {"m": 1.0, "w": 0.5}, {"m": 1.001, "w": 0.6}, {"m": 0.02, "w": 0.02}
        )
        lines = report.summary_lines()
        assert lines[-3] == "  [gate] INCONCLUSIVE"
        assert lines[-2] == "    m: main=1 rerun=1.001 delta=0.001 threshold=0.005 ok"
        assert lines[-1].startswith("    w: main=0.5 rerun=0.6 ")
        assert lines[-1].endswith(" NOT CONVERGED")


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

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigError, match="eps must be > 0"):
            parse_config("[ce1]\neps = -1\n")

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


class TestCLI:
    def test_oracle_emits_csv(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "oracle", "--variant", "step", "--t", "0.5"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith(".csv")
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "x,u"

    def test_oracle_outside_validity_is_usage_error(self, tmp_path):
        code = main(["--out", str(tmp_path), "oracle", "--variant", "odd", "--t", "0.5"])
        assert code == 1

    def test_bad_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[ce1]\neps = -3\n")
        code = main(["--config", str(bad), "oracle"])
        assert code == 1

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
        ("ce1", "solver", "spectral"),
        ("ce2", "godunov_n", "soon"),
        ("rate", "eps_list", "0.1,-0.2"),
        ("oracle", "n_cells", "-4"),
    ])
    def test_flag_value_is_validated_like_a_config_value(self, section, key, raw, capsys):
        with pytest.raises(ConfigError) as info:
            parse_config(f"[{section}]\n{key} = {raw}\n")
        message = str(info.value).removeprefix("line 2: ")
        flag = "--" + key.replace("_", "-")
        assert main(["--no-emit", section, flag, raw]) == 1
        assert capsys.readouterr().err == f"error: {flag}: {message}\n"

    def test_old_flag_n_is_rejected(self, capsys):
        assert main(["--no-emit", "ce1", "--n", "300", "--no-gate"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["rate", "--p", "0.5"], "p=0.5"),
        (["rate", "--eps-list", "0.2"], "eps_list=[0.2]"),
        (["rate", "--eps-list", "0.1,0.1"], "eps_list=[0.1, 0.1]"),
        (["visc", "--nu-list", "0.1"], "nu_list=[0.1]"),
        (["ce2", "--n-particles", "1"], "n_particles"),
        (["ce3", "--n-particles", "1"], "n_particles"),
    ])
    def test_input_without_a_verdict_is_rejected_before_any_run(
        self, monkeypatch, capsys, argv, name
    ):
        import nclaw.experiments

        monkeypatch.setattr(nclaw.experiments, "_pool", lambda *a, **kw: pytest.fail("ran"))
        assert main(["--no-emit", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}") and "Traceback" not in err

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
