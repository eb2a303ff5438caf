"""The ``lab`` command-line dispatcher.

Exit codes: 0 = all checks pass, 2 = some check failed, 3 = verdict
inconclusive (headline numbers not grid-converged), 1 = usage or
configuration error, 4 = numerical failure (characteristics crossed, CFL
violated, support reached the domain boundary, ...).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (
    CHOICES,
    CONFIG_KEYS,
    DEFAULTS,
    SCENARIOS,
    ConfigError,
    LabConfig,
    parse_config,
)
from .records import emit_report

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_NUMERICAL = 4

# lab <scenario>: its help line and the flags that override its config keys
# (each flag is --<name> with dashes; --no-gate is common to all)
SCENARIO_FLAGS = {
    "ce1": ("run counterexample scenario ce1",
            {"eps": "epsilon", "n": "n_particles", "t_end": "t_end",
             "godunov_n": "godunov_n", "solver": "solver"}),
    "ce2": ("run counterexample scenario ce2",
            {"eps": "epsilon", "n": "n_particles", "t_end": "t_end", "godunov_n": "godunov_n"}),
    "ce3": ("run counterexample scenario ce3",
            {"eps": "epsilon", "n": "n_particles", "t_end": "t_end", "godunov_n": "godunov_n"}),
    "rate": ("order in eps of the viscous nonlocal-to-local distance",
             {"nu": "nu", "p": "p", "eps_list": "eps_list", "kernel_shape": "kernel_shape"}),
    "visc": ("vanishing-viscosity sweep at fixed eps",
             {"eps": "epsilon", "nu_list": "nu_list"}),
}


def _float_list(raw: str) -> list:
    return [float(x) for x in raw.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lab",
        description="1D nonlocal conservation-law laboratory: counterexample "
        "scenarios, convergence-rate experiments and the closed-form oracle.",
    )
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--out", help="output directory for run records")
    p.add_argument("--no-emit", action="store_true", help="do not write run records")
    sub = p.add_subparsers(dest="command", required=True)

    for name, (help_line, flags) in SCENARIO_FLAGS.items():
        sp = sub.add_parser(name, help=help_line)
        for flag, key in flags.items():
            default = DEFAULTS[name][key]
            if key in CHOICES:
                kw = {"choices": CHOICES[key]}
            elif isinstance(default, list):
                kw = {"type": _float_list, "help": f"comma-separated; config key {key}"}
            else:
                kw = {"type": type(default), "help": f"config key {key}"}
            sp.add_argument("--" + flag.replace("_", "-"), **kw)
        sp.add_argument("--no-gate", action="store_true")

    sp = sub.add_parser("oracle", help="sample a closed-form entropy solution to CSV")
    sp.add_argument("--variant", choices=CHOICES["variant"])
    sp.add_argument("--t", type=float)
    sp.add_argument("--x-min", type=float)
    sp.add_argument("--x-max", type=float)
    sp.add_argument("--n-cells", type=int)
    return p


def _load_config(path) -> LabConfig:
    if path is None:
        return LabConfig()
    return parse_config(Path(path).read_text())


def _run_scenario(args, cfg: LabConfig):
    from . import experiments

    kw = dict(cfg[args.command])
    for flag, key in SCENARIO_FLAGS[args.command][1].items():
        value = getattr(args, flag)
        if value is not None:
            kw[key] = value
    if args.no_gate:
        kw["gate"] = False
    param_of = {key: param for param, key in CONFIG_KEYS.items()}
    scenario = getattr(experiments, SCENARIOS[args.command])
    return scenario(**{param_of.get(key, key): value for key, value in kw.items()})


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.command == "oracle":
        from .grids import Grid1D, field_to_csv
        from .local_entropy import ExactSolution, sample_exact

        o = dict(cfg["oracle"])
        for key in o:
            if getattr(args, key) is not None:
                o[key] = getattr(args, key)
        try:
            sol = ExactSolution(o["variant"])
            fld = sample_exact(sol, o["t"], Grid1D(o["x_min"], o["x_max"], o["n_cells"]))
        except ValueError as exc:
            print(f"oracle error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        out_dir = Path(args.out or cfg["lab"]["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"oracle_{o['variant']}_t{o['t']:g}.csv"
        field_to_csv(fld, path)
        print(path)
        return EXIT_PASS

    try:
        report = _run_scenario(args, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for line in report.summary_lines():
        print(line)
    if not args.no_emit:
        out_dir = args.out or cfg["lab"]["out_dir"]
        paths = emit_report(report, out_dir)
        print(f"run records: {paths['run_dir']}")
    if report.verdict == "FAIL":
        return EXIT_FAIL
    if report.verdict == "INCONCLUSIVE":
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
