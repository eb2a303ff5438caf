"""The ``lab`` command-line dispatcher.

Every configuration section but ``[lab]`` is a subcommand, which calls
the function ``config.COMMANDS`` names for it. Each parameter of that
function is both a config key and the flag ``--<key-with-dashes>``, or
``--no-<key>`` for a key whose default is True. A flag's value is the token
after it, whatever it starts with (``_join_values``); flag values and config
values are typed by ``config.parse_value`` and range-checked by the function.

Exit codes: 0 = all checks pass, 2 = some check failed, 3 = verdict
inconclusive (headline numbers not grid-converged), 1 = usage or
configuration error, 4 = numerical failure (``NumericalFailure``:
characteristics crossed, CFL violated, support reached the domain
boundary, ...).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from .config import (
    CHOICES,
    COMMANDS,
    DEFAULTS,
    ConfigError,
    LabConfig,
    command_function,
    parse_config,
    parse_value,
)
from .local_entropy import NumericalFailure
from .records import emit_report

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_NUMERICAL = 4


def _flag(key: str, default) -> str:
    return ("--no-" if default is True else "--") + key.replace("_", "-")


def _join_values(argv: list) -> list:
    """``argv`` with each flag that takes a value joined to the token after
    it by '=': argparse takes a token that starts with '-' and is not a
    plain negative decimal (``-inf``, ``-1e-3``, ``-0.4,0.2``) for a flag.
    The flags are lab's own up to the command's name, then the command's."""
    flags, section, out = {"--config", "--out"}, None, []
    tokens = iter(argv)
    for token in tokens:
        if token in flags:
            value = next(tokens, None)
            token = token if value is None else f"{token}={value}"
        elif section is None and token in COMMANDS:
            section = token
            flags = {_flag(key, default) for key, default in DEFAULTS[section].items()
                     if default is not True}
        out.append(token)
    return out


def _build_parser() -> argparse.ArgumentParser:
    # no prefix matching: a misspelt flag must not set another setting
    p = argparse.ArgumentParser(
        prog="lab",
        allow_abbrev=False,
        description="1D nonlocal conservation-law laboratory: counterexample "
        "scenarios, convergence-rate experiments and the closed-form oracle.",
    )
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--out", help="output directory for run records")
    p.add_argument("--no-emit", action="store_true", help="do not write run records")
    sub = p.add_subparsers(dest="command", required=True)

    for section in COMMANDS:
        doc = inspect.getdoc(command_function(section)) or ""
        summary = " ".join(doc.split("\n\n")[0].split())
        sp = sub.add_parser(section, help=summary, description=summary,
                            allow_abbrev=False)
        for key, default in DEFAULTS[section].items():
            flag = _flag(key, default)
            if default is True:
                # the raw value, typed by parse_value like a config value
                sp.add_argument(flag, dest=key, action="store_const", const="false",
                                help=f"set config key {key} to false")
                continue
            shown = ",".join(map(str, default)) if isinstance(default, list) else default
            sp.add_argument(flag, dest=key, metavar="|".join(CHOICES.get(key, ())) or None,
                            help=f"config key {key}, default {shown}")
    return p


def _load_config(path) -> LabConfig:
    if path is None:
        return LabConfig()
    return parse_config(Path(path).read_text())


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    section = args.command
    kw = dict(cfg[section])
    try:
        for key, default in DEFAULTS[section].items():
            raw = getattr(args, key)
            if raw is not None:
                kw[key] = parse_value(section, key, raw, _flag(key, default))
        result = command_function(section)(**kw)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    out_dir = args.out or cfg["lab"]["out_dir"]

    if section == "oracle":
        from .grids import field_to_csv

        path = Path(out_dir) / f"oracle_{kw['variant']}_t{kw['t']:g}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        field_to_csv(result, path)
        print(path)
        return EXIT_PASS

    for line in result.summary_lines():
        print(line)
    if not args.no_emit:
        paths = emit_report(result, out_dir)
        print(f"run records: {paths['run_dir']}")
    if result.verdict == "FAIL":
        return EXIT_FAIL
    if result.verdict == "INCONCLUSIVE":
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
