"""One workload as a batch job in a fresh process.

Runs the workload's ``lab`` scenarios back to back through
``nclaw.cli.main``, with the shipped presets, the gate on and run records
written under ``--out``. Rounds repeat while the next one is expected to end
within ``--seconds``; at least one round always runs. With ``--trace 1``
untraced and traced rounds alternate in the same process, and the spans go
to ``out/spans-<workload>.jsonl`` beside this file. Every scenario run is
checked against its closed forms, every round's records against the first
round's bytes, and the traced call counts against the step counts the
solvers return. The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
from tracer import Tracer

WORKLOADS = {
    "counterexamples": ("ce1", "ce2", "ce3"),
    "rate": ("rate",),
    "visc": ("visc",),
}


def run_round(cli, scenarios, out: Path) -> tuple:
    """Time one round; return its wall time and each scenario's exit code or error."""
    outcomes = []
    t0 = perf_counter()
    for name in scenarios:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(["--out", str(out / name), name])
        except Exception:
            code = traceback.format_exc()
        outcomes.append((name, code))
    return perf_counter() - t0, outcomes


def round_checked(cli, scenarios, round_dir: Path, state: dict) -> float:
    """Run one round, check its records and return its wall time.

    A scenario run fails if ``lab`` raised or exited nonzero, or if its
    outputs fail a check; only the latter are errors in the outputs.
    Records are compared by digest with the first round's, then deleted.
    """
    wall, outcomes = run_round(cli, scenarios, round_dir)
    state["attempted"] += len(outcomes)
    for name, code in outcomes:
        if code != 0:
            state["failed"] += 1
            print(f"{name}: lab exited with {code!r}", file=sys.stderr)
            continue
        (run_dir,) = (round_dir / name).iterdir()
        errs = [f"{name}: {e}" for e in checks.CHECKS[name](run_dir)]
        state["failed"] += bool(errs)
        state["errors"] += errs
        digests = checks.record_digests(run_dir)
        first = state["digests"].setdefault(name, digests)
        if digests != first:
            diff = sorted(k for k in first.keys() | digests.keys()
                          if first.get(k) != digests.get(k))
            state["mismatches"].append(f"{round_dir.name} {name}: bytes differ in {diff[:5]}")
    shutil.rmtree(round_dir)
    return wall


def call_count_mismatches(tracer: Tracer) -> list:
    """The wrappers must have seen every step the solvers report."""
    w, calls = tracer.work, tracer.calls()
    expected = {
        "nonlocal_solvers.particle_step": w["nonlocal_solvers.run_nonlocal"]["particles_steps"],
        "nonlocal_solvers.lf_step": w["nonlocal_solvers.run_nonlocal"]["lax_friedrichs_steps"],
        "viscous.imex_step": w["viscous.run_viscous"]["steps"],
        "local_entropy.godunov_step": w["local_entropy.run_local"]["steps"],
    }
    return [
        f"{name}: {calls[name]} calls, solvers report {n} steps"
        for name, n in expected.items()
        if calls[name] != n
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)

    from nclaw import cli

    scenarios = WORKLOADS[args.workload]
    state = {"attempted": 0, "failed": 0, "errors": [], "digests": {}, "mismatches": []}
    plain, traced = [], []
    started = perf_counter()

    def room(per_round: float) -> bool:
        return perf_counter() - started + per_round <= args.seconds

    def one_round(walls: list, label: str) -> None:
        walls.append(round_checked(cli, scenarios, args.out / f"{label}{len(walls)}", state))
        if "peak_rss_mb" not in state:
            # a user pays one round per process: later rounds only add
            # allocator high-water marks that depend on the round count
            # (ru_maxrss is in KiB on Linux)
            state["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not args.trace:
        while not plain or room(statistics.mean(plain)):
            one_round(plain, "plain")
    else:
        # untraced and traced rounds alternate, so a drift in machine speed
        # during the run biases the tracing overhead as little as it can
        tracer = Tracer()
        while not plain or room(statistics.mean(plain) + statistics.mean(traced)):
            one_round(plain, "plain")
            tracer.install()
            try:
                one_round(traced, "traced")
            finally:
                tracer.uninstall()
    result = {"wall_s": statistics.median(plain), "walls": plain}
    if args.trace:
        state["mismatches"] += call_count_mismatches(tracer)
        layers = tracer.metrics(len(traced))
        layers["trace_overhead_s"] = {
            "value": statistics.median(traced) - result["wall_s"], "unit": "s"}
        result["layers"] = layers
        result["traced_walls"] = traced
        spans = Path(__file__).resolve().parent / "out"
        spans.mkdir(exist_ok=True)
        tracer.write(spans / f"spans-{args.workload}.jsonl")
    result.update(
        peak_rss_mb=state["peak_rss_mb"], attempted=state["attempted"], failed=state["failed"],
        errors=state["errors"], mismatches=state["mismatches"])
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
