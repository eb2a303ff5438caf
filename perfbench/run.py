"""The nclaw benchmark: gated ``lab`` scenarios timed end to end.

    python3 perfbench/run.py --workload counterexamples --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. ``setup_s`` is the median over several fresh interpreters
of the time until ``nclaw.cli`` is imported and the configuration loaded.
The workload itself runs as one batch job in a fresh worker process with no
extra threads (see worker.py). With ``--trace 0`` the last line of output
reports ``wall_s``, ``setup_s`` and ``peak_rss_mb``; with ``--trace 1`` it
reports the per-layer metrics of a traced run and the tracing overhead, and
the spans are written to ``perfbench/out/``.

The scenarios use the shipped presets, which are deterministic and take no
seed: ``--seed`` is accepted and recorded, and every seed gives the same
inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0

SETUP_PROBE = (
    "import sys\n"
    "import nclaw.cli\n"
    "from nclaw.config import LabConfig\n"
    "LabConfig()\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict) -> float:
    """Start of a fresh interpreter until nclaw.cli is imported and configured."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env, stdout=subprocess.PIPE
    ) as proc:
        ready = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if ready != b"ready\n" or code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return t1 - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "nclaw" / "cli.py").is_file():
        print(f"no nclaw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = perf_counter()
    env = child_env()
    setups = [setup_seconds(env) for _ in range(SETUP_PROBES)]

    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        result_path = tmp / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(tmp / "records"),
            "--result", str(result_path),
        ]
        limit = TIME_LIMIT_S - (perf_counter() - started)
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=limit, check=False)
        if proc.returncode != 0:
            print(f"worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for line in res["errors"] + res["mismatches"]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "setup_probes_s": setups,
                      "round_walls_s": res["walls"], "traced_walls_s": res.get("traced_walls")}))
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not res["errors"] and not res["mismatches"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
