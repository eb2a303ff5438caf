"""Output checks, read back from the run records a ``lab`` scenario writes.

Every expected value is a closed form or a property of the method worked out
here, not a copy of an earlier output: the particle solver never edits
masses, the entropy solutions of the step and odd data are known in closed
form, and the viscous experiments must show their distances shrinking.
Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Godunov on 4096 cells is first order at shocks: its window masses and
# entropy sit within a few dx (about 1e-3) of the closed forms. 1e-2 allows
# about ten cells and still rejects a wrong shock speed or flux.
FV_TOL = 1e-2


def _columns(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _floats(col) -> list:
    return [float(v) for v in col]


def _same_float(name: str, col) -> list:
    """The channel holds one and the same float at every output."""
    return [] if len(set(col)) == 1 else [f"{name} changes: {sorted(set(col))[:3]}"]


def _follows(name: str, ts, values, exact, tol=FV_TOL) -> list:
    worst = max(abs(v - exact(t)) for t, v in zip(ts, values))
    return [] if worst <= tol else [f"{name} is {worst:.3g} off its closed form"]


def _particles(run_dir: Path) -> tuple:
    d = _columns(run_dir / "diagnostics.csv")
    return d, _same_float("particle mass", d["mass"])


def _step_right_mass(t: float) -> float:
    # entropy solution of u_t + (u^2)_x = 0 from the indicator of (-1, 0):
    # a shock x = t with u = 1 behind it, and the rarefaction u = (x+1)/(2t)
    # from x = -1 whose head reaches x = 0 at t = 1/2
    return t if t <= 0.5 else 1.0 - 1.0 / (4.0 * t)


def check_ce1(run_dir: Path) -> list:
    d, errs = _particles(run_dir)
    wm = d["window_mass"]
    errs += _same_float("window mass on [-4, 0]", wm)
    if abs(float(wm[0]) - 1.0) > 1e-12:
        errs.append(f"window mass on [-4, 0] is {wm[0]}, not 1")
    for lo, hi in zip(_floats(d["support_lo"]), _floats(d["support_hi"])):
        if abs(lo + hi) > 1e-9:
            errs.append(f"support [{lo!r}, {hi!r}] is not symmetric")
            break
    for path in sorted((run_dir / "fields_nonlocal").glob("t_*.csv")):
        f = _columns(path)
        x, u = _floats(f["x"]), _floats(f["u"])
        dx = x[1] - x[0]
        scale = max(abs(v) for v in u)
        if max(abs(a + b) for a, b in zip(u, reversed(u))) > 1e-9 * scale:
            errs.append(f"{path.name}: deposited field is not odd")
        # linear deposition spreads an atom over the two bracketing cells,
        # so only cells more than one dx from 0 must keep their sign
        if any(v < 0.0 for xi, v in zip(x, u) if xi < -dx) or any(
            v > 0.0 for xi, v in zip(x, u) if xi > dx
        ):
            errs.append(f"{path.name}: sign partition broken")
    g = _columns(run_dir / "diagnostics_godunov.csv")
    # standing shock at 0 between +1 and -1 lets flux f(1) = 1 out of (-4, 0)
    errs += _follows("godunov window mass", _floats(g["t"]), _floats(g["window_mass"]),
                     lambda t: 1.0 - t)
    return errs


def check_ce2(run_dir: Path) -> list:
    d, errs = _particles(run_dir)
    # the rightmost particle sees no mass downstream, so it never moves
    errs += _same_float("support_hi", d["support_hi"])
    if any(float(v) != 0.0 for v in d["window_mass"]):
        errs.append("particle mass reached (0, 0.5)")
    g = _columns(run_dir / "diagnostics_godunov.csv")
    errs += _follows("godunov mass on (0, 1)", _floats(g["t"]), _floats(g["window_mass"]),
                     _step_right_mass)
    return errs


def check_ce3(run_dir: Path) -> list:
    d, errs = _particles(run_dir)
    worst = max(abs(v) for v in _floats(d["entropy_lagrangian"]))
    if worst > 0.05:
        errs.append(f"Lagrangian entropy reaches {worst:.3g}, outside 0 +- 0.05")
    g = _columns(run_dir / "diagnostics_godunov.csv")
    ts, ent = _floats(g["t"]), _floats(g["entropy"])
    # the rarefaction u = (x+1)/(2t) carries int u ln u = 2t int_0^1 s ln s = -t/2
    errs += _follows("godunov entropy", ts, ent, lambda t: -t / 2.0)
    if any(b > a for a, b in zip(ent, ent[1:])):
        errs.append("godunov entropy increases")
    return errs


def _least_squares_slope(xs, ys) -> float:
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def check_rate(run_dir: Path) -> list:
    numbers = json.loads((run_dir / "report.json").read_text())["numbers"]
    eps, dist = numbers["eps_list"], numbers["distances"]
    errs = []
    order = _least_squares_slope([math.log(e) for e in eps], [math.log(d) for d in dist])
    if not order >= 0.9:
        errs.append(f"refitted order in eps {order:.4g} < 0.9")
    pairs = sorted(zip(eps, dist), reverse=True)
    if any(b[1] >= a[1] for a, b in zip(pairs, pairs[1:])):
        errs.append(f"distances do not fall as eps halves: {pairs}")
    return errs


def check_visc(run_dir: Path) -> list:
    numbers = json.loads((run_dir / "report.json").read_text())["numbers"]
    pairs = sorted(zip(numbers["nu_list"], numbers["distances"]), reverse=True)
    if any(b[1] >= a[1] for a, b in zip(pairs, pairs[1:])):
        return [f"distances do not fall strictly as nu decreases: {pairs}"]
    return []


CHECKS = {
    "ce1": check_ce1,
    "ce2": check_ce2,
    "ce3": check_ce3,
    "rate": check_rate,
    "visc": check_visc,
}


def record_digests(run_dir: Path) -> dict:
    """sha256 of report.json and every CSV; manifest.json carries the wall time."""
    return {
        str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and (p.suffix == ".csv" or p.name == "report.json")
    }
