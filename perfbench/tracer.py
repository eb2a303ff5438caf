"""Outside-in tracing of the nclaw layers.

``Tracer.install`` replaces each traced function by a wrapper under every
name the package looks it up by (``nonlocal_solvers._convolve_atoms`` is
``kernels.convolve_particles``, ``viscous.convolve`` is ``kernels.convolve``,
and so on), so the program itself is left untouched. Each call becomes a
span (parent, layer, start, end) kept in memory; the work counts below are
computed from the arguments and results the wrapper sees.

A wrapper's own bookkeeping is timed too: a span's self time subtracts the
full wrapper time of its children, so counting work inside a child is not
charged to its parent.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _pairs(acc, args, kwargs, result, ok):
    # query-point/atom pairs inside the kernel reach, the same closed
    # interval [x - hi, x - lo] the banded pass walks
    X = np.asarray(_arg(args, kwargs, 0, "positions"), dtype=float)
    lo, hi = _arg(args, kwargs, 2, "k").support
    xq = np.atleast_1d(np.asarray(_arg(args, kwargs, 3, "x"), dtype=float))
    reach = np.searchsorted(X, xq - lo, side="right") - np.searchsorted(
        X, xq - hi, side="left"
    )
    acc["pairs"] += int(reach.sum())


def _taps(acc, args, kwargs, result, ok):
    f, k = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "k")
    acc["taps"] += f.grid.n_cells * (2 * math.ceil(k.epsilon / f.grid.dx) + 1)


def _run_nonlocal(acc, args, kwargs, result, ok):
    if not ok:
        return
    info = result.info
    acc["steps"] += info["n_steps"]
    acc["rejected"] += info.get("n_rejected", 0)
    # kept apart by scheme for the call-count cross-check, not reported
    acc[f"{info['scheme']}_steps"] += info["n_steps"] + info.get("n_rejected", 0)


def _particle_step(acc, args, kwargs, result, ok):
    if not ok:
        acc["rejected"] += 1


def _run_steps(grid_of):
    def count(acc, args, kwargs, result, ok):
        if ok:
            n = result.info["n_steps"]
            acc["steps"] += n
            acc["cells"] += n * grid_of(args, kwargs).n_cells

    return count


def _field_cells(acc, args, kwargs, result, ok):
    acc["cells"] += _arg(args, kwargs, 0, "f").grid.n_cells


def _array_cells(acc, args, kwargs, result, ok):
    acc["cells"] += np.size(_arg(args, kwargs, 0, "u"))


def _written(acc, args, kwargs, result, ok):
    if ok:
        files = [p for p in result["run_dir"].rglob("*") if p.is_file()]
        acc["files"] += len(files)
        acc["bytes"] += sum(p.stat().st_size for p in files)


# (module, function, work counter, work quantities reported)
LAYERS = [
    ("cli", "main", None, ()),
    ("experiments", "counterexample_1", None, ()),
    ("experiments", "counterexample_2", None, ()),
    ("experiments", "counterexample_3", None, ()),
    ("experiments", "singular_limit_rate", None, ()),
    ("experiments", "vanishing_viscosity", None, ()),
    ("kernels", "convolve_particles", _pairs, ("pairs", "ns_per_pair")),
    ("kernels", "convolve_particles_slope", _pairs, ("pairs", "ns_per_pair")),
    ("kernels", "convolve", _taps, ("taps",)),
    ("nonlocal_solvers", "run_nonlocal", _run_nonlocal, ("steps", "rejected")),
    ("nonlocal_solvers", "particle_step", _particle_step, ("rejected",)),
    ("nonlocal_solvers", "lf_step", None, ()),
    ("nonlocal_solvers", "deposit", None, ()),
    ("nonlocal_solvers", "ensemble_diagnostics", None, ()),
    ("viscous", "run_viscous", _run_steps(lambda a, kw: _arg(a, kw, 0, "cfg").grid),
     ("steps", "cells")),
    ("viscous", "imex_step", _field_cells, ("cells",)),
    ("viscous", "diffusion_substep", _array_cells, ("cells",)),
    ("local_entropy", "run_local",
     _run_steps(lambda a, kw: _arg(a, kw, 0, "initial").grid), ("steps", "cells")),
    ("local_entropy", "godunov_step", _field_cells, ("cells",)),
    ("records", "field_diagnostics", None, ()),
    ("records", "emit_report", _written, ("bytes", "files")),
]

UNITS = {
    "calls": "count", "s": "s", "self_s": "s", "pairs": "count",
    "ns_per_pair": "ns", "taps": "count", "steps": "count", "rejected": "count",
    "cells": "count", "bytes": "B", "files": "count",
}


class Tracer:
    """Spans and work counts of the wrapped nclaw functions."""

    def __init__(self):
        self.names = [f"{m}.{f}" for m, f, _, _ in LAYERS]
        self.spans = []  # (parent, layer index, t0, t1, wrapper time)
        self.work = defaultdict(lambda: defaultdict(int))
        self._stack = [-1]
        self._restore = []

    def _wrap(self, index, fn, counter):
        spans, stack, acc = self.spans, self._stack, self.work[self.names[index]]

        def traced(*args, **kwargs):
            t_in = perf_counter()
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            result, ok = None, False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                if counter is not None:
                    counter(acc, args, kwargs, result, ok)
                spans[sid] = (parent, index, t0, t1, perf_counter() - t_in)

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every layer under each name any loaded nclaw module binds it to."""
        modules = [m for n, m in sys.modules.items() if n == "nclaw" or n.startswith("nclaw.")]
        for index, (module, fn_name, counter, _) in enumerate(LAYERS):
            original = getattr(sys.modules[f"nclaw.{module}"], fn_name)
            wrapper = self._wrap(index, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def calls(self) -> Counter:
        """Calls seen per layer name."""
        return Counter(self.names[index] for _, index, _, _, _ in self.spans)

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round: calls, inclusive and self time, work."""
        n = len(self.names)
        incl = np.zeros(n)
        child = np.zeros(n)
        for _, index, t0, t1, _ in self.spans:
            incl[index] += t1 - t0
        for parent, _, _, _, outer in self.spans:
            if parent >= 0:
                child[self.spans[parent][1]] += outer
        calls = self.calls()
        out = {}
        for i, (_, _, _, work) in enumerate(LAYERS):
            name = self.names[i]
            acc = self.work[name]
            vals = {"calls": calls[name], "s": incl[i], "self_s": incl[i] - child[i]}
            for q in work:
                if q == "ns_per_pair":
                    vals[q] = 1e9 * incl[i] / acc["pairs"] if acc["pairs"] else 0.0
                else:
                    vals[q] = acc[q]
            for q, v in vals.items():
                out[f"{name}.{q}"] = {"value": v / rounds if q != "ns_per_pair" else v,
                                      "unit": UNITS[q]}
        # time spent inside the wrappers on bookkeeping and work counts: a
        # lower bound on the tracing overhead that machine drift cannot move
        bookkeeping = sum(outer - (t1 - t0) for _, _, t0, t1, outer in self.spans)
        out["trace_bookkeeping_s"] = {"value": bookkeeping / rounds, "unit": "s"}
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: a header with the layer names, then one span a line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"layers": self.names, "fields": [
                "id", "parent", "layer", "t0", "t1"]}) + "\n")
            for sid, (parent, index, t0, t1, _) in enumerate(self.spans):
                fh.write(f"[{sid},{parent},{index},{t0!r},{t1!r}]\n")
