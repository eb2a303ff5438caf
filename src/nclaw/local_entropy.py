"""Godunov solver for the local conservation law u_t + (u^2)_x = 0, plus
the closed-form entropy solutions used as oracles.

The lab fixes b(u) = u, so the local flux u^2 is convex with its sonic
point at u = 0, and the Godunov flux is the exact Riemann flux. This
module also holds what all three finite-volume solvers share:
``NumericalFailure``, the class of every error that says a run failed
numerically, ``CFLError``, ``_check_boundary_clear`` and ``_lf_update``, the
one Lax-Friedrichs update (classic LF in ``lf_step``, Rusanov in the IMEX
advection substep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Field, Grid1D
from .records import RunResult, field_diagnostics, march, output_times

__all__ = [
    "NumericalFailure",
    "CFLError",
    "SupportReachedBoundary",
    "godunov_step",
    "run_local",
    "ExactSolution",
    "exact_eval",
    "sample_exact",
    "sample_oracle",
    "baricenter_lower_bound",
]


class NumericalFailure(RuntimeError):
    """A run failed numerically: the ``lab`` exit code 4, not a usage error.

    ``run`` names the pooled call that failed, as ``experiments._pool`` sets
    it, and leads the message.
    """

    run = ""

    def __str__(self):
        return f"{self.run}: {super().__str__()}" if self.run else super().__str__()


class CFLError(NumericalFailure):
    """Raised when a requested time step exceeds the CFL-admissible one."""

    def __init__(self, dt: float, dt_admissible: float):
        super().__init__(
            f"CFL violation: dt={dt:.3e} exceeds admissible dt={dt_admissible:.3e}"
        )
        self.dt = dt
        self.dt_admissible = dt_admissible

    def __reduce__(self):
        # rebuild from both arguments and restore the attributes (``run`` too),
        # so the error survives a pipe to a parent process
        return type(self), (self.dt, self.dt_admissible), self.__dict__


class SupportReachedBoundary(NumericalFailure):
    """The solution reached an edge cell of its grid: the walls would clip it."""


def _check_boundary_clear(f: Field, rel_tol: float):
    """Raise ``SupportReachedBoundary`` if either edge cell holds more than
    rel_tol of the sup norm."""
    scale = float(np.max(np.abs(f.values)))
    if scale > 0.0 and (
        abs(f.values[0]) > rel_tol * scale or abs(f.values[-1]) > rel_tol * scale
    ):
        raise SupportReachedBoundary("domain too small: support reached the boundary")


def _lf_update(u: np.ndarray, V: np.ndarray, dx: float, dt: float, speed) -> np.ndarray:
    # conservative update with the interface flux of u*V
    #     F_{i+1/2} = (u_i V_i + u_{i+1} V_{i+1})/2 - (a_{i+1/2}/2) (u_{i+1} - u_i)
    # and zero states outside the domain; the one LF update of lf_step and
    # the IMEX advection substep. A scalar ``speed`` is a at every interface:
    # classic LF with a = dx/dt (lf_step). An array holds per-cell wave
    # speeds s_i, and a_{i+1/2} = max(s_i, s_{i+1}), the edge cell's s at the
    # walls: local LF, i.e. Rusanov (IMEX). Every flux entry is computed with
    # the same operations in the same order as the zero-padded formula, so
    # lf_step's bytes do not depend on the buffer layout.
    uv = u * V
    F = np.empty(u.size + 1)
    np.add(uv[:-1], uv[1:], out=F[1:-1])
    F[0] = 0.0 + uv[0]
    F[-1] = uv[-1] + 0.0
    F *= 0.5
    jump = np.empty(u.size + 1)
    np.subtract(u[1:], u[:-1], out=jump[1:-1])
    jump[0] = u[0] - 0.0
    jump[-1] = 0.0 - u[-1]
    if np.ndim(speed) == 0:
        jump *= 0.5 * speed
    else:
        a = np.empty(u.size + 1)
        np.maximum(speed[:-1], speed[1:], out=a[1:-1])
        a[0] = speed[0]
        a[-1] = speed[-1]
        a *= 0.5
        jump *= a
    F -= jump
    return u - (dt / dx) * (F[1:] - F[:-1])


def _burgers_godunov_flux(ul: np.ndarray, ur: np.ndarray) -> np.ndarray:
    # exact Riemann flux for f(u) = u^2, convex with its sonic point at 0:
    # min of f over [ul, ur] when ul <= ur, max over [ur, ul] otherwise, in
    # one closed form F = max(max(ul, 0)^2, min(ur, 0)^2)
    fl = np.maximum(ul, 0.0)
    fl *= fl
    fr = np.minimum(ur, 0.0)
    fr *= fr
    return np.maximum(fl, fr, out=fl)


_GODUNOV_CFL = 0.9  # Courant number of run_local's step
_GODUNOV_CFL_GUARD = 1.05 * _GODUNOV_CFL  # godunov_step's, with a margin for rounding


def godunov_step(f: Field, dt: float) -> Field:
    """One conservative step of the local solver with the exact Godunov flux.

    Raises CFLError when dt * max|f'(u)| / dx > 0.945, with f'(u) = 2u.
    """
    u = f.values
    dx = f.grid.dx
    speed = float(np.max(2.0 * np.abs(u)))
    if speed > 0.0 and dt > _GODUNOV_CFL_GUARD * dx / speed:
        raise CFLError(dt, _GODUNOV_CFL_GUARD * dx / speed)
    padded = np.zeros(u.size + 2)  # zero states outside the domain
    padded[1:-1] = u
    F = _burgers_godunov_flux(padded[:-1], padded[1:])
    out = u - (dt / dx) * (F[1:] - F[:-1])
    return Field(f.grid, out, f.time_stamp + dt)


def run_local(
    initial: Field,
    t_end: float,
    *,
    window=None,
    n_outputs: int = 50,
) -> RunResult:
    """March the Godunov solver to t_end, recording diagnostics at t = 0 and
    at the ``output_times``, as every driver does.

    ``window`` (a, b) feeds the ``window_mass`` channel (the whole domain if
    None). The step is the largest uniform one at Courant number at most 0.9
    for the initial datum's Burgers speed max 2|u| that divides each output
    interval: the scheme is monotone, so every later state stays inside
    [min u, max u] and the step admissible. The edge cells must stay clear.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    targets = output_times(t_end, n_outputs)
    h = t_end / targets.size
    speed = float(np.max(2.0 * np.abs(initial.values)))
    dt_cfl = _GODUNOV_CFL * initial.grid.dx / max(speed, 1e-12)
    dt = h / math.ceil(h / dt_cfl)
    res = march(
        initial,
        targets,
        # the min only absorbs the rounding of the summed time stamps
        lambda u, target: godunov_step(u, min(dt, target - u.time_stamp)),
        lambda u: field_diagnostics(u, window),
        lambda u: _check_boundary_clear(u, 1e-12),
    )
    res.info["scheme"] = "godunov"
    return res


# ---------------------------------------------------------------------------
# closed-form entropy solutions


VARIANTS = ("step", "odd")


@dataclass(frozen=True)
class ExactSolution:
    """Entropy solution formulas for the two catalogued initial data.

    variant "step": indicator of (-1,0); a rarefaction fan from x=-1 and a
    plateau running into x=t, valid for t in [0,1].
    variant "odd": +1 on (-1,0), -1 on (0,1) (zero completion outside); two
    fans, a standing shock at 0, valid for t in [0, 1/4] only - evaluation
    outside validity raises, never extrapolates.
    """

    variant: str

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown exact solution variant {self.variant!r}")

    @property
    def validity(self) -> tuple[float, float]:
        return (0.0, 1.0) if self.variant == "step" else (0.0, 0.25)


def exact_eval(sol: ExactSolution, t: float, x):
    """Evaluate the exact entropy solution at time t and position(s) x."""
    lo, hi = sol.validity
    if not (lo <= t <= hi):
        raise ValueError(
            f"t={t} outside validity [{lo}, {hi}] of variant {sol.variant!r}"
        )
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if t == 0.0:
        if sol.variant == "step":
            out = np.where((xa > -1.0) & (xa < 0.0), 1.0, 0.0)
        else:
            out = np.where(
                (xa > -1.0) & (xa < 0.0),
                1.0,
                np.where((xa > 0.0) & (xa < 1.0), -1.0, 0.0),
            )
    elif sol.variant == "step":
        ramp = (xa + 1.0) / (2.0 * t)
        out = np.where(
            (xa <= -1.0) | (xa >= t),
            0.0,
            np.where(xa <= 2.0 * t - 1.0, ramp, 1.0),
        )
    else:
        ramp_l = (xa + 1.0) / (2.0 * t)
        ramp_r = (xa - 1.0) / (2.0 * t)
        out = np.zeros_like(xa)
        out = np.where((xa > -1.0) & (xa < -1.0 + 2.0 * t), ramp_l, out)
        out = np.where((xa >= -1.0 + 2.0 * t) & (xa < 0.0), 1.0, out)
        out = np.where((xa > 0.0) & (xa <= 1.0 - 2.0 * t), -1.0, out)
        out = np.where((xa > 1.0 - 2.0 * t) & (xa < 1.0), ramp_r, out)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out


def sample_exact(sol: ExactSolution, t: float, grid: Grid1D) -> Field:
    """Midpoint-sampled exact solution as a Field (second-order accurate)."""
    return Field(grid, np.asarray(exact_eval(sol, t, grid.centers), dtype=float), t)


def sample_oracle(
    variant: str = "step",
    t: float = 0.5,
    x_min: float = -4.0,
    x_max: float = 4.0,
    n_cells: int = 2048,
) -> Field:
    """Sample a closed-form entropy solution on a uniform grid.

    ``sample_exact`` of ``ExactSolution(variant)`` at time t on n_cells
    cells of [x_min, x_max]; the ``lab oracle`` command writes it to CSV.
    """
    return sample_exact(ExactSolution(variant), t, Grid1D(x_min, x_max, n_cells))


def baricenter_lower_bound(
    mass: float, initial_moment: float, t: float, a: float, b: float
) -> dict:
    """Lower bounds a confined nonnegative solution's first moment must obey.

    Two forms are reported: "plain" = mass^2 * t + initial_moment, and
    "jensen" = mass^2 * t / (b - a) + initial_moment, the form the Jensen
    inequality in the derivation actually produces. Callers flag which one
    each check uses.
    """
    return {
        "plain": mass * mass * t + initial_moment,
        "jensen": mass * mass * t / (b - a) + initial_moment,
    }
