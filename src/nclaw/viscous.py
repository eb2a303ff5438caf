"""IMEX solver for the viscous problem u_t + (u V)_x = nu * u_xx.

With a kernel present the advective velocity is V = u * eta_eps (viscous
nonlocal problem); with kernel=None it is V = u itself, the flux u^2 (the
viscous local problem). First-order splitting: an explicit conservative
advection substep with the local Lax-Friedrichs (Rusanov) flux followed by
an implicit backward-Euler diffusion solve with zero-Dirichlet boundaries
(valid while the support stays interior; the domain-size check enforces the
margin). The Rusanov dissipation is set by the local wave speed, not by
dx^2/dt as in classic LF, so the scheme's own viscosity does not grow as dt
shrinks and the distances the experiments measure converge in dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .grids import Field, Grid1D, lp_norm, support_bounds
from .kernels import Kernel, convolve
from .local_entropy import CFLError, _check_boundary_clear, _lf_update
from .records import RunResult, field_diagnostics, march, output_times

__all__ = [
    "NonFiniteState",
    "ViscousRunConfig",
    "imex_step",
    "diffusion_substep",
    "run_viscous",
]


class NonFiniteState(RuntimeError):
    """The advected IMEX state holds NaN or inf: the run blew up."""


@lru_cache(maxsize=None)
def _lapack() -> tuple:
    """SciPy's ``dpttrf``, ``dpttrs`` and ``LinAlgError``, imported once per process.

    Only the viscous solver needs SciPy, so importing nclaw does not load
    it. Each ``ViscousRunConfig`` loads it, so that a process which builds
    its runs before forking workers (``experiments._pool``) hands it to them
    already imported.
    """
    from scipy.linalg import LinAlgError
    from scipy.linalg.lapack import dpttrf, dpttrs

    return dpttrf, dpttrs, LinAlgError


_CFL = 0.9  # Courant number of the advection substep (Rusanov is monotone up to 1)


@dataclass
class ViscousRunConfig:
    """Configuration for a viscous run; kernel=None selects the local problem.

    Adaptive runs step at Courant number 0.9; a fixed ``dt`` must stay within it.
    """

    grid: Grid1D
    nu: float
    t_end: float
    kernel: Optional[Kernel] = None
    dt: Optional[float] = None  # fixed step override (paired experiment runs)
    n_outputs: int = 40

    def __post_init__(self):
        if not self.nu > 0.0:
            raise ValueError(f"nu={self.nu} must be positive")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        _lapack()  # now, before the runs are pooled: see _lapack


def _advective_velocity(f: Field, cfg: ViscousRunConfig) -> np.ndarray:
    if cfg.kernel is not None:
        return convolve(f, cfg.kernel).values
    return f.values


def _cell_speeds(cfg: ViscousRunConfig, V: np.ndarray) -> np.ndarray:
    """Per-cell wave speeds s_i: the CFL speed is their max, and the Rusanov
    flux takes max(s_i, s_i+1) at each interface.

    With a kernel s_i = |V_i|; for the local problem V = u and s_i is the
    Burgers speed 2|u_i|.
    """
    if cfg.kernel is None:
        return 2.0 * np.abs(V)
    return np.abs(V)


@lru_cache(maxsize=1)
def _backward_euler_factors(n: int, r: float) -> tuple:
    """LAPACK LDL^T factors (dpttrf) of I - r*D2 on n cells, zero-Dirichlet.

    The matrix is symmetric positive definite for r >= 0, so the factors
    need no pivoting and the solve performs the operations of ``ptsv``
    (``solveh_banded``). One entry suffices: a run holds one grid and
    mostly one step size.
    """
    dpttrf, _, LinAlgError = _lapack()
    *factors, info = dpttrf(np.full(n, 1.0 + 2.0 * r), np.full(n - 1, -r))
    if info > 0:
        raise LinAlgError("matrix not positive definite")
    return tuple(factors)


def diffusion_substep(u: np.ndarray, nu: float, dt: float, dx: float) -> np.ndarray:
    """Backward-Euler solve of (I - nu*dt*D2) out = u with zero-Dirichlet walls.

    The matrix is a tridiagonal M-matrix, so the substep obeys the maximum
    principle min(u, 0) <= out <= max(u, 0) and is unconditionally stable.
    Its LDL^T factors are kept for the last cell count and nu*dt/dx^2, so
    while the step size repeats each call only back-substitutes.
    """
    r = nu * dt / (dx * dx)
    if not (math.isfinite(r) and np.isfinite(u).all()):
        raise ValueError("diffusion substep: non-finite matrix or right-hand side")
    _, dpttrs, _ = _lapack()
    out, info = dpttrs(*_backward_euler_factors(u.size, r), u)
    if info < 0:
        raise ValueError(f"dpttrs: illegal value in argument {-info}")
    return out


def imex_step(
    f: Field, cfg: ViscousRunConfig, dt: float, velocity: Optional[np.ndarray] = None
) -> Field:
    """Advection (explicit local LF) then diffusion (implicit), first order in dt.

    The advection substep uses the Rusanov flux: its dissipation at an
    interface is half the larger wave speed of the two cells
    (``_cell_speeds``), so it is monotone up to CFL 1. The CFL restriction
    dt * max ``_cell_speeds`` <= 0.9 * dx applies to the advection substep
    only; diffusion is unconditionally stable. ``velocity`` lets drivers
    reuse an already computed advective velocity of ``f``; the wave speeds
    are taken once and serve both the CFL guard and the dissipation. A non-finite
    advected state raises ``NonFiniteState``; the diffusion substep's own
    finite check detects it.
    """
    dx = f.grid.dx
    V = _advective_velocity(f, cfg) if velocity is None else velocity
    s = _cell_speeds(cfg, V)
    speed = float(np.max(s))
    if speed > 1e-14 and dt > _CFL * dx / speed:
        raise CFLError(dt, _CFL * dx / speed)
    star = _lf_update(f.values, V, dx, dt, s)
    try:
        u = diffusion_substep(star, cfg.nu, dt, dx)
    except ValueError as exc:
        if np.isfinite(star).all():
            raise
        raise NonFiniteState(
            f"non-finite advected state at t={f.time_stamp:.6g}"
        ) from exc
    return Field(f.grid, u, f.time_stamp + dt)


def _check_domain(cfg: ViscousRunConfig, initial: Field):
    if float(np.max(np.abs(initial.values))) == 0.0:
        return
    lo, hi = support_bounds(initial, rel_tol=1e-8)
    margin = 4.0 * math.sqrt(cfg.nu * cfg.t_end) + (
        cfg.kernel.epsilon if cfg.kernel is not None else 0.0
    )
    if lo - margin < cfg.grid.x_min or hi + margin > cfg.grid.x_max:
        raise ValueError(
            "domain too small: needs support plus a margin of "
            f"{margin:.3f} on each side"
        )


def run_viscous(cfg: ViscousRunConfig, initial: Field) -> RunResult:
    """March the IMEX scheme to t_end, logging norm monotonicity channels.

    Besides the standard diagnostics, the series carries l1_norm and
    sup_norm so the contraction properties of the flow are visible per run.
    If cfg.dt is set it is used as a fixed step (after a CFL sanity check
    each step); otherwise the step is 0.9 * dx / max ``_cell_speeds``, and
    the velocity that sets it is passed on to ``imex_step``. The datum must
    live on ``cfg.grid``, whose bounds the domain check reads.
    """
    if initial.grid != cfg.grid:
        raise ValueError(f"the datum's grid {initial.grid} is not the run's grid {cfg.grid}")
    _check_domain(cfg, initial)

    def advance(u, target):
        if cfg.dt is not None:
            return imex_step(u, cfg, min(cfg.dt, target - u.time_stamp))
        V = _advective_velocity(u, cfg)
        speed = float(np.max(_cell_speeds(cfg, V)))
        if speed > 1e-14:
            dt = min(_CFL * u.grid.dx / speed, target - u.time_stamp)
        else:
            dt = target - u.time_stamp
        return imex_step(u, cfg, dt, velocity=V)

    def diagnostics(u):
        vals = field_diagnostics(u)
        vals["l1_norm"] = lp_norm(u, 1)
        vals["sup_norm"] = lp_norm(u, math.inf)
        return vals

    # diffusion tails are never exactly zero; 1e-6 relative keeps the
    # Dirichlet clipping error far below every experiment tolerance
    res = march(
        initial,
        output_times(cfg.t_end, cfg.n_outputs),
        advance,
        diagnostics,
        lambda u: _check_boundary_clear(u, 1e-6),
    )
    res.info["scheme"] = "imex"
    return res
