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

``run_viscous`` is called like ``run_nonlocal``, on the datum's grid. The
diffusion solve factors and solves with LAPACK's ``dpttrf``/``dpttrs`` in
the OpenBLAS that NumPy's wheels bundle, through ctypes, and with SciPy's
(the ``lapack`` extra) where that library is not found (``_lapack``); the
two give the same bits on the same OpenBLAS, and the run's manifest names
the one used (``lapack``).
"""

from __future__ import annotations

import ctypes
import importlib.util
import math
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from .grids import Field, lp_norm, support_bounds
from .kernels import Kernel, convolve
from .local_entropy import CFLError, NumericalFailure, _check_boundary_clear, _lf_update
from .records import RunResult, _numpy_openblas, field_diagnostics, march, output_times

__all__ = [
    "NonFiniteState",
    "imex_step",
    "diffusion_substep",
    "run_viscous",
]


class NonFiniteState(NumericalFailure):
    """The advected IMEX state holds NaN or inf: the run blew up."""


def _scipy_factor(d, e):
    """``factor`` (``_lapack``) on SciPy's ``dpttrf`` and ``dpttrs``,
    imported at the first call; ``_check_domain`` refuses a run without them."""
    from scipy.linalg.lapack import dpttrf, dpttrs

    d, e, info = dpttrf(d, e)
    return info, lambda b: dpttrs(d, e, b)


@lru_cache(maxsize=None)
def _lapack():
    """``factor(d, e) -> (info, solve)`` of the diffusion solve, chosen once
    per process: ``solve(b) -> (x, info)`` solves with the factors.

    It calls ``dpttrf``/``dpttrs`` in the OpenBLAS that NumPy's wheels
    bundle (``records._numpy_openblas``), so the lab never loads SciPy for
    them. LAPACK reads and writes through raw pointers, so only float64,
    C-order arrays of the checked size are passed: ``factor`` factors
    copies of ``d`` and ``e`` in place, and ``solve`` solves on a copy of
    ``b``. Where that library or its ILP64 routines are missing
    (Accelerate, conda, other BLAS builds), ``factor`` is ``_scipy_factor``.
    """
    found = _numpy_openblas("scipy_dpttrf_64_", "scipy_dpttrs_64_")
    if found is None:
        return _scipy_factor
    pttrf, pttrs = found
    i64, byref, void_p = ctypes.c_int64, ctypes.byref, ctypes.c_void_p
    pttrf.argtypes, pttrf.restype = [void_p] * 4, None
    pttrs.argtypes, pttrs.restype = [void_p] * 7, None
    one = byref(i64(1))

    def factor(d, e):
        d = np.array(d, dtype=np.float64, order="C")
        e = np.array(e, dtype=np.float64, order="C")
        if d.ndim != 1 or e.shape != (d.size - 1,):
            raise ValueError(f"pttrf: d {d.shape} and e {e.shape} are no tridiagonal")
        # a data_as pointer keeps its array alive: the solve holds both factors
        n, d_at, e_at = byref(i64(d.size)), d.ctypes.data_as(void_p), e.ctypes.data_as(void_p)
        info = i64()
        pttrf(n, d_at, e_at, byref(info))

        def solve(b):
            x = np.array(b, dtype=np.float64, order="C")  # the solve overwrites this copy
            if x.shape != d.shape:
                raise ValueError(f"pttrs: right-hand side {x.shape} for factors {d.shape}")
            # c_char.from_buffer: the address of x at a third of the cost of x.ctypes.data
            pttrs(n, one, d_at, e_at, ctypes.addressof(ctypes.c_char.from_buffer(x)), n,
                  byref(info))
            return x, info.value

        return info.value, solve

    return factor


_CFL = 0.9  # Courant number of the advection substep (Rusanov is monotone up to 1)


def _advective_velocity(f: Field, kernel: Optional[Kernel]) -> np.ndarray:
    if kernel is not None:
        return convolve(f, kernel).values
    return f.values


def _cell_speeds(kernel: Optional[Kernel], V: np.ndarray) -> np.ndarray:
    """Per-cell wave speeds s_i: the CFL speed is their max, and the Rusanov
    flux takes max(s_i, s_i+1) at each interface.

    With a kernel s_i = |V_i|; for the local problem V = u and s_i is the
    Burgers speed 2|u_i|.
    """
    if kernel is None:
        return 2.0 * np.abs(V)
    return np.abs(V)


@lru_cache(maxsize=1)
def _backward_euler_factors(n: int, r: float):
    """The solve with the LAPACK LDL^T factors (``pttrf``) of I - r*D2 on n
    cells, zero-Dirichlet: ``solve(b) -> (x, info)`` (``_lapack``).

    The matrix is symmetric positive definite for r >= 0, so the factors
    need no pivoting and the solve performs the operations of ``ptsv``
    (``solveh_banded``). This is the one cache of the factors, and one
    entry suffices: a run holds one grid and mostly one step size.
    """
    info, solve = _lapack()(np.full(n, 1.0 + 2.0 * r), np.full(n - 1, -r))
    if info > 0:
        raise LinAlgError("matrix not positive definite")
    return solve


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
    out, info = _backward_euler_factors(u.size, r)(u)
    if info < 0:
        raise ValueError(f"pttrs: illegal value in argument {-info}")
    return out


def imex_step(f: Field, kernel: Optional[Kernel], nu: float, dt: float,
              velocity: Optional[np.ndarray] = None) -> Field:
    """Advection (explicit local LF) then diffusion (implicit), first order in dt.

    The advection substep uses the Rusanov flux: its dissipation at an
    interface is half the larger wave speed of the two cells
    (``_cell_speeds``), so it is monotone up to CFL 1. The CFL restriction
    dt * max ``_cell_speeds`` <= 0.9 * dx applies to the advection substep
    only; diffusion is unconditionally stable. ``velocity`` lets drivers
    reuse an already computed advective velocity of ``f``; the wave speeds
    are taken once and serve both the CFL guard and the dissipation. A non-finite
    advected state raises ``NonFiniteState``; the diffusion substep's own
    finite check detects it. ``kernel=None`` selects the local problem.
    """
    dx = f.grid.dx
    V = _advective_velocity(f, kernel) if velocity is None else velocity
    s = _cell_speeds(kernel, V)
    speed = float(np.max(s))
    if speed > 1e-14 and dt > _CFL * dx / speed:
        raise CFLError(dt, _CFL * dx / speed)
    star = _lf_update(f.values, V, dx, dt, s)
    try:
        u = diffusion_substep(star, nu, dt, dx)
    except ValueError as exc:
        if np.isfinite(star).all():
            raise
        raise NonFiniteState(
            f"non-finite advected state at t={f.time_stamp:.6g}"
        ) from exc
    return Field(f.grid, u, f.time_stamp + dt)


def _check_domain(initial: Field, kernel: Optional[Kernel], nu: float, t_end: float):
    """Refuse a nu or t_end that is not positive, a datum whose support,
    widened by 4 sqrt(nu t_end) plus the kernel's reach, leaves its grid
    (the zero-Dirichlet walls would clip it), and a missing ``_scipy_factor``."""
    if _lapack() is _scipy_factor and importlib.util.find_spec("scipy") is None:
        raise ValueError("no LAPACK for the diffusion solve: install the extra nclaw[lapack]")
    if not nu > 0.0:
        raise ValueError(f"nu={nu} must be positive")
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    if float(np.max(np.abs(initial.values))) == 0.0:
        return
    lo, hi = support_bounds(initial, rel_tol=1e-8)
    margin = 4.0 * math.sqrt(nu * t_end) + (kernel.epsilon if kernel is not None else 0.0)
    if lo - margin < initial.grid.x_min or hi + margin > initial.grid.x_max:
        raise ValueError(
            "domain too small: needs support plus a margin of "
            f"{margin:.3f} on each side"
        )


def run_viscous(
    initial: Field,
    kernel: Optional[Kernel],
    t_end: float,
    *,
    nu: float,
    dt: Optional[float] = None,
    n_outputs: int = 40,
) -> RunResult:
    """March the IMEX scheme to t_end, logging norm monotonicity channels.

    ``kernel=None`` selects the local problem; the run's grid is the datum's
    grid. Besides the standard diagnostics, the series carries l1_norm and
    sup_norm so the contraction properties of the flow are visible per run.
    A set ``dt`` is used as a fixed step (after a CFL sanity check each
    step); otherwise the step is 0.9 * dx / max ``_cell_speeds``, and the
    velocity that sets it is passed on to ``imex_step``. States and
    diagnostics are recorded at n_outputs evenly spaced output times (plus
    t=0). Before any step ``_check_domain`` checks that nu and t_end are
    positive and that the datum's support keeps its margin from the walls.
    """
    _check_domain(initial, kernel, nu, t_end)

    def advance(u, target):
        if dt is not None:
            return imex_step(u, kernel, nu, min(dt, target - u.time_stamp))
        V = _advective_velocity(u, kernel)
        speed = float(np.max(_cell_speeds(kernel, V)))
        step = target - u.time_stamp
        if speed > 1e-14:
            step = min(_CFL * u.grid.dx / speed, step)
        return imex_step(u, kernel, nu, step, velocity=V)

    def diagnostics(u):
        vals = field_diagnostics(u)
        vals["l1_norm"] = lp_norm(u, 1)
        vals["sup_norm"] = lp_norm(u, math.inf)
        return vals

    # diffusion tails are never exactly zero; 1e-6 relative keeps the
    # Dirichlet clipping error far below every experiment tolerance
    res = march(
        initial,
        output_times(t_end, n_outputs),
        advance,
        diagnostics,
        lambda u: _check_boundary_clear(u, 1e-6),
    )
    res.info["scheme"] = "imex"
    return res
