"""Two solvers for the inviscid nonlocal problem u_t + (u (u*eta_eps))_x = 0.

* A Lax-Friedrichs finite-volume scheme. Its numerical viscosity is a
  feature here: it reproduces the behavior of dissipative schemes, which can
  mask the structural properties of the nonlocal flow at coarse resolution.
* A Lagrangian particle solver that advects point masses along the
  characteristics dX/dt = (u * eta_eps)(X), with the convolution of the
  atomic measure evaluated exactly. This is the structure-preserving
  instrument: masses are never modified, symmetry and one-sided dependence
  hold discretely, and no mass can cross a stagnation point.

Experiments must state which solver produced each number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import Field, Grid1D, entropy_functional
from .kernels import Kernel, convolve, convolve_particles_slope
from .kernels import convolve_particles as _convolve_atoms
from .local_entropy import CFLError, _lf_update
from .records import RunResult, field_diagnostics, march, output_times

__all__ = [
    "CharacteristicsCrossed",
    "ParticleEnsemble",
    "NonlocalRunConfig",
    "lf_step",
    "particle_step",
    "particle_velocity_and_bound",
    "lagrangian_entropy",
    "deposit",
    "sample_particles",
    "ensemble_diagnostics",
    "run_nonlocal",
]


@dataclass
class ParticleEnsemble:
    """Point masses at strictly increasing positions.

    Masses are immutable for the lifetime of a run (transport only moves
    positions), which makes total mass conservation bit-exact.
    """

    positions: np.ndarray
    masses: np.ndarray
    time_stamp: float = 0.0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if self.positions.shape != self.masses.shape or self.positions.ndim != 1:
            raise ValueError("positions and masses must be equal-length 1d arrays")
        if not (
            np.all(np.isfinite(self.positions)) and np.all(np.isfinite(self.masses))
        ):
            raise ValueError("non-finite particle data")
        if np.any(np.diff(self.positions) <= 0.0):
            raise ValueError("particle positions must be strictly increasing")

    @property
    def n(self) -> int:
        return self.positions.size

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def copy(self) -> "ParticleEnsemble":
        return ParticleEnsemble(
            self.positions.copy(), self.masses.copy(), self.time_stamp
        )


def sample_particles(initial: Field) -> ParticleEnsemble:
    """Midpoint sampling: one particle per cell with m = u_i * dx.

    Cells with m == 0 carry no particle.
    """
    m = initial.values * initial.grid.dx
    keep = m != 0.0
    if not np.any(keep):
        raise ValueError("initial datum has no mass to sample")
    return ParticleEnsemble(initial.grid.centers[keep], m[keep], initial.time_stamp)


def deposit(e: ParticleEnsemble, g: Grid1D) -> Field:
    """Area-weighted (linear) deposition of the particle masses onto a grid.

    Each mass is split between the two cells whose centers bracket it, then
    divided by dx; total mass is preserved. Particles in the outermost
    half-cells go fully into the edge cell; particles outside the grid are
    an error.
    """
    if np.any(e.positions < g.x_min) or np.any(e.positions > g.x_max):
        raise ValueError("particle outside grid")
    x0 = g.x_min + 0.5 * g.dx
    p = np.clip((e.positions - x0) / g.dx, 0.0, g.n_cells - 1.0)
    i = np.minimum(p.astype(int), g.n_cells - 2)
    frac = p - i
    acc = np.zeros(g.n_cells)
    np.add.at(acc, i, e.masses * (1.0 - frac))
    np.add.at(acc, i + 1, e.masses * frac)
    return Field(g, acc / g.dx, e.time_stamp)


# ---------------------------------------------------------------------------
# Lax-Friedrichs finite-volume step


def lf_step(
    f: Field,
    k: Kernel,
    dt: float,
    cfl: float = 1.0,
    velocity: Optional[np.ndarray] = None,
) -> Field:
    """One Lax-Friedrichs step with the convolved velocity V = u * eta_eps.

    Conservative update with interface flux
        F_{i+1/2} = (u_i V_i + u_{i+1} V_{i+1})/2 - (dx/2dt) (u_{i+1} - u_i),
    zero states outside the domain. The second term is the numerical
    viscosity (coefficient dx^2/2dt). ``velocity`` lets drivers reuse an
    already computed V.
    """
    dx = f.grid.dx
    V = convolve(f, k).values if velocity is None else velocity
    vmax = float(np.max(np.abs(V))) if V.size else 0.0
    dt_adm = cfl * dx / max(vmax, 1e-14)
    if dt > dt_adm:
        raise CFLError(dt, dt_adm)
    return Field(f.grid, _lf_update(f.values, V, dx, dt, dx / dt), f.time_stamp + dt)


# ---------------------------------------------------------------------------
# particle step


class CharacteristicsCrossed(RuntimeError):
    """A particle step broke the strict ordering of the positions."""


def particle_velocity_and_bound(e: ParticleEnsemble, k: Kernel):
    """Velocity at the current positions and the local contraction bound on dt.

    The bound is dt * max_i sum_j |m_j| |eta_eps'(X_i - X_j)| < 1/2: the
    Lipschitz constant of the particle velocity field measured at the
    current positions, so the bound follows the state. Being sampled at the
    particles only, it does not certify ordering by itself:
    ``particle_step`` still checks every stage, and ``run_nonlocal`` rejects
    and halves a step that crosses. Both values come from one pass over the
    particle pairs.
    """
    conv, slope = convolve_particles_slope(e.positions, e.masses, k, e.positions)
    lam = float(np.max(slope)) if e.n else 0.0
    return conv, 0.5 / max(lam, 1e-14)


def _stage_velocity(Y: np.ndarray, m: np.ndarray, k: Kernel):
    if np.any(np.diff(Y) <= 0.0):
        raise CharacteristicsCrossed("characteristics crossed: dt too large")
    return _convolve_atoms(Y, m, k, Y)


def particle_step(
    e: ParticleEnsemble,
    k: Kernel,
    dt: float,
    stage1: Optional[tuple] = None,
) -> ParticleEnsemble:
    """One RK4 step of the coupled characteristics system
    dX_j/dt = sum_i m_i eta_eps(X_j - X_i).

    Each stage evaluates the velocity field induced by the stage positions
    themselves (masses fixed), i.e. classical RK4 for the self-consistent
    particle ODE. Masses are unchanged. ``dt`` must lie below the local
    contraction bound of ``particle_velocity_and_bound`` (ValueError
    otherwise). Raises ``CharacteristicsCrossed`` (a RuntimeError) if
    positions stop being strictly increasing at any stage or in the result;
    the caller may retry with a smaller dt. ``stage1`` lets drivers pass the
    pair returned by ``particle_velocity_and_bound`` for the current
    positions.
    """
    v1, bound = particle_velocity_and_bound(e, k) if stage1 is None else stage1
    if dt >= bound:
        raise ValueError(
            f"dt={dt:.3e} violates the contraction safeguard (needs < {bound:.3e})"
        )
    X, m = e.positions, e.masses
    k2 = _stage_velocity(X + 0.5 * dt * v1, m, k)
    k3 = _stage_velocity(X + 0.5 * dt * k2, m, k)
    k4 = _stage_velocity(X + dt * k3, m, k)
    Xn = X + (dt / 6.0) * (v1 + 2.0 * k2 + 2.0 * k3 + k4)
    if np.any(np.diff(Xn) <= 0.0):
        raise CharacteristicsCrossed("characteristics crossed: dt too large")
    return ParticleEnsemble(Xn, e.masses, e.time_stamp + dt)


def lagrangian_entropy(e: ParticleEnsemble) -> float:
    """Entropy of the ensemble from the gap density m_j / gap_j.

    The density at each particle is its mass over the half-gap to its
    neighbors, the natural Lagrangian estimator: it resolves compressed
    fronts without a deposition grid and is exactly 0 for a uniform
    sampling of an indicator datum.
    """
    X, m = e.positions, e.masses
    if np.any(m < 0.0):
        return math.nan
    if X.size < 2:
        return math.nan
    g = np.empty_like(X)
    g[1:-1] = 0.5 * (X[2:] - X[:-2])
    g[0] = X[1] - X[0]
    g[-1] = X[-1] - X[-2]
    keep = m > 0.0
    return float(np.sum(m[keep] * np.log(m[keep] / g[keep])))


def ensemble_diagnostics(
    e: ParticleEnsemble, windows=(), entropy_grid: Optional[Grid1D] = None
) -> dict:
    """Scalar functionals evaluated directly on the particle measure.

    Mass, window masses, first moment and support need no density and are
    exact for the atomic measure (window edges are honored exactly, no cell
    snapping). Entropy needs a density, so it is computed from a linear
    deposition onto entropy_grid (bias O(dx/eps)); NaN for signed ensembles
    or when no grid is supplied.
    """
    out = {"mass": e.total_mass()}
    if windows:
        for i, (a, b) in enumerate(windows):
            name = "window_mass" if i == 0 else f"window_mass_{i + 1}"
            inside = (e.positions >= a) & (e.positions <= b)
            out[name] = float(e.masses[inside].sum())
    else:
        out["window_mass"] = out["mass"]
    if entropy_grid is not None and not np.any(e.masses < 0.0):
        out["entropy"] = entropy_functional(deposit(e, entropy_grid))
    else:
        out["entropy"] = math.nan
    out["entropy_lagrangian"] = lagrangian_entropy(e)
    out["baricenter"] = float(np.sum(e.masses * e.positions))
    out["support_lo"] = float(e.positions.min())
    out["support_hi"] = float(e.positions.max())
    return out


# ---------------------------------------------------------------------------
# run driver


_LF_CFL = 0.45  # Courant number of the Lax-Friedrichs runs
_ENTROPY_DX_OVER_EPS = 0.1  # particle entropy: deposition grid spacing / eps
SCHEMES = ("particles", "lax_friedrichs")


@dataclass
class NonlocalRunConfig:
    """Configuration for an inviscid nonlocal run; ``run_nonlocal`` fixes the
    step rules and the spacing 0.1 * eps of the particle entropy's grid."""

    grid: Grid1D
    kernel: Kernel
    t_end: float
    scheme: str = "particles"  # one of SCHEMES
    n_outputs: int = 40
    windows: tuple = ()

    def __post_init__(self):
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")


def _check_boundary_clear(f: Field, rel_tol: float):
    """Raise if either edge cell holds more than rel_tol of the sup norm."""
    scale = float(np.max(np.abs(f.values)))
    if scale > 0.0 and (
        abs(f.values[0]) > rel_tol * scale or abs(f.values[-1]) > rel_tol * scale
    ):
        raise RuntimeError("domain too small: support reached the boundary")


def run_nonlocal(cfg: NonlocalRunConfig, initial: Field) -> RunResult:
    """Time-step the nonlocal problem to t_end and record diagnostics.

    For the particle scheme the datum is midpoint-sampled (one particle per
    cell, zero-mass cells dropped) and each step takes the smallest of the
    0.1*eps/max-speed resolution rule, 0.9 times the local contraction bound
    of ``particle_velocity_and_bound`` (recomputed from the current positions
    every step) and the time left to the next output. A step whose stages or
    result cross is rejected and retried with half the dt; the count is
    returned in ``info["n_rejected"]``. For the FV scheme the step is
    0.45 * dx / max|V|, capped by the time left to the next output. States
    and diagnostics are recorded at n_outputs evenly spaced output times
    (plus t=0).
    """
    if cfg.scheme == "lax_friedrichs":
        return _run_lf(cfg, initial)
    return _run_particles(cfg, initial)


def _run_lf(cfg: NonlocalRunConfig, initial: Field) -> RunResult:
    def advance(u, target):
        V = convolve(u, cfg.kernel).values
        vmax = max(float(np.max(np.abs(V))), 1e-12)
        dt = min(_LF_CFL * u.grid.dx / vmax, target - u.time_stamp)
        return lf_step(u, cfg.kernel, dt, cfl=_LF_CFL, velocity=V)

    res = march(
        initial,
        output_times(cfg.t_end, cfg.n_outputs),
        advance,
        lambda u: field_diagnostics(u, cfg.windows),
        lambda u: _check_boundary_clear(u, 1e-12),
    )
    res.info["scheme"] = "lax_friedrichs"
    return res


_MAX_HALVINGS = 30  # a crossing that survives dt / 2**30 is not a step-size issue


def _run_particles(cfg: NonlocalRunConfig, initial: Field) -> RunResult:
    e = sample_particles(initial)
    eps = cfg.kernel.epsilon
    span = cfg.grid.x_max - cfg.grid.x_min
    ent_grid = Grid1D(
        cfg.grid.x_min,
        cfg.grid.x_max,
        max(2, int(round(span / (_ENTROPY_DX_OVER_EPS * eps)))),
    )
    # sign partition at t=0 (odd-type data): positive mass left of 0,
    # negative right; preserved because characteristics cannot cross
    partition_ok = bool(
        np.any(e.masses < 0.0)
        and np.all(e.positions[e.masses > 0] < 0.0)
        and np.all(e.positions[e.masses < 0] > 0.0)
    )
    n_rejected = 0

    def advance(e, target):
        nonlocal n_rejected
        v1, bound = particle_velocity_and_bound(e, cfg.kernel)
        vmax = max(float(np.max(np.abs(v1))), 1e-12)
        dt = min(0.9 * bound, 0.1 * eps / vmax, target - e.time_stamp)
        for _ in range(_MAX_HALVINGS):
            try:
                return particle_step(e, cfg.kernel, dt, stage1=(v1, bound))
            except CharacteristicsCrossed:
                n_rejected += 1
                dt *= 0.5
        raise CharacteristicsCrossed(
            f"characteristics crossed after {_MAX_HALVINGS} halvings "
            f"of the step at t={e.time_stamp:.6g}"
        )

    def check(e):
        if np.any(e.positions[e.masses > 0] >= 0.0) or np.any(
            e.positions[e.masses < 0] <= 0.0
        ):
            raise RuntimeError("sign partition violated: mass crossed 0")

    mass0 = e.masses.copy()
    res = march(
        e,
        output_times(cfg.t_end, cfg.n_outputs),
        advance,
        lambda e: ensemble_diagnostics(e, cfg.windows, ent_grid),
        check if partition_ok else None,
    )
    assert np.array_equal(res.final.masses, mass0)  # transport never edits masses
    res.info.update(
        scheme="particles",
        n_rejected=n_rejected,
        n_particles=e.n,
        entropy_grid_dx=ent_grid.dx,
        entropy_bias_order=_ENTROPY_DX_OVER_EPS,
    )
    return res
