"""Two solvers for the inviscid nonlocal problem u_t + (u (u*eta_eps))_x = 0.

* A Lax-Friedrichs finite-volume scheme. Its numerical viscosity is a
  feature here: it reproduces the behavior of dissipative schemes, which can
  mask the structural properties of the nonlocal flow at coarse resolution.
* A Lagrangian particle solver that advects point masses along the
  characteristics dX/dt = (u * eta_eps)(X), with the convolution of the
  atomic measure evaluated exactly, stepped in time by a third-order
  variable-step Adams predictor-corrector (AB3 predictor, two-step
  Adams-Moulton corrector, PECE) that reuses the velocities of the two
  previous steps, started by the SSP-RK3 scheme of Shu & Osher. This is the
  structure-preserving instrument: masses are never modified, symmetry and
  one-sided dependence hold discretely, and no mass can cross a stagnation
  point.

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
from .local_entropy import CFLError, NumericalFailure, _check_boundary_clear, _lf_update
from .records import RunResult, field_diagnostics, march, output_times

__all__ = [
    "CharacteristicsCrossed",
    "ParticlesLeftGrid",
    "SignPartitionViolated",
    "ParticleEnsemble",
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
    velocity: Optional[np.ndarray] = None,
) -> Field:
    """One Lax-Friedrichs step with the convolved velocity V = u * eta_eps.

    Conservative update with interface flux
        F_{i+1/2} = (u_i V_i + u_{i+1} V_{i+1})/2 - (dx/2dt) (u_{i+1} - u_i),
    zero states outside the domain. The second term is the numerical
    viscosity (coefficient dx^2/2dt). ``velocity`` lets drivers reuse an
    already computed V. Raises CFLError when dt * max|V| / dx > 0.45.
    """
    dx = f.grid.dx
    V = convolve(f, k).values if velocity is None else velocity
    vmax = float(np.max(np.abs(V))) if V.size else 0.0
    dt_adm = _LF_CFL * dx / max(vmax, 1e-14)
    if dt > dt_adm:
        raise CFLError(dt, dt_adm)
    return Field(f.grid, _lf_update(f.values, V, dx, dt, dx / dt), f.time_stamp + dt)


# ---------------------------------------------------------------------------
# particle step


class CharacteristicsCrossed(NumericalFailure):
    """A particle step broke the strict ordering of the positions."""


class ParticlesLeftGrid(NumericalFailure):
    """The particle support left the grid of the run's datum."""


class SignPartitionViolated(NumericalFailure):
    """Mass of an odd-type datum crossed the origin, which ordered
    characteristics forbid."""


def particle_velocity_and_bound(e: ParticleEnsemble, k: Kernel):
    """Velocity at the current positions and the local contraction bound on dt.

    The bound is dt * max_i sum_j |m_j| |eta_eps'(X_i - X_j)| < 1/2: the
    Lipschitz constant L of the particle velocity field measured at the
    current positions, so the bound follows the state. A forward-Euler step
    X + dt v(X) keeps the particles ordered while dt L < 1, since each gap
    shrinks by at most the factor 1 - dt L. Every stage of an SSP-RK3
    start-up step of ``particle_step`` is such a step and its result a
    convex combination of them, so the same bound serves that whole step;
    the factor 1/2 leaves room for L to be larger between the particles and
    at the moved stage positions than where it was sampled. The Adams steps
    weigh one velocity negatively and are no such combination, so for them
    the bound is a step rule, not an ordering argument. The bound alone
    certifies ordering for no step: ``particle_step`` checks every evaluated
    position and the result, and ``run_nonlocal`` rejects and halves a step
    that crosses. Both values come from one pass over the particle pairs.
    """
    conv, slope = convolve_particles_slope(e.positions, e.masses, k, e.positions)
    lam = float(np.max(slope)) if e.n else 0.0
    return conv, 0.5 / max(lam, 1e-14)


def _stage_velocity(Y: np.ndarray, m: np.ndarray, k: Kernel):
    if np.any(np.diff(Y) <= 0.0):
        raise CharacteristicsCrossed("characteristics crossed: dt too large")
    return _convolve_atoms(Y, m, k, Y)


def _adams_weights(dt: float, h1: float, h2: float) -> tuple:
    """The variable-step weights of one PECE step of size ``dt`` whose two
    previous steps had sizes ``h1`` (the latest) and ``h2``.

    Returns the AB3 predictor weights on (v_n, v_{n-1}, v_{n-2}) and the
    two-step Adams-Moulton corrector weights on (v_pred, v_n, v_{n-1}):
    each set integrates over the step the quadratic through its three
    velocities, int_0^dt p(s) ds = dt sum_i w_i v_i with s measured from
    the step's start (Hairer, Norsett & Wanner, Solving ODEs I, III.5). At
    a constant step they are (23, -16, 5)/12 and (5, 8, -1)/12.
    """

    def w(a, b, c):  # the weight of the node a, from its Lagrange polynomial
        return (dt * dt / 3.0 - 0.5 * (b + c) * dt + b * c) / ((a - b) * (a - c))

    def weights(a, b, c):
        return w(a, b, c), w(b, a, c), w(c, a, b)

    return weights(0.0, -h1, -h1 - h2), weights(dt, 0.0, -h1)


def particle_step(
    e: ParticleEnsemble,
    k: Kernel,
    dt: float,
    stage1: Optional[tuple] = None,
    history=(),
) -> ParticleEnsemble:
    """One step of the coupled characteristics system
    dX_j/dt = sum_i m_i eta_eps(X_j - X_i).

    With ``history`` holding the (velocity, dt) pairs of the two previous
    accepted steps, newest first, the step is a third-order variable-step
    Adams PECE step (``_adams_weights``):
        Xp = X + dt (p0 v(X) + p1 v_{n-1} + p2 v_{n-2})    (AB3 predictor)
        Xn = X + dt (c0 v(Xp) + c1 v(X) + c2 v_{n-1})      (AM2 corrector).
    It evaluates the velocity once, at Xp; the velocity at Xn is the next
    step's ``stage1``, which its bound needs anyway. With a shorter history
    the step is the start-up scheme, the SSP-RK3 scheme of Shu & Osher
    (J. Comput. Phys. 77, 1988)
        X1 = X + dt v(X)
        X2 = 3/4 X + 1/4 (X1 + dt v(X1))
        Xn = 1/3 X + 2/3 (X2 + dt v(X2)),
    evaluated as Xn = X + dt/6 (v(X) + v(X1) + 4 v(X2)) with
    X2 = X + dt/4 (v(X) + v(X1)); it evaluates the velocity twice. Both are
    in increment form, so a particle of zero velocity stays bit-exactly in
    place. Each evaluation uses the velocity field induced by the evaluated
    positions themselves (masses fixed). Masses are unchanged.

    The Adams weights include negative ones, so the PECE step is not SSP and
    the convex-combination argument of ``particle_velocity_and_bound`` does
    not cover it. On y' = z y its stability interval reaches z dt = -1.73
    (plain AB3: -0.545; SSP-RK3: -2.51), and its amplification roots stay
    within 1 + 2e-4 on the left half-disk |z dt| <= 0.9 that the
    contraction rule allows, by Gershgorin, for the particle velocity's
    Jacobian. Ordering rests on the checks: ``CharacteristicsCrossed`` (a
    ``NumericalFailure``) is raised if positions stop being strictly increasing at
    Xp, at any SSP-RK3 stage or in the result, and ``run_nonlocal`` halves
    and retries such a step from the start-up scheme. ``dt`` must lie below
    the local contraction bound of ``particle_velocity_and_bound``
    (ValueError otherwise). ``stage1`` lets drivers pass the pair returned
    by ``particle_velocity_and_bound`` for the current positions.
    """
    v0, bound = particle_velocity_and_bound(e, k) if stage1 is None else stage1
    if dt >= bound:
        raise ValueError(
            f"dt={dt:.3e} violates the contraction safeguard (needs < {bound:.3e})"
        )
    X, m = e.positions, e.masses
    if len(history) >= 2:
        (v1, h1), (v2, h2) = history[:2]
        (p0, p1, p2), (c0, c1, c2) = _adams_weights(dt, h1, h2)
        vp = _stage_velocity(X + dt * (p0 * v0 + p1 * v1 + p2 * v2), m, k)
        Xn = X + dt * (c0 * vp + c1 * v0 + c2 * v1)
    else:
        va = _stage_velocity(X + dt * v0, m, k)
        vb = _stage_velocity(X + (0.25 * dt) * (v0 + va), m, k)
        Xn = X + (dt / 6.0) * (v0 + va + 4.0 * vb)
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


def ensemble_diagnostics(e: ParticleEnsemble, entropy_grid: Grid1D, window=None) -> dict:
    """Scalar functionals evaluated directly on the particle measure.

    Mass, the mass in ``window`` (a, b) (the whole ensemble if None), first
    moment and support need no density and are exact for the atomic measure
    (window edges are honored exactly, no cell snapping). Entropy needs a
    density, so it is computed from a linear deposition onto entropy_grid
    (bias O(dx/eps)); NaN for signed ensembles.
    """
    out = {"mass": e.total_mass()}
    if window is None:
        out["window_mass"] = out["mass"]
    else:
        inside = (e.positions >= window[0]) & (e.positions <= window[1])
        out["window_mass"] = float(e.masses[inside].sum())
    if np.any(e.masses < 0.0):
        out["entropy"] = math.nan
    else:
        out["entropy"] = entropy_functional(deposit(e, entropy_grid))
    out["entropy_lagrangian"] = lagrangian_entropy(e)
    out["baricenter"] = float(np.sum(e.masses * e.positions))
    out["support_lo"] = float(e.positions.min())
    out["support_hi"] = float(e.positions.max())
    return out


# ---------------------------------------------------------------------------
# run driver


_LF_CFL = 0.45  # Courant number of the Lax-Friedrichs runs and lf_step's guard
_ENTROPY_DX_OVER_EPS = 0.1  # particle entropy: deposition grid spacing / eps
SCHEMES = ("particles", "lax_friedrichs")


def run_nonlocal(
    initial: Field,
    kernel: Kernel,
    t_end: float,
    *,
    scheme: str = "particles",
    n_outputs: int = 40,
    window=None,
) -> RunResult:
    """Time-step the nonlocal problem to t_end and record diagnostics.

    ``scheme`` is one of ``SCHEMES``; ``window`` (a, b) feeds the
    ``window_mass`` channel (the whole domain if None). For the particle
    scheme the datum is midpoint-sampled (one particle per cell, zero-mass
    cells dropped) and each step takes the smallest of the
    0.1*eps/max-speed resolution rule, 0.9 times the local contraction bound
    of ``particle_velocity_and_bound`` (recomputed from the current positions
    every step) and the time left to the next output. The first two steps
    are SSP-RK3 start-up steps, the later ones Adams PECE steps on the
    velocities of the two previous steps (``particle_step``). A step whose
    evaluated positions or result cross is rejected and retried with half
    the dt, and the velocity history is dropped, so two start-up steps
    follow; the count is returned in ``info["n_rejected"]``. ``info`` also
    holds how many accepted steps each rule set (``steps_by_rule``:
    ``contraction``, ``resolution``, ``output``; a halved step counts for
    the rule that proposed it) and how many were start-up steps
    (``n_startup``), besides the dt range ``march`` records. The particle
    entropy is deposited on a grid spanning ``initial.grid`` at spacing
    0.1*eps; at every output the support must lie inside ``initial.grid``
    (``ParticlesLeftGrid`` otherwise). For the FV scheme the step is
    0.45 * dx / max|V|, capped by the time left to the next output. States
    and diagnostics are recorded at n_outputs evenly spaced output times
    (plus t=0).
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    run = _run_lf if scheme == "lax_friedrichs" else _run_particles
    return run(initial, kernel, output_times(t_end, n_outputs), window)


def _run_lf(initial: Field, kernel: Kernel, targets, window) -> RunResult:
    def advance(u, target):
        V = convolve(u, kernel).values
        vmax = max(float(np.max(np.abs(V))), 1e-12)
        dt = min(_LF_CFL * u.grid.dx / vmax, target - u.time_stamp)
        return lf_step(u, kernel, dt, velocity=V)

    res = march(
        initial,
        targets,
        advance,
        lambda u: field_diagnostics(u, window),
        lambda u: _check_boundary_clear(u, 1e-12),
    )
    res.info["scheme"] = "lax_friedrichs"
    return res


_MAX_HALVINGS = 30  # a crossing that survives dt / 2**30 is not a step-size issue
_STEP_RULES = ("contraction", "resolution", "output")  # the order of advance's limits


def _run_particles(initial: Field, kernel: Kernel, targets, window) -> RunResult:
    e = sample_particles(initial)
    eps = kernel.epsilon
    g = initial.grid
    ent_grid = Grid1D(
        g.x_min,
        g.x_max,
        max(2, int(round((g.x_max - g.x_min) / (_ENTROPY_DX_OVER_EPS * eps)))),
    )
    # sign partition at t=0 (odd-type data): positive mass left of 0,
    # negative right; preserved because characteristics cannot cross
    partition_ok = bool(
        np.any(e.masses < 0.0)
        and np.all(e.positions[e.masses > 0] < 0.0)
        and np.all(e.positions[e.masses < 0] > 0.0)
    )
    n_rejected = n_startup = 0
    history = []  # (velocity, dt) of the last two accepted steps, newest first
    steps_by_rule = dict.fromkeys(_STEP_RULES, 0)

    def advance(e, target):
        nonlocal n_rejected, n_startup
        v, bound = particle_velocity_and_bound(e, kernel)
        vmax = max(float(np.max(np.abs(v))), 1e-12)
        limits = (0.9 * bound, 0.1 * eps / vmax, target - e.time_stamp)
        rule = min(range(len(limits)), key=limits.__getitem__)
        dt = limits[rule]
        for _ in range(_MAX_HALVINGS):
            try:
                out = particle_step(e, kernel, dt, stage1=(v, bound), history=history)
            except CharacteristicsCrossed:
                n_rejected += 1
                history.clear()
                dt *= 0.5
                continue
            n_startup += len(history) < 2
            history[:] = [(v, dt)] + history[:1]
            steps_by_rule[_STEP_RULES[rule]] += 1
            return out
        raise CharacteristicsCrossed(
            f"characteristics crossed after {_MAX_HALVINGS} halvings "
            f"of the step at t={e.time_stamp:.6g}"
        )

    def check(e):
        if e.positions[0] < g.x_min or e.positions[-1] > g.x_max:
            raise ParticlesLeftGrid(
                f"particle support [{e.positions[0]:.6g}, {e.positions[-1]:.6g}] left "
                f"the grid [{g.x_min:.6g}, {g.x_max:.6g}] at t={e.time_stamp:.6g}"
            )
        if partition_ok and (
            np.any(e.positions[e.masses > 0] >= 0.0)
            or np.any(e.positions[e.masses < 0] <= 0.0)
        ):
            raise SignPartitionViolated("sign partition violated: mass crossed 0")

    mass0 = e.masses.copy()
    res = march(
        e,
        targets,
        advance,
        lambda e: ensemble_diagnostics(e, ent_grid, window),
        check,
    )
    assert np.array_equal(res.final.masses, mass0)  # transport never edits masses
    res.info.update(
        scheme="particles",
        n_rejected=n_rejected,
        n_particles=e.n,
        entropy_grid_dx=ent_grid.dx,
        entropy_bias_order=_ENTROPY_DX_OVER_EPS,
        steps_by_rule=steps_by_rule,
        n_startup=n_startup,
    )
    return res
