import numpy as np
import pytest

from nclaw.data import gaussian_datum
from nclaw.experiments import counterexample_1
from nclaw.grids import Field, Grid1D, lp_norm
from nclaw.kernels import EVEN_BUMP, Kernel
from nclaw.nonlocal_solvers import NonlocalRunConfig, run_nonlocal
from nclaw.velocity import identity_law, normalize
from nclaw.viscous import ViscousRunConfig, run_viscous


def test_ce1_mass_gap_persists_at_smaller_eps():
    # the equality branch of the half-line mass identity is uniform in eps:
    # rerun the nonlocal side with eps = 0.025 (shorter horizon, fewer
    # particles; the structure is resolution independent)
    grid = Grid1D(-4.5, 4.5, 900)
    fine = Grid1D(-4.5, 4.5, int(round(9.0 / (2.0 / 1000))))
    cfg = NonlocalRunConfig(
        grid=grid,
        kernel=Kernel(EVEN_BUMP, 0.025),
        law=identity_law(),
        t_end=0.1,
        scheme="particles",
        n_outputs=5,
        windows=((-4.0, 0.0),),
        signed_masses=True,
    )
    from nclaw.data import odd_datum

    res = run_nonlocal(cfg, odd_datum(fine))
    wm = res.diagnostics.array("window_mass")
    assert np.max(np.abs(wm - 1.0)) <= 0.02


def test_tiny_scenario_rerun_is_bit_identical():
    r1 = counterexample_1(n_particles=300, godunov_n=512, gate=False)
    r2 = counterexample_1(n_particles=300, godunov_n=512, gate=False)
    assert r1.manifest.hash == r2.manifest.hash
    for label in r1.series:
        a, b = r1.series[label], r2.series[label]
        assert a.times == b.times
        for name in a.channels:
            assert a.channels[name] == b.channels[name]


def test_ce1_lax_friedrichs_gate_reruns_on_half_the_cells():
    # the gate must compare two resolutions, not a run with itself
    r = counterexample_1(n_particles=300, godunov_n=512, t_end=0.05,
                         solver="lax_friedrichs", gate=True)
    (cmp,) = [c for c in r.gate.comparisons if c["name"] == "nonlocal_window_mass"]
    assert cmp["coarse"] != cmp["fine"]


def test_b_zero_viscous_distance_is_heat_smoothing():
    # with b = 0 the inviscid solution never moves, so the viscous-inviscid
    # distance is the pure diffusion smoothing error (closed-form Gaussian
    # widening oracle)
    law, _ = normalize(lambda u: np.zeros_like(np.asarray(u, dtype=float)))
    grid = Grid1D(-4.75, 4.75, 3800)
    u0 = gaussian_datum(grid, 1.0, 0.6)
    nu = 0.01
    res = run_viscous(
        ViscousRunConfig(grid=grid, law=law, nu=nu, t_end=0.5, dt=0.01, n_outputs=5),
        u0,
    )
    dist = lp_norm(Field(grid, res.final.values - u0.values), 1)
    widened = gaussian_datum(grid, 1.0, np.sqrt(0.6**2 + 2 * nu * 0.5))
    oracle = lp_norm(Field(grid, widened.values - u0.values), 1)
    assert dist == pytest.approx(oracle, rel=0.1)
