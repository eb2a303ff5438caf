import math

import numpy as np
import pytest

from nclaw import nonlocal_solvers
from nclaw.data import gaussian_datum, odd_datum, step_datum
from nclaw.grids import (
    Field,
    Grid1D,
    baricenter,
    entropy_functional,
    lp_norm,
    window_mass,
)
from nclaw.kernels import EVEN_BUMP, ONE_SIDED_LEFT, Kernel, convolve, convolve_particles
from nclaw.local_entropy import CFLError
from nclaw.nonlocal_solvers import (
    CharacteristicsCrossed,
    ParticleEnsemble,
    ParticlesLeftGrid,
    SignPartitionViolated,
    deposit,
    lagrangian_entropy,
    lf_step,
    particle_step,
    particle_velocity_and_bound,
    run_nonlocal,
    sample_particles,
)


class TestLFStep:
    def test_zero_field_fixed_point(self):
        grid = Grid1D(-1.0, 1.0, 100)
        f = Field(grid, np.zeros(100))
        g = lf_step(f, Kernel(EVEN_BUMP, 0.1), dt=0.001)
        assert np.array_equal(g.values, np.zeros(100))

    def test_mass_conserved_1000_steps(self):
        grid = Grid1D(-6.0, 4.0, 2000)
        k = Kernel(EVEN_BUMP, 0.1)
        u = step_datum(grid)
        m0 = float(np.sum(u.values) * grid.dx)
        dt = 0.4 * grid.dx
        for _ in range(1000):
            u = lf_step(u, k, dt)
        assert abs(float(np.sum(u.values) * grid.dx) - m0) <= 1e-12

    def test_one_step_keeps_oddness(self):
        grid = Grid1D(-3.0, 3.0, 1200)
        u = odd_datum(grid)
        u1 = lf_step(u, Kernel(EVEN_BUMP, 0.05), dt=0.4 * grid.dx)
        assert np.max(np.abs(u1.values + u1.values[::-1])) <= 1e-12

    def test_sign_preserved_for_nonneg_datum(self):
        grid = Grid1D(-2.0, 1.0, 600)
        u = step_datum(grid)
        for _ in range(200):
            u = lf_step(u, Kernel(EVEN_BUMP, 0.05), dt=0.4 * grid.dx)
        assert float(u.values.min()) >= 0.0

    def test_cfl_error_reports_admissible_dt(self):
        grid = Grid1D(-2.0, 1.0, 300)
        with pytest.raises(CFLError):
            lf_step(step_datum(grid), Kernel(EVEN_BUMP, 0.05), dt=1.0)

    def test_momentum_production_first_order(self):
        # per-step baricenter increment vs the flux integral at midpoint
        from nclaw.data import gaussian_datum

        for n, cap in ((1000, None), (2000, None)):
            grid = Grid1D(-3.0, 3.5, n)
            k = Kernel(EVEN_BUMP, 0.1)
            u0 = gaussian_datum(grid, 1.0, 0.3)
            dt = 0.45 * grid.dx / 1.4
            u1 = lf_step(u0, k, dt)
            mid = Field(grid, 0.5 * (u0.values + u1.values))
            rhs = float(np.sum(mid.values * convolve(mid, k).values) * grid.dx)
            lhs = (baricenter(u1) - baricenter(u0)) / dt
            assert abs(lhs - rhs) <= 0.5 * (dt + grid.dx)


def _history_steps(e, k, dts):
    """Step ``e`` by ``dts`` as ``run_nonlocal`` does: the velocity history of
    the accepted steps goes into the next step, newest first."""
    history = []
    for dt in dts:
        v = particle_velocity_and_bound(e, k)
        e = particle_step(e, k, dt, stage1=v, history=history)
        history = [(v[0], dt)] + history[:1]
    return e


def _max_root(weights, z_dt):
    """Largest amplification root modulus of a three-level step on y' = z y
    at a constant step: ``weights(z_dt)`` gives y_{n+1} = sum_i a_i y_{n-i}."""
    a0, a1, a2 = weights(z_dt)
    return float(np.max(np.abs(np.roots([1.0, -a0, -a1, -a2]))))


class TestParticleStep:
    def test_massless_particle_is_stationary(self):
        k = Kernel(EVEN_BUMP, 0.1)
        e = ParticleEnsemble(np.array([-0.4, 0.0, 0.3]), np.array([0.0, 0.0, 0.0]))
        out = particle_step(e, k, dt=1e-3)
        assert np.array_equal(out.positions, e.positions)
        # the Adams steps too, on steps of unequal size
        out = _history_steps(e, k, [1e-3, 2e-3, 5e-4, 1e-3, 3e-3])
        assert np.array_equal(out.positions, e.positions)

    def test_antisymmetric_ensemble_pins_origin(self):
        k = Kernel(EVEN_BUMP, 0.1)
        X = np.array([-0.6, -0.3, -0.1, 0.0, 0.1, 0.3, 0.6])
        m = np.array([0.2, 0.3, 0.1, 0.0, -0.1, -0.3, -0.2])
        v0 = convolve_particles(X, m, k, 0.0)
        assert abs(v0) < 1e-15
        e = ParticleEnsemble(X, m)
        for _ in range(50):
            e = particle_step(e, k, dt=2e-4)
        assert abs(e.positions[3]) < 1e-12

    def test_one_sided_rightmost_particle_pinned_bit_exact(self):
        grid = Grid1D(-1.5, 0.5, 600)
        k = Kernel(ONE_SIDED_LEFT, 0.05)
        e = sample_particles(step_datum(grid))
        right0 = e.positions[-1]
        dt = 0.2 * particle_velocity_and_bound(e, k)[1]
        e1 = e
        for _ in range(30):
            e1 = particle_step(e1, k, dt)
        assert e1.positions[-1] == right0
        # 28 of these 30 steps are Adams PECE steps
        e2 = _history_steps(e, k, [dt, 0.5 * dt] * 15)
        assert e2.positions[-1] == right0

    def test_masses_never_change(self):
        grid = Grid1D(-1.5, 0.5, 400)
        k = Kernel(ONE_SIDED_LEFT, 0.05)
        e = sample_particles(step_datum(grid))
        m0 = e.masses.copy()
        dt = 0.2 * particle_velocity_and_bound(e, k)[1]
        for _ in range(20):
            e = particle_step(e, k, dt)
        assert np.array_equal(e.masses, m0)
        assert e.masses.sum() == m0.sum()

    def test_contraction_safeguard_enforced(self):
        grid = Grid1D(-1.5, 0.5, 200)
        k = Kernel(EVEN_BUMP, 0.05)
        e = sample_particles(step_datum(grid))
        with pytest.raises(ValueError, match="contraction"):
            particle_step(e, k, dt=1.0)

    def test_multistep_run_order_three_on_non_uniform_steps(self, monkeypatch):
        # smooth datum and kernel. The contraction bound, scaled by f times a
        # factor that swings between 0.5 and 1.5 along the run, sets every
        # step, so the step sizes vary smoothly by 3x; the 7 output times
        # fall between steps, so the output rule cuts steps short too. The
        # change of the final positions under successive halvings of f
        # shrinks 8x (global error O(dt^3))
        grid = Grid1D(-3.0, 3.0, 200)
        k = Kernel(EVEN_BUMP, 0.2)
        exact = nonlocal_solvers.particle_velocity_and_bound

        def scaled(e, k, f):
            v, bound = exact(e, k)
            return v, f * (1.0 + 0.5 * math.sin(40.0 * e.time_stamp)) * bound

        runs = []
        for f in (1 / 16, 1 / 32, 1 / 64, 1 / 128):
            monkeypatch.setattr(nonlocal_solvers, "particle_velocity_and_bound",
                                lambda e, k, f=f: scaled(e, k, f))
            res = run_nonlocal(gaussian_datum(grid, 1.0, 0.3), k, 0.16, n_outputs=7)
            rules = res.info["steps_by_rule"]
            assert rules["resolution"] == 0 and rules["output"] == 7, rules
            assert res.info["n_startup"] == 2 and res.info["n_rejected"] == 0
            assert res.info["dt_max"] > 1.3 * res.info["dt_median"]
            runs.append(res.final)
        m = runs[0].masses
        diffs = np.array(
            [np.sqrt(np.sum(m * (a.positions - b.positions) ** 2)) for a, b in zip(runs, runs[1:])]
        )
        orders = np.log2(diffs[:-1] / diffs[1:])
        assert np.all(np.abs(orders - 3.0) <= 0.3), orders

    def test_adams_step_makes_one_velocity_evaluation(self, monkeypatch):
        # the current velocity and bound come from the caller; a PECE step
        # given its history evaluates the velocity once, at the predicted
        # positions, a start-up step twice, and neither needs the slope
        calls = {"conv": 0, "slope": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        grid = Grid1D(-3.0, 3.0, 200)
        k = Kernel(EVEN_BUMP, 0.2)
        e = sample_particles(gaussian_datum(grid, 1.0, 0.3))
        stage1 = particle_velocity_and_bound(e, k)
        dt = 0.5 * stage1[1]
        history = [(stage1[0], dt), (stage1[0], dt)]
        monkeypatch.setattr(nonlocal_solvers, "_convolve_atoms",
                            counted("conv", nonlocal_solvers._convolve_atoms))
        monkeypatch.setattr(nonlocal_solvers, "convolve_particles_slope",
                            counted("slope", nonlocal_solvers.convolve_particles_slope))
        particle_step(e, k, dt, stage1=stage1, history=history)
        assert calls == {"conv": 1, "slope": 0}
        for short in ([], history[:1]):
            calls.update(conv=0, slope=0)
            particle_step(e, k, dt, stage1=stage1, history=short)
            assert calls == {"conv": 2, "slope": 0}

    def test_adams_step_is_stable_where_the_contraction_rule_allows(self):
        # Gershgorin puts the particle velocity's Jacobian eigenvalues in
        # |z| <= 2 lambda, and the contraction rule allows dt = 0.45/lambda:
        # z dt on the left half-disk of radius 0.9. There the PECE step's
        # amplification roots stay within 1 + 1e-3; plain AB3's do not
        (p0, p1, p2), (c0, c1, c2) = nonlocal_solvers._adams_weights(1.0, 1.0, 1.0)

        def pece(w):
            # y_p = y_n + w (p0 y_n + p1 y_{n-1} + p2 y_{n-2});
            # y_{n+1} = y_n + w (c0 y_p + c1 y_n + c2 y_{n-1})
            return (1.0 + w * (c0 + c1) + c0 * p0 * w * w, c2 * w + c0 * p1 * w * w,
                    c0 * p2 * w * w)

        def ab3(w):
            return 1.0 + p0 * w, p1 * w, p2 * w

        r, th = np.meshgrid(np.linspace(0.0, 0.9, 46), np.linspace(0.5, 1.5, 61) * np.pi)
        disk = (r * np.exp(1j * th)).ravel()
        assert max(_max_root(pece, w) for w in disk) <= 1.0 + 1e-3
        assert max(_max_root(ab3, w) for w in disk) > 1.5
        # the stability intervals on the negative real axis
        assert _max_root(pece, -1.7) <= 1.0 < _max_root(pece, -1.76)
        assert _max_root(ab3, -0.54) <= 1.0 < _max_root(ab3, -0.55)

    def test_crossing_stage_raises_for_retry(self):
        # with the contraction guard lifted a large step crosses at the
        # pinned front; the error type lets drivers halve and retry
        grid = Grid1D(-1.5, 0.5, 400)
        k = Kernel(ONE_SIDED_LEFT, 0.05)
        e = sample_particles(step_datum(grid))
        v1, _ = particle_velocity_and_bound(e, k)
        with pytest.raises(CharacteristicsCrossed):
            particle_step(e, k, dt=0.5, stage1=(v1, math.inf))
        assert issubclass(CharacteristicsCrossed, RuntimeError)

    def test_ordering_is_validated(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ParticleEnsemble(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


class TestDeposit:
    def test_particle_at_cell_center(self):
        g = Grid1D(0.0, 1.0, 10)
        e = ParticleEnsemble(np.array([g.centers[4]]), np.array([0.7]))
        f = deposit(e, g)
        assert f.values[4] == pytest.approx(0.7 / g.dx, rel=1e-14)
        assert f.values[3] == 0.0 and f.values[5] == 0.0

    def test_total_mass_preserved(self, rng):
        g = Grid1D(-1.0, 1.0, 64)
        X = np.sort(rng.uniform(-0.9, 0.9, size=200))
        X += np.arange(200) * 1e-9  # enforce strict ordering
        m = rng.random(200)
        f = deposit(ParticleEnsemble(X, m), g)
        assert window_mass(f, -1.0, 1.0) == pytest.approx(float(m.sum()), rel=1e-12)

    def test_uniform_sampling_reconstructs_indicator(self):
        grid = Grid1D(-2.0, 1.0, 1200)
        e = sample_particles(step_datum(grid))
        dep_grid = Grid1D(-2.0, 1.0, 300)
        f = deposit(e, dep_grid)
        err = lp_norm(Field(dep_grid, f.values - step_datum(dep_grid).values), 1)
        assert err <= 2.0 * dep_grid.dx

    def test_rejects_outside_particles(self):
        g = Grid1D(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="outside"):
            deposit(ParticleEnsemble(np.array([1.5]), np.array([1.0])), g)


class TestLagrangianEntropy:
    def test_uniform_indicator_sampling_is_exactly_zero(self):
        grid = Grid1D(-2.0, 1.0, 1200)
        e = sample_particles(step_datum(grid))
        assert lagrangian_entropy(e) == pytest.approx(0.0, abs=1e-12)

    def test_scaled_indicator(self):
        grid = Grid1D(-2.0, 1.0, 1200)
        f = step_datum(grid)
        f.values *= math.e
        e = sample_particles(f)
        assert lagrangian_entropy(e) == pytest.approx(math.e, rel=1e-10)

    def test_nan_for_signed(self):
        e = ParticleEnsemble(np.array([-1.0, 1.0]), np.array([1.0, -1.0]))
        assert math.isnan(lagrangian_entropy(e))


class TestRunNonlocal:
    def test_zero_datum_stays_zero_fv(self):
        grid = Grid1D(-1.0, 1.0, 200)
        res = run_nonlocal(Field(grid, np.zeros(200)), Kernel(EVEN_BUMP, 0.1), 0.1,
                           scheme="lax_friedrichs", n_outputs=4)
        assert np.array_equal(res.final.values, np.zeros(200))

    def test_one_sided_confinement(self):
        grid = Grid1D(-1.5, 0.5, 1000)
        res = run_nonlocal(step_datum(grid), Kernel(ONE_SIDED_LEFT, 0.05), 0.5,
                           n_outputs=10, window=(0.0, 0.5))
        d = res.diagnostics
        assert np.all(d.array("support_hi") <= 0.0)
        assert np.all(d.array("support_lo") >= -1.0)
        assert d.last("window_mass") == 0.0

    def test_odd_window_mass_constant(self):
        fine = Grid1D(-4.5, 4.5, 9000)
        res = run_nonlocal(odd_datum(fine), Kernel(EVEN_BUMP, 0.05), 0.25,
                           n_outputs=10, window=(-4.0, 0.0))
        wm = res.diagnostics.array("window_mass")
        assert np.max(np.abs(wm - 1.0)) <= 0.02
        assert np.max(np.abs(res.diagnostics.array("mass"))) <= 1e-12

    def test_crossing_step_is_halved_and_retried(self, monkeypatch):
        # lift the local contraction bound so that only the 0.1*eps/vmax rule
        # limits the step: at the pinned front of the one-sided run that rule
        # proposes steps that cross, which must be rejected and halved
        grid = Grid1D(-1.5, 0.5, 400)
        kw = dict(n_outputs=5, window=(0.0, 0.5))
        ref = run_nonlocal(step_datum(grid), Kernel(ONE_SIDED_LEFT, 0.05), 0.5, **kw)
        exact = nonlocal_solvers.particle_velocity_and_bound
        monkeypatch.setattr(
            nonlocal_solvers,
            "particle_velocity_and_bound",
            lambda e, k: (exact(e, k)[0], math.inf),
        )
        res = run_nonlocal(step_datum(grid), Kernel(ONE_SIDED_LEFT, 0.05), 0.5, **kw)
        assert ref.info["n_rejected"] == 0
        assert res.info["n_rejected"] > 0
        assert res.final.time_stamp == pytest.approx(0.5, abs=1e-12)
        assert res.diagnostics.last("window_mass") == 0.0
        assert np.max(np.abs(res.final.positions - ref.final.positions)) <= 1e-3

    def test_particles_leaving_the_datum_grid_are_a_numerical_failure(self):
        # the right front of the step moves right at about 0.85 and leaves
        # the grid near t = 0.24; the check after the t = 0.3 output stops
        # the run before the entropy deposit sees a particle off its grid
        grid = Grid1D(-1.1, 0.2, 260)
        with pytest.raises(ParticlesLeftGrid, match=r"grid \[-1\.1, 0\.2\] at t=0\.3$"):
            run_nonlocal(step_datum(grid), Kernel(EVEN_BUMP, 0.05), 0.3, n_outputs=2)
        assert issubclass(ParticlesLeftGrid, RuntimeError)
        assert not issubclass(ParticlesLeftGrid, ValueError)

    def test_mass_crossing_the_origin_is_a_numerical_failure(self, monkeypatch):
        # a step that carries the odd datum's positive mass across 0, which
        # ordered characteristics cannot do, stops the run at its next output
        def shifting(e, k, dt, stage1=None, history=()):
            return ParticleEnsemble(e.positions + 0.02, e.masses, e.time_stamp + dt)

        monkeypatch.setattr(nonlocal_solvers, "particle_step", shifting)
        grid = Grid1D(-2.0, 2.0, 200)
        with pytest.raises(SignPartitionViolated, match="sign partition violated"):
            run_nonlocal(odd_datum(grid), Kernel(EVEN_BUMP, 0.2), 0.1, n_outputs=1)
        assert issubclass(SignPartitionViolated, RuntimeError)

    def test_particle_entropy_is_deposited_over_the_datum_grid(self):
        # the deposit grid spans the datum's grid at spacing 0.1 * eps
        k = Kernel(EVEN_BUMP, 0.05)
        for x_min, x_max in ((-2.0, 1.0), (-1.5, 0.5)):
            res = run_nonlocal(step_datum(Grid1D(x_min, x_max, 600)), k, 0.05, n_outputs=1)
            ent_grid = Grid1D(x_min, x_max, round((x_max - x_min) / 0.005))
            assert res.info["entropy_grid_dx"] == ent_grid.dx
            assert res.diagnostics.last("entropy") == entropy_functional(
                deposit(res.final, ent_grid))

    def test_particle_conversion_drops_zero_mass_cells(self):
        grid = Grid1D(-2.0, 1.0, 300)
        e = sample_particles(step_datum(grid))
        assert e.n == 100  # only the cells inside (-1, 0)

    def test_fv_entropy_drift_shrinks_with_dx(self):
        # at fixed eps the FV entropy drift decreases under refinement
        drifts = []
        for n in (700, 1400):
            grid = Grid1D(-2.0, 1.5, n)
            res = run_nonlocal(step_datum(grid), Kernel(EVEN_BUMP, 0.05), 0.3,
                               scheme="lax_friedrichs", n_outputs=4)
            drifts.append(abs(res.diagnostics.last("entropy")))
        assert drifts[1] < drifts[0]

    def test_particle_entropy_drift_shrinks_with_count(self):
        # deposit scale (ratio * eps) refined together with the particle count
        drifts = []
        for n, ratio in ((500, 0.2), (1000, 0.1), (2000, 0.05)):
            fine = Grid1D(-2.0, 1.5, int(3.5 * n))
            res = run_nonlocal(step_datum(fine), Kernel(EVEN_BUMP, 0.05), 0.5, n_outputs=2)
            dep_grid = Grid1D(-2.0, 1.5, int(round(3.5 / (ratio * 0.05))))
            drifts.append(abs(entropy_functional(deposit(res.final, dep_grid))))
        assert drifts[2] < drifts[1] < drifts[0]

    def test_scaled_constant_datum_conserves_entropy(self):
        fine = Grid1D(-1.5, 1.0, 2500)  # 1000 particles across the support
        f = step_datum(fine)
        f.values *= math.e
        res = run_nonlocal(f, Kernel(EVEN_BUMP, 0.05), 0.2, n_outputs=4)
        ent = res.diagnostics.array("entropy_lagrangian")
        assert ent[0] == pytest.approx(math.e, rel=1e-9)
        assert abs(ent[-1] - math.e) <= 0.05

    def test_rejects_bad_config(self, monkeypatch):
        # rejected before the datum is sampled or stepped
        monkeypatch.setattr(nonlocal_solvers, "march", lambda *a, **kw: pytest.fail("ran"))
        u0 = step_datum(Grid1D(-2.0, 1.0, 300))
        for t_end, scheme in ((0.1, "spectral"), (0.0, "particles"), (-1.0, "lax_friedrichs")):
            with pytest.raises(ValueError):
                run_nonlocal(u0, Kernel(EVEN_BUMP, 0.1), t_end, scheme=scheme)

    def test_particles_and_lax_friedrichs_solve_the_same_equation(self):
        # smooth regime: the deposited fine particle run is the reference for
        # LF, whose L1 error must halve with dx (first order); the particle
        # runs self-converge in N, tested through the smooth u * eta_eps
        k = Kernel(EVEN_BUMP, 0.2)

        def final(scheme, n):
            grid = Grid1D(-3.0, 3.0, n)
            return run_nonlocal(gaussian_datum(grid, 1.0, 0.3), k, 0.1, scheme=scheme,
                                n_outputs=1).final

        ref = final("particles", 4800)
        errs = []
        for n in (100, 200, 400, 800):
            u = final("lax_friedrichs", n)
            errs.append(lp_norm(Field(u.grid, deposit(ref, u.grid).values - u.values), 1))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(orders - 1.0) <= 0.25), orders

        xs = np.linspace(-1.0, 1.5, 51)
        finals = [final("particles", n) for n in (300, 600, 1200, 2400)]
        conv = [convolve_particles(e.positions, e.masses, k, xs) for e in finals]
        diffs = np.array([np.max(np.abs(a - b)) for a, b in zip(conv, conv[1:])])
        orders = np.log2(diffs[:-1] / diffs[1:])
        assert np.all(orders >= 1.5), orders
