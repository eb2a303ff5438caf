import numpy as np
import pytest

from nclaw.data import odd_datum, step_datum
from nclaw.grids import Field, Grid1D, baricenter, lp_norm, window_mass
from nclaw.local_entropy import (
    CFLError,
    ExactSolution,
    SupportReachedBoundary,
    _burgers_godunov_flux,
    baricenter_lower_bound,
    exact_eval,
    godunov_step,
    run_local,
    sample_exact,
)


class TestGodunovStep:
    def test_constant_state_fixed(self):
        grid = Grid1D(-1.0, 1.0, 64)
        f = Field(grid, np.full(64, 0.7))
        g = godunov_step(f, dt=0.001)
        assert np.max(np.abs(g.values[5:-5] - 0.7)) < 1e-14

    def test_standing_shock(self):
        # states +1 | -1 meeting at a cell edge: zero-speed shock, flux u^2;
        # numerical information from the support edges travels one cell per
        # step, so the 10-step center (shock included) is bit-exact
        grid = Grid1D(-1.0, 1.0, 64)
        f = odd_datum(grid)
        g = f
        for _ in range(10):
            g = godunov_step(g, dt=0.004)
        mid = slice(24, 40)
        assert np.array_equal(g.values[mid], f.values[mid])

    def test_cfl_violation_raises_with_admissible_dt(self):
        grid = Grid1D(-2.0, 2.0, 100)
        f = step_datum(grid)
        with pytest.raises(CFLError) as err:
            godunov_step(f, dt=1.0)
        assert err.value.dt_admissible < 1.0

    def test_mass_conserved_1000_steps(self):
        grid = Grid1D(-6.0, 4.0, 1500)
        u = step_datum(grid)
        m0 = float(np.sum(u.values) * grid.dx)
        for _ in range(1000):
            u = godunov_step(u, dt=0.4 * grid.dx / 2.0)
        assert abs(float(np.sum(u.values) * grid.dx) - m0) <= 1e-12

    def test_run_stays_admissible_from_datum_speed(self):
        # run_local fixes dt from the datum's max speed 2|u|; the scheme is
        # monotone, so no later step trips the CFL guard and every state
        # keeps 0 <= u <= 1 and the exact mass
        grid = Grid1D(-3.0, 2.0, 512)
        u0 = step_datum(grid)
        res = run_local(u0, 0.5)
        m0 = float(np.sum(u0.values) * grid.dx)
        assert abs(float(np.sum(res.final.values) * grid.dx) - m0) <= 1e-12
        for state in res.states:
            assert -1e-12 <= float(state.values.min())
            assert float(state.values.max()) <= 1.0 + 1e-12

    def test_support_reaching_the_wall_is_a_numerical_failure(self):
        # on [-2, 2] the step datum's shock reaches the right wall near
        # t = 2.26; the run must stop there instead of losing mass through
        # the wall (43% of it by t = 4)
        grid = Grid1D(-2.0, 2.0, 512)
        with pytest.raises(SupportReachedBoundary, match="support reached the boundary"):
            run_local(step_datum(grid), 4.0)
        assert issubclass(SupportReachedBoundary, RuntimeError)


class TestExactSolutions:
    def test_step_point_values(self):
        sol = ExactSolution("step")
        assert exact_eval(sol, 0.5, -0.5) == pytest.approx(0.5)
        assert exact_eval(sol, 0.5, 0.3) == 1.0
        assert exact_eval(sol, 0.5, 0.6) == 0.0
        assert exact_eval(sol, 0.5, -1.2) == 0.0

    def test_odd_point_values(self):
        sol = ExactSolution("odd")
        assert exact_eval(sol, 0.2, -0.3) == 1.0
        assert exact_eval(sol, 0.2, 0.3) == -1.0
        assert exact_eval(sol, 0.2, -0.8) == pytest.approx(0.5)
        assert exact_eval(sol, 0.2, 2.0) == 0.0

    def test_validity_enforced(self):
        with pytest.raises(ValueError, match="validity"):
            exact_eval(ExactSolution("odd"), 0.3, 0.0)
        with pytest.raises(ValueError, match="validity"):
            exact_eval(ExactSolution("step"), 1.5, 0.0)

    def test_odd_window_mass_at_validity_end(self):
        grid = Grid1D(-4.5, 4.5, 9000)
        f = sample_exact(ExactSolution("odd"), 0.25, grid)
        assert window_mass(f, -4.0, 0.0) == pytest.approx(0.75, abs=1e-6)

    @pytest.mark.parametrize(
        "variant, datum, t",
        [("odd", odd_datum, 0.25), ("step", step_datum, 0.5)],
        ids=["odd", "step"],
    )
    def test_exact_formula_validated_against_godunov(self, variant, datum, t):
        # the closed form against Godunov on an aligned grid: the L1 error is
        # within 3 dx at N=4096 and falls at order about 0.8 (the derived odd
        # formula is checked here before any scenario uses it)
        errs = {}
        for n in (1024, 4096):
            grid = Grid1D(-4.0, 4.0, n)
            res = run_local(datum(grid), t, n_outputs=2)
            ex = sample_exact(ExactSolution(variant), t, grid)
            errs[n] = lp_norm(Field(grid, res.final.values - ex.values), 1)
        assert errs[4096] <= 3.0 * (8.0 / 4096)
        order = np.log2(errs[1024] / errs[4096]) / 2.0
        assert order >= 0.7


@pytest.fixture(scope="module")
def odd_run():
    grid = Grid1D(-4.5, 4.5, 4096)
    return run_local(odd_datum(grid), 0.25, window=(-4.0, 0.0), n_outputs=25)


class TestLocalRunDiagnostics:
    def test_window_drain_slope_is_minus_one(self, odd_run):
        d = odd_run.diagnostics
        t, wm = d.t, d.array("window_mass")
        sel = (t >= 0.05) & (t <= 0.2)
        slope = np.polyfit(t[sel], wm[sel], 1)[0]
        assert slope == pytest.approx(-1.0, rel=0.05)

    def test_window_mass_at_end(self, odd_run):
        assert odd_run.diagnostics.last("window_mass") == pytest.approx(0.75, abs=0.02)

    def test_entropy_dissipation_on_step_datum(self):
        grid = Grid1D(-2.0, 2.0, 4096)
        res = run_local(step_datum(grid), 0.5, n_outputs=50)
        d = res.diagnostics
        ent = d.array("entropy")
        assert np.all(np.diff(ent) <= 1e-10)
        for t_probe in (0.25, 0.5):
            i = int(np.argmin(np.abs(d.t - t_probe)))
            assert ent[i] == pytest.approx(-t_probe / 2.0, abs=0.02)

    def test_baricenter_production_matches_momentum_integral(self):
        # d/dt of the first moment equals the integral of u^2 on resolved
        # profiles (flux u^2)
        grid = Grid1D(-2.0, 2.0, 4096)
        res = run_local(step_datum(grid), 0.5, n_outputs=50)
        states = res.states
        for a, b in zip(states[10:20], states[11:21]):
            dt = b.time_stamp - a.time_stamp
            lhs = (baricenter(b) - baricenter(a)) / dt
            mid = 0.5 * (a.values + b.values)
            rhs = float(np.sum(mid * mid) * grid.dx)
            assert lhs == pytest.approx(rhs, rel=0.03)


class TestBaricenterBound:
    def test_violation_witness_for_escaping_support(self):
        # the entropy solution leaves (a, b) = (-1.05, 0.05); after t = 0.6
        # its windowed first moment sits below the confined-solution bound
        a, b = -1.05, 0.05
        grid = Grid1D(-2.0, 2.0, 4096)
        res = run_local(step_datum(grid), 0.75, n_outputs=75)
        u0 = step_datum(grid)
        mass0 = window_mass(u0, a, b)
        from nclaw.grids import snap_window

        i_lo, i_hi = snap_window(grid, a, b)

        def wmoment(f):
            return float(np.sum(grid.centers[i_lo:i_hi] * f.values[i_lo:i_hi]) * grid.dx)

        mom0 = wmoment(u0)
        assert mass0 == pytest.approx(1.0, abs=1e-3)
        assert mom0 == pytest.approx(-0.5, abs=1e-3)
        for state in res.states:
            if state.time_stamp < 0.6:
                continue
            bounds = baricenter_lower_bound(mass0, mom0, state.time_stamp, a, b)
            assert wmoment(state) < bounds["plain"]
            assert wmoment(state) < bounds["jensen"]

    def test_both_forms_reported(self):
        bounds = baricenter_lower_bound(1.0, -0.5, 0.6, -1.05, 0.05)
        assert bounds["plain"] == pytest.approx(0.1)
        assert bounds["jensen"] == pytest.approx(0.6 / 1.1 - 0.5)


def _case_split_godunov_flux(ul, ur):
    # the exact Burgers flux by cases: min of u^2 over [ul, ur] when
    # ul <= ur (0 where that interval holds the sonic point), else the max
    fl, fr = ul * ul, ur * ur
    fmin = np.where((ul <= 0.0) & (ur >= 0.0), 0.0, np.minimum(fl, fr))
    return np.where(ul <= ur, fmin, np.maximum(fl, fr))


def test_godunov_flux_closed_form_has_the_bits_of_the_case_split():
    rng = np.random.default_rng(7)
    n = 200_000
    ul = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 150, n)
    ur = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 150, n)
    # signed zeros, subnormals and unit states, in every pairing
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0])
    ul[: n // 4], ur[: n // 4] = rng.choice(special, (2, n // 4))
    ur[n // 4 : n // 2] = ul[n // 4 : n // 2]  # equal states
    got = _burgers_godunov_flux(ul, ur)
    assert got.tobytes() == _case_split_godunov_flux(ul, ur).tobytes()
