import gc
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.linalg.lapack
from scipy.linalg import solve_banded, solveh_banded

from nclaw.data import gaussian_datum, step_datum
from nclaw.grids import Field, Grid1D, lp_norm
from nclaw.kernels import EVEN_BUMP, ONE_SIDED_LEFT, Kernel
import nclaw.records as records
import nclaw.viscous as viscous
from nclaw.local_entropy import CFLError, ExactSolution, NumericalFailure, sample_exact
from nclaw.viscous import (
    NonFiniteState,
    _backward_euler_factors,
    diffusion_substep,
    imex_step,
    run_viscous,
)


def variance(f):
    m = float(np.sum(f.values) * f.grid.dx)
    mean = float(np.sum(f.grid.centers * f.values) * f.grid.dx) / m
    return float(np.sum((f.grid.centers - mean) ** 2 * f.values) * f.grid.dx) / m


class TestImexStep:
    def test_l1_never_grows(self, rng):
        grid = Grid1D(-3.0, 3.0, 900)
        k = Kernel(EVEN_BUMP, 0.1)
        v = rng.normal(size=900)
        v[:80] = 0.0
        v[-80:] = 0.0
        u = Field(grid, v)
        dt = 0.4 * grid.dx / max(1e-9, float(np.max(np.abs(v))))
        for _ in range(30):
            nxt = imex_step(u, k, 0.02, dt)
            assert lp_norm(nxt, 1) <= lp_norm(u, 1) + 1e-12
            u = nxt

    def test_sup_never_grows_local_problem(self):
        grid = Grid1D(-3.0, 3.0, 900)
        u = gaussian_datum(grid, 1.0, 0.3)
        sup0 = lp_norm(u, math.inf)
        dt = 0.4 * grid.dx / (2 * sup0)
        for _ in range(50):
            u = imex_step(u, None, 0.05, dt)
            assert lp_norm(u, math.inf) <= sup0 + 1e-12

    @pytest.mark.parametrize(
        "datum", [lambda g: gaussian_datum(g, 1.0, 0.3), step_datum], ids=["gaussian", "step"]
    )
    def test_rusanov_monotone_at_cfl_09_local_problem(self, datum):
        # the local LF flux is monotone up to CFL 1 only with the full wave
        # speed 2|u| of the flux u^2; half of it lets the sup norm grow
        grid = Grid1D(-3.0, 3.0, 900)
        u = datum(grid)
        sup0 = lp_norm(u, math.inf)
        dt = 0.9 * grid.dx / (2 * sup0)
        for _ in range(100):
            u = imex_step(u, None, 1e-3, dt)
            assert lp_norm(u, math.inf) <= sup0 + 1e-12
            assert u.values.min() >= 0.0

    def test_advection_substep_conserves_mass(self):
        # the nonlocal compression of the step lifts max|V| a little above 1,
        # so the fixed dt = 0.4 dx runs above Courant number 0.4, below 0.9
        grid = Grid1D(-3.0, 3.0, 900)
        k = Kernel(EVEN_BUMP, 0.1)
        u = step_datum(grid)
        m0 = float(np.sum(u.values) * grid.dx)
        dt = 0.4 * grid.dx
        for _ in range(100):
            u = imex_step(u, k, 1e-12, dt)
        # with nu ~ 0 the diffusion solve is the identity; drift is advection only
        assert abs(float(np.sum(u.values) * grid.dx) - m0) <= 1e-12

    def test_converged_in_dt_nonlocal(self):
        # at fixed dx the Rusanov dissipation does not depend on dt, so a
        # smooth nonlocal run moves by less than 1% in L1 when dt halves
        # (the classic LF flux, viscosity dx^2/2dt, moves this pair by ~2%)
        grid = Grid1D(-3.0, 3.5, 1000)
        u0 = gaussian_datum(grid, 1.0, 0.3)
        dt = 0.9 * grid.dx / (1.4 * lp_norm(u0, math.inf))
        finals = []
        for step in (dt, dt / 2):
            finals.append(run_viscous(u0, Kernel(ONE_SIDED_LEFT, 0.1), 0.5, nu=0.1, dt=step,
                                      n_outputs=1).final)
        moved = lp_norm(Field(grid, finals[0].values - finals[1].values), 1)
        assert moved < 0.01 * lp_norm(finals[1], 1)

    def test_cfl_enforced(self):
        grid = Grid1D(-3.0, 3.0, 300)
        with pytest.raises(CFLError):
            imex_step(step_datum(grid), None, 0.1, dt=1.0)

    def test_non_finite_state_is_numerical_failure(self):
        # a blown-up state is a RuntimeError, unlike a bad argument
        grid = Grid1D(-3.0, 3.0, 300)
        u = step_datum(grid)
        u.values[140] = np.nan
        with pytest.raises(NonFiniteState):
            imex_step(u, None, 0.1, dt=1e-3)
        assert issubclass(NonFiniteState, NumericalFailure)
        assert issubclass(NonFiniteState, RuntimeError)


def banded_reference(u, nu, dt, dx):
    """The backward-Euler substep as a fresh SPD banded solve (LAPACK ptsv)."""
    r = nu * dt / (dx * dx)
    ab = np.empty((2, u.size))
    ab[0, :] = -r  # the superdiagonal, upper form: ab[0, 0] is not read
    ab[1, :] = 1.0 + 2.0 * r
    return solveh_banded(ab, u)


def general_banded_reference(u, nu, dt, dx):
    """The same substep as a general pivoted banded solve (LAPACK gtsv)."""
    r = nu * dt / (dx * dx)
    ab = np.zeros((3, u.size))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r
    return solve_banded((1, 1), ab, u)


# (cells, dt): repeats reuse the factors, every change of either refactors;
# 2 cells is the smallest grid Grid1D allows
SOLVE_CASES = [
    (400, 0.07), (400, 0.07), (400, 0.02), (401, 0.02), (400, 0.07),
    (2, 0.07), (3, 0.07), (3000, 1e-4), (3000, 1e-4), (3000, 3e-5),
]


class TestDiffusionSubstep:
    @settings(max_examples=100, deadline=None)
    @given(
        cases=st.lists(st.sampled_from(SOLVE_CASES), min_size=1, max_size=10),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(SOLVE_CASES, 0)
    def test_max_principle(self, cases, seed):
        rng = np.random.default_rng(seed)
        for n, dt in cases:
            u = rng.normal(size=n)
            out = diffusion_substep(u, nu=0.3, dt=dt, dx=0.01)
            assert out.min() >= min(u.min(), 0.0) - 1e-12
            assert out.max() <= max(u.max(), 0.0) + 1e-12

    def test_reused_factors_match_fresh_banded_solve(self, rng):
        # stale factors from an earlier call would show as a mismatch
        before = _backward_euler_factors.cache_info()
        for n, dt in SOLVE_CASES * 2:
            u = rng.normal(size=n)
            u_in = u.copy()
            out = diffusion_substep(u, 0.3, dt, 0.01)
            assert out.shape == (n,)
            assert out.tobytes() == banded_reference(u, 0.3, dt, 0.01).tobytes()
            assert np.array_equal(u, u_in)  # the right-hand side is not overwritten
        after = _backward_euler_factors.cache_info()
        assert after.hits > before.hits and after.misses > before.misses

    def test_agrees_with_general_banded_solve(self, rng):
        # the LDL^T solve and a pivoted LU solve of the same system differ
        # only by rounding
        for n, dt in SOLVE_CASES:
            u = rng.normal(size=n)
            out = diffusion_substep(u, 0.3, dt, 0.01)
            ref = general_banded_reference(u, 0.3, dt, 0.01)
            assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_right_hand_side_rejected(self, bad):
        u = np.ones(50)
        diffusion_substep(u, 0.3, 0.07, 0.01)  # factors for this size now cached
        u[17] = bad
        with pytest.raises(ValueError):
            diffusion_substep(u, 0.3, 0.07, 0.01)

    def test_pure_diffusion_variance_growth(self):
        # with b = 0 the IMEX step is this substep alone: the variance grows
        # by 2 nu dt, up to the O(dx^2) contribution of the discrete Laplacian
        # and O(dt^2) terms
        grid = Grid1D(-3.0, 3.0, 1200)
        nu, dt = 0.05, 0.002
        u0 = gaussian_datum(grid, 1.0, 0.3)
        u1 = Field(grid, diffusion_substep(u0.values, nu, dt, grid.dx))
        grown = variance(u1) - variance(u0)
        assert abs(grown - 2 * nu * dt) <= 1.5 * (dt**2 + grid.dx**2)

    def test_matches_heat_kernel(self):
        # one long backward-Euler step vs the closed-form widened Gaussian:
        # first order in dt, so use a small dt and many steps
        grid = Grid1D(-4.0, 4.0, 1600)
        nu, T, steps = 0.1, 0.2, 200
        u = gaussian_datum(grid, 1.0, 0.4).values
        for _ in range(steps):
            u = diffusion_substep(u, nu, T / steps, grid.dx)
        exact = gaussian_datum(grid, 1.0, math.sqrt(0.4**2 + 2 * nu * T)).values
        assert np.max(np.abs(u - exact)) <= 5e-3


def _openblas_factor():
    """The diffusion solve's ``factor`` around NumPy's OpenBLAS; skips where
    this install has no such library."""
    factor = viscous._lapack()
    if factor is viscous._scipy_factor:
        pytest.skip("NumPy's bundled OpenBLAS is not loaded here")
    return factor


class TestLapack:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 8000),
        rs=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, rs=[0.0, 1e6], seed=0)
    def test_openblas_routines_match_scipys_bit_for_bit(self, n, rs, seed):
        # solving with the two factorizations in turn, then the first again,
        # also checks that a solve never reads another one's factors
        factor = _openblas_factor()
        rng = np.random.default_rng(seed)
        systems = []
        for r in rs:
            info, solve = factor(np.full(n, 1.0 + 2.0 * r), np.full(n - 1, -r))
            sd, se, sinfo = scipy.linalg.lapack.dpttrf(np.full(n, 1.0 + 2.0 * r),
                                                       np.full(n - 1, -r))
            assert info == sinfo == 0
            systems.append((r, solve, sd, se))
        for r, solve, sd, se in systems + systems[:1]:
            b = rng.normal(size=n)
            x, info = solve(b)
            sx, sinfo = scipy.linalg.lapack.dpttrs(sd, se, b)
            assert info == sinfo == 0
            assert x.tobytes() == sx.tobytes()
            ab = np.empty((2, n))
            ab[0, :], ab[1, :] = -r, 1.0 + 2.0 * r
            ref = solveh_banded(ab, b)
            assert np.max(np.abs(x - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [100, 5000])
    def test_a_solve_holds_its_factors(self, n, rng):
        # LAPACK reads the factors through the addresses the solve took; were
        # an array freed while its solve lives, a later factorization of the
        # same size would reuse its memory and the solve would read those bits
        factor = _openblas_factor()
        d, e = np.full(n, 1.0 + 2.0 * 0.3), np.full(n - 1, -0.3)
        sd, se, _ = scipy.linalg.lapack.dpttrf(d, e)
        _, solve = factor(d, e)
        del d, e
        # kept: the other factors stay in memory while A's solve runs
        other_info, _other_solve = factor(np.full(n, 1.0 + 2.0 * 40.0), np.full(n - 1, -40.0))
        gc.collect()
        b = rng.normal(size=n)
        x, info = solve(b)
        assert other_info == info == 0
        assert x.tobytes() == scipy.linalg.lapack.dpttrs(sd, se, b)[0].tobytes()

    def test_openblas_routines_copy_what_lapack_writes(self, rng):
        # the right-hand side is copied to float64 C order and never written;
        # factor leaves its arguments as they were
        factor = _openblas_factor()
        d0, e0 = np.full(50, 3.0), np.full(49, -1.0)
        info, solve = factor(d0, e0)
        assert info == 0 and np.all(d0 == 3.0) and np.all(e0 == -1.0)
        b = rng.normal(size=100)
        b_in = b.copy()
        x, info = solve(b[::2])
        assert info == 0 and np.array_equal(b, b_in)
        assert x.tobytes() == solve(b[::2].copy())[0].tobytes()
        assert np.array_equal(solve(np.arange(50))[0], solve(np.arange(50.0))[0])

    def test_openblas_routines_refuse_what_they_cannot_pass(self):
        factor = _openblas_factor()
        _, solve = factor(np.full(50, 3.0), np.full(49, -1.0))
        for bad in [lambda: factor(np.full(50, 3.0), np.full(50, -1.0)),
                    lambda: solve(np.ones(49))]:
            with pytest.raises(ValueError):
                bad()

    @pytest.mark.parametrize("kernel", [None, Kernel(EVEN_BUMP, 0.2)], ids=["local", "kernel"])
    @pytest.mark.parametrize("dt", [None, 2e-3], ids=["adaptive", "fixed"])
    def test_scipy_fallback_gives_the_same_bits(self, monkeypatch, fresh_lapack, kernel, dt):
        # where the locator finds no OpenBLAS, SciPy's routines run, and the
        # run's states are the bits of the OpenBLAS path
        _openblas_factor()
        grid = Grid1D(-3.0, 3.0, 600)
        u0 = gaussian_datum(grid, 1.0, 0.4)
        ours = run_viscous(u0, kernel, 0.05, nu=0.1, dt=dt, n_outputs=4)
        monkeypatch.setattr(viscous, "_numpy_openblas", lambda *names: None)
        viscous._lapack.cache_clear()
        _backward_euler_factors.cache_clear()
        assert viscous._lapack() is viscous._scipy_factor
        assert records._backend()["lapack"] == "scipy"
        theirs = run_viscous(u0, kernel, 0.05, nu=0.1, dt=dt, n_outputs=4)
        assert ours.info["n_steps"] == theirs.info["n_steps"] > 4
        for a, b in zip(ours.states, theirs.states, strict=True):
            assert a.time_stamp == b.time_stamp and a.values.tobytes() == b.values.tobytes()

    def test_a_missing_fallback_is_refused_before_any_solve(self, monkeypatch, fresh_lapack,
                                                            capsys):
        # where NumPy bundles no OpenBLAS and SciPy is not installed, rate,
        # visc and run_viscous refuse with a usage error that names the
        # extra, before any solver call
        import nclaw.experiments
        from nclaw.cli import main

        monkeypatch.setattr(viscous, "_numpy_openblas", lambda *names: None)
        monkeypatch.setitem(sys.modules, "scipy", None)  # SciPy reads as not installed
        monkeypatch.setattr(nclaw.experiments, "_pool", lambda *a, **kw: pytest.fail("ran"))
        monkeypatch.setattr(viscous, "march", lambda *a, **kw: pytest.fail("ran"))
        for command in ("rate", "visc"):
            assert main(["--no-emit", command]) == 1
            assert capsys.readouterr().err == (
                "error: no LAPACK for the diffusion solve: install the extra nclaw[lapack]\n")
        u0 = gaussian_datum(Grid1D(-3.0, 3.0, 600), 1.0, 0.4)
        with pytest.raises(ValueError, match=r"install the extra nclaw\[lapack\]"):
            run_viscous(u0, None, 0.05, nu=0.1)
        assert viscous._lapack() is viscous._scipy_factor


class TestRunViscous:
    def test_zero_datum(self):
        grid = Grid1D(-1.0, 1.0, 200)
        res = run_viscous(Field(grid, np.zeros(200)), None, 0.1, nu=0.05, n_outputs=4)
        assert lp_norm(res.final, 1) == 0.0

    def test_norm_channels_monotone(self):
        grid = Grid1D(-4.0, 4.5, 1700)
        res = run_viscous(gaussian_datum(grid, 1.0, 0.4), None, 0.5, nu=0.1, n_outputs=10)
        d = res.diagnostics
        assert np.all(np.diff(d.array("l1_norm")) <= 1e-12)
        assert np.all(np.diff(d.array("sup_norm")) <= 1e-12)

    def test_stability_constant_finite_and_monotone_in_viscosity(self):
        grid = Grid1D(-4.0, 4.5, 1700)
        ua = gaussian_datum(grid, 1.0, 0.4)
        ub = gaussian_datum(grid, 0.9, 0.5, center=0.2)
        Ks = {}
        for nu in (0.1, 0.03):
            ra = run_viscous(ua, None, 0.5, nu=nu, n_outputs=10)
            rb = run_viscous(ub, None, 0.5, nu=nu, n_outputs=10)
            d0 = lp_norm(Field(grid, ua.values - ub.values), 2)
            Ks[nu] = max(
                lp_norm(Field(grid, a.values - b.values), 2)
                for a, b in zip(ra.states, rb.states)
            ) / d0
        assert all(math.isfinite(K) and K >= 1.0 - 1e-12 for K in Ks.values())
        assert Ks[0.03] >= Ks[0.1] - 0.02  # nondecreasing in 1/nu (tolerance for noise)

    def test_gradient_norm_stays_bounded(self):
        grid = Grid1D(-4.0, 4.5, 1700)
        u0 = gaussian_datum(grid, 1.0, 0.4)
        res = run_viscous(u0, None, 0.5, nu=0.1, n_outputs=10)

        def gnorm(f):
            return lp_norm(Field(grid, np.gradient(f.values, grid.dx)), 2)

        ratio = max(gnorm(s) for s in res.states) / gnorm(u0)
        assert ratio <= 3.0

    def test_vanishing_viscosity_toward_entropy_solution(self):
        # local problem: the L1 distance to the exact entropy solution
        # decreases monotonically as nu -> 0
        grid = Grid1D(-3.0, 3.0, 1200)
        dists = []
        for nu in (0.1, 0.05, 0.025):
            res = run_viscous(step_datum(grid), None, 0.5, nu=nu, n_outputs=4)
            ex = sample_exact(ExactSolution("step"), 0.5, grid)
            dists.append(lp_norm(Field(grid, res.final.values - ex.values), 1))
        assert dists[0] > dists[1] > dists[2]

    def test_domain_size_guard(self):
        grid = Grid1D(-1.2, 1.2, 200)
        with pytest.raises(ValueError, match="domain too small"):
            run_viscous(step_datum(grid), None, 1.0, nu=0.5)

    @pytest.mark.parametrize("nu, t_end, message", [
        (0.0, 0.1, "nu=0.0 must be positive"),
        (-0.05, 0.1, "nu=-0.05 must be positive"),
        (math.nan, 0.1, "nu=nan must be positive"),
        (0.05, 0.0, "t_end must be positive"),
        (0.05, -0.1, "t_end must be positive"),
    ])
    def test_a_viscosity_or_horizon_not_positive_is_rejected_before_any_step(
        self, monkeypatch, nu, t_end, message
    ):
        # the domain margin 4 sqrt(nu t_end) needs both positive; NaN is refused too
        import nclaw.viscous as viscous

        monkeypatch.setattr(viscous, "march", lambda *a, **kw: pytest.fail("ran"))
        grid = Grid1D(-3.0, 3.0, 600)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_viscous(gaussian_datum(grid, 1.0, 0.4), Kernel(EVEN_BUMP, 0.2), t_end, nu=nu)

    def test_adaptive_step_convolves_once_per_step(self, monkeypatch):
        # the velocity that sets the adaptive dt is the one imex_step uses
        import nclaw.viscous as viscous

        calls = []
        convolve = viscous.convolve

        def counting(f, k):
            calls.append(f.time_stamp)
            return convolve(f, k)

        monkeypatch.setattr(viscous, "convolve", counting)
        grid = Grid1D(-3.0, 3.0, 600)
        res = run_viscous(gaussian_datum(grid, 1.0, 0.4), Kernel(EVEN_BUMP, 0.2), 0.1, nu=0.05,
                          n_outputs=4)
        assert res.info["n_steps"] > 4
        assert len(calls) == res.info["n_steps"]
