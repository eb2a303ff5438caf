import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import quad

from nclaw.grids import Field, Grid1D, lp_norm
from nclaw.kernels import (
    EVEN_BUMP,
    ONE_SIDED_LEFT,
    HeatKernelSpec,
    Kernel,
    _BLOCK,
    _Z1,
    _bump_profile,
    _toeplitz_blocks,
    _weights,
    convolve,
    convolve_particles,
    convolve_particles_slope,
    grad_lq_exponent,
    heat_kernel_eval,
    heat_kernel_grad_lq_norm,
    heat_kernel_l1_norm,
)


@st.composite
def _cells_and_cut(draw):
    """A cell count n and an interior cell index in [1, n - 1]."""
    n = draw(st.integers(2, 1024))
    return n, draw(st.integers(1, n - 1))


class TestKernelShapes:
    def test_even_bump_compact_support(self):
        k = Kernel(EVEN_BUMP, 0.05)
        for x in (0.05, -0.05, 0.2, -1.0):
            assert float(k.eval(x)) == 0.0

    def test_even_symmetry_exact(self, rng):
        k = Kernel(EVEN_BUMP, 0.07)
        for x in rng.uniform(-0.07, 0.07, size=50):
            assert float(k.eval(x)) == float(k.eval(-x))

    def test_unit_mass_by_quadrature(self):
        for shape, eps in ((EVEN_BUMP, 0.05), (ONE_SIDED_LEFT, 0.05),
                           (EVEN_BUMP, 0.3), (ONE_SIDED_LEFT, 1.0)):
            k = Kernel(shape, eps)
            total, _ = quad(lambda x: float(k.eval(x)), *k.support, limit=200)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_bump_mass_constant_matches_quadrature_oracle(self):
        # oracle: adaptive quadrature of the unit bump, independent of the
        # trapezoid rule the constant is checked with at construction
        z, _ = quad(lambda s: math.exp(-1.0 / (1.0 - s * s)), -1.0, 1.0, limit=200)
        assert _Z1 == pytest.approx(z, abs=1e-15)
        for n in (400, 4000):
            s = np.linspace(-1.0, 1.0, n + 1)
            assert float(np.trapezoid(_bump_profile(s), s)) == _Z1

    def test_normalization_is_closed_form(self):
        for eps in (1e-4, 0.05, 0.2, 0.4, 3.0):
            assert Kernel(EVEN_BUMP, eps).normalization == 1.0 / (eps * _Z1)
            assert Kernel(ONE_SIDED_LEFT, eps).normalization == 1.0 / (eps * _Z1 / 2.0)
        # exactly proportional to 1/eps: doubling eps halves it to the bit
        assert Kernel(EVEN_BUMP, 0.2).normalization / 2 == Kernel(EVEN_BUMP, 0.4).normalization

    def test_normalization_is_not_an_argument(self):
        # it is always computed; a third argument used to be overwritten silently
        with pytest.raises(TypeError):
            Kernel(EVEN_BUMP, 0.05, 123.0)
        with pytest.raises(TypeError):
            Kernel(EVEN_BUMP, 0.05, normalization=123.0)
        k = Kernel(EVEN_BUMP, 0.05)
        assert k == Kernel(EVEN_BUMP, 0.05) and hash(k) == hash(Kernel(EVEN_BUMP, 0.05))
        assert k != Kernel(EVEN_BUMP, 0.06)

    def test_one_sided_vanishes_right_of_origin(self):
        k = Kernel(ONE_SIDED_LEFT, 0.1)
        for x in (0.0, 1e-12, 0.05, 0.2):
            assert float(k.eval(x)) == 0.0
        assert float(k.eval(-0.05)) > 0.0
        assert float(k.eval(-0.1)) == 0.0

    def test_nonnegative(self, rng):
        for shape in (EVEN_BUMP, ONE_SIDED_LEFT):
            k = Kernel(shape, 0.2)
            assert np.all(k.eval(rng.uniform(-0.5, 0.5, size=200)) >= 0.0)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            Kernel("triangle", 0.1)
        with pytest.raises(ValueError):
            Kernel(EVEN_BUMP, -0.1)


class TestConvolve:
    def test_reproduces_constants(self):
        grid = Grid1D(-1.0, 1.0, 400)
        k = Kernel(EVEN_BUMP, 0.05)
        g = convolve(Field(grid, np.full(400, 2.3)), k)
        # renormalized weights keep constants fixed away from the zero padding
        inner = g.values[50:-50]
        assert np.max(np.abs(inner - 2.3)) < 1e-13

    def test_odd_field_gives_odd_result(self, rng):
        grid = Grid1D(-2.0, 2.0, 600)
        vals = rng.normal(size=300)
        f = Field(grid, np.concatenate([vals, -vals[::-1]]))
        g = convolve(f, Kernel(EVEN_BUMP, 0.1)).values
        assert np.max(np.abs(g + g[::-1])) < 1e-12

    def test_odd_field_zero_at_origin(self, rng):
        # grid with a cell centered exactly at 0
        grid = Grid1D(-2.0, 2.0, 401)
        c = grid.centers
        vals = rng.normal(size=401)
        odd = 0.5 * (vals - vals[::-1])
        g = convolve(Field(grid, odd), Kernel(EVEN_BUMP, 0.1)).values
        assert abs(g[200]) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.sampled_from([EVEN_BUMP, ONE_SIDED_LEFT]),
        n=st.integers(2, 1024),
        cells_per_eps=st.floats(1.5, 60.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(EVEN_BUMP, 512, 15.36, 0)  # eps = 0.06 on 512 cells
    def test_young_bound(self, shape, n, cells_per_eps, seed):
        grid = Grid1D(-1.0, 1.0, n)
        k = Kernel(shape, cells_per_eps * grid.dx)
        f = Field(grid, np.random.default_rng(seed).normal(size=n))
        g = convolve(f, k)
        for p in (1, 2, math.inf):
            assert lp_norm(g, p) <= lp_norm(f, p) * (1 + 1e-13) + 1e-15

    def test_mass_preserved(self, rng):
        grid = Grid1D(-1.0, 1.0, 512)
        k = Kernel(ONE_SIDED_LEFT, 0.05)
        f = Field(grid, rng.normal(size=512))
        f.values[:30] = 0.0
        f.values[-30:] = 0.0  # keep everything away from the zero padding
        g = convolve(f, k)
        assert np.sum(g.values) == pytest.approx(np.sum(f.values), abs=1e-11)

    def test_reflection_equivariance(self, rng):
        grid = Grid1D(-1.0, 1.0, 512)
        k = Kernel(EVEN_BUMP, 0.08)
        f = Field(grid, rng.normal(size=512))
        lhs = convolve(Field(grid, f.values[::-1].copy()), k).values
        rhs = convolve(f, k).values[::-1]
        # identical up to summation order (same terms, reversed accumulation)
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    @settings(max_examples=100, deadline=None)
    @given(
        cells_and_cut=_cells_and_cut(),
        cells_per_eps=st.floats(1.5, 60.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example((400, 20), 10.0, 0)  # eps = 0.05 on 400 cells
    @example((400, 200), 10.0, 0)
    @example((400, 390), 10.0, 0)
    def test_right_dependence_bit_exact(self, cells_and_cut, cells_per_eps, seed):
        # the one-sided kernel reads only to the right: redrawing the cells
        # left of i leaves every value from i on unchanged, bit for bit
        n, i = cells_and_cut
        grid = Grid1D(-1.0, 1.0, n)
        k = Kernel(ONE_SIDED_LEFT, cells_per_eps * grid.dx)
        rng = np.random.default_rng(seed)
        f = Field(grid, rng.normal(size=n))
        mod = f.values.copy()
        mod[:i] = rng.normal(size=i)
        g, g2 = convolve(f, k).values, convolve(Field(grid, mod), k).values
        assert np.array_equal(g[i:], g2[i:])

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.sampled_from([EVEN_BUMP, ONE_SIDED_LEFT]),
        eps=st.floats(0.03, 0.3),
        n=st.integers(400, 1200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mollification_error_bound(self, shape, eps, n, seed):
        # ||v - v*eta||_p <= eps ||v'||_p, the bound behind the viscous
        # convergence argument, on a mollified random field. v' is the
        # forward difference of v extended by zero past both walls; the
        # sampled kernel reaches ceil(eps/dx) cells, at most eps + dx, which
        # the 5 dx/eps allowance covers
        grid = Grid1D(-2.0, 2.0, n)
        k = Kernel(shape, eps)
        v = convolve(Field(grid, np.random.default_rng(seed).normal(size=n)), k)
        dv = np.diff(v.values, prepend=0.0, append=0.0) / grid.dx
        for p in (2, 4):
            lhs = lp_norm(Field(grid, v.values - convolve(v, k).values), p)
            dv_norm = float(np.sum(np.abs(dv) ** p) * grid.dx) ** (1.0 / p)
            assert lhs <= eps * dv_norm * (1.0 + 5.0 * grid.dx / eps)

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from([EVEN_BUMP, ONE_SIDED_LEFT]),
        n=st.integers(2, 3 * _BLOCK + 20),
        length=st.floats(0.1, 10.0),
        cells_per_eps=st.floats(1.5, 150.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(EVEN_BUMP, 2, 1.0, 7.5, 0)  # kernel reach J = 8 >= n
    @example(EVEN_BUMP, 40, 1.0, 1.0, 1)  # a single nonzero tap
    @example(ONE_SIDED_LEFT, 3 * _BLOCK + 1, 2.0, 40.0, 2)
    def test_matches_direct_sum_within_rounding(self, shape, n, length, cells_per_eps, seed):
        # oracle: g_i = sum_j w_j f_{i-j} over the zero-padded field, the
        # rounded products summed exactly; a dot product of the L nonzero
        # taps may differ from it by the rounding bound 2 L u sum |w_j f_{i-j}|
        grid = Grid1D(0.0, length, n)
        k = Kernel(shape, cells_per_eps * grid.dx)
        f = np.random.default_rng(seed).normal(size=n)
        w, J = _weights(k, grid.dx)
        nz = np.flatnonzero(w)
        L = nz[-1] - nz[0] + 1
        padded = np.concatenate([np.zeros(J), f, np.zeros(J)])
        terms = sliding_window_view(padded, 2 * J + 1) * w[::-1]  # row i: w_j f_{i-j}
        g = convolve(Field(grid, f), k).values
        for gi, row in zip(g, terms):
            assert abs(gi - math.fsum(row)) <= 2 * L * 2.0**-53 * math.fsum(np.abs(row))

    def test_under_resolved_kernel_rejected(self):
        grid = Grid1D(-1.0, 1.0, 10)
        with pytest.raises(ValueError, match="under-resolved"):
            convolve(Field(grid, np.ones(10)), Kernel(EVEN_BUMP, 0.05))


class TestWeights:
    def test_memoized_read_only(self):
        k = Kernel(EVEN_BUMP, 0.05)
        w, J = _weights(k, 0.01)
        assert _weights(k, 0.01)[0] is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[J] = 1.0

    def test_blocks_memoized_read_only(self):
        k = Kernel(ONE_SIDED_LEFT, 0.05)
        W, _ = _toeplitz_blocks(k, 0.01)
        assert _toeplitz_blocks(k, 0.01)[0] is W
        assert not W.flags.writeable
        with pytest.raises(ValueError):
            W[0, 0, 0] = 1.0

    def test_one_kernel_at_two_dx(self, rng):
        # weights memoized for one grid must not serve the other
        k = Kernel(ONE_SIDED_LEFT, 0.05)
        fields = [Field(Grid1D(-1.0, 1.0, n), rng.normal(size=n)) for n in (200, 400)]
        fresh = []
        for f in fields:
            _weights.cache_clear()
            _toeplitz_blocks.cache_clear()
            fresh.append(convolve(f, k).values.tobytes())
        for _ in range(2):
            for f, ref in zip(fields, fresh):
                assert convolve(f, k).values.tobytes() == ref


class TestConvolveParticles:
    def test_single_particle_at_origin(self):
        eps = 0.05
        k = Kernel(EVEN_BUMP, eps)
        # derived: normalization z from quadrature, peak = exp(-1) / (z eps)
        z, _ = quad(lambda s: math.exp(-1.0 / (1.0 - s * s)) if abs(s) < 1 else 0.0, -1, 1)
        expect = math.exp(-1.0) / (z * eps)
        got = convolve_particles(np.array([0.0]), np.array([1.0]), k, 0.0)
        assert got == pytest.approx(expect, rel=1e-9)
        assert got == pytest.approx(float(k.eval(0.0)), rel=1e-13)

    def test_zero_outside_reach(self, rng):
        k = Kernel(EVEN_BUMP, 0.05)
        X = np.sort(rng.uniform(-1, 1, size=40))
        m = rng.random(40)
        assert convolve_particles(X, m, k, 1.5) == 0.0
        assert convolve_particles(X, m, k, -1.2) == 0.0

    def test_one_sided_ignores_left_particles(self, rng):
        k = Kernel(ONE_SIDED_LEFT, 0.1)
        X = np.array([-0.5, -0.2, 0.1, 0.15])
        m = np.array([0.3, 0.4, 0.2, 0.1])
        x = 0.05
        v = convolve_particles(X, m, k, x)
        X2 = X.copy()
        X2[:2] = [-0.9, -0.6]  # move strictly-left particles around
        m2 = m.copy()
        m2[:2] = [1.7, 2.9]
        v2 = convolve_particles(X2, m2, k, x)
        assert v == v2

    def test_matches_dense_field_convolution(self, rng):
        # particle quadrature of the convolution vs the grid convolution
        grid = Grid1D(-1.0, 1.0, 2000)
        k = Kernel(EVEN_BUMP, 0.1)
        v = np.exp(-8 * grid.centers**2)
        f = Field(grid, v)
        g = convolve(f, k).values
        m = v * grid.dx
        at = np.array([-0.3, 0.0, 0.4])
        pv = convolve_particles(grid.centers, m, k, at)
        gv = np.interp(at, grid.centers, g)
        assert np.allclose(pv, gv, atol=2e-4)


    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.sampled_from([EVEN_BUMP, ONE_SIDED_LEFT]),
        eps=st.floats(0.02, 0.5),
        n_atoms=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        queries=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40),
    )
    @example(EVEN_BUMP, 0.1, 25, 0, list(np.linspace(-5.0, 5.0, 41)))
    @example(ONE_SIDED_LEFT, 0.1, 25, 1, list(np.linspace(-5.0, 5.0, 41)))
    def test_slope_sum_matches_kernel_derivative(self, shape, eps, n_atoms, seed, queries):
        # reference: per-atom |eta'| in closed form, which central differences
        # of Kernel.eval confirm at the peak below; near the support edge the
        # differences themselves drift (1.9e-4 high at s = 0.9946, eps = 0.5).
        # Atoms spread over 3 eps, query points in units of eps around them
        k = Kernel(shape, eps)
        rng = np.random.default_rng(seed)
        X = np.unique(rng.uniform(-1.5 * eps, 1.5 * eps, size=n_atoms))
        m = rng.uniform(-1.0, 1.0, size=X.size)
        x = eps * np.array(queries)
        conv, slope = convolve_particles_slope(X, m, k, x)
        assert np.array_equal(conv, convolve_particles(X, m, k, x))
        expect = deriv_abs(k, x[:, None] - X[None, :]) @ np.abs(m)
        assert np.max(np.abs(slope - expect)) <= 1e-6 * np.max(expect)
        # the local bound never exceeds the global one, sum |m_j| * sup|eta_eps'|
        sup = deriv_sup(k)
        assert np.all(slope <= np.sum(np.abs(m)) * sup * (1.0 + 1e-12))
        # the closed form is attained at the peak of |eta_eps'|
        s_peak = 3.0**-0.25
        x_peak = eps * s_peak if shape == EVEN_BUMP else 0.5 * eps * (s_peak - 1.0)
        h = 1e-6 * eps
        peak = (k.eval(x_peak + h) - k.eval(x_peak - h)) / (2.0 * h)
        assert abs(peak) == pytest.approx(sup, rel=1e-6)
        assert deriv_abs(k, x_peak) == pytest.approx(sup, rel=1e-14)


def deriv_abs(k: Kernel, x) -> np.ndarray:
    """|eta_eps'(x)| in closed form: (ds/dx) 2|s| exp(-1/(1-s^2)) / (1-s^2)^2 for
    |s| < 1, else 0, with s = x/eps (even bump) or 2x/eps + 1 (one-sided)."""
    c = 2.0 if k.shape == ONE_SIDED_LEFT else 1.0
    s = c * np.asarray(x, dtype=float) / k.epsilon + (c - 1.0)
    inside = np.abs(s) < 1.0
    q = np.where(inside, 1.0 - s * s, 1.0)
    d = k.normalization * c / k.epsilon * 2.0 * np.abs(s) * np.exp(-1.0 / q) / (q * q)
    return np.where(inside, d, 0.0)


def deriv_sup(k: Kernel) -> float:
    """sup |eta_eps'| in closed form.

    |d/ds exp(-1/(1-s^2))| = 2|s| exp(-1/(1-s^2)) / (1-s^2)^2 peaks where
    s^4 = 1/3; ds/dx is 1/eps for the even bump and 2/eps for the one-sided
    one, whose support is half as wide.
    """
    s = 3.0**-0.25
    q = 1.0 - s * s
    sup = k.normalization / k.epsilon * 2.0 * s * math.exp(-1.0 / q) / (q * q)
    return 2.0 * sup if k.shape == ONE_SIDED_LEFT else sup


KERNELS = {
    (shape, eps): Kernel(shape, eps)
    for shape in (EVEN_BUMP, ONE_SIDED_LEFT)
    for eps in (0.05, 0.3)
}


def atom_terms(X, m, k, x):
    """The rounded per-atom terms of both sums at x over the atoms in reach.

    Each term is computed on its own, from the bump argument in the scaled
    coordinates the sums use: s = (x c/eps + c - 1) - X_j c/eps, c = 2 for
    the one-sided kernel and 1 for the even one. Returns the conv terms
    m_j exp(-1/t), the slope terms |m_j| |s| exp(-1/t)/t^2 (t = 1 - s^2;
    both 0 where t <= 0) and the masses of the atoms with t <= 1/700, whose
    terms the sums drop.
    """
    lo, hi = k.support
    c = 2.0 if k.shape == ONE_SIDED_LEFT else 1.0
    j = (X >= x - hi) & (X <= x - lo)
    s = (x * (c / k.epsilon) + (c - 1.0)) - X[j] * (c / k.epsilon)
    t = 1.0 - s * s
    inside = t > 0.0
    tt = np.where(inside, t, 1.0)
    g = np.where(inside, np.exp(-1.0 / tt), 0.0)
    conv = g * m[j]
    slope = np.abs(s) * (g / (tt * tt)) * np.abs(m[j])
    return conv, slope, m[j][t <= 1.0 / 700.0]


@st.composite
def atoms_and_queries(draw):
    """Sorted atoms (sparse ones plus a dense cluster of varying density),
    signed masses and query points on, off and away from the atoms."""
    sparse = draw(st.lists(st.floats(-1.0, 1.0), max_size=30))
    n_dense = draw(st.integers(0, 400))
    centre = draw(st.floats(-0.5, 0.5))
    spread = draw(st.floats(1e-4, 0.3))
    dense = centre + spread * np.linspace(-1.0, 1.0, n_dense) ** 3
    X = np.unique(np.concatenate([np.array(sparse), dense]))
    if X.size == 0:
        X = np.array([0.0])
    seed = draw(st.integers(0, 2**32 - 1))
    m = np.random.default_rng(seed).uniform(-1.0, 1.0, X.size)
    where = draw(st.sampled_from(["positions", "off", "scalar", "two", "empty"]))
    if where == "positions":
        xq = X.copy()
    elif where == "off":
        xq = X + draw(st.floats(-0.4, 0.4))
    elif where == "scalar":
        xq = draw(st.floats(-1.5, 1.5))
    elif where == "two":
        xq = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2)))
    else:  # no atom in reach of any point
        xq = X[-1] + 2.0 + np.arange(draw(st.integers(1, 5)), dtype=float)
    return X, m, xq


def exp_arguments(monkeypatch):
    """Patch np.exp to record the smallest argument of every call."""
    lowest, exp = [], np.exp

    def spy(x, *args, **kwargs):
        lowest.append(float(np.min(x)) if np.size(x) else 0.0)
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    return lowest


def compressed_odd_ensemble(n):
    """A ce1-like ensemble late in the run: odd masses +-1/n on (-1, 1), the
    positions compressed towards the origin, where hundreds of atoms fall
    within the reach of an eps = 0.05 kernel."""
    y = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    return y * y * y, np.where(y < 0.0, 1.0, -1.0) / n


class TestAtomSums:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([EVEN_BUMP, ONE_SIDED_LEFT]),
        eps=st.sampled_from([0.05, 0.3]),
        case=atoms_and_queries(),
    )
    @example(EVEN_BUMP, 0.05, (np.array([0.0]), np.array([1.0]), 0.0))
    @example(EVEN_BUMP, 0.05, (np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.array([0.0, 0.5])))
    @example(
        ONE_SIDED_LEFT,
        0.3,
        (np.linspace(-0.2, 0.2, 300), np.linspace(-1.0, 1.0, 300), np.array([0.1, 0.0])),
    )
    def test_matches_exact_sum_within_rounding(self, shape, eps, case):
        # oracle: math.fsum of the rounded per-atom terms in reach. Summing
        # w of them in another order, the dot product's fused multiply-add
        # and the normalization stay within 2 w u sum |terms| (u = 2^-53);
        # a dropped edge term is below exp(-700) |m_j| for conv and, as
        # exp(-1/t)/t^2 grows for t < 1/2, below 700^2 exp(-700) |m_j| for
        # the slope. A point with no atom in reach reads exactly 0.0
        X, m, xq = case
        k = KERNELS[shape, eps]
        c = 2.0 if shape == ONE_SIDED_LEFT else 1.0
        conv = convolve_particles(X, m, k, xq)
        if np.ndim(xq) == 0:
            assert isinstance(conv, float)
        conv2, slope = convolve_particles_slope(X, m, k, xq)
        assert np.atleast_1d(conv).tobytes() == conv2.tobytes()
        u, edge = 2.0**-53, math.exp(-700.0)
        for x, got, got_slope in zip(np.atleast_1d(xq), conv2, slope):
            terms, slope_terms, dropped = atom_terms(X, m, k, x)
            w = terms.size
            if w == 0:
                assert got == 0.0 and got_slope == 0.0
            drop = edge * math.fsum(np.abs(dropped))
            norm = k.normalization
            assert abs(got - math.fsum(terms) * norm) <= (
                2 * w * u * math.fsum(np.abs(terms)) + drop
            ) * norm
            norm = k.normalization * 2.0 * c / eps
            assert abs(got_slope - math.fsum(slope_terms) * norm) <= (
                2 * w * u * math.fsum(slope_terms) + 700.0**2 * drop
            ) * norm

    @settings(max_examples=30, deadline=None)
    @given(eps=st.sampled_from([0.05, 0.3]), case=atoms_and_queries())
    def test_one_sided_rightmost_atom_is_pinned(self, eps, case):
        # nothing lies right of the rightmost atom, and its own term sits at
        # the support edge: its velocity is exactly 0.0, as ce2's confinement
        # needs, whatever the rounding of the scaled coordinates
        X, m, _ = case
        k = KERNELS[ONE_SIDED_LEFT, eps]
        conv, slope = convolve_particles_slope(X, m, k, X)
        assert conv[-1] == 0.0 and slope[-1] == 0.0
        assert convolve_particles(X[-1:], m[-1:], k, X[-1]) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from([EVEN_BUMP, ONE_SIDED_LEFT]),
        eps=st.sampled_from([0.05, 0.3]),
        case=atoms_and_queries(),
    )
    def test_exp_stays_on_its_fast_path(self, shape, eps, case):
        # np.exp is several times slower below -700, where its result nears
        # the denormals, and one such lane slows its whole SIMD vector: no
        # argument may fall below -700, out of reach or at the support edge
        X, m, xq = case
        with pytest.MonkeyPatch.context() as mp:
            lowest = exp_arguments(mp)
            convolve_particles_slope(X, m, KERNELS[shape, eps], xq)
            convolve_particles(X, m, KERNELS[shape, eps], xq)
        assert min(lowest, default=0.0) >= -700.0

    def test_exp_stays_on_its_fast_path_in_a_compressed_ensemble(self, monkeypatch):
        X, m = compressed_odd_ensemble(1200)
        k = KERNELS[EVEN_BUMP, 0.05]
        lowest = exp_arguments(monkeypatch)
        conv, slope = convolve_particles_slope(X, m, k, X)
        assert lowest and min(lowest) >= -700.0
        assert np.all(np.isfinite(conv)) and np.max(slope) > 0.0


class TestHeatKernel:
    def test_unit_mass(self):
        for d in (1, 2, 3):
            spec = HeatKernelSpec(nu=0.23, dim=d)
            for t in (0.01, 0.5, 2.0):
                assert heat_kernel_l1_norm(spec, t) == pytest.approx(1.0, abs=1e-8)

    def test_exponent_values(self):
        spec = HeatKernelSpec(nu=1.0, dim=1)
        assert grad_lq_exponent(spec, 2.0) == pytest.approx(-0.75)
        assert grad_lq_exponent(spec, 4.0 / 3.0) == pytest.approx(-0.625)

    def test_gradient_norm_scaling(self):
        # log-log slope in t of the gradient L^q norm matches the exponent
        for q, alpha in ((2.0, -0.75), (4.0 / 3.0, -0.625)):
            spec = HeatKernelSpec(nu=0.7, dim=1)
            ts = np.geomspace(1e-3, 1.0, 7)
            ns = [heat_kernel_grad_lq_norm(spec, t, q) for t in ts]
            slope = np.polyfit(np.log(ts), np.log(ns), 1)[0]
            assert slope == pytest.approx(alpha, rel=0.02)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("t", [1e-3, 0.01, 0.5, 2.0])
    def test_norms_match_the_closed_form(self, d, t):
        # ||grad G||_q^q = |S^(d-1)| (2s)^(-q) (4 pi s)^(-dq/2) Gamma((d+q)/2)
        # / (2 (q/4s)^((d+q)/2)), s = nu t: the radial integral of
        # r^(d-1+q) exp(-q r^2/4s), an oracle independent of any quadrature
        spec = HeatKernelSpec(nu=0.7, dim=d)
        s = spec.nu * t
        sphere = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        assert heat_kernel_l1_norm(spec, t) == pytest.approx(1.0, rel=1e-7)
        for q in (2.0, 1.5, 4.0 / 3.0):
            closed = (sphere * (2 * s) ** -q * (4 * math.pi * s) ** (-d * q / 2)
                      * math.gamma((d + q) / 2) / (2 * (q / (4 * s)) ** ((d + q) / 2)))
            assert heat_kernel_grad_lq_norm(spec, t, q) == pytest.approx(closed ** (1 / q),
                                                                         rel=1e-7)

    def test_rejects_bad_time(self):
        spec = HeatKernelSpec(nu=1.0, dim=1)
        with pytest.raises(ValueError):
            heat_kernel_eval(spec, 0.0, 0.1)

    def test_pointwise_formula(self):
        spec = HeatKernelSpec(nu=2.0, dim=1)
        t, x = 0.3, 0.4
        s = spec.nu * t
        expect = math.exp(-x * x / (4 * s)) / math.sqrt(4 * math.pi * s)
        assert heat_kernel_eval(spec, t, x) == pytest.approx(expect, rel=1e-13)
