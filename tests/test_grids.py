import csv
import io
import math

import numpy as np
import pytest
from scipy.integrate import quad

from nclaw.data import odd_datum, step_datum
from nclaw.grids import (
    Field,
    Grid1D,
    baricenter,
    entropy_functional,
    field_to_csv,
    lp_norm,
    snap_window,
    window_mass,
)
from nclaw.local_entropy import ExactSolution, sample_exact


def hat_field(grid):
    # tent on [0, 1], peak 1 at 0.5; kinks on cell edges so center sampling
    # is the exact cell average
    c = grid.centers
    v = np.maximum(0.0, 1.0 - 2.0 * np.abs(c - 0.5))
    v[(c < 0.0) | (c > 1.0)] = 0.0
    return Field(grid, v)


class TestLpNorm:
    def test_unit_constant_on_unit_interval(self):
        for n in (2, 7, 64, 501):
            f = Field(Grid1D(0.0, 1.0, n), np.ones(n))
            assert lp_norm(f, 2) == pytest.approx(1.0, abs=1e-14)

    def test_step_datum_l1(self):
        grid = Grid1D(-3.0, 2.0, 1000)
        assert lp_norm(step_datum(grid), 1) == pytest.approx(1.0, abs=1e-13)

    def test_hat_l1_matches_quadrature_oracle(self):
        # oracle: adaptive quadrature of the tent profile
        oracle, _ = quad(lambda x: max(0.0, 1.0 - 2.0 * abs(x - 0.5)), 0.0, 1.0)
        assert oracle == pytest.approx(0.5, abs=1e-12)
        grid = Grid1D(0.0, 1.0, 128)
        assert lp_norm(hat_field(grid), 1) == pytest.approx(oracle, abs=1e-13)

    def test_sup_norm(self):
        grid = Grid1D(0.0, 1.0, 10)
        f = Field(grid, np.linspace(-3.0, 2.0, 10))
        assert lp_norm(f, math.inf) == 3.0

    def test_homogeneity(self, rng):
        grid = Grid1D(-1.0, 2.0, 257)
        for _ in range(100):
            v = rng.normal(size=257)
            c = float(rng.normal() * 5)
            for p in (1, 1.5, 2, 4, math.inf):
                assert lp_norm(Field(grid, c * v), p) == pytest.approx(
                    abs(c) * lp_norm(Field(grid, v), p), rel=1e-12, abs=1e-300
                )

    def test_rejects_bad_p(self):
        f = Field(Grid1D(0, 1, 4), np.ones(4))
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    def test_rejects_non_finite(self):
        f = Field(Grid1D(0, 1, 4), np.ones(4))
        f.values[2] = np.inf
        with pytest.raises(ValueError, match="corrupt field"):
            lp_norm(f, 1)


class TestWindowMass:
    def test_odd_datum_left_window(self):
        # the zero completion outside |x| > 1 makes the left half-line mass 1
        grid = Grid1D(-4.5, 4.5, 1800)
        assert window_mass(odd_datum(grid), -4.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_full_domain_equals_l1_for_nonneg(self, rng):
        grid = Grid1D(-2.0, 2.0, 320)
        f = Field(grid, np.abs(rng.normal(size=320)))
        assert window_mass(f, -2.0, 2.0) == pytest.approx(lp_norm(f, 1), abs=1e-13)

    def test_exact_odd_solution_window_at_validity_end(self):
        grid = Grid1D(-4.5, 4.5, 9000)
        f = sample_exact(ExactSolution("odd"), 0.25, grid)
        assert window_mass(f, -4.0, 0.0) == pytest.approx(0.75, abs=1e-6)

    def test_additivity(self, rng):
        grid = Grid1D(-1.0, 1.0, 500)
        for _ in range(100):
            f = Field(grid, rng.normal(size=500))
            m = int(rng.integers(1, 499))
            mid = grid.x_min + m * grid.dx
            lhs = window_mass(f, -1.0, 1.0)
            rhs = window_mass(f, -1.0, mid) + window_mass(f, mid, 1.0)
            assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_snap_offsets_reported(self):
        # each end snaps to its nearest edge: [0.33, 0.68] covers [0.3, 0.7]
        grid = Grid1D(0.0, 1.0, 10)
        i_lo, i_hi = snap_window(grid, 0.33, 0.68)
        assert abs(grid.edges[i_lo] - 0.33) <= grid.dx / 2
        assert abs(grid.edges[i_hi] - 0.68) <= grid.dx / 2
        m = window_mass(Field(grid, np.ones(10)), 0.33, 0.68)
        assert m == pytest.approx(0.7 - 0.3, abs=1e-13)

    def test_rejects_outside_window(self):
        grid = Grid1D(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            window_mass(Field(grid, np.ones(10)), -0.5, 0.5)

    def test_snap_window_bounds(self):
        grid = Grid1D(0.0, 1.0, 10)
        i_lo, i_hi = snap_window(grid, 0.0, 1.0)
        assert (i_lo, i_hi) == (0, 10)

    @pytest.mark.parametrize("a, b", [(0.0, 0.02), (0.98, 1.0)])
    def test_window_snapped_empty_at_a_wall_keeps_one_cell(self, a, b):
        # a sub-cell window widens by one cell toward the interior, at the
        # right wall as at the left one
        grid = Grid1D(0.0, 1.0, 10)
        i_lo, i_hi = snap_window(grid, a, b)
        assert 0 <= i_lo < i_hi <= grid.n_cells
        assert window_mass(Field(grid, np.ones(10)), a, b) == pytest.approx(0.1, abs=1e-15)


class TestEntropy:
    def test_indicator_is_zero(self):
        grid = Grid1D(-3.0, 2.0, 1000)
        assert entropy_functional(step_datum(grid)) == 0.0

    def test_constant_e_on_unit_interval(self):
        grid = Grid1D(0.0, 1.0, 200)
        f = Field(grid, np.full(200, math.e))
        assert entropy_functional(f) == pytest.approx(math.e, rel=1e-12)

    def test_exact_solution_at_half_matches_quadrature_oracle(self):
        # oracle: quadrature of phi(u(t,x)) over the ramp; the plateau at
        # value 1 contributes nothing
        t = 0.5
        ramp = lambda x: (x + 1.0) / (2.0 * t)
        oracle, _ = quad(lambda x: ramp(x) * math.log(ramp(x)), -1.0 + 1e-14, 2 * t - 1.0)
        assert oracle == pytest.approx(-t / 2.0, abs=1e-9)
        grid = Grid1D(-2.0, 2.0, 20000)
        f = sample_exact(ExactSolution("step"), t, grid)
        assert entropy_functional(f) == pytest.approx(oracle, abs=2e-4)

    def test_zero_one_valued_fields_exact_zero(self, rng):
        grid = Grid1D(-1.0, 1.0, 400)
        for _ in range(50):
            v = (rng.random(400) < 0.3).astype(float)
            assert entropy_functional(Field(grid, v)) == 0.0

    def test_jensen_lower_bound(self, rng):
        # entropy >= mass * ln(mass / support_length) for nonnegative fields
        grid = Grid1D(0.0, 2.0, 256)
        for _ in range(100):
            f = Field(grid, np.abs(rng.normal(size=256)) + 1e-12)
            mass = lp_norm(f, 1)
            bound = mass * math.log(mass / 2.0)
            assert entropy_functional(f) >= bound - 1e-10

    def test_rejects_negative_density(self):
        grid = Grid1D(0.0, 1.0, 8)
        with pytest.raises(ValueError, match="negative density"):
            entropy_functional(Field(grid, -0.5 * np.ones(8)))

    def test_clamps_round_off_undershoot(self):
        grid = Grid1D(0.0, 1.0, 8)
        v = np.ones(8)
        v[3] = -1e-12
        assert math.isfinite(entropy_functional(Field(grid, v)))


class TestBaricenter:
    def test_even_bump_is_centered(self):
        grid = Grid1D(-2.0, 2.0, 800)
        v = np.exp(-grid.centers**2)
        assert abs(baricenter(Field(grid, v))) < 1e-12

    def test_step_datum(self):
        grid = Grid1D(-3.0, 2.0, 2000)
        assert baricenter(step_datum(grid)) == pytest.approx(-0.5, abs=1e-12)

    def test_exact_solution_matches_quadrature_oracle(self):
        t = 0.5
        ramp = lambda x: x * (x + 1.0) / (2.0 * t)
        part1, _ = quad(ramp, -1.0, 2 * t - 1.0)
        part2, _ = quad(lambda x: x, 2 * t - 1.0, t)
        oracle = part1 + part2
        assert oracle == pytest.approx(-(t**2) / 6.0 + t - 0.5, abs=1e-10)
        grid = Grid1D(-2.0, 2.0, 20000)
        f = sample_exact(ExactSolution("step"), t, grid)
        assert baricenter(f) == pytest.approx(oracle, abs=1e-4)


class TestSerialization:
    def test_csv_header_and_shape(self, tmp_path, rng):
        grid = Grid1D(0.0, 1.0, 5)
        f = Field(grid, rng.normal(size=5))
        p = tmp_path / "f.csv"
        field_to_csv(f, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 6
        x0, u0 = lines[1].split(",")
        assert float(x0) == pytest.approx(grid.centers[0])
        assert float(u0) == f.values[0]  # repr round-trips exactly

    def test_csv_bytes_match_the_csv_module(self, tmp_path, rng):
        # the run records were written row by row with csv.writer; the bytes must not move
        grid = Grid1D(-4.5, 4.5, 900)
        values = rng.normal(size=900) * 10.0 ** rng.integers(-300, 300, size=900)
        values[:4] = [-0.0, 0.0, 5e-324, -1.5]
        for scale in (1.0, -3.0):  # two states on one grid reuse its x column
            f = Field(grid, scale * values)
            ref = io.StringIO(newline="")
            w = csv.writer(ref)
            w.writerow(["x", "u"])
            for x, u in zip(grid.centers, f.values):
                w.writerow([repr(float(x)), repr(float(u))])
            field_to_csv(f, tmp_path / "f.csv")
            assert (tmp_path / "f.csv").read_bytes() == ref.getvalue().encode()


class TestGridValidation:
    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 16)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 1)

    def test_cell_centers(self):
        g = Grid1D(0.0, 1.0, 4)
        assert np.allclose(g.centers, [0.125, 0.375, 0.625, 0.875])
