"""Uniform 1D grids, cell-averaged fields, and the scalar functionals built on them.

Fields are finite-volume style: one value per cell, interpreted as the cell
average of a compactly supported profile. Everything outside [x_min, x_max]
is identically zero by contract, so domains must be chosen large enough that
nothing of interest ever reaches the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid1D",
    "Field",
    "lp_norm",
    "window_mass",
    "snap_window",
    "entropy_functional",
    "baricenter",
    "support_bounds",
    "field_to_csv",
]

# Fields whose values dip below -NEG_TOL are rejected by entropy_functional;
# anything in [-NEG_TOL, 0) is treated as scheme round-off and clamped to 0.
NEG_TOL = 1e-10


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell grid on [x_min, x_max] with n_cells cells.

    Cell centers sit at x_min + (i + 1/2) * dx, edges at x_min + i * dx.
    """

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if self.x_min >= self.x_max:
            raise ValueError(f"x_min={self.x_min} must be < x_max={self.x_max}")
        if self.n_cells < 2:
            raise ValueError(f"n_cells={self.n_cells} must be >= 2")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def edges(self) -> np.ndarray:
        return self.x_min + np.arange(self.n_cells + 1) * self.dx


@dataclass
class Field:
    """Cell-averaged scalar field on a Grid1D, tagged with its simulation time."""

    grid: Grid1D
    values: np.ndarray
    time_stamp: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells,):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"n_cells={self.grid.n_cells}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("corrupt field: non-finite values")


def _check_finite(f: Field):
    if not np.all(np.isfinite(f.values)):
        raise ValueError("corrupt field: non-finite values")


def lp_norm(f: Field, p: float) -> float:
    """Discrete L^p norm of a cell-averaged field.

    Returns (sum |v_i|^p dx)^(1/p), or max |v_i| for p = inf. Exact for
    piecewise-constant profiles aligned with the grid.
    """
    _check_finite(f)
    if p == math.inf:
        return float(np.max(np.abs(f.values))) if f.values.size else 0.0
    if p < 1:
        raise ValueError(f"p={p} must be >= 1 or inf")
    a = np.abs(f.values)
    if p == 1:
        return float(np.sum(a) * f.grid.dx)
    if p == 2:
        return float(math.sqrt(np.sum(a * a) * f.grid.dx))
    return float(np.sum(a**p) * f.grid.dx) ** (1.0 / p)


def snap_window(grid: Grid1D, a: float, b: float) -> tuple[int, int]:
    """Snap [a, b] to the nearest cell edges.

    Returns (i_lo, i_hi): the window covers cells i_lo..i_hi-1. Each end
    moves to its nearest edge, by at most dx/2; a window that would snap to
    empty is widened to one cell.
    """
    if a >= b:
        raise ValueError(f"window [{a}, {b}] is empty")
    if a < grid.x_min - 1e-12 or b > grid.x_max + 1e-12:
        raise ValueError(
            f"window [{a}, {b}] outside grid [{grid.x_min}, {grid.x_max}]"
        )
    dx = grid.dx
    i_lo = int(round((a - grid.x_min) / dx))
    i_hi = int(round((b - grid.x_min) / dx))
    i_lo = max(0, min(i_lo, grid.n_cells))
    i_hi = max(0, min(i_hi, grid.n_cells))
    if i_hi <= i_lo:
        # widen a window that snapped to empty by one cell, inward at x_max
        i_lo = min(i_lo, grid.n_cells - 1)
        i_hi = i_lo + 1
    return i_lo, i_hi


def window_mass(f: Field, a: float, b: float) -> float:
    """Mass of f over the window [a, b], snapped to cell edges."""
    _check_finite(f)
    i_lo, i_hi = snap_window(f.grid, a, b)
    return float(np.sum(f.values[i_lo:i_hi]) * f.grid.dx)


def entropy_functional(f: Field) -> float:
    """Integral of v*ln(v), continuously extended by 0 at v = 0.

    Requires a nonnegative field up to round-off: values below -NEG_TOL raise,
    values in [-NEG_TOL, 0) are clamped to 0 before evaluation.
    """
    _check_finite(f)
    v = f.values
    if np.any(v < -NEG_TOL):
        raise ValueError(
            f"negative density: min value {v.min():.3e} below -{NEG_TOL:.0e}"
        )
    v = np.maximum(v, 0.0)
    pos = v > 0.0
    return float(np.sum(v[pos] * np.log(v[pos])) * f.grid.dx)


def baricenter(f: Field) -> float:
    """First spatial moment sum x_i * v_i * dx (not normalized by mass)."""
    _check_finite(f)
    return float(np.sum(f.grid.centers * f.values) * f.grid.dx)


def support_bounds(f: Field, rel_tol: float = 1e-12) -> tuple[float, float]:
    """Outermost cell edges where |f| exceeds rel_tol * max|f|.

    Returns (x_min, x_min) for an identically zero field.
    """
    scale = float(np.max(np.abs(f.values))) if f.values.size else 0.0
    if scale == 0.0:
        return f.grid.x_min, f.grid.x_min
    nz = np.nonzero(np.abs(f.values) > rel_tol * scale)[0]
    if nz.size == 0:
        return f.grid.x_min, f.grid.x_min
    edges = f.grid.edges
    return float(edges[nz[0]]), float(edges[nz[-1] + 1])


# ---------------------------------------------------------------------------
# serialization

@lru_cache(maxsize=1)
def _center_strings(grid: Grid1D) -> tuple:
    # every state of a trajectory shares one grid: build its x column once
    return tuple(map(repr, grid.centers.tolist()))


def field_to_csv(f: Field, path) -> None:
    """Write the field as CSV with header "x,u" (cell center, value).

    Numbers are the shortest round-trip reprs; lines end in CRLF, as the
    ``csv`` module writes them.
    """
    rows = [f"{x},{u!r}" for x, u in zip(_center_strings(f.grid), f.values.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("x,u\r\n" + "\r\n".join(rows) + "\r\n")
