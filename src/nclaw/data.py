"""Catalogued initial data, cell-averaged exactly onto any grid.

The two discontinuous data are the workhorses of the counterexample runs:

* step datum: the indicator of (-1, 0);
* odd datum: +1 on (-1, 0), -1 on (0, 1), zero elsewhere (the simplest odd
  BV completion - the region 1 < |x| < 2 is set to zero, which keeps the
  standing shock at the origin and makes the half-line mass equal to 1).
"""

from __future__ import annotations

import math

import numpy as np

from .grids import Field, Grid1D

__all__ = ["step_datum", "odd_datum", "gaussian_datum", "indicator_field"]

# the fewest cells a Gaussian's width may span: at 2 or fewer, visc's distances
# read 1.98-2.00 (disjoint masses) at dx, dx/2 and dx/4, which its gate passes
_MIN_WIDTH_CELLS = 4


def _interval_overlap(grid: Grid1D, a: float, b: float) -> np.ndarray:
    """Length of the overlap of (a, b) with each cell.

    Overlaps within 1e-12 dx of empty or full are snapped, so grids whose
    edges align with (a, b) get exactly {0, dx}-valued overlaps.
    """
    e = grid.edges
    lo = np.maximum(e[:-1], a)
    hi = np.minimum(e[1:], b)
    ov = np.maximum(hi - lo, 0.0)
    dx = grid.dx
    ov[ov < 1e-12 * dx] = 0.0
    ov[np.abs(ov - dx) < 1e-12 * dx] = dx
    return ov


def indicator_field(grid: Grid1D, a: float, b: float, value: float = 1.0) -> Field:
    """Exact cell averages of value * indicator(a, b)."""
    return Field(grid, value * _interval_overlap(grid, a, b) / grid.dx)


def step_datum(grid: Grid1D) -> Field:
    """Indicator of (-1, 0), cell-averaged."""
    return indicator_field(grid, -1.0, 0.0)


def odd_datum(grid: Grid1D) -> Field:
    """+1 on (-1, 0), -1 on (0, 1), zero outside; cell-averaged."""
    v = _interval_overlap(grid, -1.0, 0.0) - _interval_overlap(grid, 0.0, 1.0)
    return Field(grid, v / grid.dx)


def gaussian_datum(
    grid: Grid1D, mass: float = 1.0, width: float = 0.3, center: float = 0.0
) -> Field:
    """Gaussian bump with the given total mass and standard deviation.

    Cell averages are exact (erf differences, ``math.erf`` of each edge,
    which from Python 3.11 on is the C library's erf: the last bit of a
    value may differ between C libraries). The tails are truncated by the
    grid; pick the domain so they are negligible. A width that is not
    positive and finite is refused: a negative one gives mass -mass. So is
    one of fewer than 4 cells, too narrow for the grid to resolve.
    """
    if not (width > 0.0 and math.isfinite(width)):
        raise ValueError(f"width={width} must be positive and finite")
    if width < _MIN_WIDTH_CELLS * grid.dx:
        raise ValueError(f"width={width} spans {width / grid.dx:.3g} cells of dx={grid.dx:.4g}, "
                         f"fewer than {_MIN_WIDTH_CELLS}: the datum is not resolved")
    e = (grid.edges - center) / (width * math.sqrt(2.0))
    cdf = 0.5 * (1.0 + np.fromiter(map(math.erf, e), float, e.size))
    return Field(grid, mass * np.diff(cdf) / grid.dx)
