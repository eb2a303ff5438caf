"""Convolution kernels, discrete convolution, and heat-kernel utilities.

Two concrete kernel shapes are provided, both smooth compactly supported
bumps with unit mass:

* ``even_bump`` - the standard mollifier exp(-1/(1-s^2)) on (-1, 1), even.
* ``one_sided_left`` - the same bump translated to (-1, 0), so that the
  convolution u * eta at a point x only sees the values of u to the *right*
  of x (downstream dependence).

Kernels carry their scale epsilon: eta_eps(x) = (1/eps) * eta(x/eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import Field

__all__ = [
    "Kernel",
    "kernel_eval",
    "convolve",
    "convolve_particles",
    "convolve_particles_slope",
    "HeatKernelSpec",
    "heat_kernel_eval",
    "heat_kernel_grad_eval",
    "grad_lq_exponent",
    "heat_kernel_l1_norm",
    "heat_kernel_grad_lq_norm",
]

EVEN_BUMP = "even_bump"
ONE_SIDED_LEFT = "one_sided_left"

# Z1 = integral of exp(-1/(1-s^2)) over (-1, 1) = 0.443993816168079437823...,
# rounded to the nearest double; the trapezoid rule on 400, 4000 and 40,000
# intervals gives this same double.
_Z1 = 0.4439938161680794


def _bump_profile(s: np.ndarray) -> np.ndarray:
    """Unnormalized even bump exp(-1/(1-s^2)) on |s| < 1, zero outside."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


@dataclass(frozen=True)
class Kernel:
    """A scaled convolution kernel eta_eps of shape ``even_bump`` or ``one_sided_left``.

    The mass of the unnormalized profile is eps * Z1 for the even bump and
    eps * Z1 / 2 for the one-sided one (its support is half as wide), so
    the normalization is exact in closed form and exactly proportional to
    1/eps. Construction verifies unit mass to 1e-12 with the trapezoid rule
    on 400 intervals, which converges faster than any power for this C^inf
    bump.
    """

    shape: str
    epsilon: float
    normalization: float = field(init=False)  # 1/Z in eta(x) = exp(...)/Z

    def __post_init__(self):
        if self.shape not in (EVEN_BUMP, ONE_SIDED_LEFT):
            raise ValueError(f"unknown kernel shape {self.shape!r}")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon={self.epsilon} must be positive")
        # Z = integral of the unnormalized scaled profile over its support.
        z = self.epsilon * _Z1
        if self.shape == ONE_SIDED_LEFT:
            z /= 2.0
        object.__setattr__(self, "normalization", 1.0 / z)
        x = np.linspace(*self.support, 401)
        total = float(np.trapezoid(self.eval(x), x))
        if not abs(total - 1.0) <= 1e-12:  # also rejects a NaN mass
            raise ValueError(f"kernel mass {total} deviates from 1 beyond 1e-12")

    @property
    def support(self) -> tuple[float, float]:
        """Open interval outside of which the kernel vanishes."""
        if self.shape == EVEN_BUMP:
            return (-self.epsilon, self.epsilon)
        return (-self.epsilon, 0.0)

    def _raw(self, x: np.ndarray) -> np.ndarray:
        s = np.asarray(x, dtype=float) / self.epsilon
        if self.shape == EVEN_BUMP:
            return _bump_profile(s)
        return _bump_profile(2.0 * s + 1.0)

    def eval(self, x) -> np.ndarray:
        return self.normalization * self._raw(x)


def kernel_eval(k: Kernel, x: float) -> float:
    """Pointwise value of the scaled kernel eta_eps at x."""
    return float(k.eval(np.array([x]))[0])


@lru_cache(maxsize=8)
def _weights(k: Kernel, dx: float) -> tuple[np.ndarray, int]:
    """Kernel samples at offsets j*dx, renormalized to unit sum.

    Returns (w, J) where w[J + j] is the weight of offset j, j in [-J, J].
    Renormalization makes the discrete convolution reproduce constants and
    preserve total mass exactly; the raw sampling error O((dx/eps)^2) becomes
    a kernel perturbation instead. Memoized per (kernel, dx), since a run
    convolves with one kernel on one grid at every step; w is read-only
    because every caller shares it.
    """
    if k.epsilon < dx:
        raise ValueError(
            f"kernel under-resolved: epsilon={k.epsilon} < dx={dx}"
        )
    J = int(math.ceil(k.epsilon / dx))
    if k.shape == EVEN_BUMP:
        # sample one side and mirror so even symmetry is exact in floats
        right = k.eval(np.arange(J + 1) * dx)
        w = np.concatenate([right[:0:-1], right])
    else:
        w = k.eval(np.arange(-J, J + 1) * dx)
    total = w.sum() * dx
    if total <= 0.0:
        raise ValueError(
            f"kernel under-resolved: no interior samples at dx={dx}"
        )
    w = w * dx / total
    w.flags.writeable = False
    return w, J


_BLOCK = 32  # cells per row of the blocked grid convolution; the fastest of 16-64 overall


@lru_cache(maxsize=8)
def _toeplitz_blocks(k: Kernel, dx: float) -> tuple[np.ndarray, int]:
    """The nonzero taps of ``_weights(k, dx)`` as blocks of a banded Toeplitz matrix.

    Trimming the zero taps at both ends leaves w[lo..hi], L = hi - lo + 1
    taps; h = w[lo..hi] reversed. With the field copied to p[m + shift] = f_m,
    shift = hi - J, the convolution reads g_i = sum_{r < L} h_r p_{i+r}.
    Cut g and p into rows of B = ``_BLOCK`` cells: row b of g is
    sum_{t < q} (row b + t of p) @ W[t], where W[t][d, c] = h[t*B + d - c]
    inside 0 <= t*B + d - c < L and 0 outside, and q = (L + B - 2) // B + 1.

    Returns the read-only (q, B, B) array W and shift, memoized per
    (kernel, dx) beside ``_weights``.
    """
    w, J = _weights(k, dx)
    nz = np.flatnonzero(w)
    lo, hi = int(nz[0]), int(nz[-1])
    h = w[lo : hi + 1][::-1]
    L, B = h.size, _BLOCK
    q = (L + B - 2) // B + 1
    r = (np.arange(q)[:, None, None] * B + np.arange(B)[None, :, None]
         - np.arange(B)[None, None, :])
    W = np.where((r >= 0) & (r < L), h[np.clip(r, 0, L - 1)], 0.0)
    W.flags.writeable = False
    return W, hi - J


def convolve(f: Field, k: Kernel) -> Field:
    """Discrete convolution g_i = sum_j w_j f_{i-j} with zero padding.

    Weights are kernel samples on the grid spacing, renormalized to sum to 1,
    so constants are reproduced and mass is preserved.

    Computed as one banded Toeplitz matrix product over the nonzero taps
    (see ``_toeplitz_blocks``), q block products of (n/B, B) @ (B, B) on
    NumPy's BLAS. Each g_i is a dot product of the same L taps with the
    zero-padded field; the other entries of its column of W are exact
    zeros, so cells outside the kernel's reach change no bit of g_i.
    """
    W, shift = _toeplitz_blocks(k, f.grid.dx)
    q, B, _ = W.shape
    n = f.grid.n_cells
    nb = -(-n // B)
    pad = np.zeros((nb + q - 1) * B)
    start = max(shift, 0)
    src = f.values[start - shift :][: pad.size - start]
    pad[start : start + src.size] = src
    P = pad.reshape(-1, B)
    g = P[:nb] @ W[0]
    for t in range(1, q):
        g += P[t : t + nb] @ W[t]
    return Field(f.grid, g.reshape(-1)[:n], f.time_stamp)


_TINY = 1e-300
_TILE_CELLS = 16384  # query points x atom offsets evaluated per tile


def _tile_ends(count: np.ndarray) -> list[int]:
    """End indices of consecutive tiles of query points, each >= 2 points.

    A tile of rows query points, w the largest reach count among them,
    holds rows x w cells and grows while that stays within ``_TILE_CELLS``.
    A trailing single point joins the tile before it.
    """
    n = count.size
    ends, a = [], 0
    while a < n:
        look = min(n - a, _TILE_CELLS // max(int(count[a]), 1))
        cells = np.maximum.accumulate(count[a : a + look]) * np.arange(1, look + 1)
        b = a + max(2, int(np.searchsorted(cells, _TILE_CELLS, side="right")))
        a = n if n - b < 2 else b
        ends.append(a)
    return ends


def _atom_sums(X, m, k: Kernel, xq, slope: bool):
    """Banded sums over the atoms inside the kernel support of each query point.

    Returns sum_j m_j eta_eps(xq - X_j) and, if ``slope``, also
    sum_j |m_j| |eta_eps'(xq - X_j)|, with one exp per pair and the
    normalization applied once at the end.

    Consecutive query points are evaluated together as one tile (see
    ``_tile_ends``), a (w, rows) array whose column i holds the atoms
    j0_i + r, r < w (j0_i = first atom in reach of point i, w = largest
    reach count in the tile). The columns are gathered at once from a
    transposed sliding-window view of the padded atoms. Atoms past a point's
    reach, and the zero-mass padding behind the last atom, evaluate to an
    exact +-0.

    The terms go into a (w + 1, rows) buffer whose row 0 is +0.0, reduced
    over axis 0. NumPy adds the rows one after another for each column (it
    sums pairwise only along the contiguous axis), so every point is summed
    left to right in j from +0.0, and the +-0 terms change no bit. A tile
    therefore needs at least 2 columns: with one, axis 0 is the contiguous
    axis. A lone query point is evaluated twice.
    """
    lo, hi = k.support
    n = xq.size
    if n == 1:
        acc, dacc = _atom_sums(X, m, k, np.repeat(xq, 2), slope)
        return acc[:1], (dacc[:1] if slope else None)
    # eta_eps(x - X_j) != 0  <=>  X_j in (x - hi, x - lo)
    j0 = np.searchsorted(X, xq - hi, side="left")
    count = np.searchsorted(X, xq - lo, side="right") - j0
    width = int(np.max(count)) if n else 0
    acc = np.zeros_like(xq)
    dacc = np.zeros_like(xq) if slope else None
    if width == 0:
        return acc, dacc
    # finite far-right padding keeps every window in bounds without masking
    far = max(float(X[-1]), float(xq.max())) + 2.0 * (hi - lo)
    Xw = sliding_window_view(np.concatenate([X, np.full(width, far)]), width).T
    mw = sliding_window_view(np.concatenate([m, np.zeros(width)]), width).T
    one_sided = k.shape == ONE_SIDED_LEFT
    a = 0
    for b in _tile_ends(count):
        w = int(count[a:b].max())
        s = Xw[:w, j0[a:b]]
        np.subtract(xq[a:b], s, out=s)
        s /= k.epsilon
        if one_sided:
            s *= 2.0
            s += 1.0
        t = np.multiply(s, s)
        np.subtract(1.0, t, out=t)
        np.maximum(t, _TINY, out=t)  # outside the support: exp(-1/tiny) == 0
        mj = mw[:w, j0[a:b]]
        terms = np.empty((w + 1, b - a))
        terms[0] = 0.0
        g = np.divide(-1.0, t, out=None if slope else t)
        np.exp(g, out=g)
        np.multiply(g, mj, out=terms[1:])
        np.add.reduce(terms, axis=0, out=acc[a:b])
        if slope:
            # |d/dx exp(-1/(1-s^2))| = exp(...) * 2|s| / (1-s^2)^2 * ds/dx
            g /= t
            g /= t
            np.abs(s, out=s)
            s *= g
            np.abs(mj, out=mj)
            np.multiply(mj, s, out=terms[1:])
            np.add.reduce(terms, axis=0, out=dacc[a:b])
        a = b
    acc *= k.normalization
    if slope:
        dacc *= k.normalization * 2.0 * (2.0 if one_sided else 1.0) / k.epsilon
    return acc, dacc


def convolve_particles(positions, masses, k: Kernel, x):
    """Exact convolution of the atomic measure sum_j m_j delta_{X_j} with eta_eps.

    Evaluates sum_j m_j * eta_eps(x - X_j) at each query point. ``positions``
    must be sorted ascending. Smooth in x because eta is smooth. Only
    particles within the kernel support of each query point contribute, with
    a fixed left-to-right summation order for reproducibility.
    """
    xq = np.atleast_1d(np.asarray(x, dtype=float))
    out, _ = _atom_sums(
        np.asarray(positions, dtype=float), np.asarray(masses, dtype=float), k, xq, False
    )
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out


def convolve_particles_slope(positions, masses, k: Kernel, x):
    """``convolve_particles`` together with sum_j |m_j| |eta_eps'(x - X_j)|.

    Both sums come from the same pass over the atoms. The second is the
    local Lipschitz constant of x -> (u * eta_eps)(x) at each query point,
    up to the variation of eta_eps' between neighboring points; it never
    exceeds sum_j |m_j| * sup|eta_eps'|.
    """
    xq = np.atleast_1d(np.asarray(x, dtype=float))
    return _atom_sums(
        np.asarray(positions, dtype=float), np.asarray(masses, dtype=float), k, xq, True
    )


# ---------------------------------------------------------------------------
# heat kernel


@dataclass(frozen=True)
class HeatKernelSpec:
    """Gaussian heat kernel scaled by a viscosity nu, in dimension dim."""

    nu: float
    dim: int = 1

    def __post_init__(self):
        if not self.nu > 0.0:
            raise ValueError(f"nu={self.nu} must be positive")
        if self.dim < 1:
            raise ValueError(f"dim={self.dim} must be >= 1")


def heat_kernel_eval(spec: HeatKernelSpec, t: float, x: float) -> float:
    """Fundamental solution of u_t = nu * Laplace(u) at time t, radius |x|.

    Normalized to unit integral over R^d for every t > 0.
    """
    if t <= 0.0:
        raise ValueError(f"t={t} must be positive")
    d = spec.dim
    s = spec.nu * t
    c = (4.0 * math.pi) ** (-d / 2.0)
    return float(c * s ** (-d / 2.0) * math.exp(-(x * x) / (4.0 * s)))


def heat_kernel_grad_eval(spec: HeatKernelSpec, t: float, x: float) -> float:
    """|gradient| of the heat kernel at radius |x| (radial derivative magnitude)."""
    if t <= 0.0:
        raise ValueError(f"t={t} must be positive")
    s = spec.nu * t
    return abs(x) / (2.0 * s) * heat_kernel_eval(spec, t, x)


def grad_lq_exponent(spec: HeatKernelSpec, q: float) -> float:
    """Exponent alpha with ||grad G_nu(t,.)||_{L^q} proportional to (nu*t)^alpha."""
    if q <= 1.0:
        raise ValueError(f"q={q} must be > 1")
    d = spec.dim
    return (d - q * (d + 1)) / (2.0 * q)


def _sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def heat_kernel_l1_norm(spec: HeatKernelSpec, t: float) -> float:
    """L^1 norm of the heat kernel at time t, computed by quadrature (should be 1)."""
    from scipy.integrate import quad  # here: the lab's scenarios never need SciPy's quad

    d = spec.dim
    s = spec.nu * t
    r_max = 20.0 * math.sqrt(2.0 * s)
    val, _ = quad(
        lambda r: r ** (d - 1) * heat_kernel_eval(spec, t, r),
        0.0,
        r_max,
        limit=200,
    )
    return _sphere_area(d) * val


def heat_kernel_grad_lq_norm(spec: HeatKernelSpec, t: float, q: float) -> float:
    """L^q norm of |grad G_nu(t,.)| over R^d by radial quadrature."""
    from scipy.integrate import quad

    if q <= 1.0:
        raise ValueError(f"q={q} must be > 1")
    d = spec.dim
    s = spec.nu * t
    r_max = 25.0 * math.sqrt(2.0 * s)
    val, _ = quad(
        lambda r: r ** (d - 1) * heat_kernel_grad_eval(spec, t, r) ** q,
        0.0,
        r_max,
        limit=200,
    )
    return (_sphere_area(d) * val) ** (1.0 / q)
