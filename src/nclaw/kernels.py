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
SHAPES = (EVEN_BUMP, ONE_SIDED_LEFT)

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
        if self.shape not in SHAPES:
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


# 1 - s^2 at or below this drops the term: it is below exp(-700)|m_j|, and
# every exp argument stays in [-700, -1], where exp takes its fast path
_EDGE = 1.0 / 700.0
_TILE_CELLS = 32768  # query points x atom offsets per tile; the fastest of 16k-64k


def _tile_ends(count: np.ndarray) -> list[int]:
    """End indices of consecutive tiles of query points.

    A tile of rows query points, w the largest reach count among them,
    holds rows x w cells and grows while that stays within ``_TILE_CELLS``;
    a point whose reach alone is wider is a tile of its own.
    """
    n = count.size
    ends, a = [], 0
    while a < n:
        look = min(n - a, _TILE_CELLS // max(int(count[a]), 1))
        cells = np.maximum.accumulate(count[a : a + look]) * np.arange(1, look + 1)
        a += max(1, int(np.searchsorted(cells, _TILE_CELLS, side="right")))
        ends.append(a)
    return ends


def _tile_sums(Yp, mp, j0, yq, tiles, slope: bool, order=None):
    """The unnormalized sums of ``_atom_sums`` over the tiles of a pass.

    ``tiles`` is the pass's full tiling, consecutive tiles (a, b, w): rows
    a..b-1 read the atoms j0_i + r, r < w, of the padded scaled positions
    ``Yp`` and masses ``mp``. ``order`` gives the indices of the tiles to
    sum, in turn (all of them by default); it may be an iterator that
    claims them one at a time. Returns the sums of every row and their
    slope sums if ``slope`` (else None); rows of the tiles not summed stay 0.

    Each tile is a (b - a, w) array at the start of four 64-byte aligned
    buffers, so a row sees the same bytes at the same alignment whichever
    tiles are summed with it and in which order: a pass whose tiles are
    shared between two processes gives the bits of one process summing
    them all.
    """
    w_max = max(w for _, _, w in tiles)
    acc = np.zeros(tiles[-1][1])
    dacc = np.zeros_like(acc) if slope else None
    Yw = sliding_window_view(Yp, w_max)
    mw = sliding_window_view(mp, w_max)
    # cells of the largest tile, in whole 64-byte lines
    cap = -(-max(_TILE_CELLS, w_max) // 8) * 8
    buf = np.empty(4 * (cap + 8))
    o = (-buf.ctypes.data % 64) // 8
    S, T, M, G = (buf[o + i * (cap + 8):][:cap] for i in range(4))
    for a, b, w in (tiles if order is None else (tiles[i] for i in order)):
        cells = (b - a) * w
        s = np.subtract(yq[a:b, None], Yw[j0[a:b], :w], out=S[:cells].reshape(b - a, w))
        t = np.multiply(s, s, out=T[:cells].reshape(b - a, w))
        np.subtract(1.0, t, out=t)
        mj = np.multiply(mw[j0[a:b], :w], t > _EDGE, out=M[:cells].reshape(b - a, w))
        np.maximum(t, _EDGE, out=t)
        g = np.divide(-1.0, t, out=G[:cells].reshape(b - a, w) if slope else t)
        np.exp(g, out=g)
        np.einsum("ij,ij->i", g, mj, out=acc[a:b], optimize=False)
        if slope:
            # |d/dx exp(-1/(1-s^2))| = exp(...) * 2|s| / (1-s^2)^2 * ds/dx
            g /= np.multiply(t, t, out=t)
            np.abs(s, out=s)
            s *= g
            np.abs(mj, out=mj)
            np.einsum("ij,ij->i", s, mj, out=dacc[a:b], optimize=False)
    return acc, dacc


# the pool's other process, which sums tiles of a pass while it has no call
# of its own (``experiments._Partner``); None outside a forked pool. It is
# set for the life of ``experiments._pool`` in each of its two processes,
# not passed, because every particle solver's calls reach the passes
_partner = None


def _atom_sums(X, m, k: Kernel, xq, slope: bool):
    """Banded sums over the atoms inside the kernel support of each query point.

    Returns sum_j m_j eta_eps(xq - X_j) and, if ``slope``, also
    sum_j |m_j| |eta_eps'(xq - X_j)|, with one exp per pair and the
    normalization applied once at the end.

    Positions are scaled once per call, Y = X c/eps and yq = xq c/eps + c - 1
    (c = 1 for the even bump, 2 for the one-sided one), so the bump
    argument of a pair is the one subtraction s = yq - Y_j. Consecutive
    query points are evaluated together as one query-major tile (see
    ``_tile_ends``): a (rows, w) array whose row i holds the atoms j0_i + r,
    r < w (j0_i = first atom in reach of point i, w = largest reach count in
    the tile), gathered by fancy indexing from a sliding-window view of the
    padded atoms (``_tile_sums``). Each row is summed by one contiguous dot
    product, NumPy's own einsum loop and no BLAS, so the bytes do not depend
    on the BLAS kernel. Every tile writes into the same four 64-byte aligned
    buffers: NumPy's AVX-512 loops run up to twice as slow when their stores
    straddle cache lines.

    In a forked pool the pass goes to ``_partner.sums``: once the other
    process is out of calls and the pass has two tiles or more, this process
    sums tiles from the front and the other one from the back, each claiming
    the next, until they meet at a split index. Each row is still summed
    whole in its own tile, so the split changes no bit.

    Atoms with 1 - s^2 <= 1/700 weigh an exact +-0: their mass is masked
    and 1 - s^2 is clamped at 1/700, so exp never sees an argument below
    -700, where it leaves its fast path. That covers the atoms past a
    point's reach, the zero-mass padding behind the last atom and the atoms
    at the support edge, the one-sided self term included. An atom in reach
    dropped this way has a true term below exp(-700) |m_j| ~ 1e-304 |m_j|.
    """
    lo, hi = k.support
    # eta_eps(x - X_j) != 0  <=>  X_j in (x - hi, x - lo)
    j0 = np.searchsorted(X, xq - hi, side="left")
    count = np.searchsorted(X, xq - lo, side="right") - j0
    width = int(np.max(count)) if xq.size else 0
    if width == 0:
        return np.zeros_like(xq), np.zeros_like(xq) if slope else None
    c = 2.0 if k.shape == ONE_SIDED_LEFT else 1.0
    Y = X * (c / k.epsilon)
    yq = xq * (c / k.epsilon) + (c - 1.0)
    # the padding sits at s <= -4, two support widths right of every point
    far = max(float(Y[-1]), float(yq.max())) + 4.0
    Yp = np.concatenate([Y, np.full(width, far)])
    mp = np.concatenate([m, np.zeros(width)])
    ends = _tile_ends(count)
    tiles = [(a, b, int(count[a:b].max())) for a, b in zip([0, *ends], ends)]
    acc, dacc = (_tile_sums if _partner is None else _partner.sums)(Yp, mp, j0, yq, tiles, slope)
    acc *= k.normalization
    if slope:
        dacc *= k.normalization * 2.0 * c / k.epsilon
    return acc, dacc


def convolve_particles(positions, masses, k: Kernel, x):
    """Exact convolution of the atomic measure sum_j m_j delta_{X_j} with eta_eps.

    Evaluates sum_j m_j * eta_eps(x - X_j) at each query point. ``positions``
    must be sorted ascending. Smooth in x because eta is smooth. Only
    particles within the kernel support of each query point contribute; each
    point's terms are added by one contiguous NumPy reduction without BLAS,
    so a rerun on the same install gives the same bytes. A term with
    1 - s^2 <= 1/700 (s the bump argument) is dropped; it is below
    exp(-700) |m_j| (see ``_atom_sums``).
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


def heat_kernel_eval(spec: HeatKernelSpec, t: float, x):
    """Fundamental solution of u_t = nu * Laplace(u) at time t, radius |x| (elementwise).

    Normalized to unit integral over R^d for every t > 0.
    """
    if t <= 0.0:
        raise ValueError(f"t={t} must be positive")
    d = spec.dim
    s = spec.nu * t
    c = (4.0 * math.pi) ** (-d / 2.0)
    return c * s ** (-d / 2.0) * np.exp(-(x * x) / (4.0 * s))


def heat_kernel_grad_eval(spec: HeatKernelSpec, t: float, x):
    """|gradient| of the heat kernel at radius |x| (radial derivative magnitude)."""
    return heat_kernel_eval(spec, t, x) * np.abs(x) / (2.0 * spec.nu * t)


def grad_lq_exponent(spec: HeatKernelSpec, q: float) -> float:
    """Exponent alpha with ||grad G_nu(t,.)||_{L^q} proportional to (nu*t)^alpha."""
    if q <= 1.0:
        raise ValueError(f"q={q} must be > 1")
    d = spec.dim
    return (d - q * (d + 1)) / (2.0 * q)


def _sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@lru_cache(maxsize=8)
def _ball_rule(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii r and weights w with sum(w * g(r)) the integral of a radial g
    over the unit ball of R^d: a composite Gauss-Legendre rule (``leggauss``)
    of 16 panels of 32 nodes on [0, 1], weighted by |S^(d-1)| r^(d-1)."""
    x, w = np.polynomial.legendre.leggauss(32)
    r = (np.arange(16.0)[:, None] + 0.5 * (x + 1.0)) / 16.0
    w = _sphere_area(d) * r ** (d - 1) * w / 32.0
    r.flags.writeable = w.flags.writeable = False
    return r, w


def heat_kernel_l1_norm(spec: HeatKernelSpec, t: float) -> float:
    """L^1 norm of the heat kernel at time t over the ball of radius
    20 sqrt(2 nu t), by quadrature (``_ball_rule``; should be 1)."""
    r, w = _ball_rule(spec.dim)
    r_max = 20.0 * math.sqrt(2.0 * spec.nu * t)
    return r_max**spec.dim * float(np.sum(w * heat_kernel_eval(spec, t, r_max * r)))


def heat_kernel_grad_lq_norm(spec: HeatKernelSpec, t: float, q: float) -> float:
    """L^q norm of |grad G_nu(t,.)| over the ball of radius 25 sqrt(2 nu t),
    by quadrature (``_ball_rule``)."""
    if q <= 1.0:
        raise ValueError(f"q={q} must be > 1")
    r, w = _ball_rule(spec.dim)
    r_max = 25.0 * math.sqrt(2.0 * spec.nu * t)
    val = r_max**spec.dim * float(np.sum(w * heat_kernel_grad_eval(spec, t, r_max * r) ** q))
    return val ** (1.0 / q)
