"""Convolution kernels and the two discrete convolutions.

The velocity of every nonlocal solver is u * eta_eps with eta_eps a
smooth unit-mass bump of width eps. Two shapes matter: the even bump, and
a one-sided bump supported on (-eps, 0) that makes the velocity at x blind
to everything left of x. Fields convolve on the grid; particle ensembles
convolve exactly as atomic measures.
"""

import numpy as np

from nclaw import Field, Grid1D, Kernel, convolve, lp_norm
from nclaw.kernels import (
    HeatKernelSpec,
    convolve_particles,
    grad_lq_exponent,
    heat_kernel_grad_lq_norm,
    heat_kernel_l1_norm,
)

eps = 0.05
even = Kernel("even_bump", eps)
left = Kernel("one_sided_left", eps)
print(f"even bump:  support {even.support}, peak {float(even.eval(0.0)):.3f}")
print(f"one-sided:  support {left.support}, peak {float(left.eval(-eps / 2)):.3f}")
print("the normalization is closed-form; unit mass is verified at construction (to 1e-12)")

grid = Grid1D(-2.0, 2.0, 800)
rng = np.random.default_rng(3)
f = Field(grid, rng.normal(size=800))
g = convolve(f, even)
print("\nsmoothing contracts every L^p norm (Young):")
for p in (1, 2, np.inf):
    print(f"  p={p}: ||f||={lp_norm(f, p):8.4f} -> ||f*eta||={lp_norm(g, p):8.4f}")

# one-sided dependence: the value at a cell ignores everything to its left
h = Field(grid, f.values.copy())
h.values[:300] = 99.0
same = np.array_equal(convolve(f, left).values[300:], convolve(h, left).values[300:])
print(f"\none-sided kernel: rewriting all cells left of x leaves (u*eta)(x) bit-identical: {same}")

# atomic measures convolve exactly
X = np.array([-0.2, 0.0, 0.15])
m = np.array([0.5, 1.0, 0.25])
print("\nparticle convolution (exact for the atomic measure):")
for x in (-0.21, 0.0, 0.13):
    print(f"  (u*eta)({x:+.2f}) = {convolve_particles(X, m, even, x):.4f}")

# heat kernel: unit mass for all t, and the gradient norm scales as a
# power of (nu t) with exponent (d - q(d+1)) / (2q)
spec = HeatKernelSpec(nu=0.7, dim=1)
print(f"\nheat kernel mass at t=0.37: {heat_kernel_l1_norm(spec, 0.37):.10f}")
for q in (2.0, 4.0 / 3.0):
    ts = np.geomspace(1e-3, 1.0, 9)
    ns = [heat_kernel_grad_lq_norm(spec, t, q) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(ns), 1)[0]
    print(
        f"grad L^{q:.4g} norm: measured log-log slope {slope:+.5f}, "
        f"predicted {grad_lq_exponent(spec, q):+.5f}"
    )
