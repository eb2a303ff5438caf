"""The local conservation law u_t + (u^2)_x = 0 and its exact solutions.

The Godunov solver provides the entropy-admissible side of every
comparison. Its behavior on the two catalogued data is known in closed
form, which is what makes the counterexample numbers checkable: a
rarefaction/plateau profile for the indicator datum, and a standing shock
at the origin for the odd datum that drains the left half-line mass at
unit rate.
"""

import numpy as np

from nclaw import ExactSolution, Field, Grid1D, lp_norm, run_local, sample_exact
from nclaw.data import odd_datum, step_datum

# indicator datum: compare against the closed form at t = 0.5
grid = Grid1D(-4.0, 4.0, 2048)
res = run_local(step_datum(grid), 0.5, window=(0.0, 1.0), n_outputs=25)
exact = sample_exact(ExactSolution("step"), 0.5, grid)
err = lp_norm(Field(grid, res.final.values - exact.values), 1)
print(f"indicator datum, t=0.5, N=2048: L1 error vs closed form = {err:.5f}")
d = res.diagnostics
print(f"  right-half mass {d.last('window_mass'):.4f} (exact 0.5)")
print(f"  entropy {d.last('entropy'):+.4f} (exact -0.25), nonincreasing: "
      f"{bool(np.all(np.diff(d.array('entropy')) <= 1e-10))}")

# odd datum: the standing shock at 0 drains the window [-4, 0] at rate 1
grid2 = Grid1D(-4.5, 4.5, 2048)
res2 = run_local(odd_datum(grid2), 0.25, window=(-4.0, 0.0), n_outputs=25)
t = res2.diagnostics.t
wm = res2.diagnostics.array("window_mass")
sel = (t >= 0.05) & (t <= 0.2)
slope = np.polyfit(t[sel], wm[sel], 1)[0]
print(f"\nodd datum: window mass 1 -> {wm[-1]:.4f} at t=0.25, drain slope {slope:+.4f}")

# the derived odd-datum formula is itself validated against the solver
errs = {}
for n in (1024, 2048, 4096):
    g = Grid1D(-4.0, 4.0, n)
    r = run_local(odd_datum(g), 0.25, n_outputs=2)
    e = sample_exact(ExactSolution("odd"), 0.25, g)
    errs[n] = lp_norm(Field(g, r.final.values - e.values), 1)
    print(f"  N={n}: |godunov - formula|_L1 = {errs[n]:.5f} ({errs[n] / g.dx:.2f} dx)")
print("  first-order self-convergence confirms the derived formula")
