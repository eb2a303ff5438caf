"""Grids, cell-averaged fields, and the scalar functionals.

Every diagnostic in this laboratory is built from four functionals of a
cell-averaged field: L^p norms, windowed masses, the entropy integral
u*ln(u), and the first moment (baricenter). This script evaluates them on
the two catalogued discontinuous data and on the closed-form entropy
solution, so the later counterexample numbers have concrete anchors.
"""

from nclaw import (
    ExactSolution,
    Grid1D,
    baricenter,
    entropy_functional,
    lp_norm,
    sample_exact,
    window_mass,
)
from nclaw.data import odd_datum, step_datum

grid = Grid1D(-4.5, 4.5, 4500)

step = step_datum(grid)
print("indicator datum on (-1, 0):")
print(f"  L1 norm        {lp_norm(step, 1):.6f}   (total mass 1)")
print(f"  entropy        {entropy_functional(step):.6f}   (0*ln0 and 1*ln1 both vanish)")
print(f"  baricenter     {baricenter(step):.6f}   (mass centered at -1/2)")

odd = odd_datum(grid)
print("\nodd datum (+1 on (-1,0), -1 on (0,1)):")
print(f"  total mass     {window_mass(odd, -4.5, 4.5):.6f}")
print(f"  mass on [-4,0] {window_mass(odd, -4.0, 0.0):.6f}   (the half-line mass)")
print(f"  baricenter     {baricenter(odd):.6f}")

# the entropy solution emerging from the indicator datum: a rarefaction
# ramp chasing a plateau whose front moves at speed 1
sol = ExactSolution("step")
for t in (0.25, 0.5):
    f = sample_exact(sol, t, grid)
    print(f"\nentropy solution at t={t}:")
    print(f"  entropy        {entropy_functional(f):+.6f}   (closed form -t/2 = {-t/2:+.4f})")
    print(f"  right mass     {window_mass(f, 0.0, 4.5):.6f}")
    print(f"  baricenter     {baricenter(f):+.6f}   (-t^2/6 + t - 1/2 = {-t*t/6 + t - 0.5:+.6f})")

# the odd entropy solution drains its left half-line mass at unit rate
sol_odd = ExactSolution("odd")
print("\nodd entropy solution, mass on [-4, 0]:")
for t in (0.0, 0.1, 0.25):
    f = sample_exact(sol_odd, t, grid)
    print(f"  t={t:4.2f}: {window_mass(f, -4.0, 0.0):.4f}")
print("the nonlocal flow will hold this number at 1.0 instead (demo 04)")
