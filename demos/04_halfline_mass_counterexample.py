"""Counterexample one: the half-line mass.

Odd datum, even kernel. The convolved velocity vanishes at the origin for
every time, so characteristics cannot cross it and the mass on [-4, 0] is
a constant of the nonlocal motion - at any eps. The entropy solution
instead parks a shock at the origin and pays mass through it at unit rate:
by t = 1/4 it holds 3/4. No weak limit can do both, so the nonlocal
solutions do not converge weakly to the entropy solution.

A dissipative scheme leaks mass across the origin and hides the effect,
coarse or resolved in eps; the particle solver keeps it to machine precision.
"""

from nclaw.experiments import counterexample_1

report = counterexample_1(n_particles=1200, godunov_n=2048)
for line in report.summary_lines():
    print(line)

n = report.numbers
print(f"\nclosed-form oracle for the entropy side: {n['oracle_window_mass']:.4f}")
print(f"nonlocal window mass at t=0 (sampled datum): {n['nonlocal_window_mass_initial']:.4f}")
print(
    "coarse Lax-Friedrichs counterpart (dx = eps): window mass "
    f"{n['lf_coarse_window_mass']:.4f} - numerical viscosity masks the conservation"
)
print(
    f"resolved Lax-Friedrichs run (dx = {n['fv_dx_over_eps']:g} eps): window mass "
    f"{n['fv_window_mass']:.4f} - still drained"
)
