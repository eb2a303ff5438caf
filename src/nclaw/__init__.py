"""nclaw: a 1D numerical laboratory for conservation laws with convolution
(nonlocal) fluxes, their viscous regularizations, and the singular local
limit where the kernel concentrates to a point.

The library side exposes grids and fields, kernels and discrete
convolutions, four solvers with the velocity law fixed at b(u) = u
(nonlocal inviscid FV and particles, viscous IMEX, local Godunov) and
scripted experiments that measure the structural functionals separating
the nonlocal flow from the local entropy solution. See the demos/ scripts
for walkthroughs, or the ``lab`` command for the scripted scenarios.
"""

__version__ = "0.1.0"

from .grids import (
    Field,
    Grid1D,
    baricenter,
    entropy_functional,
    lp_norm,
    support_bounds,
    window_mass,
)
from .kernels import (
    HeatKernelSpec,
    Kernel,
    convolve,
    convolve_particles,
    grad_lq_exponent,
    heat_kernel_eval,
    heat_kernel_grad_lq_norm,
    heat_kernel_l1_norm,
)
from .data import gaussian_datum, odd_datum, step_datum
from .local_entropy import (
    ExactSolution,
    NumericalFailure,
    exact_eval,
    godunov_step,
    run_local,
    sample_exact,
)
from .nonlocal_solvers import (
    ParticleEnsemble,
    deposit,
    lf_step,
    particle_step,
    run_nonlocal,
    sample_particles,
)
from .viscous import imex_step, run_viscous
from .records import DiagnosticSeries, RunManifest, RunResult, emit_report
from .experiments import (
    counterexample_1,
    counterexample_2,
    counterexample_3,
    singular_limit_rate,
    vanishing_viscosity,
)
from .config import LabConfig, parse_config

__all__ = [
    "__version__",
    "Field",
    "Grid1D",
    "baricenter",
    "entropy_functional",
    "lp_norm",
    "support_bounds",
    "window_mass",
    "HeatKernelSpec",
    "Kernel",
    "convolve",
    "convolve_particles",
    "grad_lq_exponent",
    "heat_kernel_eval",
    "heat_kernel_grad_lq_norm",
    "heat_kernel_l1_norm",
    "gaussian_datum",
    "odd_datum",
    "step_datum",
    "ExactSolution",
    "NumericalFailure",
    "exact_eval",
    "godunov_step",
    "run_local",
    "sample_exact",
    "ParticleEnsemble",
    "deposit",
    "lf_step",
    "particle_step",
    "run_nonlocal",
    "sample_particles",
    "imex_step",
    "run_viscous",
    "DiagnosticSeries",
    "RunManifest",
    "RunResult",
    "emit_report",
    "counterexample_1",
    "counterexample_2",
    "counterexample_3",
    "singular_limit_rate",
    "vanishing_viscosity",
    "LabConfig",
    "parse_config",
]
