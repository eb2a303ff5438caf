"""Lipschitz velocity laws b and the flux u*b(u), normalized so that b(0) = 0.

A nonzero value of b at 0 can always be removed by a Galilean shift: the
``normalize`` helper subtracts it and reports the shift, and callers compare
against unnormalized references via x -> x - shift*t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "VelocityLaw",
    "identity_law",
    "normalize",
    "tabulated_law",
    "flux",
    "wave_speeds",
]


@dataclass(frozen=True)
class VelocityLaw:
    """Velocity map b with b(0) = 0 and a sampled Lipschitz constant.

    variant is one of "identity", "shifted" (a callable minus its value at 0)
    or "tabulated" (linear interpolation of samples).
    """

    variant: str
    lipschitz_L: float
    shift: float = 0.0
    fn: Optional[Callable] = None
    table_x: Optional[np.ndarray] = field(default=None, repr=False)
    table_y: Optional[np.ndarray] = field(default=None, repr=False)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.variant == "identity":
            out = u
        elif self.variant == "tabulated":
            out = np.interp(u, self.table_x, self.table_y)
        else:
            out = np.asarray(self.fn(u), dtype=float) - self.shift
        return out


def identity_law() -> VelocityLaw:
    return VelocityLaw(variant="identity", lipschitz_L=1.0, shift=0.0)


def _sampled_lipschitz(fn: Callable, lo: float, hi: float, n: int = 1000) -> float:
    xs = np.linspace(lo, hi, n)
    slopes = np.diff(np.asarray(fn(xs), dtype=float)) / np.diff(xs)
    # a chord slope is fn' at one point of its interval, and falls short of
    # max|fn'| there by up to about h max|fn''|: pad each slope by its larger
    # change to a neighbouring one, which estimates that term
    change = np.abs(np.diff(slopes))
    pad = np.maximum(np.append(change, 0.0), np.insert(change, 0, 0.0))
    return float(np.max(np.abs(slopes) + pad))


def normalize(raw_b: Callable, probe_range=(-3.0, 3.0)) -> tuple[VelocityLaw, float]:
    """Build a VelocityLaw from a raw callable, removing its value at 0.

    Returns (law, shift) with law(u) = raw_b(u) - raw_b(0) and
    shift = raw_b(0). The Lipschitz constant L is sampled on a 1000-point
    probe of probe_range, each chord slope padded by its change to the
    neighbouring ones, so that L bounds |b'| between the probe points too
    where the probe resolves the curvature of b; it holds only on
    probe_range. The finite-volume CFL rules that use L (``wave_speeds``:
    Godunov and the local IMEX problem) rely on every state staying inside
    probe_range; those with a kernel take max|V| itself. Detects the
    identity map so the Burgers-type flux gets its fast path.
    """
    shift = float(np.asarray(raw_b(np.array([0.0])), dtype=float).ravel()[0])
    lo, hi = probe_range
    probe = np.linspace(lo, hi, 1000)
    vals = np.asarray(raw_b(probe), dtype=float) - shift
    if np.allclose(vals, probe, rtol=0.0, atol=1e-12):
        return VelocityLaw(variant="identity", lipschitz_L=1.0, shift=shift), shift
    L = _sampled_lipschitz(lambda u: np.asarray(raw_b(u), dtype=float) - shift, lo, hi)
    law = VelocityLaw(variant="shifted", lipschitz_L=L, shift=shift, fn=raw_b)
    return law, shift


def tabulated_law(samples_x, samples_y) -> VelocityLaw:
    """Velocity law from samples with linear interpolation, shifted so b(0) = 0."""
    x = np.asarray(samples_x, dtype=float)
    y = np.asarray(samples_y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise ValueError("need two equal-length 1d sample arrays")
    if np.any(np.diff(x) <= 0):
        raise ValueError("sample abscissae must be strictly increasing")
    shift = float(np.interp(0.0, x, y))
    y = y - shift
    L = float(np.max(np.abs(np.diff(y) / np.diff(x))))
    return VelocityLaw(
        variant="tabulated", lipschitz_L=L, shift=shift, table_x=x, table_y=y
    )


def flux(vl: VelocityLaw, u):
    """The conserved flux u * b(u); reduces to u^2 for the identity law."""
    u = np.asarray(u, dtype=float)
    out = u * vl(u)
    if out.ndim == 0:
        return float(out)
    return out


def wave_speeds(vl: VelocityLaw, u, b=None) -> np.ndarray:
    """Per-cell bound s_i = |b(u_i)| + L|u_i| on the wave speed |(u b(u))'|.

    The one wave-speed rule for the local flux u b(u), in Godunov and in
    the local IMEX problem: the CFL speed is max s_i, and the Rusanov
    dissipation takes max(s_i, s_i+1) at each interface. (With a kernel
    the flux is u V at frozen V, and its speed is |V|.) ``b`` passes vl(u)
    when the caller already holds it. Since |b| is L-Lipschitz with b(0) = 0, s is nondecreasing in |u| on
    each side of 0. A monotone scheme keeps every value inside
    [min u, max u], so max s over a state bounds the speed of every state
    the scheme reaches from it: ``run_local`` fixes its dt from the datum.
    """
    u = np.asarray(u, dtype=float)
    b = vl(u) if b is None else b
    return np.abs(b) + vl.lipschitz_L * np.abs(u)
