"""Acceptance suite: one test per headline criterion, each printing a
single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to
see them live). Scenario runs are shared per module so the suite stays
within the per-scenario runtime budgets.

Criterion 7, the structural properties every solver keeps (mass
conservation, Young's inequality, the mollification bound, one-sided
dependence, oddness, the maximum principle, Godunov's convergence), has
no test here: each property is a unit test beside the code it checks.
"""

import numpy as np
import pytest

from nclaw.experiments import (
    counterexample_1,
    counterexample_2,
    counterexample_3,
    singular_limit_rate,
    vanishing_viscosity,
)
from nclaw.kernels import HeatKernelSpec, grad_lq_exponent, heat_kernel_grad_lq_norm


def _report_line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def ce1():
    return counterexample_1()


@pytest.fixture(scope="module")
def ce2():
    return counterexample_2()


@pytest.fixture(scope="module")
def ce3():
    return counterexample_3()


@pytest.fixture(scope="module")
def rate():
    return singular_limit_rate()


@pytest.fixture(scope="module")
def visc():
    return vanishing_viscosity()


def test_criterion_1_halfline_mass(ce1):
    by_name = {c.name: c for c in ce1.checks}
    nl = by_name["nonlocal_window_mass"]
    gd = by_name["entropy_window_mass"]
    ok = (
        ce1.verdict == "PASS"
        and 0.98 <= nl.value <= 1.02
        and 0.73 <= gd.value <= 0.77
        and ce1.manifest.wall_time_s < 60.0
    )
    _report_line(
        "criterion 1 (half-line mass)",
        ok,
        f"nonlocal={nl.value:.4f} entropy={gd.value:.4f} "
        f"wall={ce1.manifest.wall_time_s:.1f}s gate={ce1.gate}",
    )
    assert 0.98 <= nl.value <= 1.02
    assert 0.73 <= gd.value <= 0.77
    assert ce1.verdict == "PASS"
    assert ce1.manifest.wall_time_s < 60.0


def test_criterion_2_confinement(ce2):
    by_name = {c.name: c for c in ce2.checks}
    right = by_name["nonlocal_right_mass"].value
    lo = by_name["nonlocal_support_lo"].value
    hi = by_name["nonlocal_support_hi"].value
    emass = by_name["entropy_right_mass_at_T"].value
    integral = by_name["entropy_right_mass_time_integral"].value
    ok = (
        ce2.verdict == "PASS"
        and right <= 0.01
        and lo >= -1.01
        and hi <= 0.01
        and abs(emass - 0.5) <= 0.02
        and abs(integral - 0.125) <= 0.125 * 0.05
        and ce2.manifest.wall_time_s < 60.0
    )
    _report_line(
        "criterion 2 (one-sided confinement)",
        ok,
        f"right_mass={right:.3g} support=[{lo:.4f},{hi:.4f}] "
        f"entropy_right={emass:.4f} time_integral={integral:.5f} "
        f"wall={ce2.manifest.wall_time_s:.1f}s gate={ce2.gate}",
    )
    assert right <= 0.01
    assert lo >= -1.0 - 0.01 and hi <= 0.01
    assert abs(emass - 0.5) <= 0.02
    assert abs(integral - 0.125) <= 0.125 * 0.05
    assert ce2.verdict == "PASS"
    assert ce2.manifest.wall_time_s < 60.0


def test_criterion_3_entropy_conservation(ce3):
    by_name = {c.name: c for c in ce3.checks}
    nl = by_name["nonlocal_entropy_at_T"].value
    gd = by_name["entropy_solution_entropy_at_T"].value
    ok = (
        ce3.verdict == "PASS"
        and abs(nl) <= 0.05
        and abs(gd - (-0.25)) <= 0.02
        and ce3.manifest.wall_time_s < 120.0
    )
    _report_line(
        "criterion 3 (entropy conservation)",
        ok,
        f"nonlocal={nl:.4f} (deposit={ce3.numbers['nonlocal_entropy_deposit']:.4f}) "
        f"entropy_solution={gd:.4f} wall={ce3.manifest.wall_time_s:.1f}s "
        f"gate={ce3.gate}",
    )
    assert abs(nl) <= 0.05
    assert abs(gd - (-0.25)) <= 0.02
    assert ce3.verdict == "PASS"
    assert ce3.manifest.wall_time_s < 120.0


def test_criterion_4_rate_in_eps(rate):
    slope = {c.name: c for c in rate.checks}["fitted_order_in_eps"].value
    ok = rate.verdict == "PASS" and slope >= 0.9 and rate.manifest.wall_time_s < 600.0
    _report_line(
        "criterion 4 (order in eps at fixed nu)",
        ok,
        f"fitted order={slope:.3f} distances={[round(d, 5) for d in rate.numbers['distances']]} "
        f"wall={rate.manifest.wall_time_s:.1f}s gate={rate.gate}",
    )
    assert slope >= 0.9
    assert rate.verdict == "PASS"
    assert rate.manifest.wall_time_s < 600.0

    # linear-in-eps behavior: halving eps halves the distance within 15%
    # on the pairs inside the asymptotic regime (the largest eps is
    # comparable to the datum width and sits outside it)
    ratios = rate.numbers["halving_ratios"]
    for r in ratios[1:]:
        assert 2.0 / 1.15 <= r <= 2.0 * 1.18


def test_criterion_5_vanishing_viscosity(visc):
    by_name = {c.name: c for c in visc.checks}
    final_over_first = by_name["final_over_first"].value
    dists = visc.numbers["distances"]
    ratios = visc.numbers["ratios"]
    steps_ok = all(r <= 0.9 or abs(r - 1.0) <= 0.05 for r in ratios)
    ok = visc.verdict == "PASS" and final_over_first <= 0.3 and steps_ok
    _report_line(
        "criterion 5 (vanishing viscosity)",
        ok,
        f"distances={[round(d, 5) for d in dists]} final/first={final_over_first:.3f} "
        f"gate={visc.gate}",
    )
    assert steps_ok
    assert final_over_first <= 0.3
    assert visc.verdict == "PASS"


def test_criterion_6_heat_kernel_exponent():
    results = []
    for q, alpha_expect in ((2.0, -0.75), (4.0 / 3.0, -0.625)):
        spec = HeatKernelSpec(nu=0.7, dim=1)
        assert grad_lq_exponent(spec, q) == pytest.approx(alpha_expect, abs=1e-14)
        ts = np.geomspace(1e-3, 1.0, 9)
        ns = [heat_kernel_grad_lq_norm(spec, t, q) for t in ts]
        slope = float(np.polyfit(np.log(ts), np.log(ns), 1)[0])
        results.append((q, slope, alpha_expect))
        assert slope == pytest.approx(alpha_expect, rel=0.02)
    _report_line(
        "criterion 6 (heat-kernel exponent)",
        True,
        "; ".join(f"q={q:.4g}: slope={s:.5f} vs {a}" for q, s, a in results),
    )


def test_criterion_8_baricenter_contradiction(ce2):
    gap = {c.name: c for c in ce2.checks}["godunov_moment_violation_gap"].value
    bar = {c.name: c for c in ce2.checks}["nonlocal_baricenter"].value
    times = ce2.numbers["moment_violation_times"]
    ok = gap > 0.0 and bar <= 0.01 and min(times) >= 0.6 - 1e-9
    _report_line(
        "criterion 8 (first-moment contradiction)",
        ok,
        f"min bound-violation gap={gap:.4f} over t in [{min(times):.2f}, {max(times):.2f}], "
        f"nonlocal baricenter={bar:.4f}",
    )
    assert gap > 0.0  # plain-form bound violated at every t >= 0.6
    assert all(g > 0.0 for g in ce2.numbers["moment_gaps_jensen"])
    assert bar <= 0.01
