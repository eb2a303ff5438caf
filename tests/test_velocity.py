import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclaw.velocity import (
    flux,
    identity_law,
    normalize,
    tabulated_law,
    wave_speeds,
)

LAWS = {
    "identity": identity_law(),
    "sine": normalize(np.sin)[0],
    # non-monotone, asymmetric, and shifted by 0.5
    "tabulated": tabulated_law([-3.0, -1.0, 0.0, 1.0, 3.0], [-2.0, 0.0, 0.5, 1.5, 0.9]),
}


class TestNormalize:
    def test_identity_detected(self):
        law, shift = normalize(lambda u: u)
        assert law.variant == "identity"
        assert shift == 0.0

    def test_affine_shift_removed(self):
        law, shift = normalize(lambda u: u + 3.0)
        assert shift == 3.0
        assert law.variant == "identity"
        assert law(np.array([0.0]))[0] == 0.0

    def test_sine_law(self):
        law, shift = normalize(np.sin)
        assert shift == 0.0
        assert law.variant == "shifted"
        # dense-sampling oracle: |cos| <= 1
        assert law.lipschitz_L == pytest.approx(1.0, abs=1e-4)

    def test_idempotent(self):
        law, _ = normalize(lambda u: np.cos(u))
        law2, shift2 = normalize(law)
        assert shift2 == pytest.approx(0.0, abs=1e-15)

    def test_sampled_lipschitz_bound_holds(self, rng):
        law, _ = normalize(np.sin)
        xs = rng.uniform(-3, 3, size=1000)
        ys = rng.uniform(-3, 3, size=1000)
        gap = np.abs(law(xs) - law(ys)) - law.lipschitz_L * np.abs(xs - ys)
        assert np.max(gap) <= 1e-6


class TestFlux:
    def test_identity_squares(self):
        law = identity_law()
        assert flux(law, 0.5) == pytest.approx(0.25)
        assert flux(law, -1.0) == pytest.approx(1.0)

    def test_zero_at_zero_for_any_law(self):
        laws = [
            identity_law(),
            normalize(np.sin)[0],
            tabulated_law([-1.0, 0.0, 1.0], [0.3, 0.5, 0.9]),
        ]
        for law in laws:
            assert flux(law, 0.0) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(sorted(LAWS)),
        ends=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2, unique=True).map(sorted),
        fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    )
    def test_wave_speeds_bound_the_flux_slope_on_any_interval(self, name, ends, fracs):
        law = LAWS[name]
        a, b = ends
        top = float(np.max(wave_speeds(law, [a, b])))
        xs = np.concatenate([[a, b], np.clip(a + (b - a) * np.asarray(fracs), a, b)])
        # s is nondecreasing in |u| on each side of 0, so the endpoints hold
        # the maximum; interior points may reach it only up to round-off
        assert float(np.max(wave_speeds(law, xs))) == pytest.approx(top, rel=1e-12)
        # max s is a Lipschitz constant of u*b(u) on [a, b]. L is sampled, and
        # for sin it falls short of the true constant 1 by about 1.5e-6: hence
        # the 1e-5 relative slack
        fx = flux(law, xs)
        gap = np.abs(xs[:, None] - xs[None, :])
        assert np.all(np.abs(fx[:, None] - fx[None, :]) <= (1.0 + 1e-5) * top * gap + 1e-12)


class TestTabulated:
    def test_interpolation_and_shift(self):
        law = tabulated_law([-2.0, 0.0, 2.0], [1.0, 2.0, 5.0])
        assert law.shift == 2.0
        assert law(np.array([0.0]))[0] == 0.0
        assert law(np.array([1.0]))[0] == pytest.approx(1.5 - 0.0, abs=1e-13)
        assert law.lipschitz_L == pytest.approx(1.5)

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            tabulated_law([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
