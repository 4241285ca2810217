import numpy as np

from aqm_lab.fd import derivative_stack
from aqm_lab.fields import BandLimitedField, LinearField, draw_field


def test_linear_field_is_dot_product():
    f = LinearField(np.array([1.0, -2.0, 0.5]))
    q = np.array([0.3, 0.1, 2.0])
    assert abs(f(q) - (0.3 - 0.2 + 1.0)) < 1e-15


def test_band_limited_single_term_matches_manual():
    amp = np.array([0.7])
    wavevec = np.array([[0.2, -0.4]])
    phase = np.array([0.3])
    poly = np.zeros((1, 2, 2))
    field = BandLimitedField(amp=amp, wavevec=wavevec, phase=phase, poly=poly,
                             degree=0)
    q = np.array([1.1, -0.6])
    expected = 0.7 * np.sin(0.2 * 1.1 + 0.4 * 0.6 + 0.3)
    assert abs(field(q) - expected) < 1e-14


def test_band_limited_polynomial_factor():
    amp = np.array([1.0])
    wavevec = np.array([[0.0, 0.0]])
    phase = np.array([np.pi / 2])  # sin -> 1 at zero argument
    poly = np.array([[[0.5, 0.0], [0.25, 0.0]]])
    field = BandLimitedField(amp=amp, wavevec=wavevec, phase=phase, poly=poly,
                             degree=2)
    q = np.array([2.0, 1.0])
    # degree 2 multiplies both linear factors: (0.5*2) * (0.25*2) = 0.5
    assert abs(field(q) - 0.5) < 1e-13


def test_draw_field_deterministic_and_smooth():
    f1 = draw_field(np.random.default_rng(5), dim=4)
    f2 = draw_field(np.random.default_rng(5), dim=4)
    q = np.array([0.2, -0.1, 0.5, 0.9])
    assert f1(q) == f2(q)
    # gradient exists and is finite
    g = derivative_stack(f1, q, h=1e-4)
    assert np.all(np.isfinite(g))


def test_draw_field_differs_across_seeds():
    f1 = draw_field(np.random.default_rng(1), dim=3)
    f2 = draw_field(np.random.default_rng(2), dim=3)
    q = np.array([0.4, 0.4, 0.4])
    assert f1(q) != f2(q)
