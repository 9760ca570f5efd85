"""Fourier profile tests: analysis round trips, spectral derivatives and
the harmonic extension's chart and partials.

The loop and per-mode formulas below are the plain reference versions of
the library's vectorized ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tclab.errors import Undersampled
from tclab.fourier import FourierSeries, analyze, harmonic_extension
from tclab.scenarios import single_mode_series


@st.composite
def small_series(draw):
    Q = draw(st.integers(1, 3))
    n = draw(st.integers(1, 2))
    N = draw(st.integers(1, 5))
    alpha = np.array([[draw(st.floats(-0.1, 0.1)) for _ in range(n)]
                      for _ in range(N + 1)])
    beta = np.array([[draw(st.floats(-0.1, 0.1)) for _ in range(n)]
                     for _ in range(N)])
    return FourierSeries(Q=Q, n=n, alpha=alpha, beta=beta)


@given(small_series())
@settings(max_examples=25, deadline=None)
def test_analyze_synthesize_roundtrip(series):
    m = 16 * series.Q * max(series.nmodes, 1)
    theta = np.arange(m) * series.period / m
    back = analyze(series.synthesize(theta), series.Q,
                   nmodes=series.nmodes)
    assert np.allclose(back.alpha, series.alpha, atol=1e-12)
    assert np.allclose(back.beta, series.beta, atol=1e-12)


@given(small_series())
@settings(max_examples=15, deadline=None)
def test_jet_is_synthesize_and_derivative(series):
    theta = np.linspace(-1.0, series.period + 1.0, 37)
    f, df = series.jet(theta)
    assert np.array_equal(f, series.synthesize(theta))
    assert np.array_equal(df, series.derivative(theta))


def _loop_max_active_frequency(series, tol):
    for i in range(series.nmodes, 0, -1):
        a = np.max(np.abs(series.alpha[i]))
        b = np.max(np.abs(series.beta[i - 1]))
        if max(a, b) > tol:
            return i
    return 0


def test_max_active_frequency_matches_loop():
    rng = np.random.default_rng(7)
    cases = []
    for N in (0, 1, 5, 64):
        for n in (1, 2):
            alpha = rng.standard_normal((N + 1, n)) \
                * 10.0 ** rng.uniform(-16, -1, (N + 1, n))
            beta = rng.standard_normal((N, n)) \
                * 10.0 ** rng.uniform(-16, -1, (N, n))
            cases.append(FourierSeries(2, n, alpha, beta))
            cases.append(FourierSeries(2, n, np.zeros((N + 1, n)),
                                       np.zeros((N, n))))
    # a coefficient exactly at tol is not active, one ulp above it is
    tol = 1e-13
    at = np.zeros((6, 2))
    at[3, 1] = -tol
    above = at.copy()
    above[1, 0] = np.nextafter(tol, 1.0)
    cases += [FourierSeries(1, 2, at, np.zeros((5, 2))),
              FourierSeries(1, 2, np.zeros((6, 2)), at[1:]),
              FourierSeries(1, 2, above, np.zeros((5, 2)))]
    for series in cases:
        for t in (0.0, 1e-14, tol, 1e-3):
            assert series.max_active_frequency(t) \
                == _loop_max_active_frequency(series, t)
    assert [c.max_active_frequency(tol) for c in cases[-3:]] == [0, 0, 1]


@given(small_series())
@settings(max_examples=15, deadline=None)
def test_derivative_matches_finite_differences(series):
    theta = np.linspace(0.3, series.period - 0.3, 7)
    h = 1e-6
    fd = (series.synthesize(theta + h) - series.synthesize(theta - h)) \
        / (2 * h)
    assert np.allclose(series.derivative(theta), fd, atol=1e-7)


def test_lipschitz_bounds_sampled_slope():
    series = single_mode_series(1, 3, 0.05)
    theta = np.linspace(0.0, series.period, 4096, endpoint=False)
    slopes = np.linalg.norm(series.derivative(theta), axis=-1)
    assert series.lipschitz() >= slopes.max() - 1e-9


def test_analyze_rejects_undersampled_input():
    series = single_mode_series(1, 6, 0.01)
    theta = np.arange(8) * series.period / 8
    with pytest.raises(Undersampled):
        analyze(series.synthesize(theta), 1, nmodes=6)


def test_extension_boundary_trace_is_profile():
    series = single_mode_series(2, 5, 0.02)
    surf = harmonic_extension(series, r_out=1.3)
    theta = np.linspace(0.0, series.period, 33)
    pts = surf.points(np.ones_like(theta), theta)
    assert np.allclose(pts[:, 0], 1.3 * np.cos(theta), atol=1e-12)
    assert np.allclose(pts[:, 2:], 1.3 * series.synthesize(theta),
                       atol=1e-12)


def test_extension_interior_decays_per_mode():
    # mode i at radius r carries the weight (r / r_out)^(i/Q)
    Q, i, c = 1, 3, 0.04
    series = single_mode_series(Q, i, c)
    surf = harmonic_extension(series, r_out=1.0)
    w = 0.5  # radius 0.5 since r = r_out * w^Q
    pts = surf.points(np.array([w]), np.array([0.0]))
    assert abs(pts[0, 2] - c * 0.5 ** (i / Q)) < 1e-12


def _reference_extension_partials(series, r_out, w, theta):
    """The extension's partials with one product per mode and derivative."""
    Q = series.Q
    freqs = np.arange(1, series.nmodes + 1)
    a, b = series.alpha[1:], series.beta
    ph = theta[..., None] * (freqs / Q)
    radp = freqs * w[..., None] ** (freqs - 1)
    rad = w[..., None] ** freqs
    dg_dw = (radp * np.cos(ph)) @ a + (radp * np.sin(ph)) @ b
    dg_dth = (-rad * np.sin(ph) * (freqs / Q)) @ a \
        + (rad * np.cos(ph) * (freqs / Q)) @ b
    shape = np.broadcast_shapes(w.shape, theta.shape)
    xu = np.empty(shape + (2 + series.n,))
    xv = np.empty(shape + (2 + series.n,))
    r = r_out * w ** Q
    dr = r_out * Q * w ** (Q - 1)
    xu[..., 0] = dr * np.cos(theta)
    xu[..., 1] = dr * np.sin(theta)
    xu[..., 2:] = r_out * dg_dw
    xv[..., 0] = -r * np.sin(theta)
    xv[..., 1] = r * np.cos(theta)
    xv[..., 2:] = r_out * dg_dth
    return xu, xv


@pytest.mark.parametrize("n", [1, 2])
def test_extension_partials_match_per_mode_reference(n):
    rng = np.random.default_rng(n)
    Q, N = 2, 9
    decay = 1e-2 / np.arange(1, N + 2)[:, None]
    alpha = rng.standard_normal((N + 1, n)) * decay
    beta = rng.standard_normal((N, n)) * decay[1:]
    series = FourierSeries(Q, n, alpha, beta)
    surf = harmonic_extension(series, r_out=0.7)
    xu, wu, xv, wv = surf._axes(surf.order)
    U, V, _ = surf._nodes(surf.order)
    # the open quadrature grid and the same nodes flattened
    for w, theta in ((xu[:, None], xv[None, :]), (U, V)):
        got = surf.jacobian(w, theta)
        want = _reference_extension_partials(series, 0.7, w, theta)
        for g, ref in zip(got, want):
            assert g.shape == ref.shape
            scale = np.max(np.abs(ref), axis=tuple(range(ref.ndim - 1)))
            assert np.all(np.abs(g - ref) <= 1e-14 * scale)
