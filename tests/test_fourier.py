"""Fourier profile tests: analysis round trips, spectral derivatives and
the harmonic extension's chart and partials.

The loop and per-mode formulas below are the plain reference versions of
the library's vectorized ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    # analyze keeps more modes than the series stores: the leading
    # N + 1 rows are the series and the rest vanish to roundoff
    N = len(series.beta)
    m = 16 * series.Q * max(N, 1)
    theta = np.arange(m) * series.period / m
    back = analyze(series.jet(theta)[0], series.Q)
    assert len(back.beta) >= N
    assert np.allclose(back.alpha[:N + 1], series.alpha, atol=1e-12)
    assert np.allclose(back.beta[:N], series.beta, atol=1e-12)
    assert np.all(np.abs(back.alpha[N + 1:]) < 1e-12)
    assert np.all(np.abs(back.beta[N:]) < 1e-12)


def _summed_jet(series, theta):
    """f and f' as explicit sums of one cos and one sin term per mode."""
    Q = series.Q
    f = np.zeros(theta.shape + (series.n,)) + series.alpha[0]
    df = np.zeros(theta.shape + (series.n,))
    for i in range(1, len(series.beta) + 1):
        c = np.cos(i * theta / Q)[..., None]
        s = np.sin(i * theta / Q)[..., None]
        f += series.alpha[i] * c + series.beta[i - 1] * s
        df += (i / Q) * (series.beta[i - 1] * c - series.alpha[i] * s)
    return f, df


@given(small_series())
@settings(max_examples=15, deadline=None)
def test_jet_matches_explicit_mode_sums(series):
    theta = np.linspace(-1.0, series.period + 1.0, 37)
    got = series.jet(theta)
    want = _summed_jet(series, theta)
    for g, ref in zip(got, want):
        assert g.shape == ref.shape
        assert np.allclose(g, ref, rtol=0.0, atol=1e-14)


def _sparse_series():
    """Series whose stored rows are mostly exact zeros."""
    one = np.zeros((13, 1))
    one[7, 0] = 0.03
    mixed_a = np.zeros((9, 2))
    mixed_b = np.zeros((8, 2))
    mixed_a[0] = (0.2, -0.1)
    mixed_a[2, 0] = 0.04
    mixed_a[5, 1] = -0.02
    mixed_b[2, 1] = 0.05
    mixed_b[5, 0] = 0.01
    mixed_b[7, 1] = -0.03
    zero_a = np.zeros((7, 2))
    zero_a[0] = (0.3, 0.0)
    return [
        (FourierSeries(2, 1, one, np.zeros((12, 1))), [7]),
        (FourierSeries(3, 2, mixed_a, mixed_b), [2, 3, 5, 6, 8]),
        (FourierSeries(1, 2, zero_a, np.zeros((6, 2))), []),
        (FourierSeries(2, 2, [[0.1, -0.2]], np.zeros((0, 2))), []),
    ]


@pytest.mark.parametrize("case", range(4),
                         ids=["one-of-12", "mixed", "all-zero", "N=0"])
def test_jet_on_live_modes_matches_explicit_mode_sums(case):
    series, live = _sparse_series()[case]
    assert series.live_modes.tolist() == live
    theta = np.linspace(-1.0, series.period + 1.0, 41)
    for g, ref in zip(series.jet(theta), _summed_jet(series, theta)):
        assert g.shape == ref.shape == theta.shape + (series.n,)
        assert np.allclose(g, ref, rtol=0.0, atol=1e-14)


def _loop_top_mode(series):
    for i in range(len(series.beta), 0, -1):
        if np.any(series.alpha[i]) or np.any(series.beta[i - 1]):
            return i
    return 0


def test_top_mode_matches_loop():
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
    # every nonzero coefficient is live, down to the smallest subnormal;
    # the constant term and a signed zero are not
    tiny = np.zeros((6, 2))
    tiny[3, 1] = -5e-324
    tiny[0, 0] = 1.0
    signed = np.zeros((6, 2))
    signed[5, 0] = -0.0
    cases += [FourierSeries(1, 2, tiny, np.zeros((5, 2))),
              FourierSeries(1, 2, np.zeros((6, 2)), tiny[1:]),
              FourierSeries(1, 2, signed, np.zeros((5, 2)))]
    for series in cases:
        assert series.top_mode == _loop_top_mode(series)
        live = series.live_modes
        assert series.top_mode == (int(live[-1]) if live.size else 0)
    assert [c.top_mode for c in cases[-3:]] == [3, 3, 0]


@given(small_series())
@settings(max_examples=15, deadline=None)
def test_derivative_matches_finite_differences(series):
    theta = np.linspace(0.3, series.period - 0.3, 7)
    h = 1e-6
    fd = (series.jet(theta + h)[0] - series.jet(theta - h)[0]) / (2 * h)
    assert np.allclose(series.jet(theta)[1], fd, atol=1e-7)


def test_lipschitz_bounds_sampled_slope():
    series = single_mode_series(1, 3, 0.05)
    theta = np.linspace(0.0, series.period, 4096, endpoint=False)
    slopes = np.linalg.norm(series.jet(theta)[1], axis=-1)
    assert series.lipschitz() >= slopes.max() - 1e-9


def test_extension_boundary_trace_is_profile():
    series = single_mode_series(2, 5, 0.02)
    surf = harmonic_extension(series, r_out=1.3)
    theta = np.linspace(0.0, series.period, 33)
    pts = surf.points(np.ones_like(theta), theta)
    assert np.allclose(pts[:, 0], 1.3 * np.cos(theta), atol=1e-12)
    assert np.allclose(pts[:, 2:], 1.3 * series.jet(theta)[0], atol=1e-12)


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
    freqs = np.arange(1, len(series.beta) + 1)
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


def _reference_extension_points(series, r_out, w, theta):
    """The extension's chart summed one mode at a time."""
    Q = series.Q
    shape = np.broadcast_shapes(w.shape, theta.shape)
    g = np.zeros(shape + (series.n,)) + series.alpha[0]
    for i in range(1, len(series.beta) + 1):
        rad = (w ** i)[..., None]
        g = g + rad * (series.alpha[i] * np.cos(i * theta / Q)[..., None]
                       + series.beta[i - 1] * np.sin(i * theta / Q)[..., None])
    x = np.empty(shape + (2 + series.n,))
    r = r_out * w ** Q
    x[..., 0] = r * np.cos(theta)
    x[..., 1] = r * np.sin(theta)
    x[..., 2:] = r_out * g
    return x


@pytest.mark.parametrize("n, sparse", [(1, False), (2, False),
                                       (1, True), (2, True)],
                         ids=["1", "2", "1-zero-rows", "2-zero-rows"])
def test_extension_partials_match_per_mode_reference(n, sparse):
    rng = np.random.default_rng(n)
    Q, N = 2, 9
    decay = 1e-2 / np.arange(1, N + 2)[:, None]
    alpha = rng.standard_normal((N + 1, n)) * decay
    beta = rng.standard_normal((N, n)) * decay[1:]
    if sparse:
        # modes 2, 4, 6 and 8 exactly zero, mode 9 still the top one
        alpha[2::2] = 0.0
        beta[1::2] = 0.0
    series = FourierSeries(Q, n, alpha, beta)
    assert series.live_modes.size == (5 if sparse else N)
    surf = harmonic_extension(series, r_out=0.7)
    u, _, v, _ = surf._axes(surf.order)
    # the open quadrature grid and the same nodes flattened, u-major
    for w, theta in ((u[:, None], v[None, :]),
                     (np.repeat(u, v.size), np.tile(v, u.size))):
        got = surf.jacobian(w, theta) + (surf.points(w, theta),)
        want = _reference_extension_partials(series, 0.7, w, theta) \
            + (_reference_extension_points(series, 0.7, w, theta),)
        for g, ref in zip(got, want):
            assert g.shape == ref.shape
            scale = np.max(np.abs(ref), axis=tuple(range(ref.ndim - 1)))
            assert np.all(np.abs(g - ref) <= 1e-14 * scale)
