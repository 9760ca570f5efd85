"""Quadrature rule tests.

Oracles: n-point Gauss-Legendre integrates polynomials of degree 2n - 1
exactly, and over one period the trapezoid rule on m nodes integrates
exp(cos theta) to 2 pi I0(1) with an error that falls faster than any
power of m.
"""

import numpy as np
import pytest

from tclab.errors import QuadratureNotConverged
from tclab.quadrature import gauss_legendre, periodic_trapezoid

# 2 pi I0(1), I0 the modified Bessel function of the first kind
TWO_PI_I0_1 = 2.0 * np.pi * 1.2660658777520082


@pytest.mark.parametrize("order", [1, 3, 8])
def test_gauss_legendre_is_exact_to_degree_2n_minus_1(order):
    a, b = -0.5, 2.0
    x, w = gauss_legendre(order, a, b)
    deg = 2 * order - 1
    want = (b ** (deg + 1) - a ** (deg + 1)) / (deg + 1)
    assert np.sum(w * x ** deg) == pytest.approx(want, rel=1e-13)
    assert np.sum(w) == pytest.approx(b - a, rel=1e-14)


def test_gauss_legendre_rejects_empty_rule():
    with pytest.raises(ValueError):
        gauss_legendre(0, 0.0, 1.0)


def test_periodic_trapezoid_converges_on_smooth_data():
    theta = np.arange(32) * (2.0 * np.pi / 32)
    values = np.stack([np.exp(np.cos(theta)), np.cos(theta) ** 2], axis=-1)

    # on 16 nodes the error of exp(cos theta) is about 4 pi I16(1), 1e-17,
    # so one halving agrees to 1e-13
    got = periodic_trapezoid(values, 2.0 * np.pi, rtol=1e-13)
    assert got.shape == (2,)
    assert got[0] == pytest.approx(TWO_PI_I0_1, rel=1e-14)
    assert got[1] == pytest.approx(np.pi, rel=1e-14)


def test_periodic_trapezoid_raises_after_one_halving():
    # the 4 even nodes read 1 and the 4 midpoints 2: the coarse rule and
    # the fine one never settle
    values = np.tile([1.0, 2.0], 4)
    with pytest.raises(QuadratureNotConverged, match="4 and 8 nodes"):
        periodic_trapezoid(values, 2.0 * np.pi)

    # nested levels: the coarse rule reads the 4 even nodes and the fine
    # one all 8, so a constant agrees on both
    assert periodic_trapezoid(np.ones(8), 2.0 * np.pi) == 4 * (np.pi / 2)
