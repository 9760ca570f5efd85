"""Quadrature rules used throughout the package.

Two rules cover everything here: tensor Gauss-Legendre on chart rectangles
and the uniform trapezoid rule for periodic integrands, which is spectrally
accurate for smooth periodic data.
"""

from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged

MAX_DOUBLINGS = 6


@lru_cache(maxsize=128)
def _gl_cached(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gauss_legendre(order: int, a: float, b: float):
    """Nodes and weights for Gauss-Legendre of the given order on [a, b]."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    x, w = _gl_cached(int(order))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def periodic_trapezoid(fn, period: float, nodes: int, rtol: float = 1e-10):
    """Integrate a smooth periodic vector-valued function over one period.

    Doubles the node count, at most MAX_DOUBLINGS times, until two
    successive levels agree to ``rtol`` relative; returns the finer value
    and raises QuadratureNotConverged if no pair of levels agrees.  ``fn``
    must accept an array of angles and return values whose leading axis
    matches it.
    """
    m = int(nodes)
    theta = np.arange(m) * (period / m)
    val = np.sum(fn(theta), axis=0) * (period / m)
    for _ in range(MAX_DOUBLINGS):
        m *= 2
        theta = np.arange(m) * (period / m)
        new = np.sum(fn(theta), axis=0) * (period / m)
        scale = max(float(np.max(np.abs(new))), 1.0)
        if np.all(np.abs(new - val) <= rtol * scale):
            return new
        val = new
    raise QuadratureNotConverged(
        f"periodic trapezoid still moving after {MAX_DOUBLINGS} doublings "
        f"({m} nodes)")
