"""Quadrature rules used throughout the package.

Two rules cover everything here: Gauss-Legendre on open intervals, and the
uniform trapezoid rule for periodic integrands, which is spectrally
accurate for smooth periodic data and nested, since doubling its node
count keeps every old node.  A chart surface takes Gauss-Legendre along
each axis, or the trapezoid rule along an angle axis it declares periodic.
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


def trapezoid(order: int, a: float, b: float):
    """Nodes a + k h and weights h, h = (b - a) / order, of the periodic
    trapezoid rule over one period [a, b)."""
    m = int(order)
    if m < 1:
        raise ValueError("quadrature order must be >= 1")
    h = (b - a) / m
    return a + h * np.arange(m), np.full(m, h)


def periodic_trapezoid(fn, period: float, nodes: int, rtol: float = 1e-10):
    """Integrate a smooth periodic vector-valued function over one period.

    Doubles the node count, at most MAX_DOUBLINGS times, until two
    successive levels agree to ``rtol`` relative; returns the finer value
    and raises QuadratureNotConverged if no pair of levels agrees.  The
    levels are nested: a doubling evaluates ``fn`` only at the m midpoints
    of the current m nodes, and the new value is half the old one plus
    the new step times their sum.  ``fn`` must accept an array of angles
    and return values whose leading axis matches it.
    """
    m = int(nodes)
    h = period / m
    val = np.sum(fn(np.arange(m) * h), axis=0) * h
    for _ in range(MAX_DOUBLINGS):
        new = 0.5 * val + np.sum(fn((np.arange(m) + 0.5) * h), axis=0) \
            * (0.5 * h)
        m *= 2
        h *= 0.5
        scale = max(float(np.max(np.abs(new))), 1.0)
        if np.all(np.abs(new - val) <= rtol * scale):
            return new
        val = new
    raise QuadratureNotConverged(
        f"periodic trapezoid still moving after {MAX_DOUBLINGS} doublings "
        f"({m} nodes)")
