"""Quadrature rules used throughout the package.

Two rules cover everything here: Gauss-Legendre on open intervals, and the
uniform trapezoid rule for periodic integrands, which converges
geometrically on smooth periodic data and is nested, since doubling its
node count keeps every old node.  A chart surface takes Gauss-Legendre
along its radial axis u and the trapezoid rule along its angle axis v,
which spans one full period on every chart.  A periodic sum over a curve
is checked by one halving: it takes values on 2m nodes, sized so that
the rule on the m even ones already agrees with the rule on all 2m, and
raises where they differ.
"""

from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged


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


def periodic_trapezoid(values, period: float, rtol: float = 1e-10):
    """Integrate a smooth periodic vector-valued function over one period.

    ``values`` holds the function at the 2m nodes k period / (2m) along
    its leading axis.  The m even nodes give the coarse rule; the fine
    value is half the coarse one plus the half step times the sum at the
    m odd nodes, the midpoints.  Returns the fine value when the two agree
    to ``rtol`` relative, and raises QuadratureNotConverged naming both
    node counts otherwise.
    """
    m = values.shape[0] // 2
    h = period / m
    coarse = np.sum(values[::2], axis=0) * h
    fine = 0.5 * coarse + np.sum(values[1::2], axis=0) * (0.5 * h)
    gap = float(np.max(np.abs(fine - coarse)))
    if gap <= rtol * max(float(np.max(np.abs(fine))), 1.0):
        return fine
    raise QuadratureNotConverged(
        f"periodic trapezoid moved {gap:.3e} between {m} and {2 * m} nodes")
