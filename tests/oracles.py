"""Reference computations shared by several test modules.

``mapped_mass`` is the mass of a surface's image under a C^1 map, from
its quadrature frame with the partials mapped by the map's jacobian, so
the chart is evaluated once per node.  Tests use it as the reference for
masses the library computes without moving the surface: the competitor
in plane coordinates, and the first-variation sweep along id + t chi.

``polar_disk`` is the flat disk written out as an explicit polar chart,
the reference for the cone over a flat circle.

``check_orthonormal_pairs`` checks a stack of plane bases against the
defining properties of Gram-Schmidt on its spanning pairs, not against
another Gram-Schmidt.
"""

import numpy as np

from tclab.currents import ParamSurface


def mapped_mass(surface, dphi, order=None):
    """Mass of the surface's image under a map with jacobian field dphi.

    Maps the quadrature frame at ``order`` (partials to dphi(x) @
    partials) and sums one rule, with no self-check; the mass reads only
    the jacobian, not where the map sends the nodes.
    """
    x, xu, xv, W = surface._frame(order or surface.order)
    D = np.asarray(dphi(x), dtype=float)
    area = ParamSurface._area_element(np.einsum("...ij,...j->...i", D, xu),
                                      np.einsum("...ij,...j->...i", D, xv))
    return float(np.sum(W * area))


def polar_disk(radius, order=(48, 96)):
    """Disk of the given radius in the plane z = 0 of R^3.

    The chart is (w, theta) -> (R w cos theta, R w sin theta, 0) with its
    partials written out by hand.  It multiplies (R w) cos theta where the
    cone over the circle of radius R multiplies w (R cos theta), so the
    two frames agree bit for bit only at R = 1.
    """

    def chart(w, theta):
        out = np.zeros(np.broadcast_shapes(w.shape, theta.shape) + (3,))
        out[..., 0] = radius * w * np.cos(theta)
        out[..., 1] = radius * w * np.sin(theta)
        return out

    def jac(w, theta):
        shape = np.broadcast_shapes(w.shape, theta.shape) + (3,)
        xu = np.zeros(shape)
        xv = np.zeros(shape)
        xu[..., 0] = radius * np.cos(theta)
        xu[..., 1] = radius * np.sin(theta)
        xv[..., 0] = -radius * w * np.sin(theta)
        xv[..., 1] = radius * w * np.cos(theta)
        return xu, xv

    return ParamSurface(chart, (0.0, 1.0, 0.0, 2.0 * np.pi), jacobian=jac,
                        order=order, radial_axis=0)


def check_orthonormal_pairs(B, u, v, tol=1e-15):
    """Row k of the (K, d, 2) stack B is Gram-Schmidt on (u[k], v[k]).

    Each basis is orthonormal to ``tol``, e1 is u / |u|, v lies in the
    span to ``tol`` |v| and e2 @ v > 0.
    """
    e1, e2 = B[..., 0], B[..., 1]
    gram = np.einsum("kdi,kdj->kij", B, B)
    assert np.all(np.abs(gram - np.eye(2)) <= tol)
    unit_u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    assert np.all(np.abs(e1 - unit_u) <= tol)
    c1 = np.sum(v * e1, axis=-1, keepdims=True)
    c2 = np.sum(v * e2, axis=-1, keepdims=True)
    resid = np.linalg.norm(v - c1 * e1 - c2 * e2, axis=-1)
    assert np.all(resid <= tol * np.linalg.norm(v, axis=-1))
    assert np.all(c2 > 0)
