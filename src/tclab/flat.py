"""Upper bounds for flat distances via the radial homotopy.

Every estimate here is one-sided: a concrete homotopy whose mass
dominates the flat distance between two currents, integrated from smooth
densities only, so the quadrature converges to an upper bound.  The
construction is the radial-projection sweep between two ball scales.
"""

from .currents import declare_ladder
from .monotonicity import radial_projection_mass
from .quadrature import gauss_legendre


def radial_homotopy_filling(current, s: float, r: float,
                            tnodes: int = 12) -> float:
    """Bound the flat gap between the ball-scale restrictions at s and r.

    Sweeping the annulus radially realizes the difference as a boundary
    plus the sweep volume; the volume is dominated by

        integral over t in (0, 1) of t^2 RPM(s t, r t) dt

    with RPM(s, r) the integral of |x_perp| / |x|^3 over the annulus,
    bounded by sqrt(D J) (``radial_projection_mass``).  The innermost
    annulus, at the first node, raises VertexTooClose when it
    reaches into the vertex ball.  The 2 * tnodes radii s t and r t are
    declared as the current's clip ladder first, so the first annulus
    solves every annulus's clip bounds in one call.
    """
    nodes, weights = gauss_legendre(tnodes, 0.0, 1.0)
    declare_ladder(current, [c * t for c in (s, r) for t in nodes])
    total = 0.0
    for t, w in zip(nodes, weights):
        total += w * t * t * radial_projection_mass(current, s * t, r * t)
    return float(total)
