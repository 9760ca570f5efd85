"""Mass ratios over ball scales, almost-monotonicity fits and decay envelopes.

For a 2-current with vertex at the origin the normalized mass ratio is

    e(r) = ||T||(B_r) / (pi r^2) - Q

and the deviation integral collects |x_perp|^2 / |x|^4 over annuli, where
x_perp is the component of the position normal to the surface.  Cones have
deviation zero; the fitted constant of the almost-monotonicity inequality

    dev(s, r) <= C02 * (e(r) - e(s) + r^alpha0)

measures how far a given current is from that ideal.  Decay envelopes
bound e(s) by a power of s/r plus an additive drift with its own rate.
One loop over the radius pairs of a profile fits both constants.
"""

from dataclasses import dataclass

import numpy as np

from .currents import (OMEGA2, RadialRestriction, annulus_mass,
                       declare_ladder)
from .errors import VertexTooClose
from .geom import rowdot

VERTEX_RADIUS = 1e-6
# largest fitted constant (almost-monotonicity C02, envelope C) that passes
BUDGET = 10.0


@dataclass(frozen=True)
class MassProfile:
    """Ball masses of one current over an increasing ladder of radii."""

    radii: np.ndarray
    values: np.ndarray
    Q: int

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)
        if radii.ndim != 1 or radii.size < 2:
            raise ValueError("need at least two radii")
        if radii.size != values.size:
            raise ValueError("radii and values must have equal length")
        if np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
            raise ValueError("radii must be positive and increasing")

    def excess(self) -> np.ndarray:
        return self.values / (OMEGA2 * self.radii ** 2) - self.Q


@dataclass(frozen=True)
class DecayConstants:
    """Constants steering the mass-ratio decay estimate.

    epsilon12 sets the geometric rate a = 2 / (1 - epsilon12); alpha0 is
    the almost-minimality exponent, cbar its coefficient and eps the drift
    rate, subject to 2 + alpha0 > eps + a.
    """

    epsilon12: float
    alpha0: float = 1.0
    cbar: float = 0.0
    eps: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.epsilon12 < 1.0:
            raise ValueError("epsilon12 must lie in (0, 1)")
        if self.alpha0 <= 0 or self.cbar < 0 or self.eps <= 0:
            raise ValueError("alpha0 and eps must be positive, cbar >= 0")
        if 2.0 + self.alpha0 <= self.eps + self.a:
            raise ValueError(
                f"need 2 + alpha0 > eps + a, got a = {self.a:.4f}")

    @property
    def a(self) -> float:
        return 2.0 / (1.0 - self.epsilon12)


def mass_profile(current, radii, Q: int) -> MassProfile:
    """Ball masses of ``current`` at the radii.

    The radii are declared as the current's clip ladder first, so the
    first ball of each angle count solves every ball's clip bounds in one
    call, and the slabs between consecutive radii find theirs solved.
    """
    declare_ladder(current, radii)
    values = np.array([annulus_mass(current, 0.0, float(r)) for r in radii])
    return MassProfile(radii=np.asarray(radii, float), values=values, Q=Q)


def _tangent_perp(x, xu, xv):
    """|x_perp|^2 against the tangent plane spanned by xu, xv, and |x|^2."""
    e = rowdot(xu, xu)
    f = rowdot(xu, xv)
    g = rowdot(xv, xv)
    pu = rowdot(xu, x)
    pv = rowdot(xv, x)
    det = e * g - f * f
    ca = (g * pu - f * pv) / det
    cb = (e * pv - f * pu) / det
    perp = x - ca[..., None] * xu - cb[..., None] * xv
    return rowdot(perp, perp), rowdot(x, x)


def _annulus_integral(current, s: float, r: float, density) -> float:
    """Integral of density(x, xu, xv) over the annulus between s and r.

    The inner radius must clear the vertex ball; an annulus that misses
    the current integrates to 0.
    """
    if s < VERTEX_RADIUS:
        raise VertexTooClose(
            f"inner radius {s} is inside the vertex ball {VERTEX_RADIUS}")
    return RadialRestriction(current, s, r).integrate_density(density)


def deviation_integral(current, s: float, r: float) -> float:
    """Integral of |x_perp|^2 / |x|^4 over the annulus between s and r.

    Normal components are taken against the surface tangent plane.
    """

    def density(x, xu, xv):
        p2, x2 = _tangent_perp(x, xu, xv)
        return p2 / x2 ** 2

    return _annulus_integral(current, s, r, density)


def radial_projection_mass(current, s: float, r: float) -> float:
    """Cauchy-Schwarz bound sqrt(D J) on the integral of |x_perp| / |x|^3
    over the annulus between s and r: D is the deviation integral and J
    that of 1 / |x|^2, two smooth densities summed on one frame."""

    def density(x, xu, xv):
        p2, x2 = _tangent_perp(x, xu, xv)
        return np.stack([p2 / x2 ** 2, 1.0 / x2])

    D, J = _annulus_integral(current, s, r, density)
    return float(np.sqrt(D * J))


def synthesize_decay_profile(constants: DecayConstants, e0: float,
                             r0: float, radii, Q: int = 1) -> MassProfile:
    """Closed-form mass profile of the comparison rate equation.

    Integrating d/dr (r^{-a} gap(r)) = -a cbar r^{eps - 1} from s to r0
    with gap(r) = ||T||(B_r) - Q pi r^2 gives

        e(s) = (s/r0)^{a-2} e(r0)
             + (a cbar / (eps pi)) s^{a-2} (r0^eps - s^eps).
    """
    radii = np.asarray(radii, dtype=float)
    a = constants.a
    eps = constants.eps
    drift = (a * constants.cbar / (eps * OMEGA2)) \
        * radii ** (a - 2.0) * (r0 ** eps - radii ** eps)
    e = (radii / r0) ** (a - 2.0) * e0 + drift
    values = OMEGA2 * radii ** 2 * (Q + e)
    return MassProfile(radii=radii, values=values, Q=Q)


@dataclass(frozen=True)
class DecayReport:
    """Least constants closing, over all radius pairs s < r, the envelope
    e(s) <= (s/r)^(a-2) e(r) + c s^(a-2) r^eps and almost-monotonicity
    dev(s, r) <= c02 (e(r) - e(s) + r^alpha0); c02 is None without slab
    deviations, and ``infeasible`` lists the pairs (s, r) whose
    e(r) - e(s) + r^alpha0 is not positive, which fail the fit."""

    c: float
    c02: float | None
    infeasible: list

    @property
    def passed(self) -> bool:
        return (not self.infeasible and self.c <= BUDGET
                and (self.c02 is None or self.c02 <= BUDGET))


def fit_decay(profile: MassProfile, constants: DecayConstants,
              slabs=None) -> DecayReport:
    """Fit both decay constants in one loop over the profile's radius pairs.

    ``slabs`` holds the deviation integrals between consecutive radii;
    dev(s, r) is their sum between s and r, and without them only the
    envelope is fitted.
    """
    e = profile.excess()
    rr = profile.radii
    a = constants.a
    eps = constants.eps
    cum = None if slabs is None else np.concatenate([[0.0], np.cumsum(slabs)])
    c = 0.0
    c02 = None if cum is None else 0.0
    infeasible = []
    for i in range(rr.size):
        for j in range(i + 1, rr.size):
            s, r = rr[i], rr[j]
            need = (e[i] - (s / r) ** (a - 2.0) * e[j]) \
                / (s ** (a - 2.0) * r ** eps)
            c = max(c, float(need))
            if cum is not None:
                rhs = e[j] - e[i] + r ** constants.alpha0
                if rhs <= 0:
                    infeasible.append((float(s), float(r)))
                else:
                    c02 = max(c02, float((cum[j] - cum[i]) / rhs))
    return DecayReport(c=c, c02=c02, infeasible=infeasible)
