"""Almost-minimality probes on calibrated surfaces.

A probe exercises the defining inequality itself: the competitor
T + boundary(S) built from a short homotopy sweep S must not undercut
M(T) by more than Omega M(S).  The surfaces probed here, the flat disk
and the equatorial sphere, are calibrated.  The paper's first-variation
laws (for semicalibrations and for cross sections of spheres) are not
certified by any run; the test suite checks them against the stepped
derivative of ``_Flow.mass_change``, the mass change the probes use.

Probes work on the flow x -> x + t chi(x) of a Bump chi = f d, a
polynomial profile f that vanishes outside a ball times a constant
direction d, so the flowed surface and the sweep differ from T only at
the quadrature nodes inside that ball.  The surface's quadrature frame
and mass are built once per surface; each bump evaluates f and its
gradient at its support nodes only.  Its jacobian d (grad f)^T is rank
one, so the flowed tangents are x_u + t alpha d and x_v + t beta d with
alpha = grad f . x_u and beta = grad f . x_v:
- the area change |x_u' ^ x_v'|^2 - |x_u ^ x_v|^2 is k1 t + k2 t^2, and
  a mass change integrates it over (A' + A), so no two order-one masses
  are subtracted;
- the sweep's volume element |chi ^ x_u' ^ x_v'| = f |d ^ x_u ^ x_v|
  does not depend on t, so a sweep of length eps has mass eps times the
  surface integral of that element.
"""

from dataclasses import dataclass

import numpy as np

from .currents import ParamSurface
from .geom import rowdot


@dataclass(frozen=True)
class Bump:
    """The field chi = f d, with f = (1 - |x - center|^2/radius^2)^power
    inside the ball |x - center| < radius and 0 outside, and d the
    constant ``direction``."""

    center: np.ndarray
    radius: float
    direction: np.ndarray
    power: int

    def profile(self, x):
        """f and its gradient at points x (..., d) inside the ball."""
        y = x - self.center
        r2 = self.radius * self.radius
        g = 1.0 - rowdot(y, y) / r2
        p = self.power
        return g ** p, (-p * g ** (p - 1))[..., None] * (2.0 * y / r2)


def bump_field(center, radius: float, direction, power: int = 5) -> Bump:
    """Polynomial bump (1 - |y|^2/R^2)^power times a constant direction.

    C^(power-1) at the support edge so fixed-order quadrature of flowed
    surfaces converges fast.  Raise the power when measuring quantities
    that sit below the default's quadrature floor, such as high-order
    derivative fits.
    """
    return Bump(np.asarray(center, dtype=float), radius,
                np.asarray(direction, dtype=float), int(power))


@dataclass(frozen=True)
class ProbeResult:
    """One almost-minimality trial at one sweep length."""

    mass: float
    mass_deformed: float
    mass_sweep: float
    slack: float
    passed: bool


def _base_frame(surface):
    """Quadrature frame, area element and mass of the surface, built once.

    Returns (x, x_u, x_v, W, A, mass) at the surface's quadrature order.
    Every probe and flow on the surface reads the same frame, so it is
    memoized on the instance per order, as read-only arrays.
    """
    memo = vars(surface).setdefault("_calib_frame_memo", {})
    order = surface.order
    if order not in memo:
        x, xu, xv, W = surface._frame(order)
        data = (x, xu, xv, W, surface._area_element(xu, xv))
        for arr in data:
            arr.flags.writeable = False
        memo[order] = data + (surface.mass(check=False),)
    return memo[order]


@dataclass(frozen=True)
class _Flow:
    """The flow x -> x + t chi(x) at the quadrature nodes inside chi's ball.

    ``weight`` and ``area`` are the kept nodes' quadrature weights and
    |x_u ^ x_v|; ``growth`` holds the coefficients k1, k2 of
    |x_u(t) ^ x_v(t)|^2 - |x_u ^ x_v|^2 = k1 t + k2 t^2 at those nodes;
    ``sweep_rate`` is the surface integral of |chi ^ x_u ^ x_v|, the mass
    swept per unit time.
    """

    weight: np.ndarray
    area: np.ndarray
    growth: np.ndarray
    sweep_rate: float

    def area_change(self, s, t):
        """|x_u ^ x_v|^2 at time t minus at time s, written as (t - s)
        times a polynomial so that no order-one terms cancel."""
        k1, k2 = self.growth
        return (t - s) * (k1 + k2 * (t + s))

    def mass_change(self, s, t) -> float:
        """M(phi_t T) - M(phi_s T) for phi_t = id + t chi, integrated as
        (A_t^2 - A_s^2) / (A_t + A_s) with A_t the flowed area element."""
        A2 = self.area * self.area
        At = np.sqrt(np.maximum(A2 + self.area_change(0.0, t), 0.0))
        As = np.sqrt(np.maximum(A2 + self.area_change(0.0, s), 0.0))
        num = self.area_change(s, t)
        den = At + As
        vals = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        return float(np.sum(self.weight * vals))


def _flow(surface, chi: Bump) -> _Flow:
    """chi's flow on the surface's frame, restricted to chi's ball.

    f and its gradient are evaluated only at the nodes with
    |x - center|^2 < radius^2, where alone chi may be nonzero.  With
    E, F, G the products of x_u and x_v, p_u = d.x_u, p_v = d.x_v,
    alpha = grad f.x_u and beta = grad f.x_v, the flowed tangent plane is
    x_u ^ x_v + t d ^ w with w = alpha x_v - beta x_u.  The result is
    memoized on chi per surface, so every step and sweep length of one
    bump reuses it.
    """
    memo = vars(chi).setdefault("_flow_memo", {})
    key = (surface, surface.order)
    if key not in memo:
        x, xu, xv, W, A, _ = _base_frame(surface)
        y = x - chi.center
        keep = np.flatnonzero(rowdot(y, y) < float(chi.radius) ** 2)
        xu, xv, W, A, d = xu[keep], xv[keep], W[keep], A[keep], chi.direction
        f, grad = chi.profile(x[keep])
        E, F, G = rowdot(xu, xu), rowdot(xu, xv), rowdot(xv, xv)
        pu, pv, dd = rowdot(xu, d), rowdot(xv, d), rowdot(d, d)
        al, be = rowdot(grad, xu), rowdot(grad, xv)
        gu, gv = pu * G - pv * F, pv * E - pu * F
        # 2 <x_u ^ x_v, d ^ w> and |d ^ w|^2
        growth = np.stack((
            2.0 * (al * gu + be * gv),
            dd * (al * al * G - 2.0 * al * be * F + be * be * E)
            - (al * pv - be * pu) ** 2))
        # |d ^ x_u ^ x_v| = |d_perp| A, d_perp = d - (g_u x_u + g_v x_v)/A^2:
        # the Gram determinant of (d, x_u, x_v) cancels when d is near tangent
        A2 = E * G - F * F
        cu, cv = gu / A2, gv / A2
        perp2 = sum((dk - cu * u - cv * v) ** 2
                    for dk, u, v in zip(d, xu.T, xv.T))
        rate = float(np.sum(W * f * A * np.sqrt(perp2)))
        memo[key] = _Flow(W, A, growth, rate)
    return memo[key]


def sweep_mass(surface, chi: Bump, eps: float) -> float:
    """Mass of the 3-current swept by flowing the surface along chi
    for time eps: its volume element does not change along the flow."""
    return eps * _flow(surface, chi).sweep_rate


def almost_minimality_probe(surface, omega: float, chi: Bump,
                            epsilons) -> list:
    """Check M(T) <= M(T + boundary S) + Omega M(S) on sweep competitors.

    The sweep S flows the surface along chi for time eps, so that
    T + boundary S is the pushforward of T by id + eps chi (up to the
    side walls already counted in S).  The slack Omega M(S) + M(T +
    boundary S) - M(T) integrates the mass change over chi's support, so
    no two masses are subtracted; slack below -1e-8 fails.
    """
    mass0 = _base_frame(surface)[-1]
    flow = _flow(surface, chi)
    rows = []
    for eps in epsilons:
        gain = flow.mass_change(0.0, eps)
        swept = sweep_mass(surface, chi, eps)
        slack = omega * swept + gain
        rows.append(ProbeResult(mass=float(mass0),
                                mass_deformed=float(mass0 + gain),
                                mass_sweep=float(swept),
                                slack=float(slack),
                                passed=bool(slack >= -1e-8)))
    return rows


def spherical_cap(radius: float, phi_min: float, phi_max: float,
                  dim: int = 3, order=(48, 96)) -> ParamSurface:
    """Latitude band phi in (phi_min, phi_max) of the sphere |x| = radius,
    embedded in R^dim with trailing coordinates zero."""
    if dim < 3:
        raise ValueError("need ambient dimension at least 3")

    def chart(phi, lam):
        phi, lam = np.asarray(phi, float), np.asarray(lam, float)
        out = np.zeros(np.broadcast_shapes(phi.shape, lam.shape) + (dim,))
        out[..., 0] = radius * np.sin(phi) * np.cos(lam)
        out[..., 1] = radius * np.sin(phi) * np.sin(lam)
        out[..., 2] = radius * np.cos(phi)
        return out

    def jacobian(phi, lam):
        phi, lam = np.asarray(phi, float), np.asarray(lam, float)
        shape = np.broadcast_shapes(phi.shape, lam.shape) + (dim,)
        xp = np.zeros(shape)
        xl = np.zeros(shape)
        xp[..., 0] = radius * np.cos(phi) * np.cos(lam)
        xp[..., 1] = radius * np.cos(phi) * np.sin(lam)
        xp[..., 2] = -radius * np.sin(phi)
        xl[..., 0] = -radius * np.sin(phi) * np.sin(lam)
        xl[..., 1] = radius * np.sin(phi) * np.cos(lam)
        return xp, xl

    return ParamSurface(chart, (phi_min, phi_max, 0.0, 2 * np.pi),
                        jacobian=jacobian, order=order)
