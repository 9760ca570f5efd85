"""Almost-minimality probes on calibrated surfaces.

A probe exercises the defining inequality itself: the competitor
T + boundary(S) built from a short homotopy sweep S must not undercut
M(T) by more than Omega M(S).  The surfaces probed here, the flat disk
and the equatorial sphere, are calibrated.  The paper's first-variation
laws (for semicalibrations and for cross sections of spheres) are not
certified by any run; the test suite checks them against the stepped
derivative of ``_Flow.mass_change``, the mass change the probes use.

Probes work on the flow x -> x + t chi(x) of a TestVectorField, which
vanishes outside its ball, so the flowed surface and the sweep differ from
T only at the quadrature nodes inside that ball.  The surface's quadrature
frame and mass are built once per surface; each field evaluates chi and
its jacobian D at its support nodes only and keeps there the 15 distinct
dot products of chi, x_u, x_v, D x_u and D x_v, each one ``geom.rowdot``.
Every step and sweep time then follows by polynomials in t: the area
change |x_u' ^ x_v'|^2 - |x_u ^ x_v|^2 is a quartic, and a mass change
integrates it over (A' + A), so no two order-one masses are subtracted;
the sweep's volume element is the closed-form 3x3 Gram determinant of
(chi, x_u', x_v').
"""

from dataclasses import dataclass

import numpy as np

from .currents import ParamSurface
from .geom import rowdot
from .quadrature import gauss_legendre

# Gauss-Legendre nodes in time of each sweep
SWEEP_NODES = 8


@dataclass(frozen=True)
class TestVectorField:
    """Compactly supported vector field with jacobian for flows.

    ``func`` maps positions (..., d) to vectors (..., d) and ``jac`` to
    their jacobians (..., d, d).  Both must vanish wherever
    |x - center| >= radius: mass changes and sweeps are evaluated only at
    the quadrature nodes inside that ball.
    """

    func: object
    jac: object
    center: np.ndarray
    radius: float

    def __call__(self, x):
        return self.func(x)


def bump_field(center, radius: float, direction,
               power: int = 5) -> TestVectorField:
    """Polynomial bump (1 - |y|^2/R^2)^power times a constant direction.

    C^(power-1) at the support edge so fixed-order quadrature of flowed
    surfaces converges fast; the jacobian is analytic.  Raise the power
    when measuring quantities that sit below the default's quadrature
    floor, such as high-order derivative fits.
    """
    center = np.asarray(center, dtype=float)
    direction = np.asarray(direction, dtype=float)
    r2 = radius * radius
    p = int(power)

    def func(x):
        y = np.asarray(x, dtype=float) - center
        s = rowdot(y, y) / r2
        f = np.where(s < 1.0, (1.0 - np.minimum(s, 1.0)) ** p, 0.0)
        return f[..., None] * direction

    def jac(x):
        y = np.asarray(x, dtype=float) - center
        s = rowdot(y, y) / r2
        df = np.where(s < 1.0, -p * (1.0 - np.minimum(s, 1.0)) ** (p - 1),
                      0.0)
        grad = df[..., None] * (2.0 * y / r2)
        return direction[:, None] * grad[..., None, :]

    return TestVectorField(func=func, jac=jac, center=center, radius=radius)


@dataclass(frozen=True)
class ProbeResult:
    """One almost-minimality trial at sweep length eps."""

    eps: float
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


# indices into _Flow.gram: chi, x_u, x_v, a = D x_u, b = D x_v
_C, _U, _V, _A, _B = range(5)


@dataclass(frozen=True)
class _Flow:
    """The flow x -> x + t chi(x) at the quadrature nodes inside chi's ball.

    ``gram[i, j]`` holds the dot products of the i-th and j-th of chi,
    x_u, x_v, a = D x_u and b = D x_v (D the jacobian of chi) at the kept
    nodes; ``weight`` and ``area`` are their quadrature weights and
    |x_u ^ x_v|.  The flowed tangents are x_u + t a and x_v + t b, so
    every quantity at time t is a polynomial in t over these products.
    ``growth`` holds the coefficients k1..k4 of
    |x_u(t) ^ x_v(t)|^2 - |x_u ^ x_v|^2 = k1 t + k2 t^2 + k3 t^3 + k4 t^4.
    """

    weight: np.ndarray
    area: np.ndarray
    gram: np.ndarray
    growth: np.ndarray

    def area_change(self, s, t):
        """|x_u ^ x_v|^2 at time t minus at time s, written as (t - s)
        times a polynomial so that no order-one terms cancel."""
        k1, k2, k3, k4 = self.growth
        return (t - s) * (k1 + k2 * (t + s) + k3 * (t * t + t * s + s * s)
                          + k4 * (t + s) * (t * t + s * s))

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

    def sweep(self, tn, tw) -> float:
        """Integral over the times tn (weights tw) and the surface of
        |chi ^ x_u(t) ^ x_v(t)|, the closed-form 3x3 Gram determinant."""
        g = self.gram
        t = np.asarray(tn, dtype=float)[:, None]
        uu = g[_U, _U] + t * (2.0 * g[_U, _A] + t * g[_A, _A])
        vv = g[_V, _V] + t * (2.0 * g[_V, _B] + t * g[_B, _B])
        uv = g[_U, _V] + t * (g[_U, _B] + g[_A, _V] + t * g[_A, _B])
        cu = g[_C, _U] + t * g[_C, _A]
        cv = g[_C, _V] + t * g[_C, _B]
        det = (g[_C, _C] * (uu * vv - uv * uv) - cu * cu * vv
               + 2.0 * cu * cv * uv - cv * cv * uu)
        vol = np.sqrt(np.maximum(det, 0.0))
        per_time = np.sum(self.weight * vol, axis=-1)
        return float(np.sum(tw * per_time))


def _flow(surface, chi: TestVectorField) -> _Flow:
    """chi's flow on the surface's frame, restricted to chi's ball.

    chi and its jacobian are evaluated only at the nodes with
    |x - center|^2 < radius^2, where alone they may be nonzero.  The
    result is memoized on chi per surface, so every step, sweep length and
    time node of one bump reuses the same products.
    """
    memo = vars(chi).setdefault("_flow_memo", {})
    key = (surface, surface.order)
    if key not in memo:
        x, xu, xv, W, A, _ = _base_frame(surface)
        y = x - np.asarray(chi.center, dtype=float)
        keep = np.flatnonzero(rowdot(y, y) < float(chi.radius) ** 2)
        x, xu, xv = x[keep], xu[keep], xv[keep]
        D = np.asarray(chi.jac(x), dtype=float)
        c = np.asarray(chi.func(x), dtype=float)
        a = np.einsum("nij,nj->ni", D, xu)
        b = np.einsum("nij,nj->ni", D, xv)
        # the 15 distinct products, each written to g[i, j] and g[j, i]
        vecs = (c, xu, xv, a, b)
        g = np.empty((5, 5, keep.size))
        for i, p in enumerate(vecs):
            for j in range(i, 5):
                g[i, j] = g[j, i] = rowdot(p, vecs[j])
        E, F, G = g[_U, _U], g[_U, _V], g[_V, _V]
        ua, vb, ub, av = g[_U, _A], g[_V, _B], g[_U, _B], g[_A, _V]
        aa, bb, ab = g[_A, _A], g[_B, _B], g[_A, _B]
        # |P + t Q1 + t^2 Q2|^2 - |P|^2 with P = x_u ^ x_v,
        # Q1 = a ^ x_v + x_u ^ b and Q2 = a ^ b
        growth = np.stack((
            2.0 * (ua * G - av * F + E * vb - F * ub),
            aa * G - av * av + E * bb - ub * ub
            + 2.0 * (2.0 * ua * vb - ab * F - ub * av),
            2.0 * (aa * vb - ab * av + ua * bb - ub * ab),
            aa * bb - ab * ab))
        memo[key] = _Flow(W[keep], A[keep], g, growth)
    return memo[key]


def sweep_mass(surface, chi: TestVectorField, eps: float) -> float:
    """Mass of the 3-current swept by flowing the surface along chi
    for time eps, with SWEEP_NODES Gauss nodes in time."""
    tn, tw = gauss_legendre(SWEEP_NODES, 0.0, eps)
    return _flow(surface, chi).sweep(tn, tw)


def almost_minimality_probe(surface, omega: float, chi: TestVectorField,
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
        rows.append(ProbeResult(eps=float(eps), mass=float(mass0),
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
