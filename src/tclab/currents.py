"""Parametrized 2-currents: closed curves, chart surfaces and cones.

A curve is anything with ``Q``, ``orientation``, ``M``, ``period``,
``points`` and ``velocities`` (a SpaceCurve or a WindingCurve); its
length and cone masses are periodic trapezoid sums.
A surface is a chart over a rectangle with an analytic jacobian; masses
and form integrals are tensor Gauss-Legendre sums with a doubling
self-check.  ``ParamSurface._frame`` is the one quadrature frame builder:
it evaluates the chart once on the open axis grid, so a chart that
factors over the axes (powers of u, trig of v) computes each factor once
per axis node.  Restriction to a ball or annulus clips the chart along
|x| level sets, which requires the radius to be monotone along one chart
axis (true for every cone, radial extension and polar graph built here).
The clip bounds come from one bracketed Newton solve per quadrature
angle, on any such chart; no chart supplies its own radius solver.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (DegenerateCone, EmptyRestriction, FormUndefined,
                     NoConvergence, NonFinite, QuadratureNotConverged,
                     Undersampled)
from .fourier import FourierSeries
from .quadrature import gauss_legendre, periodic_trapezoid

SAMPLES_PER_WINDING_MODE = 16
MASS_SELF_CHECK_TOL = 1e-6
NEWTON_MAX_STEPS = 64
NEWTON_ULPS = 4


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class SpaceCurve:
    """Closed parametrized curve theta -> gamma(theta) on [0, period).

    ``M`` is the base sample count of periodic sums over the curve, the
    name a WindingCurve gives the same data.
    """

    gamma: Callable
    dgamma: Callable
    Q: int
    orientation: int = 1
    M: int = 256

    @property
    def period(self) -> float:
        return 2.0 * np.pi * self.Q

    def points(self, theta):
        return self.gamma(np.asarray(theta, dtype=float))

    def velocities(self, theta):
        return self.dgamma(np.asarray(theta, dtype=float))


@dataclass(frozen=True)
class WindingCurve:
    """Closed curve winding Q times around a cylinder of radius rho.

    The trace is theta -> rho * (cos theta, sin theta, f(theta)) for
    theta in [0, 2*pi*Q), with the profile f stored both as M uniform
    samples and as its Fourier series.
    """

    Q: int
    n: int
    rho: float
    samples: np.ndarray
    series: FourierSeries
    orientation: int = 1

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != self.n:
            raise ValueError("samples must have shape (M, n)")
        if not np.all(np.isfinite(samples)):
            raise NonFinite("non-finite curve samples")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.orientation not in (-1, 1):
            raise ValueError("orientation must be +1 or -1")
        need = SAMPLES_PER_WINDING_MODE * self.Q * max(
            self.series.max_active_frequency(1e-12), 1)
        if samples.shape[0] < need:
            raise Undersampled(
                f"{samples.shape[0]} samples < {need} required for the "
                "active frequency content")
        object.__setattr__(self, "samples", samples)

    @classmethod
    def from_fourier(cls, series: FourierSeries, rho: float = 1.0,
                     orientation: int = 1):
        fa = max(series.max_active_frequency(1e-12), 1)
        m = max(256, SAMPLES_PER_WINDING_MODE * series.Q * fa,
                2 * series.nmodes + 2)
        theta = np.arange(m) * (series.period / m)
        return cls(Q=series.Q, n=series.n, rho=rho,
                   samples=series.synthesize(theta), series=series,
                   orientation=orientation)

    @property
    def M(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return 2 + self.n

    @property
    def period(self) -> float:
        return 2.0 * np.pi * self.Q

    def points(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.empty(theta.shape + (self.dim,))
        out[..., 0] = np.cos(theta)
        out[..., 1] = np.sin(theta)
        out[..., 2:] = self.series.synthesize(theta)
        return self.rho * out

    def velocities(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.empty(theta.shape + (self.dim,))
        out[..., 0] = -np.sin(theta)
        out[..., 1] = np.cos(theta)
        out[..., 2:] = self.series.derivative(theta)
        return self.rho * out

    def jet(self, theta):
        """(points, velocities) at the given angles from one trig table."""
        theta = np.asarray(theta, dtype=float)
        f, df = self.series.jet(theta)
        c = np.cos(theta)
        s = np.sin(theta)
        x = np.empty(theta.shape + (self.dim,))
        dx = np.empty(theta.shape + (self.dim,))
        x[..., 0] = c
        x[..., 1] = s
        x[..., 2:] = f
        dx[..., 0] = -s
        dx[..., 1] = c
        dx[..., 2:] = df
        return self.rho * x, self.rho * dx


def normalize_to_sphere(curve) -> SpaceCurve:
    """Radially project a curve onto the unit sphere."""

    def gamma(theta):
        g = curve.points(theta)
        return g / np.linalg.norm(g, axis=-1, keepdims=True)

    def dgamma(theta):
        g = curve.points(theta)
        dg = curve.velocities(theta)
        r2 = np.sum(g * g, axis=-1, keepdims=True)
        rad = np.sqrt(r2)
        return (dg / rad - g * np.sum(g * dg, axis=-1, keepdims=True)
                / (rad * r2))

    return SpaceCurve(gamma, dgamma, curve.Q, curve.orientation, M=curve.M)


def curve_mass(curve) -> float:
    """Length of the curve counted with its winding multiplicity."""

    def speed(theta):
        v = np.linalg.norm(curve.velocities(theta), axis=-1)
        if not np.all(np.isfinite(v)):
            raise NonFinite("non-finite curve velocity")
        return v

    return float(periodic_trapezoid(speed, curve.period, curve.M, 1e-9))


# ---------------------------------------------------------------------------
# chart surfaces

class ParamSurface:
    """Oriented 2-current given by a chart over a rectangle.

    Parameters
    ----------
    chart : callable (U, V) -> (..., d)
        Vectorized map that broadcasts U against V.  The quadrature frame
        calls it once on the open grid ``U[:, None], V[None, :]``; the
        result may be any array that broadcasts to the full
        (order[0], order[1], d) grid, so an output constant along one
        axis can keep that axis at length 1.
    domain : (u0, u1, v0, v1)
    jacobian : callable (U, V) -> (x_u, x_v)
        The chart's partial derivatives, under the same contract as
        ``chart``.
    multiplicity, orientation : int
    order : (int, int)
        Gauss-Legendre order per axis.
    radial_axis : 0 or None
        Declares |chart| strictly monotone along the u axis, enabling
        annulus restriction.
    """

    def __init__(self, chart, domain, jacobian, multiplicity=1,
                 orientation=1, order=(32, 32), radial_axis=None):
        self.chart = chart
        self.domain = tuple(float(t) for t in domain)
        self.jacobian = jacobian
        self.multiplicity = int(multiplicity)
        self.orientation = int(orientation)
        self.order = (int(order[0]), int(order[1]))
        self.radial_axis = radial_axis
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be a positive integer")
        if self.orientation not in (-1, 1):
            raise ValueError("orientation must be +1 or -1")
        u0, u1, v0, v1 = self.domain
        if not (u1 > u0 and v1 > v0):
            raise ValueError("degenerate chart domain")

    def points(self, U, V):
        return self.chart(np.asarray(U, dtype=float),
                          np.asarray(V, dtype=float))

    def partials(self, U, V):
        return self.jacobian(np.asarray(U, dtype=float),
                             np.asarray(V, dtype=float))

    def _axes(self, order):
        """Gauss nodes and weights along each chart axis."""
        u0, u1, v0, v1 = self.domain
        u, wu = gauss_legendre(order[0], u0, u1)
        v, wv = gauss_legendre(order[1], v0, v1)
        return u, wu, v, wv

    def _frame(self, order):
        """Positions, partials and weights at the quadrature nodes, u-major.

        The chart and jacobian are evaluated once on the open axis grid
        and each output is broadcast to the full grid before flattening.
        """
        u, wu, v, wv = self._axes(order)
        U, V = u[:, None], v[None, :]
        out = (self.points(U, V), *self.partials(U, V))
        d = out[0].shape[-1]
        grid = (u.size, v.size, d)
        x, xu, xv = (np.broadcast_to(a, grid).reshape(-1, d) for a in out)
        return x, xu, xv, np.outer(wu, wv).ravel()

    @staticmethod
    def _area_element(xu, xv):
        E = np.sum(xu * xu, axis=-1)
        G = np.sum(xv * xv, axis=-1)
        F = np.sum(xu * xv, axis=-1)
        return np.sqrt(np.maximum(E * G - F * F, 0.0))

    def integrate_density(self, density=None, order=None) -> float:
        """Integral of a scalar density against the area measure.

        ``density(x, xu, xv)`` gets positions and chart partials at the
        quadrature nodes; None integrates 1 (mass).  Unsigned; includes
        the multiplicity.
        """
        order = order or self.order
        x, xu, xv, W = self._frame(order)
        area = self._area_element(xu, xv)
        vals = area if density is None else area * density(x, xu, xv)
        if not np.all(np.isfinite(vals)):
            raise NonFinite("non-finite integrand on the chart")
        return self.multiplicity * float(np.sum(W * vals))

    def mass(self, check: bool = True):
        coarse = self.integrate_density()
        if not check:
            return coarse
        fine = self.integrate_density(
            order=(2 * self.order[0], 2 * self.order[1]))
        scale = max(abs(fine), 1e-300)
        if abs(fine - coarse) > MASS_SELF_CHECK_TOL * scale:
            raise QuadratureNotConverged(
                f"mass moved {abs(fine - coarse):.3e} "
                f"({abs(fine - coarse) / scale:.3e} rel) when doubling the rule")
        return fine

    def integrate_form(self, form) -> float:
        """Signed action of a two-form field: sum of form(x)(x_u, x_v).

        ``form`` maps batched positions (..., d) to antisymmetric matrices
        (..., d, d).
        """
        x, xu, xv, W = self._frame(self.order)
        A = np.asarray(form(x), dtype=float)
        if A.shape != x.shape + (x.shape[-1],):
            raise FormUndefined("form field returned a bad shape")
        vals = np.einsum("...i,...ij,...j->...", xu, A, xv)
        if not np.all(np.isfinite(vals)):
            raise FormUndefined("form field produced non-finite values")
        return self.orientation * self.multiplicity * float(np.sum(W * vals))


class RadialRestriction(ParamSurface):
    """Chart clipped to the annulus s <= |x| <= r along the radial axis.

    The clipped integral is computed by the substitution
    u = u_lo(v) + w * (u_hi(v) - u_lo(v)) whose jacobian in the area
    element is just u_hi(v) - u_lo(v); tangent directions come from the
    base chart, so no derivatives of the clip bounds are ever needed.

    A quadrature frame solves the clip bounds once per distinct angle v,
    with one bracketed Newton solve of |x(u, v)| = c per bound
    (``_solve_radius``), then evaluates the base chart and its partials
    once at the mapped nodes.
    """

    def __init__(self, base: ParamSurface, s: float, r: float):
        if base.radial_axis != 0:
            raise ValueError("restriction needs a chart with radial_axis=0")
        if s < 0 or r < s:
            raise ValueError("need 0 <= s <= r")
        if isinstance(base, RadialRestriction):
            s = max(s, base.inner)
            r = min(r, base.outer)
            base = base.base
        self.base = base
        self.inner = float(s)
        self.outer = float(r)
        u0, u1, v0, v1 = base.domain
        super().__init__(self.points, (0.0, 1.0, v0, v1),
                         jacobian=self.partials,
                         multiplicity=base.multiplicity,
                         orientation=base.orientation, order=base.order,
                         radial_axis=0)
        if self.inner >= self.outer:
            raise EmptyRestriction("empty radius interval")
        probe = v0 + (v1 - v0) * (np.arange(64) + 0.5) / 64
        rmin = self._radius(np.full(64, u0), probe)
        rmax = self._radius(np.full(64, u1), probe)
        if np.any(rmax < rmin - 1e-12 * max(1.0, float(np.max(rmax)))):
            raise ValueError("radius is not increasing along the radial axis")
        if float(np.min(rmax)) <= self.inner or float(np.max(rmin)) >= self.outer:
            raise EmptyRestriction(
                "annulus does not meet the chart's radius range")

    def _radius(self, U, V):
        return np.linalg.norm(self.base.points(U, V), axis=-1)

    def _solve_radius(self, c, V, rlo, rhi):
        """u with |x(u, V)| = c, clipped to the chart's radial range.

        ``rlo`` and ``rhi`` are the radii at the ends u0, u1 of the radial
        axis.  Where c lies strictly between them the root is bracketed:
        the solve starts at the regula-falsi point, takes Newton steps
        built from the base partials, bisects the bracket whenever a step
        leaves it or is not finite, and stops once a step or the bracket
        is a few ulps wide; |x| carries rounding of about one ulp, so the
        root is not defined more finely than that.
        """
        base = self.base
        u0, u1 = base.domain[0], base.domain[1]
        out = np.where(rlo >= c, u0, u1)
        live = np.flatnonzero((rlo < c) & (rhi > c))
        a = np.full(live.size, u0)
        b = np.full(live.size, u1)
        fa = rlo[live] - c[live]
        fb = rhi[live] - c[live]
        u = (a * fb - b * fa) / (fb - fa)
        c = c[live]
        V = V[live]
        for _ in range(NEWTON_MAX_STEPS):
            if live.size == 0:
                return out
            x = base.points(u, V)
            xu, _ = base.partials(u, V)
            rr = np.linalg.norm(x, axis=-1)
            f = rr - c
            below = f < 0
            a = np.where(below, u, a)
            b = np.where(below, b, u)
            with np.errstate(divide="ignore", invalid="ignore"):
                new = u - f * rr / np.sum(x * xu, axis=-1)
            new = np.where(np.isfinite(new) & (new >= a) & (new <= b),
                           new, 0.5 * (a + b))
            done = (np.minimum(np.abs(new - u), b - a)
                    <= NEWTON_ULPS * np.spacing(np.abs(new)))
            out[live[done]] = new[done]
            keep = ~done
            live, u, a, b, c, V = (live[keep], new[keep], a[keep], b[keep],
                                   c[keep], V[keep])
        if live.size:
            raise NoConvergence(
                f"clip radius solve left {live.size} angles unconverged "
                f"after {NEWTON_MAX_STEPS} steps")
        return out

    def _bounds(self, V):
        """Clip bounds (u_lo, u_hi) at the angles V, solved together."""
        V = np.asarray(V, dtype=float)
        v = V.ravel()
        n = v.size
        u0, u1 = self.base.domain[0], self.base.domain[1]
        both = np.tile(v, 2)
        ends = self._radius(np.repeat([u0, u1], n), both)
        u = self._solve_radius(np.repeat([self.inner, self.outer], n), both,
                               np.tile(ends[:n], 2), np.tile(ends[n:], 2))
        ulo = u[:n].reshape(V.shape)
        uhi = u[n:].reshape(V.shape)
        return ulo, np.maximum(uhi, ulo)

    def points(self, U, V):
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        ulo, uhi = self._bounds(V)
        return self.base.points(ulo + U * (uhi - ulo), V)

    def partials(self, U, V):
        """Tangent pair at the clipped nodes, in base-chart parametrization.

        The u-partial is scaled by the clip width so that the plain
        rectangle quadrature over [0,1] x [v0,v1] reproduces the clipped
        integral; the spanned tangent plane is unchanged up to the exact
        level-set shear, which no area or density integral sees.
        """
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        ulo, uhi = self._bounds(V)
        xu, xv = self.base.partials(ulo + U * (uhi - ulo), V)
        return xu * (uhi - ulo)[..., None], xv

    def _frame(self, order):
        """Quadrature frame with the clip bounds solved once per angle."""
        u, wu, v, wv = self._axes(order)
        ulo, uhi = self._bounds(v)
        width = uhi - ulo
        # mapped nodes, u-major like every frame
        Ub = (ulo + u[:, None] * width).ravel()
        V = np.tile(v, u.size)
        x = self.base.points(Ub, V)
        xu, xv = self.base.partials(Ub, V)
        return x, xu * np.tile(width, u.size)[:, None], xv, \
            np.outer(wu, wv).ravel()


# ---------------------------------------------------------------------------
# cones

@dataclass(frozen=True)
class ConeOverCurve:
    """Cone with the given vertex over a closed curve.

    The chart is (t, theta) -> vertex + t * (gamma(theta) - vertex) for
    t in (0, 1], so the cone reaches exactly the curve.
    """

    vertex: np.ndarray
    link: object

    def __post_init__(self):
        object.__setattr__(self, "vertex",
                           np.asarray(self.vertex, dtype=float))

    def wedge_speed(self, theta):
        """|(gamma - vertex) ^ gamma'| at the given angles."""
        return ParamSurface._area_element(
            self.link.points(theta) - self.vertex,
            self.link.velocities(theta))

    def check_nondegenerate(self):
        m = self.link.M
        theta = np.arange(m) * (self.link.period / m)
        g = self.link.points(theta) - self.vertex
        dg = self.link.velocities(theta)
        wedge = self.wedge_speed(theta)
        scale = np.linalg.norm(g, axis=-1) * np.linalg.norm(dg, axis=-1)
        bad = wedge <= 1e-10 * np.maximum(scale, 1e-300)
        if np.mean(bad) > 0.01:
            raise DegenerateCone(
                "link direction and velocity are parallel on "
                f"{100 * np.mean(bad):.1f}% of the samples")

    def chart(self) -> ParamSurface:
        link = self.link
        vertex = self.vertex

        def cmap(T, TH):
            g = link.points(TH)
            return vertex + np.asarray(T)[..., None] * (g - vertex)

        def cjac(T, TH):
            g = link.points(TH)
            dg = link.velocities(TH)
            return g - vertex, np.asarray(T)[..., None] * dg

        return ParamSurface(cmap, (0.0, 1.0, 0.0, link.period),
                            jacobian=cjac, order=(32, 64), radial_axis=0)


def cone_mass(cone: ConeOverCurve) -> float:
    """Mass of the cone, half the integral of the wedge speed."""
    cone.check_nondegenerate()
    val = periodic_trapezoid(cone.wedge_speed, cone.link.period,
                             cone.link.M, 1e-9)
    return 0.5 * float(val)


def infinite_cone_cylinder_mass(curve: WindingCurve, plane_basis: np.ndarray,
                                radius: float) -> float:
    """Mass of the infinite cone over the curve inside a plane's cylinder.

    ``plane_basis`` is a d x 2 orthonormal column pair; the cylinder is
    {|B^T x| <= radius}.  Rays are cut at t = radius / |B^T gamma| so the
    integral is closed in t.
    """

    def integrand(theta):
        g, dg = curve.jet(theta)
        wedge = ParamSurface._area_element(g, dg)
        proj = np.linalg.norm(g @ plane_basis, axis=-1)
        return wedge * (radius / proj) ** 2

    return 0.5 * float(periodic_trapezoid(integrand, curve.period, curve.M))


# ---------------------------------------------------------------------------
# module-level operation names

def restrict_annulus(current, s: float, r: float):
    """Restriction to the annulus s <= |x| <= r about the origin."""
    if isinstance(current, ConeOverCurve):
        current = current.chart()
    return RadialRestriction(current, s, r)


def annulus_mass(current, s: float, r: float) -> float:
    """Mass of the annulus restriction; zero when the slab is empty."""
    try:
        return restrict_annulus(current, s, r).mass()
    except EmptyRestriction:
        return 0.0
