"""Parametrized 2-currents: closed curves, chart surfaces and cones.

A curve is anything with ``Q``, ``M``, ``period`` and ``jet``, its one
evaluator, which returns the points and velocities at the given angles
together (the library builds only WindingCurves); its length and the
cylinder masses of its cone are periodic trapezoid sums.  Every curve
and surface has multiplicity 1 and the orientation of its parameters; a
Q-fold curve winds Q times over its period instead of carrying
multiplicity Q.
A surface is a chart over a rectangle with an analytic jacobian; masses
and density integrals are tensor sums, Gauss-Legendre along each axis
except an angle axis that the chart declares periodic, which takes the
uniform trapezoid rule.  A mass carries a self-check: on a plain chart it
doubles the rule on both axes; on a periodic chart it evaluates one fine
frame, checks the angle rule against every other node of that frame and
the radial rule against one coarse frame, so no node is evaluated twice.
``ParamSurface._frame`` is the one quadrature frame builder: it evaluates
the chart once on the open axis grid, so a chart that factors over the
axes (powers of u, trig of v) computes each factor once per axis node.
Restriction to a ball or annulus (``RadialRestriction``) clips the chart
along |x| level sets, which requires the radius to be monotone along one
chart axis (true for every cone chart, radial extension and polar graph
built here).
The clip bounds come from one bracketed Newton solve per quadrature
angle, on any such chart; no chart supplies its own radius solver.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (EmptyRestriction, NoConvergence, NonFinite,
                     QuadratureNotConverged)
from .fourier import FourierSeries
from .geom import rowdot, rownorm
from .quadrature import gauss_legendre, periodic_trapezoid, trapezoid

SAMPLES_PER_WINDING_MODE = 16
MASS_SELF_CHECK_TOL = 1e-6
NEWTON_MAX_STEPS = 64
NEWTON_ULPS = 4


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class WindingCurve:
    """Closed curve winding Q times around a cylinder of radius rho.

    The trace is theta -> rho * (cos theta, sin theta, f(theta)) for
    theta in [0, 2*pi*Q), where the profile f is the Fourier series; Q,
    n and the period are the series'.  ``M``, the base sample count of
    periodic sums over the curve, is fixed at construction: at least 256,
    SAMPLES_PER_WINDING_MODE per period of the top active frequency over
    the Q windings, and 2N + 2 for the N stored modes.
    """

    series: FourierSeries
    rho: float = 1.0
    M: int = field(init=False)

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        series = self.series
        fa = max(series.max_active_frequency(1e-12), 1)
        object.__setattr__(self, "M", max(
            256, SAMPLES_PER_WINDING_MODE * series.Q * fa,
            2 * series.nmodes + 2))

    @property
    def Q(self) -> int:
        return self.series.Q

    @property
    def n(self) -> int:
        return self.series.n

    @property
    def dim(self) -> int:
        return 2 + self.n

    @property
    def period(self) -> float:
        return self.series.period

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


def curve_mass(curve) -> float:
    """Length of the curve counted with its winding multiplicity."""

    def speed(theta):
        v = rownorm(curve.jet(theta)[1])
        if not np.all(np.isfinite(v)):
            raise NonFinite("non-finite curve velocity")
        return v

    return float(periodic_trapezoid(speed, curve.period, curve.M, 1e-9))


# ---------------------------------------------------------------------------
# chart surfaces

class ParamSurface:
    """2-current of multiplicity 1 given by a chart over a rectangle,
    oriented by the chart's (u, v) order.

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
    order : (int, int)
        Node count per axis: the Gauss-Legendre order, or on a periodic
        v axis the number of trapezoid nodes, which must be even.
    radial_axis : 0 or None
        Declares |chart| strictly monotone along the u axis, enabling
        annulus restriction.
    periodic_axis : 1 or None
        Declares the integrand periodic along the v axis over the domain,
        so that axis takes the uniform trapezoid rule.  A restriction of
        the chart builds its own chart, which is not periodic.
    """

    def __init__(self, chart, domain, jacobian, order=(32, 32),
                 radial_axis=None, periodic_axis=None):
        self.chart = chart
        self.domain = tuple(float(t) for t in domain)
        self.jacobian = jacobian
        self.order = (int(order[0]), int(order[1]))
        self.radial_axis = radial_axis
        self.periodic_axis = periodic_axis
        u0, u1, v0, v1 = self.domain
        if not (u1 > u0 and v1 > v0):
            raise ValueError("degenerate chart domain")
        if periodic_axis not in (None, 1):
            raise ValueError("only the v axis can be periodic")
        if periodic_axis == 1 and self.order[1] % 2:
            raise ValueError("a periodic axis needs an even node count")

    def points(self, U, V):
        return self.chart(np.asarray(U, dtype=float),
                          np.asarray(V, dtype=float))

    def partials(self, U, V):
        return self.jacobian(np.asarray(U, dtype=float),
                             np.asarray(V, dtype=float))

    def _axes(self, order):
        """Nodes and weights along each chart axis: Gauss-Legendre, or
        the trapezoid rule on a periodic v axis."""
        u0, u1, v0, v1 = self.domain
        u, wu = gauss_legendre(order[0], u0, u1)
        rule = trapezoid if self.periodic_axis == 1 else gauss_legendre
        v, wv = rule(order[1], v0, v1)
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
        E = rowdot(xu, xu)
        G = rowdot(xv, xv)
        F = rowdot(xu, xv)
        return np.sqrt(np.maximum(E * G - F * F, 0.0))

    def _weighted(self, density, order):
        """Weight times integrand at each node of the frame at ``order``,
        u-major."""
        x, xu, xv, W = self._frame(order)
        area = self._area_element(xu, xv)
        vals = area if density is None else area * density(x, xu, xv)
        if not np.all(np.isfinite(vals)):
            raise NonFinite("non-finite integrand on the chart")
        return W * vals

    def integrate_density(self, density=None, order=None) -> float:
        """Integral of a scalar density against the area measure.

        ``density(x, xu, xv)`` gets positions and chart partials at the
        quadrature nodes; None integrates 1 (mass).  Unsigned.
        """
        return float(np.sum(self._weighted(density, order or self.order)))

    def mass(self, check: bool = True):
        """Mass at the chart's order, or with ``check`` the finer value of
        a self-check that raises QuadratureNotConverged on a gap above
        MASS_SELF_CHECK_TOL relative.

        A plain chart sums its rule and the rule doubled on both axes.  A
        periodic chart with order (n, T) sums one fine frame at (2n, T)
        and its own every-other angle node, which is the trapezoid rule
        at T / 2, then sums a coarse frame at (n, T / 2) to check the
        radial rule: 2.5 n T evaluations where doubling takes 5 n T.
        """
        if not check:
            return self.integrate_density()
        n0, n1 = self.order
        if self.periodic_axis is None:
            coarse = self.integrate_density()
            fine = self.integrate_density(order=(2 * n0, 2 * n1))
            _self_check(fine, coarse, "doubling the rule")
            return fine
        terms = self._weighted(None, (2 * n0, n1)).reshape(2 * n0, n1)
        fine = float(np.sum(terms))
        half = 2.0 * float(np.sum(terms[:, ::2]))
        _self_check(fine, half, "halving the angle rule")
        coarse = self.integrate_density(order=(n0, n1 // 2))
        _self_check(half, coarse, "halving the radial rule")
        return fine


def _self_check(fine, coarse, change):
    scale = max(abs(fine), 1e-300)
    if abs(fine - coarse) > MASS_SELF_CHECK_TOL * scale:
        raise QuadratureNotConverged(
            f"mass moved {abs(fine - coarse):.3e} "
            f"({abs(fine - coarse) / scale:.3e} rel) when {change}")


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
        self.base = base
        self.inner = float(s)
        self.outer = float(r)
        u0, u1, v0, v1 = base.domain
        super().__init__(self.points, (0.0, 1.0, v0, v1),
                         jacobian=self.partials, order=base.order,
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
        return rownorm(self.base.points(U, V))

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
            rr = rownorm(x)
            f = rr - c
            below = f < 0
            a = np.where(below, u, a)
            b = np.where(below, b, u)
            with np.errstate(divide="ignore", invalid="ignore"):
                new = u - f * rr / rowdot(x, xu)
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
    """Cone with vertex at the origin over a closed curve, its link.

    The chart is (t, theta) -> t * gamma(theta) for t in (0, 1], so the
    cone reaches exactly the curve; its mass is the chart's.  Annulus
    restrictions of the chart and the monotonicity integrals measure
    radii from the origin, the vertex.
    """

    link: object

    def chart(self, order=(32, 64)) -> ParamSurface:
        """The cone's chart over (0, 1] x [0, period) at the given
        Gauss-Legendre order."""
        link = self.link

        def cmap(T, TH):
            return np.asarray(T)[..., None] * link.jet(TH)[0]

        def cjac(T, TH):
            g, dg = link.jet(TH)
            return g, np.asarray(T)[..., None] * dg

        return ParamSurface(cmap, (0.0, 1.0, 0.0, link.period),
                            jacobian=cjac, order=order, radial_axis=0)


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
        proj = rownorm(g @ plane_basis)
        return wedge * (radius / proj) ** 2

    return 0.5 * float(periodic_trapezoid(integrand, curve.period, curve.M))


# ---------------------------------------------------------------------------
# module-level operation names

def annulus_mass(current, s: float, r: float) -> float:
    """Mass of the annulus restriction; zero when the slab is empty."""
    try:
        return RadialRestriction(current, s, r).mass()
    except EmptyRestriction:
        return 0.0
