"""Parametrized 2-currents: closed curves, chart surfaces and cones.

A curve is anything with ``Q``, ``M``, ``period``, ``jet``, its one
evaluator, which returns the points and velocities at the given angles
together, and ``trace_table``, its jet on 4M uniform angles, whose rows
::4 and ::2 are M and 2M nodes (the library builds only WindingCurves,
each a link on the unit cylinder, since cones are scale invariant).  Its
length and the cylinder masses of its cone are periodic trapezoid sums
on M nodes, checked by one halving against 2M, both read from rows ::2
of the trace table, where the epi pipeline and the plane split read
their samples too.  A WindingCurve also keeps ``cone_tangents``, the
cone's unit tangents at the M nodes that every plane of the epi excess
reads; both tables are read-only and made once per curve.  Every curve
and surface has multiplicity 1 and the orientation of its parameters; a
Q-fold curve winds Q times over its period instead of carrying
multiplicity Q.
A surface is a chart over a rectangle with an analytic jacobian whose v
axis is an angle over one full period (the cone chart, the spherical
cap, the harmonic extension and every annulus restriction of these);
masses and density integrals are tensor sums, Gauss-Legendre along u and
the uniform trapezoid rule along v.  A mass carries a self-check: it
evaluates one fine frame, checks the angle rule against every other node
of that frame and the radial rule against one coarse frame, so no node
is evaluated twice.
Every quadrature frame evaluates its chart once on an open axis grid, so
a chart that factors over the axes (powers of u, trig of v) computes each
factor once per axis node; ``_grid_frame`` broadcasts and flattens the
result for ``ParamSurface._frame`` and for restrictions alike; a frame
evaluates positions only for a density, since the area element reads
only the partials.
Restriction to a ball or annulus (``RadialRestriction``) clips the chart
along |x| level sets, which requires the radius not to decrease along
the chart's u axis (true for every cone chart, radial extension and
polar graph built here).  An angle where the annulus misses the chart
gets clip width 0 and contributes exactly 0.
The clip bounds come from one bracketed Newton solve per quadrature
angle, on any such chart; no chart supplies its own radius solver.  Each
radius is solved once per base chart and angle count: the end radii of
the radial axis and the solved bounds are memoized on the base, so a
ladder of balls, its slabs and a radial sweep reuse the radii they
share, and a restriction checks its radius range on the same end radii
its frames read.  A certificate declares its ladder of radii on the base
before it clips (``declare_ladder``), and the first frame of each angle
count that lacks a radius solves the whole ladder with its own, so the
ladder takes one solve call per angle count.  Every row of a solve
iterates on its own, so its roots are those of one radius at a time,
bit for bit.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NoConvergence, NonFinite, QuadratureNotConverged
from .geom import rowdot, rownorm, twovector_euclid_norm, wedge
from .quadrature import gauss_legendre, periodic_trapezoid, trapezoid

SAMPLES_PER_WINDING_MODE = 16
MASS_SELF_CHECK_TOL = 1e-6
NEWTON_MAX_STEPS = 64
NEWTON_ULPS = 4
# mass of the unit disk, which normalises the epiperimetric and decay gaps
OMEGA2 = np.pi
# radius of the one epi cylinder, where a cone meets its competitor
CYL_RATIO = 0.5


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class WindingCurve:
    """Closed curve winding Q times around the unit cylinder.

    The trace is theta -> (cos theta, sin theta, f(theta)) for theta in
    [0, 2*pi*Q), where the profile f is the Fourier series; Q, n and the
    period are the series'.  ``M``, the base sample count of periodic
    sums over the curve, is fixed at construction: at least 256 and
    SAMPLES_PER_WINDING_MODE per period of the top live mode over the Q
    windings, so stored zero rows add no samples.
    """

    series: "FourierSeries"
    M: int = field(init=False)

    def __post_init__(self):
        m = SAMPLES_PER_WINDING_MODE * self.Q * max(self.series.top_mode, 1)
        object.__setattr__(self, "M", max(256, m))

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
        return x, dx

    @cached_property
    def trace_table(self):
        """Read-only ``jet`` at the 4M angles k * period / (4M), made on
        first use: rows ::4 are the M base nodes and rows 2::4 their
        midpoints, the same floats, so each equals ``jet`` bit for bit."""
        k = 4 * self.M
        table = self.jet(trapezoid(k, 0.0, self.period)[0])
        for arr in table:
            arr.flags.writeable = False
        return table

    @cached_property
    def cone_tangents(self):
        """Read-only cone data at the M base nodes, rows ::4 of the trace
        table, made on first use: the trace points z, their norms |z|,
        the wedge speeds |z ^ z'| and the components of the unit tangent
        two-vectors z ^ z' / |z ^ z'|, which every plane of the epi
        excess shares."""
        z, dz = (np.ascontiguousarray(a[::4]) for a in self.trace_table)
        W = wedge(z, dz)
        speed = twovector_euclid_norm(W)
        if np.any(speed < 1e-300):
            raise ValueError("degenerate tangent pair")
        data = (z, rownorm(z), speed, W / speed[:, None])
        for arr in data:
            arr.flags.writeable = False
        return data


def curve_mass(curve) -> float:
    """Length of the curve counted with its winding multiplicity, from the
    2M nodes of its periodic sum, rows ::2 of its trace table."""
    speed = rownorm(curve.trace_table[1][::2])
    if not np.all(np.isfinite(speed)):
        raise NonFinite("non-finite curve velocity")
    return float(periodic_trapezoid(speed, curve.period, 1e-9))


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
        Gauss-Legendre order along u and trapezoid node count along v,
        an angle whose chart at v1 equals the chart at v0; it is even, so
        the mass self-check can halve it.
    """

    def __init__(self, chart, domain, jacobian, order=(32, 32)):
        self.chart = chart
        self.domain = tuple(float(t) for t in domain)
        self.jacobian = jacobian
        self.order = (int(order[0]), int(order[1]))
        u0, u1, v0, v1 = self.domain
        if not (u1 > u0 and v1 > v0):
            raise ValueError("degenerate chart domain")
        if self.order[1] % 2:
            raise ValueError("the angle axis needs an even node count")

    def points(self, U, V):
        return self.chart(np.asarray(U, dtype=float),
                          np.asarray(V, dtype=float))

    def partials(self, U, V):
        return self.jacobian(np.asarray(U, dtype=float),
                             np.asarray(V, dtype=float))

    def _axes(self, order):
        """Nodes and weights along each chart axis: Gauss-Legendre along
        u, the trapezoid rule along the angle v."""
        u0, u1, v0, v1 = self.domain
        return (*gauss_legendre(order[0], u0, u1),
                *trapezoid(order[1], v0, v1))

    def _frame(self, order, positions=True):
        """Positions, partials and weights at the quadrature nodes, u-major;
        the positions are None unless asked for.

        The chart and jacobian are evaluated once on the open axis grid
        and each output is broadcast to the full grid before flattening.
        """
        u, wu, v, wv = self._axes(order)
        U, V = u[:, None], v[None, :]
        x = self.points(U, V) if positions else None
        return _grid_frame((x, *self.partials(U, V)), wu, wv)

    @staticmethod
    def _area_element(xu, xv):
        E = rowdot(xu, xu)
        G = rowdot(xv, xv)
        F = rowdot(xu, xv)
        return np.sqrt(np.maximum(E * G - F * F, 0.0))

    def _weighted(self, density, order):
        """Weight times integrand at each node of the frame at ``order``,
        u-major; a mass reads no positions, so its frame evaluates none.
        A node of zero area contributes 0 whatever the density reads
        there, such as the 0/0 of a tangent plane at a clip width of 0."""
        x, xu, xv, W = self._frame(order, positions=density is not None)
        area = self._area_element(xu, xv)
        if density is None:
            vals = area
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.where(area == 0.0, 0.0, area * density(x, xu, xv))
        if not np.all(np.isfinite(vals)):
            raise NonFinite("non-finite integrand on the chart")
        return W * vals

    def integrate_density(self, density=None, order=None):
        """Integral of a density against the area measure.

        ``density(x, xu, xv)`` gets positions and chart partials at the
        quadrature nodes; None integrates 1 (mass).  Unsigned.  A density
        may stack integrands on a leading axis; each is summed over the
        last axis, the nodes, bit for bit as it would be alone.
        """
        total = np.sum(self._weighted(density, order or self.order), axis=-1)
        return float(total) if total.ndim == 0 else total

    def mass(self, check: bool = True):
        """Mass at the chart's order, or with ``check`` the finer value of
        a self-check that raises QuadratureNotConverged on a gap above
        MASS_SELF_CHECK_TOL relative.

        At order (n, T) the check sums one fine frame at (2n, T) and its
        own every-other angle node, which is the trapezoid rule at T / 2,
        then sums a coarse frame at (n, T / 2) to check the radial rule:
        2.5 n T chart evaluations.
        """
        if not check:
            return self.integrate_density()
        n0, n1 = self.order
        terms = self._weighted(None, (2 * n0, n1)).reshape(2 * n0, n1)
        fine = float(np.sum(terms))
        half = 2.0 * float(np.sum(terms[:, ::2]))
        _self_check(fine, half, "halving the angle rule")
        coarse = self.integrate_density(order=(n0, n1 // 2))
        _self_check(half, coarse, "halving the radial rule")
        return fine


def _grid_frame(out, wu, wv):
    """Chart outputs on an open axis grid as a flat frame, u-major.

    ``out`` holds the positions, or None, and the two partials, each of a
    shape that broadcasts to the (wu.size, wv.size, d) grid; each array is
    broadcast to it and flattened, and the weights are the tensor products.
    """
    d = out[1].shape[-1]
    grid = (wu.size, wv.size, d)
    x, xu, xv = (a if a is None else np.broadcast_to(a, grid).reshape(-1, d)
                 for a in out)
    return x, xu, xv, np.outer(wu, wv).ravel()


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

    A quadrature frame reads its clip bounds from a memo on the base
    chart, kept per angle count: the radii at the ends u0, u1 of the
    radial axis, and the solved clip parameter of every radius c that an
    earlier frame needed.  The radii it does not find are solved
    together in one ``_solve_radius`` call, a bracketed Newton solve of
    |x(u, v)| = c per angle, and with them every radius of the ladder
    that a certificate declared on the base (``declare_ladder``) and the
    memo lacks.  Ball masses, the slabs between them and the scaled
    annuli of a radial sweep share most of their radii, so each is
    solved once per base and angle count, and a declared ladder in one
    call per angle count.  The frame then evaluates the base chart and
    its partials once on the open grid of mapped radial nodes
    u_lo(v) + w * width(v) against the angles v, as
    ``ParamSurface._frame`` does.  The restriction keeps the base's angle
    axis, a full period, so its frames and its memo read the same
    trapezoid angles as the base's own frames.  A chart never changes, so
    each memo is read-only.

    Any chart restricts to any annulus 0 <= s <= r.  Each end-radius
    table checks that the radius does not decrease along u at any of its
    angles (ValueError); a restriction builds the table of its own angle
    count, the one its first frame reads, when it is made.  At an angle
    where the annulus misses the chart both clip parameters fall on the
    same end of the radial axis, so the clip width is 0 and the angle
    contributes exactly 0; an annulus that misses the chart at every
    angle, or has s == r, is the zero current.
    """

    def __init__(self, base: ParamSurface, s: float, r: float):
        if s < 0 or r < s:
            raise ValueError("need 0 <= s <= r")
        self.base = base
        self.inner = float(s)
        self.outer = float(r)
        v0, v1 = base.domain[2:]
        super().__init__(self.points, (0.0, 1.0, v0, v1),
                         jacobian=self.partials, order=base.order)
        self._radius_table(self.order[1])

    def _solve_radius(self, c, V, rlo, rhi):
        """u with |x(u, V)| = c, clipped to the chart's radial range.

        ``rlo`` and ``rhi`` are the radii at the ends u0, u1 of the radial
        axis.  Where c lies strictly between them the root is bracketed:
        the solve starts at the regula-falsi point, takes Newton steps
        built from the base partials, bisects the bracket whenever a step
        leaves it or is not finite, and stops once a step or the bracket
        is a few ulps wide; |x| carries rounding of about one ulp, so the
        root is not defined more finely than that.  Rows still open after
        NEWTON_MAX_STEPS raise NoConvergence naming their radii and the
        number of distinct angles of the call.
        """
        base = self.base
        u0, u1 = base.domain[0], base.domain[1]
        angles = V
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
            radii = ", ".join(f"{r:g}" for r in np.unique(c))
            raise NoConvergence(
                f"clip radius solve left {live.size} rows unconverged "
                f"after {NEWTON_MAX_STEPS} steps at radii {radii} "
                f"over {np.unique(angles).size} angles")
        return out

    def _end_radii(self, v):
        """Radii at the ends u0, u1 of the radial axis at the angles v."""
        u0, u1 = self.base.domain[0], self.base.domain[1]
        ends = rownorm(self.base.points(np.repeat([u0, u1], v.size),
                                        np.tile(v, 2)))
        return ends[:v.size], ends[v.size:]

    def _radius_table(self, n):
        """The base chart's memo for n angles, made on first use: the end
        radii (rlo, rhi) at the n trapezoid angles of a frame, and a
        dict of the solved clip parameter of each radius.  Raises
        ValueError, and memoizes nothing, where the radius decreases
        along u at one of those angles."""
        memo = vars(self.base).setdefault("_clip_memo", {})
        if n not in memo:
            rlo, rhi = self._end_radii(trapezoid(n, *self.domain[2:])[0])
            if np.any(rhi < rlo - 1e-12 * max(1.0, float(np.max(rhi)))):
                raise ValueError(
                    "radius is not increasing along the radial axis")
            rlo.flags.writeable = rhi.flags.writeable = False
            memo[n] = (rlo, rhi, {})
        return memo[n]

    def _solve_radii(self, radii, v, rlo, rhi):
        """Clip parameter of each radius at the angles v, one row per
        radius, from one ``_solve_radius`` call."""
        k = len(radii)
        u = self._solve_radius(np.repeat(radii, v.size), np.tile(v, k),
                               np.tile(rlo, k), np.tile(rhi, k))
        return u.reshape(k, v.size)

    def _bounds(self, V):
        """Clip bounds (u_lo, u_hi) at any angles V, solved afresh and
        together; ``points`` and ``partials`` read them, a quadrature
        frame reads ``_clip``."""
        V = np.asarray(V, dtype=float)
        v = V.ravel()
        ulo, uhi = self._solve_radii((self.inner, self.outer), v,
                                     *self._end_radii(v))
        return ulo.reshape(V.shape), np.maximum(uhi, ulo).reshape(V.shape)

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

    def _clip(self, v):
        """Clip start u_lo and width u_hi - u_lo at a frame's angles v.

        The base chart's memo for v.size angles holds the end radii and
        each solved radius.  When the restriction's own radii are not all
        found there, they are solved in one call together with every
        radius of the base's ladder (``declare_ladder``) that the memo
        lacks, and all are added.
        """
        rlo, rhi, solved = self._radius_table(v.size)
        own = (self.inner, self.outer)
        if any(c not in solved for c in own):
            ladder = vars(self.base).get("_clip_ladder", ())
            todo = [c for c in dict.fromkeys(own + ladder) if c not in solved]
            u = self._solve_radii(todo, v, rlo, rhi)
            u.flags.writeable = False
            solved.update(zip(todo, u))
        ulo = solved[self.inner]
        return ulo, np.maximum(solved[self.outer], ulo) - ulo

    def _frame(self, order, positions=True):
        """Quadrature frame of the base chart at the mapped radial nodes."""
        u, wu, v, wv = self._axes(order)
        ulo, width = self._clip(v)
        U, V = ulo + u[:, None] * width, v[None, :]
        x = self.base.points(U, V) if positions else None
        xu, xv = self.base.partials(U, V)
        return _grid_frame((x, xu * width[:, None], xv), wu, wv)


def declare_ladder(current, radii):
    """Declare the radii a certificate is about to clip ``current`` at.

    The ladder replaces any earlier one.  The first frame of each angle
    count that needs a radius its memo lacks solves the whole ladder with
    it, so a certificate's ladder costs one ``_solve_radius`` call per
    angle count.  Each row of a solve iterates on its own, so the roots
    are those of one-radius-at-a-time solves, bit for bit.
    """
    vars(current)["_clip_ladder"] = tuple(float(c) for c in radii)


# ---------------------------------------------------------------------------
# cones

def cone_chart(link, order=(32, 64)) -> ParamSurface:
    """Chart of the cone with vertex at the origin over a closed curve.

    The chart is (t, theta) -> t * gamma(theta) over (0, 1] x [0, period)
    at the given order, so the cone reaches exactly the
    link.  Annulus restrictions of the chart and the monotonicity
    integrals measure radii from the origin, the vertex.
    """

    def cmap(T, TH):
        return np.asarray(T)[..., None] * link.jet(TH)[0]

    def cjac(T, TH):
        g, dg = link.jet(TH)
        return g, np.asarray(T)[..., None] * dg

    return ParamSurface(cmap, (0.0, 1.0, 0.0, link.period),
                        jacobian=cjac, order=order)


def infinite_cone_cylinder_mass(curve: WindingCurve,
                                plane_basis: np.ndarray) -> float:
    """Mass of the infinite cone over the curve inside a plane's cylinder.

    ``plane_basis`` is a d x 2 orthonormal column pair; the cylinder is
    {|B^T x| <= CYL_RATIO}, where rays end at t = CYL_RATIO / |B^T gamma|,
    so the integral is closed in t; the sum reads rows ::2 of the trace table.
    """
    g, dg = (a[::2] for a in curve.trace_table)
    wedge = ParamSurface._area_element(g, dg)
    proj = rownorm(g @ plane_basis)
    return 0.5 * float(periodic_trapezoid(wedge * (CYL_RATIO / proj) ** 2,
                                          curve.period))


# ---------------------------------------------------------------------------
# module-level operation names

def annulus_mass(current, s: float, r: float) -> float:
    """Mass of the annulus restriction, with its self-check; 0.0 where the
    annulus misses the current or s == r."""
    return RadialRestriction(current, s, r).mass()
