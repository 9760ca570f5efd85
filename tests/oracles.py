"""Reference computations shared by several test modules.

``mapped_mass`` is the mass of a surface's image under a C^1 map, from
its quadrature frame with the partials mapped by the map's jacobian, so
the chart is evaluated once per node.  Tests use it as the reference for
masses the library computes without moving the surface: the competitor
in plane coordinates, and the first-variation sweep along id + t chi.
``frame_mass`` is one rule's mass summed over the full frame, positions
included, which a mass frame built from the partials alone must equal.

``callback_trapezoid`` is the periodic trapezoid rule that samples its
integrand itself, at m nodes and then at their m midpoints, and
``callback_curve_mass`` and ``callback_cone_cylinder_mass`` are the
curve length and the cone's cylinder mass summed that way from ``jet``
calls, the references for the library's sums on sampled tables.

``bump_vector`` and ``bump_jacobian`` are a bump's full field and
jacobian at every node of a grid; the library evaluates only its profile
and gradient, and only inside its ball.

``polar_disk`` is the flat disk written out as an explicit polar chart,
the reference for the cone over a flat circle.  ``star_disk`` is the flat
star-shaped region rho < 1 + a cos theta, whose rim radius varies with
the angle, so an annulus can meet it at some angles and miss it at
others.

``check_orthonormal_pairs`` checks a stack of plane bases against the
defining properties of Gram-Schmidt on its spanning pairs, not against
another Gram-Schmidt.  ``standard_plane`` is the reference plane
span(e_0, e_1).  ``wedge_matrix`` and ``unit_tangent_matrix`` build
two-vectors in the antisymmetric-matrix form, ``components`` reads off
the Plücker components the library stores, and ``matrix_mass_norm`` is
the mass norm summed over the matrix entries, which the library's
component norm must equal bit for bit.

``random_link_curve`` and ``normalize_to_sphere`` build spherical links,
whose cones have mass half the link length and no deviation.

``sphere_from_pole`` is the unit sphere seen from one of its points, a
current with closed-form ball masses and deviations that is not a cone.

``first_variation_pair`` checks the paper's first-variation laws, for a
semicalibration (``TwoFormField``, such as ``solid_angle_form``) and for
cross sections of spheres (``SphereLaw``), against the stepped
derivative of the mass change that the library's probes use."""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from tclab.calibration import _flow, spherical_cap
from tclab.currents import ParamSurface, WindingCurve
from tclab.fourier import FourierSeries
from tclab.geom import Plane2, rownorm


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


def frame_mass(surface, order):
    """Mass of one rule at ``order`` from the surface's full quadrature
    frame, positions included, in the library's summation order."""
    x, xu, xv, W = surface._frame(order)
    return float(np.sum(W * ParamSurface._area_element(xu, xv)))


def callback_trapezoid(fn, period, nodes):
    """Periodic trapezoid rule on m nodes and its halving check on 2m,
    calling fn at the m nodes and then at the m midpoints; returns the
    2m-node value."""
    h = period / nodes
    coarse = np.sum(fn(np.arange(nodes) * h), axis=0) * h
    return 0.5 * coarse + np.sum(fn((np.arange(nodes) + 0.5) * h),
                                 axis=0) * (0.5 * h)


def callback_curve_mass(curve) -> float:
    """Curve length from speeds sampled by the rule itself."""
    return float(callback_trapezoid(lambda t: rownorm(curve.jet(t)[1]),
                                    curve.period, curve.M))


def callback_cone_cylinder_mass(curve, basis, radius) -> float:
    """Mass of the infinite cone over the curve inside the cylinder
    {|B^T x| <= radius}, its integrand sampled by the rule itself."""

    def integrand(theta):
        g, dg = curve.jet(theta)
        proj = rownorm(g @ basis)
        return ParamSurface._area_element(g, dg) * (radius / proj) ** 2

    return 0.5 * float(callback_trapezoid(integrand, curve.period, curve.M))


def bump_vector(chi, x):
    """The full field chi(x) = f(x) d of a ``calibration.Bump`` at points
    x (..., d): zero outside its ball, at every node of any grid."""
    y = np.asarray(x, dtype=float) - chi.center
    s = np.sum(y * y, axis=-1) / (chi.radius * chi.radius)
    f = np.where(s < 1.0, (1.0 - np.minimum(s, 1.0)) ** chi.power, 0.0)
    return f[..., None] * chi.direction


def bump_jacobian(chi, x):
    """The full (..., d, d) jacobian d (grad f)^T of a bump at points x,
    zero outside its ball."""
    y = np.asarray(x, dtype=float) - chi.center
    r2 = chi.radius * chi.radius
    s = np.sum(y * y, axis=-1) / r2
    p = chi.power
    df = np.where(s < 1.0, -p * (1.0 - np.minimum(s, 1.0)) ** (p - 1), 0.0)
    grad = df[..., None] * (2.0 * y / r2)
    return chi.direction[:, None] * grad[..., None, :]


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
                        order=order)


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


def standard_plane(dim: int) -> Plane2:
    e = np.eye(dim)
    return Plane2(e[0], e[1])


def wedge_matrix(u, v) -> np.ndarray:
    """Antisymmetric matrix of u ^ v.  Broadcasts over leading axes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., :, None] * v[..., None, :] - v[..., :, None] * u[..., None, :]


def components(A) -> np.ndarray:
    """Plücker components A_ij, i < j, of a stack of d x d matrices."""
    i, j = np.triu_indices(A.shape[-1], 1)
    return A[..., i, j]


def matrix_mass_norm(A) -> np.ndarray:
    """sqrt(1/2 sum A_ij^2 + 2 |Pf A|) summed over the d x d matrix, d <= 4."""
    sq = 0.5 * np.sum(A * A, axis=(-2, -1))
    if A.shape[-1] == 4:
        pf = (A[..., 0, 1] * A[..., 2, 3] - A[..., 0, 2] * A[..., 1, 3]
              + A[..., 0, 3] * A[..., 1, 2])
        sq = sq + 2.0 * np.abs(pf)
    return np.sqrt(sq)


def unit_tangent_matrix(u, v):
    """Matrix of the unit simple two-vector of span(u, v), oriented u -> v."""
    W = wedge_matrix(u, v)
    return W / (np.linalg.norm(W, axis=(-2, -1), keepdims=True) / np.sqrt(2.0))


# ---------------------------------------------------------------------------
# spherical links

@dataclass(frozen=True)
class SpaceCurve:
    """Closed curve with ``jet`` mapping angles on [0, 2 pi Q) to
    (gamma, gamma'), and ``M`` the base sample count of its sums."""

    jet: Callable
    Q: int
    M: int

    @property
    def period(self) -> float:
        return 2.0 * np.pi * self.Q

    @cached_property
    def trace_table(self):
        """``jet`` at the 4M angles k * period / (4M), as a WindingCurve
        samples it."""
        k = 4 * self.M
        return self.jet(np.arange(k) * (self.period / k))


def normalize_to_sphere(curve) -> SpaceCurve:
    """Radially project a curve onto the unit sphere."""

    def jet(theta):
        g, dg = curve.jet(theta)
        r2 = np.sum(g * g, axis=-1, keepdims=True)
        rad = np.sqrt(r2)
        return g / rad, (dg / rad - g * np.sum(g * dg, axis=-1, keepdims=True)
                         / (rad * r2))

    return SpaceCurve(jet, curve.Q, curve.M)


def random_link_curve(rng) -> WindingCurve:
    """Band-limited random winding curve."""
    Q = int(rng.integers(1, 4))
    n = int(rng.integers(1, 4))
    nmodes = int(rng.integers(1, 7))
    alpha = np.zeros((nmodes + 1, n))
    beta = np.zeros((nmodes, n))
    decay = 1.0 / (1.0 + np.arange(1, nmodes + 1)) ** 2
    alpha[1:] = rng.standard_normal((nmodes, n)) * decay[:, None]
    beta[:] = rng.standard_normal((nmodes, n)) * decay[:, None]
    scale = 0.25 / max(1.0, np.abs(alpha).max() + np.abs(beta).max())
    return WindingCurve(FourierSeries(Q, n, alpha * scale, beta * scale))


def star_disk(a, order=(32, 64)) -> ParamSurface:
    """Flat region rho < R(theta) = 1 + a cos theta in the plane z = 0.

    The chart is (w, theta) -> w R(theta) (cos theta, sin theta, 0), so
    |x| = w R(theta) increases along w and the radius at the rim end
    w = 1 runs from 1 - a to 1 + a.
    """

    def chart(w, theta):
        rho = w * (1.0 + a * np.cos(theta))
        out = np.zeros(np.broadcast_shapes(w.shape, theta.shape) + (3,))
        out[..., 0] = rho * np.cos(theta)
        out[..., 1] = rho * np.sin(theta)
        return out

    def jac(w, theta):
        shape = np.broadcast_shapes(w.shape, theta.shape) + (3,)
        R = 1.0 + a * np.cos(theta)
        dR = -a * np.sin(theta)
        xu = np.zeros(shape)
        xv = np.zeros(shape)
        xu[..., 0] = R * np.cos(theta)
        xu[..., 1] = R * np.sin(theta)
        xv[..., 0] = w * (dR * np.cos(theta) - R * np.sin(theta))
        xv[..., 1] = w * (dR * np.sin(theta) + R * np.cos(theta))
        return xu, xv

    return ParamSurface(chart, (0.0, 1.0, 0.0, 2.0 * np.pi), jacobian=jac,
                        order=order)


def sphere_from_pole(order=(48, 96)) -> ParamSurface:
    """The unit sphere of R^3 seen from its pole p = (0, 0, 1).

    The ``spherical_cap`` chart shifted by -p puts p at the origin, and
    |x| = 2 sin(phi / 2) increases along phi.  By Archimedes the ball
    B_r about a point of the unit sphere cuts out area pi r^2, so
    e(r) = 0 with Q = 1.  The normal component of x is |x|^2 / 2, so the
    deviation density |x_perp|^2 / |x|^4 is 1/4 and
    dev(s, r) = pi (r^2 - s^2) / 4.
    """
    cap = spherical_cap(1.0, 0.0, np.pi, order=order)
    pole = np.array([0.0, 0.0, 1.0])
    return ParamSurface(lambda phi, lam: cap.chart(phi, lam) - pole,
                        cap.domain, jacobian=cap.jacobian, order=cap.order)


# ---------------------------------------------------------------------------
# first-variation laws

DEFECT_TOL = 1e-8
LEVI3 = np.zeros((3, 3, 3))
LEVI3[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
LEVI3[[0, 1, 2], [2, 0, 1], [1, 2, 0]] = -1.0


class FormUndefined(Exception):
    """A differential form could not be evaluated at a point."""


class NotSemicalibrated(Exception):
    """The calibration defect is too large for the first-variation law."""


@dataclass(frozen=True)
class TwoFormField:
    """A two-form with its exterior derivative: ``matrix`` maps positions
    (..., d) to antisymmetric (..., d, d) matrices and ``exterior`` to the
    antisymmetric (..., d, d, d) tensor of d omega."""

    matrix: Callable
    exterior: Callable

    def comass_at(self, x):
        """Largest singular value of the form matrix at each point."""
        A = np.asarray(self.matrix(x), dtype=float)
        return np.linalg.svd(A, compute_uv=False)[..., 0]


@dataclass(frozen=True)
class SphereLaw:
    """The law for cross sections of spheres about the origin: the mass
    derivative along chi is the integral of 2 |x|^-2 x . chi."""


def solid_angle_form() -> TwoFormField:
    """The unit-comass form det[x/|x|, v, w] on R^3 minus the origin.

    It calibrates every sphere about the origin, and its exterior
    derivative is 2/|x| times the volume form.
    """

    def radius(x):
        r = np.linalg.norm(x, axis=-1)
        if np.any(r < 1e-12):
            raise FormUndefined("solid-angle form is singular at 0")
        return r

    def matrix(x):
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,ijk->...jk", x / radius(x)[..., None], LEVI3)

    def exterior(x):
        return (2.0 / radius(np.asarray(x, dtype=float)))[
            ..., None, None, None] * LEVI3

    return TwoFormField(matrix, exterior)


def integrate_form(surface, matrix) -> float:
    """Signed action on the surface of the two-form with the given matrix
    field: the sum of matrix(x)(x_u, x_v) over the quadrature nodes."""
    x, xu, xv, W = surface._frame(surface.order)
    vals = np.einsum("...i,...ij,...j->...", xu, matrix(x), xv)
    return float(np.sum(W * vals))


def calibration_defect(surface, form: TwoFormField) -> float:
    """Mass minus form action; zero exactly when the form calibrates."""
    return surface.mass(check=False) - integrate_form(surface, form.matrix)


def mass_derivative(surface, chi, h: float) -> float:
    """Central difference (M(h) - M(-h)) / 2h of the mass along chi's flow."""
    return _flow(surface, chi).mass_change(-h, h) / (2 * h)


@dataclass(frozen=True)
class FirstVariationReport:
    """Central-difference mass derivatives ``d_values`` at ``steps``
    against the law's prediction ``rhs``; ``lhs`` is the Richardson
    extrapolation of the two smallest steps."""

    lhs: float
    rhs: float
    d_values: tuple
    steps: tuple

    @property
    def residual(self) -> float:
        return self.lhs - self.rhs

    @property
    def c2(self) -> float:
        """Largest |d - rhs| / h^2, finite for second-order convergence."""
        return max(abs(d - self.rhs) / (h * h)
                   for d, h in zip(self.d_values, self.steps))

    @property
    def slope(self) -> float:
        """Least squares order of |d(h) - rhs| across the steps."""
        err = np.abs(np.asarray(self.d_values) - self.rhs)
        if np.any(err == 0.0):
            return float("inf")
        return float(np.polyfit(np.log(self.steps), np.log(err), 1)[0])


def first_variation_pair(surface, law, chi, steps=(1e-3, 1e-4)):
    """Compare the mass derivative along chi with the law's prediction.

    A TwoFormField law must calibrate the surface up to DEFECT_TOL
    (relative), else NotSemicalibrated; it predicts T(d omega contracted
    with chi).  A SphereLaw predicts the integral of 2 |x|^-2 x . chi.
    """
    if isinstance(law, SphereLaw):
        rhs = surface.integrate_density(
            lambda x, xu, xv: 2.0 * np.sum(x * bump_vector(chi, x), axis=-1)
            / np.sum(x * x, axis=-1))
    else:
        defect = calibration_defect(surface, law)
        if abs(defect) > DEFECT_TOL * max(surface.mass(check=False), 1.0):
            raise NotSemicalibrated(f"calibration defect {defect:.2e}")
        rhs = integrate_form(surface, lambda x: np.einsum(
            "...i,...ijk->...jk", bump_vector(chi, x), law.exterior(x)))
    steps = tuple(sorted(map(float, steps), reverse=True))
    d_values = tuple(mass_derivative(surface, chi, h) for h in steps)
    (h1, d1), (h2, d2) = zip(steps[-2:], d_values[-2:])
    lhs = (h1 * h1 * d2 - h2 * h2 * d1) / (h1 * h1 - h2 * h2)
    return FirstVariationReport(float(lhs), float(rhs), d_values, steps)
