"""Cylindrical excess, optimal planes and harmonic-extension competitors.

The excess of the cone over a winding curve against a plane tau is

    E(tau) = 1/2 * integral over the unit cylinder of |T(x) - tau|^2 d||T||

with |.| the mass norm on two-vectors.  Because cone tangents are constant
along rays, E reduces to a single periodic integral in the curve parameter
and the whole pipeline (optimal tilt, regraphing on a smaller cylinder,
harmonic extension inside it) stays one-dimensional except for the final
surface masses.  The plane-independent part of that integral (trace
points, wedge speeds, unit tangents) is built once per curve and sample
count.  The excess kernel takes a whole stack of tilted planes, so a BFGS
step with its finite-difference gradient, and the final certificate with
all its one-sided probes, each cost one projection, one escape test and
one batch of mass norms.

Gap bookkeeping: both the cone and the competitor are compared to the flat
Q-disk of the working cylinder radius inside the optimal plane's cylinder;
their difference quotient is the achieved decay factor.  A flat (or purely
tilted) curve makes both gaps vanish and the ratio is defined as 0.
"""

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .currents import (ParamSurface, WindingCurve,
                       infinite_cone_cylinder_mass)
from .errors import (ExcessTooLarge, NoConvergence, NotGraph,
                     SupportEscapesCylinder)
from .fourier import FourierSeries, analyze, harmonic_extension
from .geom import (Plane2, orthonormal_pairs, standard_plane,
                   twovector_mass_norm, unit_tangent_matrix, wedge_matrix)

OMEGA2 = np.pi
ESCAPE_FACTOR = 2.0
GAP_FLOOR = 1e-13
GRAD_TOL = 1e-8
GRAD_REL = 1e-5
PRE_EXCESS = 0.1
CYL_RATIO = 0.5
REGRAPH_PASSES = 12


@dataclass(frozen=True)
class ExcessReport:
    """Cylindrical excess before and after optimizing the reference plane."""

    plane: Plane2
    excess: float
    raw_excess: float


@dataclass(frozen=True)
class EpiperimetricVerdict:
    """Outcome of one cone-vs-competitor comparison.

    Gaps are masses minus Q * pi * cylinder_radius^2, both measured inside
    the optimal plane's cylinder of radius ``cylinder_radius``; the ratio
    is competitor gap over cone gap and epsilon13 = 1 - ratio.
    """

    plane: Plane2
    cylinder_radius: float
    cone_gap: float
    competitor_gap: float
    ratio: float
    epsilon13: float
    passed: bool
    raw_excess: float
    optimal_excess: float


def _cone_tangent_data(curve: WindingCurve):
    """Plane-independent cone data at the curve's M sample angles, built once.

    Returns the trace points z, their norms |z|, the wedge speeds
    |z ^ z'| and the unit tangent two-vectors.  WindingCurve is immutable, so
    the arrays are memoized on the instance (read-only, since every tilt of
    the search shares them).
    """
    data = vars(curve).get("_cone_tangent_data")
    if data is None:
        theta = np.arange(curve.M) * (curve.period / curve.M)
        z, dz = curve.jet(theta)
        W = wedge_matrix(z, dz)
        wedge = np.linalg.norm(W, axis=(-2, -1)) / np.sqrt(2.0)
        tangent = curve.orientation * unit_tangent_matrix(z, dz)
        data = (z, np.linalg.norm(z, axis=-1), wedge, tangent)
        for arr in data:
            arr.flags.writeable = False
        vars(curve)["_cone_tangent_data"] = data
    return data


def cylindrical_excess(curve: WindingCurve, plane):
    """Excess of the infinite cone over the curve in a plane's unit cylinder.

    The periodic integral runs over the curve's M sample angles.  A cone
    ray escapes when it meets the cylinder wall only outside the ball of
    radius 2.  ``plane`` is a Plane2, whose excess comes back as a float
    (SupportEscapesCylinder on escape), or a (K, d, 2) stack of orthonormal
    bases, which gives the K excesses and the boolean mask of escaping
    rows, whose excess is NaN.
    """
    single = isinstance(plane, Plane2)
    B = plane.basis()[None] if single else plane
    z, znorm, wedge, tangent = _cone_tangent_data(curve)
    proj = np.linalg.norm(z @ B, axis=-1)
    worst = np.max(znorm / np.maximum(proj, 1e-300), axis=-1)
    escaped = worst > ESCAPE_FACTOR
    if single and escaped[0]:
        raise SupportEscapesCylinder(
            f"cone ray exits the cylinder at |x| = {worst[0]:.3f} > 2")
    keep = ~escaped
    B, proj = B[keep], proj[keep]
    diff = tangent - wedge_matrix(B[..., 0], B[..., 1])[:, None]
    dist2 = twovector_mass_norm(diff) ** 2
    vals = dist2 * wedge / proj ** 2
    excess = np.full(escaped.shape, np.nan)
    excess[keep] = 0.25 * np.sum(vals, axis=-1) * (curve.period / curve.M)
    if single:
        return float(excess[0])
    return excess, escaped


def _tilt_bases(V: np.ndarray, n: int) -> np.ndarray:
    """(K, 2 + n, 2) orthonormal bases of the planes spanned by K tilts.

    Row k of V tilts the spanning pair e_0 + (0, 0, V[k, :n]) and
    e_1 + (0, 0, V[k, n:]); geom.orthonormal_pairs orthonormalizes them.
    """
    V = np.asarray(V, dtype=float)
    if n < 1 or V.ndim != 2 or V.shape[1] != 2 * n:
        raise ValueError("expected a (K, 2n) stack of tilts with n >= 1")
    u = np.zeros((V.shape[0], 2 + n))
    v = np.zeros_like(u)
    u[:, 0] = 1.0
    v[:, 1] = 1.0
    u[:, 2:] = V[:, :n]
    v[:, 2:] = V[:, n:]
    return orthonormal_pairs(u, v)


def _tilt_objective(curve: WindingCurve, V: np.ndarray) -> np.ndarray:
    """Excess of each tilt in the stack V, one cylindrical_excess call.

    A tilt whose cone escapes the cylinder scores 1e6 + |v|^2 instead,
    which the search descends away from.
    """
    vals, escaped = cylindrical_excess(curve, _tilt_bases(V, curve.n))
    return np.where(escaped, 1e6 + np.sum(V * V, axis=-1), vals)


def _tilt_plane(v: np.ndarray, n: int) -> Plane2:
    B = _tilt_bases(v[None], n)[0]
    return Plane2(B[:, 0], B[:, 1])


def _stencil(v: np.ndarray, steps) -> np.ndarray:
    """Rows v, then v + t e_k and v - t e_k for k = 0.. for each step t."""
    E = np.eye(v.size)
    return np.vstack([v[None]] + [v + (s * t) * E
                                  for t in steps for s in (1.0, -1.0)])


def _certificate(excesses, v: np.ndarray):
    """Value, central-gradient norm and steepest one-sided slope at v.

    ``excesses`` maps a stack of tilts to their objective values and is
    called once, on v and its axis neighbours at steps 1e-5 and 1e-6.  The
    gradient is the 1e-5 central quotient.  The slope is the most negative
    (f(v +- t e_k) - f(v)) / t over both steps: an even kink cancels out
    of central differences, so a point where the objective descends at
    |t| rate on both sides of some axis reads as a zero gradient, while
    the one-sided slopes recover it.  Every slope nonnegative means v is a
    minimum of the piecewise-smooth objective; a negative slope is a
    descent direction BFGS failed to follow.
    """
    m = v.size
    f = excesses(_stencil(v, (1e-5, 1e-6)))
    f0 = f[0]
    side = f[1:].reshape(2, 2, m)
    gnorm = np.linalg.norm((side[0, 0] - side[0, 1]) / (2 * 1e-5))
    slopes = (side - f0) / np.array([1e-5, 1e-6])[:, None, None]
    return float(f0), float(gnorm), float(np.min(slopes))


def optimal_plane(curve: WindingCurve) -> ExcessReport:
    """Tilt the reference plane to a certified minimum of the excess.

    The plane is parametrized by the 2n-dimensional graph tilt of the two
    spanning directions; minimization is BFGS on a central-difference
    gradient, and a tilt that fails the certificate below raises
    NoConvergence.  A reference-plane excess of PRE_EXCESS or more is
    refused with ExcessTooLarge before the search starts.  Each BFGS
    evaluation stacks the tilt with its 4n gradient neighbours, and the
    certificate its 8n, so each costs one cylindrical_excess call.

    In codimension two the mass norm carries an absolute Pfaffian term,
    so the excess is only piecewise smooth in the tilt and its minima
    generically sit at kink vertices: tilting out of the cone's tangent
    alignment switches the Pfaffian on at |t| rate, and the vertex where
    it vanishes is exactly the minimizer.  A gradient test alone cannot
    certify such a point, because central differences cancel across an
    even kink.  The certificate therefore has two parts: the central
    finite-difference gradient must fall below max(GRAD_TOL, GRAD_REL *
    raw excess), which pins down the smooth directions, and every
    one-sided axis slope at the returned tilt must be nonnegative to the
    same tolerance, which pins down the kinked ones.  The relative
    gradient floor matters for stiff profiles whose curvature turns
    roundoff-level tilt error into gradient units.
    """
    n = curve.n
    pi0 = standard_plane(2 + n)
    raw = cylindrical_excess(curve, pi0)
    if raw >= PRE_EXCESS:
        raise ExcessTooLarge(
            f"excess {raw:.3f} against the reference plane is too large "
            "to start the tilt search")

    scale = max(raw, 1e-16)
    m = 2 * n

    def scaled(x):
        f = _tilt_objective(curve, _stencil(x, (1e-6,))) / scale
        return f[0], (f[1:m + 1] - f[m + 1:]) / (2 * 1e-6)

    tol = max(GRAD_TOL, GRAD_REL * raw)
    res = optimize.minimize(
        scaled, np.zeros(m), jac=True,
        method="BFGS", options={"gtol": 1e-12, "maxiter": 400})
    v = res.x
    fval, gnorm, descent = _certificate(
        lambda V: _tilt_objective(curve, V), v)
    if gnorm >= tol:
        raise NoConvergence(
            f"tilt search stalled with |grad| = {gnorm:.2e}")
    if descent < -tol:
        raise NoConvergence(
            f"one-sided slope {descent:.2e} still descends at the "
            "returned tilt")
    plane = _tilt_plane(v, n)
    return ExcessReport(plane=plane, excess=float(fval),
                        raw_excess=float(raw))


def regraph_over_plane(curve: WindingCurve, plane: Plane2,
                       new_rho: float) -> WindingCurve:
    """Rewrite the cone over the curve as a winding curve on a new cylinder.

    Intersects the (infinite) cone with the cylinder of radius ``new_rho``
    around the plane and resamples the trace at the curve's M uniform
    cylinder angles, expressed in the plane's frame.  Raises NotGraph when
    the cylinder angle fails to advance monotonically.

    The resampling is a Newton solve for the curve angle of each cylinder
    angle; it stops once no step exceeds a few ulps of the period (one or
    two passes on every curve tried) and gives up after REGRAPH_PASSES.
    """
    m = curve.M
    F = plane.frame()

    def angle_data(theta):
        x, dx = curve.jet(theta)
        y = x @ F
        dy = dx @ F
        u = y[..., :2]
        du = dy[..., :2]
        r2 = np.sum(u * u, axis=-1)
        psi = np.arctan2(u[..., 1], u[..., 0]) - np.mod(theta, 2 * np.pi)
        psi = np.mod(psi + np.pi, 2 * np.pi) - np.pi
        phi = theta + psi
        dphi = (u[..., 0] * du[..., 1] - u[..., 1] * du[..., 0]) / r2
        return phi, dphi, y, u, r2

    probe = np.arange(4 * m) * (curve.period / (4 * m))
    _, dphi, _, u, r2 = angle_data(probe)
    if np.min(r2) <= (0.2 * curve.rho) ** 2 or np.min(dphi) <= 0:
        raise NotGraph(
            "curve is not a cylinder graph over the requested plane")

    target = np.arange(m) * (curve.period / m)
    theta = target.copy()
    step_tol = 4.0 * np.finfo(float).eps * curve.period
    for _ in range(REGRAPH_PASSES):
        phi, dphi, _, _, _ = angle_data(theta)
        step = (phi - target) / dphi
        theta = theta - step
        if float(np.max(np.abs(step))) <= step_tol:
            break
    phi, _, y, u, r2 = angle_data(theta)
    if float(np.max(np.abs(phi - target))) > 1e-10:
        raise NoConvergence("cylinder-angle resampling did not converge")
    t = new_rho / np.sqrt(r2)
    prof = t[:, None] * y[..., 2:] / new_rho
    series = analyze(prof, curve.Q, tail_tol=1.0)
    series = _trim_series(series)
    return WindingCurve.from_fourier(series, rho=new_rho,
                                     orientation=curve.orientation)


def _trim_series(series: FourierSeries) -> FourierSeries:
    keep = series.max_active_frequency(1e-13)
    return FourierSeries(series.Q, series.n,
                         series.alpha[:keep + 1].copy(),
                         series.beta[:keep].copy())


@dataclass(frozen=True)
class Competitor:
    """Harmonic-extension filling inside the optimal plane's cylinder.

    ``extension`` is the harmonic-extension graph over the plane whose
    boundary is the cone's trace on the cylinder of radius
    ``cylinder_radius``.  It is written in the coordinates of
    ``plane.frame()``: the first two span the plane and the rest are
    normal to it.  Those differ from the ambient coordinates by a rigid
    motion, which leaves the mass, the one quantity the gap reads,
    unchanged.  Outside that cylinder the competitor agrees with the
    cone, so only the inner pieces enter the gap comparison.
    """

    extension: ParamSurface
    cylinder_radius: float


def build_competitor(curve: WindingCurve, plane: Plane2,
                     lip_max: float = 0.1) -> Competitor:
    """Build the epiperimetric competitor for the cone over the curve.

    The cone is regraphed on the cylinder of radius CYL_RATIO * rho around
    the plane, which must be a cylinder graph strictly inside the curve
    (NotGraph otherwise), with regraphed profile Lipschitz below
    ``lip_max`` (LipschitzTooLarge from the harmonic extension otherwise).
    """
    rho2 = CYL_RATIO * curve.rho
    inner = regraph_over_plane(curve, plane, rho2)
    disk = harmonic_extension(inner.series, rho2, lip_max=lip_max)
    probe = np.arange(512) * (curve.period / 512)
    proj = np.linalg.norm(curve.points(probe) @ plane.basis(), axis=-1)
    if float(np.min(proj)) <= rho2:
        raise NotGraph("inner cylinder reaches past the curve")
    return Competitor(extension=disk, cylinder_radius=rho2)


def epiperimetric_gap(curve: WindingCurve, eps_target: float = 1e-2,
                      lip_max: float = 0.1) -> EpiperimetricVerdict:
    """Compare the cone over the curve with its harmonic competitor.

    PASS means the competitor gap is at most (1 - eps_target) times the
    cone gap; a cone gap below the floor counts as already-flat and
    passes with ratio 0.
    """
    report = optimal_plane(curve)
    plane = report.plane
    comp = build_competitor(curve, plane, lip_max=lip_max)
    rho2 = comp.cylinder_radius
    ref = curve.Q * OMEGA2 * rho2 ** 2
    cone_gap = infinite_cone_cylinder_mass(curve, plane.basis(), rho2) - ref
    comp_gap = comp.extension.mass() - ref
    floor = GAP_FLOOR * max(ref, 1.0)
    if cone_gap <= floor:
        ratio = 0.0
    else:
        ratio = comp_gap / cone_gap
    eps13 = 1.0 - ratio
    return EpiperimetricVerdict(
        plane=plane, cylinder_radius=rho2, cone_gap=float(cone_gap),
        competitor_gap=float(comp_gap), ratio=float(ratio),
        epsilon13=float(eps13), passed=bool(ratio <= 1.0 - eps_target),
        raw_excess=float(report.raw_excess),
        optimal_excess=float(report.excess))


def mode_ratio(a: float) -> float:
    """Linearized competitor-to-cone gap ratio of a single mode at i/Q = a."""
    return 2.0 * a / (1.0 + a * a)
