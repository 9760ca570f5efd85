"""Cylindrical excess, optimal planes and harmonic-extension competitors.

The excess of the cone over a winding curve against a plane tau is

    E(tau) = 1/2 * integral over the unit cylinder of |T(x) - tau|^2 d||T||

with |.| the mass norm on two-vectors.  Because cone tangents are constant
along rays, E reduces to a single periodic integral in the curve parameter
and the whole pipeline (optimal tilt, regraphing on a smaller cylinder,
harmonic extension inside, cone annulus outside) stays one-dimensional
except for the final surface masses.

Gap bookkeeping: both the cone and the competitor are compared to the flat
Q-disk of the working cylinder radius inside the optimal plane's cylinder;
their difference quotient is the achieved decay factor.  A flat (or purely
tilted) curve makes both gaps vanish and the ratio is defined as 0.
"""

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .currents import (SurfaceStack, ParamSurface, WindingCurve,
                       infinite_cone_cylinder_mass)
from .errors import (LipschitzTooLarge, NoConvergence, NotGraph,
                     SupportEscapesCylinder)
from .fourier import FourierSeries, analyze, harmonic_extension
from .geom import (Plane2, plane_from_spanning, standard_plane,
                   twovector_mass_norm, unit_tangent_matrix, wedge_matrix)

OMEGA2 = np.pi
ESCAPE_FACTOR = 2.0
GAP_FLOOR = 1e-13
GRAD_REL = 1e-5


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


def _cone_tangent_data(curve: WindingCurve, m: int):
    theta = np.arange(m) * (curve.period / m)
    z = curve.points(theta)
    dz = curve.velocities(theta)
    W = wedge_matrix(z, dz)
    wedge = np.linalg.norm(W, axis=(-2, -1)) / np.sqrt(2.0)
    tangent = curve.orientation * unit_tangent_matrix(z, dz)
    return theta, z, wedge, tangent


def cylindrical_excess(curve: WindingCurve, plane: Plane2,
                       nsamples: int | None = None) -> float:
    """Excess of the infinite cone over the curve in the plane's unit cylinder.

    Raises SupportEscapesCylinder when a cone ray meets the cylinder wall
    only outside the ball of radius 2.
    """
    m = nsamples or curve.M
    theta, z, wedge, tangent = _cone_tangent_data(curve, m)
    B = plane.basis()
    proj = np.linalg.norm(z @ B, axis=-1)
    ratio = np.linalg.norm(z, axis=-1) / np.maximum(proj, 1e-300)
    worst = float(np.max(ratio))
    if worst > ESCAPE_FACTOR:
        raise SupportEscapesCylinder(
            f"cone ray exits the cylinder at |x| = {worst:.3f} > 2")
    diff = tangent - plane.wedge_matrix()
    dist2 = twovector_mass_norm(diff) ** 2
    vals = dist2 * wedge / proj ** 2
    return 0.25 * float(np.sum(vals)) * (curve.period / m)


def _tilt_plane(v: np.ndarray, n: int) -> Plane2:
    d = 2 + n
    b1 = np.zeros(d)
    b2 = np.zeros(d)
    b1[0] = 1.0
    b2[1] = 1.0
    b1[2:] = v[:n]
    b2[2:] = v[n:]
    return plane_from_spanning(b1, b2)


def _fd_gradient(fn, v, h):
    g = np.empty_like(v)
    for k in range(v.size):
        vp = v.copy()
        vm = v.copy()
        vp[k] += h
        vm[k] -= h
        g[k] = (fn(vp) - fn(vm)) / (2 * h)
    return g


def _fd_hessian(fn, v, h):
    m = v.size
    H = np.empty((m, m))
    for i in range(m):
        for j in range(i + 1):
            vpp = v.copy(); vpm = v.copy(); vmp = v.copy(); vmm = v.copy()
            vpp[[i, j]] += h; vmm[[i, j]] -= h
            vpm[i] += h; vpm[j] -= h
            vmp[i] -= h; vmp[j] += h
            H[i, j] = H[j, i] = (fn(vpp) - fn(vpm) - fn(vmp) + fn(vmm)) / (4 * h * h)
    return H


def _one_sided_probe(fn, v, f0, steps=(1e-6, 1e-5)):
    """Most negative one-sided axis slope (f(v + t d) - f0) / t at v.

    An even kink cancels out of central differences, so a point where
    the objective descends at |t| rate on both sides of some axis reads
    as a zero gradient.  Probing each side separately recovers the true
    subdifferential picture: every slope nonnegative means v is a
    minimum of the piecewise-smooth objective, a negative slope is a
    descent direction the smooth optimizers failed to follow.
    """
    m = v.size
    worst = np.inf
    for k in range(m):
        d = np.zeros(m)
        d[k] = 1.0
        for t in steps:
            for s in (1.0, -1.0):
                slope = (fn(v + (s * t) * d) - f0) / t
                worst = min(worst, float(slope))
    return worst


def _newton_polish(fn, v, grad_tol, iters=60):
    """Damped Newton descent with adaptive Levenberg regularization.

    The tilt objective is only piecewise smooth in codimension two, so
    the finite-difference Hessian can be indefinite; the damping term is
    grown until a step is accepted and relaxed after successes.
    """
    lam = 1.0
    for _ in range(iters):
        g = _fd_gradient(fn, v, 1e-6)
        if np.linalg.norm(g) < 0.3 * grad_tol:
            break
        H = _fd_hessian(fn, v, 1e-4)
        base = max(float(np.max(np.abs(np.linalg.eigvalsh(H)))), 1e-12)
        f0 = fn(v)
        moved = False
        for _ in range(40):
            step = np.linalg.solve(H + lam * base * np.eye(v.size), -g)
            if fn(v + step) < f0:
                v = v + step
                lam = max(lam / 3.0, 1e-8)
                moved = True
                break
            lam *= 4.0
        if not moved:
            break
    return v


def optimal_plane(curve: WindingCurve, grad_tol: float = 1e-8,
                  pre_excess: float = 0.1) -> ExcessReport:
    """Tilt the reference plane to a certified minimum of the excess.

    The plane is parametrized by the 2n-dimensional graph tilt of the two
    spanning directions; minimization is BFGS on a central-difference
    gradient with damped-Newton and Nelder-Mead fallbacks.

    In codimension two the mass norm carries an absolute Pfaffian term,
    so the excess is only piecewise smooth in the tilt and its minima
    generically sit at kink vertices: tilting out of the cone's tangent
    alignment switches the Pfaffian on at |t| rate, and the vertex where
    it vanishes is exactly the minimizer.  A gradient test alone cannot
    certify such a point, because central differences cancel across an
    even kink.  The certificate therefore has two parts: the central
    finite-difference gradient must fall below max(grad_tol, GRAD_REL *
    raw excess), which pins down the smooth directions, and every
    one-sided axis slope at the returned tilt must be nonnegative to the
    same tolerance, which pins down the kinked ones.  The relative
    gradient floor matters for stiff profiles whose curvature turns
    roundoff-level tilt error into gradient units.
    """
    n = curve.n
    pi0 = standard_plane(2 + n)
    raw = cylindrical_excess(curve, pi0)
    if raw >= pre_excess:
        raise ValueError(
            f"excess {raw:.3f} against the reference plane is too large "
            "to start the tilt search")

    def objective(v):
        try:
            return cylindrical_excess(curve, _tilt_plane(v, n))
        except SupportEscapesCylinder:
            return 1e6 + float(np.sum(v * v))

    scale = max(raw, 1e-16)

    def scaled(v):
        return objective(v) / scale

    tol = max(grad_tol, GRAD_REL * raw)
    v = np.zeros(2 * n)
    res = optimize.minimize(
        scaled, v, jac=lambda x: _fd_gradient(scaled, x, 1e-6),
        method="BFGS", options={"gtol": 1e-12, "maxiter": 400})
    v = res.x
    gnorm = np.linalg.norm(_fd_gradient(objective, v, 1e-5))
    if gnorm >= tol:
        v = _newton_polish(objective, v, grad_tol)
        gnorm = np.linalg.norm(_fd_gradient(objective, v, 1e-5))
    if gnorm >= tol:
        span = max(np.sqrt(max(objective(v), 0.0)), 1e-4)
        simplex = np.vstack([v] + [v + span * e
                                   for e in np.eye(2 * n)])
        res = optimize.minimize(objective, v, method="Nelder-Mead",
                                options={"xatol": 1e-13, "fatol": 1e-19,
                                         "initial_simplex": simplex,
                                         "maxiter": 6000, "maxfev": 6000})
        v = _newton_polish(objective, res.x, grad_tol)
        gnorm = np.linalg.norm(_fd_gradient(objective, v, 1e-5))
    if gnorm >= tol:
        raise NoConvergence(
            f"tilt search stalled with |grad| = {gnorm:.2e}")
    fval = objective(v)
    descent = _one_sided_probe(objective, v, fval)
    if descent < -tol:
        raise NoConvergence(
            f"one-sided slope {descent:.2e} still descends at the "
            "returned tilt")
    plane = _tilt_plane(v, n)
    return ExcessReport(plane=plane, excess=float(fval),
                        raw_excess=float(raw))


def regraph_over_plane(curve: WindingCurve, plane: Plane2, new_rho: float,
                       nsamples: int | None = None) -> WindingCurve:
    """Rewrite the cone over the curve as a winding curve on a new cylinder.

    Intersects the (infinite) cone with the cylinder of radius ``new_rho``
    around the plane and resamples the trace at uniform cylinder angles,
    expressed in the plane's frame.  Raises NotGraph when the cylinder
    angle fails to advance monotonically.
    """
    m = nsamples or curve.M
    F = plane.frame()

    def frame_coords(theta):
        return curve.points(theta) @ F, curve.velocities(theta) @ F

    def angle_data(theta):
        y, dy = frame_coords(theta)
        u = y[..., :2]
        du = dy[..., :2]
        r2 = np.sum(u * u, axis=-1)
        psi = np.arctan2(u[..., 1], u[..., 0]) - np.mod(theta, 2 * np.pi)
        psi = np.mod(psi + np.pi, 2 * np.pi) - np.pi
        phi = theta + psi
        dphi = (u[..., 0] * du[..., 1] - u[..., 1] * du[..., 0]) / r2
        return phi, dphi, y, u, r2

    probe = np.arange(4 * curve.M) * (curve.period / (4 * curve.M))
    _, dphi, _, u, r2 = angle_data(probe)
    if np.min(r2) <= (0.2 * curve.rho) ** 2 or np.min(dphi) <= 0:
        raise NotGraph(
            "curve is not a cylinder graph over the requested plane")

    target = np.arange(m) * (curve.period / m)
    theta = target.copy()
    for _ in range(12):
        phi, dphi, _, _, _ = angle_data(theta)
        theta = theta - (phi - target) / dphi
    phi, _, y, u, r2 = angle_data(theta)
    if float(np.max(np.abs(phi - target))) > 1e-10:
        raise NoConvergence("cylinder-angle resampling did not converge")
    t = new_rho / np.sqrt(r2)
    prof = t[:, None] * y[..., 2:] / new_rho
    series = analyze(prof, curve.Q, tail_tol=1.0)
    series = _trim_series(series)
    return WindingCurve.from_fourier(series, rho=new_rho,
                                     orientation=curve.orientation)


def _trim_series(series: FourierSeries, tol: float = 1e-13) -> FourierSeries:
    keep = series.max_active_frequency(tol)
    return FourierSeries(series.Q, series.n,
                         series.alpha[:keep + 1].copy(),
                         series.beta[:keep].copy())


@dataclass(frozen=True)
class Competitor:
    """Filling of a winding curve: harmonic extension plus a cone collar.

    ``surface`` has boundary equal to the input curve; ``extension`` is
    the inner harmonic-extension graph over ``plane`` up to cylinder
    radius ``cylinder_radius`` and ``collar`` the piece of the original
    cone between that cylinder and the curve (None when the curve already
    sits on the cylinder).
    """

    surface: object
    extension: ParamSurface
    collar: ParamSurface | None
    plane: Plane2
    inner_curve: WindingCurve
    cylinder_radius: float


def build_competitor(curve: WindingCurve, plane: Plane2 | None = None,
                     lip_max: float = 0.1, cyl_ratio: float = 0.5
                     ) -> Competitor:
    """Build the epiperimetric competitor for the cone over the curve.

    The curve must be a cylinder graph over the plane (NotGraph otherwise)
    with regraphed profile Lipschitz below ``lip_max``.
    """
    if plane is None:
        plane = optimal_plane(curve).plane
    rho2 = cyl_ratio * curve.rho
    inner = regraph_over_plane(curve, plane, rho2)
    lip = inner.series.lipschitz()
    if lip > lip_max:
        raise LipschitzTooLarge(
            f"regraphed profile Lipschitz {lip:.3f} > {lip_max}")
    F = plane.frame()
    ext = harmonic_extension(inner.series, rho2).pushforward(
        lambda x: x @ F.T, dphi=lambda x: np.broadcast_to(F, x.shape + F.shape[:1]))

    B = plane.basis()

    def t_inner(theta):
        return rho2 / np.linalg.norm(curve.points(theta) @ B, axis=-1)

    def dt_inner(theta):
        p = curve.points(theta) @ B
        dp = curve.velocities(theta) @ B
        nrm = np.linalg.norm(p, axis=-1)
        return -rho2 * np.sum(p * dp, axis=-1) / nrm ** 3

    def collar_map(w, theta):
        w, theta = np.broadcast_arrays(np.asarray(w, float),
                                       np.asarray(theta, float))
        t0 = t_inner(theta)
        t = t0 + w * (1.0 - t0)
        return t[..., None] * curve.points(theta)

    def collar_jac(w, theta):
        w, theta = np.broadcast_arrays(np.asarray(w, float),
                                       np.asarray(theta, float))
        z = curve.points(theta)
        dz = curve.velocities(theta)
        t0 = t_inner(theta)
        dt0 = dt_inner(theta)
        t = t0 + w * (1.0 - t0)
        xw = (1.0 - t0)[..., None] * z
        xt = (dt0 * (1.0 - w))[..., None] * z + t[..., None] * dz
        return xw, xt

    probe = np.arange(512) * (curve.period / 512)
    if float(np.max(t_inner(probe))) >= 1.0:
        raise NotGraph(
            "inner cylinder reaches past the curve; lower cyl_ratio")
    collar = ParamSurface(collar_map, (0.0, 1.0, 0.0, curve.period),
                          jacobian=collar_jac,
                          order=(16, max(64, 8 * curve.Q)))
    surface = SurfaceStack([ext, collar])
    return Competitor(surface=surface, extension=ext, collar=collar,
                      plane=plane, inner_curve=inner,
                      cylinder_radius=rho2)


def epiperimetric_gap(curve: WindingCurve, eps_target: float = 1e-2,
                      plane: Plane2 | None = None, lip_max: float = 0.1,
                      cyl_ratio: float = 0.5) -> EpiperimetricVerdict:
    """Compare the cone over the curve with its harmonic competitor.

    PASS means the competitor gap is at most (1 - eps_target) times the
    cone gap; a cone gap below the floor counts as already-flat and
    passes with ratio 0.
    """
    if plane is None:
        report = optimal_plane(curve)
        plane = report.plane
        raw, opt = report.raw_excess, report.excess
    else:
        raw = cylindrical_excess(curve, standard_plane(2 + curve.n))
        opt = cylindrical_excess(curve, plane)

    comp = build_competitor(curve, plane, lip_max=lip_max,
                            cyl_ratio=cyl_ratio)
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
        raw_excess=float(raw), optimal_excess=float(opt))


def mode_ratio(a: float) -> float:
    """Linearized competitor-to-cone gap ratio of a single mode at i/Q = a."""
    return 2.0 * a / (1.0 + a * a)
