"""Cylindrical excess, optimal planes and harmonic-extension competitors.

The excess of the cone over a winding curve against a plane tau is

    E(tau) = 1/2 * integral over the unit cylinder of |T(x) - tau|^2 d||T||

with |.| the mass norm on two-vectors.  Because cone tangents are constant
along rays, E reduces to a single periodic integral in the curve parameter
and the whole pipeline (optimal tilt, regraphing on a smaller cylinder,
harmonic extension inside it) stays one-dimensional except for the final
surface masses.  The plane-independent part of that integral (trace
points, wedge speeds, unit tangents) is built once per curve and sample
count.  The excess kernel takes a whole stack of tilted planes, so each
step of the quasi-Newton tilt search with its finite-difference gradient,
its starting Hessian, its backtracking ladder and the final certificate
with all its one-sided probes each cost one projection, one escape test
and one batch of mass norms.

Gap bookkeeping: both the cone and the competitor are compared to the flat
Q-disk of the working cylinder radius inside the optimal plane's cylinder;
their difference quotient is the achieved decay factor.  A flat (or purely
tilted) curve makes both gaps vanish and the ratio is defined as 0.
"""

from dataclasses import dataclass

import numpy as np

from .currents import (ParamSurface, WindingCurve,
                       infinite_cone_cylinder_mass)
from .errors import (ExcessTooLarge, NoConvergence, NotGraph,
                     SupportEscapesCylinder)
from .fourier import FourierSeries, analyze, harmonic_extension
from .geom import (Plane2, orthonormal_pairs, rowdot, rownorm,
                   standard_plane, twovector_mass_norm, unit_tangent_matrix,
                   wedge_matrix)

OMEGA2 = np.pi
ESCAPE_FACTOR = 2.0
GAP_FLOOR = 1e-13
EPS_TARGET = 1e-2
GRAD_TOL = 1e-8
GRAD_REL = 1e-5
PRE_EXCESS = 0.1
CYL_RATIO = 0.5
REGRAPH_PASSES = 12
GRAD_STEP = 1e-6
HESS_STEP = 1e-4
ARMIJO = 1e-4
LADDER = 2.0 ** -np.arange(1, 25)
SEARCH_STEPS = 400


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
        tangent = unit_tangent_matrix(z, dz)
        data = (z, rownorm(z), wedge, tangent)
        for arr in data:
            arr.flags.writeable = False
        vars(curve)["_cone_tangent_data"] = data
    return data


def cylindrical_excess(curve: WindingCurve, B: np.ndarray):
    """Excess of the infinite cone over the curve in K planes' unit cylinders.

    ``B`` is a (K, d, 2) stack of orthonormal plane bases.  The periodic
    integral runs over the curve's M sample angles.  A cone ray escapes
    when it meets the cylinder wall only outside the ball of radius
    ESCAPE_FACTOR.  Returns the K excesses and the boolean mask of
    escaping rows, whose excess is NaN.
    """
    z, znorm, wedge, tangent = _cone_tangent_data(curve)
    proj = rownorm(z @ B)
    worst = np.max(znorm / np.maximum(proj, 1e-300), axis=-1)
    escaped = worst > ESCAPE_FACTOR
    keep = ~escaped
    B, proj = B[keep], proj[keep]
    diff = tangent - wedge_matrix(B[..., 0], B[..., 1])[:, None]
    dist2 = twovector_mass_norm(diff) ** 2
    vals = dist2 * wedge / proj ** 2
    excess = np.full(escaped.shape, np.nan)
    excess[keep] = 0.25 * np.sum(vals, axis=-1) * (curve.period / curve.M)
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
    return np.where(escaped, 1e6 + rowdot(V, V), vals)


def _tilt_plane(v: np.ndarray, n: int) -> Plane2:
    B = _tilt_bases(v[None], n)[0]
    return Plane2(B[:, 0], B[:, 1])


def _stencil(v: np.ndarray, steps) -> np.ndarray:
    """Rows v, then v + t e_k and v - t e_k for k = 0.. for each step t."""
    E = np.eye(v.size)
    return np.vstack([v[None]] + [v + (s * t) * E
                                  for t in steps for s in (1.0, -1.0)])


def _value_gradient(objective, v: np.ndarray):
    """Value and GRAD_STEP central gradient at v from one stencil call."""
    m = v.size
    f = objective(_stencil(v, (GRAD_STEP,)))
    return f[0], (f[1:m + 1] - f[m + 1:]) / (2 * GRAD_STEP)


def _inverse_hessian(objective, v: np.ndarray) -> np.ndarray:
    """Inverse of the HESS_STEP central-difference Hessian at v.

    One call on v, v +- h e_i and v + h (+-e_i +- e_j) for i < j, that is
    1 + 2m + 2m(m - 1) rows.  A Hessian that is not positive definite
    raises NoConvergence.
    """
    m, h = v.size, HESS_STEP
    E = h * np.eye(m)
    i, j = np.triu_indices(m, 1)
    f = objective(v + np.vstack([np.zeros((1, m)), E, -E,
                                 E[i] + E[j], E[i] - E[j],
                                 E[j] - E[i], -E[i] - E[j]]))
    H = np.diag((f[1:m + 1] - 2.0 * f[0] + f[m + 1:2 * m + 1]) / h ** 2)
    pp, pm, mp, mm = f[2 * m + 1:].reshape(4, -1)
    H[i, j] = H[j, i] = (pp - pm - mp + mm) / (4 * h * h)
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise NoConvergence(
            "tilt objective is not convex at the reference plane") from None
    Li = np.linalg.solve(L, np.eye(m))
    return Li.T @ Li


def _quasi_newton(objective, m: int) -> np.ndarray:
    """Quasi-Newton minimizer of the objective over R^m from the origin.

    The objective maps a stack of points to their values.  The search
    stops at the origin when its gradient is at most 1e-12 in every
    component; otherwise the first inverse Hessian comes from
    _inverse_hessian and every step is one stencil call at x + p, with
    p = -H^-1 g.  A full step that fails the Armijo test is backtracked
    on the ladder x + 2^-k p (k = 1..24) in one call, and the first rung
    that passes gets one more stencil call; each accepted step updates
    H^-1 by BFGS.  The search ends once a step lowers the value by no
    more than four ulps, or once the Newton decrement g H^-1 g falls that
    low before a failed full step (or when no rung passes, or after
    SEARCH_STEPS steps); the certificate judges the point it returns.
    """
    x = np.zeros(m)
    f, g = _value_gradient(objective, x)
    if np.max(np.abs(g)) <= 1e-12:
        return x
    Hi = _inverse_hessian(objective, x)
    roundoff = 4.0 * np.finfo(float).eps
    for _ in range(SEARCH_STEPS):
        p = -Hi @ g
        slope = float(g @ p)
        fn, gn = _value_gradient(objective, x + p)
        step = p
        if not fn <= f + ARMIJO * slope:
            if -slope <= roundoff * abs(f):
                break
            fl = objective(x + LADDER[:, None] * p)
            ok = np.flatnonzero(fl <= f + ARMIJO * LADDER * slope)
            if ok.size == 0:
                break
            step = LADDER[ok[0]] * p
            fn, gn = _value_gradient(objective, x + step)
        y = gn - g
        sy = float(step @ y)
        if sy > 0:
            A = np.eye(m) - np.outer(step, y) / sy
            Hi = A @ Hi @ A.T + np.outer(step, step) / sy
        x = x + step
        drop, f, g = f - fn, fn, gn
        if np.max(np.abs(g)) <= 1e-12 or drop <= roundoff * abs(f):
            break
    return x


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
    descent direction the quasi-Newton search failed to follow.
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
    spanning directions; minimization is the quasi-Newton search of
    _quasi_newton on the excess scaled by its reference-plane value,
    with central-difference gradients, and a tilt that fails the
    certificate below raises NoConvergence.  The raw excess is a
    one-row cylindrical_excess call on the reference plane; a cone that
    escapes that plane's cylinder raises SupportEscapesCylinder, and a
    raw excess of PRE_EXCESS or more is refused with ExcessTooLarge,
    both before the search starts.  Each search step stacks the tilt
    with its 4n gradient neighbours, the starting Hessian its
    1 + 4n + 4n(2n - 1) stencil rows, and the certificate its 8n
    neighbours, so each costs one cylindrical_excess call.

    In codimension two the mass norm carries an absolute Pfaffian term,
    so the excess is only piecewise smooth in the tilt and its minima
    generically sit at kink vertices: tilting out of the cone's tangent
    alignment switches the Pfaffian on at |t| rate, and the vertex where
    it vanishes is exactly the minimizer.  The search still converges
    there, since its gradient quotients see the kink smoothed over the
    gradient step, but a gradient test alone cannot certify such a
    point, because central differences cancel across an even kink.  The
    certificate therefore has two parts: the central finite-difference
    gradient must fall below max(GRAD_TOL, GRAD_REL * raw excess), which
    pins down the smooth directions, and every one-sided axis slope at
    the returned tilt must be nonnegative to the same tolerance, which
    pins down the kinked ones.  The relative gradient floor matters for
    stiff profiles whose curvature turns roundoff-level tilt error into
    gradient units.
    """
    n = curve.n
    vals, escaped = cylindrical_excess(curve,
                                       standard_plane(2 + n).basis()[None])
    if escaped[0]:
        raise SupportEscapesCylinder(
            "cone ray exits the reference plane's cylinder outside "
            f"|x| = {ESCAPE_FACTOR}")
    raw = float(vals[0])
    if raw >= PRE_EXCESS:
        raise ExcessTooLarge(
            f"excess {raw:.3f} against the reference plane is too large "
            "to start the tilt search")

    scale = max(raw, 1e-16)
    tol = max(GRAD_TOL, GRAD_REL * raw)
    v = _quasi_newton(lambda V: _tilt_objective(curve, V) / scale, 2 * n)
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
    the cylinder angle fails to advance monotonically, and Undersampled
    when the kept Fourier modes miss more than TAIL_TOL of the regraphed
    profile's L2 mass.

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
        r2 = rowdot(u, u)
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
    series = analyze(prof, curve.Q)
    series = _trim_series(series)
    return WindingCurve(series, rho=new_rho)


def _trim_series(series: FourierSeries) -> FourierSeries:
    """Zero every mode whose coefficients are all at or below 1e-13.

    The tail above the top mode left is cut, and the interior modes at
    that floor become exact zeros.  A regraphed single-mode curve keeps
    only roundoff in its other modes, so its series then has one live
    mode, which is all the competitor evaluates.
    """
    alpha = series.alpha.copy()
    beta = series.beta.copy()
    quiet = np.maximum(np.abs(alpha[1:]).max(axis=1, initial=0.0),
                       np.abs(beta).max(axis=1, initial=0.0)) <= 1e-13
    alpha[1:][quiet] = 0.0
    beta[quiet] = 0.0
    keep = series.max_active_frequency(1e-13)
    return FourierSeries(series.Q, series.n, alpha[:keep + 1], beta[:keep])


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
    proj = rownorm(curve.jet(probe)[0] @ plane.basis())
    if float(np.min(proj)) <= rho2:
        raise NotGraph("inner cylinder reaches past the curve")
    return Competitor(extension=disk, cylinder_radius=rho2)


def epiperimetric_gap(curve: WindingCurve,
                      lip_max: float = 0.1) -> EpiperimetricVerdict:
    """Compare the cone over the curve with its harmonic competitor.

    PASS means the competitor gap is at most (1 - EPS_TARGET) times the
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
        epsilon13=float(eps13), passed=bool(ratio <= 1.0 - EPS_TARGET),
        raw_excess=float(report.raw_excess),
        optimal_excess=float(report.excess))


def mode_ratio(a: float) -> float:
    """Linearized competitor-to-cone gap ratio of a single mode at i/Q = a."""
    return 2.0 * a / (1.0 + a * a)
