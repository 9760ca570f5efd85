"""Cylindrical excess, optimal planes and harmonic-extension competitors.

The excess of the cone over a winding curve against a plane tau is

    E(tau) = 1/2 * integral over the unit cylinder of |T(x) - tau|^2 d||T||

with |.| the mass norm on two-vectors.  Because cone tangents are constant
along rays, E reduces to a single periodic integral in the curve parameter
and the whole pipeline (optimal tilt, regraphing on a smaller cylinder,
harmonic extension inside it) stays one-dimensional except for the final
surface masses.  The plane-independent part of that integral is the
curve's cone tangent table (``WindingCurve.cone_tangents``); the regraph's
probe and the cone's cylinder mass read its trace table.  The excess
kernel takes a whole stack of tilted planes, so each step of the
quasi-Newton tilt search with its finite-difference gradient, its starting
Hessian, its backtracking ladder and the final certificate with all its
one-sided probes each cost one projection, one escape test and one batch
of mass norms; one stencil at the reference plane gives the raw excess,
the search's start and, if the search stays (as it does on a start
gradient within the quotient's roundoff), its certificate.

A plane whose cylinder the cone leaves lies outside White's comparison
(Duke 1983), so any plane of a stack that lets a cone ray escape refuses
the curve with SupportEscapesCylinder: the excess is never scored there.

Gap bookkeeping: both the cone and the competitor are compared to the flat
Q-disk inside the optimal plane's cylinder of radius CYL_RATIO; their
difference quotient is the achieved decay factor.  A flat (or purely
tilted) curve makes both gaps vanish and the ratio is defined as 0.
"""

from dataclasses import dataclass

import numpy as np

from .currents import (CYL_RATIO, OMEGA2, ParamSurface, WindingCurve,
                       infinite_cone_cylinder_mass)
from .errors import (ExcessTooLarge, NoConvergence, NotGraph,
                     SupportEscapesCylinder)
from .fourier import FourierSeries, analyze, harmonic_extension
from .geom import (Plane2, index_pairs, orthonormal_pairs, rowdot, rownorm,
                   twovector_mass_norm, wedge)
from .quadrature import trapezoid

ESCAPE_FACTOR = 2.0
GAP_FLOOR = 1e-13
EPS_TARGET = 1e-2
GRAD_TOL = 1e-8
GRAD_REL = 1e-5
PRE_EXCESS = 0.1
REGRAPH_PASSES = 12
GRAD_STEP = 1e-6
GRAD_FLOOR = 8.0 * np.finfo(float).eps / GRAD_STEP
HESS_STEP = 1e-4
ARMIJO = 1e-4
CERT_STEPS = (1e-5, GRAD_STEP)
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

    Gaps are masses minus Q * pi * R^2, both measured inside the optimal
    plane's cylinder of the competitor's radius R; the ratio is competitor
    gap over cone gap, and ``linear_ratio`` is its leading order L in the
    regraphed profile.
    """

    cone_gap: float
    competitor_gap: float
    ratio: float
    passed: bool
    raw_excess: float
    optimal_excess: float
    linear_ratio: float


def cylindrical_excess(curve: WindingCurve, B: np.ndarray) -> np.ndarray:
    """Excess of the infinite cone over the curve in K planes' unit cylinders.

    ``B`` is a (K, d, 2) stack of orthonormal plane bases.  The periodic
    integral runs over the curve's M sample angles.  A cone ray escapes
    when it meets the cylinder wall only outside the ball of radius
    ESCAPE_FACTOR; any plane of the stack that a ray escapes raises
    SupportEscapesCylinder.  Returns the K excesses.
    """
    z, znorm, speed, tangent = curve.cone_tangents
    proj = rownorm(z @ B)
    worst = np.max(znorm / np.maximum(proj, 1e-300), axis=-1)
    if np.any(worst > ESCAPE_FACTOR):
        raise SupportEscapesCylinder(
            f"cone ray exits a plane's cylinder outside |x| = {ESCAPE_FACTOR}")
    diff = tangent - wedge(B[..., 0], B[..., 1])[:, None]
    dist2 = twovector_mass_norm(diff) ** 2
    vals = dist2 * speed / proj ** 2
    return 0.25 * np.sum(vals, axis=-1) * (curve.period / curve.M)


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
    """Excess of each tilt in the stack V, one cylindrical_excess call."""
    return cylindrical_excess(curve, _tilt_bases(V, curve.n))


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
    i, j = index_pairs(m)
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


def _quasi_newton(objective, f: float, g: np.ndarray) -> np.ndarray:
    """Quasi-Newton minimizer of the objective from the origin.

    The objective maps a stack of points to their values; f and g are its
    value and GRAD_STEP central gradient at the origin.  The search
    stays at the origin when g is at most GRAD_FLOOR in every component,
    the quotient's roundoff floor: a 16-ulp difference of the scaled
    value over 2 GRAD_STEP.  Otherwise the first inverse Hessian comes from
    _inverse_hessian and every step is one stencil call at x + p, with
    p = -H^-1 g.  A full step that fails the Armijo test is backtracked
    on the ladder x + 2^-k p (k = 1..24) in one call, and the first rung
    that passes gets one more stencil call; each accepted step updates
    H^-1 by BFGS.  The search ends once a step lowers the value by no
    more than four ulps or leaves g at most 1e-12, or once the Newton
    decrement g H^-1 g falls four ulps low before a failed full step (or
    when no rung passes, or after SEARCH_STEPS steps); the certificate
    judges the point it returns.
    """
    m = g.size
    x = np.zeros(m)
    if np.max(np.abs(g)) <= GRAD_FLOOR:
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


def _certificate(f: np.ndarray):
    """Value, central-gradient norm and steepest one-sided slope at v.

    ``f`` holds the objective values on _stencil(v, CERT_STEPS): v and
    its axis neighbours at steps 1e-5 and 1e-6.  The
    gradient is the 1e-5 central quotient.  The slope is the most negative
    (f(v +- t e_k) - f(v)) / t over both steps: an even kink cancels out
    of central differences, so a point where the objective descends at
    |t| rate on both sides of some axis reads as a zero gradient, while
    the one-sided slopes recover it.  Every slope nonnegative means v is a
    minimum of the piecewise-smooth objective; a negative slope is a
    descent direction the quasi-Newton search failed to follow.
    """
    m = (f.size - 1) // 4
    f0 = f[0]
    side = f[1:].reshape(2, 2, m)
    gnorm = np.linalg.norm((side[0, 0] - side[0, 1]) / (2 * 1e-5))
    slopes = (side - f0) / np.array(CERT_STEPS)[:, None, None]
    return float(f0), float(gnorm), float(np.min(slopes))


def optimal_plane(curve: WindingCurve) -> ExcessReport:
    """Tilt the reference plane to a certified minimum of the excess.

    The plane is parametrized by the 2n-dimensional graph tilt of the two
    spanning directions; minimization is the quasi-Newton search of
    _quasi_newton on the excess scaled by its reference-plane value,
    with central-difference gradients, and a tilt that fails the
    certificate below raises NoConvergence.  One cylindrical_excess
    call on the reference stencil _stencil(0, CERT_STEPS), the untilted
    plane and its 8n axis neighbours, holds every value read there.  Row
    0 is the raw excess, and a raw excess of PRE_EXCESS or more is
    refused with ExcessTooLarge before the search starts.  Row 0 and the
    +-GRAD_STEP rows, divided by the scale, give the search its start
    value and gradient.  A search that stays at the origin is certified
    on the same stencil, one that moves on the stencil at its tilt.  A
    cone that escapes the cylinder of any plane evaluated on the way is
    refused with SupportEscapesCylinder, as cylindrical_excess raises it;
    the search never scores such a plane.  Each search step stacks the
    tilt with its 4n gradient neighbours and the starting Hessian its
    1 + 4n + 4n(2n - 1) stencil rows, so each costs one call too.

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
    n, m = curve.n, 2 * curve.n
    f = _tilt_objective(curve, _stencil(np.zeros(m), CERT_STEPS))
    raw = float(f[0])
    if raw >= PRE_EXCESS:
        raise ExcessTooLarge(
            f"excess {raw:.3f} against the reference plane is too large "
            "to start the tilt search")

    scale = max(raw, 1e-16)
    tol = max(GRAD_TOL, GRAD_REL * raw)
    start = f / scale
    grad = (start[1 + 2 * m:1 + 3 * m] - start[1 + 3 * m:]) / (2 * GRAD_STEP)
    v = _quasi_newton(lambda V: _tilt_objective(curve, V) / scale,
                      start[0], grad)
    if v.any():
        f = _tilt_objective(curve, _stencil(v, CERT_STEPS))
    fval, gnorm, descent = _certificate(f)
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


def regraph_over_plane(curve: WindingCurve, plane: Plane2) -> FourierSeries:
    """The profile of the cone over the curve on a cylinder around a plane.

    Intersects the (infinite) cone with the cylinder of radius CYL_RATIO
    around the plane and resamples the trace at the curve's M uniform
    cylinder angles, expressed in the plane's frame.  Returns the trace's
    profile, the same at every radius of a cone, as its Fourier series
    trimmed by ``_trim_series``.  Raises NotGraph when the cylinder is not
    strictly inside the curve (checked first, so that a NaN angle rate on
    the plane's axis cannot pass) or when the cylinder angle fails to
    advance monotonically, and Undersampled when the kept Fourier modes
    miss more than TAIL_TOL of the regraphed profile's L2 mass.

    Both checks probe the curve's trace table.  The resampling is a Newton
    solve for the curve angle of each cylinder angle, whose first pass
    reads the probe at the M targets, its rows ::4; it stops once no step
    exceeds a few ulps of the period (one or two passes on every curve
    tried) and gives up after REGRAPH_PASSES.
    """
    F = plane.frame()

    def angle_data(theta, x, dx):
        y = x @ F
        dy = dx @ F
        u = y[..., :2]
        du = dy[..., :2]
        r2 = rowdot(u, u)
        psi = np.arctan2(u[..., 1], u[..., 0]) - np.mod(theta, 2 * np.pi)
        psi = np.mod(psi + np.pi, 2 * np.pi) - np.pi
        phi = theta + psi
        dphi = (u[..., 0] * du[..., 1] - u[..., 1] * du[..., 0]) / r2
        return phi, dphi, y, r2

    m = curve.M
    probe = trapezoid(4 * m, 0.0, curve.period)[0]
    phi, dphi, _, r2 = angle_data(probe, *curve.trace_table)
    if np.min(r2) <= CYL_RATIO ** 2:
        raise NotGraph("inner cylinder reaches past the curve")
    if np.min(dphi) <= 0:
        raise NotGraph(
            "curve is not a cylinder graph over the requested plane")

    theta = target = probe[::4]
    phi, dphi = phi[::4], dphi[::4]
    step_tol = 4.0 * np.finfo(float).eps * curve.period
    for _ in range(REGRAPH_PASSES):
        step = (phi - target) / dphi
        theta = theta - step
        phi, dphi, y, r2 = angle_data(theta, *curve.jet(theta))
        if float(np.max(np.abs(step))) <= step_tol:
            break
    if float(np.max(np.abs(phi - target))) > 1e-10:
        raise NoConvergence("cylinder-angle resampling did not converge")
    prof = y[..., 2:] / np.sqrt(r2)[:, None]
    return _trim_series(analyze(prof, curve.Q))


def _trim_series(series: FourierSeries) -> FourierSeries:
    """Zero every mode whose coefficients are all at or below 1e-13.

    The tail above the top mode left is cut, and the interior modes at
    that floor become exact zeros.  This is the library's one roundoff
    cut: a regraphed single-mode curve keeps only roundoff in its other
    modes, so its series then has one live mode, which is all the
    competitor evaluates and all its angle count resolves.
    """
    alpha = series.alpha.copy()
    beta = series.beta.copy()
    quiet = np.maximum(np.abs(alpha[1:]).max(axis=1, initial=0.0),
                       np.abs(beta).max(axis=1, initial=0.0)) <= 1e-13
    alpha[1:][quiet] = 0.0
    beta[quiet] = 0.0
    loud = np.flatnonzero(~quiet)
    keep = int(loud[-1]) + 1 if loud.size else 0
    return FourierSeries(series.Q, series.n, alpha[:keep + 1], beta[:keep])


def build_competitor(curve: WindingCurve, plane: Plane2, lip_max: float = 0.1
                     ) -> tuple[ParamSurface, FourierSeries]:
    """The epiperimetric competitor for the cone over the curve, and the
    regraphed profile that it extends.

    The cone is regraphed on the epi cylinder, radius CYL_RATIO around the
    plane, which the curve must wind around strictly outside (NotGraph
    otherwise); every curve's regraphed profile, grid or random, must be
    Lipschitz below ``lip_max`` (LipschitzTooLarge otherwise).
    The regraph's trimmed profile goes straight to the harmonic
    extension: the competitor is the graph over the plane whose boundary
    is the cone's trace on that cylinder, written in the coordinates of
    ``plane.frame()``: the first two span the plane and the rest are
    normal to it.  Those differ from the ambient coordinates by a rigid
    motion, which leaves the mass, the one quantity the gap reads,
    unchanged.  Outside the cylinder the competitor agrees with the cone,
    so only the inner pieces enter the gap comparison.
    """
    profile = regraph_over_plane(curve, plane)
    return harmonic_extension(profile, CYL_RATIO, lip_max=lip_max), profile


def epiperimetric_gap(curve: WindingCurve,
                      lip_max: float = 0.1) -> EpiperimetricVerdict:
    """Compare the cone over the curve with its harmonic competitor.

    PASS means the competitor gap is at most (1 - EPS_TARGET) times the
    cone gap; a cone gap below the floor counts as already-flat and
    passes with ratio 0.  The verdict also carries L, the linear ratio of
    the regraphed profile.
    """
    report = optimal_plane(curve)
    plane = report.plane
    comp, profile = build_competitor(curve, plane, lip_max=lip_max)
    ref = curve.Q * OMEGA2 * CYL_RATIO ** 2
    cone_gap = infinite_cone_cylinder_mass(curve, plane.basis()) - ref
    comp_gap = comp.mass() - ref
    floor = GAP_FLOOR * max(ref, 1.0)
    if cone_gap <= floor:
        ratio = 0.0
    else:
        ratio = comp_gap / cone_gap
    return EpiperimetricVerdict(
        cone_gap=float(cone_gap), competitor_gap=float(comp_gap),
        ratio=float(ratio), passed=bool(ratio <= 1.0 - EPS_TARGET),
        raw_excess=float(report.raw_excess),
        optimal_excess=float(report.excess),
        linear_ratio=linear_ratio(profile))


def linear_ratio(series: FourierSeries) -> float:
    """Leading order L = sum 2k p_i / sum (1 + k^2) p_i of the gap ratio.

    The sums run over the live modes i of the profile, at frequency
    k = i/Q and with p_i = |alpha_i|^2 + |beta_i|^2: to leading order the
    competitor's gap is its Dirichlet energy (1/2) pi Q rho^2 sum k p_i and
    the cone's gap is (1/4) pi Q rho^2 sum (1 + k^2) p_i.  One live mode
    gives mode_ratio(k); a profile with no live mode gives 0, the ratio
    of a flat cone.
    """
    i = series.live_modes
    if not i.size:
        return 0.0
    k = i / series.Q
    alpha, beta = series.alpha[i], series.beta[i - 1]
    p = rowdot(alpha, alpha) + rowdot(beta, beta)
    return float(2.0 * (k @ p) / ((1.0 + k * k) @ p))


def mode_ratio(a: float) -> float:
    """Linearized competitor-to-cone gap ratio of a single mode at i/Q = a."""
    return 2.0 * a / (1.0 + a * a)
