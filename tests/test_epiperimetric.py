"""Excess and competitor-gap tests.

Hand-computed oracles used below, all for the cone over a circle of
radius 1 carrying a single profile mode i with amplitude c at a = i/Q:

* excess against the horizontal plane: (pi Q / 4) c^2 (1 + a^2)
  plus O(c^4),
* competitor-to-cone gap ratio: 2a / (1 + a^2) plus O(c^2),
* a pure mode-Q profile is a tilt to second order, so the optimal
  plane absorbs the excess down to the c^4 scale.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

import tclab.epiperimetric as epi
from tclab.currents import ParamSurface, WindingCurve
from tclab.epiperimetric import (_certificate, build_competitor,
                                 cylindrical_excess, epiperimetric_gap,
                                 mode_ratio, optimal_plane,
                                 regraph_over_plane)
from tclab.errors import (ExcessTooLarge, NoConvergence, NotGraph,
                          ScenarioError, SupportEscapesCylinder,
                          Undersampled)
from tclab.fourier import FourierSeries, analyze
from tclab.geom import Plane2, orthonormal_pairs
from tclab.scenarios import (Scenario, flat_circle, random_epi_curve,
                             run_scenario, single_mode_curve)

from oracles import check_orthonormal_pairs, mapped_mass, standard_plane


def reference_excess(curve):
    """Excess against the reference plane, a one-row stack call."""
    vals, escaped = cylindrical_excess(
        curve, standard_plane(2 + curve.n).basis()[None])
    assert not escaped[0]
    return float(vals[0])


@pytest.mark.parametrize("Q,i,c", [(1, 2, 1e-2), (2, 3, 5e-3),
                                   (3, 4, 1e-2), (1, 3, 2e-2)])
def test_raw_excess_matches_quadratic_model(Q, i, c):
    curve = single_mode_curve(Q, i, c)
    raw = reference_excess(curve)
    a = i / Q
    pred = 0.25 * np.pi * Q * c * c * (1.0 + a * a)
    assert abs(raw - pred) <= 1e-3 * pred


def test_optimal_plane_absorbs_pure_mode_q():
    for Q in (1, 2):
        rep = optimal_plane(single_mode_curve(Q, Q, 1e-2))
        assert rep.raw_excess > 1e-5
        assert rep.excess < 1e-12


def test_optimal_plane_cannot_improve_other_modes():
    rep = optimal_plane(single_mode_curve(2, 5, 8e-3))
    assert rep.excess == pytest.approx(rep.raw_excess, rel=1e-12)


@pytest.mark.parametrize("Q,i", [(1, 2), (2, 3), (3, 4)])
def test_gap_ratio_matches_linearization(Q, i):
    verdict = epiperimetric_gap(single_mode_curve(Q, i, 1e-2))
    assert abs(verdict.ratio - mode_ratio(i / Q)) < 1e-4
    assert verdict.passed
    assert verdict.epsilon13 == pytest.approx(1.0 - verdict.ratio)


@pytest.mark.parametrize("make", [
    lambda: flat_circle(1),
    lambda: flat_circle(2),
    lambda: flat_circle(3),
    lambda: single_mode_curve(2, 2, 1e-3),
], ids=["flat1", "flat2", "flat3", "tilt"])
def test_already_flat_cone_passes_with_ratio_zero(make):
    # a flat circle, and a pure tilt once the search has found its plane,
    # leave a cone gap at the floor, where the gap counts as already flat
    curve = make()
    verdict = epiperimetric_gap(curve)
    ref = curve.Q * np.pi * epi.CYL_RATIO ** 2
    assert verdict.cone_gap <= epi.GAP_FLOOR * ref
    assert verdict.ratio == 0.0
    assert verdict.epsilon13 == 1.0
    assert verdict.passed


@lru_cache(maxsize=None)
def _ratio_error(Q, i, amp):
    """|ratio - 2a/(1 + a^2)| of the single-mode curve at a = i/Q."""
    verdict = epiperimetric_gap(single_mode_curve(Q, i, amp))
    return abs(verdict.ratio - mode_ratio(i / Q))


_SUBTRACTION = pytest.mark.xfail(
    strict=True,
    reason="both gaps are mass - Q pi R^2, an O(1) subtraction whose "
           "roundoff outgrows the amp^2 error below amp 1e-3")


@pytest.mark.parametrize("Q,i", [(1, 2), (2, 6)])
@pytest.mark.parametrize("amp", [
    1e-2,
    1e-3,
    pytest.param(1e-4, marks=_SUBTRACTION),
    pytest.param(1e-5, marks=_SUBTRACTION),
    pytest.param(1e-6, marks=_SUBTRACTION),
])
def test_single_mode_ratio_error_follows_amp_squared(Q, i, amp):
    # the ratio is linearized at amplitude 0, so its error is C amp^2;
    # C is the geometric mean of error / amp^2 at amp 1e-2 and 1e-3
    C = np.sqrt(_ratio_error(Q, i, 1e-2) / 1e-4
                * _ratio_error(Q, i, 1e-3) / 1e-6)
    assert _ratio_error(Q, i, amp) == pytest.approx(C * amp ** 2, rel=0.1)


def _mixture_curve():
    alpha = np.zeros((4, 2))
    beta = np.zeros((3, 2))
    alpha[2, 0] = 0.02
    alpha[3, 1] = 0.015
    beta[0, 1] = 0.01
    return WindingCurve(FourierSeries(Q=2, n=2, alpha=alpha, beta=beta))


def test_mixture_certifies_at_conical_minimum():
    # the mass norm's Pfaffian term kinks the tilt objective, so the
    # minimizer is a conical vertex; the tilt still absorbs the mode-Q
    # component exactly and the certified excess is the quadratic model
    # of the two leftover modes
    rep = optimal_plane(_mixture_curve())
    pred = 0.25 * np.pi * 2 * (0.015 ** 2 * (1 + 1.5 ** 2)
                               + 0.01 ** 2 * (1 + 0.5 ** 2))
    assert rep.excess == pytest.approx(pred, rel=1e-2)
    assert rep.excess < 0.4 * rep.raw_excess


def test_one_sided_probe_reads_descent_through_even_kink():
    # an even downward kink cancels out of central differences; the
    # probe must report the one-sided descent that gradient methods miss
    def f(V):
        return -np.abs(V[:, 0]) + V[:, 0] ** 2 + V[:, 1] ** 2

    _, _, worst = _certificate(f(epi._stencil(np.zeros(2), epi.CERT_STEPS)))
    assert worst == pytest.approx(-1.0, abs=1e-4)


def test_uncertified_tilt_raises(monkeypatch):
    # a search that stops where it started leaves the mode-Q tilt in the
    # excess, so the gradient test must refuse the untilted plane
    monkeypatch.setattr(epi, "_quasi_newton",
                        lambda objective, f, g: np.zeros(g.size))
    with pytest.raises(NoConvergence):
        optimal_plane(single_mode_curve(1, 1, 1e-2))


def test_indefinite_start_hessian_raises():
    # a saddle along the second axis: the stencil Hessian has a negative
    # eigenvalue, so there is no first inverse Hessian to start from
    def saddle(V):
        return V[:, 0] + V[:, 0] ** 2 - V[:, 1] ** 2

    with pytest.raises(NoConvergence, match="not convex"):
        epi._inverse_hessian(saddle, np.zeros(2))
    with pytest.raises(NoConvergence, match="not convex"):
        epi._quasi_newton(saddle, *epi._value_gradient(saddle, np.zeros(2)))
    # the same stencil inverts a convex quadratic's Hessian diag(2, 8)
    Hi = epi._inverse_hessian(lambda V: V[:, 0] ** 2 + 4 * V[:, 1] ** 2,
                              np.zeros(2))
    assert np.allclose(Hi, np.diag([0.5, 0.125]), rtol=1e-6, atol=1e-9)


def _bfgs_reference(curve):
    """scipy's BFGS minimizer of the same scaled tilt objective, with the
    same gradient stencil and gtol, as the search reference, and the
    excess there."""
    m = 2 * curve.n
    raw = reference_excess(curve)
    scale = max(raw, 1e-16)

    def scaled(x):
        f = epi._tilt_objective(curve, epi._stencil(x, (1e-6,))) / scale
        return f[0], (f[1:m + 1] - f[m + 1:]) / (2 * 1e-6)

    res = optimize.minimize(scaled, np.zeros(m), jac=True, method="BFGS",
                            options={"gtol": 1e-12, "maxiter": 400})
    return res.x, float(epi._tilt_objective(curve, res.x[None])[0])


@pytest.mark.parametrize("case", ["mixture"] + list(range(20)))
def test_search_matches_bfgs_reference(monkeypatch, case):
    # the kinked codimension-2 mixture and 20 seeded smooth draws: the
    # search certifies at the excess BFGS reaches, and each smooth search
    # stops within four kernel calls, the reference stencil that gives
    # its start value and gradient and at most three of its own
    calls = []
    search = epi._quasi_newton

    def counted(objective, f, g):
        def count(V):
            calls.append(len(V))
            return objective(V)
        return search(count, f, g)

    monkeypatch.setattr(epi, "_quasi_newton", counted)
    if case == "mixture":
        curve = _mixture_curve()
    else:
        curve = random_epi_curve(np.random.default_rng(case))
    rep = optimal_plane(curve)
    _, ref = _bfgs_reference(curve)
    assert abs(rep.excess - ref) <= 1e-12 * ref
    # both searches end within roundoff of the same minimum, so "not
    # above" holds up to a few ulps of the excess
    assert rep.excess <= ref * (1 + 8 * np.finfo(float).eps)
    if case != "mixture":
        assert 1 + len(calls) <= 4


@pytest.mark.xfail(
    strict=True,
    reason="the mass norm's |Pf| kink stalls both the search and BFGS "
           "above the mixture's minimum; ROADMAP item 1's smooth "
           "Euclidean excess removes the kink")
def test_search_reaches_mixture_kink_minimum():
    # a derivative-free polish from the BFGS tilt walks down the kink;
    # the certified excess must not sit above what the polish reaches
    curve = _mixture_curve()
    x, _ = _bfgs_reference(curve)
    res = optimize.minimize(
        lambda v: float(epi._tilt_objective(curve, v[None])[0]), x,
        method="Nelder-Mead", options={"xatol": 1e-14, "fatol": 1e-22})
    rep = optimal_plane(curve)
    assert rep.excess <= res.fun * (1 + 8 * np.finfo(float).eps)


@pytest.mark.parametrize("case", ["mixture", 0, 1, 2, 3])
def test_stacked_excess_rows_equal_one_row_calls_bit_for_bit(case):
    # optimal_plane reads the raw excess, the search's start and the
    # certificate off one stacked call, which changes no value only if
    # each row equals its plane called alone
    if case == "mixture":
        curve = _mixture_curve()
    else:
        curve = random_epi_curve(np.random.default_rng(case))
    n, m = curve.n, 2 * curve.n
    rng = np.random.default_rng(30)
    for V in (epi._stencil(np.zeros(m), epi.CERT_STEPS),
              epi._stencil(1e-2 * rng.standard_normal(m), epi.CERT_STEPS),
              3e-2 * rng.standard_normal((40, m))):
        vals, escaped = cylindrical_excess(curve, epi._tilt_bases(V, n))
        assert not escaped.any()
        for k in range(len(V)):
            one, _ = cylindrical_excess(curve, epi._tilt_bases(V[k:k + 1], n))
            assert vals[k] == one[0]
    # the untilted row is the reference plane exactly
    assert np.array_equal(epi._tilt_bases(np.zeros((1, m)), n)[0],
                          standard_plane(2 + n).basis())


@pytest.fixture
def kernel_rows(monkeypatch):
    """Row counts of the cylindrical_excess calls made through epi."""
    rows = []
    excess = epi.cylindrical_excess

    def counted(curve, bases):
        rows.append(len(bases))
        return excess(curve, bases)

    monkeypatch.setattr(epi, "cylindrical_excess", counted)
    return rows


@pytest.mark.parametrize("Q,i,c", [(2, 5, 8e-3), (3, 10, 1e-2)])
def test_search_at_reference_plane_makes_one_kernel_call(kernel_rows, Q, i,
                                                          c):
    # a grid curve with no tilt mode: the reference stencil gives the raw
    # excess, a zero start gradient and the certificate in one call
    curve = single_mode_curve(Q, i, c)
    rep = optimal_plane(curve)
    assert kernel_rows == [1 + 8 * curve.n]
    assert rep.raw_excess == reference_excess(curve)
    assert np.array_equal(rep.plane.basis(), standard_plane(3).basis())


def test_roundoff_start_gradient_keeps_the_search_at_the_origin(
        kernel_rows):
    # mode 2 over Q = 1 has no tilt mode, and its scaled start gradient
    # is the quotient's roundoff, between 1e-12 and the 16-ulp floor
    # 8 eps / GRAD_STEP: the search stays, and the reference stencil
    # certifies the raw excess in one call
    curve = single_mode_curve(1, 2, 1e-2)
    raw = reference_excess(curve)
    f = epi._tilt_objective(curve, epi._stencil(np.zeros(2),
                                                (epi.GRAD_STEP,))) / raw
    g = np.max(np.abs(f[1:3] - f[3:])) / (2 * epi.GRAD_STEP)
    assert epi.GRAD_FLOOR == 8.0 * np.finfo(float).eps / epi.GRAD_STEP
    assert 1e-12 < g <= epi.GRAD_FLOOR
    kernel_rows.clear()
    rep = optimal_plane(curve)
    assert kernel_rows == [1 + 8 * curve.n]
    assert rep.excess == rep.raw_excess == raw


def test_moving_search_starts_from_the_reference_stencil(kernel_rows):
    # a search that moves makes the reference stencil call first and
    # certifies on a stencil of its own last; the raw excess is the same
    # number a one-row call on the reference plane gives
    curve = _mixture_curve()
    rep = optimal_plane(curve)
    assert kernel_rows[0] == kernel_rows[-1] == 1 + 8 * curve.n
    assert len(kernel_rows) > 2
    assert rep.raw_excess == reference_excess(curve)


def test_tilt_search_builds_cone_data_once(monkeypatch):
    builds, evals = [0], [0]
    jet, excess = WindingCurve.jet, epi.cylindrical_excess

    def counted_jet(curve, theta):
        builds[0] += 1
        return jet(curve, theta)

    def counted_excess(curve, bases):
        evals[0] += len(bases)
        return excess(curve, bases)

    # a tilt mode plus a mode-3 bump, so the search has to move
    alpha = np.array([[0.0], [1e-2], [0.0], [5e-3]])
    curve = WindingCurve(FourierSeries(1, 1, alpha, np.zeros((3, 1))))
    # the search samples the curve only to build its cone data
    monkeypatch.setattr(WindingCurve, "jet", counted_jet)
    monkeypatch.setattr(epi, "cylindrical_excess", counted_excess)
    rep = optimal_plane(curve)
    assert rep.excess < rep.raw_excess
    assert evals[0] > 20
    assert builds[0] == 1


def _competitor_cases():
    """(curve, plane): a mode-6 curve over the reference plane in R^3, and
    a codimension-2 curve over a plane tilted in both normal directions."""
    alpha = np.zeros((7, 2))
    beta = np.zeros((6, 2))
    alpha[6, 0] = 1e-2
    beta[2, 1] = 5e-3
    tilted = WindingCurve(FourierSeries(2, 2, alpha, beta))
    return [(single_mode_curve(2, 6, 1e-2), standard_plane(3)),
            (tilted, epi._tilt_plane(np.array([2e-2, -1e-2, 1e-2, 3e-2]),
                                     2))]


def test_competitor_mass_is_the_ambient_mass():
    # the competitor is the disk graph in the plane's frame coordinates;
    # mapped into ambient coordinates by that rigid frame it keeps the
    # mass the gap reads
    curve, plane = _competitor_cases()[1]
    disk = build_competitor(curve, plane)
    F = plane.frame()
    want = mapped_mass(disk,
                       lambda y: np.broadcast_to(F, y.shape + F.shape[:1]),
                       (2 * disk.order[0], 2 * disk.order[1]))
    assert abs(disk.mass() - want) <= 1e-15 * want


@pytest.mark.parametrize("case", [0, 1], ids=["reference", "tilted"])
def test_competitor_mass_evaluates_each_node_once(monkeypatch, case):
    curve, plane = _competitor_cases()[case]
    ext = build_competitor(curve, plane)
    seen = {"points": 0, "partials": 0}

    def counted(name, fn):
        def wrapped(self, U, V):
            seen[name] += np.broadcast(np.asarray(U), np.asarray(V)).size
            return fn(self, U, V)
        return wrapped

    for name in seen:
        monkeypatch.setattr(ParamSurface, name,
                            counted(name, getattr(ParamSurface, name)))
    n0, n1 = ext.order
    # the fine frame and the coarse radial check; the angle check reads
    # every other node of the fine frame, and the area element reads the
    # partials alone, so no frame evaluates positions
    nodes = 2 * n0 * n1 + n0 * n1 // 2
    ext.mass()
    assert seen == {"points": 0, "partials": nodes}


def test_over_large_excess_is_a_lab_error():
    with pytest.raises(ExcessTooLarge):
        optimal_plane(single_mode_curve(1, 2, 0.5))


def test_huge_profile_escapes_cylinder():
    with pytest.raises(SupportEscapesCylinder):
        optimal_plane(single_mode_curve(1, 2, 3.0))


@pytest.mark.parametrize("n", [1, 2])
def test_tilt_stack_matches_each_plane(n):
    # each row of a stacked call is the excess of its own plane called
    # alone as a one-row stack, and a tilt steep enough to let cone rays
    # escape is flagged in its row alone
    rng = np.random.default_rng(7 + n)
    alpha = np.zeros((4, n))
    alpha[1, 0] = 1e-2
    alpha[3, n - 1] = 5e-3
    curve = WindingCurve(FourierSeries(1, n, alpha, np.zeros((3, n))))
    V = np.vstack([np.zeros(2 * n), 3e-2 * rng.standard_normal((4, 2 * n)),
                   np.full(2 * n, 10.0)])
    bases = epi._tilt_bases(V, n)
    # row k spans e_0 + (0, 0, V[k, :n]) and e_1 + (0, 0, V[k, n:]); the
    # steep last row also takes the second Gram-Schmidt pass
    u = np.hstack([np.tile([1.0, 0.0], (6, 1)), V[:, :n]])
    v = np.hstack([np.tile([0.0, 1.0], (6, 1)), V[:, n:]])
    check_orthonormal_pairs(bases, u, v)
    vals, escaped = cylindrical_excess(curve, bases)
    assert escaped.tolist() == [False] * 5 + [True]
    for k in range(6):
        one = orthonormal_pairs(u[k:k + 1], v[k:k + 1])
        ref, out = cylindrical_excess(curve, one)
        assert out[0] == escaped[k]
        if k < 5:
            assert vals[k] == pytest.approx(ref[0], rel=1e-14, abs=0.0)
        else:
            assert np.isnan(vals[k]) and np.isnan(ref[0])
    objective = epi._tilt_objective(curve, V)
    assert np.array_equal(objective[:5], vals[:5])
    assert objective[5] == 1e6 + np.sum(V[5] ** 2)


def test_regraph_over_reference_plane_keeps_the_profile():
    # the cone is dilation invariant, so regraphing it over its own
    # plane onto half the cylinder gives the curve scaled by one half,
    # whose profile is the curve's own
    curve = single_mode_curve(1, 2, 5e-3)
    back = regraph_over_plane(curve, standard_plane(3), 0.5)
    theta = np.linspace(0.0, curve.period, 50)
    assert np.allclose(back.jet(theta)[0], curve.series.jet(theta)[0],
                       atol=2e-12)


def test_regraph_refuses_a_cylinder_reaching_past_the_curve():
    # the curve must lie strictly outside the new cylinder: its own
    # cylinder touches it everywhere, and over a tilted plane the
    # projected curve comes closest at its minimum |u|
    curve = single_mode_curve(1, 2, 5e-3)
    for rho in (1.0, 1.5):
        with pytest.raises(NotGraph, match="reaches past the curve"):
            regraph_over_plane(curve, standard_plane(3), rho)
    plane = epi._tilt_plane(np.array([0.3, 0.0]), 1)
    theta = np.arange(4 * curve.M) * (curve.period / (4 * curve.M))
    near = float(np.min(np.linalg.norm(
        curve.jet(theta)[0] @ plane.basis(), axis=-1)))
    regraph_over_plane(curve, plane, near * (1 - 1e-9))
    with pytest.raises(NotGraph, match="reaches past the curve"):
        regraph_over_plane(curve, plane, near * (1 + 1e-9))


@pytest.mark.parametrize("tilted", [False, True],
                         ids=["reference", "tilted"])
def test_regraph_smaller_cylinder_stays_on_cone(tilted):
    # each regraphed point 0.5 (cos phi, sin phi, g(phi)) in the plane's
    # frame lies on a ray of the cone: scaled onto the unit cylinder it
    # is the curve's point at the angle of its projection
    curve = single_mode_curve(2, 3, 0.05)
    plane = (epi._tilt_plane(np.array([0.03, -0.02]), 1) if tilted
             else standard_plane(3))
    back = regraph_over_plane(curve, plane, 0.5)
    assert (back.Q, back.n) == (curve.Q, curve.n)
    phi = np.linspace(0.0, back.period, 64, endpoint=False)
    y = np.concatenate([np.cos(phi)[:, None], np.sin(phi)[:, None],
                        back.jet(phi)[0]], axis=1)
    x = 0.5 * y @ plane.frame().T
    r = np.linalg.norm(x[:, :2], axis=1)
    turn = np.arctan2(x[:, 1], x[:, 0]) - phi
    theta = phi + np.mod(turn + np.pi, 2 * np.pi) - np.pi
    assert np.allclose(x / r[:, None], curve.jet(theta)[0], atol=1e-12)


def test_regraph_refuses_a_profile_past_the_kept_modes():
    # analyze keeps 64 Q modes, so a mode-100 profile regraphed onto half
    # its cylinder lies wholly in the discarded tail; a scenario reports
    # that as its own error
    curve = single_mode_curve(1, 100, 1e-4)
    with pytest.raises(Undersampled, match="truncation tail"):
        regraph_over_plane(curve, standard_plane(3), 0.5)
    sc = Scenario(name="high", kind="epi", seed=0,
                  params={"Q": [1], "ratios": [100], "amplitudes": [1e-4]})
    with pytest.raises(ScenarioError, match="truncation tail"):
        run_scenario(sc)


def _regraph_cases():
    """(curve, plane) pairs: each Q with a tilt mode and a higher mode,
    against the reference plane and against a tilted one."""
    cases = []
    for Q, n in ((1, 1), (2, 2), (3, 1)):
        alpha = np.zeros((2 * Q + 2, n))
        beta = np.zeros((2 * Q + 1, n))
        alpha[Q, 0] = 1e-2
        beta[2 * Q, n - 1] = 4e-3
        alpha[2 * Q + 1, 0] = -2e-3
        curve = WindingCurve(FourierSeries(Q, n, alpha, beta))
        tilt = np.linspace(-2e-2, 3e-2, 2 * n)
        cases.append((curve, standard_plane(2 + n)))
        cases.append((curve, epi._tilt_plane(tilt, n)))
    return cases


def _reference_regraph_series(curve, plane, new_rho):
    """The regraph with a fixed 12 Newton passes."""
    F = plane.frame()

    def angle_data(theta):
        y, dy = (a @ F for a in curve.jet(theta))
        u, du = y[..., :2], dy[..., :2]
        r2 = np.sum(u * u, axis=-1)
        psi = np.arctan2(u[..., 1], u[..., 0]) - np.mod(theta, 2 * np.pi)
        psi = np.mod(psi + np.pi, 2 * np.pi) - np.pi
        dphi = (u[..., 0] * du[..., 1] - u[..., 1] * du[..., 0]) / r2
        return theta + psi, dphi, y, r2

    target = np.arange(curve.M) * (curve.period / curve.M)
    theta = target.copy()
    for _ in range(12):
        phi, dphi, _, _ = angle_data(theta)
        theta = theta - (phi - target) / dphi
    _, _, y, r2 = angle_data(theta)
    prof = (new_rho / np.sqrt(r2))[:, None] * y[..., 2:] / new_rho
    return epi._trim_series(analyze(prof, curve.Q))


def test_trim_series_zeroes_quiet_modes_and_cuts_the_tail():
    alpha = np.zeros((9, 2))
    beta = np.zeros((8, 2))
    alpha[0] = (1e-15, 0.0)      # the constant term is not a mode
    alpha[2, 0] = 1e-13          # at the floor: zeroed
    alpha[3, 1] = -2e-13         # above it: kept
    beta[3, 0] = -5e-14          # mode 4, below it: zeroed
    alpha[5, 0] = 1e-2           # the top mode
    alpha[6:, 1] = 1e-14         # the tail: cut
    beta[6:, 0] = 1e-13
    trimmed = epi._trim_series(FourierSeries(2, 2, alpha, beta))
    assert trimmed.nmodes == 5
    assert trimmed.live_modes.tolist() == [3, 5]
    want = alpha[:6].copy()
    want[2, 0] = 0.0
    assert np.array_equal(trimmed.alpha, want)
    assert not np.any(trimmed.beta)
    quiet = epi._trim_series(FourierSeries(1, 1, [[0.5], [1e-13]], [[0.0]]))
    assert quiet.nmodes == 0 and quiet.alpha.tolist() == [[0.5]]


def test_regraphed_single_mode_curve_has_one_live_mode(monkeypatch):
    curve = single_mode_curve(3, 12, 1e-2)
    plane = standard_plane(3)
    assert regraph_over_plane(curve, plane, 0.5).live_modes.tolist() == [12]
    # the untrimmed regraph holds roundoff in every other kept mode
    monkeypatch.setattr(epi, "_trim_series", lambda series: series)
    raw = regraph_over_plane(curve, plane, 0.5)
    assert raw.live_modes.size > 1
    peak = np.maximum(np.abs(raw.alpha[1:]).max(axis=1),
                      np.abs(raw.beta).max(axis=1))
    assert (np.flatnonzero(peak > 1e-13) + 1).tolist() == [12]


def test_regraph_matches_twelve_pass_reference():
    for curve, plane in _regraph_cases():
        got = regraph_over_plane(curve, plane, 0.5)
        want = _reference_regraph_series(curve, plane, 0.5)
        assert got.alpha.shape == want.alpha.shape
        assert np.all(np.abs(got.alpha - want.alpha) <= 1e-14)
        assert np.all(np.abs(got.beta - want.beta) <= 1e-14)


def test_regraph_newton_stops_at_convergence(monkeypatch):
    sizes = []
    jet = WindingCurve.jet

    def counted(self, theta):
        sizes.append(np.size(theta))
        return jet(self, theta)

    monkeypatch.setattr(WindingCurve, "jet", counted)
    for curve, plane in _regraph_cases():
        # a fresh curve, whose trace table is not made yet
        curve = WindingCurve(curve.series)
        sizes.clear()
        regraph_over_plane(curve, plane, 0.5)
        # the trace table at 4M angles is the probe, and the first pass
        # starts on its rows ::4; then one evaluation per Newton pass
        assert sizes[0] == 4 * curve.M
        assert sizes[1:] == [curve.M] * (len(sizes) - 1)
        assert 1 <= len(sizes) - 1 <= 4


@pytest.mark.parametrize("case", [0, 1], ids=["reference", "tilted"])
def test_build_competitor_samples_the_curve_only_in_the_regraph(monkeypatch,
                                                                 case):
    # the regraph's own probe checks that the inner cylinder stays inside
    # the curve, so the competitor takes no samples of its own
    curve, plane = _competitor_cases()[case]
    outside = [0]
    inside = [False]
    jet, regraph = WindingCurve.jet, epi.regraph_over_plane

    def counted_jet(self, theta):
        if self is curve and not inside[0]:
            outside[0] += 1
        return jet(self, theta)

    def counted_regraph(*args):
        inside[0] = True
        try:
            return regraph(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(WindingCurve, "jet", counted_jet)
    monkeypatch.setattr(epi, "regraph_over_plane", counted_regraph)
    build_competitor(curve, plane)
    assert outside[0] == 0


@pytest.mark.parametrize("quiet", [0.0, 1e-12], ids=["mode 6", "mode 9"])
def test_sample_counts_resolve_exactly_the_live_modes(monkeypatch, quiet):
    # the top live mode sizes the curve's M, the Lipschitz grid and the
    # competitor's angle count T, however small its coefficient: a mode 9
    # at 1e-12 over a Q = 2 mode 6 counts, and the regraph keeps it
    alpha = np.zeros((10, 1))
    alpha[6, 0] = 1e-2
    alpha[9, 0] = quiet
    series = FourierSeries(2, 1, alpha, np.zeros((9, 1)))
    top = 9 if quiet else 6
    assert series.top_mode == top
    curve = WindingCurve(series)
    assert curve.M == max(256, 16 * 2 * top)
    sizes = []
    jet = FourierSeries.jet

    def counted(self, theta):
        sizes.append(np.size(theta))
        return jet(self, theta)

    monkeypatch.setattr(FourierSeries, "jet", counted)
    series.lipschitz()
    assert sizes == [16 * 2 * top]
    competitor = build_competitor(curve, standard_plane(3))
    assert competitor.order == (32, 8 * top)


def test_gap_releases_the_curve_sample_tables():
    # a run holds every curve it certifies; their sample tables go once
    # the certificate has read them
    curve = single_mode_curve(2, 5, 8e-3)
    epiperimetric_gap(curve)
    assert not {"trace_table", "_cone_tangent_data"} & set(vars(curve))


def test_regraph_rejects_orthogonal_plane():
    curve = single_mode_curve(2, 3, 0.05)
    e = np.eye(3)
    with pytest.raises(NotGraph):
        regraph_over_plane(curve, Plane2(e[0], e[2]), 1.0)


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_random_curves_beat_the_cone(seed):
    curve = random_epi_curve(np.random.default_rng(seed))
    verdict = epiperimetric_gap(curve)
    assert verdict.passed
    assert 0.0 <= verdict.ratio <= 0.95
