"""Excess and competitor-gap tests.

Hand-computed oracles used below, all for the cone over a circle of
radius 1 carrying a single profile mode i with amplitude c at a = i/Q:

* excess against the horizontal plane: (pi Q / 4) c^2 (1 + a^2)
  plus O(c^4),
* competitor-to-cone gap ratio: 2a / (1 + a^2) plus O(c^2),
* a pure mode-Q profile is a tilt to second order, so the optimal
  plane absorbs the excess down to the c^4 scale.
"""

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
                          SupportEscapesCylinder)
from tclab.fourier import FourierSeries, analyze
from tclab.geom import Plane2, plane_from_spanning, standard_plane
from tclab.scenarios import random_epi_curve, single_mode_curve

from oracles import check_orthonormal_pairs, mapped_mass


@pytest.mark.parametrize("Q,i,c", [(1, 2, 1e-2), (2, 3, 5e-3),
                                   (3, 4, 1e-2), (1, 3, 2e-2)])
def test_raw_excess_matches_quadratic_model(Q, i, c):
    curve = single_mode_curve(Q, i, c)
    raw = cylindrical_excess(curve, standard_plane(2 + curve.n))
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


def test_mixture_certifies_at_conical_minimum():
    # the mass norm's Pfaffian term kinks the tilt objective, so the
    # minimizer is a conical vertex; the tilt still absorbs the mode-Q
    # component exactly and the certified excess is the quadratic model
    # of the two leftover modes
    alpha = np.zeros((4, 2))
    beta = np.zeros((3, 2))
    alpha[2, 0] = 0.02
    alpha[3, 1] = 0.015
    beta[0, 1] = 0.01
    curve = WindingCurve.from_fourier(FourierSeries(Q=2, n=2, alpha=alpha,
                                                    beta=beta))
    rep = optimal_plane(curve)
    pred = 0.25 * np.pi * 2 * (0.015 ** 2 * (1 + 1.5 ** 2)
                               + 0.01 ** 2 * (1 + 0.5 ** 2))
    assert rep.excess == pytest.approx(pred, rel=1e-2)
    assert rep.excess < 0.4 * rep.raw_excess


def test_one_sided_probe_reads_descent_through_even_kink():
    # an even downward kink cancels out of central differences; the
    # probe must report the one-sided descent that gradient methods miss
    def f(V):
        return -np.abs(V[:, 0]) + V[:, 0] ** 2 + V[:, 1] ** 2

    _, _, worst = _certificate(f, np.zeros(2))
    assert worst == pytest.approx(-1.0, abs=1e-4)


def test_uncertified_tilt_raises(monkeypatch):
    # a search that stops where it started leaves the mode-Q tilt in the
    # excess, so the gradient test must refuse the untilted plane
    monkeypatch.setattr("tclab.epiperimetric.optimize.minimize",
                        lambda fun, x0, **kw: optimize.OptimizeResult(x=x0))
    with pytest.raises(NoConvergence):
        optimal_plane(single_mode_curve(1, 1, 1e-2))


def test_tilt_search_builds_cone_data_once(monkeypatch):
    builds, evals = [0], [0]
    tangent, excess = epi.unit_tangent_matrix, epi.cylindrical_excess

    def counted_tangent(*args):
        builds[0] += 1
        return tangent(*args)

    def counted_excess(curve, plane):
        evals[0] += 1 if isinstance(plane, Plane2) else len(plane)
        return excess(curve, plane)

    monkeypatch.setattr(epi, "unit_tangent_matrix", counted_tangent)
    monkeypatch.setattr(epi, "cylindrical_excess", counted_excess)
    # a tilt mode plus a mode-3 bump, so the search has to move
    alpha = np.array([[0.0], [1e-2], [0.0], [5e-3]])
    curve = WindingCurve.from_fourier(FourierSeries(1, 1, alpha,
                                                    np.zeros((3, 1))))
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
    tilted = WindingCurve.from_fourier(FourierSeries(2, 2, alpha, beta))
    return [(single_mode_curve(2, 6, 1e-2), standard_plane(3)),
            (tilted, epi._tilt_plane(np.array([2e-2, -1e-2, 1e-2, 3e-2]),
                                     2))]


def test_competitor_mass_is_the_ambient_mass():
    # the competitor is the disk graph in the plane's frame coordinates;
    # mapped into ambient coordinates by that rigid frame it keeps the
    # mass the gap reads
    curve, plane = _competitor_cases()[1]
    disk = build_competitor(curve, plane).extension
    F = plane.frame()
    want = mapped_mass(disk,
                       lambda y: np.broadcast_to(F, y.shape + F.shape[:1]),
                       (2 * disk.order[0], 2 * disk.order[1]))
    assert abs(disk.mass() - want) <= 1e-15 * want


@pytest.mark.parametrize("case", [0, 1], ids=["reference", "tilted"])
def test_competitor_mass_evaluates_each_node_once(monkeypatch, case):
    curve, plane = _competitor_cases()[case]
    ext = build_competitor(curve, plane).extension
    seen = [0]

    def counted(fn):
        def wrapped(self, U, V):
            seen[0] += np.broadcast(np.asarray(U), np.asarray(V)).size
            return fn(self, U, V)
        return wrapped

    for name in ("points", "partials"):
        monkeypatch.setattr(ParamSurface, name,
                            counted(getattr(ParamSurface, name)))
    n0, n1 = ext.order
    nodes = n0 * n1 + 4 * n0 * n1  # the rule and its doubled self-check
    ext.mass()
    assert seen[0] <= 2 * nodes


def test_over_large_excess_is_a_lab_error():
    with pytest.raises(ExcessTooLarge):
        optimal_plane(single_mode_curve(1, 2, 0.5))


def test_huge_profile_escapes_cylinder():
    with pytest.raises(SupportEscapesCylinder):
        cylindrical_excess(single_mode_curve(1, 2, 3.0), standard_plane(3))


@pytest.mark.parametrize("n", [1, 2])
def test_tilt_stack_matches_each_plane(n):
    # each row of a stacked call is the excess of its own Plane2, and a
    # tilt steep enough to let cone rays escape is flagged in its row
    # alone, where the single-plane call raises
    rng = np.random.default_rng(7 + n)
    alpha = np.zeros((4, n))
    alpha[1, 0] = 1e-2
    alpha[3, n - 1] = 5e-3
    curve = WindingCurve.from_fourier(FourierSeries(1, n, alpha,
                                                    np.zeros((3, n))))
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
    for k in range(5):
        ref = cylindrical_excess(curve, plane_from_spanning(u[k], v[k]))
        assert vals[k] == pytest.approx(ref, rel=1e-14, abs=0.0)
    with pytest.raises(SupportEscapesCylinder):
        cylindrical_excess(curve, Plane2(bases[5, :, 0], bases[5, :, 1]))
    objective = epi._tilt_objective(curve, V)
    assert np.array_equal(objective[:5], vals[:5])
    assert objective[5] == 1e6 + np.sum(V[5] ** 2)


def test_regraph_identity_roundtrip():
    curve = single_mode_curve(1, 2, 5e-3)
    back = regraph_over_plane(curve, standard_plane(3), curve.rho)
    theta = np.linspace(0.0, curve.period, 50)
    assert np.allclose(back.points(theta), curve.points(theta), atol=1e-12)


def test_regraph_smaller_cylinder_stays_on_cone():
    curve = single_mode_curve(2, 3, 0.05)
    back = regraph_over_plane(curve, standard_plane(3), 0.5)
    assert back.Q == curve.Q and back.rho == 0.5
    pts = back.points(np.linspace(0.0, back.period, 64))
    radii = np.linalg.norm(pts[:, :2], axis=1)
    assert np.allclose(radii, 0.5, atol=1e-12)


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
        curve = WindingCurve.from_fourier(FourierSeries(Q, n, alpha, beta))
        tilt = np.linspace(-2e-2, 3e-2, 2 * n)
        cases.append((curve, standard_plane(2 + n)))
        cases.append((curve, epi._tilt_plane(tilt, n)))
    return cases


def _reference_regraph_series(curve, plane, new_rho):
    """The regraph with a fixed 12 Newton passes and separate point and
    velocity syntheses."""
    F = plane.frame()

    def angle_data(theta):
        y = curve.points(theta) @ F
        dy = curve.velocities(theta) @ F
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
    return epi._trim_series(analyze(prof, curve.Q, tail_tol=1.0))


def test_regraph_matches_twelve_pass_reference():
    for curve, plane in _regraph_cases():
        got = regraph_over_plane(curve, plane, 0.5).series
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
        sizes.clear()
        regraph_over_plane(curve, plane, 0.5)
        # one probe at 4M angles, the Newton passes, one final evaluation
        assert sizes[0] == 4 * curve.M
        assert 1 <= len(sizes) - 2 <= 4


def test_regraph_rejects_orthogonal_plane():
    curve = single_mode_curve(2, 3, 0.05)
    e = np.eye(3)
    with pytest.raises(NotGraph):
        regraph_over_plane(curve, plane_from_spanning(e[0], e[2]), 1.0)


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_random_curves_beat_the_cone(seed):
    curve = random_epi_curve(np.random.default_rng(seed))
    verdict = epiperimetric_gap(curve)
    assert verdict.passed
    assert 0.0 <= verdict.ratio <= 0.95
