"""Mass and restriction tests against closed-form areas.

Oracles: a Q-fold circle of radius rho has length 2 pi Q rho, a flat
disk of radius R has area pi R^2, the round 2-sphere of radius R has
area 4 pi R^2, and the annulus s < |x| < r in a flat disk has area
pi (r^2 - s^2).  The cone over a curve on the unit sphere has mass
equal to half the curve's length.  Annulus restrictions of curved charts
are checked against a brute-force bisection of the clip bounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tclab.calibration import spherical_cap
from tclab.currents import (ConeOverCurve, ParamSurface, WindingCurve,
                            annulus_mass, cone_mass, curve_mass,
                            normalize_to_sphere, restrict_annulus)
from tclab.errors import EmptyRestriction
from tclab.fourier import FourierSeries, harmonic_extension
from tclab.geom import random_rotation
from tclab.monotonicity import _tangent_perp, deviation_integral
from tclab.quadrature import gauss_legendre
from tclab.scenarios import (CalibParams, _calib_surface,
                             extension_surface, random_link_curve,
                             single_mode_series)

from oracles import mapped_mass


def flat_disk(radius, multiplicity=1, order=(48, 96)):
    def chart(u, v):
        u, v = np.broadcast_arrays(u, v)
        r = radius * u
        return np.stack([r * np.cos(v), r * np.sin(v),
                         np.zeros_like(r)], axis=-1)

    def jac(u, v):
        u, v = np.broadcast_arrays(u, v)
        r = radius * u
        du = np.stack([radius * np.cos(v), radius * np.sin(v),
                       np.zeros_like(r)], axis=-1)
        dv = np.stack([-r * np.sin(v), r * np.cos(v),
                       np.zeros_like(r)], axis=-1)
        return du, dv

    return ParamSurface(chart, (0.0, 1.0, 0.0, 2.0 * np.pi),
                        jacobian=jac, multiplicity=multiplicity,
                        order=order, radial_axis=0)


def test_winding_circle_length():
    zero = FourierSeries(Q=3, n=1, alpha=np.zeros((1, 1)),
                         beta=np.zeros((0, 1)))
    curve = WindingCurve.from_fourier(zero, rho=1.7)
    assert abs(curve_mass(curve) - 2.0 * np.pi * 3 * 1.7) < 1e-10


def test_flat_disk_area():
    assert abs(flat_disk(2.5).mass() - np.pi * 2.5 ** 2) < 1e-9


def test_round_sphere_area():
    cap = spherical_cap(1.4, 0.0, np.pi, order=(64, 128))
    assert abs(cap.mass() - 4.0 * np.pi * 1.4 ** 2) < 1e-8


def test_multiplicity_scales_mass():
    assert abs(flat_disk(1.0, multiplicity=3).mass()
               - 3.0 * np.pi) < 1e-9


def test_pushforward_by_isometry_preserves_mass():
    disk = flat_disk(1.2)
    R = random_rotation(3, np.random.default_rng(7))
    fine = (2 * disk.order[0], 2 * disk.order[1])
    moved = mapped_mass(disk, lambda x: np.broadcast_to(R, (len(x), 3, 3)),
                        fine)
    assert abs(moved - disk.mass()) < 1e-9


def test_annulus_restriction_area():
    disk = flat_disk(1.0)
    got = restrict_annulus(disk, 0.3, 0.8).mass()
    assert abs(got - np.pi * (0.8 ** 2 - 0.3 ** 2)) < 1e-9
    double = annulus_mass(flat_disk(1.0, multiplicity=2), 0.3, 0.8)
    assert abs(double - 2.0 * got) < 1e-9


def test_empty_restriction_raises():
    with pytest.raises(EmptyRestriction):
        restrict_annulus(flat_disk(1.0), 1.5, 2.0)


def test_restriction_additivity():
    disk = flat_disk(1.0)
    whole = restrict_annulus(disk, 0.2, 0.9).mass()
    parts = (restrict_annulus(disk, 0.2, 0.55).mass()
             + restrict_annulus(disk, 0.55, 0.9).mass())
    assert abs(whole - parts) < 1e-9


def test_cone_mass_halves_spherical_link_length():
    rng = np.random.default_rng(11)
    link = normalize_to_sphere(random_link_curve(rng))
    cone = ConeOverCurve(np.zeros(link.points(np.zeros(1)).shape[-1]), link)
    assert abs(cone_mass(cone) - 0.5 * curve_mass(link)) < 1e-10


@given(st.integers(1, 3), st.floats(0.5, 2.0))
@settings(max_examples=10, deadline=None)
def test_cone_over_flat_circle_is_disk(Q, rho):
    zero = FourierSeries(Q=Q, n=1, alpha=np.zeros((1, 1)),
                         beta=np.zeros((0, 1)))
    curve = WindingCurve.from_fourier(zero, rho=rho)
    cone = ConeOverCurve(np.zeros(3), curve)
    assert abs(cone_mass(cone) - Q * np.pi * rho ** 2) < 1e-9


def bisected_integral(surface, s, r, density=None, order=None):
    """Annulus integral with clip bounds found by plain bisection.

    Each bound is bisected on |chart| until the bracket stops shrinking,
    at every Gauss node in v; the u nodes are then mapped into the
    clipped interval and the area element carries its width.
    """
    u0, u1, v0, v1 = surface.domain
    order = order or surface.order
    w, ww = gauss_legendre(order[0], 0.0, 1.0)
    v, wv = gauss_legendre(order[1], v0, v1)

    def bound(c):
        lo = np.full(v.shape, u0)
        hi = np.full(v.shape, u1)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            below = np.linalg.norm(surface.points(mid, v), axis=-1) < c
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return hi if c > 0 else np.full(v.shape, u0)

    ulo, uhi = bound(s), bound(r)
    U = ulo + w[:, None] * (uhi - ulo)
    V = np.broadcast_to(v, U.shape)
    x = surface.points(U, V)
    xu, xv = surface.partials(U, V)
    E = np.sum(xu * xu, axis=-1)
    G = np.sum(xv * xv, axis=-1)
    F = np.sum(xu * xv, axis=-1)
    vals = np.sqrt(E * G - F * F) * (uhi - ulo)
    if density is not None:
        vals = vals * density(x, xu, xv)
    return surface.multiplicity * float(np.sum(np.outer(ww, wv) * vals))


def _restricted_case(case):
    """Chart of one case; phases and an off-sphere link make the clip
    bounds vary with the angle."""
    if case[0] == "ext":
        Q, mode, amp = case[1:]
        series = single_mode_series(Q, mode, amp, phase=0.7)
        return harmonic_extension(series, 1.0)
    link = random_link_curve(np.random.default_rng(case[1]))
    return ConeOverCurve(np.zeros(link.dim), link).chart()


def _tangent_deviation(x, xu, xv):
    p2, x2 = _tangent_perp(x, xu, xv)
    return p2 / x2 ** 2


def _inverse_square(x, xu, xv):
    return 1.0 / np.sum(x * x, axis=-1)


RESTRICTED = [("ext", 1, 2, 1e-2), ("ext", 2, 6, 1e-2), ("ext", 3, 7, 5e-3),
              ("cone", 4)]


@pytest.mark.parametrize("case", RESTRICTED, ids=lambda c: "-".join(
    map(str, c)))
def test_restricted_integrals_match_bisection(case):
    surf = _restricted_case(case)
    for s, r in ((0.0, 0.05), (0.0, 0.3), (0.02, 0.04), (0.1, 0.35)):
        fine = (2 * surf.order[0], 2 * surf.order[1])
        want = bisected_integral(surf, s, r, order=fine)
        assert abs(annulus_mass(surf, s, r) - want) <= 1e-14 * want
        region = restrict_annulus(surf, s, r)
        want = bisected_integral(surf, s, r)
        assert abs(region.integrate_density() - want) <= 1e-14 * want
        if s > 0:
            # a cone's deviation vanishes, leaving the density's rounding
            # floor of about eps^2 / |x|^2
            want = bisected_integral(surf, s, r, density=_tangent_deviation)
            floor = bisected_integral(surf, s, r, density=_inverse_square)
            got = deviation_integral(surf, s, r)
            assert abs(got - want) <= 1e-14 * want + 1e-30 * floor


def test_annulus_mass_solves_clip_bounds_once_per_angle():
    surf = extension_surface(2, 6, 1e-2)
    seen = [0]

    def counted(fn):
        def wrapped(U, V):
            seen[0] += np.broadcast(U, V).size
            return fn(U, V)
        return wrapped

    wrapped = ParamSurface(counted(surf.chart), surf.domain,
                           jacobian=counted(surf.jacobian), order=surf.order,
                           radial_axis=0)
    n0, n1 = surf.order
    nodes = n0 * n1 + 4 * n0 * n1  # the rule and its doubled self-check
    mass = annulus_mass(wrapped, 0.0, 0.3)
    assert mass == annulus_mass(surf, 0.0, 0.3)
    assert seen[0] <= 4 * nodes


def random_extension():
    rng = np.random.default_rng(17)
    series = FourierSeries(2, 2, 1e-3 * rng.standard_normal((9, 2)),
                           1e-3 * rng.standard_normal((8, 2)))
    return harmonic_extension(series, 0.5)


def flat_nodes(surf, order):
    """The quadrature nodes and weights as flat u-major arrays."""
    u, wu, v, wv = surf._axes(order)
    return (np.repeat(u, v.size), np.tile(v, u.size),
            np.outer(wu, wv).ravel())


def frame_and_node_charts(surf):
    """The open-grid frame next to the chart evaluated node by node."""
    U, V, W = flat_nodes(surf, surf.order)
    x, xu, xv, Wf = surf._frame(surf.order)
    assert np.array_equal(Wf, W)
    want_u, want_v = surf.jacobian(U, V)
    return (x, surf.chart(U, V)), (xu, want_u), (xv, want_v)


def test_open_grid_frames_match_flat_node_charts():
    # matrix products over the modes may round differently by batch shape
    for got, want in frame_and_node_charts(random_extension()):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def elementwise_charts():
    calib_disk, _ = _calib_surface(CalibParams(surface="disk",
                                               quad_order=(12, 24)))
    curve = random_link_curve(np.random.default_rng(4))
    link = normalize_to_sphere(curve)
    return {"cone": ConeOverCurve(np.zeros(curve.dim), link).chart(),
            "cap": spherical_cap(1.3, 0.2, 2.9, dim=4, order=(12, 24)),
            "calib-disk": calib_disk}


@pytest.mark.parametrize("name", ["cone", "cap", "calib-disk"])
def test_elementwise_chart_frames_equal_node_charts_bitwise(name):
    surf = elementwise_charts()[name]
    for got, want in frame_and_node_charts(surf):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
