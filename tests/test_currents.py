"""Mass and restriction tests against closed-form areas.

Oracles: a Q-fold unit circle has length 2 pi Q, a flat
disk of radius R has area pi R^2, the round 2-sphere of radius R has
area 4 pi R^2, and the annulus s < |x| < r in a flat disk has area
pi (r^2 - s^2), and in the star rho < 1 + a cos theta a closed form
even where the rim crosses s or r.  The cone over a curve on the unit
sphere has mass equal to half the curve's length.  Annulus restrictions of curved charts
are checked against a brute-force bisection of the clip bounds, and the
periodic trapezoid mass of each competitor against a Gauss-Legendre sum
at four times its node count per axis.
"""

from dataclasses import fields

import numpy as np
import pytest
from scipy.stats import special_ortho_group

from tclab import currents
from tclab.calibration import spherical_cap
from tclab.currents import (ParamSurface, RadialRestriction, WindingCurve,
                            annulus_mass, cone_chart, curve_mass,
                            declare_ladder, infinite_cone_cylinder_mass)
from tclab.epiperimetric import build_competitor, optimal_plane
from tclab.errors import NoConvergence, NonFinite, QuadratureNotConverged
from tclab.fourier import FourierSeries, harmonic_extension
from tclab.flat import radial_homotopy_filling
from tclab.monotonicity import (_tangent_perp, deviation_integral,
                                mass_profile, radial_projection_mass)
from tclab.quadrature import gauss_legendre
from tclab.scenarios import (extension_surface, flat_circle, random_epi_curve,
                             single_mode_curve)

from oracles import (callback_cone_cylinder_mass, callback_curve_mass,
                     frame_mass, mapped_mass, normalize_to_sphere, polar_disk,
                     random_link_curve, standard_plane, star_disk)


def test_winding_circle_length():
    curve = flat_circle(3)
    assert abs(curve_mass(curve) - 2.0 * np.pi * 3) < 1e-10


def _series_with(Q, N, top, value=1e-3):
    """Series with N stored modes whose coefficient at frequency top
    (0 for none) is the given value."""
    alpha = np.zeros((N + 1, 2))
    if top:
        alpha[top, 1] = value
    return FourierSeries(Q, 2, alpha, np.zeros((N, 2)))


@pytest.mark.parametrize("Q, N, top, value, M", [
    (1, 0, 0, 0.0, 256),          # the floor
    (3, 8, 8, 1e-3, 384),         # 16 Q per top live mode
    (2, 12, 9, 1e-12, 288),       # a live mode counts however small
    (1, 300, 2, 1e-3, 602),       # 2N + 2 for the stored modes
])
def test_winding_curve_samples_follow_the_series(Q, N, top, value, M):
    series = _series_with(Q, N, top, value)
    curve = WindingCurve(series)
    assert curve.M == M
    assert (curve.Q, curve.n, curve.dim) == (Q, 2, 4)
    assert curve.period == series.period
    assert [f.name for f in fields(WindingCurve) if f.init] == ["series"]


@pytest.mark.parametrize("order", [(12, 24), (96, 192)])
def test_cone_over_unit_circle_is_the_polar_disk_bitwise(order):
    cone = cone_chart(flat_circle(1), order=order)
    for got, want in zip(cone._frame(order),
                         polar_disk(1.0, order=order)._frame(order)):
        assert np.array_equal(got, want)
    assert abs(cone.mass() - np.pi) < 1e-12


def test_cone_frame_evaluates_the_link_jet_once_per_chart_call(
        monkeypatch):
    # the chart and its jacobian each take one series jet; the frame is
    # bitwise the one built from one separate link jet
    order = (96, 192)
    link = flat_circle(1)
    cone = cone_chart(link, order=order)
    u, _, v, _ = cone._axes(order)
    U, V = u[:, None, None], v[None, :]
    g, dg = link.jet(V)
    want = (U * g, g, U * dg)
    jets = [0]
    jet = FourierSeries.jet

    def counted(self, theta):
        jets[0] += 1
        return jet(self, theta)

    monkeypatch.setattr(FourierSeries, "jet", counted)
    got = cone._frame(order)[:3]
    assert jets[0] == 2
    for g, w in zip(got, want):
        assert np.array_equal(
            g, np.broadcast_to(w, (u.size, v.size, 3)).reshape(-1, 3))


def test_flat_disk_area():
    assert abs(polar_disk(2.5).mass() - np.pi * 2.5 ** 2) < 1e-9


def test_round_sphere_area():
    cap = spherical_cap(1.4, 0.0, np.pi, order=(64, 128))
    assert abs(cap.mass() - 4.0 * np.pi * 1.4 ** 2) < 1e-8


def test_pushforward_by_isometry_preserves_mass():
    disk = polar_disk(1.2)
    R = special_ortho_group.rvs(3, random_state=np.random.default_rng(7))
    fine = (2 * disk.order[0], 2 * disk.order[1])
    moved = mapped_mass(disk, lambda x: np.broadcast_to(R, (len(x), 3, 3)),
                        fine)
    assert abs(moved - disk.mass()) < 1e-9


def test_annulus_restriction_area():
    disk = polar_disk(1.0)
    got = RadialRestriction(disk, 0.3, 0.8).mass()
    assert abs(got - np.pi * (0.8 ** 2 - 0.3 ** 2)) < 1e-9


def test_nested_restriction_is_the_direct_restriction():
    # restricting a restriction takes the generic path: the outer clip
    # solves its bounds on the inner restriction's chart
    ext = extension_surface(1, 2, 1e-2)
    nested = RadialRestriction(RadialRestriction(ext, 0.1, 0.8), 0.3, 0.6)
    direct = RadialRestriction(ext, 0.3, 0.6).mass()
    assert nested.mass() == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_annulus_past_the_chart_is_the_zero_current():
    # the rim radius of the star runs over [0.9, 1.1]
    disk, star = polar_disk(1.0), star_disk(0.1)
    assert annulus_mass(disk, 1.5, 2.0) == 0.0
    assert annulus_mass(star, 1.15, 1.3) == 0.0
    assert deviation_integral(star, 1.15, 1.3) == 0.0
    assert radial_projection_mass(star, 1.15, 1.3) == 0.0
    for s in (0.0, 0.5, 1.05):
        assert annulus_mass(star, s, s) == 0.0
    assert deviation_integral(disk, 0.5, 0.5) == 0.0


def test_partly_met_annulus_integrates_densities():
    # where the star's rim stays below 0.95 the clip width is 0, and so is
    # the Gram determinant of the width-scaled partials; those angles
    # contribute 0, and the flat disk leaves only roundoff elsewhere
    star = star_disk(0.1)
    dev = deviation_integral(star, 0.95, 1.05)
    proj = radial_projection_mass(star, 0.95, 1.05)
    assert np.isfinite(dev) and 0.0 <= dev <= 1e-28
    assert np.isfinite(proj) and 0.0 <= proj <= 1e-14


def test_a_nan_partial_still_fails_a_density_integral():
    disk = polar_disk(1.0)

    def jac(w, theta):
        xu, xv = disk.jacobian(w, theta)
        return xu, np.where((theta > np.pi)[..., None], np.nan, xv)

    broken = ParamSurface(disk.chart, disk.domain, jacobian=jac,
                          order=disk.order)
    with pytest.raises(NonFinite):
        deviation_integral(broken, 0.2, 0.8)


def test_restriction_rejects_a_radius_decreasing_along_u():
    disk = polar_disk(1.0)
    flipped = ParamSurface(lambda w, t: disk.chart(1.0 - w, t), disk.domain,
                           jacobian=disk.jacobian, order=disk.order)
    with pytest.raises(ValueError, match="not increasing"):
        RadialRestriction(flipped, 0.2, 0.5)


def test_annulus_met_at_some_angles_is_integrated():
    # the star's rim radius 1 + 0.1 cos theta crosses 0.95 and 1.05, so
    # the annulus meets the chart only where cos theta > -1/2; its area
    # 1/2 int (min(1.05, R)^2 - 0.95^2)_+ dtheta in closed form
    star = star_disk(0.1)
    want = 0.5 * (2.0 * np.pi / 3.0 * (1.05 ** 2 - 0.95 ** 2)
                  + 2.0 * (np.pi / 3.0 * (1.0 - 0.95 ** 2)
                           + 0.01 * (np.pi / 6.0 - np.sqrt(3.0) / 4.0)))
    region = RadialRestriction(star, 0.95, 1.05)
    got = region.integrate_density(order=(64, 1024))
    assert got == pytest.approx(want, rel=2e-7)
    # the clip width has kinks where the rim crosses the two radii, so the
    # default rule does not converge, and the mass says so
    with pytest.raises(QuadratureNotConverged):
        annulus_mass(star, 0.95, 1.05)


def test_restriction_additivity():
    disk = polar_disk(1.0)
    whole = RadialRestriction(disk, 0.2, 0.9).mass()
    parts = (RadialRestriction(disk, 0.2, 0.55).mass()
             + RadialRestriction(disk, 0.55, 0.9).mass())
    assert abs(whole - parts) < 1e-9


def test_cone_mass_halves_spherical_link_length():
    rng = np.random.default_rng(11)
    link = normalize_to_sphere(random_link_curve(rng))
    cone = cone_chart(link)
    assert abs(cone.mass() - 0.5 * curve_mass(link)) < 1e-10


@pytest.mark.parametrize("Q", [1, 2, 3])
def test_cone_over_flat_circle_is_disk(Q):
    cone = cone_chart(flat_circle(Q))
    assert abs(cone.mass() - Q * np.pi) < 1e-9


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
    return float(np.sum(np.outer(ww, wv) * vals))


def _restricted_case(case):
    """Chart of one case; phases and an off-sphere link make the clip
    bounds vary with the angle."""
    if case[0] == "ext":
        Q, mode, amp = case[1:]
        alpha = np.zeros((mode + 1, 1))
        beta = np.zeros((mode, 1))
        alpha[mode, 0] = amp * np.cos(0.7)
        beta[mode - 1, 0] = amp * np.sin(0.7)
        return harmonic_extension(FourierSeries(Q, 1, alpha, beta), 1.0)
    link = random_link_curve(np.random.default_rng(case[1]))
    return cone_chart(link)


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
        region = RadialRestriction(surf, s, r)
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
                           jacobian=counted(surf.jacobian), order=surf.order)
    n0, n1 = surf.order
    nodes = n0 * n1 + 4 * n0 * n1  # the rule and its doubled self-check
    mass = annulus_mass(wrapped, 0.0, 0.3)
    assert mass == annulus_mass(surf, 0.0, 0.3)
    assert seen[0] <= 4 * nodes


def _tiled_frame(region, order):
    """The restricted frame node by node: clip bounds solved afresh, the
    angles tiled to one per node and the base chart called on the flat
    node list."""
    u, wu, v, wv = region._axes(order)
    ulo, uhi = region._bounds(v)
    width = uhi - ulo
    U = (ulo + u[:, None] * width).ravel()
    V = np.tile(v, u.size)
    xu, xv = region.base.partials(U, V)
    return (region.base.points(U, V), xu * np.tile(width, u.size)[:, None],
            xv, np.outer(wu, wv).ravel())


@pytest.mark.parametrize("make", [
    lambda: extension_surface(1, 2, 0.01),
    lambda: extension_surface(2, 6, 0.005),
    lambda: _restricted_case(("cone", 4)),
], ids=["ext-1-2", "ext-2-6", "cone"])
def test_restricted_frame_is_the_tiled_per_node_evaluation(make):
    surf = make()
    n0, n1 = surf.order
    # the later annuli read radii that the earlier ones solved
    for s, r in ((0.0, 0.3), (0.1, 0.3), (0.1, 0.2)):
        region = RadialRestriction(surf, s, r)
        for order in ((n0, n1), (2 * n0, 2 * n1)):
            got = region._frame(order)
            want = _tiled_frame(region, order)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.fixture
def clip_rows(monkeypatch):
    """(radius, angle count) of every row that _solve_radius solves."""
    rows = []
    solve = RadialRestriction._solve_radius

    def counted(self, c, V, rlo, rhi):
        radii, counts = np.unique(c, return_counts=True)
        rows.extend(zip(radii.tolist(), counts.tolist()))
        return solve(self, c, V, rlo, rhi)

    monkeypatch.setattr(RadialRestriction, "_solve_radius", counted)
    return rows


def test_ball_masses_and_their_slabs_solve_each_radius_once(clip_rows):
    surf = extension_surface(2, 6, 1e-2)
    n1 = surf.order[1]
    radii = [0.125, 0.25, 0.5]
    mass_profile(surf, radii, 2)
    # each mass checks itself at twice the angle count
    assert sorted(clip_rows) == sorted(
        (c, n) for c in [0.0] + radii for n in (n1, 2 * n1))
    clip_rows.clear()
    for s, r in zip(radii, radii[1:]):
        deviation_integral(surf, s, r)
    assert clip_rows == []


def test_a_second_flat_level_solves_only_its_new_outer_radius(clip_rows):
    surf = extension_surface(1, 2, 1e-2)
    radial_homotopy_filling(surf, 0.1, 0.2, tnodes=3)
    clip_rows.clear()
    radial_homotopy_filling(surf, 0.2, 0.4, tnodes=3)
    t, _ = gauss_legendre(3, 0.0, 1.0)
    assert sorted(clip_rows) == sorted((0.4 * tk, surf.order[1]) for tk in t)


def test_bases_with_different_amplitudes_keep_separate_clip_memos(clip_rows):
    first = extension_surface(1, 2, 1e-2)
    second = extension_surface(1, 2, 2e-2)
    mass = annulus_mass(first, 0.1, 0.3)
    clip_rows.clear()
    other = annulus_mass(second, 0.1, 0.3)
    n1 = first.order[1]
    assert sorted(clip_rows) == sorted(
        (c, n) for c in (0.1, 0.3) for n in (n1, 2 * n1))
    assert other != mass
    assert other == annulus_mass(extension_surface(1, 2, 2e-2), 0.1, 0.3)
    assert mass == annulus_mass(extension_surface(1, 2, 1e-2), 0.1, 0.3)


def _multimode_extension(seed):
    """Harmonic extension of a seeded profile with several live modes."""
    rng = np.random.default_rng(seed)
    Q, n, nmodes = 1 + seed % 3, 1 + seed % 2, 5
    decay = 1e-2 / np.arange(1, nmodes + 1) ** 2
    alpha = np.zeros((nmodes + 1, n))
    alpha[1:] = rng.standard_normal((nmodes, n)) * decay[:, None]
    beta = rng.standard_normal((nmodes, n)) * decay[:, None]
    return harmonic_extension(FourierSeries(Q, n, alpha, beta), 1.0)


def _ladder():
    """Ball radii 0.5 * 2^-k, the flat radii at their quadrature nodes,
    the vertex and a radius past the rim."""
    balls = [0.5 * 2.0 ** -k for k in range(5)]
    t, _ = gauss_legendre(4, 0.0, 1.0)
    return [0.0, 2.0] + balls + [c * tk for c in balls for tk in t]


@pytest.mark.parametrize("make", [
    lambda: _multimode_extension(1), lambda: _multimode_extension(2),
    lambda: _multimode_extension(3), lambda: random_extension(),
    lambda: _restricted_case(("cone", 4)),
    lambda: _restricted_case(("cone", 9)),
], ids=["ext-1", "ext-2", "ext-3", "ext-random", "cone-4", "cone-9"])
def test_batched_clip_rows_equal_one_radius_solves(make):
    surf = make()
    region = RadialRestriction(surf, 0.0, 0.5)
    radii = _ladder()
    for n in (surf.order[1], 2 * surf.order[1]):
        v = gauss_legendre(n, *surf.domain[2:])[0]
        rlo, rhi, _ = region._radius_table(n)
        batched = region._solve_radii(radii, v, rlo, rhi)
        for c, row in zip(radii, batched):
            assert np.array_equal(row, region._solve_radii([c], v, rlo,
                                                           rhi)[0])


@pytest.fixture
def solve_calls(monkeypatch):
    """One entry per _solve_radius call: the number of rows it solves."""
    calls = []
    solve = RadialRestriction._solve_radius

    def counted(self, c, V, rlo, rhi):
        calls.append(c.size)
        return solve(self, c, V, rlo, rhi)

    monkeypatch.setattr(RadialRestriction, "_solve_radius", counted)
    return calls


def test_a_mass_profile_solves_its_ladder_once_per_angle_count(solve_calls):
    surf = extension_surface(2, 6, 1e-2)
    radii = [0.125, 0.25, 0.5]
    profile = mass_profile(surf, radii, 2)
    for s, r in zip(radii, radii[1:]):
        deviation_integral(surf, s, r)
    # one ball at the rule's angle count and one at its doubled
    # self-check solve all four radii, where solving each ball's own
    # radii takes six calls
    n1 = surf.order[1]
    assert solve_calls == [4 * n1, 8 * n1]
    assert np.array_equal(profile.values, [annulus_mass(
        extension_surface(2, 6, 1e-2), 0.0, r) for r in radii])


def test_a_flat_level_solves_its_ladder_in_one_call(solve_calls):
    surf = extension_surface(1, 2, 1e-2)
    bound = radial_homotopy_filling(surf, 0.1, 0.2, tnodes=3)
    assert solve_calls == [6 * surf.order[1]]
    # the one-radius-at-a-time solves, with no ladder declared
    t, w = gauss_legendre(3, 0.0, 1.0)
    fresh = extension_surface(1, 2, 1e-2)
    assert bound == float(sum(
        wk * tk * tk * radial_projection_mass(fresh, 0.1 * tk, 0.2 * tk)
        for tk, wk in zip(t, w)))


def test_an_undeclared_annulus_solves_its_own_radii(clip_rows):
    surf = extension_surface(2, 6, 1e-2)
    mass = annulus_mass(surf, 0.1, 0.3)
    n1 = surf.order[1]
    assert sorted(clip_rows) == sorted(
        (c, n) for c in (0.1, 0.3) for n in (n1, 2 * n1))
    clip_rows.clear()
    declared = extension_surface(2, 6, 1e-2)
    declare_ladder(declared, [0.05, 0.1, 0.2, 0.3])
    assert annulus_mass(declared, 0.1, 0.3) == mass
    assert sorted(clip_rows) == sorted(
        (c, n) for c in (0.05, 0.1, 0.2, 0.3) for n in (n1, 2 * n1))


def test_an_unconverged_clip_solve_names_its_radii(monkeypatch):
    monkeypatch.setattr(currents, "NEWTON_MAX_STEPS", 1)
    surf = extension_surface(2, 6, 1e-2)
    with pytest.raises(NoConvergence) as err:
        annulus_mass(surf, 0.1, 0.3)
    assert f"at radii 0.1, 0.3 over {surf.order[1]} angles" in str(err.value)


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
    calib_disk = cone_chart(flat_circle(1), order=(12, 24))
    curve = random_link_curve(np.random.default_rng(4))
    link = normalize_to_sphere(curve)
    return {"cone": cone_chart(link),
            "cap": spherical_cap(1.3, 0.2, 2.9, dim=4, order=(12, 24)),
            "calib-disk": calib_disk}


@pytest.mark.parametrize("name", ["cone", "cap", "calib-disk"])
def test_elementwise_chart_frames_equal_node_charts_bitwise(name):
    surf = elementwise_charts()[name]
    for got, want in frame_and_node_charts(surf):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def periodic_cylinder(b, db, c, dc, T):
    """Periodic chart (u, v) -> (b(u) c(v), cos v, sin v) on [0, 1] x
    [0, 2 pi) with T angle nodes; its area element is |b'(u) c(v)|."""

    def chart(u, v):
        out = np.empty(np.broadcast_shapes(u.shape, v.shape) + (3,))
        out[..., 0] = b(u) * c(v)
        out[..., 1] = np.cos(v)
        out[..., 2] = np.sin(v)
        return out

    def jac(u, v):
        shape = np.broadcast_shapes(u.shape, v.shape) + (3,)
        xu = np.zeros(shape)
        xv = np.empty(shape)
        xu[..., 0] = db(u) * c(v)
        xv[..., 0] = b(u) * dc(v)
        xv[..., 1] = -np.sin(v)
        xv[..., 2] = np.cos(v)
        return xu, xv

    return ParamSurface(chart, (0.0, 1.0, 0.0, 2.0 * np.pi), jacobian=jac,
                        order=(32, T), periodic=True)


def test_periodic_chart_self_checks_each_axis():
    T = 16

    def square(u):
        return u * u

    def twice(u):
        return 2.0 * u

    def ripple(k):
        return (lambda v: 1.0 + 0.5 * np.cos(k * v),
                lambda v: -0.5 * k * np.sin(k * v))

    # u^2 and a ripple below T / 2 nodes are exact at every level
    surf = periodic_cylinder(square, twice, *ripple(3), T)
    assert surf.mass() == pytest.approx(2.0 * np.pi, rel=1e-14)
    # a ripple at T / 2 vanishes on the T nodes but not on every other one
    surf = periodic_cylinder(square, twice, *ripple(T // 2), T)
    assert surf.integrate_density() == pytest.approx(2.0 * np.pi, rel=1e-14)
    with pytest.raises(QuadratureNotConverged, match="angle"):
        surf.mass()
    # the square root's endpoint singularity leaves Gauss-Legendre at
    # orders 32 and 64 apart by more than the tolerance
    surf = periodic_cylinder(np.sqrt, lambda u: 0.5 / np.sqrt(u),
                             *ripple(3), T)
    with pytest.raises(QuadratureNotConverged, match="radial"):
        surf.mass()


def test_periodic_chart_needs_an_even_angle_count():
    with pytest.raises(ValueError):
        periodic_cylinder(np.sqrt, np.sqrt, np.cos, np.sin, 15)


def _epi_curves():
    grid = [single_mode_curve(Q, ratio * Q, amp) for Q in (1, 2, 3)
            for ratio in (2, 3, 4) for amp in (1e-3, 1e-2)]
    return grid + [random_epi_curve(np.random.default_rng(seed))
                   for seed in (1, 2, 3)]


@pytest.mark.parametrize("k", range(21))
def test_competitor_mass_matches_a_fine_gauss_legendre_sum(k):
    curve = _epi_curves()[k]
    ext = build_competitor(curve, optimal_plane(curve).plane)
    n0, T = ext.order
    plain = ParamSurface(ext.chart, ext.domain, jacobian=ext.jacobian,
                         order=(4 * n0, 4 * T))
    want = plain.integrate_density()
    assert abs(ext.mass() - want) <= 1e-13 * want


def _table_curves():
    """The 18 grid curves and 40 seeded random ones, n = 1 and 2 with M
    from 256 to 720."""
    grid = [single_mode_curve(Q, ratio * Q, amp) for Q in (1, 2, 3)
            for ratio in (2, 3, 4) for amp in (1e-3, 1e-2)]
    return grid + [random_epi_curve(np.random.default_rng(seed))
                   for seed in range(40)]


def test_trace_table_rows_are_jet_calls():
    curves = _table_curves()
    assert {c.n for c in curves} == {1, 2}
    assert {min(c.M for c in curves), max(c.M for c in curves)} == {256, 720}
    for curve in curves:
        M, h = curve.M, curve.period / curve.M
        table = curve.trace_table
        assert curve.trace_table is table
        base = curve.jet(np.arange(M) * h)
        mid = curve.jet((np.arange(M) + 0.5) * h)
        for got, at_base, at_mid in zip(table, base, mid):
            assert got.shape == (4 * M, curve.dim)
            assert not got.flags.writeable
            assert np.array_equal(got[::4], at_base)
            assert np.array_equal(got[2::4], at_mid)


def test_curve_sums_equal_the_callback_rule():
    # the sums on sampled tables add the same values in the same order as
    # a rule that samples its integrand itself
    rng = np.random.default_rng(5)
    for curve in _table_curves()[::3]:
        assert curve_mass(curve) == callback_curve_mass(curve)
        tilt = 0.05 * rng.standard_normal((curve.dim, 2))
        basis = np.linalg.qr(standard_plane(curve.dim).basis() + tilt)[0]
        for B in (standard_plane(curve.dim).basis(), basis):
            got = infinite_cone_cylinder_mass(curve, B, 0.5)
            assert got == callback_cone_cylinder_mass(curve, B, 0.5)
    link = normalize_to_sphere(random_link_curve(np.random.default_rng(3)))
    assert curve_mass(link) == callback_curve_mass(link)


def _competitor():
    curve = single_mode_curve(2, 6, 1e-2)
    return build_competitor(curve, optimal_plane(curve).plane)


@pytest.mark.parametrize("make", [
    _competitor,
    lambda: cone_chart(normalize_to_sphere(
        random_link_curve(np.random.default_rng(4)))),
    lambda: RadialRestriction(extension_surface(2, 6, 5e-3), 0.1, 0.3),
], ids=["competitor", "cone", "annulus"])
def test_mass_frames_without_positions_equal_positioned_sums(make,
                                                              monkeypatch):
    surf = make()
    n0, n1 = surf.order
    fine = (2 * n0, n1) if surf.periodic else (2 * n0, 2 * n1)
    want = [frame_mass(surf, order) for order in (surf.order, fine)]
    frames = []
    build = type(surf)._frame

    def counted(self, order, positions=True):
        frames.append(positions)
        return build(self, order, positions)

    monkeypatch.setattr(type(surf), "_frame", counted)
    assert surf.integrate_density() == want[0]
    assert surf.mass() == want[1]
    # no frame of a mass evaluates positions
    assert frames and not any(frames)
