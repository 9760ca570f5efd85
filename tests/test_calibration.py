"""Calibration form and first-variation tests.

The solid-angle form acts on (v, w) at x as det[x/|x|, v, w]: its
comass is exactly one everywhere, it calibrates every centered sphere,
and its exterior derivative is (2/|x|) times the volume form, so the
sphere's first-variation law carries the factor 2/R.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from tclab.calibration import (Bump, _flow, almost_minimality_probe,
                               spherical_cap, sweep_mass)
from tclab.currents import ParamSurface, cone_chart
from tclab.quadrature import gauss_legendre
from tclab.scenarios import CALIB_ORDER, calib_bump, flat_circle, load_config

from oracles import (FormUndefined, NotSemicalibrated, SphereLaw,
                     bump_jacobian, bump_vector, calibration_defect,
                     first_variation_pair, mapped_mass, mass_derivative,
                     solid_angle_form)

REPO = Path(__file__).resolve().parents[1]

def random_points(m=40, seed=0, scale=2.0, dim=3):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(m, dim)) * scale
    keep = np.linalg.norm(pts, axis=1) > 0.3
    return pts[keep]


def test_solid_angle_has_unit_comass():
    comass = solid_angle_form().comass_at(random_points())
    assert np.all(np.abs(comass - 1.0) <= 1e-12)


def test_solid_angle_exterior_matches_finite_differences():
    form = solid_angle_form()
    x = random_points(20, seed=3)
    h = 1e-5
    rows = []
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        rows.append((form.matrix(x + e) - form.matrix(x - e)) / (2 * h))
    D = np.stack(rows, axis=-3)
    fd = D + np.moveaxis(D, -1, -3) + np.moveaxis(D, -3, -1)
    assert float(np.max(np.abs(form.exterior(x) - fd))) < 1e-7


def test_solid_angle_is_singular_at_origin():
    with pytest.raises(FormUndefined):
        solid_angle_form().matrix(np.zeros((1, 3)))


def test_solid_angle_calibrates_centered_caps():
    form = solid_angle_form()
    for cap in (spherical_cap(1.0, 0.2, 1.4), spherical_cap(2.0, 0.0, np.pi)):
        assert abs(calibration_defect(cap, form)) < 1e-9


def test_spherical_cap_area():
    cap = spherical_cap(1.5, 0.3, 1.1)
    want = 2.0 * np.pi * 1.5 ** 2 * (np.cos(0.3) - np.cos(1.1))
    assert cap.mass() == pytest.approx(want, rel=1e-10)


def test_bump_jacobian_matches_finite_differences():
    """The library's gradient of the profile f against central differences
    of its f, and the oracle's jacobian against direction (x) grad f."""
    bump = Bump([0.2, -0.1, 0.4], 0.9, [0.3, 1.0, -0.5], power=5)
    pts = random_points(25, seed=9, scale=0.5) + bump.center
    pts = pts[np.linalg.norm(pts - bump.center, axis=-1) < 0.85]
    assert len(pts) > 10
    h = 1e-6
    f, grad = bump.profile(pts)
    assert np.array_equal(bump_vector(bump, pts), f[:, None] * bump.direction)
    assert np.array_equal(bump_jacobian(bump, pts),
                          bump.direction[:, None] * grad[:, None, :])
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (bump.profile(pts + e)[0] - bump.profile(pts - e)[0]) / (2 * h)
        assert np.allclose(grad[:, i], fd, atol=1e-8)


def test_first_variation_on_sphere_cap():
    cap = spherical_cap(1.0, 0.4, 1.2, order=(96, 192))
    chi = Bump(cap.points(0.8, 0.3), 0.35, [0.1, -0.4, 1.0], power=10)
    report = first_variation_pair(cap, solid_angle_form(), chi,
                                  steps=(1e-2, 1e-3, 1e-4))
    assert abs(report.residual) < 1e-8 * max(abs(report.rhs), 1.0)
    assert report.slope > 1.9
    assert np.isfinite(report.c2)


def test_sphere_law_agrees_with_solid_angle_route():
    cap = spherical_cap(1.3, 0.5, 1.1, order=(96, 192))
    chi = Bump(cap.points(0.8, 1.0), 0.4, [0.6, 0.2, 0.7], power=10)
    via_form = first_variation_pair(cap, solid_angle_form(), chi)
    via_law = first_variation_pair(cap, SphereLaw(), chi)
    assert via_form.rhs == pytest.approx(via_law.rhs, rel=1e-9)
    assert abs(via_law.residual) < 1e-7 * max(abs(via_law.rhs), 1.0)


def test_scaled_form_is_not_semicalibrating():
    base = solid_angle_form()
    scaled = type(base)(matrix=lambda x: 1.2 * base.matrix(x),
                        exterior=lambda x: 1.2 * base.exterior(x))
    cap = spherical_cap(1.0, 0.3, 1.2)
    chi = Bump(cap.points(0.7, 0.5), 0.3, [0.0, 0.0, 1.0])
    with pytest.raises(NotSemicalibrated):
        first_variation_pair(cap, scaled, chi)


def flat_disk(order=(64, 128), count=None):
    """Polar chart of the unit disk in the plane z = 0 of R^3; ``count``,
    a one-element list, adds up the chart and jacobian points evaluated."""
    def chart(u, v):
        if count is not None:
            count[0] += np.broadcast(u, v).size
        return np.stack(np.broadcast_arrays(u * np.cos(v), u * np.sin(v),
                                            0.0 * u), axis=-1)

    def jac(u, v):
        if count is not None:
            count[0] += np.broadcast(u, v).size
        z = 0.0 * u * v
        return (np.stack(np.broadcast_arrays(np.cos(v), np.sin(v), z),
                         axis=-1),
                np.stack(np.broadcast_arrays(-u * np.sin(v), u * np.cos(v),
                                             z), axis=-1))

    return ParamSurface(chart, (0.0, 1.0, 0.0, 2 * np.pi), jacobian=jac,
                        order=order)


def test_flat_disk_probes_never_lose_mass():
    disk = flat_disk()
    chi = Bump([0.3, 0.0, 0.0], 0.25, [0.2, 0.1, 1.0])
    rows = almost_minimality_probe(disk, 0.0, chi, epsilons=[0.05, 0.02])
    assert all(row.passed and row.slack >= -1e-10 for row in rows)
    assert all(row.mass_sweep > 0.0 for row in rows)


def inward_field():
    """A bump on the unit sphere that pushes along -p at its center p: the
    flow dents the sphere inward, which only volume credit pays for."""
    p = np.array([0.3, 0.4, np.sqrt(0.75)])
    return Bump(p, 0.5, -p, power=5)


def test_shrinking_sphere_fails_without_volume_credit():
    sphere = spherical_cap(1.0, 0.0, np.pi, order=(64, 128))
    inward = inward_field()
    rows = almost_minimality_probe(sphere, 0.0, inward, epsilons=[0.05])
    assert not rows[0].passed
    good = almost_minimality_probe(sphere, 3.0, inward, epsilons=[0.05])
    assert good[0].passed


# full-grid references: the flowed surface's mass minus the surface's, and
# the sweep's 3x3 Gram determinant by np.linalg.det at every node

def _flowed_mass(surface, chi, t):
    def dphi(x):
        D = bump_jacobian(chi, x)
        return np.eye(D.shape[-1]) + t * D

    return mapped_mass(surface, dphi)


def _full_grid_sweep(surface, chi, eps, tnodes=8):
    tn, tw = gauss_legendre(tnodes, 0.0, eps)
    x, xu, xv, w = surface._frame(surface.order)
    c = bump_vector(chi, x)
    D = bump_jacobian(chi, x)
    total = 0.0
    for t, wt in zip(tn, tw):
        b = xu + t * np.einsum("...ij,...j->...i", D, xu)
        e = xv + t * np.einsum("...ij,...j->...i", D, xv)
        G = np.empty(x.shape[:-1] + (3, 3))
        for i, p in enumerate((c, b, e)):
            for j, q in enumerate((c, b, e)):
                G[..., i, j] = np.sum(p * q, axis=-1)
        vol = np.sqrt(np.maximum(np.linalg.det(G), 0.0))
        total += wt * float(np.sum(w * vol))
    return total


@pytest.mark.parametrize("case", ["disk", "equator", "inward"])
def test_support_probes_match_full_grid(case):
    rng = np.random.default_rng(7)
    if case == "disk":
        surface = flat_disk(order=(96, 192))
        direction = rng.standard_normal(3)
        chi = Bump([0.2, -0.25, 0.0], 0.4, direction
                   / np.linalg.norm(direction), power=10)
        omega, epsilons = 0.0, (0.05, 0.01)
    elif case == "equator":
        surface = spherical_cap(1.0, 0.0, np.pi, dim=4, order=(96, 192))
        u = rng.standard_normal(3)
        center = np.append(u / np.linalg.norm(u), 0.0)
        direction = rng.standard_normal(4)
        chi = Bump(center, 0.5, direction / np.linalg.norm(direction),
                   power=10)
        omega, epsilons = 3.0, (0.05, 0.01)
    else:
        surface = spherical_cap(1.0, 0.0, np.pi, order=(64, 128))
        chi = inward_field()
        omega, epsilons = 3.0, (0.05,)
    mass0 = surface.mass(check=False)
    rows = almost_minimality_probe(surface, omega, chi, epsilons)
    for row, eps in zip(rows, epsilons):
        swept = _full_grid_sweep(surface, chi, eps)
        deformed = _flowed_mass(surface, chi, eps)
        assert row.mass == mass0
        assert abs(row.mass_sweep - swept) <= 1e-9 * swept
        assert abs(row.slack - (omega * swept + deformed - mass0)) <= 1e-14
        assert abs(row.mass_deformed - deformed) <= 1e-14
        assert sweep_mass(surface, chi, eps) == row.mass_sweep
    h = 1e-2
    step = (_flowed_mass(surface, chi, h)
            - _flowed_mass(surface, chi, -h)) / (2 * h)
    assert abs(mass_derivative(surface, chi, h) - step) <= 1e-12


def test_probes_evaluate_the_chart_once_per_surface():
    counts = []
    for probes in (1, 5):
        count = [0]
        disk = flat_disk(count=count)
        for k in range(probes):
            chi = Bump([0.1 * k, 0.2, 0.0], 0.3, [0.3, -0.2, 1.0])
            almost_minimality_probe(disk, 0.0, chi, epsilons=[0.05, 0.02])
        counts.append(count[0])
    assert 0 < counts[1] <= counts[0]


def test_bump_that_misses_the_surface_changes_nothing():
    disk = flat_disk()
    chi = Bump([0.2, 0.1, 0.8], 0.5, [0.0, 0.0, 1.0])
    row, = almost_minimality_probe(disk, 2.0, chi, epsilons=[0.05])
    assert row.mass_sweep == 0.0
    assert row.slack == 0.0
    assert row.mass_deformed == row.mass == disk.mass(check=False)
    assert row.passed


def sheared_graph(order=(32, 32)):
    """A graph over a sheared square chart, whose x_u . x_v is nonzero
    (the disk's and the sphere's charts are orthogonal)."""
    def chart(u, v):
        return np.stack(np.broadcast_arrays(u + 0.4 * v, v,
                                            0.2 * u * u - 0.3 * u * v),
                        axis=-1)

    def jac(u, v):
        one, zero = np.ones_like(u * v), np.zeros_like(u * v)
        return (np.stack(np.broadcast_arrays(one, zero, 0.4 * u - 0.3 * v),
                         axis=-1),
                np.stack(np.broadcast_arrays(0.4 * one, one, -0.3 * u),
                         axis=-1))

    return ParamSurface(chart, (-0.5, 0.5, -0.5, 0.5), jacobian=jac,
                        order=order)


@pytest.mark.parametrize("case", ["disk", "equator", "sheared"])
def test_flow_keeps_the_exact_area_change_and_sweep_rate(case):
    """Per support node, k1 t + k2 t^2 is the change of the Gram
    determinant of the flowed tangents, and |chi ^ x_u(t) ^ x_v(t)| is the
    same at every t."""
    if case == "disk":
        surface = flat_disk()
        chi = Bump([0.3, -0.1, 0.0], 0.4, [0.2, 0.1, 1.0])
    elif case == "sheared":
        surface = sheared_graph()
        chi = Bump([0.1, 0.05, 0.0], 0.35, [0.5, -0.3, 0.8])
    else:
        surface = spherical_cap(1.0, 0.0, np.pi, dim=4, order=(32, 64))
        chi = Bump([0.6, 0.0, 0.8, 0.0], 0.5, [0.1, 0.3, -0.2, 0.9])
    flow = _flow(surface, chi)
    x, xu, xv, w = surface._frame(surface.order)
    keep = np.sum((x - chi.center) ** 2, axis=-1) < chi.radius ** 2
    x, xu, xv, w = x[keep], xu[keep], xv[keep], w[keep]
    assert flow.growth.shape == (2, int(np.sum(keep))) and np.sum(keep) > 100
    c = bump_vector(chi, x)
    D = bump_jacobian(chi, x)
    a = np.einsum("nij,nj->ni", D, xu)
    b = np.einsum("nij,nj->ni", D, xv)

    def gram_det(*vecs):
        G = np.array([[np.sum(p * q, axis=-1) for q in vecs] for p in vecs])
        return np.linalg.det(np.moveaxis(G, (0, 1), (-2, -1)))

    base = gram_det(xu, xv)
    assert np.allclose(flow.area ** 2, base, rtol=1e-13, atol=0.0)
    vols = []
    for t in (-0.7, 0.05, 0.3):
        change = gram_det(xu + t * a, xv + t * b) - base
        assert np.allclose(flow.area_change(0.0, t), change, rtol=0.0,
                           atol=1e-13 * np.max(base))
        vols.append(np.sqrt(np.maximum(gram_det(c, xu + t * a, xv + t * b),
                                       0.0)))
    assert np.max(np.ptp(vols, axis=0)) <= 1e-13
    assert flow.sweep_rate == pytest.approx(float(np.sum(w * vols[0])),
                                            rel=1e-12)


def test_sweep_rate_of_a_nearly_tangent_direction_keeps_full_precision():
    """Probe 29 of desk calib_disk points its bump 7.8e-5 out of the
    disk's plane.  A Gram determinant of (d, x_u, x_v) loses the volume
    element |d ^ x_u ^ x_v| to cancellation there (2.2e-9 relative on
    this probe); |d_perp| A keeps it to roundoff against a long-double
    triple product."""
    config = json.loads((REPO / "configs" / "desk.json").read_text())
    sc = next(s for s in load_config(config) if s.name == "calib_disk")
    rng = sc.rng()
    for _ in range(30):
        chi = calib_bump(rng, "disk", sc.typed.bump_power)
    assert 1e-5 < abs(chi.direction[2]) < 1e-4
    surface = cone_chart(flat_circle(1), order=CALIB_ORDER)
    x, xu, xv, w = surface._frame(surface.order)
    keep = np.sum((x - chi.center) ** 2, axis=-1) < chi.radius ** 2
    f = chi.profile(x[keep])[0]
    d, u, v = (np.asarray(a, dtype=np.longdouble)
               for a in (chi.direction, xu[keep], xv[keep]))
    triple = (d[0] * (u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1])
              - d[1] * (u[:, 0] * v[:, 2] - u[:, 2] * v[:, 0])
              + d[2] * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]))
    want = np.sum(w[keep] * f * np.abs(triple))
    got = _flow(surface, chi).sweep_rate
    assert abs(got - want) <= 1e-14 * want
