"""Calibration form and first-variation tests.

The solid-angle form acts on (v, w) at x as det[x/|x|, v, w]: its
comass is exactly one everywhere, it calibrates every centered sphere,
and its exterior derivative is (2/|x|) times the volume form, so the
sphere's first-variation law carries the factor 2/R.
"""

import numpy as np
import pytest

from tclab.calibration import (_flow, almost_minimality_probe, bump_field,
                               spherical_cap, sweep_mass)
from tclab.currents import ParamSurface
from tclab.quadrature import gauss_legendre

from oracles import (FormUndefined, NotSemicalibrated, SphereLaw,
                     calibration_defect, first_variation_pair, mapped_mass,
                     mass_derivative, solid_angle_form)


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
    bump = bump_field([0.2, -0.1, 0.4], 0.9, [0.3, 1.0, -0.5], power=5)
    pts = random_points(25, seed=9, scale=0.5) + bump.center
    h = 1e-6
    J = np.asarray(bump.jac(pts))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (bump.func(pts + e) - bump.func(pts - e)) / (2 * h)
        assert np.allclose(J[..., :, i], fd, atol=1e-8)


def test_first_variation_on_sphere_cap():
    cap = spherical_cap(1.0, 0.4, 1.2, order=(96, 192))
    chi = bump_field(cap.points(0.8, 0.3), 0.35, [0.1, -0.4, 1.0],
                     power=10)
    report = first_variation_pair(cap, solid_angle_form(), chi,
                                  steps=(1e-2, 1e-3, 1e-4))
    assert abs(report.residual) < 1e-8 * max(abs(report.rhs), 1.0)
    assert report.slope > 1.9
    assert np.isfinite(report.c2)


def test_sphere_law_agrees_with_solid_angle_route():
    cap = spherical_cap(1.3, 0.5, 1.1, order=(96, 192))
    chi = bump_field(cap.points(0.8, 1.0), 0.4, [0.6, 0.2, 0.7], power=10)
    via_form = first_variation_pair(cap, solid_angle_form(), chi)
    via_law = first_variation_pair(cap, SphereLaw(), chi)
    assert via_form.rhs == pytest.approx(via_law.rhs, rel=1e-9)
    assert abs(via_law.residual) < 1e-7 * max(abs(via_law.rhs), 1.0)


def test_scaled_form_is_not_semicalibrating():
    base = solid_angle_form()
    scaled = type(base)(matrix=lambda x: 1.2 * base.matrix(x),
                        exterior=lambda x: 1.2 * base.exterior(x))
    cap = spherical_cap(1.0, 0.3, 1.2)
    chi = bump_field(cap.points(0.7, 0.5), 0.3, [0.0, 0.0, 1.0])
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
    chi = bump_field([0.3, 0.0, 0.0], 0.25, [0.2, 0.1, 1.0])
    rows = almost_minimality_probe(disk, 0.0, chi, epsilons=[0.05, 0.02])
    assert all(row.passed and row.slack >= -1e-10 for row in rows)
    assert all(row.mass_sweep > 0.0 for row in rows)


def inward_field():
    """chi(x) = -x everywhere: the flow shrinks spheres about the origin."""
    from tclab.calibration import TestVectorField

    def func(x):
        return -np.asarray(x, dtype=float)

    def jac(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(-np.eye(3), x.shape[:-1] + (3, 3))

    return TestVectorField(func=func, jac=jac, center=np.zeros(3),
                           radius=np.inf)


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
        D = np.asarray(chi.jac(x), dtype=float)
        return np.eye(D.shape[-1]) + t * D

    return mapped_mass(surface, dphi)


def _full_grid_sweep(surface, chi, eps, tnodes=8):
    tn, tw = gauss_legendre(tnodes, 0.0, eps)
    x, xu, xv, w = surface._frame(surface.order)
    c = chi.func(x)
    D = np.asarray(chi.jac(x), dtype=float)
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
        chi = bump_field([0.2, -0.25, 0.0], 0.4, direction
                         / np.linalg.norm(direction), power=10)
        omega, epsilons = 0.0, (0.05, 0.01)
    elif case == "equator":
        surface = spherical_cap(1.0, 0.0, np.pi, dim=4, order=(96, 192))
        u = rng.standard_normal(3)
        center = np.append(u / np.linalg.norm(u), 0.0)
        direction = rng.standard_normal(4)
        chi = bump_field(center, 0.5, direction / np.linalg.norm(direction),
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
            chi = bump_field([0.1 * k, 0.2, 0.0], 0.3, [0.3, -0.2, 1.0])
            almost_minimality_probe(disk, 0.0, chi, epsilons=[0.05, 0.02])
        counts.append(count[0])
    assert 0 < counts[1] <= counts[0]


def test_bump_that_misses_the_surface_changes_nothing():
    disk = flat_disk()
    chi = bump_field([0.2, 0.1, 0.8], 0.5, [0.0, 0.0, 1.0])
    row, = almost_minimality_probe(disk, 2.0, chi, epsilons=[0.05])
    assert row.mass_sweep == 0.0
    assert row.slack == 0.0
    assert row.mass_deformed == row.mass == disk.mass(check=False)
    assert row.passed


@pytest.mark.parametrize("case", ["disk", "equator"])
def test_flow_gram_is_the_symmetric_table_of_support_products(case):
    if case == "disk":
        surface = flat_disk()
        chi = bump_field([0.3, -0.1, 0.0], 0.4, [0.2, 0.1, 1.0])
    else:
        surface = spherical_cap(1.0, 0.0, np.pi, dim=4, order=(32, 64))
        chi = bump_field([0.6, 0.0, 0.8, 0.0], 0.5, [0.1, 0.3, -0.2, 0.9])
    g = _flow(surface, chi).gram
    x, xu, xv, _ = surface._frame(surface.order)
    keep = np.sum((x - chi.center) ** 2, axis=-1) < chi.radius ** 2
    x, xu, xv = x[keep], xu[keep], xv[keep]
    D = chi.jac(x)
    vecs = (chi.func(x), xu, xv, np.einsum("nij,nj->ni", D, xu),
            np.einsum("nij,nj->ni", D, xv))
    assert g.shape == (5, 5, int(np.sum(keep))) and g.shape[-1] > 100
    assert np.array_equal(g, np.swapaxes(g, 0, 1))
    for i, p in enumerate(vecs):
        for j, q in enumerate(vecs):
            assert np.array_equal(g[i, j], np.sum(p * q, axis=-1))
