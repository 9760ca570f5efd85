"""Calibration form and first-variation tests.

The solid-angle form acts on (v, w) at x as det[x/|x|, v, w]: its
comass is exactly one everywhere, it calibrates every centered sphere,
and its exterior derivative is (2/|x|) times the volume form, so the
sphere's first-variation law carries the factor 2/R.
"""

import numpy as np
import pytest

from tclab.calibration import (SphereLaw, almost_minimality_probe,
                               bump_field, calibration_defect,
                               comass_field_check, extend_form,
                               first_variation_pair, solid_angle_form,
                               spherical_cap, sweep_mass)
from tclab.errors import FormUndefined, NotSemicalibrated
from tclab.geom import standard_plane


def random_points(m=40, seed=0, scale=2.0, dim=3):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(m, dim)) * scale
    keep = np.linalg.norm(pts, axis=1) > 0.3
    return pts[keep]


def test_solid_angle_has_unit_comass():
    worst, ok = comass_field_check(solid_angle_form(), random_points())
    assert ok
    assert worst == pytest.approx(1.0, abs=1e-12)


def test_solid_angle_exterior_matches_finite_differences():
    gap = solid_angle_form().check_consistency(random_points(20, seed=3))
    assert gap < 1e-7


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
    via_law = first_variation_pair(cap, SphereLaw(radius=1.3), chi)
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


def test_extend_form_restricts_to_plane_area_form():
    plane = standard_plane(3)
    form = extend_form(plane, 0.5)
    on_plane = np.array([[0.3, -0.7, 0.0], [1.4, 0.2, 0.0]])
    assert np.allclose(form.matrix(on_plane), plane.wedge_matrix())
    far = np.array([[0.0, 0.0, 0.9]])
    assert np.allclose(form.matrix(far), 0.0)
    worst, ok = comass_field_check(form, random_points(60, seed=4))
    assert ok and worst <= 1.0 + 1e-12
    off = np.array([[0.2, 0.1, 0.31], [0.4, -0.3, 0.42]])
    assert form.check_consistency(off, tol=1e-5) < 1e-5


def test_flat_disk_probes_never_lose_mass():
    plane = standard_plane(3)

    def chart(u, v):
        r = u
        return np.stack([r * np.cos(v), r * np.sin(v),
                         np.zeros_like(r)], axis=-1)

    def jac(u, v):
        r = u
        return (np.stack([np.cos(v), np.sin(v), np.zeros_like(r)], axis=-1),
                np.stack([-r * np.sin(v), r * np.cos(v),
                          np.zeros_like(r)], axis=-1))

    from tclab.currents import ParamSurface
    disk = ParamSurface(chart, (0.0, 1.0, 0.0, 2 * np.pi), jacobian=jac,
                        order=(64, 128))
    chi = bump_field([0.3, 0.0, 0.0], 0.25, [0.2, 0.1, 1.0])
    rows = almost_minimality_probe(disk, 0.0, chi, epsilons=[0.05, 0.02])
    assert all(row.passed and row.slack >= -1e-10 for row in rows)
    assert all(row.mass_sweep > 0.0 for row in rows)


def test_shrinking_sphere_fails_without_volume_credit():
    sphere = spherical_cap(1.0, 0.0, np.pi, order=(64, 128))

    def func(x):
        return -np.asarray(x, dtype=float)

    def jac(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(-np.eye(3), x.shape[:-1] + (3, 3))

    from tclab.calibration import TestVectorField
    inward = TestVectorField(func=func, jac=jac, center=np.zeros(3),
                             radius=np.inf)
    rows = almost_minimality_probe(sphere, 0.0, inward, epsilons=[0.05])
    assert not rows[0].passed
    good = almost_minimality_probe(sphere, 3.0, inward, epsilons=[0.05])
    assert good[0].passed
