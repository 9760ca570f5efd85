"""Mass and restriction tests against closed-form areas.

Oracles: a Q-fold circle of radius rho has length 2 pi Q rho, a flat
disk of radius R has area pi R^2, the round 2-sphere of radius R has
area 4 pi R^2, and the annulus s < |x| < r in a flat disk has area
pi (r^2 - s^2).  The cone over a curve on the unit sphere has mass
equal to half the curve's length.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tclab.calibration import spherical_cap
from tclab.currents import (ConeOverCurve, ParamSurface, WindingCurve,
                            annulus_mass, cone_mass, curve_mass, load_curve,
                            normalize_to_sphere, save_curve)
from tclab.errors import EmptyRestriction
from tclab.fourier import FourierSeries
from tclab.geom import random_rotation
from tclab.scenarios import random_link_curve, single_mode_curve


def flat_disk(radius, multiplicity=1, order=(48, 96)):
    def chart(u, v):
        r = radius * u
        return np.stack([r * np.cos(v), r * np.sin(v),
                         np.zeros_like(r)], axis=-1)

    def jac(u, v):
        r = radius * u
        du = np.stack([radius * np.cos(v), radius * np.sin(v),
                       np.zeros_like(r)], axis=-1)
        dv = np.stack([-r * np.sin(v), r * np.cos(v),
                       np.zeros_like(r)], axis=-1)
        return du, dv

    return ParamSurface(chart, (0.0, 1.0, 0.0, 2.0 * np.pi),
                        jacobian=jac, multiplicity=multiplicity,
                        order=order, radial_axis=0,
                        radius_solver=lambda c, v: np.full_like(
                            np.asarray(v, dtype=float), c / radius))


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
    shift = np.array([0.4, -0.2, 1.1])
    moved = disk.pushforward(lambda x: x @ R.T + shift,
                             dphi=lambda x: np.broadcast_to(R, (len(x), 3, 3)))
    assert abs(moved.mass() - disk.mass()) < 1e-9


def test_annulus_restriction_area():
    disk = flat_disk(1.0)
    got = disk.restrict(0.3, 0.8).mass()
    assert abs(got - np.pi * (0.8 ** 2 - 0.3 ** 2)) < 1e-9
    double = annulus_mass(flat_disk(1.0, multiplicity=2), 0.3, 0.8)
    assert abs(double - 2.0 * got) < 1e-9


def test_empty_restriction_raises():
    with pytest.raises(EmptyRestriction):
        flat_disk(1.0).restrict(1.5, 2.0)


def test_restriction_additivity():
    disk = flat_disk(1.0)
    whole = disk.restrict(0.2, 0.9).mass()
    parts = disk.restrict(0.2, 0.55).mass() + disk.restrict(0.55, 0.9).mass()
    assert abs(whole - parts) < 1e-9


def test_cone_mass_halves_spherical_link_length():
    rng = np.random.default_rng(11)
    link = normalize_to_sphere(random_link_curve(rng))
    cone = ConeOverCurve(np.zeros(link.points(np.zeros(1)).shape[-1]),
                         link, 1.0)
    assert abs(cone_mass(cone) - 0.5 * curve_mass(link)) < 1e-10


@given(st.integers(1, 3), st.floats(0.5, 2.0))
@settings(max_examples=10, deadline=None)
def test_cone_over_flat_circle_is_disk(Q, rho):
    zero = FourierSeries(Q=Q, n=1, alpha=np.zeros((1, 1)),
                         beta=np.zeros((0, 1)))
    curve = WindingCurve.from_fourier(zero, rho=rho)
    cone = ConeOverCurve(np.zeros(3), curve)
    assert abs(cone_mass(cone) - Q * np.pi * rho ** 2) < 1e-9


def test_curve_roundtrip_through_file(tmp_path):
    curve = single_mode_curve(2, 3, 0.05, n=2, rho=1.3, phase=0.7)
    path = tmp_path / "curve.json"
    save_curve(path, curve)
    back = load_curve(path)
    theta = np.linspace(0.0, curve.period, 40)
    assert back.Q == curve.Q and back.rho == curve.rho
    assert np.allclose(back.points(theta), curve.points(theta), atol=1e-15)
