"""Monotonicity and decay-envelope tests.

Two hand-derived facts anchor this file.  For the graph surface carrying
a single mode i over a Q-circle of radius rho (a = i/Q > 1):

* ball excess: e(R) = Q (a - 1) c^2 / 2 * (R / rho)^(2(a-1)),
* the deviation integral between s and r equals pi * (e(r) - e(s)),
  because both sides integrate the same |x_perp|^2 density.

And for the comparison rate equation with drift cbar, integrating in
closed form gives e(s) = (s/r)^(a-2) e(r) + A s^(a-2) (r^eps - s^eps)
with A = a cbar / (eps pi), so the fitted envelope coefficient
approaches A (1 - (s/r)^eps) -> A on a deep radius ladder.

The unit sphere seen from one of its points adds a curved case: e = 0
and dev(s, r) = pi (r^2 - s^2) / 4, so its almost-monotonicity constant
has a closed form that only the r^alpha0 term keeps finite.
"""

import numpy as np
import pytest

from tclab.currents import ConeOverCurve, RadialRestriction, annulus_mass
from tclab.errors import VertexTooClose
from tclab.monotonicity import (DecayConstants, MassProfile,
                                deviation_integral, fit_decay, mass_profile,
                                radial_projection_mass,
                                synthesize_decay_profile)
from tclab.scenarios import extension_surface

from oracles import normalize_to_sphere, random_link_curve, sphere_from_pole


@pytest.mark.parametrize("R", [0.2, 0.4, 0.8])
def test_ball_excess_follows_power_law(R):
    Q, i, c = 2, 5, 5e-3
    a = i / Q
    surf = extension_surface(Q, i, c)
    e = annulus_mass(surf, 0.0, R) / (np.pi * R * R) - Q
    pred = 0.5 * Q * (a - 1.0) * c * c * R ** (2.0 * (a - 1.0))
    assert e == pytest.approx(pred, rel=1e-4)


def test_deviation_equals_pi_times_excess_gap():
    surf = extension_surface(2, 5, 5e-3)
    dev = deviation_integral(surf, 0.3, 0.6)
    e = mass_profile(surf, [0.3, 0.6], 2).excess()
    assert dev / (e[1] - e[0]) == pytest.approx(np.pi, rel=1e-4)


def test_cone_has_zero_deviation_and_flat_excess():
    link = normalize_to_sphere(random_link_curve(np.random.default_rng(3)))
    cone = ConeOverCurve(link).chart()
    assert deviation_integral(cone, 0.25, 0.5) < 1e-20
    excess = mass_profile(cone, [0.25, 0.5, 1.0], 1).excess()
    assert np.ptp(excess) < 1e-12


def test_deviation_rejects_vertex_ball():
    surf = extension_surface(1, 2, 1e-2)
    with pytest.raises(VertexTooClose):
        deviation_integral(surf, 0.0, 0.5)


def test_radial_projection_obeys_cauchy_schwarz():
    # |x_perp| / |x|^3 = (|x_perp| / |x|^2) (1 / |x|), so the mass is at
    # most the deviation integral's root times that of the 1/|x|^2 mass
    surf = extension_surface(2, 5, 5e-3)
    value = radial_projection_mass(surf, 0.3, 0.6)
    i1_sq = deviation_integral(surf, 0.3, 0.6)
    i2_sq = RadialRestriction(surf, 0.3, 0.6).integrate_density(
        lambda x, xu, xv: 1.0 / np.sum(x * x, axis=-1))
    assert 0.0 < value <= np.sqrt(i1_sq * i2_sq) * (1.0 + 1e-12)


def test_radial_projection_builds_one_frame(monkeypatch):
    frames = []
    build = RadialRestriction._frame

    def counted(self, order):
        frames.append(order)
        return build(self, order)

    monkeypatch.setattr(RadialRestriction, "_frame", counted)
    radial_projection_mass(extension_surface(2, 5, 5e-3), 0.3, 0.6)
    assert len(frames) == 1


def _slabs(surface, radii):
    return [deviation_integral(surface, s, r)
            for s, r in zip(radii[:-1], radii[1:])]


def test_graph_surface_passes_monotonicity_with_tiny_constant():
    surf = extension_surface(2, 5, 5e-3)
    radii = 0.4 * 2.0 ** -np.arange(5, -1, -1.0)
    report = fit_decay(mass_profile(surf, radii, 2),
                       DecayConstants(epsilon12=0.1), _slabs(surf, radii))
    assert report.passed
    assert not report.infeasible
    assert report.c02 < 1e-3


@pytest.mark.parametrize("alpha0, closed_form, passed", [
    (1.0, np.pi / 8 * (1.0 - 1.0 / 64 ** 2), True),
    (3.0, 12.0 * np.pi, False)])
def test_sphere_from_a_point_fits_its_closed_form_c02(alpha0, closed_form,
                                                       passed):
    # e = 0 and dev(s, r) = pi (r^2 - s^2) / 4, so C02 is the largest
    # pi (r^2 - s^2) / (4 r^alpha0) over the pairs of seven dyadic radii
    surf = sphere_from_pole()
    radii = 0.5 * 2.0 ** -np.arange(6, -1, -1.0)
    profile = mass_profile(surf, radii, 1)
    assert np.max(np.abs(profile.excess())) < 1e-13
    s, r = np.meshgrid(radii, radii, indexing="ij")
    pairs = s < r
    want = np.max(np.pi * (r[pairs] ** 2 - s[pairs] ** 2)
                  / (4.0 * r[pairs] ** alpha0))
    assert want == pytest.approx(closed_form, rel=1e-15)
    report = fit_decay(profile, DecayConstants(epsilon12=0.1, alpha0=alpha0),
                       _slabs(surf, radii))
    assert report.c02 == pytest.approx(want, rel=1e-12)
    assert not report.infeasible
    assert report.passed is passed


def test_pair_with_no_positive_right_hand_side_fails_the_fit():
    # e falls from 1 to 0 between s = 0.1 and r = 0.2, so
    # e(r) - e(s) + r^alpha0 = -0.8 and no C02 can close the pair
    radii = np.array([0.1, 0.2])
    profile = MassProfile(radii, np.pi * radii ** 2 * (1.0 + np.array(
        [1.0, 0.0])), Q=1)
    report = fit_decay(profile, DecayConstants(epsilon12=0.1), [0.0])
    assert report.infeasible == [(0.1, 0.2)]
    assert report.c02 == 0.0 and not report.passed


def test_synthesized_profile_fits_its_own_envelope():
    constants = DecayConstants(epsilon12=0.1, cbar=0.5, eps=0.5)
    a = constants.a
    radii = 1.0 * 2.0 ** -np.arange(9, -1, -1.0)
    profile = synthesize_decay_profile(constants, e0=1e-2, r0=1.0,
                                       radii=radii)
    report = fit_decay(profile, constants)
    # without slab deviations only the envelope is fitted
    assert report.passed and report.c02 is None
    target = a * constants.cbar / (constants.eps * np.pi)
    assert abs(report.c - target) <= 0.05 * target


def test_zero_drift_profile_needs_no_envelope_constant():
    constants = DecayConstants(epsilon12=0.1, cbar=0.0, eps=0.5)
    radii = 1.0 * 2.0 ** -np.arange(5, -1, -1.0)
    profile = synthesize_decay_profile(constants, e0=1e-2, r0=1.0,
                                       radii=radii)
    assert fit_decay(profile, constants).c < 1e-12


def test_decay_constants_validation():
    with pytest.raises(ValueError):
        DecayConstants(epsilon12=1.5)
    with pytest.raises(ValueError):
        DecayConstants(epsilon12=0.2, alpha0=-1.0)
    with pytest.raises(ValueError):
        DecayConstants(epsilon12=0.8)  # a = 10 breaks 2 + alpha0 > eps + a
