"""Flat-distance estimate tests.

Hand oracles: a single mode i over Q = 1 with a = i / Q = 2 makes the
radial sweep bound homogeneous of degree a - 1 = 1, so halving both
radii halves the bound.  For that surface with amplitude c the normal
part of the position is c (a - 1) r^a |cos(2 theta)| to first order in
c.  The bound sweeps the Cauchy-Schwarz bound sqrt(D J) of the radial
projection mass: over the annulus (s, r) the deviation integral is
D = c^2 pi (r^2 - s^2) / 2, since cos^2(2 theta) averages 1/2, and
J = 2 pi ln(r / s), so sqrt(D J) = c pi sqrt((r^2 - s^2) ln(r / s)),
and the sweep bound, its t^3-weighted integral over t in (0, 1), is a
quarter of that.  A cone is invariant under the radial sweep, so its
bound vanishes.
"""

import numpy as np
import pytest

from tclab.currents import ParamSurface, cone_chart
from tclab.errors import VertexTooClose
from tclab.flat import radial_homotopy_filling
from tclab.fourier import harmonic_extension
from tclab.scenarios import (Scenario, extension_surface, render_artifact,
                             run_scenario, single_mode_series)

from oracles import random_link_curve


def test_radial_filling_scales_like_radius():
    surf = extension_surface(1, 2, 1e-2)
    bounds = [radial_homotopy_filling(surf, 0.1 / 2 ** k, 0.2 / 2 ** k)
              for k in range(3)]
    for big, small in zip(bounds, bounds[1:]):
        assert small == pytest.approx(big / 2.0, rel=1e-4)


@pytest.mark.parametrize("s,r", [(0.1, 0.5), (0.2, 0.9)])
def test_radial_filling_of_small_wiggle(s, r):
    # the first-order oracle is exact up to O(c^2), and both integrands
    # are smooth, so the run order reads it as closely as a fine one
    c = 1e-3
    ext = harmonic_extension(single_mode_series(1, 2, c), 1.0)
    want = c * np.pi * np.sqrt((r * r - s * s) * np.log(r / s)) / 4.0
    for order in ((48, 256), (32, 32)):
        surf = ParamSurface(ext.chart, ext.domain, jacobian=ext.jacobian,
                            order=order)
        bound = radial_homotopy_filling(surf, s, r)
        assert bound == pytest.approx(want, rel=1e-4)


def test_desk_flat_bound_is_converged_at_the_run_order():
    # the desk flat_sweep surface at its outermost level; the kinked
    # |x_perp| integrand sat 4.7e-3 relative away from its fine value
    ext = extension_surface(1, 2, 1e-2)
    fine = ParamSurface(ext.chart, ext.domain, jacobian=ext.jacobian,
                        order=(64, 2048))
    assert ext.order == (32, 32)
    got, want = (radial_homotopy_filling(surf, 0.25, 0.5)
                 for surf in (ext, fine))
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_radial_filling_is_linear_in_small_amplitude():
    a, b = (radial_homotopy_filling(extension_surface(1, 2, c), 0.1, 0.5)
            for c in (1e-3, 2e-3))
    assert b == pytest.approx(2.0 * a, rel=1e-5)


@pytest.mark.parametrize("Q", [1, 3])
def test_flat_disk_has_zero_radial_filling(Q):
    surf = extension_surface(Q, 2 * Q, 0.0)
    assert 0.0 <= radial_homotopy_filling(surf, 0.1, 0.5) < 1e-14


@pytest.mark.parametrize("seed", [0, 1])
def test_cone_has_zero_radial_filling(seed):
    link = random_link_curve(np.random.default_rng(seed))
    cone = cone_chart(link)
    assert 0.0 <= radial_homotopy_filling(cone, 0.1, 0.5) < 1e-14


def test_radial_filling_rejects_vertex_ball():
    surf = extension_surface(1, 2, 1e-2)
    with pytest.raises(VertexTooClose):
        radial_homotopy_filling(surf, 0.0, 0.5)


def test_flat_artifact_filling_is_bound_and_residual_is_zero():
    sc = Scenario(name="flat", kind="flat", seed=0,
                  params={"Q": 1, "mode": 2, "amplitude": 1e-2, "levels": 3})
    lines = render_artifact(run_scenario(sc)).splitlines()
    assert lines[0] == "r,s,bound,filling,residual,verdict"
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 3
    for r, s, bound, filling, residual, verdict in rows:
        assert filling == bound
        assert residual == "0.0"
        assert verdict == "PASS"
