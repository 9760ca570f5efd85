"""Plane clustering and splitting tests.

Oracles: a Q-circle of radius 1 has length 2 pi Q, and a point near
both of two orthogonal planes lies in both tubes.  Two planes meeting at
angle phi along a common line have tubes of width w that overlap on
their bisector out to distance w / sin(phi / 2) from that line.
"""

import numpy as np
import pytest

from tclab.decomposition import (EmbeddedCurve, cluster_by_planes,
                                 split_current)
from tclab.errors import TubesOverlap
from tclab.geom import Plane2
from tclab.scenarios import orthogonal_planes_instance


def test_cluster_assigns_points_to_their_tube():
    e = np.eye(4)
    planes = [Plane2(e1=e[0], e2=e[1]), Plane2(e1=e[2], e2=e[3])]
    pts = np.array([[1.0, 0.2, 0.01, 0.0],
                    [0.0, 0.01, 0.8, -0.4],
                    [0.3, 0.3, 0.3, 0.3]])
    labels = cluster_by_planes(pts, planes, width=0.05)
    assert list(labels) == [0, 1, -1]


def test_cluster_order_is_equivariant():
    e = np.eye(4)
    planes = [Plane2(e1=e[0], e2=e[1]), Plane2(e1=e[2], e2=e[3])]
    rng = np.random.default_rng(12)
    pts = np.concatenate([
        np.column_stack([rng.normal(size=(30, 2)) + 2.0,
                         rng.uniform(-0.03, 0.03, size=(30, 2))]),
        np.column_stack([rng.uniform(-0.03, 0.03, size=(30, 2)),
                         rng.normal(size=(30, 2)) + 2.0])])
    a = cluster_by_planes(pts, planes, 0.05)
    b = cluster_by_planes(pts, planes[::-1], 0.05)
    assert np.array_equal(a, 1 - b)


def test_cluster_distances_are_normal_distances():
    e = np.eye(4)
    planes = [Plane2(e1=e[0], e2=e[1]), Plane2(e1=e[2], e2=e[3])]
    pts = np.array([[3.0, -1.0, 0.03, 0.04],
                    [0.5, 0.0, 2.0, 1.0]])
    labels = cluster_by_planes(pts, planes, width=0.1)
    assert list(labels) == [0, -1]


def test_overlap_radius_oracle():
    e = np.eye(4)
    w, phi = 0.05, 0.4
    p = Plane2(e1=e[0], e2=e[1])
    tilted = Plane2(e1=np.cos(phi) * e[0] + np.sin(phi) * e[2], e2=e[1])
    bisector = np.cos(phi / 2) * e[0] + np.sin(phi / 2) * e[2]
    reach = w / np.sin(phi / 2)
    with pytest.raises(TubesOverlap):
        cluster_by_planes([0.99 * reach * bisector], [p, tilted], w)
    beyond = cluster_by_planes([1.01 * reach * bisector], [p, tilted], w)
    assert list(beyond) == [-1]


def test_identical_planes_never_separate():
    e = np.eye(4)
    p = Plane2(e1=e[0], e2=e[1])
    for radius in (1.0, 1e3):
        with pytest.raises(TubesOverlap):
            cluster_by_planes([[radius, 0.0, 0.01, 0.0]], [p, p], 0.1)


def test_cluster_rejects_overlapping_tubes():
    e = np.eye(4)
    planes = [Plane2(e1=e[0], e2=e[1]), Plane2(e1=e[2], e2=e[3])]
    pts = np.array([[0.01, 0.0, 0.02, 0.0]])  # near both planes
    with pytest.raises(TubesOverlap):
        cluster_by_planes(pts, planes, width=0.05)


@pytest.mark.parametrize("cols", [[0, 1], [0, 1, 1]],
                         ids=["too few columns", "repeated column"])
def test_embedded_curve_rejects_bad_frame(cols):
    curve = orthogonal_planes_instance()[0].curve
    with pytest.raises(ValueError):
        EmbeddedCurve(curve=curve, frame=np.eye(4)[:, cols])


def test_split_two_orthogonal_circles():
    curves = orthogonal_planes_instance(Q_list=(1, 2))
    planes = [c.plane() for c in curves]
    result = split_current(curves, planes, width=0.05)
    assert result.passed
    assert result.multiplicities == [1, 2]
    assert sum(result.multiplicities) == sum(c.curve.Q for c in curves)
    assert abs(result.total_mass - sum(result.masses)) < 1e-9
    assert result.masses[0] == pytest.approx(2.0 * np.pi, rel=1e-12)
    assert result.masses[1] == pytest.approx(4.0 * np.pi, rel=1e-12)


def test_split_reports_stray_curve():
    curves = orthogonal_planes_instance(Q_list=(1, 1))
    planes = [c.plane() for c in curves]
    rot = np.eye(4)
    c, s = np.cos(0.7), np.sin(0.7)
    rot[0, 0], rot[0, 2], rot[2, 0], rot[2, 2] = c, -s, s, c
    stray = EmbeddedCurve(curve=curves[0].curve,
                          frame=rot @ curves[0].frame)
    result = split_current(list(curves) + [stray], planes, width=0.05)
    assert not result.passed
    assert result.groups == [[0], [1]]


def test_split_rejects_a_curve_that_leaves_its_first_tube():
    # a circle through e_0 tilted out of plane 0 starts inside that tube
    # and leaves it, so its labels read 0 first and then -1
    curves = orthogonal_planes_instance(Q_list=(1, 1))
    planes = [c.plane() for c in curves]
    c, s = np.cos(0.7), np.sin(0.7)
    frame = np.zeros((4, 3))
    frame[0, 0] = 1.0
    frame[1:3, 1:] = [[c, -s], [s, c]]
    tilted = EmbeddedCurve(curve=curves[0].curve, frame=frame)
    labels = cluster_by_planes(tilted.points(), planes, 0.05)
    assert labels[0] == 0 and np.any(labels < 0)
    result = split_current(list(curves) + [tilted], planes, width=0.05)
    assert not result.passed
    assert result.groups == [[0], [1]]
    assert result.multiplicities == [1, 1]
