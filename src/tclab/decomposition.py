"""Splitting multi-plane configurations into single-plane components.

A union of winding curves near several planes is grouped curve by curve:
each sample point is labelled with the plane whose tube (normal distance
below a fixed width) contains it, and a curve joins a plane's group when
all its samples carry that plane's label.  The grouping is only
meaningful while the tubes stay disjoint over the sampled region, so a
sample inside two tubes is an error, not a tie to break.
"""

from dataclasses import dataclass

import numpy as np

from .currents import WindingCurve, curve_mass
from .errors import TubesOverlap
from .geom import ORTHO_TOL, Plane2, rownorm


@dataclass(frozen=True)
class EmbeddedCurve:
    """Winding curve placed in ambient space by an orthonormal frame.

    ``frame`` has shape (D, 2 + n); its first two columns span the
    reference plane of the curve's cylinder coordinates.
    """

    curve: WindingCurve
    frame: np.ndarray

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=float)
        object.__setattr__(self, "frame", frame)
        if frame.ndim != 2 or frame.shape[1] != 2 + self.curve.n:
            raise ValueError("frame must have 2 + n orthonormal columns")
        if not np.allclose(frame.T @ frame, np.eye(frame.shape[1]),
                           atol=100 * ORTHO_TOL):
            raise ValueError("frame columns must be orthonormal")

    def plane(self) -> Plane2:
        return Plane2(e1=self.frame[:, 0].copy(), e2=self.frame[:, 1].copy())

    def points(self) -> np.ndarray:
        """The curve's M samples in ambient space (trace table rows ::4)."""
        return self.curve.trace_table[0][::4] @ self.frame.T


def cluster_by_planes(points, planes, width: float) -> np.ndarray:
    """Label each point with the index of the unique plane tube containing it.

    Points in no tube get the label -1.  Raises TubesOverlap when any
    point lies inside two tubes.
    """
    points = np.asarray(points, dtype=float)
    dists = np.stack([rownorm(points - points @ p.projector())
                      for p in planes], axis=1)
    inside = dists <= width
    counts = np.sum(inside, axis=1)
    if np.any(counts > 1):
        k = int(np.argmax(counts > 1))
        raise TubesOverlap(
            f"point {points[k]} lies within width {width} of "
            f"{int(counts[k])} planes")
    return np.where(counts == 1, np.argmax(inside, axis=1), -1)


@dataclass(frozen=True)
class SplitResult:
    """Outcome of splitting curves by plane tubes; groups hold indices."""

    groups: list
    multiplicities: list
    masses: list
    total_mass: float
    passed: bool


def split_current(curves, planes, width: float) -> SplitResult:
    """Group embedded curves, by index, by the plane tube containing them.

    Every sample of a curve must fall in the same tube, otherwise that
    curve joins no group and the split fails.  Each curve's mass is
    computed once; a group's mass is the sum over its curves and the
    total the sum over all curves.  Raises TubesOverlap via the
    underlying clustering when tubes intersect the samples.
    """
    groups = [[] for _ in planes]
    group_mass = [0.0] * len(planes)
    passed = True
    masses = [curve_mass(c.curve) for c in curves]
    for k, (c, m) in enumerate(zip(curves, masses)):
        labels = cluster_by_planes(c.points(), planes, width)
        label = int(labels[0])
        if label >= 0 and np.all(labels == label):
            groups[label].append(k)
            group_mass[label] += m
        else:
            passed = False
    total = float(sum(masses))
    mult = [int(sum(curves[k].curve.Q for k in g)) for g in groups]
    return SplitResult(groups=groups, multiplicities=mult,
                       masses=group_mass, total_mass=total, passed=passed)
