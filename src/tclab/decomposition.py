"""Splitting multi-plane configurations into single-plane components.

A union of winding curves near several planes is grouped by assigning
every sample point to the plane whose tube (normal distance below a
fixed width) contains it.  The grouping is only meaningful while the
tubes stay disjoint over the sampled region, so a sample inside two
tubes is an error, not a tie to break.
"""

from dataclasses import dataclass, field

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

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    def plane(self) -> Plane2:
        return Plane2(e1=self.frame[:, 0].copy(), e2=self.frame[:, 1].copy())

    def points(self) -> np.ndarray:
        """The curve's M samples in ambient space."""
        theta = np.arange(self.curve.M) * (self.curve.period / self.curve.M)
        return self.curve.jet(theta)[0] @ self.frame.T

    def mass(self) -> float:
        return curve_mass(self.curve)


@dataclass(frozen=True)
class PlaneCluster:
    """Assignment of sample points to plane tubes."""

    planes: list
    width: float
    assignment: np.ndarray
    distances: np.ndarray
    complete: bool

    @property
    def unassigned(self) -> np.ndarray:
        return self.assignment < 0


def cluster_by_planes(points, planes, width: float) -> PlaneCluster:
    """Assign each point to the unique plane tube containing it.

    Raises TubesOverlap when any point lies inside two tubes; points in
    no tube are left unassigned and mark the cluster incomplete.
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
    assignment = np.where(counts == 1, np.argmax(inside, axis=1), -1)
    return PlaneCluster(planes=list(planes), width=width,
                        assignment=assignment.astype(int),
                        distances=np.min(dists, axis=1),
                        complete=bool(np.all(counts == 1)))


@dataclass(frozen=True)
class SplitResult:
    """Outcome of splitting a multi-curve current by plane tubes."""

    groups: list
    multiplicities: list
    masses: list
    total_mass: float
    cluster: PlaneCluster
    passed: bool
    unassigned_curves: list = field(default_factory=list)


def split_current(curves, planes, width: float) -> SplitResult:
    """Group embedded curves by the plane tube containing them.

    Every sample of a curve must fall in the same tube, otherwise that
    curve counts as unassigned and the split fails.  Each curve's mass is
    computed once; a group's mass is the sum over its curves and the
    total the sum over all curves.  Raises TubesOverlap via the
    underlying clustering when tubes intersect the samples.
    """
    groups = [[] for _ in planes]
    group_mass = [0.0] * len(planes)
    unassigned = []
    masses = [c.mass() for c in curves]
    all_points = np.concatenate([c.points() for c in curves], axis=0)
    cluster = cluster_by_planes(all_points, planes, width)
    offset = 0
    for c, m in zip(curves, masses):
        k = c.curve.M
        labels = cluster.assignment[offset:offset + k]
        offset += k
        label = int(labels[0])
        if label >= 0 and np.all(labels == label):
            groups[label].append(c)
            group_mass[label] += m
        else:
            unassigned.append(c)
    total = float(sum(masses))
    mult = [int(sum(c.curve.Q for c in g)) for g in groups]
    return SplitResult(groups=groups, multiplicities=mult,
                       masses=group_mass, total_mass=total,
                       cluster=cluster, passed=not unassigned,
                       unassigned_curves=unassigned)
