"""Planes, projections and two-(co)vector norms in R^(2+n).

Ambient vectors are plain numpy arrays.  A two-covector (or two-vector) is
stored as the antisymmetric matrix A with value(v, w) = v @ A @ w; the
wedge u ^ v corresponds to outer(u, v) - outer(v, u).

Norm conventions fixed here and used everywhere else:

* the mass norm of a two-vector is the sum of its spectral pair values,
  i.e. half the nuclear norm of the matrix.  Tangent-minus-plane distances
  |T - tau| are measured in this norm.
* the Euclidean norm of a two-vector is sqrt(1/2 sum A_ij^2); it agrees
  with the mass norm on simple two-vectors.
* the comass of a two-covector is its largest singular value, which for
  antisymmetric matrices equals the maximum of v @ A @ w over orthonormal
  pairs (v, w).  No run evaluates a comass; the test oracles' form
  fields measure it this way.

In dimension d <= 4 (codimension at most two, every family built here) a
two-vector has at most two spectral pair values s1, s2, with
|A|^2 = 1/2 sum A_ij^2 = s1^2 + s2^2 and Pfaffian
Pf A = a01 a23 - a02 a13 + a03 a12 = +-s1 s2, so the mass norm has the
closed form sqrt(|A|^2 + 2 |Pf A|) (Pf is absent for d = 2, 3, where every
two-vector is simple).  The |Pf| term is where the norm fails to be
smooth: it switches on at a linear rate as a two-vector leaves the simple
ones, which is the kink the two-part tilt certificate in
``epiperimetric`` is built for.  From d = 5 on the norm is computed from a
singular value decomposition.

Dot products and norms of vectors stored along a short last axis (the
coordinates of points, tangents and tilts) go through ``rowdot`` and
``rownorm``, which add the coordinates left to right.
"""

from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-12


def rowdot(a, b) -> np.ndarray:
    """Dot products along the last (coordinate) axis; broadcasts.

    Adds the coordinate products left to right, the order numpy's reduce
    uses on axes shorter than 8, so the result equals
    np.sum(a * b, axis=-1) bit for bit, several times faster on the 2-4
    coordinates every run uses.
    """
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


def rownorm(a) -> np.ndarray:
    """Euclidean norms along the last axis: np.linalg.norm(a, axis=-1)."""
    return np.sqrt(rowdot(a, a))


def _as_vec(x):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-d coordinate array")
    if not np.isfinite(v).all():
        raise ValueError("non-finite coordinates")
    return v


@dataclass(frozen=True)
class Plane2:
    """Oriented 2-plane through the origin, spanned by an orthonormal pair."""

    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        e1 = _as_vec(self.e1)
        e2 = _as_vec(self.e2)
        if e1.shape != e2.shape or e1.size < 3:
            raise ValueError("basis vectors must share a dimension >= 3")
        if (abs(e1 @ e1 - 1.0) > ORTHO_TOL or abs(e2 @ e2 - 1.0) > ORTHO_TOL
                or abs(e1 @ e2) > ORTHO_TOL):
            raise ValueError("basis is not orthonormal to 1e-12")
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)

    def projector(self) -> np.ndarray:
        return np.outer(self.e1, self.e1) + np.outer(self.e2, self.e2)

    def wedge_matrix(self) -> np.ndarray:
        """Antisymmetric matrix of the unit two-vector e1 ^ e2."""
        return np.outer(self.e1, self.e2) - np.outer(self.e2, self.e1)

    def basis(self) -> np.ndarray:
        """dim x 2 matrix whose columns span the plane."""
        return np.stack([self.e1, self.e2], axis=1)

    def frame(self) -> np.ndarray:
        """Orthogonal dim x dim matrix whose first two columns are e1, e2."""
        return complete_frame(self.basis())


def orthonormal_pairs(u, v) -> np.ndarray:
    """(K, d, 2) orthonormal bases of the planes spanned by K vector pairs.

    Row k is Gram-Schmidt on (u[k], v[k]): e1 = u/|u| and e2 is the unit
    part of v normal to e1, so e2 @ v > 0.  A pair whose subtraction
    cancels (nearly parallel u and v) takes a second pass.  Raises
    ValueError on non-finite input, a degenerate pair, or a result that is
    not orthonormal to ORTHO_TOL.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 2 or u.shape != v.shape:
        raise ValueError("expected two (K, d) stacks of vectors")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("non-finite coordinates")

    def dot(a, b):
        return rowdot(a, b)[:, None]

    nu = np.sqrt(dot(u, u))
    if (nu < 1e-14).any():
        raise ValueError("degenerate spanning pair")
    e1 = u / nu
    w = v - dot(v, e1) * e1
    nw = np.sqrt(dot(w, w))
    nv = np.sqrt(dot(v, v))
    if (nw < 1e-14 * np.maximum(1.0, nv)).any():
        raise ValueError("degenerate spanning pair")
    # the subtraction cancelled, leaving w a rounding error of about
    # eps |v| along e1; one more pass removes it ("twice is enough")
    again = (nw < nv / np.sqrt(2.0))[:, 0]
    if again.any():
        w[again] -= dot(w[again], e1[again]) * e1[again]
        nw[again] = np.sqrt(dot(w[again], w[again]))
    e2 = w / nw
    gram = np.hstack([dot(e1, e1) - 1.0, dot(e2, e2) - 1.0, dot(e1, e2)])
    if (np.abs(gram) > ORTHO_TOL).any():
        raise ValueError("basis is not orthonormal to 1e-12")
    return np.stack([e1, e2], axis=-1)


def standard_plane(dim: int) -> Plane2:
    e1 = np.zeros(dim)
    e2 = np.zeros(dim)
    e1[0] = 1.0
    e2[1] = 1.0
    return Plane2(e1, e2)


def complete_frame(basis: np.ndarray) -> np.ndarray:
    """Extend a dim x k orthonormal column set to a full orthogonal matrix.

    Deterministic: completes with the coordinate directions least aligned
    with the given columns, then Gram-Schmidt.
    """
    dim, k = basis.shape
    cols = [basis[:, j] for j in range(k)]
    # pick coordinate axes in order of residual size for reproducibility
    resid = np.eye(dim) - basis @ basis.T
    order = np.argsort(-np.diag(resid), kind="stable")
    for idx in order:
        if len(cols) == dim:
            break
        v = resid[:, idx].copy()
        for c in cols[k:]:
            v -= (v @ c) * c
        nv = np.linalg.norm(v)
        if nv > 1e-10:
            cols.append(v / nv)
    if len(cols) != dim:
        raise ValueError("failed to complete frame")
    return np.stack(cols, axis=1)


def wedge_matrix(u, v) -> np.ndarray:
    """Antisymmetric matrix of u ^ v.  Broadcasts over leading axes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., :, None] * v[..., None, :] - v[..., :, None] * u[..., None, :]


def unit_tangent_matrix(u, v) -> np.ndarray:
    """Matrix of the unit simple two-vector of span(u, v), oriented u -> v."""
    W = wedge_matrix(u, v)
    nrm = np.linalg.norm(W, axis=(-2, -1), keepdims=True) / np.sqrt(2.0)
    if np.any(nrm < 1e-300):
        raise ValueError("degenerate tangent pair")
    return W / nrm


def twovector_mass_norm(A) -> np.ndarray:
    """Mass norm of a two-vector given as an antisymmetric matrix.

    Equals the sum of the spectral pair values (half the nuclear norm):
    sqrt(|A|^2 + 2 |Pf A|) for d <= 4, singular values for d >= 5.
    Broadcasts over leading axes.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[-1]
    if d > 4:
        return 0.5 * np.sum(np.linalg.svd(A, compute_uv=False), axis=-1)
    sq = 0.5 * np.sum(A * A, axis=(-2, -1))
    if d == 4:
        pf = (A[..., 0, 1] * A[..., 2, 3] - A[..., 0, 2] * A[..., 1, 3]
              + A[..., 0, 3] * A[..., 1, 2])
        sq = sq + 2.0 * np.abs(pf)
    return np.sqrt(sq)


def twovector_euclid_norm(A) -> np.ndarray:
    """Euclidean norm on two-vectors: sqrt(sum of squared components)."""
    A = np.asarray(A, dtype=float)
    return np.linalg.norm(A, axis=(-2, -1)) / np.sqrt(2.0)

