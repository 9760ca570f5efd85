"""Plane, frame and two-vector norm tests.

The mass-norm oracles here are independent hand computations: the norm
of a wedge u ^ v must be the parallelogram area, and for 3-dimensional
ambient space the mass and Euclidean norms of any antisymmetric matrix
agree because every 2-vector there is simple.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import special_ortho_group

from tclab.geom import (Plane2, orthonormal_pairs, complete_frame, wedge,
                        twovector_mass_norm, twovector_euclid_norm, rowdot,
                        rownorm, index_pairs)

from oracles import (TwoFormField, check_orthonormal_pairs, components,
                     matrix_mass_norm, standard_plane, unit_tangent_matrix,
                     wedge_matrix)


def vec(draw, dim, lo=-3.0, hi=3.0):
    return np.array([draw(st.floats(lo, hi)) for _ in range(dim)])


@st.composite
def two_vectors(draw, dim):
    u = vec(draw, dim)
    v = vec(draw, dim)
    return u, v


def test_standard_plane_projects_to_first_two_coordinates():
    p = standard_plane(4)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(p.projector() @ x, [1.0, 2.0, 0.0, 0.0])


def spanned(u, v) -> Plane2:
    """The plane of orthonormal_pairs on the one-row stack (u, v)."""
    B = orthonormal_pairs(np.atleast_2d(u), np.atleast_2d(v))[0]
    return Plane2(B[:, 0], B[:, 1])


# nearly parallel: a single Gram-Schmidt pass leaves e1 @ e2 near 1e-11,
# past ORTHO_TOL, so this pair needs the second pass
NEAR_PARALLEL = ([5.24292436e-05, 2.0, 0.0], [0.0, 1.0, 0.0])


@given(two_vectors(dim=3))
@example(tuple(np.array(w) for w in NEAR_PARALLEL))
@settings(max_examples=25, deadline=None)
def test_projection_is_idempotent(uv):
    u, v = uv
    if np.linalg.norm(np.cross(u, v)) < 1e-6:
        return
    p = spanned(u, v)
    P = p.projector()
    assert np.allclose(P @ P, P, atol=1e-12)


def test_orthonormal_pairs_meet_gram_schmidt_properties():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((6, 3))
    v = rng.standard_normal((6, 3))
    u[2], v[2] = NEAR_PARALLEL
    u[4], v[4] = [1.0, 0.0, 0.0], [1.0, 1e-9, 0.0]
    B = orthonormal_pairs(u, v)
    assert B.shape == (6, 3, 2)
    check_orthonormal_pairs(B, u, v)


DEGENERATE_ROWS = {
    "parallel": ([1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]),
    "zero u": ([0.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
    "zero v": ([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    "non-finite": ([1.0, 0.0, 0.0], [0.0, np.inf, 0.0]),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_ROWS))
def test_orthonormal_pairs_reject_a_degenerate_row(case):
    u = np.array([NEAR_PARALLEL[0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    v = np.array([NEAR_PARALLEL[1], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    u[1], v[1] = DEGENERATE_ROWS[case]
    with pytest.raises(ValueError):
        orthonormal_pairs(u, v)


def test_split_reassembles():
    # the projector splits a point into its in-plane part and a normal
    # part orthogonal to both basis vectors
    p = spanned([1.0, 2.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0, -1.0])
    x = np.arange(5.0)
    y = p.projector() @ x
    z = x - y
    assert np.allclose(y + z, x)
    assert np.allclose(p.projector() @ z, 0.0, atol=1e-14)
    assert abs(z @ p.e1) < 1e-14 and abs(z @ p.e2) < 1e-14


INVALID_BASES = {
    "not orthonormal": ([1.0, 0.0, 0.0], [1.0, 1.0, 0.0]),
    "dimension two": ([1.0, 0.0], [0.0, 1.0]),
    "mismatched dimensions": ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]),
    "non-finite": ([1.0, 0.0, np.nan], [0.0, 1.0, 0.0]),
}


@pytest.mark.parametrize("case", sorted(INVALID_BASES))
def test_plane_rejects_invalid_basis(case):
    e1, e2 = INVALID_BASES[case]
    with pytest.raises(ValueError):
        Plane2(e1=np.array(e1), e2=np.array(e2))


def test_plane_frame_starts_with_its_basis():
    p = spanned([1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0])
    F = p.frame()
    assert np.allclose(F.T @ F, np.eye(4), atol=1e-12)
    assert np.array_equal(F[:, 0], p.e1) and np.array_equal(F[:, 1], p.e2)


def test_complete_frame_is_orthogonal():
    basis = spanned([1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0])
    F = complete_frame(np.stack([basis.e1, basis.e2], axis=1))
    assert F.shape == (4, 4)
    assert np.allclose(F.T @ F, np.eye(4), atol=1e-12)


def test_plane_distance_zero_on_itself_and_positive_otherwise():
    # |T - tau| in the mass norm: zero on the plane itself, and for a
    # plane tilted by angle phi inside span(e1, e3) it is 2 sin(phi / 2)
    p = standard_plane(3)
    phi = 0.1
    q = spanned([np.cos(phi), 0.0, np.sin(phi)], [0.0, 1.0, 0.0])
    tau = wedge(p.e1, p.e2)
    assert twovector_mass_norm(tau - tau) == 0.0
    got = twovector_mass_norm(wedge(q.e1, q.e2) - tau)
    assert abs(got - 2.0 * np.sin(phi / 2.0)) < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4])
def test_index_pairs_are_the_upper_triangle_made_once(d, monkeypatch):
    i, j = index_pairs(d)
    assert all(np.array_equal(a, b)
               for a, b in zip((i, j), np.triu_indices(d, 1)))
    assert not (i.flags.writeable or j.flags.writeable)
    # wedge reads the cached pairs and builds none of its own
    monkeypatch.setattr(np, "triu_indices", None)
    assert index_pairs(d) is index_pairs(d)
    u, v = np.eye(d)[0], np.eye(d)[1]
    assert wedge(u, v)[0] == 1.0


def test_wedge_mass_norm_is_parallelogram_area():
    u = np.array([2.0, 0.0, 0.0, 0.0])
    v = np.array([1.0, 3.0, 0.0, 0.0])
    A = wedge(u, v)
    # base 2, height 3: area 6
    assert abs(twovector_mass_norm(A) - 6.0) < 1e-12


@given(two_vectors(dim=3))
@settings(max_examples=25, deadline=None)
def test_mass_equals_euclid_in_three_dimensions(uv):
    u, v = uv
    A = wedge(u, v)
    assert abs(twovector_mass_norm(A) - twovector_euclid_norm(A)) < 1e-9


def test_mass_below_euclid_for_non_simple_twovector():
    # e1^e2 + e3^e4 has mass 2 but euclid sqrt(2) times that of a unit
    # simple piece; mass = sum of singular-pair norms = 2, euclid =
    # sqrt(1^2 + 1^2) * sqrt(2) = 2 as Frobenius/sqrt2... check concrete
    # values instead of re-deriving: mass 2, euclid sqrt(2).
    A = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    assert abs(twovector_mass_norm(A) - 2.0) < 1e-12
    assert abs(twovector_euclid_norm(A) - np.sqrt(2.0)) < 1e-12


def singular_value_mass(A):
    return 0.5 * np.sum(np.linalg.svd(A, compute_uv=False), axis=-1)


def mass_norm_batches(d, rng, m=400):
    M = rng.standard_normal((m, d, d))
    u = rng.standard_normal((m, d))
    v = rng.standard_normal((m, d))
    T = unit_tangent_matrix(u, v)
    batches = {
        "antisymmetric": M - np.swapaxes(M, -1, -2),
        "simple": wedge_matrix(u, v),
        "tangent minus plane": T - unit_tangent_matrix(
            rng.standard_normal(d), rng.standard_normal(d)),
        "nearby tangents": unit_tangent_matrix(
            u + 1e-6 * rng.standard_normal((m, d)), v) - T,
    }
    if d == 4:
        # in R^4, Pf = 0 exactly on simple two-vectors; a sum of wedges
        # sharing a factor has every entry nonzero and makes the
        # Pfaffian's three products cancel
        w = rng.standard_normal((m, 4))
        batches["zero pfaffian"] = wedge_matrix(u, v) + wedge_matrix(u, w)
    return batches


@pytest.mark.parametrize("d", [2, 3, 4])
def test_closed_form_mass_norm_matches_singular_values(d):
    rng = np.random.default_rng(40 + d)
    for name, A in mass_norm_batches(d, rng).items():
        got = twovector_mass_norm(components(A))
        want = singular_value_mass(A)
        err = np.abs(got - want)
        assert np.all(err <= 2e-15 * want), (name, float(np.max(err / want)))


@pytest.mark.parametrize("shape", [(1, 256), (9, 576), (49, 1000)])
@pytest.mark.parametrize("d", [3, 4])
def test_component_norms_equal_matrix_sums_bit_for_bit(d, shape):
    # the component norms add each a_ij^2 in the order numpy's pairwise
    # sum adds the d^2 matrix entries; if numpy's reduction order ever
    # changes, the excess kernel stops being bit-identical and this fails
    rng = np.random.default_rng(50 + d)
    u = rng.standard_normal(shape + (d,))
    v = rng.standard_normal(shape + (d,))
    # spread the magnitudes so that the order of the additions shows
    M = (rng.standard_normal(shape + (d, d))
         * 10.0 ** rng.integers(-8, 8, shape + (d, d)))
    assert np.array_equal(wedge(u, v), components(wedge_matrix(u, v)))
    for A in (M - np.swapaxes(M, -1, -2),
              unit_tangent_matrix(u, v)
              - unit_tangent_matrix(rng.standard_normal(d),
                                    rng.standard_normal(d))):
        a = components(A)
        assert np.array_equal(twovector_mass_norm(a), matrix_mass_norm(A))
        assert np.array_equal(twovector_euclid_norm(a),
                              np.linalg.norm(A, axis=(-2, -1)) / np.sqrt(2))


def test_mass_norm_rejects_five_dimensions():
    B = np.zeros((5, 5))
    B[0, 1], B[2, 3] = 1.0, 2.0
    with pytest.raises(ValueError):
        twovector_mass_norm(components(B - B.T))


def constant_form(A):
    """Two-form field equal to A at every point."""
    return TwoFormField(
        matrix=lambda x: np.broadcast_to(A, x.shape[:-1] + A.shape),
        exterior=None)


FORM_POINTS = np.random.default_rng(9).standard_normal((5, 4))


def test_comass_of_simple_covector_is_one():
    A = np.zeros((4, 4))
    A[0, 1] = 1.0
    A[1, 0] = -1.0
    comass = constant_form(A).comass_at(FORM_POINTS)
    assert comass.shape == (5,)
    assert np.all(np.abs(comass - 1.0) < 1e-12)


def test_comass_of_kahler_like_covector():
    # omega = e12 + e34 acts on the simple 2-vector spanned by any
    # orthonormal pair; its comass is 1, not 2, because no plane aligns
    # with both blocks at once.
    A = np.zeros((4, 4))
    A[0, 1] = A[2, 3] = 1.0
    A[1, 0] = A[3, 2] = -1.0
    assert np.all(np.abs(constant_form(A).comass_at(FORM_POINTS) - 1.0)
                  < 1e-9)


def test_rotate_plane_preserves_orthonormality():
    R = special_ortho_group.rvs(3, random_state=np.random.default_rng(7))
    p = standard_plane(3)
    q = Plane2(e1=R @ p.e1, e2=R @ p.e2)
    assert abs(np.dot(q.e1, q.e2)) < 1e-12
    assert abs(np.linalg.norm(q.e1) - 1) < 1e-12
    assert np.allclose(q.projector(), R @ p.projector() @ R.T, atol=1e-12)


@pytest.mark.parametrize("shape", [(257, 2), (257, 3), (257, 4), (5, 64, 2)])
def test_rowdot_and_rownorm_equal_numpy_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    # spread the magnitudes so that the order of the additions shows
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    b = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    assert np.array_equal(rowdot(a, b), np.sum(a * b, axis=-1))
    assert np.array_equal(rownorm(a), np.linalg.norm(a, axis=-1))
    # a transposed (column-major) view reads the same numbers
    at = np.asfortranarray(a)
    assert np.array_equal(rowdot(at, b), np.sum(at * b, axis=-1))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rowdot_broadcasts_like_numpy(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((64, d))
    b = rng.standard_normal((7, 1, d))
    out = rowdot(a, b)
    assert out.shape == (7, 64)
    assert np.array_equal(out, np.sum(a * b, axis=-1))
    assert np.array_equal(rowdot(b, a), out)
    assert np.array_equal(rownorm(b), np.linalg.norm(b, axis=-1))
