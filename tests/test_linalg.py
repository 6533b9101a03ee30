from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlie.linalg import (
    Matrix,
    Subspace,
    contains,
    det,
    nullspace,
    rref,
    span_intersect,
    span_sum,
    sparse_nullspace,
)
from test_integer_paths import ref_free_column_basis, ref_nullspace

Q = Fraction


def mat(rows, ncols=None):
    return Matrix.from_rows(rows, ncols)


def naive_rank(rows):
    """Independent oracle: plain fraction Gaussian elimination, rank only."""
    rows = [[Q(x) for x in row] for row in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rref_identity():
    m = Matrix.identity(3)
    r, rank = rref(m)
    assert r == m
    assert rank == 3


def test_rref_dependent_rows():
    r, rank = rref(mat([[2, 4], [1, 2]]))
    assert rank == 1
    assert r.rows == ((Q(1), Q(2)), (Q(0), Q(0)))


# Invariance system of the Heisenberg algebra [e1,e2]=e3, written out by hand
# against the unknowns (f11, f12, f13, f22, f23, f33): rows are the equations
# <[ei,ej],el> + <ej,[ei,el]> = 0 for (i,j,l) in
# (1,2,1), (1,2,2), (1,2,3), (1,3,1), (1,3,2), (2,3,1).
HEISENBERG_INVARIANCE = [
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 2, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, -1],
]


def test_rref_heisenberg_invariance_rank_matches_hand_elimination():
    expected = naive_rank(HEISENBERG_INVARIANCE)
    assert expected == 3
    _, rank = rref(mat(HEISENBERG_INVARIANCE))
    assert rank == expected


def test_rref_idempotent_and_rank_preserving():
    m = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    r1, rank1 = rref(m)
    r2, rank2 = rref(r1)
    assert r1 == r2
    assert rank1 == rank2 == 2


def test_nullspace_zero_matrix_is_full_space():
    ns = nullspace(Matrix.zero(2, 3))
    assert ns == Subspace.full(3)


def test_nullspace_identity_is_zero():
    assert nullspace(Matrix.identity(4)) == Subspace.zero(4)


def test_nullspace_multiply_back():
    m = mat([[1, 1, 0]])
    ns = nullspace(m)
    assert ns.dim == 2
    for row in ns.rows:
        assert m.mul_vec(row) == (Q(0),)


def test_span_sum_intersect_trivial():
    a = Subspace.spanned_by(2, [[1, 0]])
    b = Subspace.spanned_by(2, [[0, 1]])
    assert span_sum(a, b) == Subspace.full(2)
    assert span_intersect(a, b) == Subspace.zero(2)


def test_span_ops_idempotent():
    a = Subspace.spanned_by(3, [[1, 2, 3], [0, 1, 1]])
    assert span_sum(a, a) == a
    assert span_intersect(a, a) == a


def test_ambient_mismatch_raises():
    a = Subspace.full(2)
    b = Subspace.full(3)
    with pytest.raises(ValueError):
        span_sum(a, b)
    with pytest.raises(ValueError):
        span_intersect(a, b)
    with pytest.raises(ValueError):
        contains(a, b)


def test_contains_reduction():
    a = Subspace.spanned_by(3, [[1, 0, 1], [0, 1, 1]])
    b = Subspace.spanned_by(3, [[1, 1, 2]])
    assert contains(a, b)
    assert not contains(b, a)


small_entries = st.integers(min_value=-4, max_value=4)


def subspace_strategy(ambient, max_vectors=4):
    vec = st.lists(small_entries, min_size=ambient, max_size=ambient)
    return st.lists(vec, min_size=0, max_size=max_vectors).map(
        lambda vs: Subspace.spanned_by(ambient, vs)
    )


@settings(max_examples=60, deadline=None)
@given(subspace_strategy(6), subspace_strategy(6))
def test_modular_law(a, b):
    s = span_sum(a, b)
    i = span_intersect(a, b)
    assert a.dim + b.dim == s.dim + i.dim
    assert contains(s, a) and contains(s, b)
    assert contains(a, i) and contains(b, i)


def test_modular_law_three_and_four_dim_in_q6():
    a = Subspace.spanned_by(
        6,
        [[1, 2, 0, 1, 0, 0], [0, 1, 1, 0, 2, 0], [1, 0, 0, 0, 0, 3]],
    )
    b = Subspace.spanned_by(
        6,
        [[2, 1, 0, 0, 1, 0], [0, 0, 1, 1, 0, 1], [1, 1, 1, 0, 0, 0], [0, 3, 0, 1, 0, 2]],
    )
    assert a.dim == 3 and b.dim == 4
    assert span_sum(a, b).dim + span_intersect(a, b).dim == 7


def test_determinism_byte_identical():
    rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    r1, _ = rref(mat(rows))
    r2, _ = rref(mat(rows))
    assert repr(r1) == repr(r2)


def test_det_exact():
    assert det(mat([[1, 2], [3, 4]])) == Q(-2)
    assert det(Matrix.identity(5)) == Q(1)
    assert det(mat([[Q(1, 2), 0], [0, Q(2, 3)]])) == Q(1, 3)
    with pytest.raises(ValueError):
        det(Matrix.zero(2, 3))


def test_sparse_nullspace_matches_dense():
    rows = [
        {0: 1, 2: -1},
        {1: 2, 3: 2},
        {0: 1, 2: -1},  # duplicate, must be ignored
        {4: 3},
    ]
    dense = [
        [1, 0, -1, 0, 0],
        [0, 2, 0, 2, 0],
        [0, 0, 0, 0, 3],
    ]
    got = Subspace.spanned_by(5, sparse_nullspace(rows, 5)[0])
    assert got == ref_nullspace(dense, 5)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
        min_size=1,
        max_size=6,
    )
)
def test_sparse_nullspace_agrees_with_dense_random(rows):
    """Against Fraction Gauss-Jordan: the same free-column vectors, each
    times the returned scale, and so the same kernel."""
    sparse = [
        {j: v for j, v in enumerate(row) if v} for row in rows
    ]
    vecs, scale = sparse_nullspace(sparse, 5)
    assert vecs == [[scale * x for x in v] for v in ref_free_column_basis(rows, 5)]
    assert Subspace.spanned_by(5, vecs) == ref_nullspace(rows, 5)
