import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlie.config import RunConfig
from quadlie.forms import (
    FormSpace,
    SymForm,
    check_orthogonality_relations,
    decide_nondegenerate,
    invariant_form_space,
    orthogonal_complement,
    radical,
    signature,
    verify_form,
)
from quadlie.hall import free_nilpotent
from quadlie.liealg import abelian, heisenberg
from quadlie.linalg import Matrix, Subspace

Q = Fraction


def test_invariant_forms_abelian_full_symmetric_space():
    for n in (1, 3, 4):
        space = invariant_form_space(abelian(n))
        assert space.dim == n * (n + 1) // 2


def test_invariant_forms_heisenberg_forces_center_into_radical():
    space = invariant_form_space(heisenberg())
    assert space.dim == 3
    e3 = (Q(0), Q(0), Q(1))
    for form in space.basis:
        # <e3, ei> = 0 for every i, so e3 is in the radical of every member
        assert form.matrix.mul_vec(e3) == (Q(0),) * 3
        assert verify_form(heisenberg(), form).reason != "invariance"


def test_invariant_form_space_members_satisfy_invariance_exactly():
    for g in (heisenberg(), free_nilpotent(3, 2), free_nilpotent(2, 3)):
        space = invariant_form_space(g)
        for form in space.basis:
            check = verify_form(g, form)
            assert check.reason != "invariance"


def test_radical_basics():
    g = abelian(3)
    assert radical(g, SymForm.identity(3)).dim == 0
    assert radical(g, SymForm(Matrix.zero(3, 3))) == Subspace.full(3)
    h = heisenberg()
    for form in invariant_form_space(h).basis:
        rad = radical(h, form)
        assert rad.contains_vector([0, 0, 1])


def test_decide_abelian_admits():
    verdict = decide_nondegenerate(invariant_form_space(abelian(3)))
    assert verdict.admits
    assert verify_form(abelian(3), verdict.witness).ok


def test_decide_heisenberg_refuted_symbolically():
    verdict = decide_nondegenerate(invariant_form_space(heisenberg()))
    assert verdict.kind == "refuted_symbolic"


def test_decide_free_three_two_admits_with_verified_witness():
    g = free_nilpotent(3, 2)
    verdict = decide_nondegenerate(invariant_form_space(g))
    assert verdict.admits
    check = verify_form(g, verdict.witness)
    assert check.ok
    # scaling invariance of witnesses
    assert verify_form(g, verdict.witness.scaled(Q(-7, 3))).ok
    # normalization: first nonzero entry is one
    first = next(x for row in verdict.witness.matrix.rows for x in row if x)
    assert first == 1


def test_decide_monte_carlo_path_reports_schwartz_zippel_bound():
    config = RunConfig(mc_trials=5, symbolic_max_dim=0)
    verdict = decide_nondegenerate(invariant_form_space(heisenberg()), config)
    assert verdict.kind == "refuted_monte_carlo"
    assert verdict.trials == 5
    assert verdict.bound == Q(3, 65536) ** 5
    assert verdict.seed == config.seed


def test_decide_empty_formspace_refuted():
    verdict = decide_nondegenerate(FormSpace(4, ()))
    assert verdict.kind == "refuted_symbolic"


def test_verify_form_failure_cases():
    ok = verify_form(abelian(3), SymForm.identity(3))
    assert ok.ok
    bad = verify_form(heisenberg(), SymForm.identity(3))
    assert not bad.ok
    assert bad.reason == "invariance"
    assert bad.triple == (0, 1, 2)
    assert bad.value == 1
    degenerate = verify_form(abelian(2), SymForm(Matrix.zero(2, 2)))
    assert degenerate.reason == "degenerate"
    assert degenerate.radical_vector is not None
    with pytest.raises(ValueError):
        verify_form(abelian(2), SymForm.identity(3))


def test_orthogonality_relations_abelian():
    g = abelian(4)
    rep = check_orthogonality_relations(
        g, SymForm.identity(4), Subspace.spanned_by(4, [[1, 2, 0, 0]])
    )
    assert rep.ok


def test_orthogonality_relations_free_algebras():
    for g, vecs in [
        (free_nilpotent(3, 2), None),
        (free_nilpotent(2, 3), [[1, 0, 0, 0, 0]]),
    ]:
        witness = decide_nondegenerate(invariant_form_space(g)).witness
        v = g.full_space() if vecs is None else Subspace.spanned_by(g.dim, vecs)
        rep = check_orthogonality_relations(g, witness, v)
        assert rep.ok


def test_orthogonality_relations_random_subspaces():
    g = free_nilpotent(3, 2)
    witness = decide_nondegenerate(invariant_form_space(g)).witness
    rng = random.Random(7)
    for _ in range(5):
        k = rng.randint(1, g.dim)
        vecs = [[rng.randint(-3, 3) for _ in range(g.dim)] for _ in range(k)]
        rep = check_orthogonality_relations(g, witness, Subspace.spanned_by(g.dim, vecs))
        assert rep.ok


def test_orthogonality_requires_metric():
    with pytest.raises(ValueError):
        check_orthogonality_relations(
            heisenberg(), SymForm.identity(3), Subspace.full(3)
        )


def test_orthogonal_complement_of_zero_is_full():
    f = SymForm.identity(3)
    assert orthogonal_complement(f, Subspace.zero(3)) == Subspace.full(3)


def test_signature():
    assert signature(SymForm.identity(3)) == (3, 0, 0)
    assert signature(SymForm(Matrix.zero(2, 2))) == (0, 0, 2)
    hyperbolic = SymForm(Matrix.from_rows([[0, 1], [1, 0]]))
    assert signature(hyperbolic) == (1, 1, 0)
    mixed = SymForm(
        Matrix.from_rows(
            [[2, 0, 0, 0], [0, -3, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
        )
    )
    assert signature(mixed) == (2, 2, 0)


def charpoly_inertia(rows):
    """Inertia from det(xI - A) by Descartes' rule of signs.

    A symmetric matrix has only real eigenvalues, so the sign changes of the
    coefficients count the positive roots exactly, those of p(-x) the
    negative ones. Coefficients by Faddeev-LeVerrier, c[i] of x^i.
    """
    n = len(rows)
    a = [[Q(x) for x in row] for row in rows]
    c = [Q(0)] * n + [Q(1)]
    am = [[Q(0)] * n for _ in range(n)]  # A M_(k-1), with M_0 = 0
    for k in range(1, n + 1):
        m = [[am[i][j] + (c[n - k + 1] if i == j else 0) for j in range(n)] for i in range(n)]
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c[n - k] = -sum(am[i][i] for i in range(n)) / k

    def changes(coeffs):
        signs = [x > 0 for x in coeffs if x]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    zero = next(i for i, x in enumerate(c) if x)
    return changes(c), changes([x * (-1) ** i for i, x in enumerate(c)]), zero


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 6))
    upper = draw(st.lists(st.integers(-2, 2), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    hollow = draw(st.booleans())  # zero diagonal: forces the off-diagonal pivot step
    rows = [[0] * n for _ in range(n)]
    for (i, j), x in zip(((i, j) for i in range(n) for j in range(i, n)), upper):
        rows[i][j] = rows[j][i] = 0 if hollow and i == j else x
    return rows


@settings(max_examples=40)
@given(symmetric_matrices())
def test_signature_matches_characteristic_polynomial(rows):
    assert signature(SymForm(Matrix.from_rows(rows))) == charpoly_inertia(rows)
