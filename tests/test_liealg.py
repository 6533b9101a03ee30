import random
from fractions import Fraction

import pytest

from quadlie.hall import HallBasis, free_nilpotent
from quadlie.liealg import (
    JacobiError,
    JacobiViolation,
    LieAlgebra,
    abelian,
    bracket_space,
    centralizer,
    direct_sum,
    heisenberg,
    lower_central_series,
    nilpotency_class,
    relative_series,
    validate,
)
from quadlie.linalg import Subspace, contains

Q = Fraction


def counterexample_8dim() -> LieAlgebra:
    """[e1,e2]=e7, [e2,e3]=e8, [e3,e4]=e5, [e1,e4]=e6."""
    return LieAlgebra(
        8,
        {
            (0, 1): {6: 1},
            (1, 2): {7: 1},
            (2, 3): {4: 1},
            (0, 3): {5: 1},
        },
    )


def witt(p: int, d: int) -> int:
    """Dimension of the degree-d layer of the free Lie algebra on p generators."""

    def mobius(n: int) -> int:
        result = 1
        q = 2
        while q * q <= n:
            if n % q == 0:
                n //= q
                if n % q == 0:
                    return 0
                result = -result
            q += 1
        if n > 1:
            result = -result
        return result

    total = sum(mobius(e) * p ** (d // e) for e in range(1, d + 1) if d % e == 0)
    return total // d


def test_validate_abelian_and_heisenberg():
    assert validate(abelian(5)) is None
    assert validate(heisenberg()) is None


def test_validate_reports_first_violating_triple():
    # [e1,e2]=e3 plus [e1,e3]=e1 breaks Jacobi at (e1,e2,e3)
    with pytest.raises(JacobiError) as exc:
        LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    violation = exc.value.violation
    assert violation.triple == (0, 1, 2)
    assert violation.coords == {2: Q(-1)}


def reference_validate(g: LieAlgebra) -> JacobiViolation | None:
    """The Jacobi check over all basis triples, in Fractions."""
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            cij = g.brackets.get((i, j))
            for k in range(j + 1, g.dim):
                acc: dict[int, Fraction] = {}
                for pair_terms, other in (
                    (cij, k),
                    (g.brackets.get((j, k)), i),
                    ({m: -c for m, c in (g.brackets.get((i, k)) or {}).items()}, j),
                ):
                    if not pair_terms:
                        continue
                    for m, c in pair_terms.items():
                        for t, s in g.bracket_basis(m, other).items():
                            acc[t] = acc.get(t, Fraction(0)) + c * s
                nonzero = {t: v for t, v in acc.items() if v}
                if nonzero:
                    return JacobiViolation((i, j, k), nonzero)
    return None


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 4, 6]))


def random_table(seed: int) -> LieAlgebra:
    """A rational 2-step table (always Lie), with one bracket planted into it
    on odd seeds (usually not Lie)."""
    rng = random.Random(f"jacobi:{seed}")
    n = rng.randint(3, 7)
    p = rng.randint(2, n - 1)
    brackets = {}
    for i in range(p):
        for j in range(i + 1, p):
            if rng.random() < 0.6:
                terms = {k: random_rational(rng) for k in range(p, n) if rng.random() < 0.5}
                brackets[(i, j)] = terms
    if seed % 2:
        i, j = sorted(rng.sample(range(n), 2))
        brackets[(i, j)] = {rng.randrange(n): random_rational(rng)}
    return LieAlgebra(n, brackets, check=False)


def test_integer_jacobi_check_matches_the_fraction_reference():
    outcomes = []
    for seed in range(200):
        g = random_table(seed)
        got = validate(g)
        assert got == reference_validate(g), seed
        outcomes.append((got is None, g._den > 1))
    assert {(True, True), (False, True)} <= set(outcomes)


def test_bracket_table_index_errors():
    with pytest.raises(ValueError):
        LieAlgebra(3, {(1, 0): {2: 1}})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(0, 1): {3: 1}})


def test_bracket_heisenberg_and_antisymmetry():
    g = heisenberg()
    assert g.bracket([1, 0, 0], [0, 1, 0]) == (Q(0), Q(0), Q(1))
    x = [3, Q(1, 2), -2]
    assert g.bracket(x, x) == (Q(0),) * 3
    with pytest.raises(ValueError):
        g.bracket([1, 0], [0, 1, 0])


def test_bracket_bilinearity_in_free_two_step():
    g = free_nilpotent(3, 2)
    # e1+e2 against e2+e3 hits each wedge layer generator once
    got = g.bracket([1, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0])
    assert got == (Q(0), Q(0), Q(0), Q(1), Q(1), Q(1))


def test_series_heisenberg():
    g = heisenberg()
    rep = relative_series(g, g.full_space())
    assert rep.descending_dims == (3, 1, 0)
    assert rep.ascending_dims == (0, 1, 3)
    assert rep.descending_stable and rep.ascending_stable
    assert rep.descending_stabilized_at == 2
    assert rep.ascending_stabilized_at == 2
    assert rep.nilpotency_class() == 2


def test_series_eight_dim_counterexample():
    g = counterexample_8dim()
    v = Subspace.spanned_by(8, [g.basis_vector(0), g.basis_vector(1)])
    rep = relative_series(g, v)
    assert rep.descending[1].dim == 3
    assert rep.ascending[1].dim == 4
    assert rep.descending[1].dim + rep.ascending[1].dim == 7  # != dim 8
    full = relative_series(g, g.full_space())
    assert full.descending[1].dim + full.ascending[1].dim == 8


def test_series_free_two_three():
    g = free_nilpotent(2, 3)
    rep = lower_central_series(g)
    assert rep.descending_dims == (5, 3, 2, 0)
    assert rep.nilpotency_class() == 3


def test_ascending_series_not_nested_for_non_ideal_centralizer():
    # V = span{x1} in n_{2,3}: C_1(V) is not contained in C_2(V)
    g = free_nilpotent(2, 3)
    v = Subspace.spanned_by(5, [g.basis_vector(0)])
    rep = relative_series(g, v)
    c1, c2 = rep.ascending[1], rep.ascending[2]
    assert c1.dim == 3 and c2.dim == 3
    assert not contains(c2, c1)
    # for V = g the ascending series is always nested
    full = relative_series(g, g.full_space())
    for a, b in zip(full.ascending, full.ascending[1:]):
        assert contains(b, a)


def test_descending_nested_when_v_is_ideal():
    g = free_nilpotent(2, 3)
    comm = g.commutator_subspace()
    rep = relative_series(g, comm)
    for a, b in zip(rep.descending, rep.descending[1:]):
        assert contains(a, b)


def test_centralizer_basics():
    g = abelian(4)
    assert centralizer(g, Subspace.spanned_by(4, [[1, 2, 3, 4]])) == Subspace.full(4)
    h = heisenberg()
    z = centralizer(h, Subspace.spanned_by(3, [[1, 0, 0]]))
    assert z == Subspace.spanned_by(3, [[1, 0, 0], [0, 0, 1]])
    assert z == relative_series(h, Subspace.spanned_by(3, [[1, 0, 0]])).ascending[1]


def test_direct_sum():
    g = direct_sum([abelian(2), heisenberg()])
    assert g.dim == 5
    assert g.center().dim == 3
    two = direct_sum([free_nilpotent(3, 2), free_nilpotent(3, 2)])
    assert two.dim == 12
    assert two.commutator_subspace().dim == 6
    same = direct_sum([heisenberg(), abelian(0)])
    assert same.dim == 3 and same.brackets == heisenberg().brackets


def test_free_nilpotent_dims():
    assert free_nilpotent(3, 2).dim == 6
    assert HallBasis(3, 2).graded_dims == (3, 3)
    assert free_nilpotent(2, 2).dim == 3
    assert free_nilpotent(2, 3).dim == 5
    assert HallBasis(2, 3).graded_dims == (2, 1, 2)


@pytest.mark.parametrize("p,k", [(2, 5), (3, 3), (4, 2), (5, 2), (2, 4)])
def test_free_nilpotent_matches_witt_and_class(p, k):
    basis = HallBasis(p, k)
    assert basis.graded_dims == tuple(witt(p, d) for d in range(1, k + 1))
    g = free_nilpotent(p, k)
    assert nilpotency_class(g) == k


def test_free_nilpotent_quotient_consistency():
    for p, k in [(2, 3), (2, 4), (3, 3)]:
        big = free_nilpotent(p, k)
        small = free_nilpotent(p, k - 1)
        n = small.dim
        truncated = {}
        for (i, j), terms in big.brackets.items():
            if i < n and j < n:
                kept = {m: c for m, c in terms.items() if m < n}
                if kept:
                    truncated[(i, j)] = kept
        assert truncated == small.brackets
        assert big.labels[:n] == small.labels


def test_heisenberg_is_free_2_2():
    g = free_nilpotent(2, 2)
    assert g.brackets == {(0, 1): {2: Q(1)}}


def test_bracket_space_matches_commutator():
    g = free_nilpotent(3, 2)
    assert bracket_space(g, g.full_space()) == g.commutator_subspace()
