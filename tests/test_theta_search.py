"""The theta search tries only the decomposition that can hit.

`default_decompositions` yields the coordinate lines of the complement of
C^1(g). Earlier versions first tried the whole complement as one part, and
before that went on to every bipartition of the complement's coordinates.
For a part V_A spanned by the coordinates A, z(V_A) is the intersection of
the z(e_c) over c in A, so Theta of any grouping, the whole complement
included, lies inside Theta of the lines. The tests below check that
inclusion on random nilpotent and on solvable non-nilpotent algebras, and
keep the old enumeration as a reference: at every budget >= 1 the search
must return its budget-512 certificate.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from quadlie.graphs import Graph, build_algebra
from quadlie.hall import free_nilpotent
from quadlie.liealg import LieAlgebra, direct_sum, heisenberg, nilpotency_class
from quadlie.linalg import Subspace, contains
from quadlie.obstructions import (
    Decomposition,
    ThetaCertificate,
    coordinate_complement,
    default_decompositions,
    theta_ideal,
    theta_search,
)

BUDGETS = (0, 1, 2, 3, 512)


def coordinate_decomposition(g, groups, description):
    parts = tuple(Subspace.spanned_by(g.dim, [g.basis_vector(i) for i in grp]) for grp in groups)
    return Decomposition(parts, description)


def bipartitions(coords):
    """Each unordered split of coords into two nonempty classes, once."""
    m = len(coords)
    for mask in range(1, (1 << m) - 1):
        if mask & 1:  # coords[0] stays in the first class
            a = [coords[i] for i in range(m) if mask & (1 << i)]
            b = [coords[i] for i in range(m) if not mask & (1 << i)]
            yield sorted([a, b])


def reference_decompositions(g, budget):
    """The old enumeration: whole, lines, then bipartitions, without repeats."""
    coords = coordinate_complement(g)
    if not coords:
        return
    candidates = [([coords], "complement as a single part")]
    if len(coords) > 1:
        candidates.append(([[c] for c in coords], "complement split into coordinate lines"))
        candidates.extend((groups, f"bipartition {groups}") for groups in bipartitions(coords))
    seen = set()
    for groups, description in candidates:
        key = tuple(map(tuple, groups))
        if key in seen:
            continue
        if len(seen) >= budget:
            return
        seen.add(key)
        yield coordinate_decomposition(g, groups, description)


def reference_theta_search(g, budget):
    for d in reference_decompositions(g, budget):
        theta = theta_ideal(g, d)
        if not theta.is_zero():
            return ThetaCertificate(d, theta, theta.rows[0])
    return None


@st.composite
def two_step_algebras(draw):
    """[x_i, x_j] = sum_k c_ijk y_k with small integer c: always 2-step (or abelian)."""
    p = draw(st.integers(2, 4))
    q = draw(st.integers(1, 3))
    brackets = {}
    for i in range(p):
        for j in range(i + 1, p):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=q, max_size=q))
            brackets[(i, j)] = {p + k: c for k, c in enumerate(coeffs)}
    return LieAlgebra(p + q, brackets)


@st.composite
def graph_algebras(draw):
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = Graph.build(range(n), [e for e, k in zip(pairs, keep) if k])
    return build_algebra(graph).algebra


algebras = st.one_of(two_step_algebras(), graph_algebras())


def extended_by_derivation(g: LieAlgebra, weights) -> LieAlgebra:
    """g + span{t} with [t, e_k] = w_k e_k; the weights of the generators
    extend over g's brackets, so t acts as a diagonal derivation."""
    w = list(weights) + [None] * (g.dim - len(weights))
    for (i, j), terms in sorted(g.brackets.items()):
        for k in terms:
            w[k] = w[i] + w[j]
    brackets = dict(g.brackets)
    for k, wk in enumerate(w):
        if wk:
            brackets[(k, g.dim)] = {k: -wk}
    return LieAlgebra(g.dim + 1, brackets)


AFF1 = LieAlgebra(2, {(0, 1): {1: 1}})  # [a, b] = b

SOLVABLE = {
    "h3 + t, weights (1, -1)": extended_by_derivation(heisenberg(), (1, -1)),
    "h3 + t, weights (1, 1)": extended_by_derivation(heisenberg(), (1, 1)),
    "n(3,2) + t, weights (1, 0, -1)": extended_by_derivation(free_nilpotent(3, 2), (1, 0, -1)),
    "n(3,2) + t, weights (1, 1, 0)": extended_by_derivation(free_nilpotent(3, 2), (1, 1, 0)),
    "aff(1) + h3": direct_sum([AFF1, heisenberg()]),
}


def assert_groupings_inside_lines(g):
    coords = coordinate_complement(g)
    if not coords:
        return
    lines = theta_ideal(g, coordinate_decomposition(g, [[c] for c in coords], "lines"))
    for groups in [[coords], *bipartitions(coords)]:
        theta = theta_ideal(g, coordinate_decomposition(g, groups, "grouping"))
        assert contains(lines, theta)


@settings(max_examples=30)
@given(algebras)
def test_every_grouping_theta_lies_inside_lines_theta(g):
    assert_groupings_inside_lines(g)


def test_inclusion_holds_on_solvable_non_nilpotent_algebras():
    hits = {}
    for name, g in SOLVABLE.items():
        assert nilpotency_class(g) is None, name
        assert_groupings_inside_lines(g)
        coords = coordinate_complement(g)
        whole = theta_ideal(g, coordinate_decomposition(g, [coords], "whole"))
        hits[name] = (not whole.is_zero(), theta_search(g) is not None)
    # the whole complement hits on none of them; the lines refute aff(1) + h3
    assert hits == {name: (False, name == "aff(1) + h3") for name in SOLVABLE}


@settings(max_examples=30)
@given(algebras)
def test_search_matches_the_old_enumeration_at_every_budget(g):
    expected = reference_theta_search(g, 512)
    for budget in BUDGETS:
        assert theta_search(g, budget=budget) == (expected if budget else None)


def test_only_budgets_zero_and_positive_differ():
    g = heisenberg()
    counts = {b: len(list(default_decompositions(g, b))) for b in BUDGETS}
    assert counts == {0: 0, 1: 1, 2: 1, 3: 1, 512: 1}
    assert theta_search(g, budget=0) is None
    found = theta_search(g, budget=1)
    assert found.decomposition.description == "complement split into coordinate lines"


def test_reference_enumerates_every_bipartition():
    # guards the reference itself: 2^(m-1) - 1 bipartitions after whole and lines
    g = LieAlgebra(5, {(0, 1): {4: 1}, (2, 3): {4: 1}})
    assert len(coordinate_complement(g)) == 4
    assert len(list(reference_decompositions(g, 512))) == 2 + 7
    assert len(list(reference_decompositions(g, 3))) == 3
